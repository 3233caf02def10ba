"""Command-line frontend: verify identities, build polynomials, solve the
q-wave IVP, and sample solutions to CSV.

Exit codes: 0 success / all identities verified, 1 an identity check found a
counterexample (or the solver's self-check refused a solution), 2 usage or
input error (also a verify bound flag that the chosen identity does not take,
a size flag past its ceiling, MAX_SOLVE_ORDER and the others below, a
--f or --g list of more than MAX_SOLVE_ORDER + 1 coefficients, and a named
datum of degree past MAX_SOLVE_ORDER) or a run that ran out of memory or
recursion depth.
Symbolic q everywhere; a floating-point q is accepted only by `sample`.
Every JSON document is written as one line of compact JSON: a polynomial or
wave document as the pieces of serialize.doc_text, the text of one term
made per write, and the verdicts as one json.dumps of their documents.

Each command takes the parsed args and returns (exit_code, emit): it parses,
checks and computes its whole result before it returns, the wire digit bound
included, and emit(out) writes the text of that decided value.  Past the
first byte nothing can raise but MemoryError or the write's own OSError.
So a failing command writes nothing, and --output PATH is opened only once
there is a result to write.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from fractions import Fraction

from .coeffs import GR_I, QCalcError
from .hermite import hermite_classical, q_hermite, q_hermite_dual
from .identities import DEFAULT_BOUNDS, IDENTITY_CHECKS
from .polys import MPoly, q_binomial_power
from .qcore import q_int
from .qwave import (
    MAX_GRID_POINTS,
    NAMED_SOURCES,
    SYMBOLIC_SPEED,
    InitialData,
    PostconditionError,
    _named_degree,
    dalembert_solve,
    named_source,
    poly_from_coefficients,
    q_binomial_substitute,
    sample_grid,
)
from .serialize import (
    SerializationError,
    doc_text,
    rational_from_str,
    verdict_to_json,
    wave_from_json,
    write_sample_csv,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2

# Ceilings of the size flags, as qwave.MAX_GRID_POINTS is for sample's grid:
# a value past one is refused with exit 2 before any arithmetic.  Each is
# set from a cost curve measured at legal sizes (README, "Size ceilings"):
# the top legal value runs in 8 to 20 s and under 350 MB, and the cost grows
# as about the fourth to sixth power of the size.
MAX_SOLVE_ORDER = 100
MAX_VERIFY_ORDER = 60
MAX_VERIFY_N_MAX = 32
MAX_HERMITE_N = 200
MAX_EXPAND_N = 240

# the one identity whose verifier takes q samples, so the one --seed applies to
_SEEDED_IDENTITY = "exp-product"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcalc",
        description="Exact q-calculus toolkit: identity verification, "
        "q-Hermite polynomials and the q-wave d'Alembert solver.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--output", metavar="PATH", help="write result here instead of stdout"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="verify one identity or all of them")
    p.add_argument("--identity", required=True,
                   choices=sorted(IDENTITY_CHECKS) + ["all"])
    p.add_argument("--n-max", type=int, default=None, help="degree bound for polynomial identities")
    p.add_argument("--order", type=int, help="truncation order for series identities")
    p.add_argument("--seed", type=int, default=None,
                   help=f"seed for the randomised q spot checks of {_SEEDED_IDENTITY}")

    p = sub.add_parser("solve", parents=[common], help="solve the q-wave IVP in d'Alembert form")
    p.add_argument("--f", help="comma-separated rational coefficients of f, low degree first")
    p.add_argument("--f-named", choices=NAMED_SOURCES, help="named initial displacement")
    p.add_argument("--g", help="comma-separated rational coefficients of g, low degree first")
    p.add_argument("--g-named", choices=NAMED_SOURCES + ("neg-2q-cx",),
                   help="named initial q-velocity")
    p.add_argument("--c", required=True, help="wave speed as a rational p/q")
    p.add_argument("--order", type=int, default=20, help="truncation order for named series data")
    p.add_argument("--check", action="store_true",
                   help="accepted for compatibility: the solver always checks its "
                   "output and exits 1 instead of emitting a refused solution")

    p = sub.add_parser("sample", parents=[common], help="evaluate a wave solution on a float grid (CSV)")
    p.add_argument("--in", dest="infile", default="-", help="wave solution JSON (default stdin)")
    p.add_argument("--q", type=float, required=True, help="numeric q > 0")
    p.add_argument("--c", type=float, default=1.0,
                   help="numeric speed, used when the body carries a symbolic c")
    p.add_argument("--x", required=True, metavar="START:STOP:STEP", help="x grid")
    p.add_argument("--t", required=True, metavar="START:STOP:STEP", help="t grid")

    p = sub.add_parser("hermite", parents=[common], help="emit a Hermite polynomial as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("q", "classical", "inverse-q"), default="q")

    p = sub.add_parser("expand", parents=[common], help="emit a q-binomial power expansion as JSON")
    p.add_argument("--binomial", required=True, choices=("z+iw", "z-iw", "x+ct", "x-ct"))
    p.add_argument("--n", type=int, required=True)

    return parser


def _json_emit(pieces):
    """emit(out) for the text of a JSON document: writes each piece, made as
    it is written, and a newline.  The pieces come decided: making them
    raises nothing but MemoryError (doc_text has checked the digit bound)."""

    def emit(out):
        for piece in pieces:
            out.write(piece)
        out.write("\n")

    return emit


def _parse_coeff_list(text: str):
    return [rational_from_str(part) for part in text.split(",")]


def _parse_grid(text: str):
    """The points start + k*step that do not pass stop + step*1e-9, k = 0, 1, ..."""
    parts = text.strip().split(":")
    if len(parts) != 3:
        raise SerializationError(f"grid {text!r} is not START:STOP:STEP")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise SerializationError(f"grid {text!r} has non-numeric parts") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise SerializationError(f"grid {text!r} has a non-finite part")
    if step <= 0:
        raise SerializationError("grid step must be positive")
    wide = max(start, stop, key=abs)
    if wide + step == wide:
        raise SerializationError(f"grid step {step!r} does not move {wide!r} in float arithmetic")
    # start + k*step never falls as k grows, so the grid is every k before the
    # first point past the limit: estimate that count, then correct it by the
    # same float test, so the points are exactly those of a k = 0, 1, ... loop
    limit = stop + step * 1e-9
    count = max(0, math.floor(stop / step - start / step) + 1)
    while start + count * step <= limit:
        count += 1
    while count and start + (count - 1) * step > limit:
        count -= 1
    if count > MAX_GRID_POINTS:
        raise SerializationError(f"grid {text!r} has {count} points, more than {MAX_GRID_POINTS}")
    return [start + k * step for k in range(count)]


def _initial_part(coeffs_text, named, which, c, order):
    if (coeffs_text is None) == (named is None):
        raise SerializationError(
            f"exactly one of --{which} / --{which}-named is required"
        )
    if coeffs_text is not None:
        return poly_from_coefficients(_parse_coeff_list(coeffs_text)), None
    if named == "neg-2q-cx":
        return MPoly(("x",), {(1,): q_int(2)}).scale(-c), None
    return named_source(named, order)


def _at_most(flag: str, value: int, ceiling: int) -> None:
    if value > ceiling:
        raise SerializationError(f"{flag} {value} is more than {ceiling}")


def _cmd_verify(args):
    for flag, bound, ceiling in (("--order", args.order, MAX_VERIFY_ORDER),
                                 ("--n-max", args.n_max, MAX_VERIFY_N_MAX)):
        if bound is None:
            continue
        if bound < 0:
            raise SerializationError(f"{flag} must be >= 0")
        _at_most(flag, bound, ceiling)
    if args.identity != "all":
        # each identity takes one bound; --identity all takes both
        kind = IDENTITY_CHECKS[args.identity][1]
        other = "order" if kind == "n_max" else "n_max"
        if getattr(args, other) is not None:
            raise SerializationError(
                f"--{other.replace('_', '-')} does not apply to {args.identity} "
                f"(it takes --{kind.replace('_', '-')})"
            )
        if args.seed is not None and args.identity != _SEEDED_IDENTITY:
            raise SerializationError(
                f"--seed does not apply to {args.identity} "
                f"(only {_SEEDED_IDENTITY} takes it)"
            )
    ids = sorted(IDENTITY_CHECKS) if args.identity == "all" else [args.identity]
    q_samples = None  # verify_exp_product's own points
    if args.seed is not None:
        rng = random.Random(args.seed)
        q_samples = []
        while len(q_samples) < 3:
            q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            if q != 1 and q not in q_samples:
                q_samples.append(q)
    verdicts = []
    for ident in ids:
        fn, kind = IDENTITY_CHECKS[ident]
        bound = getattr(args, kind)  # the --n-max or --order flag
        if bound is None:
            bound = DEFAULT_BOUNDS[ident]
        verdicts.append(fn(bound, q_samples) if ident == _SEEDED_IDENTITY else fn(bound))
    docs = [verdict_to_json(v) for v in verdicts]
    code = EXIT_OK if all(v.ok for v in verdicts) else EXIT_VIOLATED
    text = json.dumps(docs if args.identity == "all" else docs[0], separators=(",", ":"))
    return code, _json_emit([text])


def _cmd_solve(args):
    if args.order < 0:
        raise SerializationError("--order must be >= 0")
    _at_most("--order", args.order, MAX_SOLVE_ORDER)
    # a list of order + 1 coefficients, or a named datum of degree order,
    # costs what --order does
    for flag, text, named in (("--f", args.f, args.f_named), ("--g", args.g, args.g_named)):
        if text is not None:
            _at_most(f"{flag} coefficients", text.count(",") + 1, MAX_SOLVE_ORDER + 1)
        if named is not None:
            degree = _named_degree(named, args.order)
            _at_most(f"{flag}-named {named} degree", degree, MAX_SOLVE_ORDER)
    c = rational_from_str(args.c)
    f, f_order = _initial_part(args.f, args.f_named, "f", c, args.order)
    g, g_order = _initial_part(args.g, args.g_named, "g", c, args.order)
    orders = [o for o in (f_order, g_order) if o is not None]
    data = InitialData(f, g, min(orders) if orders else None)
    solution = dalembert_solve(data, c)
    return EXIT_OK, _json_emit(doc_text(solution))


def _cmd_sample(args):
    try:
        if args.infile == "-":
            doc = json.load(sys.stdin)
        else:
            with open(args.infile, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    except RecursionError:
        raise SerializationError("wave document is nested too deeply") from None
    wave = wave_from_json(doc)
    rows = sample_grid(wave, args.q, args.c, _parse_grid(args.x), _parse_grid(args.t))
    return EXIT_OK, lambda out: write_sample_csv(rows, out)


def _cmd_hermite(args):
    if args.n < 0:
        raise SerializationError("degree must be >= 0")
    _at_most("--n", args.n, MAX_HERMITE_N)
    build = {"q": q_hermite, "classical": hermite_classical, "inverse-q": q_hermite_dual}
    return EXIT_OK, _json_emit(doc_text(build[args.kind](args.n)))


def _cmd_expand(args):
    if args.n < 0:
        raise SerializationError("power must be >= 0")
    _at_most("--n", args.n, MAX_EXPAND_N)
    if args.binomial in ("z+iw", "z-iw"):
        coef = GR_I if args.binomial == "z+iw" else -GR_I
        poly = q_binomial_power("z", coef, "w", args.n)
    else:
        sign = "+" if args.binomial == "x+ct" else "-"
        poly = q_binomial_substitute(
            MPoly.monomial(("x",), (args.n,), 1), sign, SYMBOLIC_SPEED
        )
    return EXIT_OK, _json_emit(doc_text(poly))


_COMMANDS = {
    "verify": _cmd_verify,
    "solve": _cmd_solve,
    "sample": _cmd_sample,
    "hermite": _cmd_hermite,
    "expand": _cmd_expand,
}


# Options whose value may begin with "-": argparse takes "-3/7,1" or "-1:1:0.5"
# for an option name, so such a value is joined to its option as --f=-3/7,1.
_VALUE_OPTIONS = ("--f", "--g", "--c", "--x", "--t")
_NEGATIVE_VALUE = re.compile(r"-[0-9.]")


def _join_negative_values(argv: list[str]) -> list[str]:
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _VALUE_OPTIONS and _NEGATIVE_VALUE.match(token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(_join_negative_values(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code, emit = _COMMANDS[args.command](args)
        if args.output is None:
            emit(sys.stdout)
        else:
            with open(args.output, "w", encoding="utf-8") as out:
                emit(out)
        return code
    except PostconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATED
    except (QCalcError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("error: maximum recursion depth exceeded", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
