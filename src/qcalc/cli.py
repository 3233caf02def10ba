"""Command-line frontend: verify identities, build polynomials, solve the
q-wave IVP, and sample solutions to CSV.

Exit codes: 0 success / all identities verified, 1 an identity check found a
counterexample (or the solver's self-check refused a solution), 2 usage or
input error (also a verify bound flag that the chosen identity does not take).
Symbolic q everywhere; a floating-point q is accepted only by `sample`.
Every JSON document is written as one line of compact JSON.
"""

from __future__ import annotations

import argparse
import io
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
    dalembert_solve,
    named_source,
    poly_from_coefficients,
    q_binomial_substitute,
    sample_grid,
)
from .serialize import (
    SerializationError,
    mpoly_to_json,
    rational_from_str,
    verdict_to_json,
    wave_from_json,
    wave_to_json,
    write_sample_csv,
)

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2

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


def _write_json(doc, out) -> None:
    out.write(json.dumps(doc, separators=(",", ":")) + "\n")


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


def _cmd_verify(args, out) -> int:
    for flag, bound in (("--order", args.order), ("--n-max", args.n_max)):
        if bound is not None and bound < 0:
            raise SerializationError(f"{flag} must be >= 0")
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
    q_samples = [Fraction(1, 2), Fraction(3, 4), Fraction(2)]
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
    payload = docs if args.identity == "all" else docs[0]
    _write_json(payload, out)
    return EXIT_OK if all(v.ok for v in verdicts) else EXIT_VIOLATED


def _cmd_solve(args, out) -> int:
    c = rational_from_str(args.c)
    f, f_order = _initial_part(args.f, args.f_named, "f", c, args.order)
    g, g_order = _initial_part(args.g, args.g_named, "g", c, args.order)
    orders = [o for o in (f_order, g_order) if o is not None]
    data = InitialData(f, g, min(orders) if orders else None)
    solution = dalembert_solve(data, c)
    _write_json(wave_to_json(solution), out)
    return EXIT_OK


def _cmd_sample(args, out) -> int:
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
    write_sample_csv(rows, out)
    return EXIT_OK


def _cmd_hermite(args, out) -> int:
    if args.n < 0:
        raise SerializationError("degree must be >= 0")
    build = {"q": q_hermite, "classical": hermite_classical, "inverse-q": q_hermite_dual}
    _write_json(mpoly_to_json(build[args.kind](args.n)), out)
    return EXIT_OK


def _cmd_expand(args, out) -> int:
    if args.n < 0:
        raise SerializationError("power must be >= 0")
    if args.binomial in ("z+iw", "z-iw"):
        coef = GR_I if args.binomial == "z+iw" else -GR_I
        poly = q_binomial_power("z", coef, "w", args.n)
    else:
        sign = "+" if args.binomial == "x+ct" else "-"
        poly = q_binomial_substitute(
            MPoly.monomial(("x",), (args.n,), 1), sign, SYMBOLIC_SPEED
        )
    _write_json(mpoly_to_json(poly), out)
    return EXIT_OK


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
        if not args.output:
            return _COMMANDS[args.command](args, sys.stdout)
        # render first, so a command that raises leaves no file behind
        buf = io.StringIO()
        code = _COMMANDS[args.command](args, buf)
        with open(args.output, "w", encoding="utf-8") as out:
            out.write(buf.getvalue())
        return code
    except PostconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATED
    except (QCalcError, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
