"""Layer spans recorded around qcalc's public entry points, from outside qcalc.

Run as a script, this is a traced op: it imports qcalc.cli, installs the
wrappers, runs qcalc.cli.main on the remaining arguments and, when the op
ends, writes every span it kept in memory to a JSON file.  The parent run
derives per-layer metrics from those files with `layer_metrics`.

    python perfbench/spans.py SPANS.json OP_ID verify --identity xi

A span is (boundary name, parent span, start, end); self time is a span's
duration minus the durations of its direct children.  Counters are updated
at the same boundaries, inside the span.  GaussianRational is deliberately
not wrapped: it runs ~1e5 times per op and its cost stays in the self time
of the coeffs.lp_* spans that call it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

from oracle import VERIFY_IDS

# (span name, module, attribute path).  Every binding of a wrapped module
# function in any qcalc module is replaced, since `from .qcore import
# gauss_binomial` makes a separate name in polys, identities, hermite, qwave.
BOUNDARIES = [
    ("coeffs.lp_mul", "coeffs", "LaurentPoly.__mul__"),
    ("coeffs.lp_mul", "coeffs", "LaurentPoly.__rmul__"),
    ("coeffs.lp_add", "coeffs", "LaurentPoly.__add__"),
    ("coeffs.lp_add", "coeffs", "LaurentPoly.__radd__"),
    ("coeffs.lp_divexact", "coeffs", "LaurentPoly.divexact"),
    ("coeffs.ce_add", "coeffs", "CoefExpr.__add__"),
    ("coeffs.ce_add", "coeffs", "CoefExpr.__radd__"),
    ("coeffs.ce_mul", "coeffs", "CoefExpr.__mul__"),
    ("coeffs.ce_mul", "coeffs", "CoefExpr.__rmul__"),
    ("coeffs.ce_eq", "coeffs", "CoefExpr.__eq__"),
    *(("qcore", "qcore", fn) for fn in (
        "q_int", "q_int_reciprocal", "q_factorial", "factorial_ratio",
        "gauss_binomial", "q_exp_series", "q_trig_series", "q_euler_number")),
    *(("hermite", "hermite", fn) for fn in (
        "hermite_classical", "q_hermite", "q_hermite_dual", "q_hermite_special_value")),
    ("polys.mul", "polys", "MPoly.__mul__"),
    ("polys.mul", "polys", "MPoly.__rmul__"),
    ("polys.add", "polys", "MPoly.__add__"),
    ("polys.add", "polys", "MPoly.__radd__"),
    ("polys.eq", "polys", "MPoly.__eq__"),
    ("polys.q_derivative", "polys", "MPoly.q_derivative"),
    ("polys.jackson", "polys", "MPoly.jackson_antiderivative"),
    ("polys.substitute", "polys", "MPoly.substitute"),
    ("polys.coef_to_complex", "polys", "coef_to_complex"),
    ("qwave.substitute", "qwave", "q_binomial_substitute"),
    ("qwave.operator", "qwave", "qwave_operator"),
    ("qwave.solve", "qwave", "dalembert_solve"),
    ("qwave.check", "qwave", "_check_solution"),
    ("qwave.sample_grid", "qwave", "sample_grid"),
    *(("serialize.to_json", "serialize", fn) for fn in (
        "wave_to_json", "mpoly_to_json", "series_to_json", "verdict_to_json")),
    *(("serialize.from_json", "serialize", fn) for fn in ("wave_from_json", "mpoly_from_json")),
    ("serialize.csv", "serialize", "write_sample_csv"),
    ("cli.main", "cli", "main"),
]
# identities.<id> spans wrap the IDENTITY_CHECKS registry the CLI dispatches on;
# cli.encode / cli.decode wrap the json.dumps / json.load that cli calls.

CACHED = ("q_int", "q_int_reciprocal", "q_factorial", "factorial_ratio", "gauss_binomial")


class Recorder:
    """Spans of one op, kept in parallel lists until `dump`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack = [-1]
        self.counters: dict[str, float] = defaultdict(int)

    def wrap(self, name: str, fn, hook=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        span, parent, start, end, stack = self.span, self.parent, self.start, self.end, self.stack
        counters, clock = self.counters, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span)
            span.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start[idx] = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counters, args, result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def dump(self, path: str, op_id: int, caches: dict) -> None:
        doc = {
            "op": op_id, "names": self.names, "span": self.span, "parent": self.parent,
            "start": self.start, "end": self.end, "counters": dict(self.counters),
            "caches": caches,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# --- counters, run inside the span they describe -----------------------------


def _coef_bits(poly) -> int:
    best = 0
    for c in poly.coeffs.values():
        for part in (c.re, c.im):
            best = max(best, part.numerator.bit_length(), part.denominator.bit_length())
    return best


def _lp_mul_hook(counters, args, result):
    a, b = args[0], args[1]
    counters["coeffs.lp_mul.coef_products"] += len(a.coeffs) * len(getattr(b, "coeffs", (0,)))
    if result.coeffs:
        span = max(result.coeffs) - min(result.coeffs)
        counters["coeffs.lp_mul.span_max"] = max(counters["coeffs.lp_mul.span_max"], span)
        counters["coeffs.coef_bits_max"] = max(counters["coeffs.coef_bits_max"], _coef_bits(result))


def _lp_result_hook(counters, args, result):
    if result is not None:
        counters["coeffs.coef_bits_max"] = max(counters["coeffs.coef_bits_max"], _coef_bits(result))


def _terms_hook(counters, args, result):
    counters["polys.terms_max"] = max(counters["polys.terms_max"], len(result.terms))


def _points_hook(counters, args, result):
    counters["qwave.sample_grid.points"] += len(result)


HOOKS = {
    "coeffs.lp_mul": _lp_mul_hook,
    "coeffs.lp_add": _lp_result_hook,
    "coeffs.lp_divexact": _lp_result_hook,
    "polys.mul": _terms_hook,
    "polys.add": _terms_hook,
    "polys.q_derivative": _terms_hook,
    "polys.jackson": _terms_hook,
    "polys.substitute": _terms_hook,
    "qwave.substitute": _terms_hook,
    "qwave.sample_grid": _points_hook,
}


def install(rec: Recorder):
    """Wrap every boundary in the loaded qcalc modules; returns qcalc.cli."""
    import qcalc.cli

    modules = [m for n, m in sys.modules.items() if n == "qcalc" or n.startswith("qcalc.")]
    wrapped: dict[int, object] = {}

    def wrapper_for(name, fn):
        if id(fn) not in wrapped:
            wrapped[id(fn)] = rec.wrap(name, fn, HOOKS.get(name))
        return wrapped[id(fn)]

    for name, module, path in BOUNDARIES:
        mod = sys.modules["qcalc." + module]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, attr, wrapper_for(name, cls.__dict__[attr]))
            continue
        fn = getattr(mod, path)
        w = wrapper_for(name, fn)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, w)

    checks = sys.modules["qcalc.identities"].IDENTITY_CHECKS
    for ident, (fn, kind) in list(checks.items()):
        checks[ident] = (wrapper_for(f"identities.{ident}", fn), kind)

    real_json = qcalc.cli.json
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(real_json))
    proxy.dumps = rec.wrap("cli.encode", real_json.dumps)
    proxy.load = rec.wrap("cli.decode", real_json.load)
    qcalc.cli.json = proxy
    return qcalc.cli


def cache_snapshot() -> dict:
    qcore = sys.modules["qcalc.qcore"]
    return {fn: list(getattr(qcore, fn).cache_info()[:2]) for fn in CACHED}


def main(argv: list[str]) -> int:
    out_path, op_id, *cli_argv = argv
    rec = Recorder()
    cli = install(rec)
    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        rec.dump(out_path, int(op_id), cache_snapshot())


# --- derivation, in the parent run ---------------------------------------------

# per_layer metric -> (statistic, span or counter name)
LAYER_METRICS = {
    "coeffs.lp_mul.calls": ("calls", "coeffs.lp_mul"),
    "coeffs.lp_mul.self_s": ("self", "coeffs.lp_mul"),
    "coeffs.lp_mul.coef_products": ("counter", "coeffs.lp_mul.coef_products"),
    "coeffs.lp_mul.span_max": ("max", "coeffs.lp_mul.span_max"),
    "coeffs.lp_divexact.calls": ("calls", "coeffs.lp_divexact"),
    "coeffs.lp_divexact.self_s": ("self", "coeffs.lp_divexact"),
    "coeffs.lp_add.self_s": ("self", "coeffs.lp_add"),
    "coeffs.ce_add.calls": ("calls", "coeffs.ce_add"),
    "coeffs.ce_add.cross_ratio": ("cross", "coeffs.ce_add"),
    "coeffs.ce_mul.self_s": ("self", "coeffs.ce_mul"),
    "coeffs.ce_eq.calls": ("calls", "coeffs.ce_eq"),
    "coeffs.ce_eq.self_s": ("self", "coeffs.ce_eq"),
    "coeffs.ce_eq.cross_ratio": ("cross", "coeffs.ce_eq"),
    "coeffs.coef_bits_max": ("max", "coeffs.coef_bits_max"),
    "qcore.calls": ("calls", "qcore"),
    "qcore.self_s": ("self", "qcore"),
    "qcore.cache_hit_ratio": ("cache", None),
    "hermite.calls": ("calls", "hermite"),
    "hermite.self_s": ("self", "hermite"),
    **{f"identities.{i}.s": ("incl", f"identities.{i}") for i in VERIFY_IDS},
    "identities.self_s": ("self", [f"identities.{i}" for i in VERIFY_IDS]),
    "polys.mul.calls": ("calls", "polys.mul"),
    "polys.mul.self_s": ("self", "polys.mul"),
    "polys.add.self_s": ("self", "polys.add"),
    "polys.eq.self_s": ("self", "polys.eq"),
    "polys.q_derivative.calls": ("calls", "polys.q_derivative"),
    "polys.q_derivative.self_s": ("self", "polys.q_derivative"),
    "polys.jackson.self_s": ("self", "polys.jackson"),
    "polys.substitute.self_s": ("self", "polys.substitute"),
    "polys.coef_to_complex.calls": ("calls", "polys.coef_to_complex"),
    "polys.coef_to_complex.self_s": ("self", "polys.coef_to_complex"),
    "polys.terms_max": ("max", "polys.terms_max"),
    "qwave.substitute.calls": ("calls", "qwave.substitute"),
    "qwave.substitute.self_s": ("self", "qwave.substitute"),
    "qwave.substitute.s": ("incl", "qwave.substitute"),
    "qwave.operator.self_s": ("self", "qwave.operator"),
    "qwave.check.s": ("incl", "qwave.check"),
    "qwave.solve.self_s": ("self", "qwave.solve"),
    "qwave.sample_grid.self_s": ("self", "qwave.sample_grid"),
    "qwave.sample_grid.points": ("counter", "qwave.sample_grid.points"),
    "serialize.to_json.self_s": ("self", "serialize.to_json"),
    "serialize.from_json.self_s": ("self", "serialize.from_json"),
    "serialize.csv.self_s": ("self", "serialize.csv"),
    "cli.main.s": ("incl", "cli.main"),
    "cli.self_s": ("self", "cli.main"),
    "cli.encode.self_s": ("self", "cli.encode"),
    "cli.decode.self_s": ("self", "cli.decode"),
}


def op_profile(doc: dict) -> dict:
    """Per boundary name: calls, self seconds, inclusive seconds (outermost
    spans only, so recursion is not counted twice) and how many spans had a
    coeffs.lp_mul child, i.e. multiplied Laurent polynomials."""
    names, span, parent = doc["names"], doc["span"], doc["parent"]
    dur = [e - s for s, e in zip(doc["start"], doc["end"])]
    child = [0.0] * len(span)
    mul_id = names.index("coeffs.lp_mul")
    multiplied = set()
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += dur[i]
            if span[i] == mul_id:
                multiplied.add(p)
    prof = defaultdict(lambda: {"calls": 0, "self": 0.0, "incl": 0.0, "cross": 0})
    for i, nid in enumerate(span):
        entry = prof[names[nid]]
        entry["calls"] += 1
        entry["self"] += dur[i] - child[i]
        entry["cross"] += i in multiplied
        p = parent[i]
        while p >= 0 and span[p] != nid:
            p = parent[p]
        if p < 0:
            entry["incl"] += dur[i]
    return prof


def layer_metrics(docs: list[dict], scales: list[float]) -> dict[str, float]:
    """Per-op means over the traced ops of one run (maxima for *_max, pooled
    ratios for *_ratio); each op's times are multiplied by its host-speed
    factor from hostspeed.py."""
    n = len(docs)
    profs = [op_profile(d) for d in docs]

    def total(stat, names):
        names = [names] if isinstance(names, str) else names
        timed = stat in ("self", "incl")
        return sum(p[x][stat] * (f if timed else 1)
                   for p, f in zip(profs, scales) for x in names if x in p)

    out = {}
    for metric, (stat, key) in LAYER_METRICS.items():
        if stat in ("calls", "self", "incl"):
            out[metric] = total(stat, key) / n
        elif stat == "cross":
            calls = total("calls", key)
            out[metric] = total("cross", key) / calls if calls else 0.0
        elif stat == "counter":
            out[metric] = sum(d["counters"].get(key, 0) for d in docs) / n
        elif stat == "max":
            out[metric] = max(d["counters"].get(key, 0) for d in docs)
        else:
            hits = sum(h for d in docs for h, _ in d["caches"].values())
            misses = sum(m for d in docs for _, m in d["caches"].values())
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
    main_s = out["cli.main.s"]
    out["trace.coverage_ratio"] = 1.0 - out["cli.self_s"] / main_s if main_s else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
