"""coeffs kernel probes at the operand sizes of the exact-arithmetic hot path.

q_factorial(n) has Laurent span n(n-1), so q_factorial(n) * q_factorial(n-1)
multiplies spans 90/72, 380/342 and 870/812 for n = 10, 20, 30.  Each probe
checks its result, then reports the median of its repeats in microseconds
as one JSON object on stdout.

    PYTHONPATH=src python perfbench/probes.py
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time

from qcalc.coeffs import CoefExpr
from qcalc.qcore import q_factorial, q_int

REPEATS = {"mul_span90_us": 9, "mul_span380_us": 3, "mul_span870_us": 1,
           "divexact_span380_us": 3, "ce_eq_span380_us": 3}


def timed(fn, repeats: int):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        times.append((time.perf_counter() - t0) * 1e6)
    return statistics.median(times), result


def main() -> int:
    out = {}
    for n in (10, 20, 30):
        a, b = q_factorial(n), q_factorial(n - 1)
        us, prod = timed(lambda: a * b, REPEATS[f"mul_span{a.span()}_us"])
        expected = math.factorial(n) * math.factorial(n - 1)
        if prod.at_one() != expected or prod.span() != a.span() + b.span():
            raise SystemExit(f"probe mul n={n}: wrong product")
        out[f"coeffs.probe.mul_span{a.span()}_us"] = us

    prod = q_factorial(20) * q_factorial(19)
    us, quot = timed(lambda: prod.divexact(q_factorial(19)), REPEATS["divexact_span380_us"])
    if quot != q_factorial(20):
        raise SystemExit("probe divexact: wrong quotient")
    out["coeffs.probe.divexact_span380_us"] = us

    three = q_int(3)
    x = CoefExpr(q_factorial(20), q_factorial(19))
    y = CoefExpr(q_factorial(20) * three, q_factorial(19) * three)
    us, equal = timed(lambda: x == y, REPEATS["ce_eq_span380_us"])
    if equal is not True:
        raise SystemExit("probe ce_eq: equal fractions compared unequal")
    out["coeffs.probe.ce_eq_span380_us"] = us

    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
