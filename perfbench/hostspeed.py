"""Host-speed reference that the benchmark's times are rescaled by.

On a shared host the speed of one CPU drifts by up to ~1.8x within a minute
(other tenants' load on the same core and cache), which swamps any change in
qcalc itself.  The benchmark therefore pins itself and its ops to one CPU,
times this fixed workload next to every measurement, and reports each time
as   measured * NOMINAL_S / reference,   i.e. seconds on a host where the
reference takes NOMINAL_S.  The workload uses only the standard library, so
no change to qcalc moves it; it is shaped like qcalc's hot path (Fraction
products accumulated into a dict, as in a dense Laurent multiply).
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

# About the fastest the reference ran on the machine the bounds were set on
# (2-vCPU Intel Xeon, Python 3.11.7); a constant, so runs stay comparable.
NOMINAL_S = 0.2

_TERMS = 60
_ROUNDS = 14
_OPERAND = [Fraction(i + 1, 2 * i + 3) for i in range(_TERMS)]


def reference_seconds() -> float:
    """Wall time of one fixed dense product of two 60-term Fraction polynomials,
    repeated _ROUNDS times."""
    a = _OPERAND
    t0 = time.perf_counter()
    for _ in range(_ROUNDS):
        acc: dict[int, Fraction] = {}
        for i in range(_TERMS):
            ai = a[i]
            for j in range(_TERMS):
                acc[i + j] = acc.get(i + j, 0) + ai * a[j]
    return time.perf_counter() - t0


def pin_to_one_cpu() -> int:
    """Run this process and every child it starts on one CPU, so that the
    reference and the ops it rescales see the same core."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
