"""The four CLI workloads: seeded arguments and the oracle check of each op.

Every op draws its inputs from the run's random generator, which is seeded
from the workload name and --seed, so one seed always yields the same ops.
Arguments that may start with "-" travel as --f=... / --g=..., and grids carry
a leading space: argparse reads a separate "-3/7,..." or "-1:1:0.01" as an
option and exits 2 (a CLI defect recorded in README.md, not worked around in
qcalc here).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

VERIFY_ORDER = 16
SERIES_ORDER = 20
POLY_TERMS = 15
POLY_BITS = 30
Q_RANGE = (0.5, 0.95)  # where the order-20 truncated series is valid
GRID_X = (-1.0, 1.0, 0.01)
GRID_T = (0.0, 1.0, 0.01)
CHECK_POINTS = 3
CSV_ROWS_CHECKED = 40


@dataclass
class Op:
    """One CLI invocation: arguments after `python -m qcalc.cli`, the check of
    its output, and how to corrupt a correct output for the self-test."""

    argv: list[str]
    check: Callable[[str], str | None]
    perturb: Callable[[str], str]


def _speed(rng: random.Random) -> Fraction:
    # p/r in lowest terms with 5 <= p, r <= 9 and p != r: every draw has the
    # same bit size, so the solve cost does not swing with the seed
    while True:
        p, r = rng.randint(5, 9), rng.randint(5, 9)
        if p != r and math.gcd(p, r) == 1:
            return Fraction(p, r)


def _rational30(rng: random.Random) -> Fraction:
    lo, hi = 1 << (POLY_BITS - 1), 1 << POLY_BITS
    return Fraction(rng.choice((-1, 1)) * rng.randrange(lo, hi), rng.randrange(lo, hi))


def _points(rng: random.Random) -> list[tuple[float, float, float]]:
    return [
        (rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0), rng.uniform(*Q_RANGE))
        for _ in range(CHECK_POINTS)
    ]


def wave_op(argv: list[str], data: oracle.WaveData, rng: random.Random) -> Op:
    points = _points(rng)
    return Op(
        argv,
        lambda text: oracle.check_wave(text, data, points),
        lambda text: oracle.perturb_wave(text, points[0]),
    )


def verify_all(rng: random.Random) -> Op:
    argv = ["verify", "--identity", "all", "--order", str(VERIFY_ORDER),
            "--seed", str(rng.randrange(1 << 31))]
    return Op(argv, oracle.check_verify, oracle.perturb_verify)


def solve_series_data(rng: random.Random) -> tuple[list[str], oracle.WaveData]:
    c = _speed(rng)
    argv = ["solve", "--f-named", "cos_q", "--g-named", "sin_q", "--c", str(c),
            "--order", str(SERIES_ORDER)]
    data = oracle.WaveData(
        oracle.q_trig("cos", SERIES_ORDER), oracle.q_trig("sin", SERIES_ORDER), c, SERIES_ORDER
    )
    return argv, data


def solve_series(rng: random.Random) -> Op:
    argv, data = solve_series_data(rng)
    return wave_op(argv, data, rng)


def solve_poly(rng: random.Random) -> Op:
    f = [_rational30(rng) for _ in range(POLY_TERMS)]
    g = [_rational30(rng) for _ in range(POLY_TERMS)]
    c = _speed(rng)
    argv = ["solve", "--f=" + ",".join(map(str, f)), "--g=" + ",".join(map(str, g)),
            "--c", str(c)]
    data = oracle.WaveData(oracle.constant_coeffs(f), oracle.constant_coeffs(g), c, None)
    return wave_op(argv, data, rng)


class SampleGrid:
    """Samples one solve-series solution, made once per run and not timed."""

    def __init__(self, solution_path: str, data: oracle.WaveData):
        self.path = solution_path
        self.data = data
        self.xs = oracle.grid(*GRID_X)
        self.ts = oracle.grid(*GRID_T)

    def __call__(self, rng: random.Random) -> Op:
        q = rng.uniform(*Q_RANGE)
        rows = sorted(rng.sample(range(len(self.xs) * len(self.ts)), CSV_ROWS_CHECKED))
        argv = ["sample", "--in", self.path, "--q", repr(q),
                "--x", " {}:{}:{}".format(*GRID_X), "--t", " {}:{}:{}".format(*GRID_T)]
        return Op(
            argv,
            lambda text: oracle.check_csv(text, self.data, q, self.xs, self.ts, rows),
            lambda text: oracle.perturb_csv(text, rows[0]),
        )


# name -> op generator; sample-grid's generator is built per run by run.py
WORKLOADS = ("verify-all", "solve-series", "solve-poly", "sample-grid")
OP_MAKERS = {
    "verify-all": verify_all,
    "solve-series": solve_series,
    "solve-poly": solve_poly,
}
