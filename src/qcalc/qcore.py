"""q-combinatorics and q-exponential series.

The cached q-integers, q-factorials and Gaussian binomials are defined in
coeffs (MPoly needs them, so they sit below polys) and re-exported here.

A truncated series is a univariate MPoly over ("x",) of degree <= order;
the order travels beside it (InitialData.order, WaveSolution.order), since
the polynomial alone cannot say where its truncation lies.  Each series
reads its q-factorials [0]_q! .. [order]_q! off the partials of one
_q_products pass.
"""

from __future__ import annotations

from itertools import islice, repeat

from .coeffs import (
    CoefExpr,
    LP_ONE,
    LP_ZERO,
    LaurentPoly,
    UnsupportedOrderError,
    _q_products,
    factorial_ratio,
    gauss_binomial,
    q_factorial,
    q_int,
    q_int_reciprocal,
)
from .polys import MPoly

__all__ = [
    "q_int",
    "q_int_reciprocal",
    "q_factorial",
    "factorial_ratio",
    "gauss_binomial",
    "q_exp_series",
    "q_trig_series",
    "q_euler_number",
]


def q_exp_series(kind: str, order: int) -> MPoly:
    """Jackson q-exponential series through degree order, as an MPoly in x.

    kind "e": coefficients 1/[n]_q!;
    kind "E": q**(n(n-1)/2) / [n]_q!.
    """
    if kind not in ("e", "E"):
        raise ValueError("q-exponential kind must be 'e' or 'E'")
    if order < 0:
        raise UnsupportedOrderError("series order must be >= 0")
    terms = {}
    for n, factorial in enumerate(_q_products(range(1, order + 1), repeat(1))):
        num = LP_ONE if kind == "e" else LaurentPoly.term(n * (n - 1))
        terms[(n,)] = CoefExpr(num, factorial)
    return MPoly(("x",), terms)


def q_trig_series(kind: str, order: int) -> MPoly:
    """q-cosine / q-sine series through degree order, as an MPoly in x,
    normalised so that the q-derivative of sin is cos and the q-derivative of
    cos is -sin, degree by degree."""
    if kind not in ("cos", "sin"):
        raise ValueError("q-trigonometric kind must be 'cos' or 'sin'")
    if order < 0:
        raise UnsupportedOrderError("series order must be >= 0")
    parity = 0 if kind == "cos" else 1
    terms = {}
    factorials = enumerate(_q_products(range(1, order + 1), repeat(1)))  # (n, [n]_q!)
    for n, factorial in islice(factorials, parity, None, 2):
        sign = LP_ONE if n // 2 % 2 == 0 else LaurentPoly.const(-1)
        terms[(n,)] = CoefExpr(sign, factorial)
    return MPoly(("x",), terms)


def q_euler_number(order: int) -> CoefExpr:
    """Partial sum of reciprocal q-factorials 0..order as a single fraction
    over the common denominator [order]_q!, all from the partials of one pass."""
    if order < 0:
        raise UnsupportedOrderError("order must be >= 0")
    partials = list(_q_products(range(order, 0, -1), [1] * order))  # [order]_q!/[n]_q!, n <= order
    return CoefExpr(sum(partials, LP_ZERO), partials[-1])
