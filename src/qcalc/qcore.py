"""q-combinatorics and q-exponential series.

The cached q-integers, q-factorials and Gaussian binomials are defined in
coeffs (MPoly needs them, so they sit below polys) and re-exported here.

A truncated series is a univariate MPoly over ("x",) of degree <= order;
the order travels beside it (InitialData.order, WaveSolution.order), since
the polynomial alone cannot say where its truncation lies.
"""

from __future__ import annotations

from .coeffs import (
    CoefExpr,
    LP_ONE,
    LaurentPoly,
    UnsupportedOrderError,
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

    kind "e" (alias "small-e"): coefficients 1/[n]_q!;
    kind "E" (alias "big-E"): q**(n(n-1)/2) / [n]_q!.
    """
    kind = {"small-e": "e", "big-E": "E"}.get(kind, kind)
    if kind not in ("e", "E"):
        raise ValueError("q-exponential kind must be 'e' or 'E'")
    if order < 0:
        raise UnsupportedOrderError("series order must be >= 0")
    terms = {}
    for n in range(order + 1):
        num = LP_ONE if kind == "e" else LaurentPoly.term(n * (n - 1))
        terms[(n,)] = CoefExpr(num, q_factorial(n))
    return MPoly(("x",), terms)


def q_trig_series(kind: str, order: int) -> MPoly:
    """q-cosine / q-sine series through degree order, as an MPoly in x,
    normalised so that the q-derivative of sin is cos and the q-derivative of
    cos is -sin, degree by degree."""
    kind = {"cos_q": "cos", "sin_q": "sin"}.get(kind, kind)
    if kind not in ("cos", "sin"):
        raise ValueError("q-trigonometric kind must be 'cos' or 'sin'")
    if order < 0:
        raise UnsupportedOrderError("series order must be >= 0")
    parity = 0 if kind == "cos" else 1
    terms = {}
    for n in range(parity, order + 1, 2):
        sign = LP_ONE if n // 2 % 2 == 0 else LaurentPoly.const(-1)
        terms[(n,)] = CoefExpr(sign, q_factorial(n))
    return MPoly(("x",), terms)


def q_euler_number(order: int) -> CoefExpr:
    """Partial sum of reciprocal q-factorials 0..order as a single fraction
    over the common denominator [order]_q!."""
    if order < 0:
        raise UnsupportedOrderError("order must be >= 0")
    num = term = LP_ONE  # term runs through [order]_q!/[n]_q! from n = order down
    for n in range(order, 0, -1):
        term = term * q_int(n)
        num = num + term
    return CoefExpr(num, q_factorial(order))
