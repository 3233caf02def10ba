"""Classical and q-deformed Hermite polynomials.

The q-family is constructed from the closed-form sum extracted from its
generating function e_q(-t^2) e_q([2]_q t x): every coefficient is the
exact polynomial (-1)^k [n]_q! [2]_q^(n-2k) / ([k]_q! [n-2k]_q!), assembled
from cached q-factorial ratios so no division is ever performed.  The
sqrt(q) recurrence is exercised in the test suite rather than used to build.

Every family is one public function cached with functools.lru_cache, the
package's one cache idiom, and every returned value is immutable.  The
classical recurrence fills its table bottom-up inside that function, as
gauss_binomial does, so recursion never nests more than one level deep.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffs import CE_ZERO, CoefExpr, UnsupportedOrderError
from .polys import MPoly
from .qcore import factorial_ratio, gauss_binomial, q_int

__all__ = [
    "hermite_classical",
    "q_hermite",
    "q_hermite_dual",
    "q_hermite_special_value",
]


@lru_cache(maxsize=None)
def hermite_classical(n: int) -> MPoly:
    """Physicists' Hermite polynomial of degree n, by the standard recurrence
    H_{k+1} = 2x H_k - 2k H_{k-1}; integer coefficients, leading term (2x)^n."""
    if n < 0:
        raise UnsupportedOrderError("Hermite degree must be >= 0")
    if n < 2:
        return MPoly.monomial(("x",), (n,), 2**n)
    for k in range(2, n):  # fill the table below bottom-up: recursion stays shallow
        hermite_classical(k)
    two_x, prev = hermite_classical(1), hermite_classical(n - 1)
    return two_x * prev - hermite_classical(n - 2).scale(2 * (n - 1))


@lru_cache(maxsize=None)
def q_hermite(n: int) -> MPoly:
    """Degree-n q-Hermite polynomial in x with LaurentPoly coefficients.

    H_n = sum over k <= n/2 of
    (-1)^k ([n]_q!/([k]_q! [n-2k]_q!)) [2]_q^(n-2k) x^(n-2k);
    reduces to the classical polynomial at q = 1 and has leading
    coefficient [2]_q^n.
    """
    if n < 0:
        raise UnsupportedOrderError("Hermite degree must be >= 0")
    two = q_int(2)
    terms = {}
    for k in range(n // 2 + 1):
        d = n - 2 * k
        # [n]!/([k]![n-2k]!) = gauss(n, 2k) * ([2k]!/[k]!)
        coef = gauss_binomial(n, 2 * k) * factorial_ratio(2 * k, k) * two**d
        if k % 2:
            coef = -coef
        terms[(d,)] = CoefExpr.of(coef)
    return MPoly._raw(("x",), terms)


@lru_cache(maxsize=None)
def q_hermite_dual(k: int, var: str = "w") -> MPoly:
    """The companion polynomial H_k(q w; 1/q): the q -> 1/q image of the
    degree-k q-Hermite polynomial with its variable rescaled by q."""
    if k < 0:
        raise UnsupportedOrderError("Hermite degree must be >= 0")
    if var != "x":
        return q_hermite_dual(k, "x").rename_var("x", var)
    p = q_hermite(k).map_coeffs(lambda c: c.substitute_inverse_q())
    return p.scale_substitute("x", 2)


def q_hermite_special_value(n: int) -> CoefExpr:
    """Value at the origin: (-1)^m [2m]_q!/[m]_q! for even n = 2m, zero for odd n."""
    if n < 0:
        raise UnsupportedOrderError("Hermite degree must be >= 0")
    if n % 2:
        return CE_ZERO
    m = n // 2
    value = factorial_ratio(2 * m, m)
    if m % 2:
        value = -value
    return CoefExpr.of(value)
