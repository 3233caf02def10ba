"""Classical and q-deformed Hermite polynomials.

Every family is built from its closed form, the sum read off the generating
function e_q(-t^2) e_q([2]_q t x): the coefficient of x^(n-2k) is
(-1)^k [n]_q! [2]_q^(n-2k) / ([k]_q! [n-2k]_q!), every third partial of one
_q_products pass.  The classical family is the same sum in integers at q = 1,
and the dual family is read off the q-family coefficient by coefficient.  The
recurrences are exercised in the test suite rather than used to build.

Every family is one public function cached with functools.lru_cache, the
package's one cache idiom, caching only the entry asked for, and every
returned value is immutable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, islice, repeat
from math import factorial

from .coeffs import CE_ZERO, CoefExpr, UnsupportedOrderError, _q_products, factorial_ratio
from .polys import MPoly

__all__ = [
    "hermite_classical",
    "q_hermite",
    "q_hermite_dual",
    "q_hermite_special_value",
]


@lru_cache(maxsize=None)
def hermite_classical(n: int) -> MPoly:
    """Physicists' Hermite polynomial of degree n,
    H_n = sum over k <= n/2 of (-1)^k n! / (k! (n-2k)!) (2x)^(n-2k);
    integer coefficients, leading term (2x)^n."""
    if n < 0:
        raise UnsupportedOrderError("Hermite degree must be >= 0")
    terms = {}
    for k in range(n // 2 + 1):
        d = n - 2 * k
        coef = factorial(n) // (factorial(k) * factorial(d)) << d
        terms[(d,)] = -coef if k % 2 else coef
    return MPoly(("x",), terms)


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
    # [2]_q^n = ((1 - q**2)/(1 - q))^n, then coefficient k from k - 1, d = n - 2k + 2, by
    # (1 - q**d)/(1 - q**2), (1 - q**(d-1))/(1 - q**2), (1 - q)/(1 - q**k), all partials polynomials
    tops = chain(repeat(2, n), *((d, d - 1, 1) for d in range(n, 1, -2)))
    bottoms = chain(repeat(1, n), *((2, 2, k) for k in range(1, n // 2 + 1)))
    coefs = islice(_q_products(tops, bottoms), n, None, 3)
    terms = {(n - 2 * k,): CoefExpr(-c if k % 2 else c) for k, c in enumerate(coefs)}
    return MPoly._raw(("x",), terms)


@lru_cache(maxsize=None)
def q_hermite_dual(k: int, var: str = "w") -> MPoly:
    """The companion polynomial H_k(q w; 1/q): the q -> 1/q image of the
    degree-k q-Hermite polynomial with its variable rescaled by q, so the
    coefficient of w**d is that of x**d with s -> 1/s, times s**(2d)."""
    if k < 0:
        raise UnsupportedOrderError("Hermite degree must be >= 0")
    terms = q_hermite(k).terms
    return MPoly((var,), {(d,): CoefExpr(c.num.invert_s().shift(2 * d)) for (d,), c in terms.items()})


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
