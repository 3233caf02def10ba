"""Differential tests against SymPy, an exact route independent of qcalc's
coefficient tower: Gaussian binomials against their product form reduced by
sympy.cancel, and the q = 1 limit of the q-Hermite family against
sympy.hermite."""

import pytest

sympy = pytest.importorskip("sympy")

from qcalc.coeffs import GaussianRational, LaurentPoly  # noqa: E402
from qcalc.hermite import q_hermite  # noqa: E402
from qcalc.qcore import gauss_binomial  # noqa: E402

Q, X = sympy.symbols("q x")


def _rational(g: GaussianRational):
    return sympy.Rational(g.re.numerator, g.re.denominator) + sympy.I * sympy.Rational(
        g.im.numerator, g.im.denominator
    )


def _in_q(p: LaurentPoly):
    """A Laurent polynomial in s = sqrt(q) with only even exponents, in q."""
    assert all(e % 2 == 0 for e in p.coeffs)
    return sum((_rational(c) * Q ** (e // 2) for e, c in p.coeffs.items()), sympy.S.Zero)


@pytest.mark.parametrize("n", range(13))
def test_gauss_binomial_matches_the_product_form(n):
    for k in range(n + 1):
        product = sympy.Mul(
            *[(1 - Q ** (n - i)) / (1 - Q ** (i + 1)) for i in range(k)]
        )
        assert sympy.expand(sympy.cancel(product) - _in_q(gauss_binomial(n, k))) == 0


@pytest.mark.parametrize("n", range(13))
def test_q_hermite_at_q_one_is_the_physicists_hermite(n):
    p = q_hermite(n).at_s_one()
    ours = sum(
        (_rational(c.at_one()) * X**d for (d,), c in p.terms.items()), sympy.S.Zero
    )
    assert sympy.expand(ours - sympy.hermite(n, X)) == 0
