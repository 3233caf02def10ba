"""Differential tests against SymPy, an exact route independent of qcalc's
coefficient tower: Gaussian binomials against their product form reduced by
sympy.cancel, the q = 1 limit of the q-Hermite family against
sympy.hermite, and the exp-product coefficients at random rational q against
the same sums built from product forms."""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from qcalc.coeffs import CoefExpr, GaussianRational, LaurentPoly  # noqa: E402
from qcalc.hermite import q_hermite  # noqa: E402
from qcalc.qcore import gauss_binomial, q_factorial  # noqa: E402

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


def _seeded_rationals(count: int, seed: int) -> list[Fraction]:
    rng = random.Random(seed)
    out: list[Fraction] = []
    while len(out) < count:
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if q not in (0, 1, -1) and q not in out:
            out.append(q)
    return out


def _product_factorial(n, q):
    """[n]_q! as the product of (1 - q^j) / (1 - q)."""
    return sympy.Mul(*[(1 - q**j) / (1 - q) for j in range(1, n + 1)])


def _product_binomial(n, k, q):
    return sympy.Mul(*[(1 - q ** (n - i)) / (1 - q ** (i + 1)) for i in range(k)])


@pytest.mark.parametrize("q", _seeded_rationals(5, seed=2016))
def test_exp_product_coefficients_at_rational_q(q):
    """The coefficient of x^n in e_q(x) e_q(-x), sum_k (-1)^(n-k) [n k]_q / [n]_q!,
    formed as verify_exp_product forms it and evaluated with eval_q, equals
    SymPy's value of the product-form sum, and that equals the right-hand side
    (1-q)^m / ((1+q)^m [m]_{q^2}!) for n = 2m, 0 for odd n."""
    qs = sympy.Rational(q.numerator, q.denominator)
    for n in range(13):
        num = LaurentPoly({})
        for k in range(n + 1):
            term = gauss_binomial(n, k)
            num = num + (term if (n - k) % 2 == 0 else -term)
        ours = _rational(CoefExpr(num, q_factorial(n)).eval_q(q))
        theirs = sympy.Add(
            *[(-1) ** (n - k) * _product_binomial(n, k, qs) for k in range(n + 1)]
        ) / _product_factorial(n, qs)
        assert ours == theirs
        m, odd = divmod(n, 2)
        rhs = 0 if odd else (1 - qs) ** m / ((1 + qs) ** m * _product_factorial(m, qs**2))
        assert theirs == rhs
