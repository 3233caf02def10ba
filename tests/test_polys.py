"""Multivariate polynomial and q-operator tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcalc.coeffs import (
    CE_ONE,
    CE_ZERO,
    CoefExpr,
    GaussianRational,
    GR_I,
    LaurentPoly,
    LP_ONE,
    LP_Q,
    UnsupportedOrderError,
)
from qcalc.polys import (
    MPoly,
    coef_to_complex,
    d_operator,
    dbar_operator,
    jackson_integral_numeric,
    q_binomial_expand,
    q_binomial_power,
    q_laplacian,
    q_laplacian_chain,
    q_power_product,
)
from qcalc.qcore import q_factorial, q_int, q_int_reciprocal
from qcalc.qwave import SYMBOLIC_SPEED, q_binomial_substitute
from qcalc.serialize import mpoly_to_json


def xpoly(terms):
    return MPoly(("x",), terms)


def substitute_by_powers(p, name, replacement):
    """The earlier MPoly.substitute: raise the replacement to each power met
    and add one product per term.  Kept as the oracle for the term-mapping
    kernel; it also takes replacements with several terms."""
    if not isinstance(replacement, MPoly):
        replacement = MPoly.const(p.vars, replacement)
    i = p.vars.index(name)
    powers = {0: MPoly.const(p.vars, 1)}
    out = MPoly.zero(p.vars)
    for e, c in p.terms.items():
        d = e[i]
        if d not in powers:
            powers[d] = replacement**d
        rest = e[:i] + (0,) + e[i + 1 :]
        out = out + powers[d] * MPoly(p.vars, {rest: c})
    return out


def expand_by_products(p, name, b):
    """x**n -> (x + b)(x + qb)...(x + q^(n-1) b) term by term through the
    ordered product, the independent route for q_binomial_expand."""
    i = p.vars.index(name)
    x = MPoly.var(p.vars, name)
    out = MPoly.zero(p.vars)
    for e, c in p.terms.items():
        rest = MPoly(p.vars, {e[:i] + (0,) + e[i + 1 :]: c})
        out = out + rest * q_power_product(x, b, e[i])
    return out


def q_derivative_by_terms(p, name, direction="q"):
    """The earlier MPoly.q_derivative loop: x**n -> [n] x**(n-1) term by
    term.  Kept as the oracle for the term-mapping kernel."""
    if direction not in ("q", "1/q"):
        raise ValueError("direction must be 'q' or '1/q'")
    factor = q_int if direction == "q" else q_int_reciprocal
    i = p._index(name)
    out = {}
    for e, c in p.terms.items():
        d = e[i]
        if d == 0:
            continue
        ne = e[:i] + (d - 1,) + e[i + 1 :]
        v = c * factor(d)
        prev = out.get(ne)
        if prev is not None:
            v = prev + v
        if not v.is_zero():
            out[ne] = v
        elif ne in out:
            del out[ne]
    return MPoly(p.vars, out)


def jackson_by_terms(p, name):
    """The earlier MPoly.jackson_antiderivative loop, x**n -> x**(n+1) / [n+1]_q."""
    i = p._index(name)
    out = {}
    for e, c in p.terms.items():
        d = e[i]
        ne = e[:i] + (d + 1,) + e[i + 1 :]
        out[ne] = c * CoefExpr(LaurentPoly({0: 1}), q_int(d + 1))
    return MPoly(p.vars, out)


def eval_by_terms(p, value):
    """The earlier MPoly.eval_univariate: sum of c * value**d in degree order."""
    if len(p.vars) != 1:
        raise ValueError("eval_univariate needs a univariate polynomial")
    value = CoefExpr.of(value)
    total = CE_ZERO
    for (d,), c in sorted(p.terms.items()):
        total = total + c * value**d
    return total


def random_coef(rng):
    """A rational, Gaussian-rational or q-dependent coefficient."""
    re = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    kind = rng.randrange(3)
    if kind == 0:
        return re
    if kind == 1:
        return GaussianRational(re, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return CoefExpr(LaurentPoly({rng.randint(-2, 1): re, 2: 1}), q_int(rng.randint(2, 4)))


class TestMPolyBasics:
    def test_arithmetic(self):
        p = MPoly(("x", "y"), {(1, 0): 1, (0, 1): 2})
        q = MPoly(("x", "y"), {(1, 0): -1, (1, 1): 3})
        assert (p + q) - q == p
        assert p * q == MPoly(
            ("x", "y"),
            {(2, 0): -1, (1, 1): -2, (2, 1): 3, (1, 2): 6},
        )

    def test_eq_against_scalars(self):
        assert MPoly.const(("x",), 5) == 5
        assert not MPoly.var(("x",), "x") == 5

    def test_negative_exponent_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            MPoly(("x",), {(-1,): 1})

    def test_repeated_variable_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            MPoly(("x", "x"), {(1, 0): 1})

    def test_substitute_zero_and_poly(self):
        p = MPoly(("x", "t"), {(2, 0): 1, (1, 1): 4, (0, 0): 7})
        at2 = p.substitute("t", 0)
        assert at2 == MPoly(("x", "t"), {(2, 0): 1, (0, 0): 7})
        swapped = p.substitute("t", MPoly.var(("x", "t"), "x"))
        assert swapped == MPoly(("x", "t"), {(2, 0): 5, (0, 0): 7})

    def test_substitute_matches_powers_and_products(self):
        """The one-term kernel against the earlier powers-and-products
        substitute, down to the coefficient documents."""
        rng = random.Random(11)
        xtc = ("x", "t", "c")
        for _ in range(150):
            p = MPoly(
                xtc,
                {
                    tuple(rng.randint(0, 4) for _ in xtc): random_coef(rng)
                    for _ in range(rng.randint(0, 6))
                },
            )
            name = rng.choice(xtc)
            kind = rng.randrange(3)
            if kind == 0:
                replacement = random_coef(rng) if rng.randrange(4) else 0
            else:
                exps = tuple(rng.randint(0, 2) for _ in xtc)
                replacement = MPoly.monomial(xtc, exps, random_coef(rng))
            got = p.substitute(name, replacement)
            want = substitute_by_powers(p, name, replacement)
            assert got == want
            assert mpoly_to_json(got) == mpoly_to_json(want)

    def test_substitute_rejects_several_terms(self):
        xt = ("x", "t")
        p = MPoly(xt, {(2, 1): 1})
        with pytest.raises(ValueError, match="single term"):
            p.substitute("t", MPoly.var(xt, "x") + 1)
        with pytest.raises(ValueError):
            p.substitute("t", MPoly.var(("x",), "x"))

    def test_with_vars_and_rename(self):
        p = MPoly(("x",), {(3,): 2})
        q = p.with_vars(("a", "x", "b"))
        assert q.degree_in("x") == 3 and q.degree_in("a") == 0
        with pytest.raises(ValueError):
            p.with_vars(("a", "b"))
        assert p.rename_var("x", "z").vars == ("z",)

    def test_truncate_total_degree(self):
        p = MPoly(("x", "t", "c"), {(2, 2, 5): 1, (1, 0, 0): 1})
        assert p.truncate_total_degree(3, names=("x", "t")).terms == {
            (1, 0, 0): CE_ONE
        }

    def test_pow_matches_repeated_mul(self):
        p = MPoly(("x",), {(1,): 1, (0,): 1})
        assert p**3 == p * p * p

    def test_one_term_division(self):
        p = MPoly(("x", "c"), {(1, 2): 1})
        c = MPoly.var(("x", "c"), "c")
        assert p / c**2 == MPoly(("x", "c"), {(1, 0): 1})
        with pytest.raises(ValueError):
            p / c**3

    def test_division_by_a_scalar_or_several_terms(self):
        p = MPoly(("x", "c"), {(1, 2): 1})
        assert p / Fraction(2, 3) == MPoly(("x", "c"), {(1, 2): Fraction(3, 2)})
        with pytest.raises(ValueError, match="one-term"):
            p / (MPoly.var(("x", "c"), "c") + 1)

    def test_var_names_a_missing_variable(self):
        with pytest.raises(ValueError, match=r"variable 't' not among \('x',\)"):
            MPoly.var(("x",), "t")


class TestQDerivative:
    def test_monomial_rule(self):
        assert xpoly({(3,): 1}).q_derivative("x") == xpoly({(2,): q_int(3)})

    def test_reciprocal_direction(self):
        w2 = MPoly(("w",), {(2,): 1})
        d = w2.q_derivative("w", "1/q")
        # [2]_{1/q} = (1+q)/q
        assert d == MPoly(("w",), {(1,): CoefExpr(q_int(2), LP_Q)})

    def test_constant(self):
        assert MPoly.const(("x",), 7).q_derivative("x").is_zero()

    def test_difference_quotient_cross_check(self):
        """The monomial rule agrees with (f(qx) - f(x)) / ((q-1)x) at random
        nonzero rational points."""
        rng = random.Random(7)
        for _ in range(25):
            coeffs = {
                (d,): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for d in range(rng.randint(1, 7))
            }
            p = xpoly(coeffs)
            a = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
            q0 = Fraction(rng.randint(2, 9), rng.randint(1, 9))
            if q0 == 1:
                q0 += 1

            def value(poly, point):
                return poly.eval_univariate(CoefExpr.of(point)).eval_q(q0)

            lhs = value(p.q_derivative("x"), a)
            rhs = (value(p, q0 * a) - value(p, a)) / GaussianRational((q0 - 1) * a)
            assert lhs == rhs

    def test_monomial_splitting_consistency(self):
        # q^m [n] + [m] == [m+n], the two-way product evaluation of D_q x^(m+n)
        for total in range(25):
            for m in range(total + 1):
                n = total - m
                assert LaurentPoly.term(2 * m) * q_int(n) + q_int(m) == q_int(total)


class TestScaleSubstitute:
    def test_examples(self):
        x2 = xpoly({(2,): 1})
        assert x2.scale_substitute("x", 2) == xpoly({(2,): LaurentPoly.term(4)})
        assert x2.scale_substitute("x", 1) == xpoly({(2,): LP_Q})
        h1 = xpoly({(1,): q_int(2)})
        assert h1.scale_substitute("x", 2) == xpoly({(1,): q_int(2) * LP_Q})


class TestQBinomialPower:
    def test_printed_expansion(self):
        p = q_binomial_power("z", GR_I, "w", 2)
        assert p == MPoly(
            ("z", "w"),
            {
                (2, 0): 1,
                (1, 1): CoefExpr.of(q_int(2)) * GR_I,
                (0, 2): LaurentPoly({2: -1}),
            },
        )

    def test_real_signs(self):
        c = Fraction(2, 3)
        p = q_binomial_power("x", -c, "t", 2)
        assert p == MPoly(
            ("x", "t"),
            {
                (2, 0): 1,
                (1, 1): CoefExpr.of(q_int(2)) * (-c),
                (0, 2): LaurentPoly({2: c * c}),
            },
        )

    def test_empty_product(self):
        assert q_binomial_power("z", GR_I, "w", 0) == MPoly.const(("z", "w"), 1)

    def test_product_route_agreement(self):
        zw = ("z", "w")
        for n in range(13):
            closed = q_binomial_power("z", GR_I, "w", n)
            product = q_power_product(MPoly.var(zw, "z"), MPoly.var(zw, "w").scale(GR_I), n)
            assert closed == product
        c = Fraction(-3, 2)
        xt = ("x", "t")
        for n in range(9):
            product = q_power_product(MPoly.var(xt, "x"), MPoly.var(xt, "t").scale(c), n)
            assert q_binomial_power("x", c, "t", n) == product
        # the wave substitution x^n -> (x +- c t)_q^n, symbolic and rational c
        xtc = ("x", "t", "c")
        x, ct = MPoly.var(xtc, "x"), MPoly.monomial(xtc, (0, 1, 1), 1)
        c = Fraction(5, 7)
        for n in range(9):
            xn = MPoly.monomial(("x",), (n,), 1)
            for sign, unit in (("+", 1), ("-", -1)):
                got = q_binomial_substitute(xn, sign, SYMBOLIC_SPEED)
                assert got == q_power_product(x, ct.scale(unit), n)
                got = q_binomial_substitute(xn, sign, c)
                product = q_power_product(
                    MPoly.var(xt, "x"), MPoly.var(xt, "t").scale(unit * c), n
                )
                assert got == product
        # q_binomial_expand with a complex and a q-dependent b, on a
        # several-term source whose images share monomials
        source = MPoly(xtc, {(3, 0, 0): 2, (2, 1, 1): GR_I, (1, 1, 2): -5, (0, 2, 2): 1})
        for b_coef in (GaussianRational(Fraction(2, 5), -3), CoefExpr(LP_ONE, q_int(2))):
            for exps in ((0, 1, 1), (0, 1, 0)):
                b = MPoly.monomial(xtc, exps, b_coef)
                assert q_binomial_expand(source, "x", b) == expand_by_products(source, "x", b)
            for n in range(7):
                closed = q_binomial_power("z", b_coef, "w", n)
                zw_b = MPoly.var(zw, "w").scale(b_coef)
                assert closed == q_power_product(MPoly.var(zw, "z"), zw_b, n)
        # a source carrying c, under a symbolic and a numeric speed
        xc = ("x", "c")
        carried = MPoly(xc, {(n, n % 3): Fraction(1, n + 1) for n in range(7)})
        wide = carried.with_vars(xtc)
        for sign, unit in (("+", 1), ("-", -1)):
            want = expand_by_products(wide, "x", ct.scale(unit))
            assert q_binomial_substitute(carried, sign, SYMBOLIC_SPEED) == want
            want = expand_by_products(wide, "x", MPoly.var(xtc, "t").scale(unit * c))
            assert q_binomial_substitute(carried, sign, c) == want
        # b = 0 leaves a^n (and any source) as it is
        for n in range(5):
            assert q_binomial_power("z", 0, "w", n) == MPoly.monomial(zw, (n, 0))
        assert q_binomial_expand(source, "x", MPoly.zero(xtc)) == source

    def test_negative_power_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            q_binomial_power("z", GR_I, "w", -1)


class TestPairOperators:
    def test_dbar_examples(self):
        assert dbar_operator(q_binomial_power("z", GR_I, "w", 2)).is_zero()
        z_plus_iw = q_binomial_power("z", GR_I, "w", 1)
        assert dbar_operator(z_plus_iw).is_zero()
        z_minus_iw = MPoly(("z", "w"), {(1, 0): 1, (0, 1): -GR_I})
        assert dbar_operator(z_minus_iw) == MPoly.const(("z", "w"), 1)

    def test_d_examples(self):
        assert d_operator(q_binomial_power("z", GR_I, "w", 1)) == MPoly.const(
            ("z", "w"), 1
        )
        assert d_operator(q_binomial_power("z", GR_I, "w", 2)) == q_binomial_power(
            "z", GR_I, "w", 1
        ).scale(q_int(2))
        assert d_operator(MPoly.const(("z", "w"), 5)).is_zero()

    def test_operator_relations_up_to_twelve(self):
        for n in range(1, 13):
            p = q_binomial_power("z", GR_I, "w", n)
            assert dbar_operator(p).is_zero()
            assert d_operator(p) == q_binomial_power("z", GR_I, "w", n - 1).scale(
                q_int(n)
            )

    def test_classical_limit_annihilation(self):
        # at s = 1 the pair operator annihilates the classical binomial power
        z_plus_iw = MPoly(("z", "w"), {(1, 0): 1, (0, 1): GR_I})
        for n in range(7):
            assert dbar_operator(z_plus_iw**n).at_s_one().is_zero()


class TestQLaplacian:
    def test_level_zero_annihilates(self):
        assert q_laplacian(q_binomial_power("z", GR_I, "w", 2)).is_zero()

    def test_on_z_squared(self):
        p = MPoly(("z", "w"), {(2, 0): 1})
        assert q_laplacian(p) == MPoly.const(("z", "w"), q_int(2))

    def test_nested_chains(self):
        for n in range(9):
            p = q_binomial_power("z", GR_I, "w", n)
            for m in range(1, 4):
                assert q_laplacian_chain(p, m).is_zero()

    def test_level_one_alone_does_not_annihilate(self):
        # the chain order matters: the level-1 operator by itself leaves
        # [2]_q (1 - q) on the quadratic binomial
        p = q_binomial_power("z", GR_I, "w", 2)
        res = q_laplacian(p, level=1)
        assert res == MPoly.const(("z", "w"), q_int(2) * LaurentPoly({0: 1, 2: -1}))


class TestJacksonAntiderivative:
    def test_examples(self):
        x2 = xpoly({(2,): 1})
        assert x2.jackson_antiderivative("x") == xpoly(
            {(3,): CoefExpr(LP_ONE, q_int(3))}
        )
        assert MPoly.const(("x",), 1).jackson_antiderivative("x") == xpoly({(1,): 1})
        g = MPoly(("x", "c"), {(1, 1): CoefExpr.of(-q_int(2))})
        assert g.jackson_antiderivative("x") == MPoly(
            ("x", "c"), {(2, 1): CoefExpr.of(-1)}
        )

    def test_inverts_derivative(self):
        rng = random.Random(11)
        for _ in range(10):
            p = xpoly(
                {
                    (d,): Fraction(rng.randint(-6, 6))
                    for d in range(rng.randint(1, 8))
                }
            )
            assert p.jackson_antiderivative("x").q_derivative("x") == p


_coef = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    st.builds(
        GaussianRational,
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    ),
    st.builds(
        lambda num, den: CoefExpr(LaurentPoly(num), den),
        st.dictionaries(
            st.integers(-3, 3),
            st.builds(GaussianRational, st.integers(-4, 4), st.integers(-4, 4)),
            max_size=3,
        ),
        st.sampled_from([LP_ONE, LP_Q, q_int(2), q_int(3), q_factorial(3)]),
    ),
)


@st.composite
def _polys(draw, variables=None):
    """An MPoly over one to three of x, t, c with degree-0 terms allowed."""
    if variables is None:
        variables = draw(st.sampled_from([("x",), ("t", "x"), ("x", "t", "c"), ("c", "x")]))
    exps = st.tuples(*[st.integers(0, 4)] * len(variables))
    return MPoly(variables, draw(st.dictionaries(exps, _coef, max_size=6)))


def _same_outcome(got, want):
    """Run both thunks: equal polynomials with equal documents, or the same
    ValueError message."""
    try:
        expected = want()
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            got()
        assert str(raised.value) == str(exc)
        return
    result = got()
    assert result == expected
    assert mpoly_to_json(result) == mpoly_to_json(expected)


class TestOperatorsAgainstTermLoops:
    """q_derivative, jackson_antiderivative and eval_univariate run through the
    term-mapping kernel; the loops they replaced are the oracles."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_polys(), st.sampled_from(["x", "t", "c", "y"]), st.sampled_from(["q", "1/q"]))
    @example(MPoly(("x", "c"), {(0, 0): 3, (0, 2): GR_I}), "x", "q")
    @example(MPoly(("x",), {(2,): 1}), "x", "sideways")
    def test_q_derivative(self, p, name, direction):
        _same_outcome(
            lambda: p.q_derivative(name, direction),
            lambda: q_derivative_by_terms(p, name, direction),
        )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_polys(), st.sampled_from(["x", "t", "c", "y"]))
    def test_jackson_antiderivative(self, p, name):
        _same_outcome(lambda: p.jackson_antiderivative(name), lambda: jackson_by_terms(p, name))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_polys(("x",)), _coef | st.integers(-3, 3))
    @example(MPoly.zero(("x",)), 5)
    @example(MPoly(("x",), {(0,): 4}), 0)
    def test_eval_univariate(self, p, value):
        assert p.eval_univariate(value) == eval_by_terms(p, value)

    def test_eval_univariate_needs_one_variable(self):
        with pytest.raises(ValueError, match="needs a univariate polynomial"):
            MPoly(("x", "t"), {(1, 0): 1}).eval_univariate(2)


class TestCoefToComplex:
    def test_dominant_power_factored_out(self):
        # [20]! / [19]! has s-powers up to 380: 100**190 alone is out of float range
        c = CoefExpr(q_factorial(20), q_factorial(19))
        for q in (100.0, 0.01):
            assert coef_to_complex(c, q) == pytest.approx((q**20 - 1) / (q - 1), rel=1e-12)


class TestJacksonIntegralNumeric:
    def test_constant_converges_to_one(self):
        value, bound = jackson_integral_numeric(lambda x: 1.0, 0.0, 1.0, 0.5, 30)
        assert abs(value - 1.0) <= 1e-8
        assert bound >= 0

    def test_linear_integrand(self):
        value, _ = jackson_integral_numeric(lambda x: x, 0.0, 1.0, 0.5, 60)
        assert abs(value - 2.0 / 3.0) <= 1e-12

    def test_equal_endpoints(self):
        value, _ = jackson_integral_numeric(lambda x: x * x, 0.75, 0.75, 0.5, 10)
        assert value == 0

    def test_invalid_q(self):
        for bad in (0, 1, 1.5, -0.5):
            with pytest.raises(ValueError):
                jackson_integral_numeric(lambda x: 1.0, 0.0, 1.0, bad, 5)

    def test_truncation_respects_reported_bound(self):
        """Exact-rational truncated sums stay within the reported tail bound
        of the exact antiderivative difference."""
        rng = random.Random(23)
        for q0 in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            for _ in range(6):
                coeffs = {
                    (d,): Fraction(rng.randint(-5, 5))
                    for d in range(rng.randint(1, 6))
                }
                p = xpoly(coeffs)
                anti = p.jackson_antiderivative("x")

                def g(x):
                    return p.eval_univariate(CoefExpr.of(Fraction(x))).eval_q(q0).re

                a = Fraction(rng.randint(-3, 3))
                b = Fraction(rng.randint(-3, 3))
                for terms in (8, 16, 32):
                    value, bound = jackson_integral_numeric(g, a, b, q0, terms)
                    exact = (
                        anti.eval_univariate(CoefExpr.of(b)).eval_q(q0).re
                        - anti.eval_univariate(CoefExpr.of(a)).eval_q(q0).re
                    )
                    assert abs(float(value - exact)) <= bound + 1e-15
