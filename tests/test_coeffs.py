"""Foundation tests: Gaussian rationals, Laurent polynomials, fraction field."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc import coeffs
from qcalc.coeffs import (
    CE_ONE,
    CE_ZERO,
    CoefExpr,
    GaussianRational,
    LaurentPoly,
    LP_ONE,
    LP_Q,
    LP_S,
    NeedsSquareRootError,
    PoleError,
    ZeroDenominatorError,
    as_gaussian,
)
from qcalc.qcore import q_int


def lp(d):
    return LaurentPoly(d)


ONE_PLUS_Q = CoefExpr.of(q_int(2))


class TestGaussianRational:
    def test_field_basics(self):
        a = GaussianRational(Fraction(1, 2), Fraction(-3))
        b = GaussianRational(2, 1)
        assert a + b == GaussianRational(Fraction(5, 2), -2)
        assert a * b == GaussianRational(4, Fraction(-11, 2))
        assert (a / b) * b == a
        assert a - a == GaussianRational(0)

    def test_inverse_of_i(self):
        i = GaussianRational(0, 1)
        assert i.inverse() == GaussianRational(0, -1)
        assert i * i == GaussianRational(-1)

    def test_zero_inverse_raises(self):
        with pytest.raises(ZeroDenominatorError):
            GaussianRational(0).inverse()

    def test_conjugate(self):
        a = GaussianRational(2, 3)
        assert a.conjugate() == GaussianRational(2, -3)
        assert (a * a.conjugate()).is_real()

    def test_power(self):
        a = GaussianRational(Fraction(1, 2), -3)
        want = GaussianRational(1)
        for n in range(12):
            assert a**n == want
            want = want * a
        assert GaussianRational(0, 1) ** 4 == GaussianRational(1)
        assert a**-3 * a**3 == GaussianRational(1)
        with pytest.raises(ZeroDenominatorError):
            GaussianRational(0) ** -1


def test_powers_match_repeated_products():
    """Every ring type's __pow__ runs the one square-and-multiply helper."""
    cases = (
        (lp({-1: GaussianRational(1, 2), 3: Fraction(-2, 3)}), LP_ONE),
        (CoefExpr(lp({0: 1, 2: GaussianRational(0, 1)}), q_int(3)), CE_ONE),
    )
    for base, want in cases:
        for n in range(10):
            assert base**n == want
            want = want * base


class TestLaurentPoly:
    def test_mul_one_plus_q_squared(self):
        # (1+q)^2 = 1 + 2q + q^2
        sq = q_int(2) * q_int(2)
        assert sq == lp({0: 1, 2: 2, 4: 1})

    def test_sqrt_q_collects(self):
        # sqrt(q) + sqrt(q) = 2 sqrt(q)
        assert LP_S + LP_S == lp({1: 2})

    def test_shift_and_stretch(self):
        p = lp({0: 1, 2: 5})
        assert p.shift(3) == lp({3: 1, 5: 5})
        assert p.stretch(2) == lp({0: 1, 4: 5})
        assert p.stretch(-1) == lp({0: 1, -2: 5})
        assert p.stretch(-1).stretch(-1) == p

    def test_eval_q_needs_even_exponents(self):
        with pytest.raises(NeedsSquareRootError):
            LP_S.eval_q(Fraction(2))
        assert LP_S.eval_s(Fraction(3)) == GaussianRational(3)

    def test_divexact_roundtrip(self):
        a = lp({-2: 1, 0: Fraction(3, 2), 4: -2})
        b = lp({0: 1, 2: 1, 3: Fraction(1, 7)})
        assert (a * b).divexact(b) == a
        # a remainder appears: q_int(3) does not divide 1 + q
        assert q_int(2).divexact(q_int(3)) is None

    def test_divexact_by_zero_raises(self):
        with pytest.raises(ZeroDenominatorError):
            LP_ONE.divexact(LaurentPoly({}))

    def test_negative_monomial_power(self):
        assert lp({2: 2}) ** -2 == lp({-4: Fraction(1, 4)})


class TestCoefExpr:
    def test_inverse_against_product(self):
        inv = ONE_PLUS_Q.inverse()
        assert inv * ONE_PLUS_Q == CE_ONE

    def test_eval_examples(self):
        assert ONE_PLUS_Q.eval_q(Fraction(2)) == GaussianRational(3)
        # geometric sum oracle for [4]_q at q = 2
        expected = sum(2**j for j in range(4))
        assert CoefExpr.of(q_int(4)).eval_q(Fraction(2)) == GaussianRational(expected)

    def test_eval_pole(self):
        with pytest.raises(PoleError):
            ONE_PLUS_Q.inverse().eval_q(Fraction(-1))

    def test_eval_with_square_root(self):
        half_power = CoefExpr.of(lp({3: 1}))  # q^(3/2)
        assert half_power.eval_q(Fraction(4), s_value=Fraction(2)) == GaussianRational(8)
        with pytest.raises(NeedsSquareRootError):
            half_power.eval_q(Fraction(4))
        with pytest.raises(ValueError):
            half_power.eval_q(Fraction(4), s_value=Fraction(3))

    def test_inverse_q_of_q_int(self):
        # [2]_{1/q} equals (1+q)/q under cross-multiplication
        r = ONE_PLUS_Q.substitute_inverse_q()
        assert r == CoefExpr(q_int(2), LP_Q)
        assert r.substitute_inverse_q() == ONE_PLUS_Q

    def test_inverse_q_constants_and_monomials(self):
        assert CoefExpr.of(5).substitute_inverse_q() == CoefExpr.of(5)
        assert CoefExpr.of(lp({3: 1})).substitute_inverse_q() == CoefExpr.of(lp({-3: 1}))

    def test_monomial_denominator_folds(self):
        c = CoefExpr(lp({0: 1, 2: 1}), lp({2: 2}))
        assert c.den is LP_ONE
        assert c == CoefExpr(q_int(2), lp({2: 2}))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominatorError):
            CoefExpr(LP_ONE, LaurentPoly({}))
        with pytest.raises(ZeroDenominatorError):
            CE_ZERO.inverse()

    def test_lower(self):
        c = CoefExpr(q_int(2) * q_int(3), q_int(3))
        assert c.lower() == q_int(2)
        with pytest.raises(ValueError):
            CoefExpr(LP_ONE, q_int(2)).lower()


# Random value builders shared by the property tests.
_frac = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_gauss = st.builds(GaussianRational, _frac, _frac)
_laurent = st.dictionaries(st.integers(-4, 4), _gauss, max_size=4).map(LaurentPoly)
_nonzero_laurent = _laurent.filter(lambda p: not p.is_zero())
_coef = st.builds(CoefExpr, _laurent, _nonzero_laurent)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(_coef, _coef, _coef)
    def test_add_associative_and_distributive(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(_coef, _coef)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(_coef)
    def test_units_and_inverses(self, a):
        assert a + CE_ZERO == a
        assert a * CE_ONE == a
        if not a.is_zero():
            assert a * a.inverse() == CE_ONE

    @settings(max_examples=60, deadline=None)
    @given(_coef, _coef)
    def test_s_one_evaluation_commutes(self, a, b):
        try:
            va, vb = a.at_one(), b.at_one()
            vsum = (a + b).at_one()
            vprod = (a * b).at_one()
        except PoleError:
            return  # a denominator vanishing at s = 1 is out of scope here
        assert vsum == va + vb
        assert vprod == va * vb
        assert (-a).at_one() == -va

    @settings(max_examples=60, deadline=None)
    @given(_coef)
    def test_involution_is_self_inverse(self, a):
        assert a.substitute_inverse_q().substitute_inverse_q() == a


def _random_laurent(rng, allow_zero=True):
    n = rng.randint(0 if allow_zero else 1, 4)
    coeffs = {}
    for _ in range(n):
        e = rng.randint(-4, 4)
        coeffs[e] = GaussianRational(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
        )
    p = LaurentPoly(coeffs)
    if not allow_zero and p.is_zero():
        return LP_ONE
    return p


def test_equality_by_cross_multiplication_on_random_pairs():
    """1000 seeded pairs: the same value in a different representation
    (numerator and denominator times one factor) compares equal, a value
    shifted by an integer compares equal exactly when the shift is 0, and
    == is symmetric on unrelated pairs."""
    rng = random.Random(20240817)
    agree = 0
    for k in range(1000):
        a = CoefExpr(_random_laurent(rng), _random_laurent(rng, allow_zero=False))
        if k % 3 == 0:
            # same value, different representation
            m = _random_laurent(rng, allow_zero=False)
            b = CoefExpr(a.num * m, a.den * m)
            assert a == b
        elif k % 3 == 1:
            shift = rng.randint(-1, 1)
            b = a + CoefExpr.of(shift)
            assert (a == b) == (shift == 0)
        else:
            b = CoefExpr(_random_laurent(rng), _random_laurent(rng, allow_zero=False))
            assert (a == b) == (b == a)
        agree += 1
    assert agree == 1000


def _schoolbook_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Reference product by the double loop over both coefficient dicts: the
    oracle for the Kronecker-substitution kernel in LaurentPoly.__mul__."""
    return LaurentPoly(_dict_mul(a.coeffs, b.coeffs))


# The dict kernel: every LaurentPoly operation on {exponent: nonzero
# GaussianRational}, one coefficient at a time, as LaurentPoly once stored
# and computed it.  The oracle of TestIntegerKernel.
_GR0 = GaussianRational(0)


def _dict_clean(a):
    return {e: c for e, c in a.items() if c}


def _dict_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, _GR0) + c
    return _dict_clean(out)


def _dict_neg(a):
    return {e: -c for e, c in a.items()}


def _dict_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = out.get(e, _GR0) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _dict_scale(a, c):
    return _dict_clean({e: v * c for e, v in a.items()})


def _dict_stretch(a, k):
    return {e * k: c for e, c in a.items()}


def _dict_divexact(a, b):
    if not a:
        return {}
    rem = dict(a)
    dmax, dmin = max(b), min(b)
    lead_inv = b[dmax].inverse()
    qmin = min(rem) - dmin
    out = {}
    while rem:
        e = max(rem)
        qe = e - dmax
        if qe < qmin:
            return None
        c = rem[e] * lead_inv
        out[qe] = c
        for de, dc in b.items():
            v = rem.get(de + qe, _GR0) - c * dc
            if v:
                rem[de + qe] = v
            else:
                rem.pop(de + qe, None)
    return out


def _dict_eval(a, x):
    x = as_gaussian(x)
    return sum((c * x**e for e, c in a.items()), _GR0)


def _assert_product(a, b):
    expected = _schoolbook_mul(a, b)
    assert (a * b).coeffs == expected.coeffs
    assert (b * a).coeffs == expected.coeffs


# Wide operands: exponents -60..60 with gaps, coefficients up to ~200 bits
# with mixed signs and denominators, imaginary parts on some.
_wide_part = st.one_of(
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**40)),
)
_wide_gauss = st.builds(GaussianRational, _wide_part, st.one_of(st.just(0), _wide_part))
_wide_laurent = st.one_of(
    st.dictionaries(st.integers(-60, 60), _wide_gauss, max_size=40),
    st.dictionaries(st.integers(-60, 60), st.builds(GaussianRational, _wide_part), max_size=40),
).map(LaurentPoly)


class TestKroneckerProduct:
    @settings(max_examples=200, deadline=None)
    @given(_wide_laurent, _wide_laurent)
    def test_matches_schoolbook(self, a, b):
        _assert_product(a, b)

    def test_cancelling_slots(self):
        s, i = LP_S, GaussianRational(0, 1)
        assert (LP_ONE + s) * (LP_ONE - s) == LP_ONE - s * s  # the s slot cancels
        conj = (LP_ONE + s.scale(i)) * (LP_ONE - s.scale(i))  # imaginary part cancels
        assert conj == LP_ONE + s * s
        assert all(c.is_real() for c in conj.coeffs.values())
        wide = lp({e: 1 - 2 * (e % 2) for e in range(-40, 40)})
        _assert_product(wide, lp({0: 1, 1: 1}))
        assert (wide * LaurentPoly()).is_zero()
        assert (LaurentPoly() * wide).is_zero()

    @pytest.mark.parametrize("length", [2, 121])
    def test_slot_at_the_packing_bound(self, length):
        # every coefficient at +-max: the middle slot of the product equals
        # the bound the slot width is chosen from
        big = 2**200 + 1
        pos = lp({e: big for e in range(length)})
        neg = lp({e: -big for e in range(length)})
        _assert_product(pos, pos)
        _assert_product(pos, neg)
        assert (pos * pos).coeffs[length - 1] == GaussianRational(length * big * big)
        za = lp({e: GaussianRational(big, big) for e in range(length)})
        zb = lp({e: GaussianRational(big, -big) for e in range(length)})
        _assert_product(za, zb)
        assert (za * zb).coeffs[length - 1] == GaussianRational(2 * length * big * big)

    def test_one_term_operand(self):
        a = lp({-3: GaussianRational(Fraction(1, 3), 2), 5: 7, 9: Fraction(-2, 9)})
        for mono in (lp({4: Fraction(-5, 7)}), lp({-2: GaussianRational(0, 1)}), LP_S):
            _assert_product(a, mono)
        assert a * LP_ONE is a
        assert LP_ONE * a is a


def _assert_canonical(p: LaurentPoly):
    """The stored form: (0, 1, [], None) for zero; else den > 0, no common
    factor of den and the entries, nonzero ends, im None exactly when real."""
    if p.is_zero():
        assert (p.lo, p.den, p.re, p.im) == (0, 1, [], None)
        return
    entries = p.re + (p.im or [])
    assert p.den > 0 and math.gcd(p.den, *entries) == 1
    assert p.im is None or (len(p.im) == len(p.re) and any(p.im))
    for k in (0, -1):
        assert p.re[k] or (p.im and p.im[k])


_small_part = st.fractions(min_value=-4, max_value=4, max_denominator=6)
_part30 = st.builds(Fraction, st.integers(-(2**30), 2**30), st.integers(1, 2**30))


@st.composite
def _kernel_dict(draw):
    """{exponent: GaussianRational}, zeros allowed: small or 30-bit parts, real
    or complex, one term or several, at one exponent parity or at both."""
    part = draw(st.sampled_from((_small_part, _part30)))
    re, im = part, st.just(0)
    if draw(st.booleans()):  # complex, some coefficients purely imaginary
        re, im = st.one_of(st.just(0), part), part
    step, offset = draw(st.sampled_from(((1, 0), (2, 0), (2, 1))))
    exps = st.integers(-12, 12).map(lambda e: step * e + offset)
    size = draw(st.sampled_from((1, 5, 15)))
    return draw(st.dictionaries(exps, st.builds(GaussianRational, re, im),
                                min_size=min(size, 1), max_size=size))


@st.composite
def _kernel_pair(draw):
    """Two coefficient dicts; half the time the second cancels the first on
    some of its exponents, the ends or all of them included."""
    a, b = draw(_kernel_dict()), draw(_kernel_dict())
    if draw(st.booleans()):
        cancel = draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
        b = {**b, **{e: -c for (e, c), k in zip(a.items(), cancel) if k}}
    return a, b


_scalar = st.one_of(st.integers(-5, 5), _small_part, _part30,
                    st.builds(GaussianRational, _small_part, _small_part))


class TestIntegerKernel:
    """LaurentPoly's integer vectors against the dict kernel, operation by
    operation; every result is also checked to be in canonical form."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_kernel_pair(), _scalar, st.integers(-5, 5), st.sampled_from((-3, -2, -1, 2, 3)))
    def test_matches_dict_kernel(self, pair, value, k, stretch):
        a, b = map(_dict_clean, pair)
        pa, pb = LaurentPoly(a), LaurentPoly(b)
        results = {
            "coeffs": (pa, a),
            "add": (pa + pb, _dict_add(a, b)),
            "sub": (pa - pb, _dict_add(a, _dict_neg(b))),
            "neg": (-pa, _dict_neg(a)),
            "mul": (pa * pb, _dict_mul(a, b)),
            "rmul": (pb * pa, _dict_mul(a, b)),
            "scale": (pa.scale(value), _dict_scale(a, as_gaussian(value))),
            "shift": (pa.shift(k), {e + k: c for e, c in a.items()}),
            "stretch": (pa.stretch(stretch), _dict_stretch(a, stretch)),
            "invert_s": (pa.invert_s(), _dict_stretch(a, -1)),
            "conjugate_i": (pa.conjugate_i(), {e: c.conjugate() for e, c in a.items()}),
        }
        for name, (got, want) in results.items():
            _assert_canonical(got)
            assert got.coeffs == want, name
            assert LaurentPoly(got.coeffs) == got, name
        assert (pa == pb) == (a == b)
        assert (pa - pa).is_zero() and (pa + pb) - pb == pa
        if b:
            product = pa * pb
            assert product.divexact(pb) == pa
            # off a multiple by an imaginary constant, unless pb is one term
            for dividend in (pa, product + LaurentPoly.const(GaussianRational(0, 1))):
                quotient = dividend.divexact(pb)
                want = _dict_divexact(dividend.coeffs, b)
                assert (quotient is None) == (want is None)
                if want is not None:
                    _assert_canonical(quotient)
                    assert quotient.coeffs == _dict_clean(want)
        x = GaussianRational(Fraction(3, 2), Fraction(-1, 3))
        assert pa.eval_s(x) == _dict_eval(a, x)
        assert pa.stretch(2).eval_q(x) == _dict_eval(a, x)
        assert pa.at_one() == _dict_eval(a, 1)


def test_kernel_operations_build_no_rationals(monkeypatch):
    """Add, sub, neg, mul (Kronecker and one-term), scale and shift work on the
    integer vectors alone: no Fraction or GaussianRational is constructed."""
    a = lp({-2: GaussianRational(Fraction(1, 3), 2), 0: Fraction(-5, 7), 3: 4})
    b = lp({0: Fraction(2, 9), 2: GaussianRational(0, Fraction(1, 5)), 4: 1})
    mono = lp({3: GaussianRational(Fraction(-2, 3), 1)})
    scalars = (3, Fraction(-4, 15), GaussianRational(Fraction(1, 2), Fraction(-1, 3)))
    built = []

    def counting(make):
        def wrapper(*args, **kwargs):
            built.append(make.__qualname__)
            return make(*args, **kwargs)

        return wrapper

    # every GaussianRational is made by __init__ or by coeffs._gr; Fraction
    # arithmetic builds its results through _from_coprime_ints from Python 3.12
    monkeypatch.setattr(Fraction, "__new__", counting(Fraction.__new__))
    if hasattr(Fraction, "_from_coprime_ints"):
        make = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting(make)))
    monkeypatch.setattr(GaussianRational, "__init__", counting(GaussianRational.__init__))
    monkeypatch.setattr(coeffs, "_gr", counting(coeffs._gr))
    results = [a + b, a - b, -a, a * b, b * a, a * mono, mono * b, a.shift(5)]
    results += [a.scale(c) for c in scalars]
    monkeypatch.undo()
    assert built == []
    assert results[3] == _schoolbook_mul(a, b) and results[5] == _schoolbook_mul(a, mono)
