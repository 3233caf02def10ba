"""Foundation tests: Gaussian rationals, Laurent polynomials, fraction field."""

import copy
import math
import pickle
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
from qcalc.polys import MPoly
from qcalc.qcore import q_int
from qcalc.serialize import coef_from_json


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

    def test_polynomial_operands_take_their_reflected_method(self):
        g = GaussianRational(1, 1)
        assert g * LP_ONE == LP_ONE * g == LaurentPoly.const(g)
        assert g + LP_ONE == LP_ONE + g == LaurentPoly.const(GaussianRational(2, 1))
        assert g - LP_ONE == LP_ONE.__rsub__(g) == LaurentPoly.const(GaussianRational(0, 1))
        assert g * CE_ONE == CE_ONE * g == CoefExpr.of(g)
        assert g / ONE_PLUS_Q == CoefExpr.of(g) / ONE_PLUS_Q
        with pytest.raises(TypeError):
            GaussianRational(1) * "x"
        with pytest.raises(TypeError):
            GaussianRational(1) + "x"

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


def _horner_pack(vec: list[int], width: int) -> int:
    """sum(v * 2**(width*k)) by Horner: the shift loop that coeffs._pack
    replaced, kept as its oracle."""
    acc = 0
    for v in reversed(vec):
        acc = (acc << width) + v
    return acc


def _shift_unpack(x: int, n: int, width: int) -> list[int]:
    """The n balanced width-bit digits of x, lowest first, one shift per
    slot: the loop that coeffs._unpack replaced, kept as its oracle."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = []
    for _ in range(n):
        v = x & mask
        x >>= width
        if v >= half:
            v -= mask + 1
            x += 1
        out.append(v)
    return out


# digit widths in bits just under, at and just over each struct slot, then
# slots of whole bytes sliced from the bytes object, up to several thousand bits
_DIGIT_WIDTHS = (2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 72, 73, 200, 1021, 4096)


@st.composite
def _digit_vector(draw):
    """(width, digits): 1 to 3,000 digits (fewer when wide) that fit a slot
    for width-bit digits, random or at the ends of the slot and of width."""
    width = draw(st.sampled_from(_DIGIT_WIDTHS))
    n = draw(st.one_of(st.integers(1, 8), st.integers(9, min(3000, 2**19 // width))))
    half = 1 << (8 * coeffs._slot_size(width) - 1)
    top = 1 << (width - 1)
    edges = (-half, half - 1, -top, min(top, half - 1), -1, 0, 1)
    rng = random.Random(draw(st.integers(0, 2**32)))
    mode = draw(st.sampled_from(("random", "edges", "mixed")))
    digits = [rng.randrange(-top, top) for _ in range(n)]
    if mode != "random":
        digits = [rng.choice(edges) if mode == "edges" or rng.random() < 0.3 else d
                  for d in digits]
    return width, digits


@st.composite
def _kronecker_operand(draw):
    """A LaurentPoly of 2 to 40 terms over one exponent parity or both, with
    small or ~200-bit parts, real or complex."""
    parity = draw(st.sampled_from((None, 0, 1)))
    exps = st.integers(-40, 40)
    if parity is not None:
        exps = exps.map(lambda e, parity=parity: 2 * e + parity)
    part = draw(st.sampled_from((st.integers(-3, 3).map(Fraction), _wide_part)))
    im = draw(st.sampled_from((st.just(0), part)))
    return LaurentPoly(draw(st.dictionaries(
        exps, st.builds(GaussianRational, part, im), min_size=2, max_size=40)))


class TestKroneckerPacking:
    """coeffs._pack and _unpack, through bytes, against the shift loops."""

    def test_slot_size(self):
        want = {1: 1, 7: 1, 8: 1, 9: 2, 16: 2, 17: 4, 24: 4, 32: 4, 33: 8, 64: 8,
                65: 9, 72: 9, 73: 10, 4096: 512}
        assert {w: coeffs._slot_size(w) for w in want} == want

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_digit_vector())
    def test_matches_the_shift_loops(self, width_digits):
        width, digits = width_digits
        size = coeffs._slot_size(width)
        assert 8 * size >= width
        packed = coeffs._pack(digits, size)
        assert packed == _horner_pack(digits, 8 * size)
        assert coeffs._unpack(packed, len(digits), size) == digits
        assert _shift_unpack(packed, len(digits), 8 * size) == digits

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_kronecker_operand(), _kronecker_operand())
    def test_products_match_the_shift_loops(self, a, b):
        # step-2 operands, mixed steps and complex operands included
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coeffs, "_pack", lambda vec, size: _horner_pack(vec, 8 * size))
            mp.setattr(coeffs, "_unpack", lambda x, n, size: _shift_unpack(x, n, 8 * size))
            want = a * b, b * a
        assert (a * b, b * a) == want
        assert (a * b).coeffs == _dict_mul(a.coeffs, b.coeffs)


# slot bytes a partner's largest entry T forces on products with the memo
# operand: its entries are at most 3 and both sides have at most 8 slots at
# the product's step, so the bound min(len) * 3 * T (twice that when both are
# complex) lies in [T, 48 T] with T = 2**(8*size - 2) // 48
_MEMO_SIZES = (1, 2, 4, 8, 16)


@st.composite
def _memo_run(draw):
    """(a, [(partner dict, slot size, a on the left)]): a step-2 dict of 2 to
    5 slots with entries of at most 3, real or complex, and in a drawn order
    partners that force every slot size of _MEMO_SIZES, each at step 2 and at
    step 1 (an exponent of the other parity too), real or complex with the
    largest entry real or imaginary, some of them twice in a row."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    complex_a = draw(st.booleans())

    def entry(top, imaginary):
        return GaussianRational(rng.randint(-top, top), rng.randint(-top, top) if imaginary else 0)

    lo, slots = rng.randint(-6, 6), rng.randint(2, 5)
    a = {lo + 2 * k: entry(3, complex_a) for k in range(slots)}
    a[lo], a[lo + 2 * slots - 2] = GaussianRational(3), GaussianRational(-1, int(complex_a))
    partners = []
    for size in _MEMO_SIZES:
        top = 2 ** (8 * size - 2) // 48
        for step in (1, 2):
            lo, slots = rng.randint(-6, 6), rng.randint(2, 4)
            b = {lo + 2 * k: entry(top, draw(st.booleans())) for k in range(slots)}
            # the largest entry is real or imaginary
            b[lo] = GaussianRational(0, top) if draw(st.booleans()) else GaussianRational(top)
            b[lo + 2 * slots - 2] = GaussianRational(-1)
            if step == 1:
                b[lo + 1] = GaussianRational(-top)
            partners.append((b, size, draw(st.booleans())))
    order = draw(st.permutations(partners))
    repeats = draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    return a, [p for p, again in zip(order, repeats) for p in (p,) * (1 + again)]


class TestKroneckerMemo:
    """A LaurentPoly keeps its largest absolute entry (top) from its first
    wide product for the slot bound of the next; no result, equality, key or
    copy sees it."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_memo_run())
    def test_products_through_every_slot_size(self, run):
        a, partners = run
        pa = LaurentPoly(a)
        assert pa.step == 2 and pa.top is None
        built, sizes, pack = {}, [], coeffs._pack
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coeffs, "_pack", lambda vec, size: sizes.append(size) or pack(vec, size))
            for b, size, left in partners:
                pb = built.setdefault(id(b), LaurentPoly(b))
                del sizes[:]
                got = pa * pb if left else pb * pa
                _assert_canonical(got)
                assert got.coeffs == _dict_mul(a, b)
                assert set(sizes) == {size}
                assert pa.top == coeffs._top(pa.re, pa.im) == 3
                assert pb.top == coeffs._top(pb.re, pb.im)
        for p in (pa, *built.values(), pa * pa):
            for again in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
                assert again == p and p == again and again.key() == p.key()
                assert again.top is None
        for one in (LP_ONE, coeffs.LP_ZERO):
            assert copy.copy(one) is one and pickle.loads(pickle.dumps(one)) is one
            assert one.top is None
        assert pa * LP_ONE is pa and (pa - pa) is coeffs.LP_ZERO

    def test_each_operand_is_measured_once(self, monkeypatch):
        a, b = lp({0: 1, 2: -2, 4: 3}), lp({0: 5, 1: GaussianRational(1, 2), 2: 7})
        c = lp({2: 1, 4: GaussianRational(0, 9), 6: 1})
        ab, ac, aa = _schoolbook_mul(a, b), _schoolbook_mul(a, c), _schoolbook_mul(a, a)
        measured, top = [], coeffs._top
        monkeypatch.setattr(coeffs, "_top", lambda re, im: measured.append(re) or top(re, im))
        assert a * b == ab and measured == [a.re, b.re]
        assert b * a == ab and a * a == aa and len(measured) == 2
        # a step change spreads a's vector, which keeps a's top
        assert a * c == ac and c * a == ac and measured[2:] == [c.re]
        assert (a.top, b.top, c.top) == (3, 7, 9)  # c's largest entry is imaginary


def _assert_canonical(p: LaurentPoly):
    """The stored form: (0, 1, [], None) at step 1 for zero; else den > 0, no
    common factor of den and the entries, nonzero ends, im None exactly when
    real, and step 2 exactly when two or more slots all share lo's parity:
    a step-1 value of two or more slots has a nonzero odd slot.  The value 1
    is LP_ONE itself."""
    if p.is_zero():
        assert (p.lo, p.den, p.step, p.re, p.im) == (0, 1, 1, [], None)
        return
    if (p.lo, p.den, p.re, p.im) == (0, 1, [1], None):
        assert p is LP_ONE
    entries = p.re + (p.im or [])
    assert p.den > 0 and math.gcd(p.den, *entries) == 1
    assert p.im is None or (len(p.im) == len(p.re) and any(p.im))
    for k in (0, -1):
        assert p.re[k] or (p.im and p.im[k])
    if len(p.re) == 1:
        assert p.step == 1
    elif p.step == 1:  # some exponent lo + k, k odd, is present
        assert any(p.re[1::2]) or (p.im and any(p.im[1::2]))
    else:
        assert p.step == 2


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


@st.composite
def _stepped_dict(draw):
    """{exponent: nonzero GaussianRational} of one shape: one slot, two or
    more slots at lo's parity (stored at step 2), or two or more with an
    exponent of the other parity too (step 1); lo odd, even or negative,
    small or 30-bit parts, real or complex."""
    shape = draw(st.sampled_from(("one-slot", "step-1", "step-2")))
    lo = draw(st.integers(-7, 7))
    part = draw(st.sampled_from((_small_part, _part30)))
    im = draw(st.sampled_from((st.just(0), part)))
    coef = st.builds(GaussianRational, part, im).filter(bool)
    if shape == "one-slot":
        return {lo: draw(coef)}
    step = 2 if shape == "step-2" else 1
    offsets = draw(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    out = {lo: draw(coef)}
    out.update({lo + step * k: draw(coef) for k in offsets})
    if shape == "step-1":  # an exponent of the other parity, for sure
        out[lo + 2 * draw(st.integers(0, 4)) + 1] = draw(coef)
    return out


@st.composite
def _stepped_pair(draw):
    """Two stepped dicts; the second may cancel some of the first's terms,
    or exactly those off lo's parity, so a step-1 sum can come out step 2."""
    a, b = draw(_stepped_dict()), draw(_stepped_dict())
    mode = draw(st.sampled_from(("free", "cancel-some", "cancel-other-parity")))
    if mode == "cancel-some":
        cancel = draw(st.lists(st.booleans(), min_size=len(a), max_size=len(a)))
        b = {**b, **{e: -c for (e, c), k in zip(a.items(), cancel) if k}}
    elif mode == "cancel-other-parity":
        lo = min(a)
        b = {e: c for e, c in b.items() if (e - lo) % 2 == 0}
        b.update({e: -c for e, c in a.items() if (e - lo) % 2})
    return a, _dict_clean(b)


class TestMixedStep:
    """Step-1, step-2 and one-slot operands in every pairing against the
    dict kernel; every result is checked to be canonical, its step included,
    and to equal (and key like) the same value built from its coefficients."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(_stepped_pair(), _scalar, st.integers(-5, 5), st.sampled_from((-3, -2, -1, 2, 3)))
    def test_matches_dict_kernel(self, pair, value, k, stretch):
        a, b = pair
        pa, pb = LaurentPoly(a), LaurentPoly(b)
        results = {
            "add": (pa + pb, _dict_add(a, b)),
            "radd": (pb + pa, _dict_add(a, b)),
            "sub": (pa - pb, _dict_add(a, _dict_neg(b))),
            "rsub": (pb - pa, _dict_add(b, _dict_neg(a))),
            "neg": (-pa, _dict_neg(a)),
            "mul": (pa * pb, _dict_mul(a, b)),
            "rmul": (pb * pa, _dict_mul(a, b)),
            "scale": (pa.scale(value), _dict_scale(a, as_gaussian(value))),
            "shift": (pa.shift(k), {e + k: c for e, c in a.items()}),
            "stretch": (pa.stretch(stretch), _dict_stretch(a, stretch)),
            "invert_s": (pa.invert_s(), _dict_stretch(a, -1)),
            "conjugate_i": (pa.conjugate_i(), {e: c.conjugate() for e, c in a.items()}),
        }
        if b:
            for name, dividend in (("divexact", pa * pb), ("divexact-free", pa)):
                want = _dict_divexact(dividend.coeffs, b)
                quotient = dividend.divexact(pb)
                assert (quotient is None) == (want is None), name
                if want is not None:
                    results[name] = (quotient, _dict_clean(want))
        for name, (got, want) in results.items():
            _assert_canonical(got)
            assert got.coeffs == want, name
            rebuilt = LaurentPoly(want)
            assert got == rebuilt and got.key() == rebuilt.key(), name
            assert got.span() == (max(want) - min(want) if want else 0), name
        assert (pa == pb) == (a == b) == (pa.key() == pb.key())
        assert (pa + pb) - pb == pa and ((pa + pb) - pb).key() == pa.key()


def _fraction_power(xr: Fraction, xi: Fraction, e: int) -> tuple[Fraction, Fraction]:
    """(xr + xi*i)**e as two Fractions, by repeated products; e < 0 inverts."""
    if e < 0:
        n = xr * xr + xi * xi
        xr, xi, e = xr / n, -xi / n, -e
    pr, pi = Fraction(1), Fraction(0)
    for _ in range(e):
        pr, pi = pr * xr - pi * xi, pr * xi + pi * xr
    return pr, pi


def _fraction_sum(terms: dict, x: GaussianRational, halve: bool = False) -> GaussianRational:
    """sum of c * x**e (x**(e/2) when halve) over terms, in Fractions alone."""
    total_r = total_i = Fraction(0)
    for e, c in terms.items():
        pr, pi = _fraction_power(x.re, x.im, e // 2 if halve else e)
        total_r += c.re * pr - c.im * pi
        total_i += c.re * pi + c.im * pr
    return GaussianRational(total_r, total_i)


_point = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=7).filter(bool),
    st.builds(GaussianRational, st.fractions(min_value=-2, max_value=2, max_denominator=5),
              st.fractions(min_value=-2, max_value=2, max_denominator=5)).filter(bool),
)


class TestExactEvaluation:
    """eval_s, eval_q and CoefExpr.eval_q against a Fraction sum over the
    coefficients, for step-1, step-2 and one-slot values at real and
    Gaussian-rational points."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_stepped_dict(), _point)
    def test_matches_the_fraction_sum(self, a, x):
        p, x = LaurentPoly(a), as_gaussian(x)
        at_s = _fraction_sum(a, x)
        assert p.eval_s(x) == at_s and CoefExpr(p).eval_q(x * x, s_value=x) == at_s
        if any(e % 2 for e in a):  # and only then, a square root of q is needed
            with pytest.raises(NeedsSquareRootError):
                p.eval_q(x)
            with pytest.raises(NeedsSquareRootError):
                CoefExpr(p).eval_q(x)
        else:
            at_q = _fraction_sum(a, x, halve=True)
            assert p.eval_q(x) == at_q and CoefExpr(p).eval_q(x) == at_q

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_stepped_dict(), _point)
    def test_pole_at_a_root_of_the_denominator(self, a, x):
        p, x = LaurentPoly(a), as_gaussian(x)
        s_den = LaurentPoly({0: -x, 1: 1})  # s - x
        q_den = LaurentPoly({0: -x * x, 2: 1})  # q - x**2
        with pytest.raises(PoleError):
            CoefExpr(p, s_den).eval_q(x * x, s_value=x)
        with pytest.raises(PoleError):
            CoefExpr(p, q_den).eval_q(x * x, s_value=x)
        if not any(e % 2 for e in a):
            with pytest.raises(PoleError):
                CoefExpr(p, q_den).eval_q(x * x)
        # away from both roots, the quotient of the two sums
        away = next(y for y in (x + 1, x + 2, x + 3) if y and y * y != x * x)
        want = _fraction_sum(a, away) / (away * away - x * x)
        assert CoefExpr(p, q_den).eval_q(away * away, s_value=away) == want


@st.composite
def _one_slot_pair(draw):
    """Two one-term coefficient dicts, at one exponent or at two, real or
    complex over unequal denominators.  The second may be minus the first
    (a sum that cancels), its conjugate (a product whose imaginary part
    cancels) or the first with its real part negated (a sum left purely
    imaginary); products of free draws often share a factor the gcd cuts."""
    part = st.fractions(min_value=-6, max_value=6, max_denominator=12)
    re, im = part, draw(st.sampled_from((st.just(0), part)))
    coef = st.builds(GaussianRational, re, im).filter(bool)
    ea = draw(st.integers(-3, 3))
    eb = draw(st.sampled_from((ea, draw(st.integers(-3, 3)))))
    ca = draw(coef)
    cb = draw(st.sampled_from((draw(coef), -ca, ca.conjugate(),
                               GaussianRational(-ca.re, ca.im + 1))).filter(bool))
    return {ea: ca}, {eb: cb}


class TestOneSlotKernel:
    """Products and sums of one-slot operands take the direct formula; the
    dict kernel is their oracle, and every result is in canonical form."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_one_slot_pair())
    def test_matches_dict_kernel(self, pair):
        a, b = pair
        pa, pb = LaurentPoly(a), LaurentPoly(b)
        assert len(pa.re) == 1 == len(pb.re)
        results = {
            "mul": (pa * pb, _dict_mul(a, b)),
            "rmul": (pb * pa, _dict_mul(a, b)),
            "add": (pa + pb, _dict_add(a, b)),
            "radd": (pb + pa, _dict_add(a, b)),
            "sub": (pa - pb, _dict_add(a, _dict_neg(b))),
            "cancel": (pa - pa, {}),
        }
        for name, (got, want) in results.items():
            _assert_canonical(got)
            assert got.coeffs == want, name
            assert got == LaurentPoly(want), name

    def test_cut_and_cancel_examples(self):
        half, third = lp({2: Fraction(1, 2)}), lp({2: Fraction(1, 3)})
        assert (half + half, half + third) == (lp({2: 1}), lp({2: Fraction(5, 6)}))
        assert lp({1: Fraction(2, 3)}) * lp({-1: Fraction(3, 4)}) == lp({0: Fraction(1, 2)})
        z = lp({0: GaussianRational(1, 1)})
        assert z * z.conjugate_i() == lp({0: 2}) and (z * z.conjugate_i()).im is None
        assert z + lp({0: GaussianRational(-1, 1)}) == lp({0: GaussianRational(0, 2)})
        assert z + (-z) is coeffs.LP_ZERO


class TestCoefExprOverOne:
    """CoefExpr products and sums whose denominators are both LP_ONE, or one
    shared denominator, against the general construction: cross-multiplication
    through __init__."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(_one_slot_pair(), _kernel_pair()))
    def test_matches_general_construction(self, pair):
        a, b = map(_dict_clean, pair)
        x, y = CoefExpr(LaurentPoly(a)), CoefExpr(LaurentPoly(b))
        product, total = x * y, x + y
        general_product = CoefExpr(x.num * y.num, x.den * y.den)
        general_total = CoefExpr(x.num * y.den + y.num * x.den, x.den * y.den)
        for got, general, want in ((product, general_product, _dict_mul(a, b)),
                                   (total, general_total, _dict_add(a, b))):
            assert got.den is LP_ONE and general.den is LP_ONE
            assert got.num == general.num and got == general
            assert got.num.coeffs == want
            _assert_canonical(got.num)
        if a and b:  # a sum that cancels is CE_ZERO itself
            assert (total is CE_ZERO) == (not _dict_add(a, b))
            assert x + (-x) is CE_ZERO and x - x is CE_ZERO
        assert x * CE_ONE is x and CE_ONE * x is x

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(_one_slot_pair(), _kernel_pair()),
           st.sampled_from([q_int(2), q_int(3), lp({0: 2, 1: GaussianRational(0, 1)}),
                            lp({-2: 1, 4: Fraction(-1, 3)})]))
    def test_one_shared_denominator(self, pair, den):
        a, b = map(_dict_clean, pair)
        # the second denominator is an equal value, not the same object
        x, y = CoefExpr(LaurentPoly(a), den), CoefExpr(LaurentPoly(b), copy.copy(den))
        product, total = x * y, x + y
        assert product == CoefExpr(x.num * y.num, x.den * y.den)
        assert total == CoefExpr(x.num * y.den + y.num * x.den, x.den * y.den)
        if a and b:
            assert product.num == x.num * y.num and product.den == den * den
            if _dict_add(a, b):
                assert total.num == x.num + y.num and total.den is den
            else:
                assert total is CE_ZERO
            assert x + (-x) is CE_ZERO and x - x is CE_ZERO
        assert x * CE_ONE is x and CE_ONE * x is x


class TestInternedOne:
    """Every route that lands on the value 1 returns the one object LP_ONE,
    and a product or a scale by a side that is the one hands back the other
    operand itself."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_stepped_dict(), st.builds(GaussianRational, _small_part, _small_part).filter(bool),
           st.integers(-7, 7))
    def test_routes_to_one(self, d, c, k):
        p, inv = LaurentPoly(d), c.inverse()
        mono = LaurentPoly.term(k, c)
        cr, ci, cd = coeffs._ints(inv)
        wire = {"num": [{"s": 0, "re": f"{cd}/{cd}"}], "den": [{"s": 0, "re": "1"}]}
        routes = {
            "const": LaurentPoly.const(c * inv),
            "term": LaurentPoly.term(0, Fraction(5, 5)),
            "dict": LaurentPoly({0: 1}),
            "dict-of-c": LaurentPoly({0: c * inv, 2 * k + 1: 0}),
            "wire": coef_from_json(wire).num,
            "sum-to-one": (p + 1) - p,
            "cancel-to-one": (p + LP_ONE) + (-p),
            "divexact": p.divexact(p),
            "times-reciprocal": mono._times(cr, ci, cd, -k),
            "product": mono * LaurentPoly.term(-k, inv),
            "shift": LaurentPoly.term(k).shift(-k),
            "neg": -LaurentPoly.const(-1),
            "stretch": LP_ONE.stretch(-3),
            "monomial-fraction": CoefExpr(mono, mono).num,
            "q_int": q_int(1),
            "q_factorial": coeffs.q_factorial(abs(k) % 2),
            "factorial_ratio": coeffs.factorial_ratio(k + 7, k + 7),
            "gauss_binomial": coeffs.gauss_binomial(k + 7, 0),
        }
        for name, got in routes.items():
            assert got is LP_ONE, name
        assert LP_ONE * p is p and p * LP_ONE is p
        x = CoefExpr(p, q_int(3))
        for other in (x, CoefExpr(p)):
            assert CE_ONE * other is other and other * CE_ONE is other
            assert other * CoefExpr(LaurentPoly.const(c * inv)) is other
        poly = MPoly(("x", "y"), {(1, 0): x, (0, 2): CoefExpr(p)})
        assert poly.scale(1) == poly and poly.scale(CE_ONE) is poly
        assert poly.scale(CoefExpr(q_int(2), q_int(2))) == poly

    def test_copies_rebuild_the_constants(self):
        # a copy goes through the constructor, not through a blank instance
        # from __new__, which is the shared LP_ZERO
        for p in (LP_ONE, coeffs.LP_ZERO, LP_S, lp({1: 2, 3: Fraction(5, 7)}), lp({0: 1, 1: 1})):
            for again in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
                assert again == p and again.step == p.step
        assert copy.copy(LP_ONE) is LP_ONE and pickle.loads(pickle.dumps(LP_ONE)) is LP_ONE
        assert coeffs.LP_ZERO.re == [] and coeffs.LP_ZERO.is_zero()


def test_kernel_operations_build_no_rationals(monkeypatch):
    """Add, sub, neg, mul (Kronecker and one-term), scale and shift work on the
    integer vectors alone: no Fraction or GaussianRational is constructed."""
    a = lp({-2: GaussianRational(Fraction(1, 3), 2), 0: Fraction(-5, 7), 3: 4})
    b = lp({0: Fraction(2, 9), 2: GaussianRational(0, Fraction(1, 5)), 4: 1})
    mono = lp({3: GaussianRational(Fraction(-2, 3), 1)})
    mono2 = lp({3: Fraction(3, 4)})
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
    results += [mono * mono2, mono + mono2]
    monkeypatch.undo()
    assert built == []
    assert results[3] == _schoolbook_mul(a, b) and results[5] == _schoolbook_mul(a, mono)
    assert results[-2:] == [_schoolbook_mul(mono, mono2), lp(_dict_add(mono.coeffs, mono2.coeffs))]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LaurentPoly.term(1).stretch(0), ValueError, "stretch factor must be nonzero"),
        (lambda: LaurentPoly({0: 1, 2: 1}) ** -1, ZeroDenominatorError,
         "negative power of a non-monomial Laurent polynomial"),
        (lambda: CoefExpr(1), TypeError,
         "CoefExpr needs LaurentPoly numerator and denominator"),
        (lambda: LaurentPoly({1.5: 1}), TypeError,
         "'float' object cannot be interpreted as an integer"),
    ],
    ids=["stretch-by-zero", "negative-power-of-a-sum", "coefexpr-of-an-int",
         "float-exponent"],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
