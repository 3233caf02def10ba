"""Exact coefficient arithmetic for the q-calculus engine.

Three layers, all immutable and exact (no floating point ever enters a value):

* ``GaussianRational`` -- complex numbers a + b*i with arbitrary-precision
  rational parts.  Hosts the imaginary unit and every plain numeric factor.
* ``LaurentPoly`` -- Laurent polynomials in a single formal variable s over
  the Gaussian rationals.  The deformation parameter is q = s**2, so square
  roots of q and half-integer powers q**(k/2) are ordinary monomials in s,
  and the substitution s -> 1/s realises q -> 1/q exactly.
* ``CoefExpr`` -- the fraction field num/den of Laurent polynomials.
  Equality is decided by cross-multiplication; no canonical form and no
  polynomial GCD is required (or used).  A denominator that is a single monomial
  is folded into the numerator on construction, so most values in practice
  are plain Laurent polynomials with den == 1.

LaurentPoly is stored as integers: a lowest exponent lo, one content
denominator den and integer vectors re (and im, None when every coefficient
is real), coefficient k being (re[k] + im[k]*i) / den.  The form is
canonical (den > 0 shares no factor with the entries, both ends nonzero), so
zero tests, equality and denominator sharing compare ints and lists.  Add,
negate, scale, shift and stretch are list operations on ints.  Products are
formed by Kronecker substitution: each vector is packed into one int at
s = 2**width, one big-int product is taken (up to four when both operands are
complex), and the coefficients are read back as balanced width-bit digits;
when every exponent of both operands has one parity, only every other slot
is packed.  A one-term operand is a shift plus an integer scale instead.
Exact division is schoolbook over the integers.  GaussianRational values
appear only at the edges: the dict constructor, const and term, the coeffs
view, as_monomial and exact evaluation.

The q-combinatorics live here too, below the tower they are built from:
q-integers, q-factorials, their ratios and Gaussian binomial coefficients
are LaurentPoly values (exponents even), each table one public function
under functools.lru_cache, the package's one cache idiom.  factorial_ratio
is one running product and caches only the entry asked for.  Gaussian
binomials fill their band bottom-up by the q-Pascal rule, from shifts and
additions alone, so they are independent of the q-factorials and of exact
division; both serve elsewhere as exact common-denominator multipliers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from operator import add, sub

__all__ = [
    "QCalcError",
    "ZeroDenominatorError",
    "PoleError",
    "NeedsSquareRootError",
    "UnsupportedOrderError",
    "GaussianRational",
    "LaurentPoly",
    "CoefExpr",
    "as_gaussian",
    "GR_ZERO",
    "GR_ONE",
    "GR_I",
    "LP_ZERO",
    "LP_ONE",
    "LP_S",
    "LP_Q",
    "CE_ZERO",
    "CE_ONE",
    "CE_I",
    "CE_Q",
    "q_int",
    "q_int_reciprocal",
    "q_factorial",
    "factorial_ratio",
    "gauss_binomial",
    "power",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


class QCalcError(Exception):
    """Base class for errors raised by the engine."""


class ZeroDenominatorError(QCalcError, ZeroDivisionError):
    """Inversion of zero, or construction of a fraction with zero denominator."""


class PoleError(QCalcError, ZeroDivisionError):
    """Evaluation at a point where the denominator vanishes."""


class NeedsSquareRootError(QCalcError, ValueError):
    """Evaluation with odd powers of s present but no square root of q supplied."""


class UnsupportedOrderError(QCalcError, ValueError):
    """Negative index where only nonnegative indices are defined."""


class GaussianRational:
    """a + b*i with exact Fraction components; supports field arithmetic."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def conjugate(self) -> GaussianRational:
        return _gr(self.re, -self.im)

    def inverse(self) -> GaussianRational:
        n = self.re * self.re + self.im * self.im
        if not n:
            raise ZeroDenominatorError("inverse of zero")
        return _gr(self.re / n, -self.im / n)

    def __add__(self, other):
        other = as_gaussian(other)
        return _gr(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_gaussian(other)
        return _gr(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return as_gaussian(other) - self

    def __neg__(self):
        return _gr(-self.re, -self.im)

    def __mul__(self, other):
        other = as_gaussian(other)
        return _gr(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * as_gaussian(other).inverse()

    def __rtruediv__(self, other):
        return as_gaussian(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** -n
        return power(self, n, GR_ONE)

    def __eq__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            other = as_gaussian(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"


def _gr(re: Fraction, im: Fraction) -> GaussianRational:
    out = GaussianRational.__new__(GaussianRational)
    out.re = re
    out.im = im
    return out


def as_gaussian(x) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational to GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return _gr(Fraction(x), _F0)
    raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")


GR_ZERO = _gr(_F0, _F0)
GR_ONE = _gr(_F1, _F0)
GR_I = _gr(_F0, _F1)


class LaurentPoly:
    """Laurent polynomial in s: coefficient k is (re[k] + im[k]*i) / den at
    exponent lo + k.

    Canonical, so equality is a comparison of the four slots: den > 0, the gcd
    of den and every entry is 1, the entries at both ends are nonzero, im is
    None when every coefficient is real, and zero is (0, 1, [], None).  The
    lists are never mutated once stored; results may share them.
    """

    __slots__ = ("lo", "den", "re", "im")

    def __init__(self, coeffs=None):
        terms = {}
        for e, c in (coeffs or {}).items():
            cr, ci, cd = _ints(c)
            if cr or ci:
                terms[int(e)] = cr, ci, cd
        p = _from_int_terms(terms)
        self.lo, self.den, self.re, self.im = p.lo, p.den, p.re, p.im

    @classmethod
    def const(cls, value) -> LaurentPoly:
        return cls.term(0, value)

    @classmethod
    def term(cls, exponent: int, value=1) -> LaurentPoly:
        cr, ci, cd = _ints(value)
        if not (cr or ci):
            return LP_ZERO
        return _canonical(exponent, cd, [cr], [ci])

    @property
    def coeffs(self) -> dict[int, GaussianRational]:
        """{exponent: nonzero GaussianRational}, lowest exponent first; built
        on each read, for callers outside the integer kernel."""
        den = self.den
        return {e: _gr(Fraction(v, den), Fraction(w, den) if w else _F0)
                for e, v, w in self.int_terms()}

    def int_terms(self):
        """(exponent, re, im) of every nonzero coefficient (re + im*i) / den,
        lowest exponent first, with integer re and im."""
        im = self.im or repeat(0)
        return [(self.lo + k, v, w) for k, (v, w) in enumerate(zip(self.re, im)) if v or w]

    def is_zero(self) -> bool:
        return not self.re

    def as_monomial(self):
        """Return (exponent, coefficient) if this is a single term, else None."""
        if len(self.re) == 1:
            ((e, c),) = self.coeffs.items()
            return e, c
        return None

    def min_exp(self) -> int:
        if not self.re:
            raise ValueError("the zero polynomial has no exponents")
        return self.lo

    def max_exp(self) -> int:
        return self.min_exp() + len(self.re) - 1

    def span(self) -> int:
        """Degree span max_exp - min_exp (0 for the zero polynomial)."""
        return max(len(self.re) - 1, 0)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        if not self.re:
            return other
        if not other.re:
            return self
        return _combine(self, other, add)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        if not other.re:
            return self
        if not self.re:
            return -other
        return _combine(self, other, sub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        im = self.im
        return _new(self.lo, self.den, [-v for v in self.re], im and [-v for v in im])

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        a, b = self, other
        if not a.re or not b.re:
            return LP_ZERO
        if len(a.re) == 1 or len(b.re) == 1:
            mono, rest = (a, b) if len(a.re) == 1 else (b, a)
            ci = mono.im[0] if mono.im else 0
            return rest._times(mono.re[0], ci, mono.den).shift(mono.lo)
        # Kronecker substitution: each integer vector is packed into one int
        # at s = 2**width, multiplied once and read back slot by slot.  When
        # both operands use one exponent parity, only every other slot is
        # packed and the product is spread back out.
        ar, ai, br, bi = a.re, a.im, b.re, b.im
        stride = 1
        if not any(ar[1::2]) and not any(br[1::2]) and not (ai and any(ai[1::2])) \
                and not (bi and any(bi[1::2])):
            stride = 2
            ar, br = ar[::2], br[::2]
            ai, bi = ai and ai[::2], bi and bi[::2]
        bound = min(len(ar), len(br)) * _top(ar, ai) * _top(br, bi)  # largest |slot|
        if ai and bi:
            bound *= 2  # re_a*re_b - im_a*im_b adds two such sums
        width = bound.bit_length() + 1  # one sign bit for balanced digits
        n = len(ar) + len(br) - 1
        ra, rb = _pack(ar, width), _pack(br, width)
        ia = _pack(ai, width) if ai else 0
        ib = _pack(bi, width) if bi else 0
        packed_im = ia * rb + ra * ib
        re = _unpack(ra * rb - ia * ib, n, width)
        im = _unpack(packed_im, n, width) if packed_im else None
        if stride == 2:
            re = _spread(re)
            im = im and _spread(im)
        return _canonical(a.lo + b.lo, a.den * b.den, re, im)

    __rmul__ = __mul__

    def scale(self, value) -> LaurentPoly:
        cr, ci, cd = _ints(value)
        if not (cr or ci) or not self.re:
            return LP_ZERO
        return self._times(cr, ci, cd)

    def _times(self, cr: int, ci: int, cd: int) -> LaurentPoly:
        """self * (cr + ci*i) / cd for integers, (cr, ci) != (0, 0), cd != 0."""
        if cd < 0:
            cr, ci, cd = -cr, -ci, -cd
        if not ci and cr == cd:
            return self
        re, im = self.re, self.im
        if ci or cr != 1:
            re, im = _times_ints(re, im, cr, ci)
        return _canonical(self.lo, self.den * cd, re, im)

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by s**k (add k to every exponent)."""
        if k == 0 or not self.re:
            return self
        return _new(self.lo + k, self.den, self.re, self.im)

    def __pow__(self, n: int):
        if n < 0:
            mono = self.as_monomial()
            if mono is None:
                raise ZeroDenominatorError(
                    "negative power of a non-monomial Laurent polynomial"
                )
            e, c = mono
            return LaurentPoly.term(e * n, c**n)
        return power(self, n, LP_ONE)

    def stretch(self, k: int) -> LaurentPoly:
        """Substitute s -> s**k (k nonzero); k = -1 is the involution q -> 1/q."""
        if k == 0:
            raise ValueError("stretch factor must be nonzero")
        if k == 1 or not self.re:
            return self
        lo, re, im = self.lo, self.re, self.im
        if k < 0:
            lo, re, im, k = -(lo + len(re) - 1), re[::-1], im and im[::-1], -k
        if k > 1:
            lo, re, im = lo * k, _spread(re, k), im and _spread(im, k)
        return _new(lo, self.den, re, im)

    def invert_s(self) -> LaurentPoly:
        return self.stretch(-1)

    def eval_s(self, s_value) -> GaussianRational:
        """Exact evaluation at a nonzero rational (or Gaussian rational) s."""
        s = as_gaussian(s_value)
        if not s:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at s = 0")
        return _horner(self.lo, self.den, self.re, self.im, s)

    def eval_q(self, q_value) -> GaussianRational:
        """Exact evaluation with q = s**2 given; requires even exponents only."""
        q = as_gaussian(q_value)
        lo, re, im = self.lo, self.re, self.im
        odd = 1 - (lo & 1)  # the first slot at an odd exponent
        if any(re[odd::2]) or (im and any(im[odd::2])):
            raise NeedsSquareRootError("odd power of s present; supply a square root of q")
        even = lo & 1
        return _horner((lo + even) // 2, self.den, re[even::2], im and im[even::2], q)

    def at_one(self) -> GaussianRational:
        """The q -> 1 limit: substitute s = 1 (sum of all coefficients)."""
        return _gr(Fraction(sum(self.re), self.den), Fraction(sum(self.im or ()), self.den))

    def divexact(self, other: LaurentPoly):
        """Exact quotient self / other, or None when the division leaves a remainder."""
        if other.is_zero():
            raise ZeroDenominatorError("division by the zero polynomial")
        if not self.re:
            return LP_ZERO
        na, nb = len(self.re), len(other.re)
        if na < nb:
            return None
        rr, ri = list(self.re), list(self.im or [0] * na)
        br, bi = other.re, other.im or [0] * nb
        lead, li = br[-1], bi[-1]
        if li:  # times the conjugate of the divisor's lead, which turns real
            rr, ri = _times_ints(rr, ri, lead, -li)
            br, bi = _times_ints(br, bi, lead, -li)
            lead = lead * lead + li * li
        quo_r, quo_i = [0] * (na - nb + 1), [0] * (na - nb + 1)
        lift = 1  # the quotient is (quo_r + quo_i*i) / lift
        for k in range(na - nb, -1, -1):
            top = k + nb
            tr, ti = rr[top - 1], ri[top - 1]
            if not (tr or ti):
                continue
            f = abs(lead) // gcd(lead, tr, ti)
            if f != 1:  # rescale so that lead divides the top slot
                lift, tr, ti = lift * f, tr * f, ti * f
                rr, ri, quo_r, quo_i = ([v * f for v in u] for u in (rr, ri, quo_r, quo_i))
            qr = quo_r[k] = tr // lead
            qi = quo_i[k] = ti // lead
            rr[k:top] = [v - qr * u + qi * w for v, u, w in zip(rr[k:top], br, bi)]
            ri[k:top] = [v - qr * w - qi * u for v, u, w in zip(ri[k:top], br, bi)]
        if any(rr[: nb - 1]) or any(ri[: nb - 1]):
            return None
        quotient = _canonical(self.lo - other.lo, self.den * lift, quo_r, quo_i)
        return quotient._times(other.den, 0, 1)

    def conjugate_i(self) -> LaurentPoly:
        """Conjugate every coefficient (i -> -i); the identity on real values."""
        if self.im is None:
            return self
        return _new(self.lo, self.den, self.re, [-v for v in self.im])

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return (self.lo == other.lo and self.den == other.den
                    and self.re == other.re and self.im == other.im)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == LaurentPoly.const(other)
        return NotImplemented

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"

    def __str__(self):
        if not self.re:
            return "0"
        parts = []
        for e, c in self.coeffs.items():
            if e == 0:
                parts.append(f"({c})")
            elif e == 1:
                parts.append(f"({c})*s")
            else:
                parts.append(f"({c})*s^{e}")
        return " + ".join(parts)


def _new(lo: int, den: int, re: list[int], im: list[int] | None) -> LaurentPoly:
    out = LaurentPoly.__new__(LaurentPoly)
    out.lo, out.den, out.re, out.im = lo, den, re, im
    return out


def _canonical(lo: int, den: int, re: list[int], im: list[int] | None) -> LaurentPoly:
    """LaurentPoly of (re + im*i) / den at exponents lo.., den > 0, brought to
    canonical form: an all-zero im dropped, zero ends trimmed, content cut."""
    if im is not None and not any(im):
        im = None
    if not (re[0] or im and im[0]) or not (re[-1] or im and im[-1]):
        live = re if im is None else [v or w for v, w in zip(re, im)]
        i, j = 0, len(live)
        while i < j and not live[i]:
            i += 1
        if i == j:
            return LP_ZERO
        while not live[j - 1]:
            j -= 1
        lo, re, im = lo + i, re[i:j], im and im[i:j]
    if den != 1:
        g = gcd(den, *re, *(im or ()))
        if g != 1:
            den //= g
            re = [v // g for v in re]
            im = im and [v // g for v in im]
    return _new(lo, den, re, im)


def _from_int_terms(terms: dict[int, tuple[int, int, int]]) -> LaurentPoly:
    """LaurentPoly of {exponent: (re, im, den)}, each coefficient (re + im*i) / den
    with den > 0: one lcm of the denominators, then one slot per exponent."""
    if not terms:
        return LP_ZERO
    lo = min(terms)
    den = lcm(*{cd for _, _, cd in terms.values()})
    re = [0] * (max(terms) - lo + 1)
    im = list(re)
    for e, (cr, ci, cd) in terms.items():
        f = den // cd
        re[e - lo], im[e - lo] = cr * f, ci * f
    return _canonical(lo, den, re, im)


def _horner(lo: int, den: int, re: list[int], im: list[int] | None, x) -> GaussianRational:
    """sum of (re[k] + im[k]*i) / den * x**(lo + k) over k, exactly, for a
    GaussianRational x: Horner's rule over Gaussian integers on the
    numerator of x, with the powers of its denominator carried alongside."""
    if not re:
        return GR_ZERO
    xr, xi, xd = _ints(x)
    accr = acci = 0
    scale = 1  # xd**j at the j-th slot from the top
    for v, w in zip(reversed(re), reversed(im) if im else repeat(0)):
        accr, acci = accr * xr - acci * xi + v * scale, accr * xi + acci * xr + w * scale
        scale *= xd
    scale = scale // xd * den
    return _gr(Fraction(accr, scale), Fraction(acci, scale)) * x**lo


def _combine(a: LaurentPoly, b: LaurentPoly, op) -> LaurentPoly:
    """a op b for op add or sub, both operands nonzero: align the vectors on
    one denominator and one exponent range, then one map per part."""
    ar, ai, br, bi = a.re, a.im, b.re, b.im
    den = a.den
    if b.den != den:
        den = lcm(den, b.den)
        fa, fb = den // a.den, den // b.den
        if fa != 1:
            ar, ai = _times_ints(ar, ai, fa, 0)
        if fb != 1:
            br, bi = _times_ints(br, bi, fb, 0)
    lo = min(a.lo, b.lo)
    size = max(a.lo + len(ar), b.lo + len(br)) - lo
    pa, pb = a.lo - lo, b.lo - lo
    re = list(map(op, _pad(ar, pa, size), _pad(br, pb, size)))
    im = None
    if ai or bi:
        im = list(map(op, _pad(ai or [0] * len(ar), pa, size), _pad(bi or [0] * len(br), pb, size)))
    return _canonical(lo, den, re, im)


def _pad(vec: list[int], before: int, size: int) -> list[int]:
    after = size - before - len(vec)
    if before or after:
        return [0] * before + vec + [0] * after
    return vec


def _spread(vec: list[int], k: int = 2) -> list[int]:
    """vec with k - 1 zeros between neighbouring entries."""
    out = [0] * ((len(vec) - 1) * k + 1)
    out[::k] = vec
    return out


def _times_ints(re: list[int], im: list[int] | None, cr: int, ci: int):
    """(re + im*i) * (cr + ci*i) entrywise, as (re, im) lists; im may be None."""
    if not ci:
        return [v * cr for v in re], im and [v * cr for v in im]
    if im is None:
        return [v * cr for v in re], [v * ci for v in re]
    return ([v * cr - w * ci for v, w in zip(re, im)],
            [v * ci + w * cr for v, w in zip(re, im)])


def _ints(value) -> tuple[int, int, int]:
    """(re, im, den) integers with value == (re + im*i) / den and den > 0."""
    if isinstance(value, int):
        return int(value), 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    c = as_gaussian(value)  # refuses any other type
    a, b = c.re, c.im
    if not b:
        return a.numerator, 0, a.denominator
    den = lcm(a.denominator, b.denominator)
    return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den


def _top(re: list[int], im: list[int] | None) -> int:
    """The largest absolute entry of re and im."""
    top = max(max(re), -min(re))
    if im:
        top = max(top, max(im), -min(im))
    return top


def _pack(vec: list[int], width: int) -> int:
    """sum(v * 2**(width*k)) by Horner; signed entries need no special case."""
    acc = 0
    for v in reversed(vec):
        acc = (acc << width) + v
    return acc


def _unpack(x: int, n: int, width: int) -> list[int]:
    """The n balanced width-bit digits of x, lowest first: the inverse of
    _pack when every digit lies in [-2**(width-1), 2**(width-1)).  Low bits
    at or above half their range stand for a negative digit, which borrows
    from the rest, so 1 is carried back into it."""
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


def power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply, starting from one; the one
    loop behind every ring type's __pow__."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


LP_ZERO = _new(0, 1, [], None)
LP_ONE = _new(0, 1, [1], None)
LP_S = _new(1, 1, [1], None)
LP_Q = _new(2, 1, [1], None)


class CoefExpr:
    """Fraction num/den of Laurent polynomials in s; equality by cross-multiplication.

    Monomial denominators are folded into the numerator on construction, and a
    zero numerator normalises the denominator to 1, so ``num.is_zero()`` is a
    reliable zero test.  Denominators are otherwise left unreduced.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = LP_ONE):
        if not isinstance(num, LaurentPoly) or not isinstance(den, LaurentPoly):
            raise TypeError("CoefExpr needs LaurentPoly numerator and denominator")
        if den is not LP_ONE:
            if den.is_zero():
                raise ZeroDenominatorError("zero denominator")
            if num.is_zero():
                den = LP_ONE
            elif len(den.re) == 1:
                # 1 / (s**lo * (r + i*j) / d) = s**-lo * d * (r - i*j) / (r*r + j*j)
                r, j, d = den.re[0], den.im[0] if den.im else 0, den.den
                if j:
                    num = num._times(d * r, -d * j, r * r + j * j)
                else:
                    num = num._times(d, 0, r)
                num = num.shift(-den.lo)
                den = LP_ONE
        self.num = num
        self.den = den

    @classmethod
    def of(cls, x) -> CoefExpr:
        """Coerce CoefExpr | LaurentPoly | GaussianRational | Fraction | int."""
        if isinstance(x, CoefExpr):
            return x
        if isinstance(x, LaurentPoly):
            return cls(x)
        return cls(LaurentPoly.const(x))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _same_den(self, other: CoefExpr) -> bool:
        return self.den is other.den or self.den == other.den

    def __add__(self, other):
        other = CoefExpr.of(other)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self._same_den(other):
            return CoefExpr(self.num + other.num, self.den)
        return CoefExpr(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-CoefExpr.of(other))

    def __rsub__(self, other):
        return CoefExpr.of(other) + (-self)

    def __neg__(self):
        return CoefExpr(-self.num, self.den)

    def __mul__(self, other):
        other = CoefExpr.of(other)
        if self.num.is_zero() or other.num.is_zero():
            return CE_ZERO
        if self.den is LP_ONE and other.den is LP_ONE:
            return CoefExpr(self.num * other.num)
        return CoefExpr(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> CoefExpr:
        if self.num.is_zero():
            raise ZeroDenominatorError("inverse of zero")
        return CoefExpr(self.den, self.num)

    def __truediv__(self, other):
        return self * CoefExpr.of(other).inverse()

    def __rtruediv__(self, other):
        return CoefExpr.of(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return power(self, n, CE_ONE)

    def __eq__(self, other):
        if isinstance(other, (CoefExpr, LaurentPoly, GaussianRational, int, Fraction)):
            other = CoefExpr.of(other)
            if self._same_den(other):
                return self.num == other.num
            if self.num.is_zero():
                return other.num.is_zero()
            return self.num * other.den == other.num * self.den
        return NotImplemented

    def substitute_inverse_q(self) -> CoefExpr:
        """Apply s -> 1/s to numerator and denominator (realises q -> 1/q)."""
        return CoefExpr(self.num.invert_s(), self.den.invert_s())

    def stretch(self, k: int) -> CoefExpr:
        return CoefExpr(self.num.stretch(k), self.den.stretch(k))

    def conjugate_i(self) -> CoefExpr:
        return CoefExpr(self.num.conjugate_i(), self.den.conjugate_i())

    def is_real(self) -> bool:
        """True when the value is fixed by i -> -i (real coefficients up to
        the fraction-field equality)."""
        return self == self.conjugate_i()

    def lower(self) -> LaurentPoly:
        """Lossless lowering to a LaurentPoly; exact division must succeed."""
        if self.den is LP_ONE:
            return self.num
        q = self.num.divexact(self.den)
        if q is None:
            raise ValueError("denominator does not divide numerator exactly")
        return q

    def eval_q(self, q_value, s_value=None) -> GaussianRational:
        """Exact evaluation at rational q (and optional s with s**2 == q).

        Raises PoleError when the denominator vanishes at the point and
        NeedsSquareRootError when odd powers of s appear but no s is given.
        """
        if s_value is not None:
            s = as_gaussian(s_value)
            if s * s != as_gaussian(q_value):
                raise ValueError("s_value squared must equal q_value")
            n = self.num.eval_s(s)
            d = self.den.eval_s(s)
        else:
            n = self.num.eval_q(q_value)
            d = self.den.eval_q(q_value)
        if not d:
            raise PoleError(f"denominator vanishes at q = {q_value}")
        return n / d

    def at_one(self) -> GaussianRational:
        d = self.den.at_one()
        if not d:
            raise PoleError("denominator vanishes at q = 1")
        return self.num.at_one() / d

    def __repr__(self):
        if self.den is LP_ONE:
            return f"CoefExpr({self.num!s})"
        return f"CoefExpr(({self.num!s}) / ({self.den!s}))"


CE_ZERO = CoefExpr(LP_ZERO)
CE_ONE = CoefExpr(LP_ONE)
CE_I = CoefExpr(LaurentPoly.const(GR_I))
CE_Q = CoefExpr(LP_Q)


@lru_cache(maxsize=None)
def q_int(n: int) -> LaurentPoly:
    """The q-integer 1 + q + ... + q**(n-1); q_int(0) = 0, reduces to n at q = 1."""
    if n < 0:
        raise UnsupportedOrderError("q-integers are defined for n >= 0 only")
    return LaurentPoly({2 * j: 1 for j in range(n)})


@lru_cache(maxsize=None)
def q_int_reciprocal(n: int) -> LaurentPoly:
    """The q -> 1/q image of the q-integer, equal to q_int(n) / q**(n-1)."""
    return q_int(n).invert_s()


@lru_cache(maxsize=None)
def q_factorial(n: int) -> LaurentPoly:
    """Product of the q-integers 1..n; q_factorial(0) = 1."""
    if n < 0:
        raise UnsupportedOrderError("q-factorials are defined for n >= 0 only")
    if n == 0:
        return LP_ONE
    for m in range(1, n):  # fill the table below bottom-up: recursion stays shallow
        q_factorial(m)
    return q_factorial(n - 1) * q_int(n)


@lru_cache(maxsize=None)
def factorial_ratio(n: int, k: int) -> LaurentPoly:
    """The exact polynomial q_factorial(n) / q_factorial(k), built as one
    running product of the q-integers k+1 .. n (no division involved); only
    the requested entry is cached."""
    if not 0 <= k <= n:
        raise UnsupportedOrderError("factorial_ratio needs 0 <= k <= n")
    out = LP_ONE
    for j in range(k + 1, n + 1):
        out = out * q_int(j)
    return out


@lru_cache(maxsize=None)
def gauss_binomial(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial coefficient as an honest polynomial in q.

    Built by the q-Pascal rule [n, k] = [n-1, k-1] + q^k [n-1, k]; degree
    k(n-k) in q, symmetric under k <-> n-k, and equal to binomial(n, k) at q = 1.
    """
    if not 0 <= k <= n:
        raise UnsupportedOrderError("gauss_binomial needs 0 <= k <= n")
    if k == 0 or k == n:
        return LP_ONE
    for m in range(2, n):  # fill the band below bottom-up: recursion stays shallow
        for j in range(max(1, k - n + m), min(k, m - 1) + 1):
            gauss_binomial(m, j)
    return gauss_binomial(n - 1, k - 1) + gauss_binomial(n - 1, k).shift(2 * k)
