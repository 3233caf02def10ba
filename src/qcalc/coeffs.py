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

LaurentPoly is stored as integers: a lowest exponent lo, an exponent step
of 1 or 2, one content denominator den and integer vectors re (and im, None
when every coefficient is real), coefficient k being (re[k] + im[k]*i) / den
at exponent lo + step*k.  A value of two or more slots whose exponents all
share lo's parity -- every polynomial in q = s**2, so nearly every value the
engine builds -- is step 2 and stores only those slots; any other value is
step 1.  The form is canonical (den > 0 shares no factor with the entries,
both ends nonzero, the step as above), so zero tests, equality and
denominator sharing compare ints and lists.  Add, negate, scale, shift and
stretch are list operations on ints; two operands of one step and one parity
combine their stored vectors as they are, and a mixed operation spreads the
step-2 side out once.  Products are formed by Kronecker substitution: each
vector is packed into one int at s**step = 2**(8*size), one big-int product
is taken (up to four when both operands are complex), and the coefficients
are read back as balanced digits.  A slot is size whole bytes (1, 2, 4, 8,
or more when wider), so a vector goes to and from its int through bytes in
linear time: the slots hold two's-complement digits, and one sign bias B
(0x80 at the top byte of every slot, built once per shape) turns them into
the balanced sum, (y ^ B) - B, and back, (x + B) ^ B.  Each value keeps
its largest absolute entry (top), measured at its first wide product, for
the slot bound of the next; equality, keys, the coeffs view, copies and
pickles ignore it.  A one-term operand is a shift plus an integer scale
instead,
and two one-term operands take the direct formula: one Gaussian-integer
product over the product of the denominators, as do a sum or difference of
two one-term operands at one exponent over the common denominator; one gcd
then cuts the content, so results are canonical on every path.  The value
1 is always the one object LP_ONE, and a product with it returns the other
operand, so CoefExpr products and sums over the denominator 1 take only
the numerators' product or sum.
Exact division is schoolbook over the integers.  GaussianRational values
appear only at the edges: the dict constructor, const and term, the coeffs
view, as_monomial and exact evaluation.

The q-combinatorics live here too, below the tower they are built from:
q-integers, q-factorials, their ratios and Gaussian binomial coefficients
are step-2 LaurentPoly values (exponents even), each table one public function
under functools.lru_cache, the package's one cache idiom, caching only the
entries asked for.  Past q_int, each table is the last partial product of
one _q_products pass, factors (1 - q**a) / (1 - q**b) by two-term steps on
one int list in q, and a table row (q-binomial weights, a q-Hermite
polynomial) is read off the partials of one pass, so nothing recurses.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, index, sub
from struct import pack, unpack

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

    # An operand that is not an int, a Fraction or a GaussianRational gets
    # NotImplemented, so a LaurentPoly or CoefExpr operand takes its own
    # reflected method, as it does from the other side.
    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _gr(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _gr(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _gr(-self.re, -self.im)

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return _gr(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

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


def _operand(x) -> GaussianRational | None:
    """x as a GaussianRational for an int, Fraction or GaussianRational, else None."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return _gr(Fraction(x), _F0)
    return None


def as_gaussian(x) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational to GaussianRational."""
    out = _operand(x)
    if out is None:
        raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")
    return out


GR_ZERO = _gr(_F0, _F0)
GR_ONE = _gr(_F1, _F0)
GR_I = _gr(_F0, _F1)


class LaurentPoly:
    """Laurent polynomial in s: coefficient k is (re[k] + im[k]*i) / den at
    exponent lo + step*k.

    Canonical, so equality is a comparison of the five value slots (the
    sixth, top, is __mul__'s memo of the largest entry): den > 0, the
    gcd of den and every entry is 1, the entries at both ends are nonzero, im
    is None when every coefficient is real, step is 2 exactly when there are
    two or more slots and every exponent has lo's parity (the slots between
    them, all zero, are not stored), and zero is (0, 1, [], None) at step 1.
    The lists are never mutated once stored; results may share them.  The
    public view (coeffs, int_terms, span, min_exp, max_exp) is keyed by the
    exponent of s whatever the step.

    Products and sums take the operand shape's path: two one-slot operands
    are one Gaussian-integer product (or, at one exponent, one sum) cut by
    one gcd; a one-slot operand times a wider one is a shift and an integer
    scale; anything wider is a Kronecker product or a padded vector sum, on
    the stored vectors when both sides are step 2 (a one-slot side counts as
    step 2 in a sum at its parity).  Every path returns the canonical form,
    and every path to the value 1 (the constructors, const and term, a sum,
    a product, a shift, a quotient, the wire reader) returns the one object
    LP_ONE, so a product with a side that is LP_ONE returns the other side
    with no multiply.
    """

    __slots__ = ("lo", "den", "re", "im", "step", "top")

    def __new__(cls, coeffs=None):
        terms = {}
        for e, c in (coeffs or {}).items():
            cr, ci, cd = _ints(c)
            if cr or ci:
                terms[index(e)] = cr, ci, cd
        return _from_int_terms(terms)

    def __reduce__(self):
        # copy and pickle rebuild from the coefficients, so 0 and 1 come back
        # as LP_ZERO and LP_ONE; by default they would call __new__ with no
        # argument and overwrite the shared LP_ZERO it returns
        return LaurentPoly, (self.coeffs,)

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
        lo, step, im = self.lo, self.step, self.im or repeat(0)
        return [(lo + step * k, v, w) for k, (v, w) in enumerate(zip(self.re, im)) if v or w]

    def is_zero(self) -> bool:
        return not self.re

    def key(self) -> tuple:
        """A hashable key of the value, for per-pass memos: the five value slots,
        which identify it because the form is canonical."""
        return self.lo, self.den, self.step, tuple(self.re), self.im and tuple(self.im)

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
        return self.min_exp() + (len(self.re) - 1) * self.step

    def span(self) -> int:
        """Degree span max_exp - min_exp (0 for the zero polynomial)."""
        return max(len(self.re) - 1, 0) * self.step

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
        if len(self.re) == 1:
            return _mono(self.lo, self.den, -self.re[0], -im[0] if im else 0)
        return _new(self.lo, self.den, [-v for v in self.re], im and [-v for v in im], self.step)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        if self is LP_ONE:
            return other
        if other is LP_ONE:
            return self
        a, b = self, other
        ar, br = a.re, b.re
        if not ar or not br:
            return LP_ZERO
        na, nb = len(ar), len(br)
        if na == 1 == nb:
            # one Gaussian-integer product over a.den * b.den; it is nonzero
            xr, xi = ar[0], a.im[0] if a.im else 0
            yr, yi = br[0], b.im[0] if b.im else 0
            return _cut(a.lo + b.lo, a.den * b.den, xr * yr - xi * yi, xr * yi + xi * yr)
        if na == 1 or nb == 1:
            mono, rest = (a, b) if na == 1 else (b, a)
            ci = mono.im[0] if mono.im else 0
            return rest._times(mono.re[0], ci, mono.den, mono.lo)
        # Kronecker substitution: each stored vector is packed into one int
        # at s**step = 2**(8*size), multiplied once and read back slot by
        # slot.  A step-2 operand times a step-1 one is spread out first.
        ai, bi, step = a.im, b.im, a.step
        if step != b.step:
            if step == 2:
                ar, ai = _spread(ar), ai and _spread(ai)
            else:
                br, bi = _spread(br), bi and _spread(bi)
            step = 1
        ta, tb = a.top or _keep_top(a), b.top or _keep_top(b)
        bound = min(len(ar), len(br)) * ta * tb  # largest |slot|
        if ai and bi:
            bound *= 2  # re_a*re_b - im_a*im_b adds two such sums
        size = _slot_size(bound.bit_length() + 1)  # one sign bit for balanced digits
        n = len(ar) + len(br) - 1
        ra, rb = _pack(ar, size), _pack(br, size)
        ia = _pack(ai, size) if ai else 0
        ib = _pack(bi, size) if bi else 0
        packed_im = ia * rb + ra * ib
        re = _unpack(ra * rb - ia * ib, n, size)
        im = _unpack(packed_im, n, size) if packed_im else None
        return _canonical(a.lo + b.lo, a.den * b.den, re, im, step)

    __rmul__ = __mul__

    def scale(self, value) -> LaurentPoly:
        cr, ci, cd = _ints(value)
        if not (cr or ci) or not self.re:
            return LP_ZERO
        return self._times(cr, ci, cd)

    def _times(self, cr: int, ci: int, cd: int, k: int = 0) -> LaurentPoly:
        """self * (cr + ci*i) / cd * s**k for integers, (cr, ci) != (0, 0),
        cd != 0."""
        if cd < 0:
            cr, ci, cd = -cr, -ci, -cd
        if not ci and cr == cd:
            return self.shift(k)
        re, im = self.re, self.im
        if ci or cr != 1:
            re, im = _times_ints(re, im, cr, ci)
        return _canonical(self.lo + k, self.den * cd, re, im, self.step)

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by s**k (add k to every exponent)."""
        if k == 0 or not self.re:
            return self
        if len(self.re) == 1:
            return _mono(self.lo + k, self.den, self.re[0], self.im[0] if self.im else 0)
        return _new(self.lo + k, self.den, self.re, self.im, self.step)

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
        if k == 1 or not self.re or (len(self.re) == 1 and not self.lo):
            return self  # a constant is fixed
        lo, re, im, step = self.lo, self.re, self.im, self.step
        if k < 0:
            lo, re, im, k = -self.max_exp(), re[::-1], im and im[::-1], -k
        if k > 1 and len(re) > 1:
            # stored slots lie gap = step*k apart: step 2 when gap is even
            gap = step * k
            step = 2 - gap % 2
            re, im = _spread(re, gap // step), im and _spread(im, gap // step)
        return _new(lo * k, self.den, re, im, step)

    def invert_s(self) -> LaurentPoly:
        return self.stretch(-1)

    def eval_s(self, s_value) -> GaussianRational:
        """Exact evaluation at a nonzero rational (or Gaussian rational) s."""
        s = as_gaussian(s_value)
        if not s:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at s = 0")
        lo = self.lo
        if self.step == 1:
            return _horner(lo, self.den, self.re, self.im, s)
        # s**lo * sum c_k q**k at q = s**2, with s**lo = q**(lo // 2) * s**(lo % 2)
        value = _horner(lo >> 1, self.den, self.re, self.im, s * s)
        return value * s if lo & 1 else value

    def eval_q(self, q_value) -> GaussianRational:
        """Exact evaluation with q = s**2 given; requires even exponents only."""
        q = as_gaussian(q_value)
        # canonical: a step-1 value of two or more slots has an odd exponent
        if self.lo & 1 or (self.step == 1 and len(self.re) > 1):
            raise NeedsSquareRootError("odd power of s present; supply a square root of q")
        return _horner(self.lo >> 1, self.den, self.re, self.im, q)

    def at_one(self) -> GaussianRational:
        """The q -> 1 limit: substitute s = 1 (sum of all coefficients)."""
        return _gr(Fraction(sum(self.re), self.den), Fraction(sum(self.im or ()), self.den))

    def divexact(self, other: LaurentPoly):
        """Exact quotient self / other, or None when the division leaves a remainder."""
        if other.is_zero():
            raise ZeroDenominatorError("division by the zero polynomial")
        if not self.re:
            return LP_ZERO
        ar, ai, br, bi, step = _aligned(self, other)
        na, nb = len(ar), len(br)
        if na < nb:
            return None
        rr, ri = list(ar), list(ai or [0] * na)
        bi = bi or [0] * nb
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
        quotient = _canonical(self.lo - other.lo, self.den * lift, quo_r, quo_i, step)
        return quotient._times(other.den, 0, 1)

    def conjugate_i(self) -> LaurentPoly:
        """Conjugate every coefficient (i -> -i); the identity on real values."""
        if self.im is None:
            return self
        return _new(self.lo, self.den, self.re, [-v for v in self.im], self.step)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return (self.lo == other.lo and self.den == other.den and self.step == other.step
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


def _new(lo: int, den: int, re: list[int], im: list[int] | None, step: int = 1) -> LaurentPoly:
    out = object.__new__(LaurentPoly)
    out.lo, out.den, out.re, out.im, out.step, out.top = lo, den, re, im, step, None
    return out


def _canonical(lo: int, den: int, re: list[int], im: list[int] | None,
               step: int = 1) -> LaurentPoly:
    """LaurentPoly of (re + im*i) / den at exponents lo, lo + step, ..,
    den > 0, brought to canonical form: an all-zero im dropped, zero ends
    trimmed, a step-1 vector whose odd slots are all zero kept at step 2, a
    single slot made by _cut, content cut."""
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
        lo, re, im = lo + i * step, re[i:j], im and im[i:j]
    if len(re) == 1:
        return _cut(lo, den, re[0], im[0] if im else 0)
    if step == 1 and not any(re[1::2]) and not (im and any(im[1::2])):
        re, im, step = re[::2], im and im[::2], 2
    if den != 1:
        g = gcd(den, *re, *(im or ()))
        if g != 1:
            den //= g
            re = [v // g for v in re]
            im = im and [v // g for v in im]
    return _new(lo, den, re, im, step)


def _cut(lo: int, den: int, re: int, im: int) -> LaurentPoly:
    """The one-slot LaurentPoly (re + im*i) / den * s**lo, den > 0 and
    (re, im) != (0, 0), in canonical form: one gcd cuts the content."""
    g = gcd(den, re, im)
    if g != 1:
        den, re, im = den // g, re // g, im // g
    return _mono(lo, den, re, im)


def _mono(lo: int, den: int, re: int, im: int) -> LaurentPoly:
    """The one-slot LaurentPoly (re + im*i) / den * s**lo of a canonical
    den, re and im: LP_ONE when that is the value 1, so every route to 1
    returns the one object that products and scales skip by identity."""
    if re == den and not (lo or im):
        return LP_ONE
    return _new(lo, den, [re], [im] if im else None)


def _from_int_terms(terms: dict[int, tuple[int, int, int]]) -> LaurentPoly:
    """LaurentPoly of {exponent: (re, im, den)}, each coefficient (re + im*i) / den
    with den > 0: one lcm of the denominators, then one slot per exponent of
    lo's parity when all of them have it, else one per exponent."""
    if not terms:
        return LP_ZERO
    lo = min(terms)
    step = 1 if any((e - lo) & 1 for e in terms) else 2
    den = lcm(*{cd for _, _, cd in terms.values()})
    re = [0] * ((max(terms) - lo) // step + 1)
    im = list(re)
    for e, (cr, ci, cd) in terms.items():
        f = den // cd
        k = (e - lo) // step
        re[k], im[k] = cr * f, ci * f
    return _canonical(lo, den, re, im, step)


def _horner(lo: int, den: int, re: list[int], im: list[int] | None, x) -> GaussianRational:
    """sum of (re[k] + im[k]*i) / den * x**(lo + k) over k, exactly, for a
    GaussianRational x: Horner's rule over Gaussian integers on the
    numerator of x, with the powers of its denominator carried alongside.
    A real value at a real point is one Horner over the integers, its power
    x**lo folded into the one Fraction."""
    if not re:
        return GR_ZERO
    xr, xi, xd = _ints(x)
    if im is None and not xi:
        acc, scale = 0, 1
        for v in reversed(re):
            acc = acc * xr + v * scale
            scale *= xd
        scale = scale // xd * den
        if lo > 0:
            acc, scale = acc * xr**lo, scale * xd**lo
        elif lo < 0:
            if not xr:
                raise ZeroDenominatorError("inverse of zero")
            acc, scale = acc * xd**-lo, scale * xr**-lo
        return _gr(Fraction(acc, scale), _F0)
    accr = acci = 0
    scale = 1  # xd**j at the j-th slot from the top
    for v, w in zip(reversed(re), reversed(im) if im else repeat(0)):
        accr, acci = accr * xr - acci * xi + v * scale, accr * xi + acci * xr + w * scale
        scale *= xd
    scale = scale // xd * den
    return _gr(Fraction(accr, scale), Fraction(acci, scale)) * x**lo


def _aligned(a: LaurentPoly, b: LaurentPoly):
    """(ar, ai, br, bi, step): the vectors of a and b at one step.  Step 2,
    the stored vectors as they are, when each operand is step 2 or one slot
    and their exponents share one parity; else step 1, a step-2 side spread."""
    ar, ai, br, bi = a.re, a.im, b.re, b.im
    if (a.step == 2 or len(ar) == 1) and (b.step == 2 or len(br) == 1) \
            and not (a.lo - b.lo) & 1:
        return ar, ai, br, bi, 2
    if a.step == 2:
        ar, ai = _spread(ar), ai and _spread(ai)
    if b.step == 2:
        br, bi = _spread(br), bi and _spread(bi)
    return ar, ai, br, bi, 1


def _combine(a: LaurentPoly, b: LaurentPoly, op) -> LaurentPoly:
    """a op b for op add or sub, both operands nonzero: align the vectors on
    one denominator, one step and one exponent range, then one map per part;
    two single slots at one exponent are one sum over the common denominator."""
    if len(a.re) == 1 == len(b.re) and a.lo == b.lo:
        da, db = a.den, b.den
        xr, xi = a.re[0], a.im[0] if a.im else 0
        yr, yi = b.re[0], b.im[0] if b.im else 0
        if da != db:
            xr, xi, yr, yi, da = xr * db, xi * db, yr * da, yi * da, da * db
        re, im = op(xr, yr), op(xi, yi)
        if not (re or im):
            return LP_ZERO
        return _cut(a.lo, da, re, im)
    ar, ai, br, bi, step = _aligned(a, b)
    den = a.den
    if b.den != den:
        den = lcm(den, b.den)
        fa, fb = den // a.den, den // b.den
        if fa != 1:
            ar, ai = _times_ints(ar, ai, fa, 0)
        if fb != 1:
            br, bi = _times_ints(br, bi, fb, 0)
    lo = min(a.lo, b.lo)
    pa, pb = (a.lo - lo) // step, (b.lo - lo) // step
    size = max(pa + len(ar), pb + len(br))
    re = list(map(op, _pad(ar, pa, size), _pad(br, pb, size)))
    im = None
    if ai or bi:
        im = list(map(op, _pad(ai or [0] * len(ar), pa, size), _pad(bi or [0] * len(br), pb, size)))
    return _canonical(lo, den, re, im, step)


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


def _keep_top(p: LaurentPoly) -> int:
    """p's largest absolute entry, measured on p's first wide product and
    kept in p.top for the next."""
    p.top = top = _top(p.re, p.im)
    return top


# slot size in bytes -> struct code of a signed slot of that size; a wider
# slot goes through int.to_bytes and int.from_bytes
_SLOT_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _slot_size(width: int) -> int:
    """Bytes per slot for balanced digits of width bits: 1, 2, 4 or 8, or
    the whole bytes of a wider slot."""
    size = (width + 7) // 8
    for code_size in _SLOT_CODES:
        if size <= code_size:
            return code_size
    return size


@lru_cache(maxsize=256)
def _sign_bias(n: int, size: int) -> int:
    """B: 0x80 in the top byte of each of n slots of size bytes.  XOR with B
    flips each slot's sign bit, so a two's-complement digit v reads as the
    unsigned v + 2**(8*size-1), and back.  A product asks for three (its two
    operands' and its result's); the last 256 shapes are kept, so a
    repeated shape builds none and a deep run holds a few hundred at most."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * n, "little")


def _pack(vec: list[int], size: int) -> int:
    """sum(v * 2**(8*size*k)) for entries in [-2**(8*size-1), 2**(8*size-1)):
    the entries as two's-complement slots in one bytes object, read as an
    unsigned int y; (y ^ B) - B then makes each slot's sign count."""
    code = _SLOT_CODES.get(size)
    if code:
        data = pack(f"<{len(vec)}{code}", *vec)
    else:
        data = b"".join([v.to_bytes(size, "little", signed=True) for v in vec])
    bias = _sign_bias(len(vec), size)
    return (int.from_bytes(data, "little") ^ bias) - bias


def _unpack(x: int, n: int, size: int) -> list[int]:
    """The n balanced digits of x in slots of size bytes, lowest first: the
    inverse of _pack.  x + B holds every digit plus half the slot range,
    which never carries; ^ B turns each slot back into two's complement."""
    bias = _sign_bias(n, size)
    data = ((x + bias) ^ bias).to_bytes(n * size, "little")
    code = _SLOT_CODES.get(size)
    if code:
        return list(unpack(f"<{n}{code}", data))
    return [int.from_bytes(data[i : i + size], "little", signed=True)
            for i in range(0, n * size, size)]


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
LP_ONE = _new(0, 1, [1], None)  # the one object of the value 1; see _mono
LP_S = _new(1, 1, [1], None)
LP_Q = _new(2, 1, [1], None)


class CoefExpr:
    """Fraction num/den of Laurent polynomials in s; equality by cross-multiplication.

    Monomial denominators are folded into the numerator on construction, and a
    zero numerator normalises the denominator to 1, so ``num.is_zero()`` is a
    reliable zero test.  Denominators are otherwise left unreduced.

    A sum over one denominator adds the numerators over it, any other sum
    and every product cross-multiply; a sum that cancels is CE_ZERO.  Values
    over LP_ONE stay over LP_ONE (LP_ONE * LP_ONE is LP_ONE), which __init__
    takes without its checks.  A product with a side that is LP_ONE over
    LP_ONE, the value 1, is the other operand itself.
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
                    num = num._times(d * r, -d * j, r * r + j * j, -den.lo)
                else:
                    num = num._times(d, 0, r, -den.lo)
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
        if not isinstance(other, CoefExpr):
            other = CoefExpr.of(other)
        if not self.num.re:
            return other
        if not other.num.re:
            return self
        if self._same_den(other):
            num, den = self.num + other.num, self.den
        else:
            num, den = self.num * other.den + other.num * self.den, self.den * other.den
        return CoefExpr(num, den) if num.re else CE_ZERO

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-CoefExpr.of(other))

    def __rsub__(self, other):
        return CoefExpr.of(other) + (-self)

    def __neg__(self):
        return CoefExpr(-self.num, self.den)

    def __mul__(self, other):
        if not isinstance(other, CoefExpr):
            other = CoefExpr.of(other)
        if self.num is LP_ONE and self.den is LP_ONE:
            return other
        if other.num is LP_ONE and other.den is LP_ONE:
            return self
        if not self.num.re or not other.num.re:
            return CE_ZERO
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

    def conjugate_i(self) -> CoefExpr:
        return CoefExpr(self.num.conjugate_i(), self.den.conjugate_i())

    def is_real(self) -> bool:
        """True when the value is fixed by i -> -i (real coefficients up to
        the fraction-field equality)."""
        return self == self.conjugate_i()

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


def _q_products(tops, bottoms):
    """Yield the partial products of prod(1 - q**a) / prod(1 - q**b) over zip(tops,
    bottoms), a, b >= 1, from 1 to the whole, each a polynomial in q, on one int
    list: times 1 - q**a is a shifted subtraction, over 1 - q**b is c[j] = p[j] +
    c[j - b], whose top b entries are the remainder (ArithmeticError unless they are
    zero).  Each list is its partial's step-2 stored vector, never changed after."""
    c = [1]
    yield LP_ONE
    for a, b in zip(tops, bottoms):
        p = c + [0] * a
        p[a:] = map(sub, p[a:], c)
        for r in range(b):
            p[r::b] = accumulate(p[r::b])
        if any(p[-b:]):
            raise ArithmeticError(f"1 - q**{b} leaves a remainder")
        c = p[:-b]
        yield _canonical(0, 1, c, None, 2)


@lru_cache(maxsize=None)
def q_factorial(n: int) -> LaurentPoly:
    """Product of the q-integers 1..n; q_factorial(0) = 1."""
    if n < 0:
        raise UnsupportedOrderError("q-factorials are defined for n >= 0 only")
    return deque(_q_products(range(1, n + 1), repeat(1)), maxlen=1)[0]


@lru_cache(maxsize=None)
def factorial_ratio(n: int, k: int) -> LaurentPoly:
    """The exact polynomial q_factorial(n) / q_factorial(k), the product of
    the q-integers k+1 .. n, each (1 - q**j) / (1 - q)."""
    if not 0 <= k <= n:
        raise UnsupportedOrderError("factorial_ratio needs 0 <= k <= n")
    return deque(_q_products(range(k + 1, n + 1), repeat(1)), maxlen=1)[0]


@lru_cache(maxsize=None)
def gauss_binomial(n: int, k: int) -> LaurentPoly:
    """Gaussian binomial coefficient as an honest polynomial in q: the product
    of (1 - q**(n-i)) / (1 - q**(i+1)) over i < min(k, n-k), degree k(n-k) in
    q, symmetric under k <-> n-k, and equal to binomial(n, k) at q = 1."""
    if not 0 <= k <= n:
        raise UnsupportedOrderError("gauss_binomial needs 0 <= k <= n")
    k = min(k, n - k)
    return deque(_q_products(range(n, n - k, -1), range(1, k + 1)), maxlen=1)[0]
