"""Exact coefficient arithmetic for the q-calculus engine.

Three layers, all immutable and exact (no floating point ever enters a value):

* ``GaussianRational`` -- complex numbers a + b*i with arbitrary-precision
  rational parts.  Hosts the imaginary unit and every plain numeric factor.
* ``LaurentPoly`` -- Laurent polynomials in a single formal variable s over
  the Gaussian rationals.  The deformation parameter is q = s**2, so square
  roots of q and half-integer powers q**(k/2) are ordinary monomials in s,
  and the substitution s -> 1/s realises q -> 1/q exactly.
* ``CoefExpr`` -- the fraction field num/den of Laurent polynomials.
  Equality is decided by cross-multiplication; no canonical form or GCD
  machinery is required (or used).  A denominator that is a single monomial
  is folded into the numerator on construction, so most values in practice
  are plain Laurent polynomials with den == 1.

LaurentPoly is canonical (zero coefficients are never stored), which makes
zero tests and denominator sharing cheap: mathematically equal denominators
are structurally equal dicts.  Storage is that dict, but products are formed
by Kronecker substitution: each operand is lifted to integer vectors (real
and imaginary part) over one common denominator, each vector is packed into
one int at s = 2**width, one big-int product is taken (up to four when the
operands are complex), and the coefficients are read back as balanced
width-bit digits.  A one-term operand is a shift plus a scale instead.

The q-combinatorics live here too, below the tower they are built from:
q-integers, q-factorials and Gaussian binomial coefficients are cached
LaurentPoly values (exponents even).  Gaussian binomials are built by the
q-Pascal rule from shifts and additions alone, so they are independent of
the q-factorials and of exact division; both serve elsewhere as exact
common-denominator multipliers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

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
        if self.im or other.im:
            return _gr(self.re + other.re, self.im + other.im)
        return _gr(self.re + other.re, _F0)

    __radd__ = __add__

    def __sub__(self, other):
        other = as_gaussian(other)
        if self.im or other.im:
            return _gr(self.re - other.re, self.im - other.im)
        return _gr(self.re - other.re, _F0)

    def __rsub__(self, other):
        return as_gaussian(other) - self

    def __neg__(self):
        return _gr(-self.re, -self.im)

    def __mul__(self, other):
        other = as_gaussian(other)
        if self.im or other.im:
            return _gr(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return _gr(self.re * other.re, _F0)

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
    """Laurent polynomial in s, stored as {exponent: nonzero GaussianRational}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean: dict[int, GaussianRational] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = as_gaussian(c)
                if c:
                    clean[int(e)] = c
        self.coeffs = clean

    @staticmethod
    def _raw(coeffs: dict[int, GaussianRational]) -> LaurentPoly:
        out = LaurentPoly.__new__(LaurentPoly)
        out.coeffs = coeffs
        return out

    @classmethod
    def const(cls, value) -> LaurentPoly:
        c = as_gaussian(value)
        return cls._raw({0: c} if c else {})

    @classmethod
    def term(cls, exponent: int, value=1) -> LaurentPoly:
        c = as_gaussian(value)
        return cls._raw({exponent: c} if c else {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def as_monomial(self):
        """Return (exponent, coefficient) if this is a single term, else None."""
        if len(self.coeffs) == 1:
            return next(iter(self.coeffs.items()))
        return None

    def min_exp(self) -> int:
        return min(self.coeffs)

    def max_exp(self) -> int:
        return max(self.coeffs)

    def span(self) -> int:
        """Degree span max_exp - min_exp (0 for the zero polynomial)."""
        if not self.coeffs:
            return 0
        return max(self.coeffs) - min(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = out.get(e)
            if v is None:
                out[e] = c
            else:
                v = v + c
                if v:
                    out[e] = v
                else:
                    del out[e]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return LaurentPoly._raw({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LP_ZERO
        if len(a) == 1 or len(b) == 1:
            mono, rest = (a, other) if len(a) == 1 else (b, self)
            ((e, c),) = mono.items()
            if c.re == 1 and not c.im:
                return rest.shift(e)  # rest itself when the term is 1
            return LaurentPoly._raw({x + e: v * c for x, v in rest.coeffs.items()})
        # Kronecker substitution: integer vectors over a common denominator,
        # packed at s = 2**width, multiplied once and read back slot by slot.
        lo_a, den_a, re_a, im_a, top_a = _lift(a)
        lo_b, den_b, re_b, im_b, top_b = _lift(b)
        bound = min(len(a), len(b)) * top_a * top_b  # largest |slot| possible
        if im_a and im_b:
            bound *= 2  # re_a*re_b - im_a*im_b adds two such sums
        width = bound.bit_length() + 1  # one sign bit for balanced digits
        ra, ia = _pack(re_a, width), _pack(im_a, width)
        rb, ib = _pack(re_b, width), _pack(im_b, width)
        n = len(re_a) + len(re_b) - 1
        packed_im = ia * rb + ra * ib
        re = _unpack(ra * rb - ia * ib, n, width)
        im = _unpack(packed_im, n, width) if packed_im else [0] * n
        lo, den = lo_a + lo_b, den_a * den_b
        out: dict[int, GaussianRational] = {}
        for k, (v, w) in enumerate(zip(re, im)):
            if v or w:
                out[lo + k] = _gr(Fraction(v, den), Fraction(w, den) if w else _F0)
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def scale(self, value) -> LaurentPoly:
        c = as_gaussian(value)
        if not c:
            return LP_ZERO
        return LaurentPoly._raw({e: v * c for e, v in self.coeffs.items()})

    def shift(self, k: int) -> LaurentPoly:
        """Multiply by s**k (add k to every exponent)."""
        if k == 0:
            return self
        return LaurentPoly._raw({e + k: c for e, c in self.coeffs.items()})

    def __pow__(self, n: int):
        if n < 0:
            mono = self.as_monomial()
            if mono is None:
                raise ZeroDenominatorError(
                    "negative power of a non-monomial Laurent polynomial"
                )
            e, c = mono
            return LaurentPoly._raw({e * n: c**n})
        return power(self, n, LP_ONE)

    def stretch(self, k: int) -> LaurentPoly:
        """Substitute s -> s**k (k nonzero); k = -1 is the involution q -> 1/q."""
        if k == 0:
            raise ValueError("stretch factor must be nonzero")
        if k == 1:
            return self
        return LaurentPoly._raw({e * k: c for e, c in self.coeffs.items()})

    def invert_s(self) -> LaurentPoly:
        return self.stretch(-1)

    def eval_s(self, s_value) -> GaussianRational:
        """Exact evaluation at a nonzero rational (or Gaussian rational) s."""
        s = as_gaussian(s_value)
        if not s:
            raise ZeroDivisionError("cannot evaluate a Laurent polynomial at s = 0")
        total = GR_ZERO
        for e, c in self.coeffs.items():
            total = total + c * s**e
        return total

    def eval_q(self, q_value) -> GaussianRational:
        """Exact evaluation with q = s**2 given; requires even exponents only."""
        q = as_gaussian(q_value)
        total = GR_ZERO
        for e, c in self.coeffs.items():
            if e % 2:
                raise NeedsSquareRootError(
                    "odd power of s present; supply a square root of q"
                )
            total = total + c * q ** (e // 2)
        return total

    def at_one(self) -> GaussianRational:
        """The q -> 1 limit: substitute s = 1 (sum of all coefficients)."""
        total = GR_ZERO
        for c in self.coeffs.values():
            total = total + c
        return total

    def divexact(self, other: LaurentPoly):
        """Exact quotient self / other, or None when the division leaves a remainder."""
        if other.is_zero():
            raise ZeroDenominatorError("division by the zero polynomial")
        if not self.coeffs:
            return LP_ZERO
        rem = dict(self.coeffs)
        dmax = max(other.coeffs)
        dmin = min(other.coeffs)
        lead_inv = other.coeffs[dmax].inverse()
        qmin = min(rem) - dmin
        out: dict[int, GaussianRational] = {}
        while rem:
            e = max(rem)
            qe = e - dmax
            if qe < qmin:
                return None
            c = rem[e] * lead_inv
            out[qe] = c
            for de, dc in other.coeffs.items():
                te = de + qe
                v = rem.get(te, GR_ZERO) - c * dc
                if v:
                    rem[te] = v
                else:
                    rem.pop(te, None)
        return LaurentPoly._raw(out)

    def conjugate_i(self) -> LaurentPoly:
        """Conjugate every coefficient (i -> -i); the identity on real values."""
        return LaurentPoly._raw({e: c.conjugate() for e, c in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self == LaurentPoly.const(other)
        return NotImplemented

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"({c})")
            elif e == 1:
                parts.append(f"({c})*s")
            else:
                parts.append(f"({c})*s^{e}")
        return " + ".join(parts)


def _lift(coeffs: dict[int, GaussianRational]):
    """(lowest exponent, common denominator, real and imaginary integer
    vectors, largest absolute entry) of a nonzero coefficient dict; the
    imaginary vector is empty when every coefficient is real."""
    lo = min(coeffs)
    size = max(coeffs) - lo + 1
    parts = [c.re for c in coeffs.values()]
    has_im = any(c.im for c in coeffs.values())
    if has_im:
        parts += [c.im for c in coeffs.values()]
    den = lcm(*[p.denominator for p in parts])
    re = [0] * size
    im = [0] * size if has_im else []
    for e, c in coeffs.items():
        re[e - lo] = c.re.numerator * (den // c.re.denominator)
        if has_im:
            im[e - lo] = c.im.numerator * (den // c.im.denominator)
    top = max(max(re), -min(re), max(im, default=0), -min(im, default=0))
    return lo, den, re, im, top


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


LP_ZERO = LaurentPoly._raw({})
LP_ONE = LaurentPoly._raw({0: GR_ONE})
LP_S = LaurentPoly._raw({1: GR_ONE})
LP_Q = LaurentPoly._raw({2: GR_ONE})


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
            else:
                mono = den.as_monomial()
                if mono is not None:
                    e, c = mono
                    if e or c != GR_ONE:
                        num = num.shift(-e).scale(c.inverse())
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
        return self.den is other.den or self.den.coeffs == other.den.coeffs

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
    return q_factorial(n - 1) * q_int(n)


@lru_cache(maxsize=None)
def factorial_ratio(n: int, k: int) -> LaurentPoly:
    """The exact polynomial q_factorial(n) / q_factorial(k), built as the
    product of q-integers k+1 .. n (no division involved)."""
    if not 0 <= k <= n:
        raise UnsupportedOrderError("factorial_ratio needs 0 <= k <= n")
    if n == k:
        return LP_ONE
    return factorial_ratio(n - 1, k) * q_int(n)


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
