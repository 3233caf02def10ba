"""Multivariate polynomials over CoefExpr and the q-difference operators.

MPoly keys terms by exponent tuples aligned with a fixed, ordered variable
list.  The q-derivative is implemented by the monomial rule
x**n -> [n]_q x**(n-1), which agrees with the difference quotient
(f(qx) - f(x)) / ((q-1)x) on every polynomial and is total at x = 0.

One term-mapping kernel, _map_var, applies a sum of one-variable operators,
each sending var**n to sum_k w_k var**(n-k) b**k with b a one-term
polynomial.  MPoly.substitute, MPoly.q_derivative,
MPoly.jackson_antiderivative and q_binomial_expand (behind q_binomial_power
and the wave substitution in qwave) are calls with one operator; the
holomorphic-pair operators on (z, w), the q-Laplacian family and
qwave.qwave_operator are calls with two.  The Jackson integral enters the
solver only in exact form, as the antiderivative.

One cancelling sum, _sum_into, adds terms into a dict and drops a monomial
as soon as its coefficients cancel.  MPoly sums and products, _map_var and
the pair and exponential sums of identities each generate their terms and
leave the adding to it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, index

from .coeffs import (
    CE_ONE,
    CE_ZERO,
    CoefExpr,
    GR_I,
    GaussianRational,
    LP_ONE,
    LaurentPoly,
    PoleError,
    UnsupportedOrderError,
    _q_products,
    factorial_ratio,
    power,
    q_int,
)

__all__ = [
    "MPoly",
    "coef_to_complex",
    "q_binomial_weights",
    "q_binomial_expand",
    "q_binomial_power",
    "dbar_operator",
    "d_operator",
    "q_laplacian",
]


def _laurent_to_complex(p: LaurentPoly, s_value: float) -> tuple[complex, int]:
    """(v, m) with p(s) = v * s**m, where m is the exponent that dominates at s
    (the largest for s >= 1, the smallest below), so no power in v overflows."""
    if p.is_zero():
        return 0j, 0
    m = p.max_exp() if s_value >= 1 else p.min_exp()
    den = p.den
    total = 0j
    for e, re, im in p.int_terms():  # int / int is correctly rounded, big ints too
        total += complex(re / den, im / den) * s_value ** (e - m)
    return total, m


def coef_to_complex(c: CoefExpr, q_value: float, dens: dict | None = None) -> complex:
    """Floating-point image of an exact coefficient at numeric q > 0.

    The only place where symbolic values meet floats; used by grid sampling.
    dens memoizes denominator images; it belongs to one sampling pass, at one q,
    so each distinct denominator of the pass is converted once.  Raises
    ValueError unless q is finite and > 0, OverflowError for a value out of float range.
    """
    if not 0 < q_value < float("inf"):  # nan fails both
        raise ValueError(f"numeric evaluation needs a finite q > 0, not {q_value!r}")
    if dens is None:
        dens = {}
    s = q_value**0.5
    p = c.den
    key = p.key()
    image = dens.get(key)
    if image is None:
        image = dens[key] = _laurent_to_complex(p, s)
    d, m_den = image
    if d == 0:
        raise PoleError(f"denominator vanishes at q = {q_value}")
    n, m_num = _laurent_to_complex(c.num, s)
    return n / d * s ** (m_num - m_den)


def _position(variables: tuple[str, ...], name: str) -> int:
    try:
        return variables.index(name)
    except ValueError:
        raise ValueError(f"variable {name!r} not among {_brief(variables)}") from None


def _brief(value) -> str:
    """repr of a refused value for an error message, cut to about 80 characters."""
    text = repr(value)
    return text if len(text) <= 80 else text[:76] + " ..."


def _distinct_names(variables) -> tuple[str, ...]:
    names = tuple(variables)
    if not all(isinstance(v, str) for v in names):
        raise ValueError(f"variable names {_brief(names)} are not all strings")
    if len(set(names)) != len(names):
        raise ValueError(f"variable names repeat in {_brief(names)}")
    return names


def _sum_into(out: dict, items) -> dict:
    """Add each (key, value) of items into out and return out: the one
    cancelling sum behind every sum of terms.  A key is dropped from out as
    soon as its sum is zero, so no zero is ever stored and cancelling parts of
    a sum are never held at once; a key that cancels and comes back is added
    anew."""
    get, pop = out.get, out.pop
    for key, v in items:
        prev = get(key)
        if prev is not None:
            v = prev + v
        if v.is_zero():
            pop(key, None)
        else:
            out[key] = v
    return out


class MPoly:
    """Sparse polynomial in named variables with CoefExpr coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = _distinct_names(variables)
        clean: dict[tuple[int, ...], CoefExpr] = {}
        if terms:
            width = len(self.vars)
            for exps, coef in terms.items():
                coef = CoefExpr.of(coef)
                if coef.is_zero():
                    continue
                exps = tuple(map(index, exps))
                if len(exps) != width:
                    raise ValueError(f"exponent tuple {_brief(exps)} does not match {_brief(self.vars)}")
                if any(e < 0 for e in exps):
                    raise UnsupportedOrderError("negative exponents are not supported")
                clean[exps] = coef
        self.terms = clean

    @staticmethod
    def _raw(variables: tuple[str, ...], terms: dict) -> MPoly:
        out = MPoly.__new__(MPoly)
        out.vars = variables
        out.terms = terms
        return out

    @classmethod
    def zero(cls, variables) -> MPoly:
        return cls._raw(_distinct_names(variables), {})

    @classmethod
    def const(cls, variables, value) -> MPoly:
        variables = _distinct_names(variables)
        c = CoefExpr.of(value)
        if c.is_zero():
            return cls._raw(variables, {})
        return cls._raw(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, variables, name) -> MPoly:
        variables = _distinct_names(variables)
        exps = [0] * len(variables)
        exps[_position(variables, name)] = 1
        return cls._raw(variables, {tuple(exps): CE_ONE})

    @classmethod
    def monomial(cls, variables, exps, coef=1) -> MPoly:
        return cls(variables, {tuple(exps): coef})

    def _index(self, name: str) -> int:
        return _position(self.vars, name)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps) -> CoefExpr:
        return self.terms.get(tuple(exps), CE_ZERO)

    def total_degree(self, names=None) -> int:
        """Max total degree over the given variables (all by default); -1 if zero."""
        if not self.terms:
            return -1
        if names is None:
            return max(sum(e) for e in self.terms)
        idx = [self._index(n) for n in names]
        return max(sum(e[i] for i in idx) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self._index(name)
        return max(e[i] for e in self.terms)

    def _check_vars(self, other: MPoly):
        if self.vars != other.vars:
            raise ValueError(f"variable lists differ: {_brief(self.vars)} vs {_brief(other.vars)}")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.vars, other)
        self._check_vars(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        return MPoly._raw(self.vars, _sum_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return MPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            return self.scale(other)
        self._check_vars(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        products = ((tuple(map(add, ea, eb)), ca * cb)
                    for ea, ca in a.items() for eb, cb in b.items())
        return MPoly._raw(self.vars, _sum_into({}, products))

    __rmul__ = __mul__

    def scale(self, value) -> MPoly:
        c = CoefExpr.of(value)
        if c.is_zero():
            return MPoly._raw(self.vars, {})
        if c.num is LP_ONE and c.den is LP_ONE:
            return self
        return MPoly._raw(self.vars, {e: v * c for e, v in self.terms.items()})

    def __truediv__(self, other):
        """Exact division by a one-term MPoly (over the same variables) or a
        nonzero scalar; a term the divisor's monomial does not divide, or a
        divisor with no or several terms, raises ValueError."""
        if not isinstance(other, MPoly):
            other = MPoly.const(self.vars, other)
        self._check_vars(other)
        if len(other.terms) != 1:
            raise ValueError("division needs a nonzero one-term divisor")
        ((d, c),) = other.terms.items()
        inv = c.inverse()
        out = {}
        for e, v in self.terms.items():
            ne = tuple(a - b for a, b in zip(e, d))
            if any(x < 0 for x in ne):
                raise ValueError(f"term {e} not divisible by the monomial {d}")
            out[ne] = v * inv
        return MPoly._raw(self.vars, out)

    def __pow__(self, n: int):
        if n < 0:
            raise UnsupportedOrderError("negative polynomial powers are not supported")
        return power(self, n, MPoly.const(self.vars, 1))

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            if isinstance(other, (int, Fraction, GaussianRational, CoefExpr, LaurentPoly)):
                other = MPoly.const(self.vars, other)
            else:
                return NotImplemented
        # no MPoly stores a zero coefficient, so equal polynomials have equal term dicts
        return self.vars == other.vars and self.terms == other.terms

    def map_coeffs(self, fn) -> MPoly:
        out = {}
        for e, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[e] = v
        return MPoly._raw(self.vars, out)

    def at_s_one(self) -> MPoly:
        """Substitute s = 1 in every coefficient (the q -> 1 limit)."""
        return self.map_coeffs(lambda c: CoefExpr.of(LaurentPoly.const(c.at_one())))

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

    def with_vars(self, new_vars) -> MPoly:
        """Re-express over a variable list that contains every used variable."""
        new_vars = _distinct_names(new_vars)
        pos = {}
        for i, v in enumerate(self.vars):
            if v in new_vars:
                pos[i] = new_vars.index(v)
            elif self.degree_in(v) > 0:
                raise ValueError(f"variable {v!r} in use but absent from {_brief(new_vars)}")
        out = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_vars)
            for i, d in enumerate(e):
                if d:
                    ne[pos[i]] = d
            out[tuple(ne)] = c
        return MPoly._raw(new_vars, out)

    def rename_var(self, old: str, new: str) -> MPoly:
        i = self._index(old)
        if new in self.vars:
            raise ValueError(f"variable {new!r} already present")
        new_vars = _distinct_names(self.vars[:i] + (new,) + self.vars[i + 1 :])
        return MPoly._raw(new_vars, dict(self.terms))

    def substitute(self, name: str, replacement) -> MPoly:
        """Replace a variable by a one-term MPoly (over the same variables) or
        a scalar; a replacement with two or more terms raises ValueError."""
        if not isinstance(replacement, MPoly):
            replacement = MPoly.const(self.vars, replacement)
        return _map_var(self, [(name, replacement, lambda n: ((n, LP_ONE),))])

    def q_derivative(self, name: str, direction: str = "q") -> MPoly:
        """Monomial-rule q-derivative in one variable.

        direction "q" sends x**n to [n]_q x**(n-1); direction "1/q" uses the
        reciprocal q-integers [n]_{1/q} = [n]_q / q**(n-1).
        """
        return _map_var(self, [_q_derivative_op(self.vars, name, direction)])

    def scale_substitute(self, name: str, s_power: int) -> MPoly:
        """Substitute var -> s**s_power * var; degree-d coefficients pick up
        s**(d*s_power).  s_power = 2 is x -> qx, s_power = 1 is x -> sqrt(q)x."""
        return self.substitute(name, MPoly.var(self.vars, name).scale(LaurentPoly.term(s_power)))

    def jackson_antiderivative(self, name: str) -> MPoly:
        """Inverse of the q-derivative: x**n -> x**(n+1) / [n+1]_q."""
        square = MPoly.var(self.vars, name) ** 2
        return _map_var(self, [(name, square, lambda n: ((1, CoefExpr(LP_ONE, q_int(n + 1))),))])

    def truncate_total_degree(self, bound: int, names=None) -> MPoly:
        """Keep terms whose total degree over the given variables is <= bound."""
        if names is None:
            keep = lambda e: sum(e) <= bound
        else:
            idx = [self._index(n) for n in names]
            keep = lambda e: sum(e[i] for i in idx) <= bound
        return MPoly._raw(self.vars, {e: c for e, c in self.terms.items() if keep(e)})

    def __repr__(self):
        return f"MPoly({self.vars}, {len(self.terms)} terms)"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            mono = "*".join(
                f"{v}^{d}" if d > 1 else v
                for v, d in zip(self.vars, e)
                if d
            )
            c = self.terms[e]
            parts.append(f"[{c!r}]{('*' + mono) if mono else ''}")
        return " + ".join(parts)


@lru_cache(maxsize=None)
def q_binomial_weights(n: int) -> tuple[LaurentPoly, ...]:
    """Weights gauss(n, k) * q^(k(k-1)/2), k = 0..n, of the closed form
    (a + b)(a + qb)...(a + q^(n-1) b) = sum_k weight_k a^(n-k) b^k; gauss(n, k) is
    a partial of one _q_products pass for k <= n/2 and the mirror of one past it."""
    if n < 0:
        raise UnsupportedOrderError("q-binomial weights need n >= 0")
    half = list(_q_products(range(n, n - n // 2, -1), range(1, n // 2 + 1)))
    return tuple(half[min(k, n - k)].shift(k * (k - 1)) for k in range(n + 1))


def q_binomial_expand(p: MPoly, var: str, b: MPoly) -> MPoly:
    """Apply var**n -> (var + b)(var + qb)...(var + q^(n-1) b) linearly to p,
    by the closed form sum_k weight_k var**(n-k) b**k; b is a one-term
    polynomial over p's variables (or zero)."""
    return _map_var(p, [(var, b, lambda n: enumerate(q_binomial_weights(n)))])


def q_binomial_power(a_var: str, b_coef, b_var: str, n: int) -> MPoly:
    """Expansion of (a + b_coef*b)(a + q*b_coef*b)...(a + q^(n-1)*b_coef*b)
    over the variables (a, b) by the closed Gaussian-binomial form."""
    if n < 0:
        raise UnsupportedOrderError("q-binomial powers need n >= 0")
    if a_var == b_var:
        raise ValueError("q_binomial_power needs two distinct variables")
    ab = (a_var, b_var)
    b = MPoly.monomial(ab, (0, 1), b_coef)
    return q_binomial_expand(MPoly.monomial(ab, (n, 0)), a_var, b)


def _map_var(p: MPoly, ops) -> MPoly:
    """The one term-mapping kernel behind every linear operator: the sum over
    the operators (var, b, pairs) in ops of the maps sending each term
    coef * var**n * rest to sum over (k, w) in pairs(n) of
    coef * w * var**(n-k) * b**k * rest.

    Each b is a one-term polynomial over p's variables; a zero b is the term 0.
    Each term of p goes through every operator into one _sum_into.  The
    powers b**k are built once per operator.  When b's coefficient is 1 each
    output term costs one multiply, and none when its weight is LP_ONE.
    """
    zero = (0,) * len(p.vars)
    prepared = []
    for var, b, pairs in ops:
        p._check_vars(b)
        if len(b.terms) > 1:
            raise ValueError(f"replacement must be a single term, not {len(b.terms)} terms")
        i = p._index(var)
        ((step, b_coef),) = b.terms.items() or ((zero, CE_ZERO),)
        step = step[:i] + (step[i] - 1,) + step[i + 1 :]  # var**-1 * b
        powers = [(zero, CE_ONE)]  # var**-k * b**k as (exponent shift, coefficient)
        prepared.append((i, pairs, step, b_coef, b_coef == CE_ONE, powers))

    def images():
        for e, coef in p.terms.items():
            for i, pairs, step, b_coef, unit, powers in prepared:
                for k, w in pairs(e[i]):
                    while len(powers) <= k:
                        shift, c = powers[-1]
                        powers.append((tuple(map(add, shift, step)), c * b_coef))
                    shift, c = powers[k]
                    v = coef if w is LP_ONE else coef * w
                    yield tuple(map(add, e, shift)), v if unit else v * c

    return MPoly._raw(p.vars, _sum_into({}, images()))


def _q_derivative_op(variables, name: str, direction: str, order: int = 1, b=None, scale=None):
    """The kernel operator of scale times the order-th q-derivative in name:
    name**n -> scale * [n][n-1]..[n-order+1] name**(n-order) b**order, b = 1
    by default.  The weight is factorial_ratio(n, n - order), inverted in s
    for direction "1/q", made once per degree."""
    if direction not in ("q", "1/q"):
        raise ValueError("direction must be 'q' or '1/q'")
    weights = {}

    def pairs(n):
        if n < order:
            return ()
        pair = weights.get(n)
        if pair is None:
            w = factorial_ratio(n, n - order)
            if direction == "1/q":
                w = w.invert_s()
            pair = weights[n] = ((order, w if scale is None else scale * w),)
        return pair

    return name, MPoly.const(variables, 1) if b is None else b, pairs


def dbar_operator(p: MPoly) -> MPoly:
    """Half the sum D_q in z plus i times D_{1/q} in w; annihilates every
    q-binomial power of z + i w."""
    return _pair_operator(p, GR_I)


def d_operator(p: MPoly) -> MPoly:
    """The conjugate combination: half of D_q in z minus i D_{1/q} in w."""
    return _pair_operator(p, -GR_I)


def _pair_operator(p: MPoly, w_factor) -> MPoly:
    """Half of D_q in z plus w_factor times D_{1/q} in w (on the w operator's b)."""
    w_op = _q_derivative_op(p.vars, "w", "1/q", b=MPoly.const(p.vars, w_factor))
    return _map_var(p, [_q_derivative_op(p.vars, "z", "q"), w_op]).scale(Fraction(1, 2))


def q_laplacian(p: MPoly, level: int = 0) -> MPoly:
    """(D_q^z)^2 + q^level (D_{1/q}^w)^2 applied exactly, in one pass."""
    if level < 0:
        raise UnsupportedOrderError("q-Laplacian level must be >= 0")
    ww = _q_derivative_op(p.vars, "w", "1/q", 2, scale=LaurentPoly.term(2 * level))
    return _map_var(p, [_q_derivative_op(p.vars, "z", "q", 2), ww])

