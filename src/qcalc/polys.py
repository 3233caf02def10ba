"""Multivariate polynomials over CoefExpr and the q-difference operators.

MPoly keys terms by exponent tuples aligned with a fixed, ordered variable
list.  The q-derivative is implemented by the monomial rule
x**n -> [n]_q x**(n-1), which agrees with the difference quotient
(f(qx) - f(x)) / ((q-1)x) on every polynomial and is total at x = 0.

One term-mapping kernel, _map_var, sends var**n to sum_k w_k var**(n-k) b**k
with b a one-term polynomial.  MPoly.substitute (and eval_univariate through
it), MPoly.q_derivative, MPoly.jackson_antiderivative and q_binomial_expand
(behind q_binomial_power and the wave substitution in qwave) are calls into
it; the repeated product q_power_product stays as the independent
cross-check.  Also here: the holomorphic-pair operators on (z, w), the
q-Laplacian family and the truncated numeric Jackson integral.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

from .coeffs import (
    CE_ONE,
    CE_ZERO,
    CoefExpr,
    GR_I,
    LP_ONE,
    LaurentPoly,
    PoleError,
    UnsupportedOrderError,
    gauss_binomial,
    power,
    q_int,
    q_int_reciprocal,
)

__all__ = [
    "MPoly",
    "coef_to_complex",
    "q_binomial_weights",
    "q_binomial_expand",
    "q_binomial_power",
    "q_power_product",
    "dbar_operator",
    "d_operator",
    "q_laplacian",
    "q_laplacian_chain",
    "jackson_integral_numeric",
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
    dens memoizes denominator images; it belongs to one sampling pass, at one
    q, so each distinct denominator of the pass is converted once.
    Raises OverflowError when the value itself is out of float range.
    """
    if dens is None:
        dens = {}
    s = q_value**0.5
    p = c.den
    # LaurentPoly is canonical, so its four slots identify its value
    key = (p.lo, p.den, tuple(p.re), p.im and tuple(p.im))
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
        raise ValueError(f"variable {name!r} not among {variables}") from None


class MPoly:
    """Sparse polynomial in named variables with CoefExpr coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise ValueError(f"variable names repeat in {self.vars}")
        clean: dict[tuple[int, ...], CoefExpr] = {}
        if terms:
            width = len(self.vars)
            for exps, coef in terms.items():
                coef = CoefExpr.of(coef)
                if coef.is_zero():
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != width:
                    raise ValueError(f"exponent tuple {exps} does not match {self.vars}")
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
        return cls._raw(tuple(variables), {})

    @classmethod
    def const(cls, variables, value) -> MPoly:
        variables = tuple(variables)
        c = CoefExpr.of(value)
        if c.is_zero():
            return cls._raw(variables, {})
        return cls._raw(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, variables, name) -> MPoly:
        variables = tuple(variables)
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
            raise ValueError(f"variable lists differ: {self.vars} vs {other.vars}")

    def __add__(self, other):
        if not isinstance(other, MPoly):
            other = MPoly.const(self.vars, other)
        self._check_vars(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e)
            if v is None:
                out[e] = c
            else:
                v = v + c
                if v.is_zero():
                    del out[e]
                else:
                    out[e] = v
        return MPoly._raw(self.vars, out)

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
        if not a or not b:
            return MPoly._raw(self.vars, {})
        if len(a) > len(b):
            a, b = b, a
        out: dict[tuple[int, ...], CoefExpr] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                p = ca * cb
                v = out.get(e)
                if v is None:
                    if not p.is_zero():
                        out[e] = p
                else:
                    v = v + p
                    if v.is_zero():
                        del out[e]
                    else:
                        out[e] = v
        return MPoly._raw(self.vars, out)

    __rmul__ = __mul__

    def scale(self, value) -> MPoly:
        c = CoefExpr.of(value)
        if c.is_zero():
            return MPoly._raw(self.vars, {})
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
            if isinstance(other, (int, Fraction, CoefExpr, LaurentPoly)):
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
        new_vars = tuple(new_vars)
        pos = {}
        for i, v in enumerate(self.vars):
            if v in new_vars:
                pos[i] = new_vars.index(v)
            elif self.degree_in(v) > 0:
                raise ValueError(f"variable {v!r} in use but absent from {new_vars}")
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
        return MPoly._raw(
            self.vars[:i] + (new,) + self.vars[i + 1 :], dict(self.terms)
        )

    def substitute(self, name: str, replacement) -> MPoly:
        """Replace a variable by a one-term MPoly (over the same variables) or
        a scalar; a replacement with two or more terms raises ValueError."""
        if not isinstance(replacement, MPoly):
            replacement = MPoly.const(self.vars, replacement)
        return _map_var(self, name, replacement, lambda n: ((n, LP_ONE),))

    def eval_univariate(self, value) -> CoefExpr:
        """Evaluate a one-variable polynomial at a CoefExpr point."""
        if len(self.vars) != 1:
            raise ValueError("eval_univariate needs a univariate polynomial")
        return self.substitute(self.vars[0], value).coefficient((0,))

    def q_derivative(self, name: str, direction: str = "q") -> MPoly:
        """Monomial-rule q-derivative in one variable.

        direction "q" sends x**n to [n]_q x**(n-1); direction "1/q" uses the
        reciprocal q-integers [n]_{1/q} = [n]_q / q**(n-1).
        """
        if direction not in ("q", "1/q"):
            raise ValueError("direction must be 'q' or '1/q'")
        factor = q_int if direction == "q" else q_int_reciprocal
        one = MPoly.const(self.vars, 1)
        return _map_var(self, name, one, lambda n: ((1, factor(n)),) if n else ())

    def scale_substitute(self, name: str, s_power: int) -> MPoly:
        """Substitute var -> s**s_power * var; degree-d coefficients pick up
        s**(d*s_power).  s_power = 2 is x -> qx, s_power = 1 is x -> sqrt(q)x."""
        return self.substitute(name, MPoly.var(self.vars, name).scale(LaurentPoly.term(s_power)))

    def jackson_antiderivative(self, name: str) -> MPoly:
        """Inverse of the q-derivative: x**n -> x**(n+1) / [n+1]_q."""
        square = MPoly.var(self.vars, name) ** 2
        return _map_var(self, name, square, lambda n: ((1, CoefExpr(LP_ONE, q_int(n + 1))),))

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


def q_power_product(a: MPoly, b: MPoly, n: int) -> MPoly:
    """The ordered product (a + b)(a + qb)(a + q^2 b)...(a + q^(n-1) b)."""
    if n < 0:
        raise UnsupportedOrderError("q-binomial powers need n >= 0")
    out = MPoly.const(a.vars, 1)
    for k in range(n):
        out = out * (a + b.scale(LaurentPoly.term(2 * k)))
    return out


@lru_cache(maxsize=None)
def q_binomial_weights(n: int) -> tuple[LaurentPoly, ...]:
    """Weights gauss(n, k) * q^(k(k-1)/2), k = 0..n, of the closed form
    (a + b)(a + qb)...(a + q^(n-1) b) = sum_k weight_k a^(n-k) b^k."""
    return tuple(gauss_binomial(n, k).shift(k * (k - 1)) for k in range(n + 1))


def q_binomial_expand(p: MPoly, var: str, b: MPoly) -> MPoly:
    """Apply var**n -> (var + b)(var + qb)...(var + q^(n-1) b) linearly to p,
    by the closed form sum_k weight_k var**(n-k) b**k; b is a one-term
    polynomial over p's variables (or zero)."""
    return _map_var(p, var, b, lambda n: enumerate(q_binomial_weights(n)))


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


def _map_var(p: MPoly, var: str, b: MPoly, pairs) -> MPoly:
    """The one term-mapping kernel behind every linear operator on one
    variable: each term coef * var**n * rest becomes
    sum over (k, w) in pairs(n) of coef * w * var**(n-k) * b**k * rest.

    b is a one-term polynomial over p's variables; a zero b is the term 0.
    The powers b**k are built once and equal monomials are merged in the
    order the terms are met.  When b's coefficient is 1 each term costs one
    multiply, by its weight.
    """
    p._check_vars(b)
    if len(b.terms) > 1:
        raise ValueError(f"replacement must be a single term, not {len(b.terms)} terms")
    i = p._index(var)
    zero = (0,) * len(p.vars)
    ((step, b_coef),) = b.terms.items() or ((zero, CE_ZERO),)
    step = step[:i] + (step[i] - 1,) + step[i + 1 :]  # var**-1 * b
    unit = b_coef == CE_ONE
    powers = [(zero, CE_ONE)]  # var**-k * b**k as (exponent shift, coefficient)
    out: dict[tuple[int, ...], CoefExpr] = {}
    for e, coef in p.terms.items():
        for k, w in pairs(e[i]):
            while len(powers) <= k:
                shift, c = powers[-1]
                powers.append((tuple(map(add, shift, step)), c * b_coef))
            shift, c = powers[k]
            key = tuple(map(add, e, shift))
            v = coef * w if unit else coef * w * c
            prev = out.get(key)
            if prev is not None:
                v = prev + v
            if v.is_zero():
                out.pop(key, None)
            else:
                out[key] = v
    return MPoly._raw(p.vars, out)


def dbar_operator(p: MPoly) -> MPoly:
    """Half the sum D_q in z plus i times D_{1/q} in w; annihilates every
    q-binomial power of z + i w."""
    return _pair_operator(p, GR_I)


def d_operator(p: MPoly) -> MPoly:
    """The conjugate combination: half of D_q in z minus i D_{1/q} in w."""
    return _pair_operator(p, -GR_I)


def _pair_operator(p: MPoly, w_factor) -> MPoly:
    """Half of D_q in z plus w_factor times D_{1/q} in w."""
    return (
        p.q_derivative("z", "q") + p.q_derivative("w", "1/q").scale(w_factor)
    ).scale(Fraction(1, 2))


def q_laplacian(p: MPoly, level: int = 0) -> MPoly:
    """(D_q^z)^2 + q^level (D_{1/q}^w)^2 applied exactly."""
    if level < 0:
        raise UnsupportedOrderError("q-Laplacian level must be >= 0")
    zz = p.q_derivative("z", "q").q_derivative("z", "q")
    ww = p.q_derivative("w", "1/q").q_derivative("w", "1/q")
    if level:
        ww = ww.scale(LaurentPoly.term(2 * level))
    return zz + ww


def q_laplacian_chain(p: MPoly, m: int) -> MPoly:
    """Compose the q-Laplacian levels 0, 1, ..., m-1 (level 0 innermost)."""
    if m < 0:
        raise UnsupportedOrderError("chain length must be >= 0")
    out = p
    for level in range(m):
        out = q_laplacian(out, level)
    return out


def jackson_integral_numeric(g, a, b, q_value, terms: int):
    """Truncated Jackson integral of g from a to b with J = terms summands.

    Returns (value, tail_bound) where value is
    (1-q) b sum_{j<J} q^j g(q^j b) - (1-q) a sum_{j<J} q^j g(q^j a)
    and tail_bound = (|a| + |b|) q^J max|g| over the residual interval
    [-q^J max(|a|,|b|), q^J max(|a|,|b|)], with max|g| estimated on a dense
    grid.  Exact input types (Fraction) are preserved in the value.
    """
    if not 0 < q_value < 1:
        raise ValueError("the Jackson sum requires 0 < q < 1")
    if terms < 0:
        raise ValueError("the number of terms must be >= 0")
    one_minus_q = 1 - q_value

    def endpoint(p):
        total = 0
        qj = q_value**0
        for _ in range(terms):
            total += qj * g(qj * p)
            qj *= q_value
        return one_minus_q * p * total

    value = endpoint(b) - endpoint(a)
    reach = (q_value**terms) * max(abs(a), abs(b))
    grid_max = 0.0
    if reach:
        steps = 128
        for i in range(steps + 1):
            xi = reach * (Fraction(2 * i, steps) - 1)
            grid_max = max(grid_max, abs(float(g(xi))))
    else:
        grid_max = abs(float(g(0 * q_value)))
    bound = float((abs(a) + abs(b)) * q_value**terms) * grid_max
    return value, bound
