"""q-traveling waves and the q-wave initial-value problem.

A wave body lives in variables (x, t) with an optional extra variable c for
a symbolic speed (sentinel SYMBOLIC_SPEED).  A speed, symbolic or numeric,
enters the arithmetic as a one-term polynomial (speed_poly), so only
_as_speed and speed_poly tell the two kinds apart.  The core construction is
the monomial rule x**n -> (x +- c t)_q**n extended linearly, which is
polys.q_binomial_expand with b = +-t * speed; the initial-value solver
combines it with Jackson antidifferentiation:

    u = even_t(f(x+ct)_q) + odd_t(G(x+ct)_q) / c,   G = antiderivative of g.

This is the d'Alembert form (f+ + f-)/2 + (G+ - G-)/(2c), since the minus
expansion is the plus one with t -> -t.  Each power of t comes with the same
power of the speed, so dividing the odd half by the speed is exact.

The solver checks its own output: u(x, 0) must reproduce f, the downward
q-derivative in t at t = 0 must reproduce g, and the wave residual must
vanish (identically for polynomial data, through total degree order-2 for
truncated series data).  A failed condition raises PostconditionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .coeffs import CoefExpr, QCalcError, UnsupportedOrderError
from .polys import MPoly, coef_to_complex, q_binomial_expand
from .qcore import q_trig_series

__all__ = [
    "SYMBOLIC_SPEED",
    "NAMED_SOURCES",
    "PostconditionError",
    "InitialData",
    "WaveSolution",
    "poly_from_coefficients",
    "speed_poly",
    "q_binomial_substitute",
    "qwave_operator",
    "dalembert_solve",
    "named_source",
    "named_wave",
    "sample_grid",
]

SYMBOLIC_SPEED = "c"
NAMED_SOURCES = ("cos_q", "sin_q", "q-gaussian")

_XT = ("x", "t")
_XTC = ("x", "t", "c")


class PostconditionError(QCalcError):
    """The solver's self-check refused the solution it built."""


def _is_symbolic(c) -> bool:
    return isinstance(c, str)


def _as_speed(c):
    """Return SYMBOLIC_SPEED or a nonzero CoefExpr."""
    if _is_symbolic(c):
        if c != SYMBOLIC_SPEED:
            raise ValueError(f"unknown symbolic speed {c!r}; use {SYMBOLIC_SPEED!r}")
        return SYMBOLIC_SPEED
    c = CoefExpr.of(c)
    if c.is_zero():
        raise ValueError("wave speed must be nonzero")
    return c


def poly_from_coefficients(coeffs, var: str = "x") -> MPoly:
    """Univariate polynomial from a low-degree-first coefficient sequence."""
    return MPoly((var,), {(d,): CoefExpr.of(c) for d, c in enumerate(coeffs)})


@dataclass(frozen=True)
class InitialData:
    """Initial displacement f and initial q-velocity g, univariate in x.

    order is None for exact polynomial data; for truncated series data it is
    the total degree through which both inputs are exact.  The polynomials may
    carry the symbolic speed variable (as g does in the worked quadratic
    example with initial velocity proportional to c x).
    """

    f: MPoly
    g: MPoly
    order: int | None = None

    def __post_init__(self):
        for p in (self.f, self.g):
            if "t" in p.vars:
                raise ValueError("initial data must not involve the time variable")
            if not set(p.vars) <= {"x", "c"}:
                raise ValueError(f"initial data variables {p.vars} not in (x, c)")

    @classmethod
    def from_polys(cls, f, g) -> InitialData:
        return cls(_as_x_poly(f), _as_x_poly(g), None)


def _as_x_poly(p) -> MPoly:
    if isinstance(p, MPoly):
        return p
    return MPoly.const(("x",), p)


@dataclass(frozen=True)
class WaveSolution:
    """A wave body plus its speed, truncation order and construction origin."""

    body: MPoly
    c: object
    order: int | None
    provenance: str

    def residual(self) -> MPoly:
        return qwave_operator(self)

    def residual_is_zero(self) -> bool:
        r = self.residual()
        if self.order is not None:
            r = r.truncate_total_degree(self.order - 2, names=_XT)
        return r.is_zero()


def speed_poly(variables, c) -> MPoly:
    """The wave speed as a one-term polynomial over the given variables: the
    variable c for the symbolic speed, a nonzero constant otherwise."""
    speed = _as_speed(c)
    if _is_symbolic(speed):
        if SYMBOLIC_SPEED not in variables:
            raise ValueError("symbolic speed requires a polynomial with a c variable")
        return MPoly.var(variables, SYMBOLIC_SPEED)
    return MPoly.const(variables, speed)


def q_binomial_substitute(p, sign: str, c) -> MPoly:
    """Apply x**n -> (x + sign * c t)_q**n linearly to a polynomial.

    The result is homogeneous degree by degree: a source term of x-degree n
    contributes only monomials of total (x, t)-degree n.
    """
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    p = _as_x_poly(p)
    ct = MPoly.var(_XTC, "t") * speed_poly(_XTC, c)
    # c stays a variable of the result when the source or the speed has it
    out_vars = _XTC if "c" in p.vars or ct.degree_in("c") else _XT
    b = ct.with_vars(out_vars).scale(1 if sign == "+" else -1)
    return q_binomial_expand(p.with_vars(out_vars), "x", b)


def qwave_operator(u, c=None) -> MPoly:
    """Exact application of (D_{1/q}^t)^2 - c^2 (D_q^x)^2."""
    if isinstance(u, WaveSolution):
        body, speed = u.body, u.c if c is None else c
    else:
        body, speed = u, c
    speed = speed_poly(body.vars, speed if speed is not None else SYMBOLIC_SPEED)
    dtt = body.q_derivative("t", "1/q").q_derivative("t", "1/q")
    dxx = body.q_derivative("x", "q").q_derivative("x", "q")
    return dtt - dxx * speed**2


def dalembert_solve(data: InitialData, c) -> WaveSolution:
    """Solve the q-wave initial-value problem in closed form.

    u = even_t(f(x+ct)_q) + odd_t(G(x+ct)_q) / c, G the Jackson antiderivative
    of g, one expansion per datum (see the module docstring).  The output is
    checked against all three defining conditions before it is returned.
    """
    speed = _as_speed(c)
    # c is a variable of the body when the speed or either datum has it
    with_c = _is_symbolic(speed) or "c" in data.f.vars + data.g.vars
    xc = ("x", "c") if with_c else ("x",)
    even = _t_parity(q_binomial_substitute(data.f.with_vars(xc), "+", speed), 0)
    big_g = data.g.with_vars(xc).jackson_antiderivative("x")
    odd = _t_parity(q_binomial_substitute(big_g, "+", speed), 1)
    u = even + odd / speed_poly(odd.vars, speed)
    ws = WaveSolution(u, speed, data.order, "dalembert")
    _check_solution(ws, data)
    return ws


def _t_parity(p: MPoly, parity: int) -> MPoly:
    """The terms of a body over (x, t[, c]) whose t-degree has the given parity."""
    terms = p.terms.items()
    return MPoly._raw(p.vars, {e: v for e, v in terms if e[1] % 2 == parity})


def _check_solution(ws: WaveSolution, data: InitialData):
    u = ws.body
    zero_t = u.substitute("t", 0)
    if zero_t != data.f.with_vars(u.vars):
        raise PostconditionError("solver postcondition failed: u(x, 0) != f")
    velocity = u.q_derivative("t", "1/q").substitute("t", 0)
    if velocity != data.g.with_vars(u.vars):
        raise PostconditionError("solver postcondition failed: initial q-velocity != g")
    if not ws.residual_is_zero():
        raise PostconditionError("solver postcondition failed: nonzero wave residual")


def named_source(name: str, order: int) -> tuple[MPoly, int]:
    """A named initial datum in x and the total degree through which it is exact.

    For cos_q/sin_q the order bounds the x-degree of the series.  For the
    q-Gaussian (classical factorials, term (-1)^n x^(2n)/n!) the order counts
    series terms, so the source has degree 2*order and is exact through
    total degree 2*order + 1.
    """
    if order < 0:
        raise UnsupportedOrderError("order must be >= 0")
    if name in ("cos_q", "sin_q"):
        return q_trig_series(name, order), order
    if name == "q-gaussian":
        source = MPoly(
            ("x",),
            {
                (2 * n,): Fraction((-1) ** n, math.factorial(n))
                for n in range(order + 1)
            },
        )
        return source, 2 * order + 1
    raise ValueError(f"unknown named wave {name!r}")


def named_wave(name: str, sign: str, c, order: int) -> WaveSolution:
    """Ready-made traveling wave: the named source carried along x -+ ct."""
    speed = _as_speed(c)
    source, exact = named_source(name, order)
    body = q_binomial_substitute(source, sign, speed)
    return WaveSolution(body, speed, exact, "named-series")


def sample_grid(u: WaveSolution, q_value, c_value, x_grid, t_grid):
    """Evaluate a wave body on a float grid, x-major then t.

    Returns rows (x, t, value, valid).  For truncated-series bodies the valid
    flag goes False where the top truncation band (total degree >= order - 1)
    contributes more than 1e-6 of the value magnitude, signalling that the
    point is outside the stated validity of the truncation.
    """
    q_value = float(q_value)
    if q_value <= 0:
        raise ValueError("numeric sampling needs q > 0")
    c_value = float(c_value)
    body = u.body
    coeffs = []
    for e, coef in body.terms.items():
        z = coef_to_complex(coef, q_value)
        exps = dict(zip(body.vars, e))
        coeffs.append(
            (exps.get("x", 0), exps.get("t", 0), exps.get("c", 0), complex(z))
        )
    order = u.order
    rows = []
    for x in x_grid:
        x = float(x)
        for t in t_grid:
            t = float(t)
            total = 0j
            tail = 0.0
            for a, b, g, z in coeffs:
                v = z * (x**a) * (t**b) * (c_value**g)
                total += v
                if order is not None and a + b >= order - 1:
                    tail += abs(v)
            value = total.real
            valid = order is None or tail <= 1e-6 * max(1.0, abs(value))
            rows.append((x, t, value, valid))
    return rows
