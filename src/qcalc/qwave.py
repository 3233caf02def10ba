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
from collections import namedtuple
from fractions import Fraction

from .coeffs import CoefExpr, QCalcError, UnsupportedOrderError
from .polys import MPoly, coef_to_complex, q_binomial_expand
from .qcore import q_trig_series

__all__ = [
    "SYMBOLIC_SPEED",
    "NAMED_SOURCES",
    "MAX_GRID_POINTS",
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
_MAX_TABLE_CELLS = 2**22  # cells of each (x-degree + 1) x (t-degree + 1) table of sample_grid
MAX_GRID_POINTS = 2**22  # points on one grid axis, and rows of one sample_grid call


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


class InitialData(namedtuple("InitialData", "f g order")):
    """Initial displacement f and initial q-velocity g, univariate in x.

    order is None for exact polynomial data; for truncated series data it is
    the total degree through which both inputs are exact.  The polynomials may
    carry the symbolic speed variable (as g does in the worked quadratic
    example with initial velocity proportional to c x).  A named tuple, so it
    is immutable, equal when the fields are, and also iterable and equal to
    the plain tuple of its fields; _make and _replace run the checks of
    __new__ too.
    """

    __slots__ = ()

    def __new__(cls, f: MPoly, g: MPoly, order: int | None = None):
        for p in (f, g):
            if "t" in p.vars:
                raise ValueError("initial data must not involve the time variable")
            if not set(p.vars) <= {"x", "c"}:
                raise ValueError(f"initial data variables {p.vars} not in (x, c)")
        return super().__new__(cls, f, g, order)

    @classmethod
    def _make(cls, iterable) -> InitialData:
        return cls(*iterable)

    @classmethod
    def from_polys(cls, f, g) -> InitialData:
        return cls(_as_x_poly(f), _as_x_poly(g), None)


def _as_x_poly(p) -> MPoly:
    if isinstance(p, MPoly):
        return p
    return MPoly.const(("x",), p)


class WaveSolution(namedtuple("WaveSolution", "body c order provenance")):
    """A wave body plus its speed, truncation order and construction origin.
    A named tuple: immutable, equal when the fields are, and also iterable
    and equal to the plain tuple of its fields."""

    __slots__ = ()

    def residual_is_zero(self) -> bool:
        r = qwave_operator(self.body, self.c)
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


def qwave_operator(body: MPoly, c) -> MPoly:
    """Exact application of (D_{1/q}^t)^2 - c^2 (D_q^x)^2 to a wave body."""
    speed = speed_poly(body.vars, c)
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

    Returns rows (x, t, value, valid).  With each coefficient z evaluated at
    q and the speed variable c set to c_value, the term x^a t^b c^g is
    v = z * c_value**g * x**a * t**b; value is the real part of the sum of
    all v.  For truncated-series bodies (order set) the tail is the sum of
    |v| over the top truncation band, the terms with a + b >= order - 1, and
    valid is tail <= 1e-6 * max(1, |value|): False signals that the point is
    outside the stated validity of the truncation.  Bodies without an order
    are valid everywhere.

    The sums are taken by Horner's rule, first in x for each power of t,
    then in t; one loop over the (value, tail) coefficient pairs gives both
    at a point.  Each distinct denominator is converted to a float once.
    Raises ValueError when the grid has more than MAX_GRID_POINTS rows, when
    q is not finite and positive or c is not finite, or when the tables would
    exceed _MAX_TABLE_CELLS cells, and OverflowError when a power of c, a
    value or a tail is not finite.
    """
    size = len(x_grid) * len(t_grid)
    if size > MAX_GRID_POINTS:
        raise ValueError(f"a {len(x_grid)} x {len(t_grid)} grid has {size} rows, "
                         f"more than {MAX_GRID_POINTS}")
    q_value, c_value = float(q_value), float(c_value)
    if not (math.isfinite(q_value) and q_value > 0):
        raise ValueError(f"numeric sampling needs a finite q > 0, not {q_value!r}")
    if not math.isfinite(c_value):
        raise ValueError(f"numeric sampling needs a finite speed c, not {c_value!r}")
    body = u.body
    top = None if u.order is None else u.order - 1
    terms = []
    dens: dict = {}
    for e, coef in body.terms.items():
        exps = dict(zip(body.vars, e))
        g = exps.get("c", 0)
        try:
            c_power = c_value**g
        except OverflowError:
            message = f"speed c={c_value!r} to the power {g} is out of float range"
            raise OverflowError(message) from None
        v = complex(coef_to_complex(coef, q_value, dens)) * c_power
        terms.append((exps.get("x", 0), exps.get("t", 0), v))
    width = 1 + max((a for a, _, _ in terms), default=0)
    height = 1 + max((b for _, b, _ in terms), default=0)
    if width * height > _MAX_TABLE_CELLS:
        raise ValueError(f"a body of x-degree {width - 1} and t-degree {height - 1} needs "
                         f"{width * height} table cells, more than {_MAX_TABLE_CELLS}")
    # value_rows[b][a]: Re of the merged coefficient of x^a t^b (x, t and c
    # are real); tail_rows[b][a]: sum of |v| over its top-band terms, taken
    # before terms that differ only in the power of c are merged.
    value_rows = [[0.0] * width for _ in range(height)]
    tail_rows = [[0.0] * width for _ in range(height)]
    for a, b, v in terms:
        value_rows[b][a] += v.real
        if top is not None and a + b >= top:
            tail_rows[b][a] += abs(v)
    # Horner runs highest power first, so each table is read back to front
    x_pairs = [list(zip(reversed(vr), reversed(tr))) for vr, tr in zip(value_rows, tail_rows)]
    t_points = [(t, abs(t)) for t in map(float, t_grid)]
    rows = []
    for x in map(float, x_grid):
        ax = abs(x)
        t_pairs = []
        for pairs in reversed(x_pairs):
            value = tail = 0.0
            for v, w in pairs:
                value = value * x + v
                tail = tail * ax + w
            t_pairs.append((value, tail))
        for t, at in t_points:
            value = tail = 0.0
            for v, w in t_pairs:
                value = value * t + v
                tail = tail * at + w
            if not (math.isfinite(value) and math.isfinite(tail)):
                raise OverflowError(f"wave value at x={x!r}, t={t!r} is out of float range")
            rows.append((x, t, value, tail <= 1e-6 * max(1.0, abs(value))))
    return rows
