"""q-wave module tests: substitution, operators, the IVP solver, sampling."""

import ast
import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcalc.coeffs import (
    CE_ONE,
    CE_Q,
    CoefExpr,
    GaussianRational,
    LaurentPoly,
)
from qcalc import polys, qwave
from qcalc.identities import one_directional_check
from qcalc.polys import MPoly, coef_to_complex
from qcalc.qcore import gauss_binomial, q_factorial, q_int, q_trig_series
from qcalc.qwave import (
    SYMBOLIC_SPEED,
    InitialData,
    PostconditionError,
    WaveSolution,
    dalembert_solve,
    named_wave,
    poly_from_coefficients,
    q_binomial_substitute,
    qwave_operator,
    sample_grid,
    speed_poly,
)
from qcalc.serialize import mpoly_to_json

X2 = poly_from_coefficients([0, 0, 1])
XTC = ("x", "t", "c")


def _eval_exact(body: MPoly, q0: Fraction, point: dict) -> GaussianRational:
    total = GaussianRational(0)
    for e, coef in body.terms.items():
        v = coef.eval_q(q0)
        for var, d in zip(body.vars, e):
            if d:
                v = v * GaussianRational(point[var] ** d)
        total = total + v
    return total


def _random_datum(rng: random.Random, with_c: bool) -> MPoly:
    """A random polynomial in x, or in x and c; one that has c is nonzero."""
    if not with_c:
        return poly_from_coefficients(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 7))]
        )
    terms = {
        (rng.randint(0, 6), rng.randint(0, 2)): Fraction(rng.randint(1, 9), rng.randint(1, 4))
        for _ in range(rng.randint(1, 6))
    }
    return MPoly(("x", "c"), terms)


def _four_substitution_body(data: InitialData, c) -> MPoly:
    """The d'Alembert formula taken literally: (f+ + f-)/2 + (G+ - G-)/(2c)
    from four expansions, every cancelling power of t built and dropped; a
    symbolic speed is divided out of the exponents of c by hand."""
    f, big_g = data.f, data.g.jackson_antiderivative("x")
    u = (q_binomial_substitute(f, "+", c) + q_binomial_substitute(f, "-", c)).scale(
        Fraction(1, 2)
    )
    if big_g.is_zero():
        return u
    diff = q_binomial_substitute(big_g, "+", c) - q_binomial_substitute(big_g, "-", c)
    if c == SYMBOLIC_SPEED:
        i = diff.vars.index("c")
        integral = MPoly(
            diff.vars,
            {e[:i] + (e[i] - 1,) + e[i + 1 :]: v / 2 for e, v in diff.terms.items()},
        )
    else:
        integral = diff.scale((CoefExpr.of(c) * 2).inverse())
    target = max(u.vars, integral.vars, key=len)
    return u.with_vars(target) + integral.with_vars(target)


def _parity_split_body(data: InitialData, c) -> MPoly:
    """The solver's earlier route, kept as its oracle: the whole expansions
    f(x + ct)_q and G(x + ct)_q by q_binomial_substitute, then the even
    t-degrees of the first plus the odd t-degrees of the second divided by
    the speed."""
    with_c = c == SYMBOLIC_SPEED or "c" in data.f.vars + data.g.vars
    xc = ("x", "c") if with_c else ("x",)

    def t_parity(p: MPoly, parity: int) -> MPoly:
        return MPoly(p.vars, {e: v for e, v in p.terms.items() if e[1] % 2 == parity})

    even = t_parity(q_binomial_substitute(data.f.with_vars(xc), "+", c), 0)
    big_g = data.g.with_vars(xc).jackson_antiderivative("x")
    odd = t_parity(q_binomial_substitute(big_g, "+", c), 1)
    return even + odd / speed_poly(odd.vars, c)


def _stored(p: MPoly) -> tuple:
    """What a body stores, in order: its variables and each term's exponents,
    numerator and denominator, so equal means the same wire bytes."""
    return p.vars, [(e, v.num, v.den) for e, v in p.terms.items()]


class TestValueClasses:
    """InitialData and WaveSolution: fields, defaults, equality, repr, immutability."""

    def test_initial_data(self):
        zero = MPoly.zero(("x",))
        data = InitialData(f=X2, g=zero)
        assert (data.f, data.g, data.order) == (X2, zero, None)
        assert data == InitialData(X2, zero, None) == InitialData.from_polys(X2, 0)
        assert data != InitialData(X2, zero, 3)
        assert repr(data) == f"InitialData(f={X2!r}, g={zero!r}, order=None)"
        with pytest.raises(ValueError, match="time variable"):
            InitialData(f=X2, g=MPoly(("x", "t"), {(0, 1): 1}), order=2)
        # the inherited tuple constructors go through the same checks
        assert data._replace(order=3) == InitialData(X2, zero, 3)
        with pytest.raises(ValueError, match="time variable"):
            data._replace(f=MPoly(("x", "t"), {(0, 1): 1}))

    def test_wave_solution(self):
        body = MPoly(("x", "t"), {(1, 0): 1})
        ws = WaveSolution(body=body, c=CE_ONE, order=None, provenance="direct-binomial")
        assert ws == WaveSolution(body, CE_ONE, None, "direct-binomial")
        assert ws != WaveSolution(body, CE_ONE, 4, "direct-binomial")
        for field in ("body=", "c=", "order=None", "provenance='direct-binomial'"):
            assert field in repr(ws)
        assert repr(ws).startswith("WaveSolution(")

    @pytest.mark.parametrize("attr", ["order", "f", "body", "extra"])
    def test_assignment_is_refused(self, attr):
        data = InitialData(X2, MPoly.zero(("x",)))
        ws = WaveSolution(X2, CE_ONE, None, "direct-binomial")
        for value in (data, ws):
            with pytest.raises(AttributeError):
                setattr(value, attr, None)


class TestSubstitute:
    def test_quadratic_minus(self):
        got = q_binomial_substitute(X2, "-", SYMBOLIC_SPEED)
        expected = MPoly(
            XTC,
            {(2, 0, 0): 1, (1, 1, 1): CoefExpr.of(-q_int(2)), (0, 2, 2): CE_Q},
        )
        assert got == expected

    def test_constant_unchanged(self):
        got = q_binomial_substitute(MPoly.const(("x",), 5), "+", Fraction(2))
        assert got == MPoly.const(("x", "t"), 5)

    def test_numeric_speed(self):
        c = Fraction(3, 2)
        got = q_binomial_substitute(X2, "-", c)
        assert got == MPoly(
            ("x", "t"),
            {
                (2, 0): 1,
                (1, 1): CoefExpr.of(q_int(2)) * (-c),
                (0, 2): CE_Q * CoefExpr.of(c * c),
            },
        )

    def test_series_termwise(self):
        cos6 = q_trig_series("cos", 6)
        got = q_binomial_substitute(cos6, "+", SYMBOLIC_SPEED)
        # the t^0 slice is the original series
        for d in range(7):
            assert got.coefficient((d, 0, 0)) == cos6.coefficient((d,))
        # a mixed monomial carries the Gaussian-binomial weight over the same
        # factorial denominator: x^6 -> ... + gauss(6,2) q (ct)^2 x^4 + ...
        expected = CoefExpr(
            (LaurentPoly.term(2) * gauss_binomial(6, 2)).scale(-1), q_factorial(6)
        )
        assert got.coefficient((4, 2, 2)) == expected

    def test_sign_validation(self):
        with pytest.raises(ValueError):
            q_binomial_substitute(X2, "*", 1)

    def test_zero_speed_rejected(self):
        with pytest.raises(ValueError):
            q_binomial_substitute(X2, "+", 0)


class TestWaveOperator:
    def test_traveling_quadratic(self):
        u = q_binomial_substitute(X2, "-", SYMBOLIC_SPEED)
        assert qwave_operator(u, SYMBOLIC_SPEED).is_zero()

    def test_printed_solution(self):
        u = MPoly(XTC, {(2, 0, 0): 1, (0, 2, 2): CE_Q})
        assert qwave_operator(u, SYMBOLIC_SPEED).is_zero()

    def test_bilinear_monomial(self):
        u = MPoly(("x", "t"), {(1, 1): 1})
        assert qwave_operator(u, Fraction(5)).is_zero()

    def test_nonsolution_detected(self):
        u = MPoly(("x", "t"), {(0, 2): 1})
        assert not qwave_operator(u, Fraction(1)).is_zero()

    def test_body_without_t_or_x(self):
        # a variable the body lacks has a zero derivative, not an error
        x2 = WaveSolution(MPoly(("x",), {(2,): 1}), 1, None, "unknown")
        assert not x2.residual_is_zero()
        assert qwave_operator(x2.body, 1) == MPoly.const(("x",), -q_int(2))
        assert WaveSolution(MPoly(("x",), {(1,): 3}), 1, None, "unknown").residual_is_zero()
        assert WaveSolution(MPoly(("x",), {(1,): 3}), 1, 4, "unknown").residual_is_zero()
        t2 = MPoly(("t", "c"), {(2, 0): 1, (1, 1): 5})
        assert qwave_operator(t2, SYMBOLIC_SPEED) == MPoly.const(("t", "c"), q_int(2).invert_s())


def _composed_operator(body: MPoly, c) -> MPoly:
    """Reference for qwave_operator: (D_{1/q}^t)^2 - c^2 (D_q^x)^2 composed
    from whole-body passes, two q-derivatives in each variable, then
    dtt - dxx * speed^2."""
    speed = speed_poly(body.vars, c)
    dtt = body.q_derivative("t", "1/q").q_derivative("t", "1/q")
    dxx = body.q_derivative("x", "q").q_derivative("x", "q")
    return dtt - dxx * speed**2


_OPERATOR_COEFS = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=9).map(CoefExpr.of),
    # q-dependent and complex, over a q-integer denominator
    st.builds(
        lambda terms, k: CoefExpr(LaurentPoly(terms), q_int(k)),
        st.dictionaries(
            st.integers(-3, 4), st.builds(GaussianRational, st.integers(-4, 4), st.integers(-2, 2)),
            min_size=1, max_size=3,
        ),
        st.integers(1, 3),
    ),
)
# rational, symbolic, and the q-dependent 1/[2]_q, q and -[3]_q
_OPERATOR_SPEEDS = [Fraction(3, 5), Fraction(-7, 2), SYMBOLIC_SPEED,
                    CoefExpr(LaurentPoly.const(1), q_int(2)), CE_Q, CoefExpr.of(-q_int(3))]


@st.composite
def _operator_cases(draw):
    """(body, speed): a body over (x, t), or (x, t, c) whenever the speed is
    symbolic; its degrees are capped at 1 (no q-derivative survives twice),
    3 or 6."""
    c = draw(st.sampled_from(_OPERATOR_SPEEDS))
    with_c = c == SYMBOLIC_SPEED or draw(st.booleans())
    variables = XTC if with_c else ("x", "t")
    top = draw(st.sampled_from([1, 3, 6]))
    degrees = st.tuples(*[st.integers(0, top)] * len(variables))
    return MPoly(variables, draw(st.dictionaries(degrees, _OPERATOR_COEFS, max_size=8))), c


def _solve_poly_wave() -> WaveSolution:
    """A solve of 15 + 15 seeded 30-bit rational coefficients at c = 5/9."""
    rng = random.Random(1)

    def rational30():
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1 << 29, 1 << 30),
                        rng.randrange(1 << 29, 1 << 30))

    f, g = ([rational30() for _ in range(15)] for _ in range(2))
    data = InitialData(poly_from_coefficients(f), poly_from_coefficients(g))
    return dalembert_solve(data, Fraction(5, 9))


class TestOperatorAgainstComposedPasses:
    """qwave_operator's one pass over the body against the composed passes."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_operator_cases())
    @example((MPoly(("x", "t"), {(1, 1): 1, (0, 1): 3, (1, 0): 2}), Fraction(5)))
    @example((MPoly(XTC, {(2, 0, 0): 1, (0, 2, 2): CE_Q}), SYMBOLIC_SPEED))
    @example((MPoly(XTC, {(2, 0, 1): 1, (0, 2, 0): 2}), SYMBOLIC_SPEED))
    @example((MPoly(("x", "t"), {(3, 2): 1, (5, 0): CE_Q}), CoefExpr.of(-q_int(3))))
    def test_equals_the_composed_operator(self, case):
        body, c = case
        got, want = qwave_operator(body, c), _composed_operator(body, c)
        assert got == want
        assert got.vars == body.vars and got.is_zero() == want.is_zero()

    # the solver's bodies at their own speed, and at a speed they do not solve for
    @pytest.mark.parametrize("build, speed, solves", [
        (lambda: _cos_sin_wave(20).body, Fraction(5, 7), True),
        (lambda: _cos_sin_wave(20).body, Fraction(1), False),
        (lambda: _cos_sin_wave(20).body.with_vars(XTC), SYMBOLIC_SPEED, False),
        (lambda: _solve_poly_wave().body, Fraction(5, 9), True),
        (lambda: _solve_poly_wave().body, CE_Q, False),
        (lambda: q_binomial_substitute(X2, "-", SYMBOLIC_SPEED), SYMBOLIC_SPEED, True),
    ], ids=["cos-sin-20", "cos-sin-20-at-1", "cos-sin-20-symbolic", "solve-poly",
            "solve-poly-at-q", "traveling-quadratic"])
    def test_solver_bodies(self, build, speed, solves):
        body = build()
        got, want = qwave_operator(body, speed), _composed_operator(body, speed)
        assert got == want
        assert got.is_zero() == want.is_zero() == solves


class TestOneDirectional:
    def test_matched_and_mismatched(self):
        v = one_directional_check(2, "-")
        assert v.ok
        assert not v.residual.is_zero()

    def test_linear_mismatch_value(self):
        v = one_directional_check(1, "-")
        assert v.residual == MPoly(XTC, {(0, 0, 1): -2})

    def test_degree_zero(self):
        v = one_directional_check(0, "+")
        assert v.ok and v.residual.is_zero()

    def test_numeric_speed(self):
        assert one_directional_check(3, "+", Fraction(2, 7)).ok


class TestDalembert:
    def test_pure_displacement_quadratic(self):
        data = InitialData.from_polys(X2, MPoly.zero(("x",)))
        ws = dalembert_solve(data, SYMBOLIC_SPEED)
        assert ws.body == MPoly(XTC, {(2, 0, 0): 1, (0, 2, 2): CE_Q})
        assert ws.provenance == "dalembert"

    def test_quadratic_with_velocity(self):
        g = MPoly(("x", "c"), {(1, 1): CoefExpr.of(-q_int(2))})
        ws = dalembert_solve(InitialData(X2, g), SYMBOLIC_SPEED)
        assert ws.body == q_binomial_substitute(X2, "-", SYMBOLIC_SPEED)

    def test_zero_velocity_reduction(self):
        rng = random.Random(3)
        f = poly_from_coefficients([Fraction(rng.randint(-5, 5)) for _ in range(6)])
        data = InitialData.from_polys(f, MPoly.zero(("x",)))
        c = Fraction(3, 4)
        ws = dalembert_solve(data, c)
        expected = (
            q_binomial_substitute(f, "+", c) + q_binomial_substitute(f, "-", c)
        ).scale(Fraction(1, 2))
        assert ws.body == expected

    def test_zero_speed_rejected(self):
        data = InitialData.from_polys(X2, MPoly.zero(("x",)))
        with pytest.raises(ValueError):
            dalembert_solve(data, 0)

    def test_formal_parameter_rides_along_numeric_speed(self):
        # c in the data acts as a formal parameter when the speed is numeric
        f = MPoly(("x", "c"), {(2, 1): 1})
        g = MPoly(("x",), {(1,): 1})
        ws = dalembert_solve(InitialData(f, g), Fraction(2))
        u = ws.body
        assert u.substitute("t", 0) == f.with_vars(u.vars)
        assert u.q_derivative("t", "1/q").substitute("t", 0) == g.with_vars(u.vars)
        assert qwave_operator(u, Fraction(2)).is_zero()

    def test_postcondition_on_the_displacement(self, monkeypatch):
        weights = qwave.q_binomial_weights
        monkeypatch.setattr(qwave, "q_binomial_weights", lambda n: [2 * w for w in weights(n)])
        with pytest.raises(PostconditionError) as caught:
            dalembert_solve(InitialData.from_polys(X2, X2), Fraction(1))
        assert str(caught.value) == "solver postcondition failed: u(x, 0) != f"

    def test_postcondition_on_the_velocity(self, monkeypatch):
        # G enters only the t-odd half, so u(x, 0) stays f
        antiderivative = MPoly.jackson_antiderivative
        monkeypatch.setattr(
            MPoly, "jackson_antiderivative", lambda p, var: antiderivative(p, var).scale(2)
        )
        with pytest.raises(PostconditionError) as caught:
            dalembert_solve(InitialData.from_polys(X2, X2), Fraction(1))
        assert str(caught.value) == "solver postcondition failed: initial q-velocity != g"

    def test_time_variable_rejected_in_data(self):
        with pytest.raises(ValueError):
            InitialData(MPoly(("x", "t"), {(1, 1): 1}), MPoly.zero(("x",)))

    def test_random_ivps_satisfy_all_conditions(self):
        rng = random.Random(99)
        for _ in range(25):
            deg_f = rng.randint(0, 8)
            deg_g = rng.randint(0, 8)
            f = poly_from_coefficients(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg_f + 1)]
            )
            g = poly_from_coefficients(
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg_g + 1)]
            )
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
            ws = dalembert_solve(InitialData.from_polys(f, g), c)
            u = ws.body
            assert u.substitute("t", 0) == f.with_vars(u.vars)
            velocity = u.q_derivative("t", "1/q").substitute("t", 0)
            assert velocity == g.with_vars(u.vars)
            assert qwave_operator(u, c).is_zero()

    def test_matches_the_four_substitution_formula(self):
        """The parity solver against (f+ + f-)/2 + (G+ - G-)/(2c) built from
        four expansions, on 30 seeded IVPs: rational speeds compare as wire
        documents, symbolic and q-dependent speeds by ==; every other IVP
        has data that carries c."""
        rng = random.Random(20261018)
        q_speeds = (CoefExpr(LaurentPoly.const(1), q_int(2)), CE_Q, CoefExpr.of(-q_int(3)))
        for k in range(30):
            with_c = k % 2 == 1
            f = _random_datum(rng, with_c and rng.random() < 0.5)
            g = _random_datum(rng, with_c)
            kind = k % 3
            if kind == 0:
                c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
            elif kind == 1:
                c = SYMBOLIC_SPEED
            else:
                c = rng.choice(q_speeds)
            data = InitialData(f, g)
            got = dalembert_solve(data, c).body
            expected = _four_substitution_body(data, c)
            if kind == 0:
                assert mpoly_to_json(got) == mpoly_to_json(expected)
            else:
                assert got == expected

    def test_classical_limit_matches_dalembert(self):
        """At s = 1 the solver output equals the classical d'Alembert formula."""
        rng = random.Random(41)
        vs = ("x", "t")
        for _ in range(6):
            f = poly_from_coefficients(
                [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))]
            )
            g = poly_from_coefficients(
                [Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 6))]
            )
            c = Fraction(rng.randint(1, 5))
            ws = dalembert_solve(InitialData.from_polys(f, g), c)

            x_plus = MPoly(vs, {(1, 0): 1, (0, 1): c})
            x_minus = MPoly(vs, {(1, 0): 1, (0, 1): -c})

            def classical_sub(p, arg):
                out = MPoly.zero(vs)
                for (d,), coef in p.terms.items():
                    out = out + (arg**d).scale(coef.at_one())
                return out

            big_g = MPoly(
                ("x",),
                {
                    (d + 1,): coef.at_one() * GaussianRational(Fraction(1, d + 1))
                    for (d,), coef in g.terms.items()
                },
            )
            expected = (
                classical_sub(f, x_plus) + classical_sub(f, x_minus)
            ).scale(Fraction(1, 2)) + (
                classical_sub(big_g, x_plus) - classical_sub(big_g, x_minus)
            ).scale(
                Fraction(1, 2) / c
            )
            assert ws.body.at_s_one() == expected

    def test_shape_not_preserved_for_cubic(self):
        """Exact zeros of the cubic traveling wave sit at q^k c t, so the gap
        pattern rescales with t instead of translating."""
        q0 = Fraction(2)
        c = Fraction(1)
        u = q_binomial_substitute(poly_from_coefficients([0, 0, 0, 1]), "-", c)
        for t0 in (Fraction(1), Fraction(2)):
            for k in range(3):
                point = {"x": q0**k * c * t0, "t": t0}
                assert _eval_exact(u, q0, point).is_zero()
        gaps1 = [q0**k * c - q0 ** (k - 1) * c for k in range(1, 3)]
        gaps2 = [2 * g for g in gaps1]
        assert gaps1 != gaps2  # not a translate: the zero spacing scales


@st.composite
def _ivp_cases(draw):
    """(f, g, speed): each datum in x, or in x and c, with rational or
    q-dependent coefficients, at a rational, symbolic or q-dependent speed."""
    def datum():
        if draw(st.booleans()):
            variables, degrees = ("x", "c"), st.tuples(st.integers(0, 7), st.integers(0, 2))
        else:
            variables, degrees = ("x",), st.tuples(st.integers(0, 7))
        return MPoly(variables, draw(st.dictionaries(degrees, _OPERATOR_COEFS, max_size=6)))

    speeds = st.fractions(-9, 9, max_denominator=9).filter(bool)
    c = draw(speeds | st.sampled_from(_OPERATOR_SPEEDS))
    return datum(), datum(), c


class TestAgainstTheParitySplit:
    """The solver's one kernel pass per datum against the whole expansions
    split by t-parity: the same terms, values and order, so the same bytes."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_ivp_cases())
    # only one datum has c, at a rational and at the symbolic speed
    @example((MPoly(("x", "c"), {(2, 1): 1, (3, 0): 2}), X2, Fraction(5, 7)))
    @example((X2, MPoly(("x", "c"), {(1, 1): 3, (4, 2): -1}), Fraction(-2)))
    @example((X2, MPoly(("x", "c"), {(1, 1): CoefExpr.of(-q_int(2))}), SYMBOLIC_SPEED))
    @example((MPoly.zero(("x",)), MPoly.zero(("x",)), Fraction(1)))
    def test_drawn_polynomial_data(self, case):
        f, g, c = case
        data = InitialData(f, g)
        assert _stored(dalembert_solve(data, c).body) == _stored(_parity_split_body(data, c))

    @pytest.mark.parametrize("f_name, g_name, order, c", [
        ("cos_q", "sin_q", 8, Fraction(5, 7)),
        ("sin_q", "cos_q", 7, Fraction(-7, 3)),
        ("q-gaussian", "sin_q", 4, Fraction(3, 4)),
        ("q-gaussian", "q-gaussian", 3, Fraction(2)),
        ("cos_q", "q-gaussian", 5, SYMBOLIC_SPEED),
    ])
    def test_named_series_data(self, f_name, g_name, order, c):
        (f, f_exact), (g, g_exact) = (qwave.named_source(name, order) for name in (f_name, g_name))
        data = InitialData(f, g, min(f_exact, g_exact))
        assert _stored(dalembert_solve(data, c).body) == _stored(_parity_split_body(data, c))


class TestNamedWave:
    def test_q_gaussian_initial_slice(self):
        ws = named_wave("q-gaussian", "-", SYMBOLIC_SPEED, 2)
        at_zero = ws.body.substitute("t", 0)
        assert at_zero == MPoly(
            XTC,
            {(0, 0, 0): 1, (2, 0, 0): -1, (4, 0, 0): Fraction(1, 2)},
        )
        assert ws.order == 5

    def test_q_gaussian_second_term(self):
        ws = named_wave("q-gaussian", "-", SYMBOLIC_SPEED, 1)
        expected = MPoly.const(XTC, 1) - q_binomial_substitute(
            X2, "-", SYMBOLIC_SPEED
        ).with_vars(XTC)
        assert ws.body == expected

    def test_cos_structure(self):
        ws = named_wave("cos_q", "+", SYMBOLIC_SPEED, 4)
        sub2 = q_binomial_substitute(X2, "+", SYMBOLIC_SPEED)
        sub4 = q_binomial_substitute(poly_from_coefficients([0, 0, 0, 0, 1]), "+", SYMBOLIC_SPEED)
        expected = (
            MPoly.const(XTC, 1)
            - sub2.scale(CoefExpr(LaurentPoly({0: 1}), q_factorial(2)))
            + sub4.scale(CoefExpr(LaurentPoly({0: 1}), q_factorial(4)))
        )
        assert ws.body == expected

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_wave("tanh_q", "+", 1, 4)

    def test_residual_degree_filtered(self):
        ws = named_wave("cos_q", "+", SYMBOLIC_SPEED, 8)
        assert ws.residual_is_zero()


def _sample_grid_by_terms(u: WaveSolution, q_value, c_value, x_grid, t_grid):
    """Reference for sample_grid: every term's power product at every point,
    with the validity tail summed term by term."""
    q_value = float(q_value)
    c_value = float(c_value)
    coeffs = []
    for e, coef in u.body.terms.items():
        exps = dict(zip(u.body.vars, e))
        z = complex(coef_to_complex(coef, q_value))
        coeffs.append((exps.get("x", 0), exps.get("t", 0), exps.get("c", 0), z))
    rows = []
    for x in map(float, x_grid):
        for t in map(float, t_grid):
            total = 0j
            tail = 0.0
            for a, b, g, z in coeffs:
                v = z * (x**a) * (t**b) * (c_value**g)
                total += v
                if u.order is not None and a + b >= u.order - 1:
                    tail += abs(v)
            value = total.real
            valid = u.order is None or tail <= 1e-6 * max(1.0, abs(value))
            rows.append((x, t, value, valid))
    return rows


_sample_coef = st.builds(
    CoefExpr,
    st.dictionaries(
        st.integers(-3, 3),
        st.builds(
            GaussianRational,
            st.fractions(min_value=-5, max_value=5, max_denominator=5),
            st.fractions(min_value=-5, max_value=5, max_denominator=5),
        ),
        min_size=1,
        max_size=3,
    ).map(LaurentPoly),
    st.sampled_from([LaurentPoly({0: 1}), q_int(2), q_int(3), q_factorial(3), LaurentPoly({2: 1})]),
)


@st.composite
def _sampled_waves(draw):
    variables = draw(st.sampled_from([("x", "t"), XTC]))
    degree = st.integers(0, 4)
    terms = draw(
        st.dictionaries(st.tuples(*[degree] * len(variables)), _sample_coef, max_size=8)
    )
    order = draw(st.none() | st.integers(0, 9))
    # a body without c samples the same at every speed
    speed = SYMBOLIC_SPEED if "c" in variables else CE_ONE
    return WaveSolution(MPoly(variables, terms), speed, order, "direct-binomial")


def _horner(coeffs, x):
    """sum(c * x**k for k, c in enumerate(coeffs)), highest power first."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sample_grid_two_horner(u: WaveSolution, q_value, c_value, x_grid, t_grid):
    """sample_grid's earlier kernel, the bit-exact reference: each
    coefficient converted on its own, and separate Horner passes for the value
    and the tail at every x and every point."""
    return [
        (x, t, value, tail <= 1e-6 * max(1.0, abs(value)))
        for x, t, value, tail in _two_horner_points(u, q_value, c_value, x_grid, t_grid)
    ]


def _two_horner_points(u: WaveSolution, q_value, c_value, x_grid, t_grid):
    """(x, t, value, tail) at every point, x-major, by the two-Horner kernel."""
    q_value, c_value = float(q_value), float(c_value)
    body = u.body
    top = None if u.order is None else u.order - 1
    terms = []
    for e, coef in body.terms.items():
        exps = dict(zip(body.vars, e))
        v = complex(coef_to_complex(coef, q_value)) * c_value ** exps.get("c", 0)
        terms.append((exps.get("x", 0), exps.get("t", 0), v))
    width = 1 + max((a for a, _, _ in terms), default=0)
    height = 1 + max((b for _, b, _ in terms), default=0)
    value_rows = [[0.0] * width for _ in range(height)]
    tail_rows = [[0.0] * width for _ in range(height)]
    for a, b, v in terms:
        value_rows[b][a] += v.real
        if top is not None and a + b >= top:
            tail_rows[b][a] += abs(v)
    rows = []
    for x in map(float, x_grid):
        in_t = [_horner(row, x) for row in value_rows]
        tail_in_t = [_horner(row, abs(x)) for row in tail_rows]
        for t in map(float, t_grid):
            rows.append((x, t, _horner(in_t, t), _horner(tail_in_t, abs(t))))
    return rows


def _cos_sin_wave(order: int) -> WaveSolution:
    (f, exact), (g, _) = qwave.named_source("cos_q", order), qwave.named_source("sin_q", order)
    return dalembert_solve(InitialData(f, g, exact), Fraction(5, 7))


_coordinate = st.floats(-1.5, 1.5)
# Top-band terms that cancel: x t - x t c at c = 1 and x t + x t c at c = -1
# have value 0 but tail 2|x t|, which summing signed parts or merging the two
# terms before abs would lose; at x = -1 the tail must still use |x|.
_CANCELLING = WaveSolution(MPoly(XTC, {(1, 1, 0): 1, (1, 1, 1): -1}), SYMBOLIC_SPEED, 2, "direct-binomial")
_SIGNED = WaveSolution(MPoly(XTC, {(1, 1, 0): 1, (1, 1, 1): 1}), SYMBOLIC_SPEED, 2, "direct-binomial")


# The top band of this order-4 body, x^3 and x t^2 / 2, vanishes on the rows
# x = 0.0 and -0.0, which are certified; the other rows take the pair loop
# and mix flags.
_MIXED = WaveSolution(
    MPoly(("x", "t"), {(0, 0): 1, (3, 0): 1, (1, 2): Fraction(-1, 2)}), CE_ONE, 4, "direct-binomial"
)
_MIXED_XS, _MIXED_TS = [-0.5, -0.0, 0.005, 0.0], [-1.0, 0.0, 0.5]
# Rows at |x| <= 1e-3 are certified (band x^10); t^8 - x t^8 is below the
# band, so it overflows near |t| = 1e39 on those rows, at x = 1 it cancels,
# and at x = 10 it is -9 t^8 and overflows first.
_OVERFLOWING = WaveSolution(
    MPoly(("x", "t"), {(0, 8): 1, (1, 8): -1, (10, 0): 1}), CE_ONE, 11, "direct-binomial"
)


@functools.lru_cache(maxsize=None)
def _cached_cos_sin_wave(order: int) -> WaveSolution:
    return _cos_sin_wave(order)


@st.composite
def _grid_waves(draw):
    """Bodies whose t-rows start with zero x-coefficients: even in x, one
    term, the zero body, or the order-8 cos/sin solve."""
    shape = draw(st.sampled_from(["even-x", "one-term", "zero", "cos-sin"]))
    if shape == "cos-sin":
        return _cached_cos_sin_wave(8)
    if shape == "zero":
        terms = {}
    elif shape == "one-term":
        terms = {draw(st.tuples(st.integers(0, 6), st.integers(0, 6))): draw(_sample_coef)}
    else:
        degrees = st.tuples(st.integers(0, 3).map(lambda k: 2 * k), st.integers(0, 4))
        terms = draw(st.dictionaries(degrees, _sample_coef, max_size=6))
    order = draw(st.none() | st.integers(0, 9))
    return WaveSolution(MPoly(("x", "t"), terms), CE_ONE, order, "direct-binomial")


_grid_axis = st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0), max_size=4)


def _bits(rows) -> list:
    """Each row as the reprs of its fields: -0.0 apart from 0.0, True from 1."""
    return [tuple(map(repr, row)) for row in rows]


class TestSampleGrid:
    def test_time_zero_row_equals_f(self):
        data = InitialData.from_polys(X2, MPoly.zero(("x",)))
        ws = dalembert_solve(data, Fraction(1))
        xs = [0.0, 0.5, 1.0, 2.0]
        rows = sample_grid(ws, 0.5, 1.0, xs, [0.0])
        for (x, t, u, valid), x_in in zip(rows, xs):
            assert t == 0.0 and valid
            assert abs(u - x_in**2) < 1e-12

    def test_row_order_x_major(self):
        ws = WaveSolution(MPoly(("x", "t"), {(1, 0): 1}), CE_ONE, None, "direct-binomial")
        rows = sample_grid(ws, 2.0, 1.0, [0.0, 1.0], [0.0, 0.5])
        assert [(r[0], r[1]) for r in rows] == [
            (0.0, 0.0),
            (0.0, 0.5),
            (1.0, 0.0),
            (1.0, 0.5),
        ]

    def test_invalid_q(self):
        ws = WaveSolution(MPoly(("x", "t"), {(1, 0): 1}), CE_ONE, None, "direct-binomial")
        with pytest.raises(ValueError):
            sample_grid(ws, 0.0, 1.0, [0.0], [0.0])

    @pytest.mark.parametrize(
        "q, c", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, -math.inf)]
    )
    def test_non_finite_q_or_speed(self, q, c):
        ws = WaveSolution(MPoly(("x", "t"), {(1, 0): 1}), CE_ONE, None, "direct-binomial")
        with pytest.raises(ValueError, match="finite"):
            sample_grid(ws, q, c, [0.0], [0.0])

    def test_table_cell_cap(self, monkeypatch):
        monkeypatch.setattr(qwave, "_MAX_TABLE_CELLS", 100)
        at_cap = WaveSolution(MPoly(("x", "t"), {(9, 9): 1}), CE_ONE, None, "direct-binomial")
        [(_, _, value, _)] = sample_grid(at_cap, 0.5, 1.0, [2.0], [1.0])
        assert value == 2.0**9
        over = WaveSolution(MPoly(("x", "t"), {(10, 9): 1, (0, 0): 1}), CE_ONE, None, "direct-binomial")
        with pytest.raises(ValueError, match="110 table cells, more than 100"):
            sample_grid(over, 0.5, 1.0, [0.0], [0.0])

    def test_speed_power_out_of_range_names_c(self):
        ws = named_wave("cos_q", "+", SYMBOLIC_SPEED, 6)
        with pytest.raises(OverflowError, match="speed c=1e[+]300"):
            sample_grid(ws, 0.5, 1e300, [0.0], [0.0])

    def test_validity_flag_degrades_outside_range(self):
        ws = named_wave("cos_q", "-", Fraction(1), 6)
        near, far = sample_grid(ws, 0.5, 1.0, [0.1, 25.0], [0.0])
        assert near[3] is True or near[3] == 1
        assert not far[3]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        _sampled_waves(),
        st.floats(0.25, 4.0),
        _coordinate,
        st.lists(_coordinate, min_size=1, max_size=3),
        st.lists(_coordinate, min_size=1, max_size=3),
    )
    @example(_CANCELLING, 0.5, 1.0, [0.5], [0.5])
    @example(_SIGNED, 0.5, 1.0, [-1.0], [1.0])
    @example(_SIGNED, 0.5, -1.0, [1.0], [-1.0])
    def test_matches_the_term_by_term_sum(self, wave, q, c, xs, ts):
        rows = sample_grid(wave, q, c, xs, ts)
        expected = _sample_grid_by_terms(wave, q, c, xs, ts)
        assert [r[:2] for r in rows] == [r[:2] for r in expected]
        assert [r[3] for r in rows] == [r[3] for r in expected]
        for row, ref in zip(rows, expected):
            assert abs(row[2] - ref[2]) <= 1e-12 * max(1.0, abs(ref[2]))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        _sampled_waves(),
        st.floats(0.25, 4.0),
        _coordinate,
        st.lists(_coordinate, min_size=1, max_size=3),
        st.lists(_coordinate, min_size=1, max_size=3),
    )
    @example(_CANCELLING, 0.5, 1.0, [-0.5, 0.0, -0.0], [0.5, -0.25])
    @example(_SIGNED, 0.5, -1.0, [1.0], [-1.0, 1.0])
    # the largest |t| is at a negative t: the tail 2|x t| is within 1e-6 at
    # t = 0.5 but not at t = -1, so a row bound taken at max(t) would pass it
    @example(_SIGNED, 0.5, 1.0, [7e-7], [-1.0, 0.5])
    def test_bit_identical_to_the_two_horner_kernel(self, wave, q, c, xs, ts):
        assert list(sample_grid(wave, q, c, xs, ts)) == _sample_grid_two_horner(wave, q, c, xs, ts)

    def test_rows_with_and_without_a_tail_bound_match_the_two_horner_kernel(self):
        wave = _cos_sin_wave(20)
        # at q = 0.5 the band over t in [0, 1] is within 1e-6 on the rows near
        # x = 0 and not on the rows near |x| = 1
        xs, ts = [k / 20 for k in range(-20, 21)], [k / 4 for k in range(5)]
        rows = list(sample_grid(wave, 0.5, 1.0, xs, ts))
        assert rows == _sample_grid_two_horner(wave, 0.5, 1.0, xs, ts)
        assert {r[3] for r in rows} == {True, False}

    def test_polynomial_body_matches_the_two_horner_kernel(self):
        body = MPoly(("x", "t"), {(2, 0): 1, (1, 1): -3, (0, 3): 2})
        wave = WaveSolution(body, CE_ONE, None, "direct-binomial")
        xs, ts = [-2.0, -0.5, 0.0, 1.5, 40.0], [-3.0, 0.0, 2.5]
        rows = list(sample_grid(wave, 0.5, 1.0, xs, ts))
        assert rows == _sample_grid_two_horner(wave, 0.5, 1.0, xs, ts)
        assert all(r[3] is True for r in rows)

    @pytest.mark.parametrize("q", [0.5, 0.7, 0.95, 1.5])
    def test_order_20_wave_bit_identical_to_the_two_horner_kernel(self, q):
        wave = _cos_sin_wave(20)
        # (0, 0) is inside the truncation's validity and (x, 6) outside it
        xs, ts = [-1.0, -0.35, 0.0, 0.2, 1.0], [-6.0, -0.5, 0.0, 0.3, 1.0, 6.0]
        rows = list(sample_grid(wave, q, 1.0, xs, ts))
        assert rows == _sample_grid_two_horner(wave, q, 1.0, xs, ts)
        assert {r[3] for r in rows} == {True, False}

    def test_each_distinct_denominator_is_converted_once(self, monkeypatch):
        wave = _cos_sin_wave(20)
        coefs = list(wave.body.terms.values())
        distinct = []
        for coef in coefs:
            if coef.den not in distinct:
                distinct.append(coef.den)
        assert (len(coefs), len(distinct)) == (121, 11)
        converted = []
        real = polys._laurent_to_complex

        def counting(p, s_value):
            converted.append(p)
            return real(p, s_value)

        monkeypatch.setattr(polys, "_laurent_to_complex", counting)
        sample_grid(wave, 0.7, 1.0, [0.5], [0.5])
        # one conversion per numerator, one per distinct denominator
        assert len(converted) == len(coefs) + len(distinct)

    def test_non_finite_value_raises(self):
        ws = WaveSolution(MPoly(("x", "t"), {(2, 0): 10}), CE_ONE, None, "dalembert")
        with pytest.raises(OverflowError):
            sample_grid(ws, 0.5, 1.0, [1e154], [0.0])

    def test_symbolic_body_takes_numeric_speed(self):
        u_sym = q_binomial_substitute(X2, "-", SYMBOLIC_SPEED)
        u_num = q_binomial_substitute(X2, "-", Fraction(2))
        ws_sym = WaveSolution(u_sym, SYMBOLIC_SPEED, None, "direct-binomial")
        ws_num = WaveSolution(u_num, CoefExpr.of(2), None, "direct-binomial")
        rows_sym = sample_grid(ws_sym, 2.0, 2.0, [0.3, 1.7], [0.4])
        rows_num = sample_grid(ws_num, 2.0, 123.0, [0.3, 1.7], [0.4])
        for a, b in zip(rows_sym, rows_num):
            assert abs(a[2] - b[2]) < 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_grid_waves(), st.floats(0.25, 4.0), _grid_axis, _grid_axis)
    @example(_cached_cos_sin_wave(8), 0.5, [-4.0, -0.0, 0.0, 0.5, 4.0], [-0.0, 0.25, 1.0])
    @example(_MIXED, 0.5, _MIXED_XS, _MIXED_TS)
    @example(_MIXED, 0.5, [0.25], [-0.0])
    @example(_MIXED, 0.5, [0.25, -0.0], [])
    @example(WaveSolution(MPoly(("x", "t"), {}), CE_ONE, 3, "dalembert"), 0.5, [-1.0], [2.0])
    def test_grid_shapes_bit_identical_to_the_two_horner_kernel(self, wave, q, xs, ts):
        rows = sample_grid(wave, q, 1.0, xs, ts)
        assert _bits(rows) == _bits(_sample_grid_two_horner(wave, q, 1.0, xs, ts))

    def test_rows_read_like_a_list_of_row_tuples(self):
        rows = sample_grid(_MIXED, 0.5, 1.0, _MIXED_XS, _MIXED_TS)
        expected = _sample_grid_two_horner(_MIXED, 0.5, 1.0, _MIXED_XS, _MIXED_TS)
        assert {r[3] for r in expected} == {True, False}
        assert len(rows) == len(expected) == 12
        # x-major iteration, the same on a second pass
        assert _bits(rows) == _bits(rows) == _bits(expected)

    def test_certified_row_names_its_first_non_finite_point(self):
        # a polynomial body certifies every row; x t^2 leaves the float range
        # at t = 1e155 on the row x = 1 and stays in it on the row x = 1e-10
        ws = WaveSolution(MPoly(("x", "t"), {(1, 2): 1}), CE_ONE, None, "direct-binomial")
        xs, ts = [1e-10, 1.0], [0.0, 1e154, 1e155, -1e156, 1e153]
        message = r"^wave value at x=1\.0, t=1e\+155 is out of float range$"
        with pytest.raises(OverflowError, match=message):
            sample_grid(ws, 0.5, 1.0, xs, ts)

    @pytest.mark.parametrize("terms", [{}, {(0, 0): 1}, {(2, 1): 3}])
    @pytest.mark.parametrize(
        "xs, ts", [([1.0, math.inf], [0.5]), ([-math.inf], [0.5]), ([0.5], [0.0, math.nan])]
    )
    def test_non_finite_coordinate_raises(self, terms, xs, ts):
        ws = WaveSolution(MPoly(("x", "t"), terms), CE_ONE, None, "direct-binomial")
        with pytest.raises(OverflowError, match=f"x={xs[-1]!r}, t={ts[-1]!r} is out of float range"):
            sample_grid(ws, 0.5, 1.0, xs, ts)

    @pytest.mark.parametrize(
        "xs, ts, first",
        [
            ([1e-3, 10.0, 1e-3], [0.0, 3e38], (10.0, 3e38)),
            ([1.0, 1e-3], [0.0, 1e38, 1e39], (1e-3, 1e39)),
            ([1.0, -1e-3, 10.0], [1e39, -0.0, 3e38], (-1e-3, 1e39)),
        ],
    )
    def test_mixed_grid_raises_at_the_first_point_of_the_per_point_loop(self, xs, ts, first):
        points = _two_horner_points(_OVERFLOWING, 0.5, 1.0, xs, ts)
        bad = [(x, t) for x, t, value, tail in points
               if not (math.isfinite(value) and math.isfinite(tail))]
        assert bad[0] == first
        x, t = first
        with pytest.raises(OverflowError) as raised:
            sample_grid(_OVERFLOWING, 0.5, 1.0, xs, ts)
        assert str(raised.value) == f"wave value at x={x!r}, t={t!r} is out of float range"


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Each of those stdlib modules costs import time on every CLI run."""
    script = (
        "import sys, qcalc.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qwave.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout == "[]\n"


def test_package_import_graph():
    """Intra-package imports form a DAG, and qwave sits below the identity
    verifiers: it imports neither identities nor hermite."""
    src = Path(__file__).resolve().parent.parent / "src" / "qcalc"
    graph = {}
    for path in src.glob("*.py"):
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    deps.add(node.module.split(".")[0])
                else:
                    deps.update(alias.name for alias in node.names)
        graph[path.stem] = deps - {"__init__"}
    assert "qwave" in graph and not graph["qwave"] & {"identities", "hermite"}
    done, active = set(), []

    def visit(mod):
        assert mod not in active, f"import cycle: {' -> '.join(active + [mod])}"
        if mod in done:
            return
        active.append(mod)
        for dep in sorted(graph.get(mod, ())):
            visit(dep)
        active.pop()
        done.add(mod)

    for mod in sorted(graph):
        visit(mod)


X_XT = MPoly(("x", "t"), {(1, 0): 1})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: dalembert_solve(InitialData(X2, MPoly.zero(("x",))), "d"), ValueError,
         "unknown symbolic speed 'd'; use 'c'"),
        (lambda: InitialData(MPoly(("y",), {(1,): 1}), MPoly.zero(("y",))), ValueError,
         "initial data variables ('y',) not in (x, c)"),
        (lambda: speed_poly(("x", "t"), "c"), ValueError,
         "symbolic speed requires a polynomial with a c variable"),
        (lambda: InitialData(X2, X2, -1), ValueError, "initial data order -1 is negative"),
        (lambda: InitialData(X2, X2, 2.7), ValueError,
         "initial data order 2.7 is not an integer"),
        (lambda: InitialData(X2, X2, True), ValueError,
         "initial data order True is not an integer"),
        (lambda: InitialData(X2, X2, 3)._replace(order=-1), ValueError,
         "initial data order -1 is negative"),
        (lambda: WaveSolution(MPoly(("y",), {(1,): 1}), CE_ONE, None, "dalembert"), ValueError,
         "wave variables ['y'] are not within x, t, c"),
        (lambda: WaveSolution(X_XT, CE_ONE, 2.7, "dalembert"), ValueError,
         "wave order 2.7 is not an integer"),
        (lambda: WaveSolution(X_XT, CE_ONE, None, "x"), ValueError,
         "unknown wave provenance 'x'"),
        (lambda: WaveSolution(X_XT, SYMBOLIC_SPEED, None, "dalembert"), ValueError,
         "bad wave speed c: symbolic speed requires a polynomial with a c variable"),
        (lambda: WaveSolution(X_XT, CE_ONE, 3, "dalembert")._replace(order=-1), ValueError,
         "wave order -1 is negative"),
    ],
    ids=[
        "unknown-symbolic-speed", "foreign-initial-variable", "symbolic-speed-without-c",
        "initial-order-negative", "initial-order-fraction", "initial-order-bool",
        "initial-replace-order", "wave-variables", "wave-order", "wave-provenance",
        "wave-speed", "wave-replace-order",
    ],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
