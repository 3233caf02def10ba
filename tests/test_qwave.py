"""q-wave module tests: substitution, operators, the IVP solver, sampling."""

import ast
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
        ws = WaveSolution(X2, CE_ONE, None, "x")
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
        def doubled(p, sign, c):
            return q_binomial_substitute(p, sign, c).scale(2)

        monkeypatch.setattr(qwave, "q_binomial_substitute", doubled)
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
    return WaveSolution(MPoly(variables, terms), SYMBOLIC_SPEED, order, "direct-binomial")


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
            value = _horner(in_t, t)
            tail = _horner(tail_in_t, abs(t))
            rows.append((x, t, value, tail <= 1e-6 * max(1.0, abs(value))))
    return rows


def _cos_sin_wave(order: int) -> WaveSolution:
    (f, exact), (g, _) = qwave.named_source("cos_q", order), qwave.named_source("sin_q", order)
    return dalembert_solve(InitialData(f, g, exact), Fraction(5, 7))


_coordinate = st.floats(-1.5, 1.5)
# Top-band terms that cancel: x t - x t c at c = 1 and x t + x t c at c = -1
# have value 0 but tail 2|x t|, which summing signed parts or merging the two
# terms before abs would lose; at x = -1 the tail must still use |x|.
_CANCELLING = WaveSolution(MPoly(XTC, {(1, 1, 0): 1, (1, 1, 1): -1}), SYMBOLIC_SPEED, 2, "x")
_SIGNED = WaveSolution(MPoly(XTC, {(1, 1, 0): 1, (1, 1, 1): 1}), SYMBOLIC_SPEED, 2, "x")


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
        ws = WaveSolution(MPoly(("x", "t"), {(1, 0): 1}), CE_ONE, None, "x")
        with pytest.raises(ValueError):
            sample_grid(ws, 0.0, 1.0, [0.0], [0.0])

    @pytest.mark.parametrize(
        "q, c", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, -math.inf)]
    )
    def test_non_finite_q_or_speed(self, q, c):
        ws = WaveSolution(MPoly(("x", "t"), {(1, 0): 1}), CE_ONE, None, "x")
        with pytest.raises(ValueError, match="finite"):
            sample_grid(ws, q, c, [0.0], [0.0])

    def test_table_cell_cap(self, monkeypatch):
        monkeypatch.setattr(qwave, "_MAX_TABLE_CELLS", 100)
        at_cap = WaveSolution(MPoly(("x", "t"), {(9, 9): 1}), CE_ONE, None, "x")
        assert sample_grid(at_cap, 0.5, 1.0, [2.0], [1.0])[0][2] == 2.0**9
        over = WaveSolution(MPoly(("x", "t"), {(10, 9): 1, (0, 0): 1}), CE_ONE, None, "x")
        with pytest.raises(ValueError, match="110 table cells, more than 100"):
            sample_grid(over, 0.5, 1.0, [0.0], [0.0])

    def test_speed_power_out_of_range_names_c(self):
        ws = named_wave("cos_q", "+", SYMBOLIC_SPEED, 6)
        with pytest.raises(OverflowError, match="speed c=1e[+]300"):
            sample_grid(ws, 0.5, 1e300, [0.0], [0.0])

    def test_validity_flag_degrades_outside_range(self):
        ws = named_wave("cos_q", "-", Fraction(1), 6)
        rows = sample_grid(ws, 0.5, 1.0, [0.1, 25.0], [0.0])
        near, far = rows[0], rows[1]
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
    def test_bit_identical_to_the_two_horner_kernel(self, wave, q, c, xs, ts):
        assert sample_grid(wave, q, c, xs, ts) == _sample_grid_two_horner(wave, q, c, xs, ts)

    @pytest.mark.parametrize("q", [0.5, 0.7, 0.95, 1.5])
    def test_order_20_wave_bit_identical_to_the_two_horner_kernel(self, q):
        wave = _cos_sin_wave(20)
        # (0, 0) is inside the truncation's validity and (x, 6) outside it
        xs, ts = [-1.0, -0.35, 0.0, 0.2, 1.0], [-6.0, -0.5, 0.0, 0.3, 1.0, 6.0]
        rows = sample_grid(wave, q, 1.0, xs, ts)
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
