"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  All checks are exact (no tolerance) unless the criterion
itself states a numeric tolerance.

Run with `pytest tests/test_acceptance.py -v -s` or standalone via
`python3 tests/test_acceptance.py`.
"""

import random
import time
from fractions import Fraction

from qcalc.coeffs import CE_Q, CoefExpr, LaurentPoly
from qcalc.hermite import hermite_classical, q_hermite
from qcalc.identities import (
    verify_double_q_analytic,
    verify_exp_factorization,
    verify_exp_product,
    verify_hermite_binomial,
    verify_q_hermite_binomial,
    verify_q_laplacian_identity,
    verify_traveling_hermite_expansion,
    verify_xi_identity,
)
from qcalc.polys import MPoly
from qcalc.qcore import q_int, q_trig_series
from qcalc.qwave import (
    SYMBOLIC_SPEED,
    InitialData,
    WaveSolution,
    dalembert_solve,
    poly_from_coefficients,
    q_binomial_substitute,
    qwave_operator,
    sample_grid,
)

X2 = poly_from_coefficients([0, 0, 1])


def _report(number: int, name: str, ok: bool, extra: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number:02d} {name}: {tag}{suffix}")
    return ok


def test_01_q_hermite_binomial_identity():
    t0 = time.perf_counter()
    verdict = verify_q_hermite_binomial(10)
    elapsed = time.perf_counter() - t0
    ok = verdict.ok and elapsed < 10.0
    assert _report(1, "q-Hermite binomial expansion exact for n<=10", ok,
                   f"{elapsed:.2f} s")


def test_02_classical_binomial_and_xi_identities():
    ok = verify_hermite_binomial(12).ok and verify_xi_identity(12).ok
    assert _report(2, "classical Hermite binomial and xi reductions, n<=12", ok)


def test_03_quadratic_ivp_zero_velocity():
    data = InitialData.from_polys(X2, MPoly.zero(("x",)))
    ws = dalembert_solve(data, SYMBOLIC_SPEED)
    expected = MPoly(("x", "t", "c"), {(2, 0, 0): 1, (0, 2, 2): CE_Q})
    ok = ws.body == expected
    assert _report(3, "worked IVP 1: u = x^2 + q c^2 t^2 symbolically", ok)


def test_04_quadratic_ivp_with_velocity():
    g = MPoly(("x", "c"), {(1, 1): CoefExpr.of(-q_int(2))})
    ws = dalembert_solve(InitialData(X2, g), SYMBOLIC_SPEED)
    expected = q_binomial_substitute(X2, "-", SYMBOLIC_SPEED)
    ok = ws.body == expected
    assert _report(4, "worked IVP 2: u = (x - ct)_q^2 symbolically", ok)


def test_05_trigonometric_ivp_order_16():
    """Solver output for cos/sin data at order 16 matches
    (1 + 1/c) cos(x-ct)_q/2 + (1 - 1/c) cos(x+ct)_q/2 on every monomial of
    total (x, t)-degree <= 14; both sides are scaled by 2c to stay
    polynomial in the symbolic speed."""
    order = 16
    data = InitialData(q_trig_series("cos", order), q_trig_series("sin", order), order)
    ws = dalembert_solve(data, SYMBOLIC_SPEED)
    cos_minus = q_binomial_substitute(q_trig_series("cos", order), "-", SYMBOLIC_SPEED)
    cos_plus = q_binomial_substitute(q_trig_series("cos", order), "+", SYMBOLIC_SPEED)
    c_var = MPoly.var(ws.body.vars, "c")
    lhs = ws.body * c_var.scale(2)
    rhs = cos_minus * (c_var + 1) + cos_plus * (c_var - 1)
    residual = (lhs - rhs).truncate_total_degree(order - 2, names=("x", "t"))
    ok = residual.is_zero()
    assert _report(5, "worked IVP 3: trigonometric data to degree 14 at order 16", ok)


def test_06_exponential_product_identity():
    verdict = verify_exp_product(20, q_samples=[Fraction(1, 2), Fraction(3, 4), Fraction(2)])
    assert _report(6, "e_q(x) e_q(-x) = e_{q^2}((1-q)/(1+q) x^2) to order 20", verdict.ok)


def test_07_exponential_factorization():
    verdict = verify_exp_factorization(20)
    assert _report(7, "q-exponential factorization and unit corollary to order 20", verdict.ok)


def test_08_q_hermite_recurrences_and_classical_limit():
    ok = True
    x = MPoly.var(("x",), "x")
    for n in range(1, 11):
        lhs = q_hermite(n).q_derivative("x")
        if lhs != q_hermite(n - 1).scale(q_int(2) * q_int(n)):
            ok = False
            break
        rebuilt = (
            (x * q_hermite(n)).scale(q_int(2))
            - q_hermite(n - 1).scale_substitute("x", 2).scale(q_int(n))
            - q_hermite(n - 1)
            .scale_substitute("x", 1)
            .scale(CoefExpr.of(q_int(n) * LaurentPoly.term(n + 1)))
        )
        if rebuilt != q_hermite(n + 1):
            ok = False
            break
    if ok:
        for n in range(11):
            if q_hermite(n).at_s_one() != hermite_classical(n):
                ok = False
                break
    assert _report(8, "q-Hermite recurrences (s-ring) and q->1 limit, n<=10", ok)


def test_09_double_q_analyticity_and_laplacian():
    ok = verify_double_q_analytic(12).ok and verify_q_laplacian_identity(8).ok
    assert _report(9, "pair-operator relations n<=12; exponential q-Laplacian n<=8", ok)


def test_10_traveling_hermite_expansion():
    verdict = verify_traveling_hermite_expansion(10)
    assert _report(10, "traveling-wave Hermite expansion real and exact, n<=10", verdict.ok)


def _zero_brackets(xs, us, step):
    """Index pairs bracketing a sign change; a sampled exact zero brackets
    itself (floating cancellation can land precisely on a root)."""
    spans = []
    for i, u in enumerate(us):
        if u == 0.0:
            spans.append((xs[i], xs[i]))
    for i in range(len(us) - 1):
        if us[i] * us[i + 1] < 0:
            spans.append((xs[i], xs[i + 1]))
    return spans


def test_11_numeric_zero_speeds_and_area():
    """Zeros of (x - ct)_q^2 at q = 2, c = 1 sit at x = t and x = 2t: the
    sampled sign data must bracket both within one 0.01 grid step, and the
    trapezoid area between the zeros must match -(q-1)^3 c^3 t^3 / 6 within
    1e-3."""
    q0, c0, step = 2.0, 1.0, 0.01
    body = q_binomial_substitute(X2, "-", Fraction(1))
    ws = WaveSolution(body, CoefExpr.of(1), None, "direct-binomial")
    ok = True
    details = []
    for t0 in (1.0, 2.0):
        xs = [round(i * step, 10) for i in range(0, int(4.6 / step) + 1)]
        rows = sample_grid(ws, q0, c0, xs, [t0])
        us = [r[2] for r in rows]
        spans = _zero_brackets(xs, us, step)
        for target in (t0, 2 * t0):
            hit = any(
                lo - step - 1e-9 <= target <= hi + step + 1e-9 for lo, hi in spans
            )
            near = min(abs((lo + hi) / 2 - target) for lo, hi in spans) if spans else 1e9
            if not (hit and near <= step + 1e-9):
                ok = False
            details.append(f"t={t0} zero@{target}: off by {near:.4f}")
        lo_i = xs.index(round(t0, 10))
        hi_i = xs.index(round(2 * t0, 10))
        area = sum(
            (us[i] + us[i + 1]) / 2.0 * (xs[i + 1] - xs[i])
            for i in range(lo_i, hi_i)
        )
        expected = -((q0 - 1.0) ** 3) * (c0**3) * (t0**3) / 6.0
        if abs(area - expected) > 1e-3:
            ok = False
        details.append(f"area(t={t0})={area:.6f} vs {expected:.6f}")
    assert _report(11, "sampled zero speeds and area law at q=2", ok, "; ".join(details))


def test_12_random_ivp_property_suite():
    """200 random polynomial IVPs (degree <= 8, rational data, rational
    nonzero speed): reconstruction of f and g and a zero wave residual,
    exactly."""
    rng = random.Random(20250809)
    ok = True
    for trial in range(200):
        f = poly_from_coefficients(
            [
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(rng.randint(1, 9))
            ]
        )
        g = poly_from_coefficients(
            [
                Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for _ in range(rng.randint(1, 9))
            ]
        )
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([-1, 1])
        ws = dalembert_solve(InitialData.from_polys(f, g), c)
        u = ws.body
        if u.substitute("t", 0) != f.with_vars(u.vars):
            ok = False
            break
        if u.q_derivative("t", "1/q").substitute("t", 0) != g.with_vars(u.vars):
            ok = False
            break
        if not qwave_operator(u, c).is_zero():
            ok = False
            break
    assert _report(12, "200 random polynomial IVPs satisfy all three conditions", ok)


if __name__ == "__main__":
    import sys

    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError:
                failures += 1
    sys.exit(1 if failures else 0)
