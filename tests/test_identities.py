"""Verdict machinery and identity verifications at module-test ranges.
(The acceptance suite re-runs them at the full ranges.)"""

from fractions import Fraction

import pytest

from qcalc import identities
from qcalc.coeffs import CoefExpr, GR_I, LP_ONE, PoleError
from qcalc.hermite import hermite_classical, q_hermite, q_hermite_dual
from qcalc.identities import (
    DEFAULT_BOUNDS,
    IDENTITY_CHECKS,
    Verdict,
    one_directional_check,
    verify_double_q_analytic,
    verify_exp_factorization,
    verify_exp_product,
    verify_hermite_binomial,
    verify_q_hermite_binomial,
    verify_q_laplacian_identity,
    verify_traveling_hermite_expansion,
    verify_xi_identity,
)
from qcalc.polys import MPoly, q_binomial_power
from qcalc.qcore import gauss_binomial, q_factorial, q_int
from qcalc.coeffs import LaurentPoly
from qcalc.qwave import q_binomial_substitute
from qcalc.serialize import coef_from_json, mpoly_from_json, verdict_to_json


def test_all_verifiers_pass_at_small_ranges():
    assert DEFAULT_BOUNDS.keys() == IDENTITY_CHECKS.keys()
    for name, (fn, kind) in IDENTITY_CHECKS.items():
        verdict = fn(6)
        assert verdict.ok, f"{name}: {verdict}"
        assert verdict.residual is None
        assert verdict.elapsed_ms >= 0


def test_verdict_fields():
    v = verify_hermite_binomial(3)
    assert v.identity == "hermite-binomial"
    assert v.range == "n<=3"
    assert v.status == "verified"
    assert "verified" in str(v)
    assert verify_hermite_binomial(n_max=3).range == "n<=3"
    assert verify_exp_product(order=2, q_samples=[2]).range == "order<=2"


def test_verdict_construction_equality_and_repr():
    v = Verdict("xi", "n<=2", status="failed", detail="forced")
    assert (v.identity, v.range, v.status, v.residual, v.elapsed_ms, v.detail) == (
        "xi", "n<=2", "failed", None, 0.0, "forced"
    )
    assert not v.ok and Verdict(identity="xi", range="n<=2").ok
    assert v == Verdict("xi", "n<=2", "failed", None, 0.0, "forced")
    assert v != Verdict("xi", "n<=2", "failed", None, 1.0, "forced")
    assert repr(v) == (
        "Verdict(identity='xi', range='n<=2', status='failed', residual=None, "
        "elapsed_ms=0.0, detail='forced')"
    )
    assert str(v) == "xi [n<=2]: failed (forced) in 0.0 ms"


def test_rerun_is_deterministic_and_monotone():
    a = verify_q_hermite_binomial(5)
    b = verify_q_hermite_binomial(5)
    assert a.ok and b.ok and a.range == b.range
    # verified at a superset range stays verified on the shared subrange
    assert verify_q_hermite_binomial(7).ok


def test_exp_product_rejects_pole_sample():
    with pytest.raises(PoleError):
        verify_exp_product(4, q_samples=[Fraction(-1)])


def test_exp_product_spot_checks():
    assert verify_exp_product(10, q_samples=[Fraction(1, 2), Fraction(3)]).ok


def test_q_hermite_binomial_low_degree_by_hand():
    # n = 1: ( [2] z + i [2] w ) / [2] = z + i w
    two = CoefExpr.of(q_int(2))
    vs = ("z", "w")
    rhs = (
        q_hermite(1).rename_var("x", "z").with_vars(vs)
        + q_hermite_dual(1).with_vars(vs).scale(GR_I)
    ).scale(two.inverse())
    assert rhs == q_binomial_power("z", GR_I, "w", 1)


def test_q_identity_degenerates_to_classical():
    """Substituting s = 1 into either side of the deformed binomial expansion
    yields the corresponding classical side."""
    vs = ("z", "w")
    classical = MPoly(vs, {(1, 0): 1, (0, 1): GR_I})
    import math

    for n in range(7):
        lhs_q = q_binomial_power("z", GR_I, "w", n)
        assert lhs_q.at_s_one() == classical**n

        rhs_q = MPoly.zero(vs)
        ik = CoefExpr.of(1)
        for k in range(n + 1):
            hz = q_hermite(n - k).rename_var("x", "z").with_vars(vs)
            hw = q_hermite_dual(k).with_vars(vs)
            coef = (
                CoefExpr.of(gauss_binomial(n, k) * LaurentPoly.term(k * (k - 1))) * ik
            )
            rhs_q = rhs_q + (hz * hw).scale(coef)
            ik = ik * CoefExpr.of(GR_I)
        rhs_q = rhs_q.scale(CoefExpr(LP_ONE, q_int(2) ** n))

        rhs_classical = MPoly.zero(vs)
        ik = CoefExpr.of(1)
        for k in range(n + 1):
            hz = hermite_classical(n - k).rename_var("x", "z").with_vars(vs)
            hw = hermite_classical(k).rename_var("x", "w").with_vars(vs)
            rhs_classical = rhs_classical + (hz * hw).scale(
                ik * math.comb(n, k)
            )
            ik = ik * CoefExpr.of(GR_I)
        rhs_classical = rhs_classical.scale(Fraction(1, 2**n))
        assert rhs_q.at_s_one() == rhs_classical


def test_xi_identity_n_one_by_hand():
    # (1/2) [ (-i) H_1(i xi / 2) + H_1(xi / 2) ] = xi
    assert verify_xi_identity(1).ok


def test_traveling_expansion_n_one():
    assert verify_traveling_hermite_expansion(1).ok


def test_q_laplacian_chain_bound_parameter():
    assert verify_q_laplacian_identity(4, chain_max=2).ok


def test_q_laplacian_chain_built_once_per_degree(monkeypatch):
    """Each degree's chain is one list: the q-Laplacian meets a nonzero
    polynomial once per degree (the binomial power; its image is zero)."""
    applied = []
    original = identities.q_laplacian

    def counting(p, level=0):
        if not p.is_zero():
            applied.append(level)
        return original(p, level)

    monkeypatch.setattr(identities, "q_laplacian", counting)
    assert verify_q_laplacian_identity(6).ok
    assert applied == [0] * 7


def test_exp_factorization_degree_two_by_hand():
    # degree-2 terms: x^2/[2]! + xy + q y^2/[2]! match ((x+y)(x+qy) + ...)/[2]!
    assert verify_exp_factorization(2).ok


def test_double_q_analytic_small():
    assert verify_double_q_analytic(4).ok


def _doubled_at(fn, bad):
    """fn with its value at the first argument bad doubled."""

    def wrong(n, *rest):
        value = fn(n, *rest)
        return value + value if n == bad else value

    return wrong


class TestFailurePaths:
    """One forced failure per verifier: a building block the identity reads
    is replaced by a wrong one, and the verdict must say where it broke."""

    @staticmethod
    def _assert_failed(verdict, detail):
        assert verdict.status == "failed" and not verdict.ok
        assert verdict.detail == detail
        assert verdict.residual is not None and not verdict.residual.is_zero()
        assert verdict.elapsed_ms >= 0
        # the verify document carries the residual, and it reads back unchanged
        doc = verdict_to_json(verdict)
        assert (doc["status"], doc["detail"]) == ("failed", detail)
        read = mpoly_from_json if isinstance(verdict.residual, MPoly) else coef_from_json
        assert read(doc["residual"]) == verdict.residual

    def test_hermite_binomial(self, monkeypatch):
        monkeypatch.setattr(identities, "hermite_classical", _doubled_at(hermite_classical, 2))
        self._assert_failed(verify_hermite_binomial(4), "first failure at n=2")

    def test_xi(self, monkeypatch):
        monkeypatch.setattr(identities, "hermite_classical", _doubled_at(hermite_classical, 1))
        self._assert_failed(verify_xi_identity(4), "main form fails at n=1")

    def test_q_hermite_binomial(self, monkeypatch):
        monkeypatch.setattr(identities, "q_hermite", _doubled_at(q_hermite, 1))
        self._assert_failed(verify_q_hermite_binomial(4), "first failure at n=1")

    def test_exp_product(self, monkeypatch):
        monkeypatch.setattr(identities, "q_factorial", _doubled_at(q_factorial, 2))
        verdict = verify_exp_product(6)
        assert isinstance(verdict.residual, CoefExpr)
        self._assert_failed(verdict, "coefficient of x^2 differs")

    def test_exp_product_spot_check(self, monkeypatch):
        # the coefficients agree exactly; only the first evaluation is wrong
        calls = []
        original = CoefExpr.eval_q

        def first_call_off_by_one(self, q, s=None):
            calls.append(q)
            value = original(self, q, s)
            return value + 1 if len(calls) == 1 else value

        monkeypatch.setattr(CoefExpr, "eval_q", first_call_off_by_one)
        verdict = verify_exp_product(4, q_samples=[Fraction(1, 2)])
        assert verdict.status == "failed"
        assert verdict.detail == "spot check failed at q=1/2, x^0"
        assert verdict.residual is None
        assert "residual" not in verdict_to_json(verdict)

    def test_exp_factorization(self, monkeypatch):
        monkeypatch.setattr(identities, "q_factorial", _doubled_at(q_factorial, 2))
        self._assert_failed(verify_exp_factorization(6), "coefficient x^1 y^1 differs")

    def test_exp_factorization_corollary(self, monkeypatch):
        # only the corollary's alternating sums start from LP_ZERO
        monkeypatch.setattr(identities, "LP_ZERO", LP_ONE)
        self._assert_failed(verify_exp_factorization(6), "corollary fails at degree 2")

    def test_double_q_analytic(self, monkeypatch):
        monkeypatch.setattr(identities, "q_int", _doubled_at(q_int, 2))
        self._assert_failed(verify_double_q_analytic(4), "conjugate relation fails at n=2")

    def test_double_q_analytic_annihilation(self, monkeypatch):
        monkeypatch.setattr(identities, "dbar_operator", lambda p: p)
        self._assert_failed(verify_double_q_analytic(4), "annihilation fails at n=1")

    def test_q_laplacian(self, monkeypatch):
        def with_z_squared(a, coef, b, n):
            p = q_binomial_power(a, coef, b, n)
            return p + MPoly.monomial((a, b), (2, 0)) if n == 2 else p

        monkeypatch.setattr(identities, "q_binomial_power", with_z_squared)
        self._assert_failed(verify_q_laplacian_identity(4), "chain m=1 fails at n=2")

    def test_q_laplacian_exponential(self, monkeypatch):
        # [0]_q! doubled halves the first weight of both exponentials
        monkeypatch.setattr(identities, "q_factorial", _doubled_at(q_factorial, 0))
        self._assert_failed(verify_q_laplacian_identity(4), "exponential operator fails at n=0")

    def test_q_laplacian_hermite_relation(self, monkeypatch):
        monkeypatch.setattr(identities, "q_hermite", _doubled_at(q_hermite, 1))
        self._assert_failed(verify_q_laplacian_identity(4), "Hermite operator relation fails at n=1")

    def test_traveling_hermite(self, monkeypatch):
        def dual_plus_one(k, var="w"):
            dual = q_hermite_dual(k, var)
            return dual + 1 if k == 1 else dual

        monkeypatch.setattr(identities, "q_hermite_dual", dual_plus_one)
        self._assert_failed(verify_traveling_hermite_expansion(4), "imaginary residue at n=1")

    def test_traveling_hermite_real_but_wrong(self, monkeypatch):
        def doubled(p, sign, c):
            return q_binomial_substitute(p, sign, c).scale(2)

        monkeypatch.setattr(identities, "q_binomial_substitute", doubled)
        self._assert_failed(verify_traveling_hermite_expansion(4), "first failure at n=0")

    def test_one_directional_matched_operator(self, monkeypatch):
        def other_sign(p, sign, c):
            return q_binomial_substitute(p, "-" if sign == "+" else "+", c)

        monkeypatch.setattr(identities, "q_binomial_substitute", other_sign)
        verdict = one_directional_check(2, "+")
        assert verdict.status == "failed"
        assert verdict.detail == "matched operator did not annihilate"

    def test_one_directional_mismatched_operator(self, monkeypatch):
        def constant(p, sign, c):
            return MPoly.const(("x", "t", "c"), 1)

        monkeypatch.setattr(identities, "q_binomial_substitute", constant)
        verdict = one_directional_check(2, "+")
        assert verdict.status == "failed"
        assert verdict.detail == "mismatched operator unexpectedly annihilated"
        assert verdict.residual.is_zero()
