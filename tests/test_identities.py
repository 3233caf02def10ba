"""Verdict machinery and identity verifications at module-test ranges.
(The acceptance suite re-runs them at the full ranges.)"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcalc import identities
from qcalc.coeffs import CoefExpr, GR_I, LP_ONE, PoleError, UnsupportedOrderError
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
from qcalc.polys import MPoly, q_binomial_power, q_binomial_weights
from qcalc.qcore import gauss_binomial, q_factorial, q_int
from qcalc.coeffs import LaurentPoly
from qcalc.qwave import q_binomial_substitute
from qcalc.serialize import coef_from_json, mpoly_from_json, verdict_to_json
from test_polys import _ZW_COEFS, _zw_polys


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


def test_exp_product_default_spot_checks(monkeypatch):
    # without q_samples the library checks the points the CLI checks without
    # --seed: 1/2, 3/4 and 2, each at x^0 .. x^6; an explicit list still wins
    calls = []
    original = CoefExpr.eval_q

    def counting(self, q, s=None):
        calls.append(q)
        return original(self, q, s)

    monkeypatch.setattr(CoefExpr, "eval_q", counting)
    assert verify_exp_product(6).ok
    assert len(calls) == 42 and set(calls) == {Fraction(1, 2), Fraction(3, 4), Fraction(2)}
    calls.clear()
    assert verify_exp_product(6, q_samples=[]).ok and not calls


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


def test_double_q_analytic_builds_each_power_once(monkeypatch):
    built = []

    def counted(a, coef, b, n):
        built.append(n)
        return q_binomial_power(a, coef, b, n)

    monkeypatch.setattr(identities, "q_binomial_power", counted)
    assert verify_double_q_analytic(5).ok
    assert built == list(range(6))


def _composed_pair_sum(n, h_a, h_b, q, scale=1):
    """The pair sum by whole-polynomial operations: per k the factor with
    fewer terms scaled by w_k i^k times the other, MPoly sums, then the
    two^-n scale and the form's own scale, each a pass of its own."""
    if q:
        weights, two = q_binomial_weights(n), q_int(2)
    else:
        weights, two = [math.comb(n, k) for k in range(n + 1)], 2
    acc = MPoly.zero(h_a[0].vars)
    for k, weight in enumerate(weights):
        a, b, c = h_a[n - k], h_b[k], CoefExpr.of(weight) * GR_I**k
        acc = acc + (a.scale(c) * b if len(a.terms) <= len(b.terms) else a * b.scale(c))
    return acc.scale(CoefExpr.of(two**n).inverse()).scale(scale)


def _hermite_lists(n_max):
    """(name, family, [H_m(a)], [H'_m(b)], scale of the pair sum at n) for
    every Hermite list pair a verifier hands _pair_sum."""
    vs, half = ("z", "w"), Fraction(1, 2)
    z, w = MPoly.var(vs, "z"), MPoly.var(vs, "w")
    minus_ict = MPoly.monomial(("x", "t", "c"), (0, 1, 1), -GR_I)
    pairs = [("z/w", False, z, w, lambda n: 1), ("q z/w", True, z, w, lambda n: 1),
             ("x/-ict", True, MPoly.var(("x", "t", "c"), "x"), minus_ict, lambda n: 1)]
    for name, var, a, b, scale in (
        ("main form", "xi", GR_I * half, half, lambda n: (-GR_I) ** n),
        ("z-form", "z", 1, -GR_I, lambda n: Fraction(1, 2**n)),
        ("iy-form", "y", -half, GR_I * half, lambda n: (-GR_I) ** n),
    ):
        pairs.append((name, False, *(MPoly.monomial((var,), (1,), c) for c in (a, b)), scale))
    return [(name, q, *identities._hermite_at(a, b, n_max, q), scale)
            for name, q, a, b, scale in pairs]


def test_pair_sum_matches_the_composed_route():
    for name, q, h_a, h_b, scale in _hermite_lists(10):
        for n in range(11):
            got = identities._pair_sum(n, h_a, h_b, q, scale(n))
            want = _composed_pair_sum(n, h_a, h_b, q, scale(n))
            assert got == want, (name, n)
            assert got.vars == h_a[0].vars
            assert not any(c.is_zero() for c in got.terms.values()), (name, n)
            if name == "z/w":
                # (z + i w)^n: the lower degrees of every H_{n-k} H_k cancel
                assert {sum(e) for e in got.terms} == {n}
                assert n < 2 or min(map(sum, h_a[n].terms)) < n


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_ZW_COEFS, _zw_polys()), min_size=1, max_size=4), st.booleans())
@example([(CoefExpr.of(1), q_binomial_power("z", GR_I, "w", 3))], True)
def test_exp_sum_matches_the_sum_of_scaled_images(pairs, cancel):
    """_exp_sum in one pass against MPoly sums of the scaled images; with
    cancel, the last image comes back negated under the same weight, so
    every key the last image holds cancels."""
    if cancel:
        pairs = pairs + [(pairs[-1][0], -pairs[-1][1])]
    weights, images = zip(*pairs)
    got = identities._exp_sum(list(weights), list(images))
    want = MPoly.zero(("z", "w"))
    for w, image in pairs:
        want = want + image.scale(w)
    assert got == want
    assert got.vars == ("z", "w")
    assert not any(c.is_zero() for c in got.terms.values())


def _composed_at(h, a):
    """h in x alone at the one-term polynomial a, by whole-polynomial passes:
    both widened to a's variables plus x, x substituted, then narrowed."""
    wide = a.vars if "x" in a.vars else a.vars + ("x",)
    return h.with_vars(wide).substitute("x", a.with_vars(wide)).with_vars(a.vars)


def test_hermite_lists_match_the_composed_route(monkeypatch):
    """Every (a, b) the four Hermite verifiers hand _hermite_at at their
    default bounds, in both families, against the composed substitution."""
    calls, original = [], identities._hermite_at
    monkeypatch.setattr(identities, "_hermite_at", lambda a, b, n_max, q:
                        calls.append((a, b, n_max)) or original(a, b, n_max, q))
    for name in ("hermite-binomial", "xi", "q-hermite-binomial", "traveling-hermite"):
        assert IDENTITY_CHECKS[name][0](DEFAULT_BOUNDS[name]).ok, name
    monkeypatch.undo()
    assert len(calls) == 6
    for a, b, n_max in calls:
        for q in (False, True):
            h_a, h_b = identities._hermite_at(a, b, n_max, q)
            h, h_dual = (q_hermite, q_hermite_dual) if q else (hermite_classical,) * 2
            assert h_a == [_composed_at(h(m), a) for m in range(n_max + 1)]
            assert h_b == [_composed_at(h_dual(m, "x") if q else h_dual(m), b)
                           for m in range(n_max + 1)]
            assert {p.vars for p in h_a + h_b} == {a.vars}


@pytest.mark.parametrize("side", ["a", "b"])
def test_hermite_lists_refuse_a_coefficient_over_a_denominator(side):
    """_pair_sum multiplies numerators, so the lists it reads must not hold a
    coefficient over a denominator: _at refuses an argument with one."""
    vs = ("z", "w")
    z, w = MPoly.var(vs, "z"), MPoly.var(vs, "w")
    over = MPoly(vs, {(1, 0) if side == "a" else (0, 1): CoefExpr(LP_ONE, q_int(3))})
    a, b = (over, w) if side == "a" else (z, over)
    for q in (False, True):
        with pytest.raises(ValueError, match="every coefficient over LP_ONE"):
            identities._hermite_at(a, b, 2, q)


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


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: one_directional_check(-1, "+"), UnsupportedOrderError,
         "one-directional check needs n >= 0"),
    ],
    ids=["one-directional-negative-n"],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
