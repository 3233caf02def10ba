"""q-combinatorics and series tests, with independent oracles."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from functools import lru_cache, partial
from itertools import repeat

import pytest

import qcalc
from qcalc import coeffs, hermite, polys, qcore
from qcalc.coeffs import CoefExpr, GaussianRational, LaurentPoly, LP_ONE, _q_products
from qcalc.hermite import q_hermite
from qcalc.polys import MPoly, q_binomial_weights
from qcalc.qcore import (
    factorial_ratio,
    gauss_binomial,
    q_euler_number,
    q_exp_series,
    q_factorial,
    q_int,
    q_trig_series,
    UnsupportedOrderError,
)


@lru_cache(maxsize=None)
def _box_partitions(j, parts, maxpart):
    """Number of partitions of j into at most `parts` parts, each <= maxpart.
    Independent enumeration oracle for Gaussian binomial coefficients."""
    if j == 0:
        return 1
    if parts == 0 or maxpart == 0:
        return 0
    total = _box_partitions(j, parts, maxpart - 1)
    if j >= maxpart:
        total += _box_partitions(j - maxpart, parts - 1, maxpart)
    return total


def _gauss_oracle(n, k):
    return LaurentPoly(
        {2 * j: _box_partitions(j, k, n - k) for j in range(k * (n - k) + 1)}
    )


def _pascal_rows(n_max):
    """Rows 0..n_max of Gaussian binomials by the q-Pascal rule
    [n k] = [n-1 k-1] + q^k [n-1 k], from LaurentPoly adds and shifts alone."""
    rows = [[LP_ONE]]
    for n in range(1, n_max + 1):
        prev = rows[-1] + [LaurentPoly({})]
        rows.append([LP_ONE] + [prev[k - 1] + prev[k].shift(2 * k) for k in range(1, n + 1)])
    return rows


def _running_products(k, n_max):
    """[k+1]_q [k+2]_q ... [n]_q for n = k .. n_max, multiplying the dense
    q-integers one at a time through LaurentPoly.__mul__."""
    out = [LP_ONE]
    for j in range(k + 1, n_max + 1):
        out.append(out[-1] * q_int(j))
    return out


class TestProductKernel:
    """The two-term-step kernel against the constructions it replaced."""

    def test_gauss_binomial_against_pascal_rule(self):
        for n, row in enumerate(_pascal_rows(60)):
            for k, expected in enumerate(row):
                assert gauss_binomial(n, k) == expected, (n, k)

    def test_q_factorial_against_running_product(self):
        for n, expected in enumerate(_running_products(0, 60)):
            assert q_factorial(n) == expected, n

    def test_factorial_ratio_against_running_product(self):
        for k in range(41):
            for n, expected in enumerate(_running_products(k, 40), start=k):
                assert factorial_ratio(n, k) == expected, (n, k)

    def test_remainder_raises(self):
        # (1 - q^3) / (1 - q^2) is not a polynomial; the pass is lazy, so the
        # remainder shows when the step is taken
        with pytest.raises(ArithmeticError):
            list(_q_products((3,), (2,)))

    def test_partials_are_the_running_products(self):
        partials = list(_q_products(range(1, 9), repeat(1)))
        assert partials == _running_products(0, 8)
        assert partials[0] is LP_ONE

    def test_one_pass_per_row(self, monkeypatch):
        # the q-binomial weights, a q-Hermite polynomial and each q-series
        # read their whole row off the partials of one kernel pass
        passes = []

        def counted(tops, bottoms):
            passes.append((tops, bottoms))
            return _q_products(tops, bottoms)

        for module in (coeffs, polys, hermite, qcore):
            monkeypatch.setattr(module, "_q_products", counted)
        # a per-entry q-factorial would show as a pass of its own, cached or not
        monkeypatch.setattr(qcore, "q_factorial", q_factorial.__wrapped__)
        rows = [q_binomial_weights.__wrapped__, q_hermite.__wrapped__]  # past the caches
        rows += [partial(q_trig_series, kind) for kind in ("cos", "sin")]
        rows += [partial(q_exp_series, kind) for kind in ("e", "E")]
        for row in rows:
            for n in (0, 1, 2, 9, 24):
                passes.clear()
                row(n)
                assert len(passes) == 1, (row, n, len(passes))


class TestQInt:
    def test_values(self):
        assert q_int(0).is_zero()
        assert q_int(3) == LaurentPoly({0: 1, 2: 1, 4: 1})

    def test_geometric_sum_at_two(self):
        expected = sum(2**j for j in range(4))
        assert q_int(4).eval_q(Fraction(2)) == GaussianRational(expected)

    def test_negative_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            q_int(-1)

    def test_reciprocal_relation(self):
        # [n]_{1/q} = [n]_q / q^(n-1)
        for n in range(1, 9):
            lhs = CoefExpr.of(q_int(n).invert_s())
            rhs = CoefExpr(q_int(n), LaurentPoly.term(2 * (n - 1)))
            assert lhs == rhs

    def test_q_one_limit(self):
        for n in range(9):
            assert q_int(n).at_one() == GaussianRational(n)


class TestQFactorial:
    def test_values(self):
        assert q_factorial(0) == LP_ONE
        # (1+q)(1+q+q^2) = 1 + 2q + 2q^2 + q^3
        assert q_factorial(3) == LaurentPoly({0: 1, 2: 2, 4: 2, 6: 1})

    def test_at_two(self):
        # 1 * 3 * 7
        assert q_factorial(3).eval_q(Fraction(2)) == GaussianRational(21)

    def test_q_one_limit(self):
        for n in range(9):
            assert q_factorial(n).at_one() == GaussianRational(math.factorial(n))

    def test_ratio_times_factorial(self):
        for n in range(15):
            for k in range(n + 1):
                assert factorial_ratio(n, k) * q_factorial(k) == q_factorial(n)

    def test_ratio_caches_only_the_requested_entry(self):
        # one kernel call, no recursion through the intermediate ratios
        factorial_ratio.cache_clear()
        assert factorial_ratio(12, 3) == q_factorial(12).divexact(q_factorial(3))
        assert factorial_ratio.cache_info().currsize == 1

    def test_cold_table_fills_without_deep_recursion(self):
        # A fresh interpreter with a recursion limit of 40 leaves room for the
        # bottom-up fill (about 12 levels) but not for one nested call per
        # degree up to 40.
        script = (
            "import sys; from qcalc.qcore import factorial_ratio, q_factorial; "
            "sys.setrecursionlimit(40); assert q_factorial(40) == factorial_ratio(40, 0)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(qcalc.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr[-500:]


class TestGaussBinomial:
    def test_edge_and_example(self):
        assert gauss_binomial(5, 0) == LP_ONE
        assert gauss_binomial(4, 2) == LaurentPoly({0: 1, 2: 1, 4: 2, 6: 1, 8: 1})

    def test_against_partition_oracle(self):
        # n <= 20 covers every binomial an order-20 wave solve reads
        for n in range(21):
            for k in range(n + 1):
                assert gauss_binomial(n, k) == _gauss_oracle(n, k)

    def test_evaluations(self):
        g = gauss_binomial(4, 2)
        assert g.at_one() == GaussianRational(6)
        assert g.eval_q(Fraction(2)) == GaussianRational(35)

    def test_symmetry_and_degree(self):
        for n in range(13):
            for k in range(n + 1):
                g = gauss_binomial(n, k)
                assert g == gauss_binomial(n, n - k)
                if g != LP_ONE:
                    assert g.max_exp() == 2 * k * (n - k)

    def test_deep_row_fills_bottom_up(self):
        # a plainly recursive q-Pascal rule would exceed the recursion limit here
        assert gauss_binomial(1100, 1) == q_int(1100)

    def test_out_of_range(self):
        with pytest.raises(UnsupportedOrderError):
            gauss_binomial(3, 4)
        with pytest.raises(UnsupportedOrderError):
            gauss_binomial(3, -1)

    def test_pascal_recurrences(self):
        # both q-Pascal recurrences hold for the product construction
        for n in range(1, 13):
            for k in range(1, n + 1):
                left = gauss_binomial(n, k)
                a = gauss_binomial(n - 1, k - 1) if k - 1 <= n - 1 else None
                b = gauss_binomial(n - 1, k) if k <= n - 1 else LaurentPoly({})
                first = a + LaurentPoly.term(2 * k) * b
                second = LaurentPoly.term(2 * (n - k)) * a + b
                assert left == first
                assert left == second

    def test_alternating_sums(self):
        # odd upper index: the signed row sum vanishes
        for m in range(6):
            total = LaurentPoly({})
            for k in range(2 * m + 2):
                term = gauss_binomial(2 * m + 1, k)
                total = total + (-term if k % 2 else term)
            assert total.is_zero()
        # even upper index: product (1-q)(1-q^3)...(1-q^(2m-1))
        for m in range(6):
            total = LaurentPoly({})
            for k in range(2 * m + 1):
                term = gauss_binomial(2 * m, k)
                total = total + (-term if k % 2 else term)
            product = LP_ONE
            for j in range(1, m + 1):
                product = product * LaurentPoly({0: 1, 2 * (2 * j - 1): -1})
            assert total == product

    def test_reconstructs_factorial(self):
        # gauss(n,k) [k]! [n-k]! == [n]!: the kernel's pairs for the binomial
        # differ from those of the factorials
        for n in range(13):
            for k in range(n + 1):
                assert (
                    gauss_binomial(n, k) * q_factorial(k) * q_factorial(n - k)
                    == q_factorial(n)
                )


class TestQExpSeries:
    def test_small_e_order_two(self):
        s = q_exp_series("e", 2)
        assert s.vars == ("x",) and s.total_degree() == 2
        assert s.coefficient((0,)) == CoefExpr.of(1)
        assert s.coefficient((1,)) == CoefExpr.of(1)
        assert s.coefficient((2,)) == CoefExpr(LP_ONE, q_int(2))

    def test_big_e_order_two(self):
        s = q_exp_series("E", 2)
        assert s.coefficient((2,)) == CoefExpr(LaurentPoly.term(2), q_int(2))

    def test_small_e_values_at_two(self):
        s = q_exp_series("e", 3)
        values = [s.coefficient((d,)).eval_q(Fraction(2)) for d in range(4)]
        assert values == [
            GaussianRational(1),
            GaussianRational(1),
            GaussianRational(Fraction(1, 3)),
            GaussianRational(Fraction(1, 21)),
        ]

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            q_exp_series("f", 3)
        with pytest.raises(UnsupportedOrderError):
            q_exp_series("e", -1)


class TestQTrigSeries:
    def test_cos_order_two(self):
        s = q_trig_series("cos", 2)
        assert s.coefficient((0,)) == CoefExpr.of(1)
        assert s.coefficient((1,)).is_zero()
        assert s.coefficient((2,)) == CoefExpr(LaurentPoly.const(-1), q_int(2))

    def test_sin_order_one(self):
        s = q_trig_series("sin", 1)
        assert s.coefficient((0,)).is_zero()
        assert s.coefficient((1,)) == CoefExpr.of(1)

    def test_derivative_pairing(self):
        cos4 = q_trig_series("cos", 4)
        sin3 = q_trig_series("sin", 3)
        assert cos4.q_derivative("x") == -sin3
        sin5 = q_trig_series("sin", 5)
        cos4b = q_trig_series("cos", 4)
        assert sin5.q_derivative("x") == cos4b


class TestQEulerNumber:
    def test_order_zero(self):
        assert q_euler_number(0) == CoefExpr.of(1)

    def test_order_two(self):
        expected = CoefExpr.of(2) + CoefExpr(LP_ONE, q_int(2))
        assert q_euler_number(2) == expected

    def test_matches_naive_sum(self):
        for n in range(11):
            naive = sum((CoefExpr(LP_ONE, q_factorial(k)) for k in range(n + 1)), CoefExpr.of(0))
            assert q_euler_number(n) == naive
            assert q_euler_number(n).den == q_factorial(n)

    def test_classical_partial_sum(self):
        assert q_euler_number(2).at_one() == GaussianRational(Fraction(5, 2))
        total = sum(Fraction(1, math.factorial(n)) for n in range(7))
        assert q_euler_number(6).at_one() == GaussianRational(total)


class TestTruncSeries:
    """Truncated series are univariate MPolys of degree <= order; products are
    exact through the smaller order, so checks stop there."""

    def test_product_matches_structured_coefficients(self):
        """Naive series product of e_q(x) e_q(-x) equals the coefficient
        formula assembled over the common denominator [n]!; the independent
        second route of the exponential-product identity."""
        n_max = 8
        e_plus = q_exp_series("e", n_max)
        e_minus = MPoly(
            ("x",), {(d,): (-c if d % 2 else c) for (d,), c in e_plus.terms.items()}
        )
        product = (e_plus * e_minus).truncate_total_degree(n_max)
        assert product.total_degree() == n_max
        for n in range(n_max + 1):
            num = LaurentPoly({})
            for k in range(n + 1):
                g = gauss_binomial(n, k)
                num = num + (g if (n - k) % 2 == 0 else -g)
            assert product.coefficient((n,)) == CoefExpr(num, q_factorial(n))

    def test_compose_monomial(self):
        e = q_exp_series("e", 3)
        g = e.substitute("x", MPoly.monomial(("x",), (2,), -1))  # x -> -x^2
        assert g.total_degree() == 6
        assert g.coefficient((0,)) == CoefExpr.of(1)
        assert g.coefficient((2,)) == CoefExpr.of(-1)
        assert g.coefficient((4,)) == CoefExpr(LP_ONE, q_int(2))
        assert g.coefficient((6,)) == CoefExpr(LaurentPoly.const(-1), q_factorial(3))
        assert g.coefficient((1,)).is_zero() and g.coefficient((3,)).is_zero()

    def test_antiderivative_inverts_derivative(self):
        s = q_exp_series("e", 5)
        assert s.jackson_antiderivative("x").q_derivative("x") == s

    def test_coefficient_access_bounds(self):
        s = q_exp_series("e", 2)
        assert s.coefficient((2,)) == CoefExpr(LP_ONE, q_int(2))
        assert s.coefficient((3,)).is_zero()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: q_factorial(-1), UnsupportedOrderError,
         "q-factorials are defined for n >= 0 only"),
        (lambda: factorial_ratio(2, 3), UnsupportedOrderError,
         "factorial_ratio needs 0 <= k <= n"),
        (lambda: q_trig_series("tan", 3), ValueError,
         "q-trigonometric kind must be 'cos' or 'sin'"),
        # the CLI's datum names are named_source's spelling, not the series'
        (lambda: q_trig_series("cos_q", 3), ValueError,
         "q-trigonometric kind must be 'cos' or 'sin'"),
    ],
    ids=["q-factorial", "factorial-ratio", "trig-kind", "trig-datum-name"],
)
def test_refusals(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
