"""Hermite family tests: printed values, recurrences, limits, expansions."""

import math
from fractions import Fraction

import pytest

from qcalc.coeffs import (
    CoefExpr,
    GaussianRational,
    LaurentPoly,
    LP_ONE,
    UnsupportedOrderError,
)
from qcalc.hermite import (
    hermite_classical,
    q_hermite,
    q_hermite_dual,
    q_hermite_special_value,
)
from qcalc.polys import MPoly
from qcalc.qcore import factorial_ratio, gauss_binomial, q_factorial, q_int


def _classical_oracle(n):
    """Explicit coefficient formula H_n = n! sum_m (-1)^m (2x)^(n-2m)/(m!(n-2m)!),
    independent of the recurrence used by the implementation."""
    terms = {}
    for m in range(n // 2 + 1):
        d = n - 2 * m
        coef = Fraction(
            (-1) ** m * math.factorial(n) * 2**d,
            math.factorial(m) * math.factorial(d),
        )
        terms[(d,)] = coef
    return MPoly(("x",), terms)


class TestClassical:
    def test_first_values(self):
        assert hermite_classical(0) == MPoly.const(("x",), 1)
        assert hermite_classical(1) == MPoly(("x",), {(1,): 2})
        assert hermite_classical(3) == MPoly(("x",), {(3,): 8, (1,): -12})

    def test_against_coefficient_formula(self):
        for n in range(11):
            assert hermite_classical(n) == _classical_oracle(n)

    def test_imaginary_argument_value(self):
        # H_2 at i*xi/2 equals -xi^2 - 2
        h = hermite_classical(2).rename_var("x", "xi")
        rep = MPoly.monomial(("xi",), (1,), GaussianRational(0, Fraction(1, 2)))
        assert h.substitute("xi", rep) == MPoly(("xi",), {(2,): -1, (0,): -2})

    def test_negative_rejected(self):
        with pytest.raises(UnsupportedOrderError):
            hermite_classical(-1)


class TestQHermite:
    def test_printed_low_degrees(self):
        two = q_int(2)
        assert q_hermite(0) == MPoly.const(("x",), 1)
        assert q_hermite(1) == MPoly(("x",), {(1,): two})
        assert q_hermite(2) == MPoly(("x",), {(2,): two * two, (0,): -two})
        three = q_int(3)
        assert q_hermite(3) == MPoly(
            ("x",), {(3,): two**3, (1,): -(two**2) * three}
        )

    def test_quartic_constant_term(self):
        # [2]_q [3]_q [2]_{q^2}
        expected = q_int(2) * q_int(3) * q_int(2).stretch(2)
        assert q_hermite(4).coefficient((0,)) == CoefExpr.of(expected)

    def test_leading_coefficient_and_degree(self):
        for n in range(11):
            h = q_hermite(n)
            assert h.degree_in("x") == n
            assert h.coefficient((n,)) == CoefExpr.of(q_int(2) ** n)

    def test_parity(self):
        for n in range(11):
            h = q_hermite(n)
            flipped = h.substitute("x", MPoly.monomial(("x",), (1,), -1))
            expected = h if n % 2 == 0 else -h
            assert flipped == expected

    def test_classical_limit(self):
        for n in range(11):
            assert q_hermite(n).at_s_one() == _classical_oracle(n)

    def test_special_values(self):
        for n in range(13):
            assert q_hermite(n).coefficient((0,)) == q_hermite_special_value(n)
        # closed forms for the first even cases
        assert q_hermite_special_value(2) == CoefExpr.of(-q_int(2))
        assert q_hermite_special_value(3).is_zero()
        assert q_hermite_special_value(4) == CoefExpr.of(
            q_int(2) * q_int(3) * q_int(2).stretch(2)
        )

    def test_derivative_recurrence(self):
        # D_q H_n = [2][n] H_{n-1}
        for n in range(1, 11):
            lhs = q_hermite(n).q_derivative("x")
            rhs = q_hermite(n - 1).scale(q_int(2) * q_int(n))
            assert lhs == rhs

    def test_sqrt_q_recurrence(self):
        # H_{n+1} = [2] x H_n - [n] H_{n-1}(qx) - [n] q^((n+1)/2) H_{n-1}(sqrt(q) x)
        x = MPoly.var(("x",), "x")
        for n in range(1, 10):
            h_n = q_hermite(n)
            h_prev = q_hermite(n - 1)
            rebuilt = (
                (x * h_n).scale(q_int(2))
                - h_prev.scale_substitute("x", 2).scale(q_int(n))
                - h_prev.scale_substitute("x", 1).scale(
                    CoefExpr.of(q_int(n) * LaurentPoly.term(n + 1))
                )
            )
            assert rebuilt == q_hermite(n + 1)


class TestQHermiteDual:
    def test_low_degrees(self):
        assert q_hermite_dual(0) == MPoly.const(("w",), 1)
        # (1 + 1/q) * q * w = (1+q) w
        assert q_hermite_dual(1) == MPoly(("w",), {(1,): q_int(2)})

    def test_degree_two_by_hand(self):
        # [2]_{1/q}^2 (qw)^2 - [2]_{1/q} = (1+q)^2 w^2 - (1+q)/q
        two_inv = CoefExpr(q_int(2), LaurentPoly.term(2))
        expected = MPoly(
            ("w",),
            {(2,): CoefExpr.of(q_int(2) * q_int(2)), (0,): -two_inv},
        )
        assert q_hermite_dual(2) == expected

    def test_variable_naming(self):
        assert q_hermite_dual(2, var="y").vars == ("y",)

    def test_other_variables_rename_the_x_form(self):
        for k in range(9):
            assert q_hermite_dual(k, "w") == q_hermite_dual(k, "x").rename_var("x", "w")
            assert q_hermite_dual(k, "x").vars == ("x",)


def test_each_family_is_one_cached_function():
    for family in (hermite_classical, q_hermite, q_hermite_dual):
        assert family.cache_info() is not None
    hermite_classical.cache_clear()
    # the cold call fills the table below bottom-up inside the cached function
    assert hermite_classical(12) == _classical_oracle(12)
    assert hermite_classical.cache_info().currsize == 13


def test_cache_is_thread_safe():
    """Concurrent construction returns consistent immutable entries."""
    import threading

    results = []

    def worker():
        results.append(q_hermite(9))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert results[0].degree_in("x") == 9


class TestGeneratingFunction:
    def test_product_reproduces_coefficients(self):
        """The t-series of e_q(-t^2) e_q([2]_q t x), truncated at t-order 10,
        has t^n coefficient equal to H_n(x; q)/[n]_q!."""
        n_max = 10
        vs = ("x", "t")
        a = MPoly(
            vs,
            {
                (0, 2 * j): CoefExpr(
                    LaurentPoly.const(-1) ** j, q_factorial(j)
                )
                for j in range(n_max // 2 + 1)
            },
        )
        b = MPoly(
            vs,
            {
                (m, m): CoefExpr(q_int(2) ** m, q_factorial(m))
                for m in range(n_max + 1)
            },
        )
        product = a * b
        for n in range(n_max + 1):
            slice_terms = {
                (dx,): coef
                for (dx, dt), coef in product.terms.items()
                if dt == n
            }
            got = MPoly(("x",), slice_terms)
            expected = q_hermite(n).scale(CoefExpr(LP_ONE, q_factorial(n)))
            assert got == expected

    def test_q_euler_expansion(self):
        """Termwise: the t^n coefficient of e_q(-t^2) e_q(t) equals
        H_n(1/[2]_q; q)/[n]_q!, and the order-20 partial sums of the two sides
        agree exactly over the common denominator [20]! [2]^20."""
        n_max = 20
        two = q_int(2)
        two_pow = [LP_ONE]
        for _ in range(n_max):
            two_pow.append(two_pow[-1] * two)
        lhs_nums = []
        rhs_nums = []
        for n in range(n_max + 1):
            # sum_j (-1)^j / ([j]! [n-2j]!) over common denominator [n]!
            num = LaurentPoly({})
            for j in range(n // 2 + 1):
                mult = gauss_binomial(n, 2 * j) * factorial_ratio(2 * j, j)
                num = num + (-mult if j % 2 else mult)
            # H_n(1/[2]) * [2]^n as an honest polynomial
            h = q_hermite(n)
            rhs_num = LaurentPoly({})
            for (d,), coef in h.terms.items():
                rhs_num = rhs_num + coef.lower() * two_pow[n - d]
            # both sides over [n]! [2]^n: numerators must match
            assert num * two_pow[n] == rhs_num
            lhs_nums.append(num)
            rhs_nums.append(rhs_num)
        # partial sums over the common denominator [n_max]! * [2]^n_max
        lhs_total = LaurentPoly({})
        rhs_total = LaurentPoly({})
        for n in range(n_max + 1):
            scale = factorial_ratio(n_max, n)
            lhs_total = lhs_total + lhs_nums[n] * scale * two_pow[n_max]
            rhs_total = rhs_total + rhs_nums[n] * scale * two_pow[n_max - n]
        assert lhs_total == rhs_total
