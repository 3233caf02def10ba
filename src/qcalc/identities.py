"""One verification routine per algebraic identity of the engine.

Every routine expands both sides exactly over the coefficient field and
returns a Verdict.  A verdict is "verified" exactly when the residual
(left side minus right side) is identically zero; on failure the first
offending residual is attached together with the parameter at which it
occurred, so a breakage pinpoints the offending degree and monomial.

Series identities are checked coefficient-by-coefficient with sums brought
over the common denominator [n]_q! using the cached Gaussian-binomial and
factorial-ratio tables (exact polynomial multipliers, no folding blowup).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .coeffs import (
    CoefExpr,
    GR_I,
    GR_ONE,
    GaussianRational,
    LP_ONE,
    LaurentPoly,
    PoleError,
    UnsupportedOrderError,
)
from .hermite import hermite_classical, q_hermite, q_hermite_dual
from .polys import (
    MPoly,
    d_operator,
    dbar_operator,
    q_binomial_power,
    q_binomial_weights,
    q_laplacian_chain,
)
from .qcore import gauss_binomial, q_factorial, q_int
from .qwave import SYMBOLIC_SPEED, q_binomial_substitute, speed_poly

__all__ = [
    "Verdict",
    "verify_hermite_binomial",
    "verify_xi_identity",
    "verify_q_hermite_binomial",
    "verify_exp_product",
    "verify_exp_factorization",
    "verify_double_q_analytic",
    "verify_q_laplacian_identity",
    "verify_traveling_hermite_expansion",
    "one_directional_check",
    "IDENTITY_CHECKS",
]


@dataclass
class Verdict:
    """Outcome of one identity verification run."""

    identity: str
    range: str
    status: str = "verified"
    residual: object = None
    elapsed_ms: float = 0.0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "verified"

    def __str__(self):
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.identity} [{self.range}]: {self.status}{extra} in {self.elapsed_ms:.1f} ms"


def _finish(v: Verdict, t0: float) -> Verdict:
    v.elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return v


def _fail(v: Verdict, residual, detail: str, t0: float) -> Verdict:
    v.status = "failed"
    v.residual = residual
    v.detail = detail
    return _finish(v, t0)


def _scaled_hermite(m: int, var: str, scalar) -> MPoly:
    h = hermite_classical(m).rename_var("x", var)
    rep = MPoly.monomial((var,), (1,), scalar)
    return h.substitute(var, rep)


def verify_hermite_binomial(n_max: int) -> Verdict:
    """(z + i w)**n == 2**-n sum_k C(n,k) i**k H_{n-k}(z) H_k(w), classical."""
    t0 = time.perf_counter()
    v = Verdict("hermite-binomial", f"n<={n_max}")
    vs = ("z", "w")
    ziw = MPoly.var(vs, "z") + MPoly.var(vs, "w").scale(GR_I)
    for n in range(n_max + 1):
        lhs = ziw**n
        rhs = MPoly.zero(vs)
        ik = GR_ONE
        for k in range(n + 1):
            hz = hermite_classical(n - k).rename_var("x", "z").with_vars(vs)
            hw = hermite_classical(k).rename_var("x", "w").with_vars(vs)
            rhs = rhs + (hz * hw).scale(ik * math.comb(n, k))
            ik = ik * GR_I
        rhs = rhs.scale(Fraction(1, 2**n))
        res = lhs - rhs
        if not res.is_zero():
            return _fail(v, res, f"first failure at n={n}", t0)
    return _finish(v, t0)


def verify_xi_identity(n_max: int) -> Verdict:
    """The one-variable collapse of the Hermite binomial formula and its three
    substitution forms (xi -> -2iz, xi -> x, xi -> iy)."""
    t0 = time.perf_counter()
    v = Verdict("xi", f"n<={n_max}")
    half = Fraction(1, 2)
    i_half = GaussianRational(0, half)
    for n in range(n_max + 1):
        # (-i)^(n-k) = (-i)^n i^k turns the main and iy forms into pair sums
        main = (-GR_I) ** n * Fraction(1, 2**n)
        forms = (
            # 2^-n sum_k C(n,k) (-i)^(n-k) H_{n-k}(i xi/2) H_k(xi/2) == xi^n
            ("main form", "xi", i_half, half, main, GR_ONE),
            # 2^-2n sum_k C(n,k) i^k H_{n-k}(z) H_k(-iz) == z^n
            ("z-form", "z", GR_ONE, -GR_I, Fraction(1, 4**n), GR_ONE),
            # the main form at xi = x (real axis)
            ("x-form", "u", i_half, half, main, GR_ONE),
            # xi = iy: 2^-n sum_k C(n,k) (-i)^(n-k) H_{n-k}(-y/2) H_k(iy/2) == i^n y^n
            ("iy-form", "y", -half, i_half, main, GR_I**n),
        )
        for name, var, a, b, scale, rhs in forms:
            res = _hermite_pair_sum(n, var, a, b).scale(scale) - MPoly.monomial(
                (var,), (n,), rhs
            )
            if not res.is_zero():
                return _fail(v, res, f"{name} fails at n={n}", t0)
    return _finish(v, t0)


def _hermite_pair_sum(n: int, var: str, a, b) -> MPoly:
    """sum_k C(n,k) i^k H_{n-k}(a var) H_k(b var), classical Hermite."""
    acc = MPoly.zero((var,))
    ik = GR_ONE
    for k in range(n + 1):
        pair = _scaled_hermite(n - k, var, a) * _scaled_hermite(k, var, b)
        acc = acc + pair.scale(ik * math.comb(n, k))
        ik = ik * GR_I
    return acc


def verify_q_hermite_binomial(n_max: int) -> Verdict:
    """(z + i w)_q^n == [2]_q^-n sum_k gauss(n,k) i^k q^(k(k-1)/2)
    H_{n-k}(z; q) H_k(q w; 1/q), exactly over the coefficient field."""
    t0 = time.perf_counter()
    v = Verdict("q-hermite-binomial", f"n<={n_max}")
    vs = ("z", "w")
    w = MPoly.var(vs, "w")
    for n in range(n_max + 1):
        lhs = q_binomial_power("z", GR_I, "w", n)
        rhs = _q_hermite_pair_sum(n, vs, w)
        res = lhs - rhs
        if not res.is_zero():
            return _fail(v, res, f"first failure at n={n}", t0)
    return _finish(v, t0)


def _q_hermite_pair_sum(n: int, vs: tuple[str, ...], w: MPoly) -> MPoly:
    """[2]_q^-n sum_k weight_k i^k H_{n-k}(v; q) H_k(q w; 1/q) over vs, where
    v = vs[0] and the dual's variable is sent to the one-term polynomial w."""
    wide = vs if "w" in vs else vs + ("w",)
    w = w.with_vars(wide)
    rhs = MPoly.zero(vs)
    ik = GR_ONE
    for k, weight in enumerate(q_binomial_weights(n)):
        h = q_hermite(n - k)
        if vs[0] != "x":
            h = h.rename_var("x", vs[0])
        dual = q_hermite_dual(k).with_vars(wide).substitute("w", w).with_vars(vs)
        rhs = rhs + (h.with_vars(vs) * dual).scale(CoefExpr.of(weight) * ik)
        ik = ik * GR_I
    return rhs.scale(CoefExpr(LP_ONE, q_int(2) ** n))


def verify_exp_product(order: int, q_samples=None) -> Verdict:
    """e_q(x) e_q(-x) == e_{q^2}((1-q)/(1+q) x^2) coefficientwise to the given
    order, plus exact spot checks at the supplied rational q values."""
    t0 = time.perf_counter()
    v = Verdict("exp-product", f"order<={order}")
    one_minus_q = LaurentPoly({0: 1, 2: -1})
    one_plus_q = q_int(2)
    lhs_all = []
    rhs_all = []
    for n in range(order + 1):
        num = LaurentPoly({})
        for k in range(n + 1):
            term = gauss_binomial(n, k)
            num = num + (term if (n - k) % 2 == 0 else -term)
        lhs = CoefExpr(num, q_factorial(n))
        if n % 2:
            rhs = CoefExpr.of(0)
        else:
            m = n // 2
            rhs = CoefExpr(
                one_minus_q**m,
                (one_plus_q**m) * q_factorial(m).stretch(2),
            )
        lhs_all.append(lhs)
        rhs_all.append(rhs)
        if lhs != rhs:
            return _fail(v, lhs - rhs, f"coefficient of x^{n} differs", t0)
    for q in q_samples or ():
        q = Fraction(q)
        if q == -1:
            raise PoleError("q = -1 is a pole of (1-q)/(1+q); sample rejected")
        for n in range(order + 1):
            if lhs_all[n].eval_q(q) != rhs_all[n].eval_q(q):
                return _fail(v, None, f"spot check failed at q={q}, x^{n}", t0)
    return _finish(v, t0)


def verify_exp_factorization(order: int) -> Verdict:
    """e_q(x) e_{1/q}(y) == sum_n (x + y)_q^n / [n]_q! to total degree order,
    and the corollary that e_q(-t^2) e_{1/q}(t^2) collapses to 1."""
    t0 = time.perf_counter()
    v = Verdict("exp-factorization", f"order<={order}")
    vs = ("x", "y")
    for n in range(order + 1):
        for k in range(n + 1):
            a, b = n - k, k
            lhs = CoefExpr(
                LaurentPoly.term(b * (b - 1)), q_factorial(a) * q_factorial(b)
            )
            rhs = CoefExpr(q_binomial_weights(n)[k], q_factorial(n))
            if lhs != rhs:
                res = MPoly(vs, {(a, b): lhs - rhs})
                return _fail(v, res, f"coefficient x^{a} y^{b} differs", t0)
    # corollary: every positive even degree of the product cancels
    for m in range(1, order // 2 + 1):
        num = LaurentPoly({})
        for j in range(m + 1):
            term = q_binomial_weights(m)[m - j]
            num = num + (-term if j % 2 else term)
        if not num.is_zero():
            res = MPoly(("t",), {(2 * m,): CoefExpr(num, q_factorial(m))})
            return _fail(v, res, f"corollary fails at degree {2 * m}", t0)
    return _finish(v, t0)


def verify_double_q_analytic(n_max: int) -> Verdict:
    """The pair operator annihilates every (z + i w)_q^n and its conjugate
    lowers the power with factor [n]_q."""
    t0 = time.perf_counter()
    v = Verdict("double-q-analytic", f"n<={n_max}")
    for n in range(1, n_max + 1):
        p = q_binomial_power("z", GR_I, "w", n)
        res = dbar_operator(p)
        if not res.is_zero():
            return _fail(v, res, f"annihilation fails at n={n}", t0)
        lowered = d_operator(p)
        expected = q_binomial_power("z", GR_I, "w", n - 1).scale(q_int(n))
        res = lowered - expected
        if not res.is_zero():
            return _fail(v, res, f"conjugate relation fails at n={n}", t0)
    return _finish(v, t0)


def verify_q_laplacian_identity(n_max: int, chain_max: int = 3) -> Verdict:
    """Three statements around the q-Laplacian family:
    (a) the nested chain annihilates every (z + i w)_q^n;
    (b) the q-exponential of the scaled chain reproduces the binomial termwise;
    (c) the one-variable operator series reproduces the q-Hermite polynomial."""
    t0 = time.perf_counter()
    v = Verdict("q-laplacian", f"n<={n_max}")
    two = q_int(2)
    for n in range(n_max + 1):
        p = q_binomial_power("z", GR_I, "w", n)
        for m in range(1, chain_max + 1):
            res = q_laplacian_chain(p, m)
            if not res.is_zero():
                return _fail(v, res, f"chain m={m} fails at n={n}", t0)
        # termwise exponential of the scaled chain
        total = MPoly.zero(("z", "w"))
        for j in range(n + 1):
            chained = q_laplacian_chain(p, j)
            if chained.is_zero() and j > 0:
                continue
            sign = LaurentPoly.const(-1) if j % 2 else LP_ONE
            coef = CoefExpr(sign, q_factorial(j) * two ** (2 * j))
            total = total + chained.scale(coef)
        res = total - p
        if not res.is_zero():
            return _fail(v, res, f"exponential operator fails at n={n}", t0)
        # one-variable relation
        xn = MPoly.monomial(("x",), (n,), 1)
        total = MPoly.zero(("x",))
        d = xn
        j = 0
        while not d.is_zero():
            sign = LaurentPoly.const(-1) if j % 2 else LP_ONE
            coef = CoefExpr(sign, q_factorial(j) * two ** (2 * j))
            total = total + d.scale(coef)
            d = d.q_derivative("x").q_derivative("x")
            j += 1
        res = total.scale(CoefExpr.of(two**n)) - q_hermite(n)
        if not res.is_zero():
            return _fail(v, res, f"Hermite operator relation fails at n={n}", t0)
    return _finish(v, t0)


def verify_traveling_hermite_expansion(n_max: int) -> Verdict:
    """(x + c t)_q^n expanded through q-Hermite pairs with argument -i q c t;
    the assembled right side must be real and equal to the left side."""
    t0 = time.perf_counter()
    v = Verdict("traveling-hermite", f"n<={n_max}")
    vs = ("x", "t", "c")
    minus_ict = MPoly.monomial(vs, (0, 1, 1), GaussianRational(0, -1))
    for n in range(n_max + 1):
        lhs = q_binomial_substitute(MPoly.monomial(("x",), (n,), 1), "+", SYMBOLIC_SPEED)
        rhs = _q_hermite_pair_sum(n, vs, minus_ict)
        if not rhs.is_real():
            return _fail(v, rhs, f"imaginary residue at n={n}", t0)
        res = lhs - rhs
        if not res.is_zero():
            return _fail(v, res, f"first failure at n={n}", t0)
    return _finish(v, t0)


def one_directional_check(n: int, sign: str, c=SYMBOLIC_SPEED) -> Verdict:
    """(D_{1/q}^t -+ c D_q^x) annihilates (x +- c t)_q^n for the matched
    operator sign; the mismatched operator leaves a nonzero residual for
    n >= 1, which is attached to the verdict."""
    t0 = time.perf_counter()
    if n < 0:
        raise UnsupportedOrderError("one-directional check needs n >= 0")
    u = q_binomial_substitute(MPoly.monomial(("x",), (n,), 1), sign, c)
    dt = u.q_derivative("t", "1/q")
    dx = u.q_derivative("x", "q")
    cdx = dx * speed_poly(u.vars, c)
    matched, mismatched = (dt - cdx, dt + cdx) if sign == "+" else (dt + cdx, dt - cdx)
    v = Verdict("one-directional", f"n={n}, sign={sign}")
    v.residual = mismatched
    if not matched.is_zero():
        v.status = "failed"
        v.detail = "matched operator did not annihilate"
    elif n >= 1 and mismatched.is_zero():
        v.status = "failed"
        v.detail = "mismatched operator unexpectedly annihilated"
    return _finish(v, t0)


# Registry used by the CLI: id -> (callable, parameter kind).
# one_directional_check is a verifier too but stays out: `verify --identity all`
# runs exactly these eight.
IDENTITY_CHECKS = {
    "hermite-binomial": (verify_hermite_binomial, "n_max"),
    "xi": (verify_xi_identity, "n_max"),
    "q-hermite-binomial": (verify_q_hermite_binomial, "n_max"),
    "exp-product": (verify_exp_product, "order"),
    "exp-factorization": (verify_exp_factorization, "order"),
    "double-q-analytic": (verify_double_q_analytic, "n_max"),
    "q-laplacian": (verify_q_laplacian_identity, "n_max"),
    "traveling-hermite": (verify_traveling_hermite_expansion, "n_max"),
}
