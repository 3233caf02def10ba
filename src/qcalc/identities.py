"""One verification routine per algebraic identity of the engine.

Every routine expands both sides exactly over the coefficient field and
returns a Verdict.  A verdict is "verified" exactly when the residual
(left side minus right side) is identically zero; on failure the first
offending residual is attached together with the parameter at which it
occurred, so a breakage pinpoints the offending degree and monomial.

One runner, the _verifier decorator, owns every verdict of IDENTITY_CHECKS:
each routine there is a generator that yields (residual, detail) at its
first failure, and the runner times it, labels its range and records the
outcome; it also registers the routine's default bound in DEFAULT_BOUNDS.
The four Hermite-expansion identities (the classical binomial, the xi forms,
the q-binomial and the traveling wave) build their right sides through one
pair sum, _pair_sum, in the q family or its classical limit.

Series identities are checked coefficient-by-coefficient with sums brought
over the common denominator [n]_q! using the cached Gaussian-binomial and
factorial-ratio tables (exact polynomial multipliers, no folding blowup).
"""

from __future__ import annotations

import functools
import math
import time
from collections import namedtuple
from fractions import Fraction

from .coeffs import (
    CoefExpr,
    GR_I,
    GR_ONE,
    GaussianRational,
    LP_ONE,
    LP_ZERO,
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
    q_laplacian,
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
    "DEFAULT_BOUNDS",
]


class Verdict(namedtuple("Verdict", "identity range status residual elapsed_ms detail",
                         defaults=("verified", None, 0.0, ""))):
    """Outcome of one identity verification run.  A named tuple: immutable, so
    it is built once the run is over, and also iterable and equal to the
    plain tuple of its fields."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "verified"

    def __str__(self):
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.identity} [{self.range}]: {self.status}{extra} in {self.elapsed_ms:.1f} ms"


# Registries used by the CLI, filled by _verifier: id -> (callable, parameter
# kind) and id -> default bound.  one_directional_check is a verifier too but
# stays out: `verify --identity all` runs exactly these eight.
IDENTITY_CHECKS: dict = {}
DEFAULT_BOUNDS: dict = {}


def _verifier(identity: str, kind: str, default: int):
    """Register a verifier body in IDENTITY_CHECKS and its default bound in
    DEFAULT_BOUNDS, and run it as a timed Verdict.

    The body is a generator over the range n<=N (kind "n_max") or order<=N
    (kind "order"), N its first argument, named after the kind; it yields
    (residual, detail) at a failure, and only the first one is read.  Other
    arguments pass through unchanged.
    """

    def register(body):
        label = "n" if kind == "n_max" else "order"

        @functools.wraps(body)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            bound = args[0] if args else kwargs[kind]
            failure = next(body(*args, **kwargs), None)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            if failure is None:
                return Verdict(identity, f"{label}<={bound}", elapsed_ms=elapsed_ms)
            residual, detail = failure
            return Verdict(identity, f"{label}<={bound}", "failed", residual, elapsed_ms, detail)

        IDENTITY_CHECKS[identity] = (run, kind)
        DEFAULT_BOUNDS[identity] = default
        return run

    return register


def _at(h: MPoly, a: MPoly) -> MPoly:
    """The polynomial h in x alone at the one-term polynomial a, over a's variables."""
    wide = a.vars if "x" in a.vars else a.vars + ("x",)
    return h.with_vars(wide).substitute("x", a.with_vars(wide)).with_vars(a.vars)


def _hermite_at(a: MPoly, b: MPoly, n_max: int, q: bool):
    """The lists [H_m(a)] and [H'_m(b)] for m <= n_max, a and b one-term
    polynomials over one variable list: H the q-Hermite polynomial and H' its
    dual H_m(q w; 1/q) in the q family, H = H' the Hermite polynomial in the
    classical one.  Built once per verifier run; _pair_sum reads them."""
    if q:
        h, h_dual = q_hermite, lambda m: q_hermite_dual(m, "x")
    else:
        h = h_dual = hermite_classical
    return ([_at(h(m), a) for m in range(n_max + 1)],
            [_at(h_dual(m), b) for m in range(n_max + 1)])


def _pair_sum(n: int, h_a: list, h_b: list, q: bool) -> MPoly:
    """two^-n sum_k w_k i^k H_{n-k}(a) H'_k(b) from the lists of _hermite_at.
    q family: w_k = [n k]_q q^(k(k-1)/2), two = [2]_q.  Classical family:
    w_k = C(n, k), two = 2."""
    if q:
        weights, two = q_binomial_weights(n), q_int(2)
    else:
        weights, two = [math.comb(n, k) for k in range(n + 1)], 2
    acc = MPoly.zero(h_a[0].vars)
    ik = GR_ONE
    for k, weight in enumerate(weights):
        pair = h_a[n - k] * h_b[k]
        acc = acc + pair.scale(CoefExpr.of(weight) * ik)
        ik = ik * GR_I
    return acc.scale(CoefExpr.of(two**n).inverse())


@_verifier("hermite-binomial", "n_max", 12)
def verify_hermite_binomial(n_max: int):
    """(z + i w)**n == 2**-n sum_k C(n,k) i**k H_{n-k}(z) H_k(w), classical."""
    vs = ("z", "w")
    z, w = MPoly.var(vs, "z"), MPoly.var(vs, "w")
    ziw = z + w.scale(GR_I)
    h_z, h_w = _hermite_at(z, w, n_max, q=False)
    for n in range(n_max + 1):
        res = ziw**n - _pair_sum(n, h_z, h_w, q=False)
        if not res.is_zero():
            yield res, f"first failure at n={n}"


@_verifier("xi", "n_max", 12)
def verify_xi_identity(n_max: int):
    """The one-variable collapse of the Hermite binomial formula and two of
    its substitution forms (xi -> -2iz, xi -> iy).  The third, xi -> x, is
    the main form on the real axis, so the main form covers it."""
    half = Fraction(1, 2)
    i_half = GaussianRational(0, half)
    forms = []  # (name, variable, [H_m(a)], [H_m(b)])
    for name, var, a, b in (
        ("main form", "xi", i_half, half),
        ("z-form", "z", GR_ONE, -GR_I),
        ("iy-form", "y", -half, i_half),
    ):
        a, b = (MPoly.monomial((var,), (1,), c) for c in (a, b))
        forms.append((name, var, *_hermite_at(a, b, n_max, q=False)))
    for n in range(n_max + 1):
        # (-i)^(n-k) = (-i)^n i^k turns the main and iy forms into pair sums
        main = (-GR_I) ** n
        sides = (  # (scale of the pair sum, right side coefficient) per form
            # 2^-n sum_k C(n,k) (-i)^(n-k) H_{n-k}(i xi/2) H_k(xi/2) == xi^n
            (main, GR_ONE),
            # 2^-2n sum_k C(n,k) i^k H_{n-k}(z) H_k(-iz) == z^n
            (Fraction(1, 2**n), GR_ONE),
            # xi = iy: 2^-n sum_k C(n,k) (-i)^(n-k) H_{n-k}(-y/2) H_k(iy/2) == i^n y^n
            (main, GR_I**n),
        )
        for (name, var, h_a, h_b), (scale, rhs) in zip(forms, sides):
            res = _pair_sum(n, h_a, h_b, q=False).scale(scale)
            res = res - MPoly.monomial((var,), (n,), rhs)
            if not res.is_zero():
                yield res, f"{name} fails at n={n}"


@_verifier("q-hermite-binomial", "n_max", 10)
def verify_q_hermite_binomial(n_max: int):
    """(z + i w)_q^n == [2]_q^-n sum_k gauss(n,k) i^k q^(k(k-1)/2)
    H_{n-k}(z; q) H_k(q w; 1/q), exactly over the coefficient field."""
    vs = ("z", "w")
    z, w = MPoly.var(vs, "z"), MPoly.var(vs, "w")
    h_z, h_w = _hermite_at(z, w, n_max, q=True)
    for n in range(n_max + 1):
        res = q_binomial_power("z", GR_I, "w", n) - _pair_sum(n, h_z, h_w, q=True)
        if not res.is_zero():
            yield res, f"first failure at n={n}"


@_verifier("exp-product", "order", 20)
def verify_exp_product(order: int, q_samples=None):
    """e_q(x) e_q(-x) == e_{q^2}((1-q)/(1+q) x^2) coefficientwise to the given
    order, plus exact spot checks at the supplied rational q values."""
    one_minus_q = LaurentPoly({0: 1, 2: -1})
    one_plus_q = q_int(2)
    lhs_all, rhs_all = [], []
    for n in range(order + 1):
        num = sum((gauss_binomial(n, k) * (-1) ** (n - k) for k in range(n + 1)), LP_ZERO)
        lhs = CoefExpr(num, q_factorial(n))
        if n % 2:
            rhs = CoefExpr.of(0)
        else:
            m = n // 2
            rhs = CoefExpr(one_minus_q**m, one_plus_q**m * q_factorial(m).stretch(2))
        lhs_all.append(lhs)
        rhs_all.append(rhs)
        if lhs != rhs:
            yield lhs - rhs, f"coefficient of x^{n} differs"
    for q in q_samples or ():
        q = Fraction(q)
        if q == -1:
            raise PoleError("q = -1 is a pole of (1-q)/(1+q); sample rejected")
        for n in range(order + 1):
            if lhs_all[n].eval_q(q) != rhs_all[n].eval_q(q):
                yield None, f"spot check failed at q={q}, x^{n}"


@_verifier("exp-factorization", "order", 20)
def verify_exp_factorization(order: int):
    """e_q(x) e_{1/q}(y) == sum_n (x + y)_q^n / [n]_q! to total degree order,
    and the corollary that e_q(-t^2) e_{1/q}(t^2) collapses to 1."""
    vs = ("x", "y")
    for n in range(order + 1):
        for k in range(n + 1):
            a, b = n - k, k
            lhs = CoefExpr(LaurentPoly.term(b * (b - 1)), q_factorial(a) * q_factorial(b))
            rhs = CoefExpr(q_binomial_weights(n)[k], q_factorial(n))
            if lhs != rhs:
                res = MPoly(vs, {(a, b): lhs - rhs})
                yield res, f"coefficient x^{a} y^{b} differs"
    # corollary: every positive even degree of the product cancels
    for m in range(1, order // 2 + 1):
        weights = reversed(q_binomial_weights(m))
        num = sum((w * (-1) ** j for j, w in enumerate(weights)), LP_ZERO)
        if not num.is_zero():
            res = MPoly(("t",), {(2 * m,): CoefExpr(num, q_factorial(m))})
            yield res, f"corollary fails at degree {2 * m}"


@_verifier("double-q-analytic", "n_max", 12)
def verify_double_q_analytic(n_max: int):
    """The pair operator annihilates every (z + i w)_q^n and its conjugate
    lowers the power with factor [n]_q."""
    for n in range(1, n_max + 1):
        p = q_binomial_power("z", GR_I, "w", n)
        res = dbar_operator(p)
        if not res.is_zero():
            yield res, f"annihilation fails at n={n}"
        lowered = d_operator(p)
        expected = q_binomial_power("z", GR_I, "w", n - 1).scale(q_int(n))
        res = lowered - expected
        if not res.is_zero():
            yield res, f"conjugate relation fails at n={n}"


def _exp_sum(weights: list, images: list) -> MPoly:
    """sum_j weights[j] images[j], images[j] the j-fold image of one polynomial
    under an operator, read while both lists last: that operator's exponential."""
    return sum((image.scale(w) for w, image in zip(weights, images)), MPoly.zero(images[0].vars))


@_verifier("q-laplacian", "n_max", 8)
def verify_q_laplacian_identity(n_max: int, chain_max: int = 3):
    """Three statements around the q-Laplacian family:
    (a) the nested chain annihilates every (z + i w)_q^n;
    (b) the q-exponential of the scaled chain reproduces the binomial termwise;
    (c) the one-variable operator series reproduces the q-Hermite polynomial.
    Both exponentials weigh the j-fold image by (-1)^j / ([j]_q! [2]_q^(2j))."""
    two = q_int(2)
    sign = (LP_ONE, LaurentPoly.const(-1))
    weights = [CoefExpr(sign[j % 2], q_factorial(j) * two ** (2 * j)) for j in range(n_max + 1)]
    for n in range(n_max + 1):
        # chain[j] is the nested chain of length j, levels 0 .. j-1, applied to p
        chain = [q_binomial_power("z", GR_I, "w", n)]
        for level in range(max(n, chain_max)):
            chain.append(q_laplacian(chain[-1], level))
        for m in range(1, chain_max + 1):
            if not chain[m].is_zero():
                yield chain[m], f"chain m={m} fails at n={n}"
        res = _exp_sum(weights, chain[: n + 1]) - chain[0]
        if not res.is_zero():
            yield res, f"exponential operator fails at n={n}"
        # one-variable relation; the trailing zero image adds nothing
        images = [MPoly.monomial(("x",), (n,), 1)]
        while not images[-1].is_zero():
            images.append(images[-1].q_derivative("x").q_derivative("x"))
        res = _exp_sum(weights, images).scale(CoefExpr.of(two**n)) - q_hermite(n)
        if not res.is_zero():
            yield res, f"Hermite operator relation fails at n={n}"


@_verifier("traveling-hermite", "n_max", 10)
def verify_traveling_hermite_expansion(n_max: int):
    """(x + c t)_q^n expanded through q-Hermite pairs with argument -i q c t;
    the assembled right side must be real and equal to the left side."""
    vs = ("x", "t", "c")
    x = MPoly.var(vs, "x")
    minus_ict = MPoly.monomial(vs, (0, 1, 1), GaussianRational(0, -1))
    h_x, h_ict = _hermite_at(x, minus_ict, n_max, q=True)
    for n in range(n_max + 1):
        lhs = q_binomial_substitute(MPoly.monomial(("x",), (n,), 1), "+", SYMBOLIC_SPEED)
        rhs = _pair_sum(n, h_x, h_ict, q=True)
        if not rhs.is_real():
            yield rhs, f"imaginary residue at n={n}"
        res = lhs - rhs
        if not res.is_zero():
            yield res, f"first failure at n={n}"


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
    status, detail = "verified", ""
    if not matched.is_zero():
        status, detail = "failed", "matched operator did not annihilate"
    elif n >= 1 and mismatched.is_zero():
        status, detail = "failed", "mismatched operator unexpectedly annihilated"
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return Verdict("one-directional", f"n={n}, sign={sign}", status, mismatched, elapsed_ms,
                   detail)
