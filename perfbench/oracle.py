"""Correctness oracle for qcalc CLI output, independent of the qcalc package.

Nothing here imports qcalc.  Solutions are checked in floating point from the
product form of the d'Alembert formula,

    u = (f(x+ct)_q + f(x-ct)_q) / 2 + (G(x+ct)_q - G(x-ct)_q) / (2c),

where x**n -> (x + y)_q**n = prod_{k<n} (x + q**k y) is applied term by term,
G is the Jackson antiderivative x**n -> x**(n+1) / [n+1]_q of g, and
[n]_q = 1 + q + ... + q**(n-1).  The emitted body is evaluated from its
parsed JSON value (rational strings "p/q", Laurent exponents in s with
q = s**2), never from its byte layout, so a change in how coefficients or
denominators are written does not trip the check.

Every check returns None for a correct output and a one-line reason
otherwise.  The perturb_* helpers corrupt one value of a correct output; the
benchmark's self-test requires the matching check to reject the result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

VERIFY_IDS = (
    "double-q-analytic",
    "exp-factorization",
    "exp-product",
    "hermite-binomial",
    "q-hermite-binomial",
    "q-laplacian",
    "traveling-hermite",
    "xi",
)

# Floating-point agreement required between the emitted body and the
# formula, relative to the sum of absolute values of all contributions.
REL_TOL = 1e-9


def check_verify(text: str) -> str | None:
    """All eight identities reported, each with status "verified"."""
    try:
        docs = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"verify output is not JSON: {exc}"
    if not isinstance(docs, list):
        return "verify --identity all must emit a JSON array"
    ids = sorted(d.get("id") for d in docs if isinstance(d, dict))
    if ids != sorted(VERIFY_IDS) or len(docs) != len(VERIFY_IDS):
        return f"verify reported identities {ids}"
    bad = [d["id"] for d in docs if d.get("status") != "verified"]
    if bad:
        return f"identities not verified: {bad}"
    return None


def perturb_verify(text: str) -> str:
    docs = json.loads(text)
    docs[-1]["status"] = "failed"
    return json.dumps(docs, indent=2)


# --- initial data ------------------------------------------------------------


def q_int(n: int, q: float) -> float:
    return sum(q**j for j in range(n))


def q_factorial(n: int, q: float) -> float:
    out = 1.0
    for k in range(1, n + 1):
        out *= q_int(k, q)
    return out


def q_trig(kind: str, order: int) -> Callable[[float], list[float]]:
    """Coefficients of the q-cosine (even degrees, (-1)**m / [2m]_q!) or the
    q-sine (odd degrees, (-1)**m / [2m+1]_q!) through degree `order`."""
    parity = 0 if kind == "cos" else 1

    def coeffs(q: float) -> list[float]:
        return [
            (-1.0) ** (n // 2) / q_factorial(n, q) if n % 2 == parity else 0.0
            for n in range(order + 1)
        ]

    return coeffs


def constant_coeffs(values) -> Callable[[float], list[float]]:
    floats = [float(v) for v in values]
    return lambda q: floats


@dataclass(frozen=True)
class WaveData:
    """What a solve op was asked for: f and g as functions of q, the speed,
    and the truncation order the solution must carry (None for polynomials)."""

    f: Callable[[float], list[float]]
    g: Callable[[float], list[float]]
    c: Fraction
    order: int | None


def q_power(x: float, y: float, n: int, q: float) -> float:
    out = 1.0
    qk = 1.0
    for _ in range(n):
        out *= x + qk * y
        qk *= q
    return out


def dalembert(data: WaveData, x: float, t: float, q: float) -> tuple[float, float]:
    """(u, scale): the formula's value and the sum of its terms' magnitudes."""
    c = float(data.c)
    ct = c * t
    u = scale = 0.0
    for n, a in enumerate(data.f(q)):
        if a:
            p, m = q_power(x, ct, n, q), q_power(x, -ct, n, q)
            u += a * (p + m) / 2
            scale += abs(a) * (abs(p) + abs(m)) / 2
    for n, b in enumerate(data.g(q)):
        if b:
            k = b / q_int(n + 1, q) / (2 * c)
            p, m = q_power(x, ct, n + 1, q), q_power(x, -ct, n + 1, q)
            u += k * (p - m)
            scale += abs(k) * (abs(p) + abs(m))
    return u, scale


# --- wave solution documents -------------------------------------------------


def _rational(text) -> float:
    # int / int is correctly rounded for integers of any size
    num, _, den = str(text).strip().partition("/")
    return int(num) / int(den) if den else float(int(num))


def _laurent(items) -> list[tuple[int, complex]]:
    return [
        (int(it["s"]), complex(_rational(it.get("re", "0")), _rational(it.get("im", "0"))))
        for it in items
    ]


def _eval_laurent(terms, s: float) -> tuple[complex, float]:
    value = 0j
    size = 0.0
    for e, c in terms:
        w = s**e
        value += c * w
        size += abs(c) * w
    return value, size


class Body:
    """A parsed wave document, evaluated term by term in floats."""

    def __init__(self, doc):
        self.vars = [str(v) for v in doc["vars"]]
        if set(self.vars) - {"x", "t"}:
            raise ValueError(f"unexpected body variables {self.vars}")
        self.terms = [
            (
                dict(zip(self.vars, (int(d) for d in item["deg"]))),
                _laurent(item["coef"]["num"]),
                _laurent(item["coef"]["den"]),
            )
            for item in doc["terms"]
        ]

    def contributions(self, x: float, t: float, q: float) -> list[tuple[complex, float]]:
        """Per term: its value at the point, and the magnitude bound of its
        rounding error (sum of absolute values of the numerator terms)."""
        s = math.sqrt(q)
        out = []
        for deg, num, den in self.terms:
            nv, nsize = _eval_laurent(num, s)
            dv, _ = _eval_laurent(den, s)
            mono = x ** deg.get("x", 0) * t ** deg.get("t", 0)
            out.append((nv / dv * mono, nsize / abs(dv) * abs(mono)))
        return out


def check_wave(text: str, data: WaveData, points) -> str | None:
    """The emitted body equals the d'Alembert formula at every check point."""
    try:
        doc = json.loads(text)
        body = Body(doc)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return f"unreadable wave document: {exc!r}"
    if isinstance(doc.get("c"), str) and Fraction(doc["c"]) != data.c:
        return f"speed {doc['c']} != {data.c}"
    if doc.get("order") != data.order:
        return f"order {doc.get('order')} != {data.order}"
    for x, t, q in points:
        parts = body.contributions(x, t, q)
        value = sum(v for v, _ in parts)
        expected, scale = dalembert(data, x, t, q)
        tol = REL_TOL * (scale + sum(size for _, size in parts))
        if abs(value.real - expected) > tol or abs(value.imag) > tol:
            return f"u({x:.6g}, {t:.6g}; q={q:.6g}) = {value} but the formula gives {expected}"
    return None


def _scaled(items, k: int) -> list:
    out = []
    for it in items:
        it = dict(it)
        for part in ("re", "im"):
            v = Fraction(it.get(part, "0")) * k
            it[part] = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        out.append(it)
    return out


def perturb_wave(text: str, point) -> str:
    """Double the coefficient that contributes most to u at `point`."""
    doc = json.loads(text)
    parts = Body(doc).contributions(*point)
    worst = max(range(len(parts)), key=lambda i: abs(parts[i][0]))
    coef = doc["terms"][worst]["coef"]
    coef["num"] = _scaled(coef["num"], 2)
    return json.dumps(doc)


# --- sample CSV ----------------------------------------------------------------


def grid(start: float, stop: float, step: float) -> list[float]:
    count = int(round((stop - start) / step)) + 1
    return [start + k * step for k in range(count)]


def check_csv(text: str, data: WaveData, q: float, xs, ts, rows) -> str | None:
    """Header, row count and x-major order, plus u against the formula on the
    given row indices."""
    lines = text.splitlines()
    if not lines or lines[0] != "x,t,u,valid":
        return "missing CSV header x,t,u,valid"
    if len(lines) - 1 != len(xs) * len(ts):
        return f"{len(lines) - 1} rows, expected {len(xs) * len(ts)}"
    for r in rows:
        fields = lines[1 + r].split(",")
        if len(fields) != 4 or fields[3] not in ("0", "1"):
            return f"row {r} is malformed: {lines[1 + r]!r}"
        x, t, u = (float(v) for v in fields[:3])
        ix, it = divmod(r, len(ts))
        if abs(x - xs[ix]) > 1e-9 or abs(t - ts[it]) > 1e-9:
            return f"row {r} is at ({x}, {t}), expected ({xs[ix]}, {ts[it]})"
        expected, scale = dalembert(data, x, t, q)
        if abs(u - expected) > REL_TOL * scale + 1e-12:
            return f"row {r}: u({x}, {t}; q={q}) = {u} but the formula gives {expected}"
    return None


def perturb_csv(text: str, row: int) -> str:
    lines = text.splitlines()
    x, t, u, valid = lines[1 + row].split(",")
    lines[1 + row] = f"{x},{t},{float(u) + 1e-3 * max(1.0, abs(float(u))):.17g},{valid}"
    return "\n".join(lines) + "\n"
