"""JSON wire formats and the CSV sampling contract.

Rationals travel as ASCII decimal strings "p/q" (bare "p"), read in that form only.
A coefficient is {"num": [{"s": exp, "re": "p/q", "im": "p/q"}, ...],
"den": [...]} with terms sorted by exponent; "im" is left out when it is zero
and reads as "0" when absent.  A polynomial is
{"vars": [...], "terms": [{"deg": [...], "coef": ...}, ...]} sorted by
degree tuple, so emitted documents are deterministic and round-trip to
values equal under cross-multiplication.  A wave's speed "c" is "c" when
symbolic, a rational string when rational, and otherwise a coefficient
object (older documents carry that object as a JSON string; it still reads).
The CLI writes each document as one line of compact JSON; older documents,
indented and with "im": "0" on every term, read to the same values.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm

from .coeffs import CoefExpr, LaurentPoly, QCalcError, _from_int_terms
from .polys import MPoly
from .qwave import SYMBOLIC_SPEED, WaveSolution

__all__ = [
    "SerializationError",
    "rational_to_str",
    "rational_from_str",
    "coef_to_json",
    "coef_from_json",
    "mpoly_to_json",
    "mpoly_from_json",
    "series_to_json",
    "series_from_json",
    "wave_to_json",
    "wave_from_json",
    "verdict_to_json",
    "write_sample_csv",
]


class SerializationError(QCalcError, ValueError):
    """Malformed wire data."""


def _brief(value) -> str:
    """repr of a wire value for an error message, cut to about 80 characters."""
    text = repr(value)
    return text if len(text) <= 80 else text[:76] + " ..."


def rational_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return _ratio_to_str(x.numerator, x.denominator)


def _ratio_to_str(num: int, den: int) -> str:
    """The wire form "p/q", or "p" when q is 1, of num/den in lowest terms;
    den > 0."""
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def rational_from_str(text: str) -> Fraction:
    """A rational in any form Fraction reads ("3/4", "-.5", "1e-3"), for
    command-line arguments; wire values go through _wire_rational."""
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SerializationError(f"bad rational {_brief(text)}: {exc}") from None


# Wire rationals are read only in the form rational_to_str writes, in ASCII
# digits: Fraction's grammar would let "1e10000000" build a huge integer.
_WIRE_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _wire_rational(value) -> tuple[int, int]:
    """(p, q) of a wire rational "p/q" or "p" as written, q > 0, not reduced."""
    m = isinstance(value, str) and _WIRE_RATIONAL.fullmatch(value)
    if not m:
        raise SerializationError(f"bad rational {_brief(value)}: not of the form p/q")
    try:
        num, den = int(m[1]), (int(m[2]) if m[2] else 1)
    except ValueError as exc:
        raise SerializationError(f"bad rational {_brief(value)}: {exc}") from None
    if not den:
        raise SerializationError(f"bad rational {_brief(value)}: zero denominator")
    return num, den


def _laurent_to_list(p: LaurentPoly) -> list:
    den = p.den
    out = []
    for e, a, b in p.int_terms():
        item = {"s": e, "re": _ratio_to_str(a, den)}
        if b:
            item["im"] = _ratio_to_str(b, den)
        out.append(item)
    return out


# LaurentPoly keeps a slot for every exponent from the lowest to the highest,
# so a wire polynomial may span at most this many exponents per term; the
# engine writes about two per term (even exponents).
_SPAN_PER_TERM = 256


def _laurent_from_list(items) -> LaurentPoly:
    if not isinstance(items, list):
        raise SerializationError("Laurent polynomial must be a list of terms")
    terms = {}  # exponent -> (re, im, den): the coefficient (re + im*i) / den
    for item in items:
        try:
            e = item["s"]
        except (KeyError, TypeError):
            raise SerializationError(f"bad Laurent term {_brief(item)}") from None
        if type(e) is not int:  # a JSON integer: refuses 1.5, true and "1"
            raise SerializationError(f"Laurent exponent {_brief(e)} is not an integer")
        if e in terms:
            raise SerializationError(f"Laurent exponent {e} appears twice")
        a, ad = _wire_rational(item.get("re", "0"))
        if "im" in item:
            b, bd = _wire_rational(item["im"])
            den = lcm(ad, bd)
            terms[e] = a * (den // ad), b * (den // bd), den
        else:
            terms[e] = a, 0, ad
    if terms and max(terms) - min(terms) > _SPAN_PER_TERM * len(terms):
        raise SerializationError(
            f"Laurent exponents {min(terms)}..{max(terms)} are too sparse for "
            f"{len(terms)} terms"
        )
    return _from_int_terms(terms)


def coef_to_json(c: CoefExpr) -> dict:
    return {"num": _laurent_to_list(c.num), "den": _laurent_to_list(c.den)}


def coef_from_json(doc) -> CoefExpr:
    if not isinstance(doc, dict) or "num" not in doc or "den" not in doc:
        raise SerializationError(f"bad coefficient document: {_brief(doc)}")
    den = _laurent_from_list(doc["den"])
    if den.is_zero():
        raise SerializationError("coefficient has zero denominator")
    return CoefExpr(_laurent_from_list(doc["num"]), den)


def mpoly_to_json(p: MPoly) -> dict:
    return {
        "vars": list(p.vars),
        "terms": [
            {"deg": list(e), "coef": coef_to_json(c)}
            for e, c in sorted(p.terms.items())
        ],
    }


def mpoly_from_json(doc) -> MPoly:
    if not isinstance(doc, dict) or "vars" not in doc or "terms" not in doc:
        raise SerializationError(f"bad polynomial document: {_brief(doc)}")
    variables = doc["vars"]
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise SerializationError(
            f"polynomial vars {_brief(variables)} is not a list of strings"
        )
    if not isinstance(doc["terms"], list):
        raise SerializationError("polynomial terms must be a list")
    terms = {}
    for item in doc["terms"]:
        if not isinstance(item, dict) or "deg" not in item or "coef" not in item:
            raise SerializationError(f"bad polynomial term {_brief(item)}")
        deg = item["deg"]
        if not isinstance(deg, list) or any(type(d) is not int for d in deg):
            raise SerializationError(f"degree {_brief(deg)} is not a list of integers")
        try:
            coef = coef_from_json(item["coef"])
        except (TypeError, ValueError) as exc:
            raise SerializationError(f"bad coefficient at deg {_brief(deg)}: {exc}") from None
        deg = tuple(deg)
        if deg in terms:
            raise SerializationError(f"degree {list(deg)} appears twice")
        terms[deg] = coef
    try:
        return MPoly(variables, terms)
    except (QCalcError, ValueError) as exc:
        raise SerializationError(str(exc)) from None


def series_to_json(p: MPoly, order: int) -> dict:
    """A truncated series (univariate MPoly of degree <= order) as
    {"var", "order", "coeffs"} with one coefficient per degree 0..order."""
    (var,) = p.vars
    return {
        "var": var,
        "order": order,
        "coeffs": [coef_to_json(p.coefficient((d,))) for d in range(order + 1)],
    }


def _order_from(order, kind: str) -> int:
    """A document's order: a JSON integer >= 0 (2.7, true and "3" are refused)."""
    if isinstance(order, bool) or not isinstance(order, int):
        raise SerializationError(f"{kind} order {_brief(order)} is not an integer")
    if order < 0:
        raise SerializationError(f"{kind} order {order} is negative")
    return order


def series_from_json(doc) -> tuple[MPoly, int]:
    """Inverse of series_to_json: the series and its order; coefficients
    beyond the order are dropped."""
    if not isinstance(doc, dict) or not {"var", "order", "coeffs"} <= doc.keys():
        raise SerializationError("series document needs var, order and coeffs fields")
    order = _order_from(doc["order"], "series")
    var = doc["var"]
    if not isinstance(var, str):
        raise SerializationError(f"series var {_brief(var)} is not a string")
    if not isinstance(doc["coeffs"], list):
        raise SerializationError("series coeffs must be a list")
    coeffs = [coef_from_json(c) for c in doc["coeffs"][: order + 1]]
    return MPoly((var,), {(d,): c for d, c in enumerate(coeffs)}), order


def _speed_to_json(c):
    if isinstance(c, str):
        return c
    c = CoefExpr.of(c)
    try:
        mono = c.lower().as_monomial()
    except ValueError:
        mono = None
    if mono is not None and mono[0] == 0 and mono[1].is_real():
        return rational_to_str(mono[1].re)
    return coef_to_json(c)


def _speed_from_json(value) -> object:
    if isinstance(value, str) and value.lstrip().startswith("{"):
        try:
            value = json.loads(value)  # older documents: the object inside a string
        except json.JSONDecodeError as exc:
            raise SerializationError(f"bad wave speed c {_brief(value)}: {exc.msg}") from None
        except RecursionError:
            raise SerializationError("wave speed c is nested too deeply") from None
    if isinstance(value, dict):
        return coef_from_json(value)
    if value == SYMBOLIC_SPEED:
        return SYMBOLIC_SPEED
    return CoefExpr.of(Fraction(*_wire_rational(value)))


def wave_to_json(w: WaveSolution) -> dict:
    doc = mpoly_to_json(w.body)
    doc["c"] = _speed_to_json(w.c)
    doc["order"] = w.order
    doc["provenance"] = w.provenance
    return doc


# "unknown" is what a document without a provenance reads as.
_PROVENANCES = ("dalembert", "direct-binomial", "named-series", "unknown")
_WAVE_VARS = {"x", "t", "c"}


def wave_from_json(doc) -> WaveSolution:
    if not isinstance(doc, dict) or "c" not in doc:
        raise SerializationError("wave document needs a c field")
    body = mpoly_from_json(doc)
    if not set(body.vars) <= _WAVE_VARS:
        raise SerializationError(f"wave variables {list(body.vars)} are not within x, t, c")
    order = doc.get("order")
    if order is not None:
        order = _order_from(order, "wave")
    provenance = str(doc.get("provenance", "unknown"))
    if provenance not in _PROVENANCES:
        raise SerializationError(f"unknown wave provenance {_brief(provenance)}")
    return WaveSolution(body, _speed_from_json(doc["c"]), order, provenance)


def verdict_to_json(v) -> dict:
    doc = {
        "id": v.identity,
        "range": v.range,
        "status": v.status,
        "ms": round(v.elapsed_ms, 3),
    }
    if v.detail:
        doc["detail"] = v.detail
    if v.residual is not None and v.status == "failed":
        if isinstance(v.residual, MPoly):
            doc["residual"] = mpoly_to_json(v.residual)
        elif isinstance(v.residual, CoefExpr):
            doc["residual"] = coef_to_json(v.residual)
    return doc


def write_sample_csv(rows, stream) -> None:
    """Emit the sampling contract: header x,t,u,valid, 17 significant digits
    and valid as 1/0, rows already ordered x-major, one write per row.

    A grid repeats each coordinate across many rows, so the text of each
    distinct x and t is made once.  Zeros are formatted every time, because
    0.0 and -0.0 are one dict key but print as "0" and "-0".
    """
    stream.write("x,t,u,valid\n")
    write = stream.write
    text: dict = {}
    for x, t, u, valid in rows:
        xs = text.get(x)
        if xs is None or not x:
            xs = text[x] = f"{x:.17g},"
        ts = text.get(t)
        if ts is None or not t:
            ts = text[t] = f"{t:.17g},"
        write(f"{xs}{ts}{u:.17g},{'1' if valid else '0'}\n")
