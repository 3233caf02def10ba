"""JSON wire formats and the CSV sampling contract.

Rationals travel as ASCII decimal strings "p/q" (bare "p"), read in that form only.
A coefficient is {"num": [{"s": exp, "re": "p/q", "im": "p/q"}, ...],
"den": [...]} with terms sorted by exponent; "im" is left out when it is zero
and reads as "0" when absent.  A polynomial is
{"vars": [...], "terms": [{"deg": [...], "coef": ...}, ...]} sorted by
degree tuple, so emitted documents are deterministic and round-trip to
values equal under cross-multiplication.  A truncated series is the
polynomial document of one variable plus "order"; every term is checked on
read, and the terms past the order are dropped.  A wave's speed "c" is "c"
when symbolic, a rational string when rational, and otherwise a coefficient
object; any other speed is refused.  A wave's fields and an order are checked
by the values' own rules (qwave), whose text the reader reports.
The CLI writes each document as one line of compact JSON; older documents,
indented and with "im": "0" on every term, read to the same values.

No wire integer has more than WIRE_DIGITS decimal digits: the writer refuses
a value past that bound and the reader refuses such a string before it
converts it, on every Python version.  doc_text is the one encoder of a
polynomial or wave document: it checks the bound over the whole body when
it is called, then makes the document's compact JSON text in pieces, each
term's formatted straight from the integer vectors as it is read, so the
CLI writes a document without holding it whole.  mpoly_to_json and
wave_to_json (and so series_to_json) are json.loads of that text, and
coef_to_json of a coefficient's text made the same way; the tests hold the
text to a document they assemble term by term from each Laurent
polynomial's GaussianRational view.  A polynomial's coefficients
share few distinct denominators, so each distinct denominator is converted
once per document in both directions: the writer formats its text once, and
mpoly_from_json reads every copy of a denominator list to one shared
LaurentPoly (_den_from_list).  write_sample_csv writes the rows of
sample_grid one x row per formatting call and _CSV_CHUNK lines per write.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd, lcm

from .coeffs import LP_ONE, CoefExpr, LaurentPoly, QCalcError, _from_int_terms, _top
from .polys import MPoly, _brief
from .qwave import SYMBOLIC_SPEED, WaveSolution, _check_order

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
    "doc_text",
    "wave_to_json",
    "wave_from_json",
    "verdict_to_json",
    "write_sample_csv",
]


class SerializationError(QCalcError, ValueError):
    """Malformed wire data."""


def rational_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return _ratio_to_str(x.numerator, x.denominator)


# The wire digit bound; CPython 3.11+ caps int/str conversion at the same
# number of digits by default, and 3.10 has no cap.
WIRE_DIGITS = 4300
_WIRE_LIMIT = 10**WIRE_DIGITS
# an integer of at most this many bits has at most WIRE_DIGITS digits
_WIRE_BITS = _WIRE_LIMIT.bit_length() - 1
_OVER_BOUND = f"more than {WIRE_DIGITS} digits, the wire digit bound"


def _ratio_to_str(num: int, den: int) -> str:
    """The wire form "p/q", or "p" when q is 1, of num/den in lowest terms;
    den > 0.  Raises SerializationError past the wire digit bound."""
    g = gcd(num, den)
    if num.bit_length() > _WIRE_BITS or den.bit_length() > _WIRE_BITS:
        if max(abs(num), den) // g >= _WIRE_LIMIT:
            raise SerializationError(f"a rational to write has {_OVER_BOUND}")
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def rational_from_str(text: str) -> Fraction:
    """A rational in any form Fraction reads ("3/4", "-.5", "1e-3"), for
    command-line arguments; wire values go through _wire_rational.  A part
    of more than WIRE_DIGITS digits, or an exponent past WIRE_DIGITS, is
    refused before Fraction builds its integers ("1e999999999" would take
    minutes)."""
    value = str(text).strip()
    mantissa, _, exponent = value.lower().partition("e")
    if any(sum(map(str.isdecimal, part)) > WIRE_DIGITS for part in mantissa.split("/")):
        raise SerializationError(f"bad rational {_brief(text)}: {_OVER_BOUND}")
    exponent = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if exponent.isdecimal() and (len(exponent) > len(str(WIRE_DIGITS))
                                 or int(exponent) > WIRE_DIGITS):
        raise SerializationError(
            f"bad rational {_brief(text)}: exponent past {WIRE_DIGITS}, the wire digit bound"
        )
    try:
        return Fraction(value)
    except ValueError as exc:
        raise SerializationError(f"bad rational {_brief(text)}: {exc}") from None
    except ZeroDivisionError:
        raise SerializationError(f"bad rational {_brief(text)}: zero denominator") from None


# Wire rationals are read only in the form rational_to_str writes, in ASCII
# digits: Fraction's grammar would let "1e10000000" build a huge integer.
_WIRE_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _wire_rational(value) -> tuple[int, int]:
    """(p, q) of a wire rational "p/q" or "p" as written, q > 0, not reduced."""
    m = isinstance(value, str) and _WIRE_RATIONAL.fullmatch(value)
    if not m:
        raise SerializationError(f"bad rational {_brief(value)}: not of the form p/q")
    if len(value) > WIRE_DIGITS and max(len(m[1].lstrip("-")), len(m[2] or "")) > WIRE_DIGITS:
        raise SerializationError(f"bad rational {_brief(value)}: {_OVER_BOUND}")
    try:
        num, den = int(m[1]), (int(m[2]) if m[2] else 1)
    except ValueError as exc:
        raise SerializationError(f"bad rational {_brief(value)}: {exc}") from None
    if not den:
        raise SerializationError(f"bad rational {_brief(value)}: zero denominator")
    return num, den


def _laurent_text(p: LaurentPoly) -> str:
    """The compact JSON text of p's wire list, made from the integer vectors."""
    den = p.den
    items = [f'{{"s":{e},"re":"{_ratio_to_str(a, den)}"'
             + (f',"im":"{_ratio_to_str(b, den)}"}}' if b else "}") for e, a, b in p.int_terms()]
    return f"[{','.join(items)}]"


# LaurentPoly keeps a slot for every exponent from the lowest to the highest
# (every other one when all share one parity), so a wire polynomial may span
# at most this many exponents per term; the engine writes about two per term
# (even exponents).
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


def _den_from_list(items, dens: dict) -> LaurentPoly:
    """_laurent_from_list(items) for a denominator, read once per distinct
    list of a document.  dens maps a probe, the length of a list and the
    values of its first and last items, to the first list read with that
    probe and its value.  A later list equal to it is that value when every
    "s" is exactly an int (true and 2.0 equal 1 and 2); any other list is
    parsed, and refused, as always.  A miss costs a probe, not a pass over
    the list, and only the first list per probe is kept, so a document
    stays linear however many of its lists share a probe."""
    try:
        probe = len(items), *items[0].values(), *items[-1].values()
        seen = dens.get(probe)
    except (TypeError, LookupError, AttributeError):  # not a list of dicts
        return _laurent_from_list(items)
    if seen is not None and seen[0] == items and all(
        [type(item["s"]) is int for item in items]
    ):
        return seen[1]
    den = _laurent_from_list(items)
    if seen is None:
        dens[probe] = items, den
    return den


def _coef_text(c: CoefExpr) -> str:
    return f'{{"num":{_laurent_text(c.num)},"den":{_laurent_text(c.den)}}}'


def coef_to_json(c: CoefExpr) -> dict:
    """The wire form of c."""
    return json.loads(_coef_text(c))


def coef_from_json(doc, dens: dict | None = None) -> CoefExpr:
    """The coefficient of a wire document; the coefficients of one document
    share one dens dict, so each distinct denominator is parsed once (see
    _den_from_list)."""
    if not isinstance(doc, dict) or "num" not in doc or "den" not in doc:
        raise SerializationError(f"bad coefficient document: {_brief(doc)}")
    den = _den_from_list(doc["den"], {} if dens is None else dens)
    if den.is_zero():
        raise SerializationError("coefficient has zero denominator")
    return CoefExpr(_laurent_from_list(doc["num"]), den)


def _check_wire_digits(p: MPoly) -> None:
    """Raise what encoding p's terms would raise past the wire digit bound,
    before any is encoded: a Laurent polynomial with no integer past
    _WIRE_BITS cannot pass the bound, and only another one is encoded."""
    for c in p.terms.values():
        for part in (c.num, c.den):
            if part.re and max(_top(part.re, part.im), part.den).bit_length() > _WIRE_BITS:
                _laurent_text(part)


def doc_text(value: MPoly | WaveSolution):
    """The compact JSON text of the document of a polynomial or a wave, as
    an iterator of pieces: the head, one piece per term in degree order,
    each made as it is read, and the tail.  The digit bound is checked over
    the whole body and the speed when this is called, so making the pieces
    raises no SerializationError."""
    body = value.body if isinstance(value, WaveSolution) else value
    _check_wire_digits(body)
    head = f'{{"vars":{json.dumps(list(body.vars), separators=(",", ":"))},"terms":['
    tail = "]}"
    if body is not value:
        tail = (f'],"c":{_speed_text(value.c)},"order":{json.dumps(value.order)},'
                f'"provenance":{json.dumps(value.provenance)}}}')
    return _doc_pieces(head, body, tail)


def _doc_pieces(head: str, body: MPoly, tail: str):
    yield head
    dens: dict = {}  # each distinct denominator's text, made at its first term
    comma = ""
    for e, c in sorted(body.terms.items()):
        key = c.den.key()
        den = dens.get(key)
        if den is None:
            den = dens[key] = _laurent_text(c.den)
        num = _laurent_text(c.num)
        yield f'{comma}{{"deg":[{",".join(map(str, e))}],"coef":{{"num":{num},"den":{den}}}}}'
        comma = ","
    yield tail


def mpoly_to_json(p: MPoly) -> dict:
    return json.loads("".join(doc_text(p)))


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
    dens: dict = {}
    for item in doc["terms"]:
        if not isinstance(item, dict) or "deg" not in item or "coef" not in item:
            raise SerializationError(f"bad polynomial term {_brief(item)}")
        deg = item["deg"]
        if not isinstance(deg, list) or any(type(d) is not int for d in deg):
            raise SerializationError(f"degree {_brief(deg)} is not a list of integers")
        try:
            coef = coef_from_json(item["coef"], dens)
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
    """A truncated series (univariate MPoly) as the polynomial document of
    its terms of degree <= order, plus "order" (an int >= 0)."""
    _check_order(order, "series", SerializationError)
    doc = mpoly_to_json(p.truncate_total_degree(order))
    doc["order"] = order
    return doc


def series_from_json(doc) -> tuple[MPoly, int]:
    """Inverse of series_to_json: the series and its order.  Every term is
    read and checked as a polynomial term; terms beyond the order are then
    dropped."""
    body = mpoly_from_json(doc)
    if len(body.vars) != 1:
        raise SerializationError(f"series vars {_brief(list(body.vars))} is not one variable")
    order = _check_order(doc.get("order"), "series", SerializationError)
    return body.truncate_total_degree(order), order


def _speed_text(c) -> str:
    """"c", the wire rational of a real constant over LP_ONE, else a coefficient object."""
    if isinstance(c, str):
        return json.dumps(c)
    c = CoefExpr.of(c)
    mono = c.num.as_monomial()
    if c.den is LP_ONE and mono and mono[0] == 0 and mono[1].is_real():
        return f'"{rational_to_str(mono[1].re)}"'
    return _coef_text(c)


def _speed_from_json(value):
    """Inverse of _speed_text; any other value is refused in one line."""
    try:
        if isinstance(value, dict):
            return coef_from_json(value)
        if value == SYMBOLIC_SPEED:
            return SYMBOLIC_SPEED
        return CoefExpr.of(Fraction(*_wire_rational(value)))
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"bad wave speed c: {exc}") from None


def wave_to_json(w: WaveSolution) -> dict:
    return json.loads("".join(doc_text(w)))


def wave_from_json(doc) -> WaveSolution:
    if not isinstance(doc, dict) or "c" not in doc:
        raise SerializationError("wave document needs a c field")
    body, c = mpoly_from_json(doc), _speed_from_json(doc["c"])
    try:
        return WaveSolution(body, c, doc.get("order"), doc.get("provenance", "unknown"))
    except ValueError as exc:
        raise SerializationError(str(exc)) from None


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


# Rows per stream.write: few calls, and no buffer that grows with the grid.
# A row is about 58 B, and under PYTHONUNBUFFERED each write on stdout is a
# system call: 20,301 rows to a file took 21-24 ms one row per write and
# 18-20 ms in chunks of 1,024 (Python 3.11, shared 2-vCPU host).
_CSV_CHUNK = 1024


def write_sample_csv(rows, stream) -> None:
    """Emit the sampling contract for the rows sample_grid returns: header
    x,t,u,valid, 17 significant digits and valid as 1/0, x-major,
    _CSV_CHUNK lines per write (the header counted) but the last.

    Each x row, or each slice of it that fills the current chunk, is one
    %-formatting call over a template of the row's x text and its t texts;
    each t text is made once per grid.
    """
    write = stream.write
    chunk, lines = ["x,t,u,valid\n"], 1
    for head, cells, values, flags in _grid_runs(rows):
        start, end = 0, len(values)
        while start < end:
            stop = min(end, start + _CSV_CHUNK - lines)
            args = values[start:stop]
            if flags is not None:
                args = [None] * (2 * (stop - start))
                args[::2], args[1::2] = values[start:stop], flags[start:stop]
            chunk.append((head + head.join(cells[start:stop])) % tuple(args))
            lines += stop - start
            start = stop
            if lines == _CSV_CHUNK:
                write("".join(chunk))
                chunk.clear()
                lines = 0
    if chunk:
        write("".join(chunk))


def _grid_runs(rows):
    """(x text, line templates, values, flags or None) per x row of sample_grid."""
    t_texts = [format(t, ".17g") for t in rows.ts]
    valid = [text + ",%.17g,1\n" for text in t_texts]
    flagged = [text + ",%.17g,%d\n" for text in t_texts]
    for x, (values, flags) in zip(rows.xs, rows.blocks):
        yield format(x, ".17g") + ",", valid if flags is None else flagged, values, flags
