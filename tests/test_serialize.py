"""Wire-format round trips and malformed-input rejection."""

import copy
import io
import json
import time
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcalc import cli, serialize
from qcalc.coeffs import CE_ONE, CE_Q, CoefExpr, GaussianRational, LaurentPoly, LP_ONE
from qcalc.polys import MPoly, q_binomial_power
from qcalc.qcore import q_exp_series, q_int, q_trig_series
from qcalc.qwave import (
    SYMBOLIC_SPEED,
    InitialData,
    WaveSolution,
    _Rows,
    dalembert_solve,
    named_source,
    q_binomial_substitute,
    sample_grid,
)
from qcalc.serialize import (
    _CSV_CHUNK,
    WIRE_DIGITS,
    SerializationError,
    _laurent_from_list,
    coef_from_json,
    coef_to_json,
    mpoly_from_json,
    mpoly_to_json,
    rational_from_str,
    rational_to_str,
    series_from_json,
    series_to_json,
    verdict_to_json,
    wave_from_json,
    wave_to_json,
    write_sample_csv,
)
from qcalc.identities import verify_hermite_binomial
from qcalc.coeffs import GR_I


def _rational_by_fraction(text: str):
    """What rational_from_str did before its fast path: Fraction's parser on
    the stripped text, or the error message it raised (a zero denominator
    is named as the wire reader names it)."""
    try:
        return Fraction(text.strip())
    except ValueError as exc:
        return f"bad rational {text!r}: {exc}"
    except ZeroDivisionError:
        return f"bad rational {text!r}: zero denominator"


_digits = st.integers(0, 10**30).map(str)
_canonical = st.builds(
    lambda sign, p, q: sign + p + ("" if q is None else "/" + q),
    st.sampled_from(["", "-", "+"]),
    _digits,
    st.none() | _digits,
)
# Whitespace, signs, decimals, exponents, underscores, non-ASCII decimal
# digits (Arabic-Indic, fullwidth), a digit that is not decimal (superscript
# two) and junk, in any order.
_rational_junk = st.text(
    alphabet=st.sampled_from(
        list("0123456789-+/._eE xj") + ["\t", "\u3000", "\u0663", "\uff17", "\u00b2"]
    ),
    max_size=12,
)
_padding = st.sampled_from(["", " ", "\t", "\n", "\u3000"])


class TestRationals:
    def test_roundtrip(self):
        for x in (Fraction(3, 2), Fraction(-7), Fraction(0), Fraction(22, 7)):
            assert rational_from_str(rational_to_str(x)) == x

    def test_integer_form(self):
        assert rational_to_str(Fraction(5)) == "5"
        assert rational_from_str("5/1") == Fraction(5)

    def test_malformed(self):
        for bad in ("", "x", "1/0", "1.5.2"):
            with pytest.raises(SerializationError):
                rational_from_str(bad)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.tuples(_padding, _canonical | _rational_junk | st.text(max_size=8), _padding))
    def test_agrees_with_fraction_parser(self, parts):
        text = "".join(parts)
        try:
            got = rational_from_str(text)
        except SerializationError as exc:
            got = str(exc)
        expected = _rational_by_fraction(text)
        assert type(got) is type(expected) and got == expected


class TestCoefExpr:
    def test_roundtrip_with_negative_exponents_and_i(self):
        c = CoefExpr(
            LaurentPoly({-3: GaussianRational(Fraction(1, 2), Fraction(-2, 3))}),
            q_int(3),
        )
        doc = coef_to_json(c)
        assert coef_from_json(doc) == c

    def test_terms_sorted(self):
        c = CoefExpr.of(LaurentPoly({4: 1, -2: 2, 0: 3}))
        doc = coef_to_json(c)
        assert [t["s"] for t in doc["num"]] == [-2, 0, 4]

    def test_zero_denominator_rejected(self):
        with pytest.raises(SerializationError):
            coef_from_json({"num": [], "den": []})

    def test_malformed(self):
        with pytest.raises(SerializationError):
            coef_from_json({"num": []})
        with pytest.raises(SerializationError):
            coef_from_json({"num": [{"re": "1"}], "den": [{"s": 0, "re": "1"}]})
        with pytest.raises(
            SerializationError, match="^Laurent polynomial must be a list of terms$"
        ):
            coef_from_json({"num": {}, "den": [{"s": 0, "re": "1"}]})

    @pytest.mark.parametrize(
        "text", ["1e3", "0.5", "+1", " 1", "1 ", "1_0", "\u0661", "\uff11", "1/-2", "", "1/0", 1]
    )
    def test_wire_rational_outside_the_grammar_rejected(self, text):
        one = [{"s": 0, "re": "1"}]
        for key in ("re", "im"):
            with pytest.raises(SerializationError, match="bad rational"):
                coef_from_json({"num": [{"s": 0, key: text}], "den": one})

    def test_wire_rational_written_forms_read(self):
        one = [{"s": 0, "re": "1"}]
        for text, value in (("-3/4", Fraction(-3, 4)), ("0", 0), ("12", 12), ("6/4", Fraction(3, 2))):
            got = coef_from_json({"num": [{"s": 0, "re": "1", "im": text}], "den": one})
            assert got == CoefExpr.of(LaurentPoly({0: GaussianRational(1, value)}))

    def test_huge_exponent_notation_rejected_fast(self):
        # Fraction("1e30000000") builds a thirty-million-digit integer first
        start = time.perf_counter()
        with pytest.raises(SerializationError, match="bad rational"):
            coef_from_json({"num": [{"s": 0, "re": "1e30000000"}], "den": [{"s": 0, "re": "1"}]})
        assert time.perf_counter() - start < 1.0

    def test_sparse_exponents_rejected(self):
        one = [{"s": 0, "re": "1"}]
        wide = [{"s": 0, "re": "1"}, {"s": 512, "re": "-1"}]  # 256 exponents per term
        assert coef_from_json({"num": wide, "den": one}) == CoefExpr.of(
            LaurentPoly({0: 1, 512: -1})
        )
        wide[1]["s"] = 513
        with pytest.raises(SerializationError, match="too sparse"):
            coef_from_json({"num": wide, "den": one})
        with pytest.raises(SerializationError, match="too sparse"):
            coef_from_json({"num": one, "den": [{"s": -(10**9), "re": "1"}, {"s": 10**9, "re": "1"}]})

    def test_echoed_value_is_cut(self):
        huge = {"num": [{"s": 0, "re": "1" * 5000}]}
        with pytest.raises(SerializationError) as info:
            coef_from_json(huge)
        assert len(str(info.value)) < 120


def _wire(num: int, den: int) -> str:
    """A wire rational as written, not reduced: "6/4", "-0", bare "p" when den is 1."""
    return str(num) if den == 1 else f"{num}/{den}"


# exponent -> (re num, re den, im form, im num, im den); small numerators, so
# that entries cancel to zero often
_wire_entries = st.dictionaries(
    st.integers(-40, 40),
    st.tuples(
        st.integers(-6, 6), st.integers(1, 12),
        st.sampled_from(["absent", "zero", "value"]), st.integers(-6, 6), st.integers(1, 12),
    ),
    max_size=10,
)


def _wire_items(entries) -> list:
    """The wire Laurent list of _wire_entries, in the drawn "im" forms."""
    items = []
    for e, (a, ad, form, b, bd) in entries.items():
        item = {"s": e, "re": _wire(a, ad)}
        if form == "zero":
            item["im"] = "0"
        elif form == "value":
            item["im"] = _wire(b, bd)
        items.append(item)
    return items


class TestIntegerReader:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_wire_entries)
    def test_agrees_with_the_fraction_route(self, entries):
        items = _wire_items(entries)
        values = {
            item["s"]: GaussianRational(Fraction(item["re"]), Fraction(item.get("im", "0")))
            for item in items
        }
        got, expected = _laurent_from_list(items), LaurentPoly(values)
        assert (got.lo, got.den, got.step, got.re, got.im) == (
            expected.lo, expected.den, expected.step, expected.re, expected.im
        )
        # and read back through the GaussianRational view, apart from the fill
        assert got.coeffs == {e: v for e, v in values.items() if v}


@lru_cache(maxsize=None)
def _cos_sin_body_20() -> MPoly:
    """The body of solve --f-named cos_q --g-named sin_q --c 5/7 --order 20:
    121 coefficients over 11 distinct denominators."""
    (f, order), (g, _) = named_source("cos_q", 20), named_source("sin_q", 20)
    return dalembert_solve(InitialData(f, g, order), Fraction(5, 7)).body


@st.composite
def _shared_den_docs(draw):
    """A polynomial document whose terms draw their denominators from a pool
    of at most three wire lists, every copy a list of its own, some with
    "im": "0" spelled out where the pool leaves it out."""
    pool = draw(st.lists(_wire_entries.map(_wire_items), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=6))
    spelled = draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
    terms = []
    for d, (pick, spell) in enumerate(zip(picks, spelled)):
        den = copy.deepcopy(pool[pick])
        if spell:
            for item in den:
                item.setdefault("im", "0")
        terms.append({"deg": [d], "coef": {"num": [{"s": d, "re": str(d + 1)}], "den": den}})
    return {"vars": ["x"], "terms": terms}


class TestDenominatorMemo:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_shared_den_docs())
    def test_reads_like_each_coefficient_alone(self, doc):
        alone = {}
        for term in doc["terms"]:
            try:
                alone[tuple(term["deg"])] = coef_from_json(term["coef"])
            except SerializationError as exc:
                with pytest.raises(SerializationError) as info:
                    mpoly_from_json(doc)
                assert str(info.value) == f"bad coefficient at deg {term['deg']}: {exc}"
                return
        got = mpoly_from_json(doc).terms
        assert got.keys() == {deg for deg, c in alone.items() if not c.is_zero()}
        for deg, c in got.items():
            expected = alone[deg]
            assert (c.num.key(), c.den.key()) == (expected.num.key(), expected.den.key())
        # every copy of the first term's denominator list reads to one value
        first = doc["terms"][0]
        for term in doc["terms"]:
            a, b = tuple(first["deg"]), tuple(term["deg"])
            if term["coef"]["den"] == first["coef"]["den"] and a in got and b in got:
                assert got[a].den is got[b].den

    def test_order_20_body_converts_each_distinct_denominator_once(self, monkeypatch):
        doc = json.loads(json.dumps(mpoly_to_json(_cos_sin_body_20())))
        calls = []
        convert = serialize._from_int_terms
        monkeypatch.setattr(
            serialize, "_from_int_terms", lambda terms: calls.append(terms) or convert(terms)
        )
        body = mpoly_from_json(doc)
        assert len(body.terms) == 121
        assert len(calls) == 121 + 11  # every numerator, each distinct denominator once
        assert body == _cos_sin_body_20()

    def test_lists_with_one_probe_read_apart(self):
        # same length, first item and last item: only the middle differs
        one = [{"s": 0, "re": "1"}]
        docs = [
            {"num": one, "den": [{"s": 0, "re": "1"}, {"s": 1, "re": r}, {"s": 2, "re": "1"}]}
            for r in ("2", "3")
        ]
        dens: dict = {}
        for doc in docs:
            assert coef_from_json(doc, dens).den.key() == coef_from_json(doc).den.key()

    def test_zero_denominator_is_refused_on_every_copy(self):
        dens: dict = {}
        for _ in range(2):
            with pytest.raises(SerializationError, match="zero denominator"):
                coef_from_json({"num": [{"s": 0, "re": "1"}], "den": [{"s": 0, "re": "0"}]},
                               dens)
        assert len(dens) == 1  # the second copy was a memo hit

    @pytest.mark.parametrize(
        "copy_den",
        [
            [{"s": True, "re": "1"}, {"s": 2, "re": "1/2"}],
            [{"s": 1, "re": "1"}, {"s": 2.0, "re": "1/2"}],
            [{"s": 1, "re": 1}, {"s": 2, "re": "1/2"}],
            [{"s": 1, "re": "1"}, {"s": 2, "re": "1/2", "im": None}],
            [{"s": 1, "re": "1"}, {"s": 2, "re": "1/2"}, {"s": 1, "re": "1"}],
        ],
        ids=["s-true", "s-float", "re-int", "im-null", "repeated-s"],
    )
    def test_malformed_copy_is_refused_as_if_alone(self, copy_den):
        one = [{"s": 0, "re": "1"}]
        dens: dict = {}
        coef_from_json({"num": one, "den": [{"s": 1, "re": "1"}, {"s": 2, "re": "1/2"}]}, dens)
        with pytest.raises(SerializationError) as alone:
            coef_from_json({"num": one, "den": copy_den})
        with pytest.raises(SerializationError) as after:
            coef_from_json({"num": one, "den": copy_den}, dens)
        assert str(after.value) == str(alone.value)


_PAST_THE_BOUND = f"more than {WIRE_DIGITS} digits, the wire digit bound"


class TestWireDigitBound:
    def test_reader(self):
        one = [{"s": 0, "re": "1"}]
        at = "9" * WIRE_DIGITS
        got = coef_from_json({"num": [{"s": 0, "re": f"-{at}/{at[1:]}8"}], "den": one})
        assert got == CoefExpr.of(Fraction(-int(at), int(at[1:] + "8")))
        over = "1" * (WIRE_DIGITS + 1)
        for past in (over, "-" + over, "1/" + over):
            with pytest.raises(SerializationError, match=_PAST_THE_BOUND):
                coef_from_json({"num": [{"s": 0, "re": past}], "den": one})

    def test_writer(self):
        at = 10**WIRE_DIGITS - 1
        assert rational_to_str(Fraction(-at, 2)) == f"-{at}/2"
        assert rational_to_str(Fraction(10**WIRE_DIGITS, 3 * 10)) == f"{10**(WIRE_DIGITS - 1)}/3"
        limit = 10**WIRE_DIGITS
        for past in (Fraction(limit), Fraction(-limit, 7), Fraction(1, limit)):
            with pytest.raises(SerializationError, match=_PAST_THE_BOUND):
                rational_to_str(past)
        c = CoefExpr(LaurentPoly({0: Fraction(at, 7)}), q_int(3))
        assert coef_from_json(json.loads(json.dumps(coef_to_json(c)))) == c
        with pytest.raises(SerializationError, match="wire digit bound"):
            coef_to_json(CoefExpr(LaurentPoly({0: 1, 2: 10**WIRE_DIGITS}), q_int(3)))

    @pytest.mark.parametrize("offset", [-1, 1])
    @pytest.mark.parametrize("part", ["num", "den", "im"])
    def test_streamed_doc_checks_the_bound_before_any_term(self, offset, part):
        # 1/big beside 1 makes an entry past _WIRE_BITS that reduces to 1:
        # only big itself decides, as when the terms are encoded
        big = 10**WIRE_DIGITS + offset
        wide = LaurentPoly({0: Fraction(1, big), 1: GaussianRational(0, 1) if part == "im" else 1})
        coef = CoefExpr(q_int(2), wide) if part == "den" else CoefExpr(wide, q_int(3))
        assert max(wide.re + (wide.im or [])).bit_length() > serialize._WIRE_BITS
        poly = MPoly(("x",), {(0,): 1, (1,): coef})
        wave = WaveSolution(poly.with_vars(("x", "t")), Fraction(1, 2), None, "dalembert")
        for value, to_json in ((poly, mpoly_to_json), (wave, wave_to_json)):
            if big < 10**WIRE_DIGITS:
                assert "".join(serialize.doc_text(value)) == _compact(_reference_doc(value))
            else:
                # refused when called, before the first piece is made
                with pytest.raises(SerializationError) as streamed:
                    serialize.doc_text(value)
                with pytest.raises(SerializationError) as listed:
                    to_json(value)
                assert str(streamed.value) == str(listed.value) == (
                    f"a rational to write has {_PAST_THE_BOUND}")


class TestMPoly:
    def test_each_distinct_denominator_is_written_once(self):
        body = _cos_sin_body_20()
        doc = mpoly_to_json(body)
        alone = {
            "vars": list(body.vars),
            "terms": [
                {"deg": list(e), "coef": coef_to_json(c)} for e, c in sorted(body.terms.items())
            ],
        }
        assert json.dumps(doc) == json.dumps(alone)
        assert len({json.dumps(term["coef"]["den"]) for term in doc["terms"]}) == 11

    def test_roundtrip(self):
        p = q_binomial_power("z", GR_I, "w", 3)
        assert mpoly_from_json(mpoly_to_json(p)) == p

    def test_deterministic_output(self):
        p = q_binomial_power("z", GR_I, "w", 4)
        a = json.dumps(mpoly_to_json(p))
        b = json.dumps(mpoly_to_json(mpoly_from_json(mpoly_to_json(p))))
        assert a == b

    def test_malformed(self):
        with pytest.raises(SerializationError):
            mpoly_from_json({"vars": ["x"]})
        with pytest.raises(SerializationError):
            mpoly_from_json({"vars": ["x"], "terms": [{"deg": [-1], "coef": coef_to_json(CoefExpr.of(1))}]})
        with pytest.raises(SerializationError, match="^bad polynomial term 5$"):
            mpoly_from_json({"vars": ["x"], "terms": [5]})


def _quadratic_wave_doc():
    """The document of the wave u = x^2 + q t^2: degrees [2, 0] and [0, 2],
    each coefficient one Laurent term."""
    body = MPoly(("x", "t"), {(2, 0): 1, (0, 2): LaurentPoly({2: 1})})
    return wave_to_json(WaveSolution(body, CoefExpr.of(1), None, "dalembert"))


def _edit(path, value):
    def apply(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value(doc[last]) if callable(value) else value
    return apply


class TestWireValidation:
    @pytest.mark.parametrize(
        "edit",
        [
            _edit(["vars"], ["x", "x"]),
            _edit(["vars"], "xt"),
            _edit(["vars"], ["x", 1]),
            _edit(["terms"], 5),
            _edit(["terms"], lambda terms: terms + [dict(terms[0])]),
            _edit(["terms", 0, "deg"], [0, 2.5]),
            _edit(["terms", 0, "deg"], [True, 2]),
            _edit(["terms", 0, "deg"], [0, "2"]),
            _edit(["terms", 0, "deg"], "02"),
            _edit(["terms", 0, "coef", "num", 0, "s"], 1.5),
            _edit(["terms", 0, "coef", "num", 0, "s"], True),
            _edit(["terms", 0, "coef", "num", 0, "s"], "2"),
            _edit(["terms", 0, "coef", "num"], lambda num: num + [dict(num[0])]),
        ],
        ids=[
            "repeated-var", "vars-string", "non-string-var", "terms-not-list", "repeated-deg",
            "deg-float", "deg-bool", "deg-string-entry", "deg-string", "s-float", "s-bool",
            "s-string", "repeated-s",
        ],
    )
    def test_refused(self, edit):
        doc = _quadratic_wave_doc()
        assert wave_from_json(json.loads(json.dumps(doc))).body.terms
        edit(doc)
        with pytest.raises(SerializationError):
            wave_from_json(json.loads(json.dumps(doc)))


class TestSeries:
    def test_roundtrip(self):
        s = q_exp_series("E", 5)
        doc = series_to_json(s, 5)
        assert doc == mpoly_to_json(s) | {"order": 5}
        assert len(doc["terms"]) == 6
        assert series_from_json(doc) == (s, 5)
        # a series stored beyond its order reads back truncated
        assert series_from_json(series_to_json(s, 5) | {"order": 3}) == (
            s.truncate_total_degree(3),
            3,
        )

    def test_named_series_roundtrip_at_every_order(self):
        for s in (q_exp_series("e", 20), q_exp_series("E", 20),
                  q_trig_series("cos", 20), q_trig_series("sin", 20)):
            stored = json.loads(json.dumps(series_to_json(s, 20)))
            for k in range(21):
                want = (s.truncate_total_degree(k), k)
                assert series_from_json(json.loads(json.dumps(series_to_json(s, k)))) == want
                assert series_from_json(stored | {"order": k}) == want

    def test_malformed(self):
        with pytest.raises(SerializationError):
            series_from_json({"vars": ["x"]})
        with pytest.raises(SerializationError, match="series order None is not an integer"):
            series_from_json({"vars": ["x"], "terms": []})
        with pytest.raises(SerializationError, match="series order -1 is negative"):
            series_from_json({"vars": ["x"], "terms": [], "order": -1})

    @pytest.mark.parametrize(
        "order, message",
        [(-1, "series order -1 is negative"), (2.7, "series order 2.7 is not an integer"),
         (True, "series order True is not an integer")],
    )
    def test_writer_refuses_the_orders_the_reader_refuses(self, order, message):
        s = q_exp_series("E", 5)
        with pytest.raises(SerializationError) as raised:
            series_to_json(s, order)
        assert str(raised.value) == message
        with pytest.raises(SerializationError) as raised:
            series_from_json(series_to_json(s, 5) | {"order": order})
        assert str(raised.value) == message

    def test_malformed_term_past_the_order_is_refused(self):
        doc = series_to_json(q_exp_series("E", 5), 5) | {"order": 0}
        doc["terms"][1]["coef"] = "garbage"
        with pytest.raises(SerializationError, match=r"bad coefficient at deg \[1\]"):
            series_from_json(doc)

    def test_two_variables_refused(self):
        doc = mpoly_to_json(MPoly(("x", "t"), {(1, 0): 1, (0, 1): 1})) | {"order": 2}
        with pytest.raises(SerializationError, match=r"series vars \['x', 't'\] is not one"):
            series_from_json(doc)

    @pytest.mark.parametrize(
        "field, value", [("order", 2.7), ("order", True), ("order", "3"), ("vars", [["x"]])]
    )
    def test_refused_like_wave_documents(self, field, value):
        doc = series_to_json(q_exp_series("E", 5), 5) | {field: value}
        with pytest.raises(SerializationError, match=f" {field} "):
            series_from_json(doc)


_WAVE_COEFS = st.one_of(
    st.fractions(min_value=-9, max_value=9, max_denominator=9).map(CoefExpr.of),
    st.just(CoefExpr(LP_ONE, q_int(3))),
    st.just(CE_Q * CoefExpr(LaurentPoly.const(GR_I))),
)


@st.composite
def _waves(draw):
    """Wave solutions of every field form the writer takes: a body over (x, t)
    or (x, t, c); a rational, symbolic, 1/[2]_q or q speed (symbolic only with
    a c variable); an order of None or 0-20; each provenance."""
    variables = draw(st.sampled_from([("x", "t"), ("x", "t", "c")]))
    degrees = st.tuples(*[st.integers(0, 4)] * len(variables))
    body = MPoly(variables, draw(st.dictionaries(degrees, _WAVE_COEFS, max_size=5)))
    speeds = [
        st.fractions(min_value=-9, max_value=9, max_denominator=9)
        .filter(bool).map(CoefExpr.of),
        st.just(CoefExpr(LP_ONE, q_int(2))),
        st.just(CE_Q),
    ]
    if "c" in variables:
        speeds.append(st.just(SYMBOLIC_SPEED))
    c = draw(st.one_of(speeds))
    order = draw(st.none() | st.integers(0, 20))
    provenance = draw(st.sampled_from(["dalembert", "direct-binomial", "named-series", "unknown"]))
    return WaveSolution(body, c, order, provenance)


def _compact(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _laurent_list_by_fraction(p: LaurentPoly) -> list:
    """Reference for the writer's Laurent text: the wire list built from the
    GaussianRational view, each part printed by Fraction ("p/q", bare "p")."""
    out = []
    for e, c in p.coeffs.items():
        item = {"s": e, "re": str(c.re)}
        if c.im:
            item["im"] = str(c.im)
        out.append(item)
    return out


def _reference_coef(c: CoefExpr) -> dict:
    return {"num": _laurent_list_by_fraction(c.num), "den": _laurent_list_by_fraction(c.den)}


def _reference_doc(value) -> dict:
    """The wire document of a polynomial or a wave, assembled term by term
    from _laurent_list_by_fraction: the reference serialize.doc_text's text
    is held to (the dict builders are read from that text, so they cannot
    be it)."""
    body = value.body if isinstance(value, WaveSolution) else value
    doc = {"vars": list(body.vars), "terms": [
        {"deg": list(e), "coef": _reference_coef(c)} for e, c in sorted(body.terms.items())
    ]}
    if body is value:
        return doc
    c = value.c
    if not isinstance(c, str):
        c = CoefExpr.of(c)
        num = c.num.coeffs
        real_constant = c.den == LP_ONE and list(num) == [0] and not num[0].im
        c = str(num[0].re) if real_constant else _reference_coef(c)
    return doc | {"c": c, "order": value.order, "provenance": value.provenance}


@st.composite
def _laurent_polys(draw):
    """Laurent polynomials with imaginary parts, negative and odd exponents,
    zero slots between terms, and a content denominator that only some
    entries share a factor with."""
    den = draw(st.sampled_from([1, 2, 6, 12, 30, 77]))
    parts = st.tuples(st.integers(-40, 40), st.integers(-40, 40) | st.just(0))
    entries = draw(st.dictionaries(st.integers(-9, 9), parts, max_size=8))
    return LaurentPoly({
        e: GaussianRational(Fraction(a, den), Fraction(b, den)) for e, (a, b) in entries.items()
    })


class TestLaurentText:
    """The writer formats each Laurent polynomial's text straight from its
    integer vectors; the text is the compact dump of its wire list."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_laurent_polys())
    @example(LaurentPoly({-3: Fraction(1, 6), 0: Fraction(1, 2), 4: GaussianRational(
        Fraction(2, 3), Fraction(-5, 6)), 5: GaussianRational(0, Fraction(1, 3))}))
    @example(LaurentPoly({}))
    def test_equals_the_dump_of_the_wire_list(self, p):
        text = serialize._laurent_text(p)
        assert text == _compact(_laurent_list_by_fraction(p))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_waves())
    @example(WaveSolution(MPoly(("x", "t"), {}), CoefExpr.of(2), None, "dalembert"))
    def test_term_texts_equal_the_dump_of_the_term_dicts(self, wave):
        # waves of every speed form, their bodies, and the zero polynomial
        for value in (wave, wave.body):
            pieces = list(serialize.doc_text(value))
            assert len(pieces) == len(wave.body.terms) + 2
            assert "".join(pieces) == _compact(_reference_doc(value))

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("offset", [-1, 1])
    @pytest.mark.parametrize("part", ["num", "den", "im"])
    def test_values_at_the_bound(self, sign, offset, part):
        big = sign * (10**WIRE_DIGITS + offset)
        p = LaurentPoly({
            "num": {0: big, 1: 1},
            "den": {0: Fraction(1, big), 2: Fraction(3, big)},
            "im": {0: GaussianRational(1, big), 1: 2},
        }[part])
        poly = MPoly(("x",), {(0,): 1, (1,): CoefExpr(p, q_int(3))})
        out = io.StringIO()
        if offset < 0:
            assert serialize._laurent_text(p) == _compact(_laurent_list_by_fraction(p))
            cli._json_emit(serialize.doc_text(poly))(out)
            assert out.getvalue() == _compact(_reference_doc(poly)) + "\n"
            return
        with pytest.raises(SerializationError) as text:
            serialize._laurent_text(p)
        with pytest.raises(SerializationError) as listed:
            coef_to_json(CoefExpr(p))
        # refused before the document's first byte
        with pytest.raises(SerializationError) as streamed:
            cli._json_emit(serialize.doc_text(poly))(out)
        assert out.getvalue() == ""
        assert str(text.value) == str(listed.value) == str(streamed.value) == (
            f"a rational to write has {_PAST_THE_BOUND}")


class TestWave:
    def test_roundtrip_numeric_speed(self):
        body = q_binomial_substitute(MPoly(("x",), {(2,): 1}), "-", Fraction(3, 2))
        ws = WaveSolution(body, CoefExpr.of(Fraction(3, 2)), None, "direct-binomial")
        doc = wave_to_json(ws)
        back = wave_from_json(doc)
        assert back.body == ws.body
        assert back.c == ws.c
        assert back.order is None
        assert back.provenance == "direct-binomial"

    def test_roundtrip_symbolic_speed(self):
        body = q_binomial_substitute(MPoly(("x",), {(2,): 1}), "-", SYMBOLIC_SPEED)
        ws = WaveSolution(body, SYMBOLIC_SPEED, 7, "named-series")
        back = wave_from_json(wave_to_json(ws))
        assert back.c == SYMBOLIC_SPEED
        assert back.order == 7
        assert back.body == ws.body

    def test_roundtrip_q_dependent_speed(self):
        ws = WaveSolution(
            MPoly(("x", "t"), {(1, 0): 1}),
            CoefExpr(LP_ONE, q_int(2)),
            None,
            "direct-binomial",
        )
        doc = json.loads(json.dumps(wave_to_json(ws)))
        assert doc["c"] == coef_to_json(ws.c)  # an object, not JSON in a string
        back = wave_from_json(doc)
        assert back.c == ws.c
        # the coefficient document inside a string is not a speed form
        doc["c"] = json.dumps(coef_to_json(ws.c), sort_keys=True)
        with pytest.raises(SerializationError, match="^bad wave speed c: bad rational "):
            wave_from_json(doc)

    def test_rational_speed_stays_a_string(self):
        ws = WaveSolution(MPoly(("x", "t"), {(1, 0): 1}), CoefExpr.of(Fraction(-5, 7)), None, "dalembert")
        assert wave_to_json(ws)["c"] == "-5/7"
        assert wave_from_json(wave_to_json(ws)).c == Fraction(-5, 7)

    @pytest.mark.parametrize("c", ["0.5", "+2", " 2", 2, "2e0"])
    def test_rational_speed_outside_the_grammar_rejected(self, c):
        with pytest.raises(SerializationError, match="bad rational"):
            wave_from_json(self._doc(c=c))

    def test_deeply_nested_legacy_speed_rejected(self):
        refusal = "^bad wave speed c: bad rational .* not of the form p/q$"
        with pytest.raises(SerializationError, match=refusal):
            wave_from_json(self._doc(c='{"num": ' + "[" * 200_000 + "]" * 200_000 + "}"))

    def test_missing_speed(self):
        with pytest.raises(SerializationError):
            wave_from_json({"vars": ["x", "t"], "terms": []})

    def test_unreduced_constant_speed_is_a_coefficient_object(self):
        c = CoefExpr(q_int(2), q_int(2))
        ws = WaveSolution(MPoly(("x", "t"), {(1, 0): 1}), c, None, "dalembert")
        assert wave_to_json(ws)["c"] == coef_to_json(c)
        assert wave_from_json(wave_to_json(ws)).c == 1

    @pytest.mark.parametrize(
        "vars_, c, wire_c, order, provenance, message",
        [
            (("x", "t"), "c", "c", 2.7, "foo", "wave order 2.7 is not an integer"),
            (("y",), 1, "1", None, "dalembert", "wave variables ['y'] are not within x, t, c"),
            (("x", "t"), 1, "1", None, "foo", "unknown wave provenance 'foo'"),
            (("x", "t"), 0, "0", None, "dalembert", "bad wave speed c: wave speed must be nonzero"),
            (("x", "t"), "c", "c", None, "dalembert",
             "bad wave speed c: symbolic speed requires a polynomial with a c variable"),
        ],
        ids=["order", "vars", "provenance", "zero-speed", "symbolic-speed-without-c"],
    )
    def test_writer_and_reader_share_the_rules(self, vars_, c, wire_c, order, provenance, message):
        body = MPoly(vars_, {(1,) + (0,) * (len(vars_) - 1): 1})
        # the writer cannot be handed such a wave: the value refuses to be built
        with pytest.raises(ValueError) as raised:
            WaveSolution(body, c, order, provenance)
        assert type(raised.value) is ValueError and str(raised.value) == message
        doc = mpoly_to_json(body) | {"c": wire_c, "order": order, "provenance": provenance}
        with pytest.raises(SerializationError) as raised:
            wave_from_json(json.loads(json.dumps(doc)))
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "extra, deg, message",
        [([], None, "wave variables ['v0', 'v1', "),
         (["v0"], None, "variable names repeat in ('v0', 'v1', "),
         ([], [0], "exponent tuple (0,) does not match ('v0', 'v1', ")],
        ids=["foreign", "repeated", "degree-width"],
    )
    def test_long_variable_list_is_cut_in_the_message(self, extra, deg, message):
        doc = {"vars": [f"v{k}" for k in range(2000)] + extra, "c": "1",
               "terms": [] if deg is None else [{"deg": deg, "coef": coef_to_json(CE_Q)}]}
        with pytest.raises(SerializationError) as raised:
            wave_from_json(doc)
        assert str(raised.value).startswith(message)
        assert len(str(raised.value)) < 200

    def test_long_variable_lists_are_cut_in_value_messages(self):
        # the re-expression, initial-data and series checks name the refused
        # variables through polys._brief, whatever the length of the list
        names = tuple(f"v{k}" for k in range(2000))
        wide = MPoly.var(names, "v0")
        calls = [
            lambda: MPoly.var(("w",), "w").with_vars(names),
            lambda: InitialData(wide, wide),
            lambda: series_from_json(mpoly_to_json(wide) | {"order": 1}),
        ]
        for call in calls:
            with pytest.raises(ValueError) as raised:
                call()
            assert len(str(raised.value)) < 200, str(raised.value)[:300]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_waves())
    def test_roundtrip_is_exact(self, ws):
        text = json.dumps(wave_to_json(ws))
        back = wave_from_json(json.loads(text))
        assert back == ws
        assert json.dumps(wave_to_json(back)) == text

    @staticmethod
    def _doc(**changes):
        ws = WaveSolution(MPoly(("x", "t"), {(1, 0): 1}), CoefExpr.of(2), 4, "dalembert")
        return {**wave_to_json(ws), **changes}

    def test_missing_provenance_reads_unknown(self):
        doc = self._doc()
        del doc["provenance"]
        assert wave_from_json(doc).provenance == "unknown"
        assert wave_from_json(self._doc(order=0)).order == 0

    def test_negative_order_rejected(self):
        with pytest.raises(SerializationError, match="order"):
            wave_from_json(self._doc(order=-5))

    def test_non_integer_order_rejected(self):
        for order in (2.7, 2.0, True, "3", [1]):
            with pytest.raises(SerializationError, match="order"):
                wave_from_json(self._doc(order=order))
        assert wave_from_json(self._doc(order=3)).order == 3

    def test_foreign_variable_rejected(self):
        with pytest.raises(SerializationError, match="variables"):
            wave_from_json(self._doc(vars=["x", "z"]))

    def test_unknown_provenance_rejected(self):
        with pytest.raises(SerializationError, match="provenance"):
            wave_from_json(self._doc(provenance="guesswork"))


def _write_sample_csv_per_row(rows, stream) -> None:
    """write_sample_csv's earlier writer, the reference: every field of
    every row formatted on its own."""
    stream.write("x,t,u,valid\n")
    for x, t, u, valid in rows:
        stream.write(f"{x:.17g},{t:.17g},{u:.17g},{int(valid)}\n")


# Zeros of both signs, the smallest subnormal, the float extremes, values
# that need all 17 digits, and any other float (nan and infinities too).
_csv_float = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -0.30000000000000004,
     1.2345678901234567, 1 / 3, 2.0**53 + 2]
) | st.floats()


@st.composite
def _csv_grids(draw):
    """sample_grid's rows drawn whole: both axes and every value from
    _csv_float, and each x row's flags None (every point valid) or drawn."""
    xs = draw(st.lists(_csv_float, max_size=4))
    ts = draw(st.lists(_csv_float, max_size=4))
    cells = {"min_size": len(ts), "max_size": len(ts)}
    flags = st.none() | st.lists(st.booleans(), **cells)
    blocks = [(draw(st.lists(_csv_float, **cells)), draw(flags)) for _ in xs]
    return _Rows(xs, ts, blocks)


# both signs of zero on both axes and among the values
_ZERO_GRID = _Rows([0.5, 0.0, -0.0], [0.0, -0.0], [
    ([1.2345678901234567, -0.0], None), ([1.0, -0.0], [True, False]), ([0.0, -0.0], None),
])


_CHUNK_EDGES = [0, 1, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1, 2 * _CSV_CHUNK + 3]


# The top band of this order-4 body, x^3 and x t^2 / 2, vanishes on the rows
# x = 0.0 and -0.0, which are all valid; the other rows mix flags.
_GRID_WAVE = WaveSolution(
    MPoly(("x", "t"), {(0, 0): 1, (3, 0): 1, (1, 2): Fraction(-1, 2)}), CE_ONE, 4, "direct-binomial"
)


def _sampled_grid(n_x: int, n_t: int):
    """sample_grid rows over an n_x x n_t grid, zeros of both signs on each axis."""
    xs = [(-0.0, 0.0)[k % 2] if k % 5 == 0 else (k - n_x / 2) * 0.004 for k in range(n_x)]
    ts = [(0.0, -0.0)[k % 2] if k % 7 == 0 else (k - n_t / 3) * 0.01 for k in range(n_t)]
    return sample_grid(_GRID_WAVE, 0.5, 1.0, xs, ts)


# (n_x, n_t) with n_x * n_t at each of _CHUNK_EDGES, then a t axis longer than a chunk
_GRID_SHAPES = [(3, 0), (1, 1), (3, 341), (32, 32), (25, 41), (7, 293), (3, _CSV_CHUNK + 500)]


class _CountingStream:
    """A stream that keeps the number of lines of each write."""

    def __init__(self):
        self.writes: list[int] = []

    def write(self, text: str) -> None:
        self.writes.append(text.count("\n"))


class TestVerdictAndCsv:
    def test_verdict_json_shape(self):
        doc = verdict_to_json(verify_hermite_binomial(2))
        assert doc["id"] == "hermite-binomial"
        assert doc["status"] == "verified"
        assert "residual" not in doc
        assert doc["ms"] >= 0

    def test_csv_contract(self):
        buf = io.StringIO()
        write_sample_csv(_ZERO_GRID, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,t,u,valid"
        assert lines[1].startswith("0.5,0,1.2345678901234567")
        assert lines[1].endswith(",1")
        assert len(lines) == 1 + len(_ZERO_GRID)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_csv_grids())
    def test_csv_matches_the_per_row_writer(self, rows):
        got, expected = io.StringIO(), io.StringIO()
        write_sample_csv(rows, got)
        _write_sample_csv_per_row(rows, expected)
        assert got.getvalue() == expected.getvalue()

    def test_csv_keeps_the_sign_of_zero(self):
        buf = io.StringIO()
        write_sample_csv(_ZERO_GRID, buf)
        assert buf.getvalue() == (
            "x,t,u,valid\n0.5,0,1.2345678901234567,1\n0.5,-0,-0,1\n"
            "0,0,1,1\n0,-0,-0,0\n-0,0,0,1\n-0,-0,-0,1\n"
        )

    # n x rows of one t each: every run is one line, so the chunk edges fall
    # between runs, where _GRID_SHAPES puts them inside long runs too
    @pytest.mark.parametrize("n", _CHUNK_EDGES)
    def test_csv_matches_the_per_row_writer_across_chunks(self, n):
        rows = _sampled_grid(n, 1)
        got, expected = io.StringIO(), io.StringIO()
        write_sample_csv(rows, got)
        _write_sample_csv_per_row(rows, expected)
        assert got.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("n", _CHUNK_EDGES)
    def test_csv_writes_bounded_chunks(self, n):
        stream = _CountingStream()
        write_sample_csv(_sampled_grid(n, 1), stream)
        assert sum(stream.writes) == n + 1
        assert max(stream.writes) <= _CSV_CHUNK
        assert len(stream.writes) <= n // _CSV_CHUNK + 1

    @pytest.mark.parametrize("n_x, n_t", _GRID_SHAPES)
    def test_csv_of_sample_grid_rows_matches_the_per_row_writer(self, n_x, n_t):
        rows = _sampled_grid(n_x, n_t)
        got, expected = io.StringIO(), io.StringIO()
        write_sample_csv(rows, got)
        _write_sample_csv_per_row(list(rows), expected)
        assert got.getvalue() == expected.getvalue()
        if n_x * n_t > 100:
            assert {row[3] for row in rows} == {True, False}

    @pytest.mark.parametrize("n_x, n_t", _GRID_SHAPES)
    def test_csv_of_sample_grid_rows_writes_bounded_chunks(self, n_x, n_t):
        n = n_x * n_t
        stream = _CountingStream()
        write_sample_csv(_sampled_grid(n_x, n_t), stream)
        assert sum(stream.writes) == n + 1
        assert max(stream.writes) <= _CSV_CHUNK
        assert len(stream.writes) <= n // _CSV_CHUNK + 1
