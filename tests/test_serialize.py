"""Wire-format round trips and malformed-input rejection."""

import io
import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc.coeffs import CoefExpr, GaussianRational, LaurentPoly, LP_ONE
from qcalc.polys import MPoly, q_binomial_power
from qcalc.qcore import q_exp_series, q_int
from qcalc.qwave import SYMBOLIC_SPEED, WaveSolution, q_binomial_substitute
from qcalc.serialize import (
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
    the stripped text, or the error message it raised."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        return f"bad rational {text!r}: {exc}"


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


class TestIntegerReader:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_wire_entries)
    def test_agrees_with_the_fraction_route(self, entries):
        items, values = [], {}
        for e, (a, ad, form, b, bd) in entries.items():
            item = {"s": e, "re": _wire(a, ad)}
            if form == "zero":
                item["im"] = "0"
            elif form == "value":
                item["im"] = _wire(b, bd)
            items.append(item)
            values[e] = GaussianRational(Fraction(item["re"]), Fraction(item.get("im", "0")))
        got, expected = _laurent_from_list(items), LaurentPoly(values)
        assert (got.lo, got.den, got.re, got.im) == (
            expected.lo, expected.den, expected.re, expected.im
        )
        # and read back through the GaussianRational view, apart from the fill
        assert got.coeffs == {e: v for e, v in values.items() if v}


class TestMPoly:
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
        assert len(doc["coeffs"]) == 6
        assert series_from_json(doc) == (s, 5)
        # a series stored beyond its order reads back truncated
        assert series_from_json(series_to_json(s, 5) | {"order": 3}) == (
            s.truncate_total_degree(3),
            3,
        )

    def test_malformed(self):
        with pytest.raises(SerializationError):
            series_from_json({"var": "x"})
        with pytest.raises(SerializationError):
            series_from_json({"var": "x", "order": -1, "coeffs": []})

    @pytest.mark.parametrize(
        "field, value", [("order", 2.7), ("order", True), ("order", "3"), ("var", ["x"])]
    )
    def test_refused_like_wave_documents(self, field, value):
        doc = series_to_json(q_exp_series("E", 5), 5) | {field: value}
        with pytest.raises(SerializationError, match=f"series {field} "):
            series_from_json(doc)


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
        # the older form, the coefficient document inside a string, still reads
        doc["c"] = json.dumps(coef_to_json(ws.c), sort_keys=True)
        assert wave_from_json(doc).c == ws.c
        assert wave_to_json(wave_from_json(doc))["c"] == coef_to_json(ws.c)

    def test_rational_speed_stays_a_string(self):
        ws = WaveSolution(MPoly(("x", "t"), {(1, 0): 1}), CoefExpr.of(Fraction(-5, 7)), None, "dalembert")
        assert wave_to_json(ws)["c"] == "-5/7"
        assert wave_from_json(wave_to_json(ws)).c == Fraction(-5, 7)

    @pytest.mark.parametrize("c", ["0.5", "+2", " 2", 2, "2e0"])
    def test_rational_speed_outside_the_grammar_rejected(self, c):
        with pytest.raises(SerializationError, match="bad rational"):
            wave_from_json(self._doc(c=c))

    def test_deeply_nested_legacy_speed_rejected(self):
        with pytest.raises(SerializationError, match="nested too deeply"):
            wave_from_json(self._doc(c='{"num": ' + "[" * 200_000 + "]" * 200_000 + "}"))

    def test_missing_speed(self):
        with pytest.raises(SerializationError):
            wave_from_json({"vars": ["x", "t"], "terms": []})

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
def _csv_rows(draw):
    """x-major grid rows, so coordinates repeat, or rows drawn one by one."""
    if draw(st.booleans()):
        xs = draw(st.lists(_csv_float, min_size=1, max_size=4))
        ts = draw(st.lists(_csv_float, min_size=1, max_size=4))
        points = [(x, t) for x in xs for t in ts]
    else:
        points = draw(st.lists(st.tuples(_csv_float, _csv_float), max_size=12))
    return [(x, t, draw(_csv_float), draw(st.booleans())) for x, t in points]


class TestVerdictAndCsv:
    def test_verdict_json_shape(self):
        doc = verdict_to_json(verify_hermite_binomial(2))
        assert doc["id"] == "hermite-binomial"
        assert doc["status"] == "verified"
        assert "residual" not in doc
        assert doc["ms"] >= 0

    def test_csv_contract(self):
        buf = io.StringIO()
        write_sample_csv([(0.5, 0.0, 1.2345678901234567, True)], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x,t,u,valid"
        assert lines[1].startswith("0.5,0,1.2345678901234567")
        assert lines[1].endswith(",1")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_csv_rows())
    def test_csv_matches_the_per_row_writer(self, rows):
        got, expected = io.StringIO(), io.StringIO()
        write_sample_csv(rows, got)
        _write_sample_csv_per_row(rows, expected)
        assert got.getvalue() == expected.getvalue()

    def test_csv_keeps_the_sign_of_zero(self):
        rows = [(0.0, -0.0, 1.0, True), (-0.0, 0.0, -0.0, False), (0.0, -0.0, 0.0, True)]
        buf = io.StringIO()
        write_sample_csv(rows, buf)
        assert buf.getvalue() == "x,t,u,valid\n0,-0,1,1\n-0,0,-0,0\n0,-0,0,1\n"
