"""Command-line contract tests: exit codes, JSON payloads, CSV sampling."""

import io
import json
import time
from fractions import Fraction

import pytest

from qcalc.cli import main
from qcalc.coeffs import CE_Q, CoefExpr
from qcalc.polys import MPoly
from qcalc.qcore import q_factorial, q_int
from qcalc.qwave import (
    SYMBOLIC_SPEED,
    InitialData,
    WaveSolution,
    dalembert_solve,
    named_source,
    named_wave,
    q_binomial_substitute,
)
from qcalc.serialize import mpoly_from_json, wave_from_json, wave_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cos_sin_wave_order_6() -> WaveSolution:
    """solve --f-named cos_q --g-named sin_q --c 5/7 --order 6, built in process."""
    (f, order), (g, _) = named_source("cos_q", 6), named_source("sin_q", 6)
    return dalembert_solve(InitialData(f, g, order), Fraction(5, 7))


def _laurent_entries(doc) -> list:
    """Every Laurent entry {"s", "re", ["im"]} of a polynomial document."""
    return [
        entry for term in doc["terms"] for part in ("num", "den") for entry in term["coef"][part]
    ]


class TestVerify:
    def test_single_identity_verified(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "q-hermite-binomial", "--n-max", "4"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["id"] == "q-hermite-binomial"
        assert doc["status"] == "verified"

    def test_all_is_sorted_array(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "all", "--n-max", "3", "--order", "4"
        )
        assert code == 0
        docs = json.loads(out)
        ids = [d["id"] for d in docs]
        assert ids == sorted(ids)
        assert all(d["status"] == "verified" for d in docs)

    def test_default_bounds_come_from_the_registry(self, capsys):
        from qcalc.identities import DEFAULT_BOUNDS, IDENTITY_CHECKS

        for flags, order in (((), None), (("--order", "3"), 3)):
            code, out, _ = run(capsys, "verify", "--identity", "all", *flags)
            assert code == 0
            for doc in json.loads(out):
                kind = IDENTITY_CHECKS[doc["id"]][1]
                if kind == "n_max":
                    assert doc["range"] == f"n<={DEFAULT_BOUNDS[doc['id']]}"
                else:
                    assert doc["range"] == f"order<={order or DEFAULT_BOUNDS[doc['id']]}"

    def test_unknown_identity_exits_two(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "bogus")
        assert code == 2

    def test_seeded_spot_checks(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--identity", "exp-product", "--order", "6", "--seed", "5",
        )
        assert code == 0

    def test_violated_identity_exits_one(self, capsys, monkeypatch):
        from qcalc import cli
        from qcalc.identities import Verdict

        def broken(n_max):
            return Verdict("q-laplacian", f"n<={n_max}", status="failed",
                           detail="forced failure for exit-code contract")

        monkeypatch.setitem(cli.IDENTITY_CHECKS, "q-laplacian", (broken, "n_max"))
        code, out, _ = run(capsys, "verify", "--identity", "q-laplacian")
        assert code == 1
        assert json.loads(out)["status"] == "failed"

    def test_negative_bounds_exit_two(self, capsys):
        for flag, ident in (("--order", "exp-product"), ("--n-max", "xi")):
            code, out, err = run(capsys, "verify", "--identity", ident, flag, "-1")
            assert code == 2
            assert out == ""
            assert err == f"error: {flag} must be >= 0\n"

    @pytest.mark.parametrize(
        "ident, flag, takes", [("exp-product", "--n-max", "--order"), ("xi", "--order", "--n-max")]
    )
    def test_bound_of_the_other_kind_exits_two(self, capsys, ident, flag, takes):
        code, out, err = run(capsys, "verify", "--identity", ident, flag, "3")
        assert code == 2
        assert out == ""
        assert err == f"error: {flag} does not apply to {ident} (it takes {takes})\n"

    @pytest.mark.parametrize("ident", ["xi", "q-laplacian"])
    def test_seed_on_an_identity_without_spot_checks_exits_two(self, capsys, ident):
        code, out, err = run(capsys, "verify", "--identity", ident, "--n-max", "2", "--seed", "5")
        assert code == 2
        assert out == ""
        assert err == f"error: --seed does not apply to {ident} (only exp-product takes it)\n"

    @pytest.mark.parametrize(
        "argv", [("exp-product", "--order", "4"), ("all", "--n-max", "2", "--order", "3")]
    )
    def test_seed_is_taken_by_exp_product_and_all(self, capsys, argv):
        code, out, err = run(capsys, "verify", "--identity", *argv, "--seed", "5")
        assert code == 0 and err == ""
        docs = json.loads(out)
        docs = docs if isinstance(docs, list) else [docs]
        assert "exp-product" in [d["id"] for d in docs]
        assert all(d["status"] == "verified" for d in docs)


class TestSolve:
    def test_example_quadratic(self, capsys):
        code, out, _ = run(capsys, "solve", "--f", "0,0,1", "--g", "0", "--c", "1")
        assert code == 0
        wave = wave_from_json(json.loads(out))
        assert wave.body == MPoly(("x", "t"), {(2, 0): 1, (0, 2): CE_Q})

    def test_example_with_named_velocity(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--f", "0,0,1", "--g-named", "neg-2q-cx", "--c", "1"
        )
        assert code == 0
        wave = wave_from_json(json.loads(out))
        expected = q_binomial_substitute(
            MPoly(("x",), {(2,): 1}), "-", Fraction(1)
        )
        assert wave.body == expected

    def test_zero_speed_exits_two(self, capsys):
        code, _, err = run(capsys, "solve", "--f", "0,0,1", "--g", "0", "--c", "0")
        assert code == 2
        assert err == "error: wave speed must be nonzero\n"

    def test_malformed_rational_exits_two(self, capsys):
        code, _, _ = run(capsys, "solve", "--f", "0,zz,1", "--g", "0", "--c", "1")
        assert code == 2

    def test_both_f_forms_rejected(self, capsys):
        code, _, _ = run(
            capsys,
            "solve", "--f", "1", "--f-named", "cos_q", "--g", "0", "--c", "1",
        )
        assert code == 2

    def test_series_solve_with_check(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--f-named", "cos_q", "--g-named", "sin_q",
            "--c", "2", "--order", "8", "--check",
        )
        assert code == 0
        wave = wave_from_json(json.loads(out))
        assert wave.order == 8

    def test_postcondition_failure_exits_one(self, capsys, monkeypatch):
        from qcalc.qwave import WaveSolution

        monkeypatch.setattr(WaveSolution, "residual_is_zero", lambda self: False)
        for extra in ((), ("--check",)):
            code, out, err = run(
                capsys, "solve", "--f", "0,0,1", "--g", "0", "--c", "1", *extra
            )
            assert code == 1
            assert out == ""
            assert err == "error: solver postcondition failed: nonzero wave residual\n"

    def test_values_beginning_with_minus(self, capsys):
        joined = run(capsys, "solve", "--f=-3/7,1", "--g=-.5", "--c=-2/3")
        spaced = run(capsys, "solve", "--f", "-3/7,1", "--g", "-.5", "--c", "-2/3")
        assert joined[0] == 0
        assert spaced == joined
        wave = wave_from_json(json.loads(spaced[1]))
        assert wave.c == CoefExpr.of(Fraction(-2, 3))

    def test_output_is_one_compact_line_without_zero_im(self, capsys):
        code, out, _ = run(
            capsys,
            "solve", "--f-named", "cos_q", "--g-named", "sin_q", "--c", "5/7", "--order", "6",
        )
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n") and " " not in out
        doc = json.loads(out)
        entries = _laurent_entries(doc)
        assert entries and not any("im" in entry for entry in entries)
        assert doc == wave_to_json(_cos_sin_wave_order_6())

    def test_roundtrip_equality(self, capsys):
        code, out, _ = run(capsys, "solve", "--f", "0,1,2", "--g", "3,1", "--c", "1/2")
        assert code == 0
        doc = json.loads(out)
        wave = wave_from_json(doc)
        again = json.loads(json.dumps(doc))
        assert wave_from_json(again).body == wave.body


class TestSample:
    def test_pipeline(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        code = main(
            ["solve", "--f", "0,0,1", "--g", "0", "--c", "1", "--output", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        code, out, _ = run(
            capsys,
            "sample", "--in", str(path), "--q", "0.5", "--c", "1",
            "--x", "0:1:0.5", "--t", "0:1:1",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,t,u,valid"
        # x-major ordering, t = 0 rows reproduce f(x) = x^2
        assert lines[1].startswith("0,0,0,")
        row = lines[3].split(",")
        assert row[0] == "0.5" and row[1] == "0" and abs(float(row[2]) - 0.25) < 1e-12

    def test_nonpositive_q_exits_two(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "1", "--g", "0", "--c", "1", "--output", str(path)])
        capsys.readouterr()
        code, _, _ = run(
            capsys, "sample", "--in", str(path), "--q", "-1", "--x", "0:1:1", "--t", "0:1:1"
        )
        assert code == 2

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = run(
            capsys,
            "sample", "--in", "/nonexistent.json", "--q", "0.5",
            "--x", "0:1:1", "--t", "0:1:1",
        )
        assert code == 2

    def _one_term_wave(self, tmp_path):
        # the constant [20]_q written unreduced as [20]! / [19]!, s-powers up to 380
        body = MPoly(("x", "t"), {(0, 0): CoefExpr(q_factorial(20), q_factorial(19))})
        path = tmp_path / "wave.json"
        path.write_text(json.dumps(wave_to_json(WaveSolution(body, Fraction(1), None, "direct-binomial"))))
        return path

    def test_large_q_samples_finite(self, capsys, tmp_path):
        path = self._one_term_wave(tmp_path)
        code, out, _ = run(
            capsys, "sample", "--in", str(path), "--q", "100", "--x", "0:1:1", "--t", "0:1:1"
        )
        assert code == 0
        values = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert len(values) == 4
        for v in values:
            assert v == pytest.approx((100.0**20 - 1) / 99, rel=1e-12)

    def test_out_of_range_value_exits_two(self, capsys, tmp_path):
        path = self._one_term_wave(tmp_path)
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "1e300", "--x", "0:1:1", "--t", "0:1:1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_integer_order_exits_two(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "0,0,1", "--g", "0", "--c", "1", "--output", str(path)])
        doc = json.loads(path.read_text())
        doc["order"] = 2.7
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", "0:1:1", "--t", "0:1:1"
        )
        assert code == 2
        assert out == ""
        assert "order" in err

    def test_malformed_speed_object_names_the_field(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "0,0,1", "--g", "0", "--c", "1", "--output", str(path)])
        doc = json.loads(path.read_text())
        doc["c"] = "{oops"
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", "0:1:1", "--t", "0:1:1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "wave speed c" in err

    def test_grid_beginning_with_minus(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "0,0,1", "--g", "0", "--c", "1", "--output", str(path)])
        common = ("sample", "--in", str(path), "--q", "0.5")
        joined = run(capsys, *common, "--x=-1:1:0.5", "--t=-.5:0:0.5")
        spaced = run(capsys, *common, "--x", "-1:1:0.5", "--t", "-.5:0:0.5")
        assert joined[0] == 0
        assert spaced == joined
        assert joined[1].splitlines()[1].startswith("-1,-0.5,")

    def test_bad_grid_exits_two(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "1", "--g", "0", "--c", "1", "--output", str(path)])
        capsys.readouterr()
        code, _, _ = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", "0:1", "--t", "0:1:1"
        )
        assert code == 2


    @pytest.mark.parametrize(
        "grid", ["nan:1:0.5", "0:inf:1", "0:1:nan", "0:-inf:1", "1e154:1e154:1", "0:1e16:1"]
    )
    def test_grid_that_never_ends_exits_two(self, capsys, tmp_path, grid):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "1", "--g", "0", "--c", "1", "--output", str(path)])
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", grid, "--t", "0:1:1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "x, t, message",
        [
            ("0:1e12:1", "0:0:1", "grid '0:1e12:1' has 1000000000001 points, more than 4194304"),
            ("0:2048:1", "0:2048:1", "a 2049 x 2049 grid has 4198401 rows, more than 4194304"),
        ],
    )
    def test_grid_over_the_point_cap_exits_two(self, capsys, tmp_path, monkeypatch, x, t, message):
        from qcalc import qwave

        def not_reached(*args):
            raise AssertionError("sampling started")

        path = tmp_path / "wave.json"
        main(["solve", "--f", "1", "--g", "0", "--c", "1", "--output", str(path)])
        monkeypatch.setattr(qwave, "coef_to_complex", not_reached)
        t0 = time.perf_counter()
        code, out, err = run(capsys, "sample", "--in", str(path), "--q", "0.5", "--x", x, "--t", t)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_benchmark_grid_is_under_the_point_cap(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "1", "--g", "0", "--c", "1", "--output", str(path)])
        code, out, _ = run(
            capsys, "sample", "--in", str(path), "--q", "0.7", "--x", "-1:1:0.01", "--t", "0:1:0.01"
        )
        assert code == 0
        assert len(out.splitlines()) == 1 + 201 * 101

    def test_grid_point_count(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "1", "--g", "0", "--c", "1", "--output", str(path)])
        counts = {}
        for grid in ("0:0:1", "1:0:1", "0:1:0.1", "-1:1:0.01", "0:0:1e-300"):
            code, out, _ = run(
                capsys, "sample", "--in", str(path), "--q", "0.5", "--x", grid, "--t", "0:0:1"
            )
            assert code == 0
            counts[grid] = len(out.splitlines()) - 1
        assert counts == {"0:0:1": 1, "1:0:1": 0, "0:1:0.1": 11, "-1:1:0.01": 201, "0:0:1e-300": 1}

    def test_value_out_of_float_range_exits_two(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "0,0,10", "--g", "0", "--c", "1", "--output", str(path)])
        for grid in ("1e154:1.1e154:1e153", "2e154:2.1e154:1e153"):
            code, out, err = run(
                capsys, "sample", "--in", str(path), "--q", "0.5", "--x", grid, "--t", "0:0:1"
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags", [("--q", "nan"), ("--q", "inf"), ("--q", "0.5", "--c", "nan")]
    )
    def test_non_finite_q_or_speed_exits_two(self, capsys, tmp_path, flags):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "0,0,1", "--g", "0", "--c", "1", "--output", str(path)])
        code, out, err = run(
            capsys, "sample", "--in", str(path), *flags, "--x", "0:1:1", "--t", "0:1:1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    def test_speed_out_of_float_range_exits_two(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        path.write_text(json.dumps(wave_to_json(named_wave("cos_q", "+", SYMBOLIC_SPEED, 6))))
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--c", "1e300",
            "--x", "0:1:1", "--t", "0:1:1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: speed c=1e+300") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value",
        [("vars", ["x", "x"]), ("vars", "xt"), ("deg", [0, 2.5]), ("s", 1.5), ("terms", 5)]
        # wire rationals outside -?[0-9]+(/[0-9]+)?, the form the writer emits
        + [("re", text) for text in ("1e3", "0.5", "+1", " 1", "1_0", "\u0661", "1e30000000")],
    )
    def test_malformed_wire_document_exits_two(self, capsys, tmp_path, field, value):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "0,0,1", "--g", "0", "--c", "1", "--output", str(path)])
        doc = json.loads(path.read_text())
        if field == "deg":
            doc["terms"][0]["deg"] = value
        elif field in ("s", "re"):
            doc["terms"][0]["coef"]["num"][0][field] = value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", "1:1:1", "--t", "1:2:1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_indented_document_with_zero_im_reads(self, capsys, tmp_path):
        # the form earlier versions wrote: indent=2 and "im": "0" on every entry
        lean, old = tmp_path / "lean.json", tmp_path / "old.json"
        doc = wave_to_json(_cos_sin_wave_order_6())
        lean.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        for entry in _laurent_entries(doc):
            entry.setdefault("im", "0")
        old.write_text(json.dumps(doc, indent=2) + "\n")
        assert wave_from_json(json.loads(old.read_text())) == wave_from_json(
            json.loads(lean.read_text())
        )
        csv = []
        for path in (lean, old):
            code, out, err = run(
                capsys,
                "sample", "--in", str(path), "--q", "0.7", "--x", "-1:1:0.25", "--t", "0:1:0.25",
            )
            assert code == 0 and err == ""
            csv.append(out)
        assert csv[0] == csv[1] and csv[0].count("\n") == 1 + 9 * 5

    @pytest.mark.parametrize("key", ["re", "im"])
    def test_zero_denominator_in_a_rational_exits_two(self, capsys, tmp_path, key):
        path = tmp_path / "wave.json"
        doc = wave_to_json(_cos_sin_wave_order_6())
        doc["terms"][0]["coef"]["num"][0][key] = "1/0"
        path.write_text(json.dumps(doc, indent=2))
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", "0:1:1", "--t", "0:1:1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "bad rational '1/0'" in err

    def test_far_apart_exponents_exit_two(self, capsys, tmp_path):
        # two terms 2e9 exponents apart would be two dense vectors of 2e9 slots
        path = tmp_path / "wave.json"
        main(["solve", "--f", "0,0,1", "--g", "0", "--c", "1", "--output", str(path)])
        doc = json.loads(path.read_text())
        doc["terms"][0]["coef"]["num"] = [
            {"s": 0, "re": "1", "im": "0"}, {"s": 2_000_000_000, "re": "1", "im": "0"}
        ]
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", "1:1:1", "--t", "1:2:1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too sparse" in err

    def test_body_over_table_cap_exits_two(self, capsys, tmp_path):
        # one term of degree (2100, 2100) would need two 2101 x 2101 float tables
        path = tmp_path / "wave.json"
        main(["solve", "--f", "0,0,1", "--g", "0", "--c", "1", "--output", str(path)])
        doc = json.loads(path.read_text())
        doc["terms"] = [{**doc["terms"][0], "deg": [2100, 2100]}]
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", "0:0:1", "--t", "0:0:1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "table cells" in err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_deeply_nested_input_exits_two(self, capsys, tmp_path, monkeypatch, source):
        text = "[" * 200_000 + "]" * 200_000
        path = tmp_path / "wave.json"
        path.write_text(text)
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        infile = str(path) if source == "file" else "-"
        code, out, err = run(
            capsys, "sample", "--in", infile, "--q", "0.5", "--x", "0:1:1", "--t", "0:1:1"
        )
        assert code == 2
        assert out == ""
        assert err == "error: wave document is nested too deeply\n"

    def test_input_that_is_not_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        path.write_text("{not json")
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", "0:1:1", "--t", "0:1:1"
        )
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1


class TestHermiteAndExpand:
    def test_hermite_two(self, capsys):
        code, out, _ = run(capsys, "hermite", "--n", "2")
        assert code == 0
        poly = mpoly_from_json(json.loads(out))
        two = CoefExpr.of(q_int(2))
        assert poly.coefficient((2,)) == two * two
        assert poly.coefficient((0,)) == -two

    def test_hermite_kinds(self, capsys):
        code, out, _ = run(capsys, "hermite", "--n", "3", "--kind", "classical")
        assert code == 0
        poly = mpoly_from_json(json.loads(out))
        assert poly.coefficient((3,)) == CoefExpr.of(8)
        code, out, _ = run(capsys, "hermite", "--n", "1", "--kind", "inverse-q")
        assert code == 0
        poly = mpoly_from_json(json.loads(out))
        assert poly == MPoly(("w",), {(1,): q_int(2)})

    def test_hermite_negative_exits_two(self, capsys):
        code, _, _ = run(capsys, "hermite", "--n", "-2")
        assert code == 2

    def test_expand_traveling(self, capsys):
        code, out, _ = run(capsys, "expand", "--binomial", "x-ct", "--n", "2")
        assert code == 0
        poly = mpoly_from_json(json.loads(out))
        assert poly == q_binomial_substitute(
            MPoly(("x",), {(2,): 1}), "-", SYMBOLIC_SPEED
        )

    def test_expand_complex(self, capsys):
        code, out, _ = run(capsys, "expand", "--binomial", "z+iw", "--n", "1")
        assert code == 0
        poly = mpoly_from_json(json.loads(out))
        assert poly.coefficient((1, 0)) == CoefExpr.of(1)

    def test_expand_complex_keeps_nonzero_im(self, capsys):
        code, out, _ = run(capsys, "expand", "--binomial", "z+iw", "--n", "3")
        assert code == 0
        ims = [entry["im"] for entry in _laurent_entries(json.loads(out)) if "im" in entry]
        assert ims and "0" not in ims

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        code = main(["hermite", "--n", "2", "--output", str(path)])
        assert code == 0
        assert json.loads(path.read_text())["vars"] == ["x"]

    def test_output_file_only_when_the_command_returns(self, capsys, tmp_path, monkeypatch):
        from qcalc import cli
        from qcalc.identities import Verdict

        path = tmp_path / "o.json"
        code = main(["solve", "--f", "0,zz", "--g", "0", "--c", "1", "--output", str(path)])
        assert code == 2
        assert not path.exists()

        def broken(n_max):
            return Verdict("q-laplacian", f"n<={n_max}", status="failed", detail="forced")

        monkeypatch.setitem(cli.IDENTITY_CHECKS, "q-laplacian", (broken, "n_max"))
        code = main(["verify", "--identity", "q-laplacian", "--output", str(path)])
        assert code == 1
        assert json.loads(path.read_text())["status"] == "failed"
        assert capsys.readouterr().out == ""

    def test_bad_term_is_named_by_degree_not_dumped(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        argv = ["solve", "--f-named", "cos_q", "--g-named", "sin_q", "--c", "5/7"]
        main([*argv, "--order", "20", "--output", str(path)])
        doc = json.loads(path.read_text())
        term = max(doc["terms"], key=lambda item: len(json.dumps(item["coef"])))
        term["coef"]["num"][0]["s"] = 1.5
        path.write_text(json.dumps(doc))
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", "0:1:1", "--t", "0:1:1"
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and len(err) < 200
        assert f"deg {term['deg']}" in err
