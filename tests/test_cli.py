"""Command-line contract tests: exit codes, JSON payloads, CSV sampling."""

import hashlib
import io
import json
import math
import os
import re
import stat
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcalc import cli, coeffs, serialize
from qcalc.cli import main
from qcalc.coeffs import CE_Q, GR_I, CoefExpr
from qcalc.hermite import hermite_classical, q_hermite, q_hermite_dual
from qcalc.polys import MPoly, q_binomial_power
from qcalc.qcore import q_factorial, q_int
from qcalc.qwave import (
    SYMBOLIC_SPEED,
    InitialData,
    WaveSolution,
    dalembert_solve,
    named_source,
    named_wave,
    poly_from_coefficients,
    q_binomial_substitute,
)
from qcalc.serialize import (
    coef_from_json,
    doc_text,
    mpoly_from_json,
    wave_from_json,
    wave_to_json,
)
from test_serialize import _reference_doc


class _WatchedStream:
    """A stream that forwards writes and keeps what a write raised."""

    def __init__(self, inner):
        self.inner = inner
        self.raised = None

    def write(self, text):
        try:
            return self.inner.write(text)
        except BaseException as exc:
            self.raised = exc
            raise


def _watched_main(argv) -> int:
    """main(argv), with the stream each command's emit is handed wrapped.  A
    command raises before it returns its emit or not at all, so emit may
    only fail in a write of its own: any other exception that leaves it, and
    so any that comes after its first write, fails the test."""
    late = []

    def watch(command):
        def watched_command(args):
            code, emit = command(args)

            def watched_emit(out):
                stream = _WatchedStream(out)
                try:
                    emit(stream)
                except BaseException as exc:
                    if exc is not stream.raised:
                        late.append(exc)
                    raise

            return code, watched_emit

        return watched_command

    commands = dict(cli._COMMANDS)
    cli._COMMANDS.update({name: watch(command) for name, command in commands.items()})
    try:
        code = main(argv)
    finally:
        cli._COMMANDS.update(commands)
    assert not late, f"{late[0]!r} left emit, not raised by a write"
    return code


def run(capsys, *argv):
    code = _watched_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cos_sin_wave(order: int = 6) -> WaveSolution:
    """solve --f-named cos_q --g-named sin_q --c 5/7 --order ORDER, built in process."""
    (f, order), (g, _) = named_source("cos_q", order), named_source("sin_q", order)
    return dalembert_solve(InitialData(f, g, order), Fraction(5, 7))


def _laurent_entries(doc) -> list:
    """Every Laurent entry {"s", "re", ["im"]} of a polynomial document."""
    return [
        entry for term in doc["terms"] for part in ("num", "den") for entry in term["coef"][part]
    ]


# the denominator s + s^2/2, which both terms of _shared_den_doc carry
_SHARED_DEN = [{"s": 1, "re": "1"}, {"s": 2, "re": "1/2"}]


def _shared_den_doc(second_den) -> dict:
    """A wave document of two terms, the second with second_den as its own
    copy of the first term's denominator."""
    return {
        "vars": ["x", "t"],
        "terms": [
            {"deg": [0, 0], "coef": {"num": [{"s": 0, "re": "1"}], "den": _SHARED_DEN}},
            {"deg": [1, 0], "coef": {"num": [{"s": 0, "re": "3"}], "den": second_den}},
        ],
        "c": "1",
        "provenance": "dalembert",
    }


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
        from qcalc.identities import Verdict

        # a failed verdict writes its residual, a polynomial or a coefficient,
        # in the wire form, and has no residual key when it has none
        residuals = [
            (None, None),
            (q_binomial_power("z", GR_I, "w", 3), mpoly_from_json),
            (CoefExpr(q_int(3), q_int(2)) * CE_Q, coef_from_json),
        ]
        for residual, read in residuals:
            def broken(n_max):
                return Verdict("q-laplacian", f"n<={n_max}", status="failed",
                               detail="forced failure for exit-code contract", residual=residual)

            monkeypatch.setitem(cli.IDENTITY_CHECKS, "q-laplacian", (broken, "n_max"))
            code, out, _ = run(capsys, "verify", "--identity", "q-laplacian")
            assert code == 1
            doc = json.loads(out)
            assert doc["status"] == "failed"
            if residual is None:
                assert "residual" not in doc
            else:
                assert read(doc["residual"]) == residual

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

    def test_value_past_the_wire_digit_bound_exits_two(self, capsys, tmp_path):
        # c**8 has 4,800 digits: the solution is built and checked, then refused
        argv = ["solve", "--f", "0,0,0,0,0,0,0,0,1", "--g", "0", "--c", "7" * 600]
        message = "error: a rational to write has more than 4300 digits, the wire digit bound\n"
        assert run(capsys, *argv) == (2, "", message)
        assert main([*argv, "--output", str(tmp_path / "u.json")]) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--c", "--f", "--g"])
    @pytest.mark.parametrize("value", ["1e999999999", "-2.5E-999999999", "1e4301"])
    def test_huge_exponent_form_exits_two_at_once(self, capsys, flag, value):
        # Fraction would build a billion-digit integer first: minutes, not a message
        argv = {"--f": "1", "--g": "0", "--c": "1", flag: value}
        start = time.perf_counter()
        code, out, err = run(capsys, "solve", *[a for kv in argv.items() for a in kv])
        assert time.perf_counter() - start < 5
        assert (code, out) == (2, "")
        assert err == f"error: bad rational {value!r}: exponent past 4300, the wire digit bound\n"

    def test_argument_over_the_wire_digit_bound_exits_two(self, capsys):
        for value in ("7" * 4301, "1/" + "3" * 4301, "0." + "1" * 4301):
            code, out, err = run(capsys, "solve", "--f", "1", "--g", "0", "--c", value)
            assert (code, out) == (2, "")
            assert err.endswith(": more than 4300 digits, the wire digit bound\n")
        # an exponent at the bound is read; the bound on what is written still holds
        code, out, err = run(capsys, "solve", "--f", "1e4300", "--g", "0", "--c", "1/7")
        assert (code, out) == (2, "") and err.startswith("error: a rational to write has")
        code, out, _ = run(capsys, "solve", "--f", "1", "--g", "0", "--c", "3e-4299")
        assert code == 0 and json.loads(out)["c"] == "3/1" + "0" * 4299

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

    @pytest.mark.parametrize("flag", ["--c", "--f"])
    def test_zero_denominator_is_named(self, capsys, flag):
        argv = {"--f": "1", "--g": "0", "--c": "1", flag: "1/0"}
        code, out, err = run(capsys, "solve", *[a for kv in argv.items() for a in kv])
        assert (code, out, err) == (2, "", "error: bad rational '1/0': zero denominator\n")

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
        assert doc == wave_to_json(_cos_sin_wave())

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
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", "0:1:zz", "--t", "0:1:1"
        )
        assert (code, out, err) == (2, "", "error: grid '0:1:zz' has non-numeric parts\n")


    @pytest.mark.parametrize(
        "grid",
        [
            "nan:1:0.5", "0:inf:1", "0:1:nan", "0:-inf:1", "1e154:1e154:1", "0:1e16:1",
            "0:1:0", "0:1:-0.5",
        ],
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

    def test_malformed_copy_of_a_repeated_denominator_exits_two(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        argv = ["sample", "--in", str(path), "--q", "0.5", "--x", "1:1:1", "--t", "1:1:1"]
        path.write_text(json.dumps(_shared_den_doc(list(_SHARED_DEN))))
        assert run(capsys, *argv) == (0, "x,t,u,valid\n1,1,4.1792619994198628,1\n", "")
        bad_copy = [{"s": True, "re": "1"}, {"s": 2, "re": "1/2"}]
        path.write_text(json.dumps(_shared_den_doc(bad_copy)))
        message = "bad coefficient at deg [1, 0]: Laurent exponent True is not an integer"
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

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

    def test_coefficient_out_of_float_range_names_its_degree(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        argv = ["solve", "--f", "0,0,0,0,0,0,0,0,1", "--g", "0", "--c", "7" * 500]
        assert main([*argv, "--output", str(path)]) == 0
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", "0:1:1", "--t", "0:0:1"
        )
        assert (code, out) == (2, "")
        assert err == "error: coefficient of t^8 at q=0.5 is out of float range\n"

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

    @pytest.mark.parametrize("c", ["0", "c", '{"num": [], "den": [{"s": 0, "re": "1"}]}'])
    def test_speed_the_solver_refuses_is_refused_on_read(self, capsys, tmp_path, c):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "0,0,1", "--g", "0", "--c", "1", "--output", str(path)])
        doc = json.loads(path.read_text())
        assert doc["vars"] == ["x", "t"]
        path.write_text(json.dumps(doc | {"c": c}))
        code, out, err = run(
            capsys, "sample", "--in", str(path), "--q", "0.5", "--x", "0:1:1", "--t", "0:1:1"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: bad wave speed c: ") and err.count("\n") == 1

    def test_indented_document_with_zero_im_reads(self, capsys, tmp_path):
        # the form earlier versions wrote: indent=2 and "im": "0" on every entry
        lean, old = tmp_path / "lean.json", tmp_path / "old.json"
        doc = wave_to_json(_cos_sin_wave())
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
        doc = wave_to_json(_cos_sin_wave())
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


def _grid_by_loop(text: str) -> list:
    """The loop _parse_grid documents: start + k*step for k = 0, 1, ... up to
    the first point past stop + step*1e-9."""
    start, stop, step = (float(p) for p in text.split(":"))
    limit = stop + step * 1e-9
    points = []
    while start + len(points) * step <= limit:
        points.append(start + len(points) * step)
    return points


class TestParseGrid:
    @pytest.mark.parametrize(
        "text",
        [
            "-2:-1.7000000000000002:0.3",  # the first estimate is one point short
            "941996039.8209823:941996039.8679823:0.001",  # and here one point over
        ],
    )
    def test_count_corrections_match_the_loop(self, text):
        assert cli._parse_grid(text) == _grid_by_loop(text)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        start=st.floats(-1e9, 1e9) | st.integers(-5, 5).map(float),
        step=st.floats(1e-3, 10) | st.sampled_from([0.001, 0.01, 0.1, 0.3, 0.25]),
        n=st.integers(-3, 40),
        nudge=st.integers(-2, 2),
    )
    def test_small_grids_match_the_loop(self, start, step, n, nudge):
        # stop lands on or a few ulps beside a grid point, where rounding decides
        stop = start + n * step
        for _ in range(abs(nudge)):
            stop = math.nextafter(stop, math.copysign(math.inf, nudge))
        text = f"{start!r}:{stop!r}:{step!r}"
        assert cli._parse_grid(text) == _grid_by_loop(text)


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
        from qcalc.identities import Verdict

        path = tmp_path / "o.json"
        code = main(["solve", "--f", "0,zz", "--g", "0", "--c", "1", "--output", str(path)])
        assert code == 2
        assert list(tmp_path.iterdir()) == []  # neither the file nor a stray one

        def fails_before_returning(args):
            raise ValueError("failed before its result")

        monkeypatch.setitem(cli._COMMANDS, "hermite", fails_before_returning)
        code = main(["hermite", "--n", "2", "--output", str(path)])
        assert code == 2
        assert list(tmp_path.iterdir()) == []

        def broken(n_max):
            return Verdict("q-laplacian", f"n<={n_max}", status="failed", detail="forced")

        monkeypatch.setitem(cli.IDENTITY_CHECKS, "q-laplacian", (broken, "n_max"))
        code = main(["verify", "--identity", "q-laplacian", "--output", str(path)])
        assert code == 1
        assert json.loads(path.read_text())["status"] == "failed"
        assert capsys.readouterr().out == ""

    def test_output_file_has_the_stdout_bytes(self, capsys, tmp_path):
        wave = tmp_path / "wave.json"
        wave.write_text(json.dumps(wave_to_json(_cos_sin_wave())))
        argv = ["sample", "--in", str(wave), "--q", "0.7", "--x", "-1:1:0.05", "--t", "0:1:0.02"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.count("\n") == 1 + 41 * 51  # more than one write
        path = tmp_path / "u.csv"
        assert main([*argv, "--output", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == out.encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["u.csv", "wave.json"]
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask  # as open(path, "w") makes it

    def test_output_to_a_fifo_is_written_through(self, capsys, tmp_path):
        _, out, _ = run(capsys, "hermite", "--n", "3")
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        assert main(["hermite", "--n", "3", "--output", str(fifo)]) == 0
        reader.join(10)
        assert got == [out.encode()]
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]
        assert stat.S_ISFIFO(fifo.stat().st_mode)  # not replaced by a regular file

    def test_output_over_an_existing_file_rewrites_it_in_place(
        self, capsys, tmp_path, monkeypatch
    ):
        _, out, _ = run(capsys, "hermite", "--n", "3")
        path = tmp_path / "o.json"
        path.write_text("old\n")
        path.chmod(0o600)
        hard = tmp_path / "hard"
        os.link(path, hard)
        sym = tmp_path / "sym"
        sym.symlink_to(path.name)
        for name in (path, sym):
            path.write_text("old\n")
            assert main(["hermite", "--n", "3", "--output", str(name)]) == 0
            assert path.read_bytes() == hard.read_bytes() == out.encode()
            assert path.stat().st_mode & 0o777 == 0o600
            assert sym.is_symlink()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hard", "o.json", "sym"]

        def fails_before_returning(args):
            raise ValueError("failed before its result")

        monkeypatch.setitem(cli._COMMANDS, "hermite", fails_before_returning)
        assert main(["hermite", "--n", "3", "--output", str(sym)]) == 2
        assert path.read_bytes() == out.encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hard", "o.json", "sym"]

    def test_output_path_that_cannot_be_opened(self, capsys, tmp_path):
        path = tmp_path / "missing" / "o.json"
        code, out, err = run(capsys, "hermite", "--n", "2", "--output", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
        assert list(tmp_path.iterdir()) == []
        path = tmp_path / "o.json"
        path.write_text("old\n")  # an existing, writable file is rewritten
        _, out, _ = run(capsys, "hermite", "--n", "2")
        assert main(["hermite", "--n", "2", "--output", str(path)]) == 0
        assert path.read_text() == out

    @pytest.mark.parametrize("argv", [
        ("hermite", "--n", "3"),
        ("solve", "--f", "1", "--g", "0", "--c", "1"),
    ])
    def test_empty_output_path_is_refused(self, capsys, tmp_path, monkeypatch, argv):
        # an unset shell variable gives an empty PATH: it fails at open like
        # any other bad path, and nothing goes to stdout
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv, "--output", "")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 2] No such file or directory: ''\n"
        assert list(tmp_path.iterdir()) == []

    def test_output_file_with_the_longest_name(self, capsys, tmp_path):
        path = tmp_path / ("o" * os.pathconf(tmp_path, "PC_NAME_MAX"))
        assert main(["hermite", "--n", "2", "--output", str(path)]) == 0
        assert json.loads(path.read_text())["vars"] == ["x"]
        assert list(tmp_path.iterdir()) == [path]

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


# one failing argv per command, with its exit code; WAVE stands for the
# solution of f = 10x^2, whose values leave the float range on this x grid
_FAILING_COMMANDS = {
    "verify-negative-bound": (["verify", "--identity", "q-laplacian", "--n-max", "-1"], 2),
    "solve-bad-rational": (["solve", "--f", "0,zz", "--g", "0", "--c", "1"], 2),
    "solve-negative-order": (["solve", "--f", "0,0,1", "--g", "0", "--c", "1", "--order", "-5"], 2),
    "solve-postcondition": (["solve", "--f", "0,0,1", "--g", "0", "--c", "1"], 1),
    "sample-overflow": (
        ["sample", "--in", "WAVE", "--q", "0.5", "--x", "1e154:1.1e154:1e153", "--t", "0:0:1"],
        2,
    ),
    "hermite-negative-n": (["hermite", "--n", "-1"], 2),
    "expand-negative-n": (["expand", "--binomial", "x+ct", "--n", "-1"], 2),
}


class TestNothingWrittenOnFailure:
    """A command raises before its first byte or not at all: a failing one
    prints nothing, makes no --output file and leaves an existing one as it was."""

    @pytest.mark.parametrize("where", ["stdout", "new-path", "existing-file"])
    @pytest.mark.parametrize("case", sorted(_FAILING_COMMANDS))
    def test_failing_command_writes_nothing(self, capsys, tmp_path, monkeypatch, case, where):
        argv, expected = _FAILING_COMMANDS[case]
        wave = tmp_path / "wave.json"
        assert main(["solve", "--f", "0,0,10", "--g", "0", "--c", "1", "--output", str(wave)]) == 0
        if case == "solve-postcondition":
            monkeypatch.setattr(WaveSolution, "residual_is_zero", lambda self: False)
        argv = [str(wave) if arg == "WAVE" else arg for arg in argv]
        folder = tmp_path / "out"
        folder.mkdir()
        path = folder / "result"
        if where == "existing-file":
            path.write_bytes(b"old\n")
        if where != "stdout":
            argv += ["--output", str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (expected, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        if where == "existing-file":
            assert [p.name for p in folder.iterdir()] == ["result"]
            assert path.read_bytes() == b"old\n"
        else:
            assert list(folder.iterdir()) == []

    def test_sample_over_its_own_input(self, capsys, tmp_path):
        path = tmp_path / "wave.json"
        main(["solve", "--f", "0,0,1", "--g", "0", "--c", "1", "--output", str(path)])
        argv = ["sample", "--in", str(path), "--q", "0.5", "--x", "0:1:0.5", "--t", "0:1:0.5"]
        code, csv, _ = run(capsys, *argv)
        assert code == 0 and csv.startswith("x,t,u,valid\n")
        # the input is read in full before PATH is opened
        assert main([*argv, "--output", str(path)]) == 0
        assert path.read_text() == csv
        assert capsys.readouterr().out == ""


class TestResourceErrors:
    """Running out of memory or recursion depth is a usage-class failure:
    exit 2 with one stderr line, never exit 1 (the code of a failed
    identity) with a traceback, and no --output file."""

    @pytest.mark.parametrize("where", ["stdout", "new-path"])
    @pytest.mark.parametrize(
        "error, line",
        [(MemoryError, "error: out of memory\n"),
         (RecursionError, "error: maximum recursion depth exceeded\n")],
        ids=["memory", "recursion"],
    )
    @pytest.mark.parametrize("argv", [
        ["verify", "--identity", "xi"],
        ["solve", "--f", "0,0,1", "--g", "0", "--c", "1"],
        ["sample", "--in", "wave.json", "--q", "0.5", "--x", "0:1:1", "--t", "0:1:1"],
        ["hermite", "--n", "2"],
        ["expand", "--binomial", "x+ct", "--n", "2"],
    ], ids=lambda argv: argv[0])
    def test_exits_two_with_one_line(self, capsys, tmp_path, monkeypatch, argv, error, line,
                                     where):
        def runs_out(args):
            raise error()

        monkeypatch.setitem(cli._COMMANDS, argv[0], runs_out)
        folder = tmp_path / "out"
        folder.mkdir()
        if where == "new-path":
            argv = [*argv, "--output", str(folder / "result")]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", line)
        assert "Traceback" not in captured.err
        assert list(folder.iterdir()) == []


class TestSizeCeilings:
    """A size flag one past its ceiling exits 2 with one stderr line before
    any arithmetic: the kernels every q-polynomial is built through raise
    if they are called."""

    @pytest.mark.parametrize("argv, flag, ceiling", [
        (["verify", "--identity", "all", "--order"], "--order", cli.MAX_VERIFY_ORDER),
        (["verify", "--identity", "xi", "--n-max"], "--n-max", cli.MAX_VERIFY_N_MAX),
        (["solve", "--f-named", "cos_q", "--g-named", "sin_q", "--c", "2", "--order"],
         "--order", cli.MAX_SOLVE_ORDER),
        (["hermite", "--kind", "classical", "--n"], "--n", cli.MAX_HERMITE_N),
        (["expand", "--binomial", "z+iw", "--n"], "--n", cli.MAX_EXPAND_N),
    ], ids=["verify-order", "verify-n-max", "solve-order", "hermite-n", "expand-n"])
    def test_one_past_the_ceiling_exits_two(self, capsys, monkeypatch, argv, flag, ceiling):
        def kernel(*args):
            raise AssertionError("arithmetic ran before the ceiling check")

        for name in ("_canonical", "_cut", "_q_products"):
            monkeypatch.setattr(coeffs, name, kernel)
        code, out, err = run(capsys, *argv, str(ceiling + 1))
        assert (code, out) == (2, "")
        assert err == f"error: {flag} {ceiling + 1} is more than {ceiling}\n"

    @pytest.mark.parametrize("which", ["f", "g"])
    def test_a_coefficient_list_one_past_the_ceiling_exits_two(self, capsys, monkeypatch, which):
        def kernel(*args):
            raise AssertionError("a rational was parsed or arithmetic ran before the ceiling check")

        for name in ("_canonical", "_cut", "_q_products"):
            monkeypatch.setattr(coeffs, name, kernel)
        monkeypatch.setattr(cli, "rational_from_str", kernel)
        size = cli.MAX_SOLVE_ORDER + 1
        lists = {"f": "1", "g": "0", which: ",".join(["1"] * (size + 1))}
        code, out, err = run(capsys, "solve", "--f", lists["f"], "--g", lists["g"], "--c", "2")
        assert (code, out) == (2, "")
        assert err == f"error: --{which} coefficients {size + 1} is more than {size}\n"

    @pytest.mark.parametrize("which, argv", [
        ("f", ["--f-named", "q-gaussian", "--g-named", "sin_q"]),
        ("f", ["--f-named", "q-gaussian", "--g-named", "q-gaussian"]),
        ("g", ["--f-named", "cos_q", "--g-named", "q-gaussian"]),
    ], ids=["f", "both", "g"])
    def test_a_q_gaussian_past_the_ceiling_exits_two(self, capsys, monkeypatch, which, argv):
        # its order counts series terms, so its degree is twice --order
        def kernel(*args):
            raise AssertionError("arithmetic ran before the ceiling check")

        for name in ("_canonical", "_cut", "_q_products"):
            monkeypatch.setattr(coeffs, name, kernel)
        order = cli.MAX_SOLVE_ORDER // 2
        code, out, err = run(capsys, "solve", *argv, "--c", "2", "--order", str(order + 1))
        assert (code, out) == (2, "")
        degree, ceiling = 2 * order + 2, cli.MAX_SOLVE_ORDER
        assert err == f"error: --{which}-named q-gaussian degree {degree} is more than {ceiling}\n"
        # one order lower the degree is at the ceiling: the check passes and the solve starts
        with pytest.raises(AssertionError, match="arithmetic ran"):
            run(capsys, "solve", *argv, "--c", "2", "--order", str(order))

    def test_the_sizes_in_use_stay_legal(self):
        # CI's deep verify and memory steps, the benchmark and the README
        # tables run these sizes
        assert cli.MAX_SOLVE_ORDER >= 60
        assert cli.MAX_VERIFY_N_MAX >= 28 and cli.MAX_VERIFY_ORDER >= 24
        assert cli.MAX_HERMITE_N >= 100 and cli.MAX_EXPAND_N >= 120


class TestNoExceptionAfterTheFirstWrite:
    """run() watches the stream each emit is handed (_watched_main), so every
    CLI test that goes through it, the sample error paths and the wire digit
    bound included, fails if an exception other than a write's own leaves
    emit, after its first write or before it."""

    @pytest.mark.parametrize("case", sorted(_FAILING_COMMANDS))
    def test_failing_command_never_emits(self, capsys, tmp_path, monkeypatch, case):
        argv, expected = _FAILING_COMMANDS[case]
        wave = tmp_path / "wave.json"
        assert main(["solve", "--f", "0,0,10", "--g", "0", "--c", "1", "--output", str(wave)]) == 0
        if case == "solve-postcondition":
            monkeypatch.setattr(WaveSolution, "residual_is_zero", lambda self: False)
        emitted = []
        monkeypatch.setattr(cli, "_json_emit", lambda doc: emitted.append(doc))
        monkeypatch.setattr(cli, "write_sample_csv", lambda rows, out: emitted.append(rows))
        argv = [str(wave) if arg == "WAVE" else arg for arg in argv]
        assert run(capsys, *argv)[:2] == (expected, "")
        assert emitted == []

    def test_the_watch_sees_an_exception_after_a_write(self, capsys, monkeypatch):
        def writes_then_fails(args):
            def emit(out):
                out.write("{")
                raise ValueError("failed after its first byte")

            return 0, emit

        monkeypatch.setitem(cli._COMMANDS, "hermite", writes_then_fails)
        with pytest.raises(AssertionError, match="left emit, not raised by a write"):
            run(capsys, "hermite", "--n", "2")

    def test_a_write_of_its_own_may_fail(self, capsys, monkeypatch):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: Full(), raising=False)
        code, out, err = run(capsys, "hermite", "--n", "2", "--output", "h.json")
        assert (code, out) == (2, "")
        assert err == "error: [Errno 28] No space left on device\n"


def _one_shot(doc) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _rendered(value) -> str:
    out = io.StringIO()
    cli._json_emit(doc_text(value))(out)
    return out.getvalue()


class TestRenderedJson:
    """_json_emit writes the pieces of serialize.doc_text, each term's text
    formatted with each distinct denominator encoded once; the text is the
    one-shot dump of the document the test assembles term by term
    (test_serialize._reference_doc)."""

    @pytest.mark.parametrize("speed", [Fraction(3, 5), SYMBOLIC_SPEED, CoefExpr.of(q_int(2))])
    def test_cos_sin_wave_order_20(self, speed):
        (f, order), (g, _) = named_source("cos_q", 20), named_source("sin_q", 20)
        wave = dalembert_solve(InitialData(f, g, order), speed)
        text = _rendered(wave)
        assert text == _one_shot(_reference_doc(wave))
        assert isinstance(json.loads(text)["c"], dict) == isinstance(speed, CoefExpr)

    def test_rational_data_and_zero_polynomial(self):
        data = InitialData(
            poly_from_coefficients([Fraction(1, 3), Fraction(-2, 7), Fraction(5, 11)]),
            poly_from_coefficients([Fraction(3, 4), Fraction(1, 9)]),
        )
        zero = dalembert_solve(InitialData(MPoly.const(("x",), 0), MPoly.const(("x",), 0)), 1)
        for value in (dalembert_solve(data, Fraction(7, 3)), zero, MPoly(("x", "t"), {})):
            assert _rendered(value) == _one_shot(_reference_doc(value))
        assert json.loads(_rendered(zero))["terms"] == []

    def test_equal_denominators_in_distinct_lists(self):
        doc = _shared_den_doc([dict(item) for item in _SHARED_DEN])
        assert doc["terms"][1]["coef"]["den"] is not _SHARED_DEN
        for _ in range(2):
            wave = wave_from_json(doc)
            assert _rendered(wave) == _one_shot(_reference_doc(wave))
            assert json.loads(_rendered(wave))["terms"] == doc["terms"]
            doc["terms"][1]["coef"]["den"] = [{"s": 0, "re": "1"}]

    @pytest.mark.parametrize("argv", [
        ("solve", "--f-named", "cos_q", "--g-named", "sin_q", "--c", "5/7", "--order", "20"),
        ("solve", "--f", "1/3,-2/7,5/11", "--g", "3/4,1/9", "--c", "7/3"),
        ("solve", "--f", "0", "--g", "0", "--c", "1"),
        *(("hermite", "--n", "20", "--kind", kind) for kind in ("q", "classical", "inverse-q")),
        *(("expand", "--binomial", b, "--n", "20") for b in ("z+iw", "z-iw", "x+ct", "x-ct")),
    ])
    def test_cli_documents(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == _one_shot(json.loads(out))

    def test_each_distinct_denominator_is_encoded_once(self, monkeypatch):
        # every Laurent polynomial of a document's terms is encoded by
        # serialize._laurent_text, looked up at call time
        calls = []
        laurent_text = serialize._laurent_text
        monkeypatch.setattr(serialize, "_laurent_text", lambda p: calls.append(p) or laurent_text(p))
        wave = _cos_sin_wave()
        coefs = [c for _, c in sorted(wave.body.terms.items())]
        distinct = {c.den.key() for c in coefs}
        assert len(distinct) < len(coefs)
        text = _rendered(wave)
        assert text == _one_shot(_reference_doc(wave))
        made_dens = {json.dumps(term["coef"]["den"]) for term in json.loads(text)["terms"]}
        assert len(made_dens) == len(distinct)
        # one encode per numerator, and one per distinct denominator, at its first term
        expected, seen = [], set()
        for c in coefs:
            if c.den.key() not in seen:
                seen.add(c.den.key())
                expected.append(c.den)
            expected.append(c.num)
        assert len(calls) == len(coefs) + len(distinct)
        assert all(got is want for got, want in zip(calls, expected))


_HERMITE = {"q": q_hermite, "classical": hermite_classical, "inverse-q": q_hermite_dual}


def _expanded(binomial, n):
    if binomial in ("z+iw", "z-iw"):
        return q_binomial_power("z", GR_I if binomial == "z+iw" else -GR_I, "w", n)
    sign = "+" if binomial == "x+ct" else "-"
    return q_binomial_substitute(MPoly.monomial(("x",), (n,), 1), sign, SYMBOLIC_SPEED)


class TestStreamedJson:
    """solve, hermite and expand hand emit the exact value; emit writes each
    piece of the document's text as it is made."""

    def test_first_chunk_is_written_before_the_last_term_is_made(self, monkeypatch):
        made = []
        doc_pieces = serialize._doc_pieces
        monkeypatch.setattr(serialize, "_doc_pieces", lambda *args: (
            made.append(piece) or piece for piece in doc_pieces(*args)))
        made_at_write = []

        class Stream(io.StringIO):
            def write(self, text):
                made_at_write.append(len(made))
                return super().write(text)

        out = Stream()
        monkeypatch.setattr(cli.sys, "stdout", out)
        argv = ["solve", "--f-named", "cos_q", "--g-named", "sin_q", "--c", "5/7"]
        assert main([*argv, "--order", "20"]) == 0
        wave = _cos_sin_wave(20)
        # the head, one piece per term, and the tail
        assert len(made) == len(wave.body.terms) + 2 > 10
        # each piece is written once it is made, before the next is made,
        # and the newline last
        assert made_at_write == [*range(1, len(made) + 1), len(made)]
        assert out.getvalue() == _one_shot(_reference_doc(wave))

    @pytest.mark.parametrize("argv, build", [
        (("solve", "--f-named", "cos_q", "--g-named", "sin_q", "--c", "5/7", "--order", "20"),
         lambda: _reference_doc(_cos_sin_wave(20))),
        *((("hermite", "--n", "20", "--kind", kind), lambda kind=kind: _reference_doc(
            _HERMITE[kind](20))) for kind in _HERMITE),
        *((("expand", "--binomial", b, "--n", "20"), lambda b=b: _reference_doc(
            _expanded(b, 20))) for b in ("z+iw", "z-iw", "x+ct", "x-ct")),
    ])
    # the buffer of the stream emit writes to: the stream, not emit, groups
    # the writes, and the bytes are the same at every size
    @pytest.mark.parametrize("buffer", [1, 1000, 1 << 20])
    def test_bytes_are_the_one_shot_dump(self, capsys, monkeypatch, tmp_path, argv, build,
                                         buffer):
        expected = _one_shot(build())
        # captured stdout
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, expected)
        # --output PATH, opened with the given buffer
        path = tmp_path / "o.json"
        monkeypatch.setattr(cli, "open", lambda *args, **kwargs: open(
            *args, buffering=buffer, **kwargs), raising=False)
        assert run(capsys, *argv, "--output", str(path))[:2] == (0, "")
        assert path.read_bytes() == expected.encode()
        # a stdout that records each write
        writes = []
        sink = io.BytesIO()

        class Recorder(io.TextIOWrapper):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        stdout = Recorder(io.BufferedWriter(sink, buffer_size=buffer), encoding="utf-8")
        monkeypatch.setattr(cli.sys, "stdout", stdout)
        assert run(capsys, *argv)[:2] == (0, "")
        stdout.flush()
        assert sink.getvalue() == expected.encode()
        # one write per term, and one each for the head, the tail and "\n"
        assert len(writes) == len(json.loads(expected)["terms"]) + 3
        assert "".join(writes) == expected


# sha256 of the stdout of small commands, the elapsed "ms" of each verdict set
# to 0: a change meant to keep the output must keep these bytes
_PINNED_STDOUT = {
    "solve --f-named cos_q --g-named sin_q --c 5/7 --order 20":
        "799b54788315f003744e50dcf31cf7f42e6670c624b1e9bd23baec843b0b58e6",
    "solve --f 0,0,1 --g-named neg-2q-cx --c -3/2":
        "894a4a2e0c6b33f8cf18ce1b8c71f869742fa6da1f22e2f4e44498b775666f0d",
    "solve --f 1/3,-2/7,5/11 --g 3/4,1/9 --c 7/3":
        "9b98ab62fa39deff00c38469d7f72004231aa30f9900d6f918b180ec7e324196",
    "solve --f-named q-gaussian --g-named sin_q --c 3/4 --order 6":
        "2d491d4e3f621267bb38f03c16a30c90c4bda0b226df0de058a5025be5711c71",
    "hermite --n 20": "82658325e10e39008b6f35c2b4b41992784ed14a439e7c65fa9913a0dd8e7367",
    "hermite --n 20 --kind inverse-q":
        "4d8871ffe242e5daf7b52f1cf96a6d5db9a16a92212e0c24af3409268d04e2a2",
    "hermite --n 20 --kind classical":
        "35f6ccf6953bd41d3757137c5782f06d4bd3e410a5ac7d7aa8ff3116c2c9c5e4",
    "expand --binomial z+iw --n 20":
        "0478f2bb9fb33304e9af6320a1549b1bc876bc4ffcb15c4910b79f3e03ce69f7",
    "expand --binomial x+ct --n 20":
        "d5ff5db31059682c134f56e64901d1242be66f4677589b5bd7ab77a4e71438c5",
    "verify --identity all": "1e0ce586e9a3f3550aad7adfa7f8a54080dcf62cb70eddaaefb0f0b2d85f819b",
}


@pytest.mark.parametrize("command", _PINNED_STDOUT)
def test_stdout_bytes_are_pinned(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    out = re.sub(r'"ms":[0-9.eE+-]+', '"ms":0', out)
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_STDOUT[command]
