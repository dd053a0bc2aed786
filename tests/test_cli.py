"""Command-line interface: outputs, formats, exit codes, determinism."""

import contextlib
import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import expmath
from expmath import digit_walks
from expmath.cli import build_parser, run
from expmath.precision import PrecisionContext, parse_decimal

CINF_50 = "0.63047350337438679612204019271087890435458707871273"


class TestCinf:
    def test_fifty_digits(self, capsys):
        assert run(["cinf", "--digits", "50"]) == 0
        assert capsys.readouterr().out == CINF_50 + "\n"

    def test_default_digit_count_is_fifty(self, capsys):
        assert run(["cinf"]) == 0
        assert capsys.readouterr().out == CINF_50 + "\n"

    def test_json(self, capsys):
        assert run(["cinf", "--digits", "20", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["digits"] == 20
        assert payload["value"] == CINF_50[:22]

    def test_csv(self, capsys):
        assert run(["cinf", "--digits", "12", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out == f"value,{CINF_50[:14]}\n"


class TestPi:
    def test_plain_value(self, capsys):
        assert run(["pi", "--digits", "30"]) == 0
        out = capsys.readouterr().out
        assert out == "3.14159265358979323846264338328\n"

    def test_iteration_mode_reports_errors(self, capsys):
        assert run(["pi", "--iterations", "4", "--digits", "40", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] == 4
        assert len(payload["per_iteration_error"]) == 4
        assert payload["value"].startswith("3.14159265358979")

    def test_past_the_int_to_str_limit(self, capsys):
        # CPython refuses str() of an int past 4300 digits; the rendering
        # must not go through it
        assert run(["pi", "--digits", "5000"]) == 0
        rendered = capsys.readouterr().out.strip().replace(".", "")
        assert len(rendered) == 5000
        ctx = PrecisionContext.from_digits(5020)
        stream = "".join(map(str, digit_walks.digits("pi", 10, 5001, ctx).digits))
        # the 5001st digit is a 1, so rounding keeps the first 5000 as they are
        assert stream[5000] == "1"
        assert rendered == stream[:5000]


class TestCn:
    def test_single_moment_json(self, capsys):
        assert run(["cn", "--n", "4", "--digits", "25", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (record,) = payload["records"]
        assert record["n"] == 4
        assert record["value"].startswith("0.7011998601")

    def test_range_of_moments(self, capsys):
        assert run(["cn", "--n", "1..3", "--digits", "15", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["n"] for r in payload["records"]] == [1, 2, 3]
        assert payload["records"][0]["value"].startswith("2.0000")
        assert payload["records"][1]["value"].startswith("1.0000")

    def test_json_round_trip_is_byte_identical(self, capsys):
        argv = ["cn", "--n", "2", "--digits", "20", "--format", "json"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        # canonical form: re-serializing the parsed payload reproduces it
        payload = json.loads(first)
        assert json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n" == first

    def test_csv_header(self, capsys):
        assert run(["cn", "--n", "1..3", "--digits", "20", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,value,error_estimate"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        # C_1 = 2 must round-trip through the decimal cell
        assert first[1].startswith("2.0000000000")
        # every row carries a parseable error column
        ctx = PrecisionContext.from_digits(30)
        for line in lines[1:]:
            parse_decimal(line.split(",")[2], ctx)

    def test_rejects_zero_index(self, capsys):
        assert run(["cn", "--n", "0"]) == 2


class TestThreshold:
    def test_default_is_two_pi(self, capsys):
        assert run(["threshold"]) == 0
        assert capsys.readouterr().out == "40249\n"

    def test_rational_threshold(self, capsys):
        assert run(["threshold", "--threshold", "4/3"]) == 0
        assert capsys.readouterr().out == "2\n"

    def test_decimal_threshold(self, capsys):
        assert run(["threshold", "--threshold", "2"]) == 0
        assert capsys.readouterr().out == "7\n"

    def test_json_labels_default(self, capsys):
        assert run(["threshold", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n": 40249, "threshold": "2*pi"}

    def test_threshold_not_above_one_fails(self, capsys):
        assert run(["threshold", "--threshold", "0.5"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_ten_answers_from_the_closed_form(self, capsys):
        # the linear scan took over 30 s here (e^20 terms)
        start = time.monotonic()
        assert run(["threshold", "--threshold", "1e1"]) == 0
        assert time.monotonic() - start < 1.0
        assert capsys.readouterr().out == "68100150\n"

    def test_huge_threshold_fails_fast(self, capsys):
        start = time.monotonic()
        assert run(["threshold", "--threshold", "1e6"]) == 1
        assert time.monotonic() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "out of reach" in captured.err
        assert captured.out == ""

    def test_out_of_reach_message_is_short(self, capsys):
        # the crossing index's bit estimate, ~2.89e+400, to 3 digits rather
        # than as a 400-digit integer
        assert run(["threshold", "--threshold", "1e400"]) == 1
        err = capsys.readouterr().err
        assert "out of reach" in err and "~2.89e+400 bits" in err
        assert len(err) < 200


class TestBb:
    def test_beats_baseline_on_skewed_quadratic(self, capsys):
        assert run(["bb", "--problem", "quad", "--baseline", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["baseline_converged"] is True
        assert payload["iterations"] < payload["baseline_iterations"]

    def test_trace_rows_present(self, capsys):
        assert run(["bb", "--problem", "sphere", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trace"][0]["k"] == 0
        assert len(payload["trace"]) == payload["iterations"] + 1

    def test_wrong_start_dimension(self, capsys):
        assert run(["bb", "--problem", "quad", "--x0", "1,2,3"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_overflow_is_reported_by_the_error_alone(self, capsys):
        # F = x.x/2 overflows at the start point; numpy's overflow warning
        # would otherwise reach stderr ahead of the error
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert run(["bb", "--problem", "sphere", "--x0", "1e200,0", "--baseline"]) == 1
        assert seen == []
        assert capsys.readouterr().err == "error: objective became non-finite\n"

    def test_random_spd_runs_the_seeded_problem(self, capsys):
        # the QR factorisation's floats depend on the LAPACK build, so the
        # run is compared with the library's, not with pinned bytes
        from expmath import barzilai_borwein

        assert run(["bb", "--problem", "random-spd", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        direct = barzilai_borwein.bb_minimize(
            barzilai_borwein.random_spd(5, 17), [1.0] * 5, 1e-8, max_iter=10_000
        )
        assert payload["iterations"] == direct.iterations
        assert payload["x"] == [repr(v) for v in direct.x.tolist()]

    def test_nan_tolerance_fails_cleanly(self, capsys):
        # 1e-400 is refused too: it rounds to 0 as a float
        for tol in ("nan", "inf", "0", "-1", "1e-400"):
            assert run(["bb", "--problem", "sphere", "--tol", tol]) == 2
            captured = capsys.readouterr()
            assert f"--tol takes a positive finite number, got {tol!r}" in captured.err
            assert "usage:" in captured.err
            assert captured.out == ""


class TestAgm:
    def test_value(self, capsys):
        assert run(["agm", "--a", "1", "--b", "0.5", "--digits", "20"]) == 0
        assert capsys.readouterr().out == "0.72839551552345343459\n"

    def test_trajectory_json(self, capsys):
        assert run(
            ["agm", "--a", "2", "--b", "1", "--digits", "15", "--trajectory",
             "--format", "json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        steps = payload["trajectory"]
        assert steps[0]["iteration"] == 0
        assert len(steps) == payload["iterations"] + 1

    def test_nonpositive_input_fails_cleanly(self, capsys):
        assert run(["agm", "--a", "0", "--b", "1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestRecognize:
    def test_limit_constant(self, capsys):
        assert run(["recognize", "--value", CINF_50, "--digits", "50"]) == 0
        payload = json.loads(capsys.readouterr().out)
        top = payload["matches"][0]
        assert top["rendering"] == "2*exp(-2*gamma)"
        assert top["coefficients"] == [1, 0, 0, -2, 0, 0]

    def test_value_past_the_int_to_str_limit(self, capsys):
        # 5000 ones after the point: a finite decimal, and 1/9 to every digit asked
        assert run(["recognize", "--value", "0." + "1" * 5000]) == 0
        top = json.loads(capsys.readouterr().out)["matches"][0]
        assert top["rendering"] == "1/9"

    def test_value_with_an_underscore(self, capsys):
        # read as float reads it, 0.15, not as 0.015
        assert run(["recognize", "--value", "0.1_5", "--digits", "15"]) == 0
        top = json.loads(capsys.readouterr().out)["matches"][0]
        assert top["rendering"] == "3/20"

    def test_list_basis(self, capsys):
        assert run(["recognize", "--list-basis"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "gamma" in payload["basis"]
        assert "zeta3" in payload["basis"]

    def test_missing_value_is_usage_error(self, capsys):
        assert run(["recognize"]) == 2
        assert "--value" in capsys.readouterr().err

    def test_unknown_basis_name(self, capsys):
        assert run(["recognize", "--value", "0.5", "--basis", "nosuch"]) == 1
        assert "error:" in capsys.readouterr().err


class TestQuad:
    def test_gaussian_reference(self, capsys):
        assert run(["quad", "--integrand", "gauss", "--digits", "20",
                    "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["value"].startswith("0.8862269254")
        assert payload["reference"] == "sqrt(pi)/2"

    def test_log_inverse_text(self, capsys):
        assert run(["quad", "--digits", "15"]) == 0
        out = capsys.readouterr().out
        assert "value = 1.0000000000" in out
        assert "converged = True" in out


class TestWalk:
    def test_ppm_file_output_is_deterministic(self, tmp_path):
        target = tmp_path / "walk.ppm"
        argv = ["walk", "--constant", "pi", "--base", "4", "--digits", "100",
                "--size", "64", "--out", str(target)]
        assert run(argv) == 0
        first = target.read_bytes()
        assert first.startswith(b"P6\n64 64\n255\n")
        assert run(argv) == 0
        assert target.read_bytes() == first

    def test_svg_to_stdout(self, capsysbinary):
        assert run(["walk", "--constant", "e", "--base", "4", "--digits", "50",
                    "--size", "128"]) == 0
        out = capsysbinary.readouterr().out
        assert b"<svg" in out
        assert b"<polyline" in out

    def test_format_follows_out_extension(self, tmp_path):
        target = tmp_path / "walk.ppm"
        assert run(["walk", "--digits", "40", "--size", "32",
                    "--out", str(target)]) == 0
        assert target.read_bytes().startswith(b"P6\n32 32\n255\n")

    def test_over_budget_ppm_is_refused_before_any_digit(self, monkeypatch, capsys):
        # the size and budget checks run before digit extraction, so an
        # over-budget PPM or a too-small image costs no digits; the 16x16
        # floor holds whatever the format, so it is a usage error
        def refuse(*args, **kwargs):
            raise AssertionError("digits extracted")

        monkeypatch.setattr(digit_walks, "digits", refuse)
        assert run(["walk", "--size", "20000", "--image-format", "ppm", "--digits", "400000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a 20000x20000 PPM needs") and "MiB budget" in err
        for size in ("8", "-5", "8x40"):
            assert run(["walk", "--size", size, "--digits", "400000"]) == 2
            assert "--size takes N or WxH of at least 16x16" in capsys.readouterr().err


class TestOutputFile:
    def test_text_goes_to_file_not_stdout(self, tmp_path, capsys):
        target = tmp_path / "value.txt"
        assert run(["cinf", "--digits", "30", "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        # note the final digit rounds up: ...2710|87 renders as ...2711
        assert target.read_text() == "0.630473503374386796122040192711\n"

    def test_unopenable_path_is_an_error_line(self, tmp_path, capsys):
        target = tmp_path / "no-such-dir" / "value.txt"
        assert run(["cinf", "--digits", "10", "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(target) in captured.err


class TestEnvironmentDefaults:
    def test_env_sets_default_digits(self, monkeypatch, capsys):
        monkeypatch.setenv("EXPMATH_DIGITS", "12")
        assert run(["pi"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out) == 13  # "3." plus 11 more significant digits

    def test_explicit_flag_overrides_env(self, monkeypatch, capsys):
        monkeypatch.setenv("EXPMATH_DIGITS", "12")
        assert run(["pi", "--digits", "8"]) == 0
        assert capsys.readouterr().out.strip() == "3.1415927"

    def test_garbage_env_falls_back(self, monkeypatch, capsys):
        monkeypatch.setenv("EXPMATH_DIGITS", "many")
        assert run(["pi"]) == 0
        out = capsys.readouterr().out.strip()
        assert len(out) == 31  # default 30 significant digits


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_subcommand(self, capsys):
        assert run([]) == 2

    def test_invalid_digits(self, capsys):
        assert run(["pi", "--digits", "0"]) == 2
        err = capsys.readouterr().err
        assert "argument --digits: --digits takes an integer >= 1, got '0'" in err

    def test_invalid_size_spec(self, capsys):
        assert run(["walk", "--size", "tiny"]) == 2

    @pytest.mark.parametrize("subcommand", ["cn", "sinc"])
    @pytest.mark.parametrize("eps", ["abc", "0", "nan"])
    def test_malformed_eps(self, subcommand, eps, capsys):
        assert run([subcommand, "--eps", eps]) == 2
        assert "--eps" in capsys.readouterr().err

    @pytest.mark.parametrize("x0", ["nan,1", "inf,1", "1,-inf", "1e400,1"])
    def test_non_finite_start_point(self, x0, capsys):
        assert run(["bb", "--problem", "quad", "--x0", x0]) == 2
        assert "--x0" in capsys.readouterr().err

    def test_walk_takes_no_format(self, capsys):
        assert run(["walk", "--digits", "10", "--format", "json"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["agm", "--a", "abc"],
            ["agm", "--b", "abc"],
            ["agm", "--b", "inf"],
            ["recognize", "--value", "abc"],
            ["recognize", "--value", "nan"],
            ["threshold", "--threshold", "abc"],
            ["threshold", "--threshold", "1/0"],
            ["threshold", "--threshold", "7/2/1"],
            ["threshold", "--threshold", "inf"],
            # p/q is a decimal flag's grammar too; q = 0 used to escape as a traceback
            ["agm", "--a", "1/0"],
        ],
    )
    def test_malformed_decimal(self, argv, capsys):
        assert run(argv) == 2
        assert argv[1] in capsys.readouterr().err

    def test_recognize_takes_value_or_list_basis_not_both(self, capsys):
        assert run(["recognize", "--value", "0.5", "--list-basis"]) == 2
        captured = capsys.readouterr()
        assert "--list-basis" in captured.err and captured.out == ""

    def test_over_long_index_range_is_refused_before_any_moment(self, monkeypatch, capsys):
        # each index is a c_n call: a range past the cap is a usage error at
        # parse time, and one at the cap is kept as a range, not a list
        from expmath import bessel_moments
        from expmath.cli import _N_RANGE_CAP

        def refuse(*args, **kwargs):
            raise AssertionError("c_n ran")

        monkeypatch.setattr(bessel_moments, "c_n", refuse)
        for text in ("1..1000000000", f"5..{5 + _N_RANGE_CAP}", "1..1" + "0" * 40):
            assert run(["cn", "--n", text]) == 2
            err = capsys.readouterr().err
            assert "--n takes" in err and f"at most {_N_RANGE_CAP} indices" in err
        args = build_parser().parse_args(["cn", "--n", f"5..{4 + _N_RANGE_CAP}"])
        assert args.n == range(5, 5 + _N_RANGE_CAP)


#: (subcommand, flag) for every flag that takes a typed value
TYPED_FLAGS = [
    ("pi", "--digits"), ("pi", "--iterations"), ("cn", "--n"), ("cn", "--eps"),
    ("sinc", "--N"), ("sinc", "--eps"), ("threshold", "--threshold"), ("bb", "--tol"),
    ("bb", "--x0"), ("bb", "--max-iter"), ("bb", "--seed"), ("bb", "--dimension"),
    ("agm", "--a"), ("agm", "--b"), ("recognize", "--value"), ("walk", "--base"),
    ("walk", "--size"),
]

#: text near the flags' grammar: two number-like pieces joined as a ratio,
#: range, size, list or decimal, and text of any kind
_PIECE = st.sampled_from(["0", "1", "-1", "99999999999", "1e400", "nan", ""])
FLAG_TEXT = st.one_of(
    st.tuples(_PIECE, st.sampled_from(["/", "..", "x", ",", "."]), _PIECE).map("".join),
    st.text(),
)


class TestParseBoundary:
    """Whatever text a typed flag is given, parsing either keeps it or
    refuses it the one way: exit 2, with ``FLAG takes`` on stderr."""

    PARSER = build_parser()

    def test_every_typed_flag_is_listed(self):
        sub = next(a for a in self.PARSER._actions if a.choices and a.dest == "subcommand")
        typed = {(name, a.option_strings[0]) for name, p in sub.choices.items()
                 for a in p._actions if a.type is not None}
        assert typed == set(TYPED_FLAGS) | {(name, "--digits") for name in sub.choices}

    @pytest.mark.parametrize("subcommand, flag", TYPED_FLAGS)
    @given(text=FLAG_TEXT)
    def test_text_parses_or_is_refused_with_the_flag_named(self, subcommand, flag, text):
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                self.PARSER.parse_args([subcommand, f"{flag}={text}"])
        except SystemExit as exc:
            assert exc.code == 2
            assert f"{flag} takes" in err.getvalue()


class TestSinc:
    def test_json_report_fields(self, capsys):
        assert run(["sinc", "--N", "2", "--digits", "20", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"N", "lhs", "rhs", "difference", "truncation_bound"}
        assert payload["N"] == 2
        # both sides are pi/2 for N = 2; all numerics arrive as decimal strings
        assert payload["lhs"].startswith("1.57079632679489")
        assert payload["rhs"].startswith("1.57079632679489")
        assert isinstance(payload["difference"], str)
        assert isinstance(payload["truncation_bound"], str)

    def test_text_report(self, capsys):
        assert run(["sinc", "--N", "1", "--digits", "15"]) == 0
        out = capsys.readouterr().out
        assert "lhs = 1.5707963267949" in out
        assert "truncation_bound = " in out

    def test_closed_form_through_the_expansion_limit(self, capsys):
        # N = 13 at 25 digits took 12 s by panelled quadrature
        start = time.monotonic()
        assert run(["sinc", "--N", "13", "--digits", "25", "--format", "json"]) == 0
        assert time.monotonic() - start < 1.0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lhs"] == payload["rhs"] == "1.570794253715952910068919"
        assert run(["sinc", "--N", "20", "--digits", "30", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lhs"] == payload["rhs"] == "1.57078911815773609183209279027"

    def test_integral_past_the_panel_cap_fails_fast(self, capsys):
        # N = 21 at 40 digits needs T ~ 1900, 626 panels at 171 bits (minutes)
        start = time.monotonic()
        assert run(["sinc", "--N", "21", "--digits", "40"]) == 1
        assert time.monotonic() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "panels" in captured.err
        assert captured.out == ""


class TestPiCsv:
    def test_iteration_error_table(self, capsys):
        assert run(["pi", "--iterations", "3", "--digits", "25", "--format", "csv"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        assert rows[0][0] == "value"
        assert rows[0][1].startswith("3.14159265358979")
        labels = [r[0] for r in rows[1:]]
        assert labels == ["error_1", "error_2", "error_3"]


class TestJsonRoundTrip:
    """Parse -> canonical re-serialization -> byte-identical, per subcommand."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["pi", "--digits", "12", "--format", "json"],
            ["pi", "--iterations", "3", "--digits", "20", "--format", "json"],
            ["cn", "--n", "1", "--digits", "10", "--format", "json"],
            ["cinf", "--digits", "15", "--format", "json"],
            ["sinc", "--N", "1", "--digits", "12", "--format", "json"],
            ["threshold", "--threshold", "2", "--format", "json"],
            ["bb", "--problem", "sphere", "--format", "json"],
            ["agm", "--kind", "3", "--trajectory", "--format", "json"],
            ["recognize", "--value", "0.5", "--basis", "one", "--digits", "20"],
            ["recognize", "--list-basis"],
            ["quad", "--integrand", "inv-sqrt", "--digits", "12", "--format", "json"],
        ],
        ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:2]),
    )
    def test_round_trip(self, argv, capsys):
        assert run(argv) == 0
        out = capsys.readouterr().out
        rebuilt = json.dumps(json.loads(out), sort_keys=True, separators=(",", ":")) + "\n"
        assert rebuilt == out


def _significant_digits(rendered: str) -> int:
    return len(rendered.lstrip("-").replace(".", "").lstrip("0"))


class TestDigitCap:
    """--digits D never prints more than D significant digits."""

    def test_plain_values(self, capsys):
        for argv in (["cinf"], ["pi"], ["agm", "--b", "0.7"]):
            assert run(argv + ["--digits", "12"]) == 0
            value = capsys.readouterr().out.splitlines()[0]
            assert _significant_digits(value) <= 12

    def test_json_values(self, capsys):
        assert run(["cn", "--n", "3", "--digits", "9", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert _significant_digits(payload["records"][0]["value"]) <= 9


# Exact stdout of every subcommand in each format at small sizes.  "CINF"
# in an argv stands for CINF_50.  The cn CSV error column carries up to six
# digits (1.25000e-16) where text and JSON carry three (1.25e-16).
GOLDEN_STDOUT = [
    ('pi --digits 12 --format text', '3.14159265359\n'),
    ('pi --digits 12 --format json', '{"digits":12,"value":"3.14159265359"}\n'),
    ('pi --digits 12 --format csv', 'value,3.14159265359\n'),
    (
        'pi --iterations 3 --digits 20 --format text',
        '3.1415926535897932383\n'
        'iteration 1: error 0.00101\n'
        'iteration 2: error 7.38e-9\n'
        'iteration 3: error 1.83e-19\n'
    ),
    (
        'pi --iterations 3 --digits 20 --format json',
        '{"digits":20,"iterations":3,"per_iteration_error":["0.00101","7.38e-9"'
        ',"1.83e-19"],"value":"3.1415926535897932383"}\n'
    ),
    (
        'pi --iterations 3 --digits 20 --format csv',
        'value,3.1415926535897932383\n'
        'error_1,0.00101\n'
        'error_2,7.38e-9\n'
        'error_3,1.83e-19\n'
    ),
    (
        'cn --n 1..2 --digits 12 --format text',
        'C_1 = 2.00000000000  (error <= 1.25e-16)\n'
        'C_2 = 1.00000000000  (error <= 6.25e-17)\n'
    ),
    (
        'cn --n 1..2 --digits 12 --format json',
        '{"records":[{"error_estimate":"1.25e-16","n":1'
        ',"value":"2.00000000000"},{"error_estimate":"6.25e-17","n":2'
        ',"value":"1.00000000000"}]}\n'
    ),
    (
        'cn --n 1..2 --digits 12 --format csv',
        'n,value,error_estimate\n'
        '1,2.00000000000,1.25000e-16\n'
        '2,1.00000000000,6.25000e-17\n'
    ),
    (
        'cn --n 3 --digits 15 --eps 1e-12 --format text',
        'C_3 = 0.781302412896486  (error <= 6.25e-14)\n'
    ),
    (
        'cn --n 3 --digits 15 --eps 1e-12 --format json',
        '{"records":[{"error_estimate":"6.25e-14","n":3,"value":"0.781302412896486"}]}\n'
    ),
    (
        'cn --n 3 --digits 15 --eps 1e-12 --format csv',
        'n,value,error_estimate\n'
        '3,0.781302412896486,6.25000e-14\n'
    ),
    ('cinf --digits 20 --format text', '0.63047350337438679612\n'),
    ('cinf --digits 20 --format json', '{"digits":20,"value":"0.63047350337438679612"}\n'),
    ('cinf --digits 20 --format csv', 'value,0.63047350337438679612\n'),
    (
        'sinc --N 1 --digits 12 --format text',
        'N = 1\n'
        'lhs = 1.57079632679\n'
        'rhs = 1.57079632679\n'
        'difference = 0\n'
        'truncation_bound = 1.00e-15\n'
    ),
    (
        'sinc --N 1 --digits 12 --format json',
        '{"N":1,"difference":"0","lhs":"1.57079632679"'
        ',"rhs":"1.57079632679","truncation_bound":"1.00e-15"}\n'
    ),
    (
        'sinc --N 1 --digits 12 --format csv',
        'N,1\n'
        'lhs,1.57079632679\n'
        'rhs,1.57079632679\n'
        'difference,0\n'
        'truncation_bound,1.00e-15\n'
    ),
    (
        'sinc --N 12 --digits 30 --format json',
        '{"N":12,"difference":"0","lhs":"1.57079489608299805769812515681"'
        ',"rhs":"1.57079489608299805769812515681","truncation_bound":"1.00e-33"}\n'
    ),
    ('threshold --threshold 4/3 --format text', '2\n'),
    ('threshold --threshold 4/3 --format json', '{"n":2,"threshold":"4/3"}\n'),
    ('threshold --threshold 4/3 --format csv', 'threshold,4/3\nn,2\n'),
    (
        'bb --problem sphere --format text',
        'problem sphere, variant bb2\n'
        'iterations 2 (converged: True)\n'
        'minimum 0.0 at [0.0, 0.0]\n'
    ),
    (
        'bb --problem sphere --format json',
        '{"converged":true,"f":"0.0","iterations":2,"problem":"sphere"'
        ',"tol":"1e-08","trace":[{"f":"12.5","gamma":"0.2","grad_norm":"5.0"'
        ',"k":0},{"f":"8.0","gamma":"1.0","grad_norm":"4.0","k":1},{"f":"0.0"'
        ',"gamma":"1.0","grad_norm":"0.0","k":2}],"variant":"bb2","x":["0.0"'
        ',"0.0"]}\n'
    ),
    (
        'bb --problem sphere --format csv',
        'k,f,grad_norm,gamma\n'
        '0,12.5,5.0,0.2\n'
        '1,8.0,4.0,1.0\n'
        '2,0.0,0.0,1.0\n'
    ),
    (
        'bb --problem quad --baseline --format text',
        'problem quad, variant bb2\n'
        'iterations 9 (converged: True)\n'
        'minimum 5.035010601989048e-28 at [3.173329654604373e-14, 3.273936229838978e-19]\n'
        'steepest-descent baseline: 1169 iterations (converged: True)\n'
    ),
    (
        'bb --problem quad --baseline --format csv',
        'k,f,grad_norm,gamma\n'
        '0,5050.0,141.4213562373095,0.007071067811865475\n'
        '1,4933.82864376269,103.52266911180247,0.010098990100989904\n'
        '2,4830.475766314323,98.29056289633347,0.011136459757613442\n'
        '3,4723.485641935986,97.19553672219777,0.9207529860969731\n'
        '4,29.708939071861053,8.266401784651125,0.9988635402423865\n'
        '5,440.30566277650394,296.750947714569,0.010651772583719523\n'
        '6,1.8704888198714613,19.3414151217604,0.010000000000086143\n'
        '7,3.675405705060037e-05,0.008573687310673324,0.010000000019848316\n'
        '8,3.6022651313849e-05,0.008487950437396415,0.9999999999962613\n'
        '9,5.035010601989048e-28,3.1733313434701313e-14,1.0\n'
    ),
    ('agm --digits 15 --format text', '0.728395515523453\n'),
    (
        'agm --digits 15 --format json',
        '{"iterations":5,"kind":2,"value":"0.728395515523453"}\n'
    ),
    ('agm --digits 15 --format csv', 'value,0.728395515523453\niterations,5\n'),
    (
        'agm --kind 3 --b 0.2 --digits 12 --trajectory --format text',
        '0.445969209758\n'
        'iteration 0: a=1.00000000000 b=0.200000000000\n'
        'iteration 1: a=0.466666666667 b=0.435622338473\n'
        'iteration 2: a=0.445970447871 b=0.445968590702\n'
        'iteration 3: a=0.445969209758 b=0.445969209758\n'
        'iteration 4: a=0.445969209758 b=0.445969209758\n'
    ),
    (
        'agm --kind 3 --b 0.2 --digits 12 --trajectory --format json',
        '{"iterations":4,"kind":3,"trajectory":[{"a":"1.00000000000"'
        ',"b":"0.200000000000","iteration":0},{"a":"0.466666666667"'
        ',"b":"0.435622338473","iteration":1},{"a":"0.445970447871"'
        ',"b":"0.445968590702","iteration":2},{"a":"0.445969209758"'
        ',"b":"0.445969209758","iteration":3},{"a":"0.445969209758"'
        ',"b":"0.445969209758","iteration":4}],"value":"0.445969209758"}\n'
    ),
    (
        'agm --kind 3 --b 0.2 --digits 12 --trajectory --format csv',
        'value,0.445969209758\n'
        'iterations,4\n'
    ),
    (
        'recognize --value CINF --digits 40 --format text',
        '2*exp(-2*gamma)  (coefficients [1, 0, 0, -2, 0, 0], 40 digits)\n'
    ),
    (
        'recognize --value CINF --digits 40 --format json',
        '{"basis":["one","gamma","em2gamma","zeta3","pi2"]'
        ',"matches":[{"coefficients":[1,0,0,-2,0,0],"confidence_digits":40'
        ',"rendering":"2*exp(-2*gamma)","residual":"2.34e-51"}]'
        ',"value":"0.63047350337438679612204019271087890435458707871273"}\n'
    ),
    ('recognize --value CINF --digits 40 --format csv', 'rendering,2*exp(-2*gamma)\n'),
    ('recognize --value 0.5 --basis pi --digits 20 --format text', 'no match\n'),
    (
        'recognize --value 0.5 --basis pi --digits 20 --format json',
        '{"basis":["pi"],"matches":[],"value":"0.5"}\n'
    ),
    ('recognize --value 0.5 --basis pi --digits 20 --format csv', 'no-match,\n'),
    ('recognize --list-basis --format text', 'e\nem2gamma\ngamma\none\npi\npi2\nzeta3\n'),
    (
        'recognize --list-basis --format json',
        '{"basis":["e","em2gamma","gamma","one","pi","pi2","zeta3"]}\n'
    ),
    ('recognize --list-basis --format csv', 'e\nem2gamma\ngamma\none\npi\npi2\nzeta3\n'),
    (
        'quad --integrand inv-sqrt --digits 12 --format text',
        'integrand = inv-sqrt\n'
        'value = 2.00000000000\n'
        'error_estimate = 1.25e-15\n'
        'levels_used = 3\n'
        'converged = True\n'
        'reference = 2\n'
    ),
    (
        'quad --integrand inv-sqrt --digits 12 --format json',
        '{"converged":true,"error_estimate":"1.25e-15","integrand":"inv-sqrt"'
        ',"levels_used":3,"reference":"2","value":"2.00000000000"}\n'
    ),
    (
        'quad --integrand inv-sqrt --digits 12 --format csv',
        'integrand,inv-sqrt\n'
        'value,2.00000000000\n'
        'error_estimate,1.25e-15\n'
        'levels_used,3\n'
        'converged,True\n'
        'reference,2\n'
    ),
    (
        'quad --integrand bessel-moment --digits 12 --format json',
        '{"converged":true,"error_estimate":"6.25e-16","integrand":"bessel-moment"'
        ',"levels_used":5,"reference":"1","value":"1.00000000000"}\n'
    ),
]

GOLDEN_SHA256 = [
    ("walk --digits 40 --size 16",
     "a83f1d657bb880c3d5ead4dbcd68c272613fd316717c72351d9a0bae37367415"),
    ("walk --digits 40 --size 16 --image-format ppm",
     "e77af3dcd9f82a747bfb710b6fc6b20737166a028716eb1ff95757e7762175ad"),
    ("cn --n 1..24 --digits 12 --format csv",
     "93a64e58d54e06423aa9f8b3389c513361d43aac3656b3379ed509864250eba5"),
    ("cn --n 1..24 --digits 30 --format csv",
     "00aded6302a59ba519cb3df34dec0146b6e65de584063b54bc95e08dcac3cb8c"),
]


class TestGoldenBytes:
    @pytest.mark.parametrize(
        "argv, expected", GOLDEN_STDOUT, ids=[argv for argv, _ in GOLDEN_STDOUT]
    )
    def test_stdout_bytes(self, argv, expected, capsysbinary):
        argv = [CINF_50 if a == "CINF" else a for a in argv.split()]
        assert run(argv) == 0
        assert capsysbinary.readouterr().out == expected.encode()

    @pytest.mark.parametrize(
        "argv, sha256", GOLDEN_SHA256, ids=[argv for argv, _ in GOLDEN_SHA256]
    )
    def test_output_sha256(self, argv, sha256, capsysbinary):
        assert run(argv.split()) == 0
        assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == sha256


class TestRealProcess:
    """`python -m expmath` writes to the real stdout exactly what run() writes."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["cinf", "--digits", "20"],
            ["walk", "--digits", "40", "--size", "16", "--image-format", "ppm"],
        ],
        ids=["text", "binary"],
    )
    def test_stdout_matches_run(self, argv, capsysbinary):
        assert run(argv) == 0
        expected = capsysbinary.readouterr().out
        src = str(Path(expmath.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "expmath", *argv],
            capture_output=True, env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == expected


def _fresh_python(*args):
    src = str(Path(expmath.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


class TestImportHygiene:
    """Every public name and submodule loads on first access, and each
    subcommand loads only the modules it runs: numpy, most of a cold start,
    only for the float-regime optimizer."""

    @staticmethod
    def _loaded(*args):
        """The expmath modules, and numpy, that a fresh interpreter imports."""
        # -X importtime names every module the process imports, on stderr
        stderr = _fresh_python("-X", "importtime", *args).stderr.decode()
        modules = {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()}
        return {m for m in modules if m == "numpy" or m.split(".")[0] == "expmath"}

    @pytest.mark.parametrize(
        "argv, loads_numpy",
        [
            (["cinf", "--digits", "20"], False),
            (["threshold"], False),
            (["walk", "--digits", "40", "--size", "16", "--image-format", "ppm"], False),
            (["bb", "--problem", "sphere"], True),
            (["cn", "--n", "1", "--digits", "10"], False),
            (["sinc", "--digits", "10"], False),
            (["agm", "--digits", "10"], False),
            (["recognize", "--list-basis"], False),
            (["quad", "--digits", "10"], False),
        ],
        ids=["cinf", "threshold", "walk", "bb", "cn", "sinc", "agm", "recognize", "quad"],
    )
    def test_numpy_only_for_bb(self, argv, loads_numpy):
        assert ("numpy" in self._loaded("-m", "expmath", *argv)) is loads_numpy

    def test_package_import_loads_no_submodule_and_no_numpy(self):
        assert self._loaded("-c", "import expmath") == {"expmath"}

    @pytest.mark.parametrize(
        "argv, runs",
        [
            (["pi", "--digits", "40"], {"agm"}),
            (["cinf", "--digits", "20"], {"bessel_moments", "functions", "quadrature"}),
        ],
        ids=["pi", "cinf"],
    )
    def test_subcommand_loads_only_its_modules(self, argv, runs):
        shell = {"expmath", "expmath.cli", "expmath.precision"}
        assert self._loaded("-m", "expmath", *argv) == shell | {f"expmath.{m}" for m in runs}

    def test_help_loads_no_library_module(self):
        # one interpreter asks for the top-level help and each subcommand's;
        # the exit code is the largest of theirs
        code = (
            "import sys\n"
            "from expmath.cli import build_parser, run\n"
            "sub = next(a for a in build_parser()._actions if a.dest == 'subcommand')\n"
            "sys.exit(max(run([*argv, '--help']) for argv in [[], *([s] for s in sub.choices)]))\n"
        )
        assert self._loaded("-c", code) == {"expmath", "expmath.cli", "expmath.precision"}

    def test_bare_import_lists_and_reaches_every_submodule(self):
        # dir() is asked before any access has bound a name
        code = (
            "import pkgutil, expmath\n"
            "print(set(expmath.__all__) <= set(dir(expmath)))\n"
            "for m in pkgutil.iter_modules(expmath.__path__):\n"
            "    if m.name != '__main__':\n"
            "        print(m.name in dir(expmath), m.name, getattr(expmath, m.name).__name__)\n"
        )
        listed, *lines = _fresh_python("-c", code).stdout.decode().splitlines()
        assert listed == "True"
        assert len(lines) == 10
        for line in lines:
            in_dir, name, module = line.split()
            assert in_dir == "True" and module == f"expmath.{name}"

    def test_optimizer_names_resolve_on_access(self):
        # every public name, the optimizer's included, is its defining
        # module's object
        for name in expmath.__all__:
            value = getattr(expmath, name)
            assert getattr(importlib.import_module(value.__module__), name) is value, name
        star = {}
        exec("from expmath import *", star)
        assert all(star[name] is getattr(expmath, name) for name in expmath.__all__)
        with pytest.raises(AttributeError, match="no_such_name"):
            expmath.no_such_name


class TestMemoPolicy:
    def test_every_memo_is_bounded(self):
        # a memo that lives across calls is a functools.lru_cache with a
        # finite maxsize, reset only through cache_clear(); the only
        # module-level containers are constant tables, not memos
        memos, containers = set(), set()
        for module_name in expmath._EXPORTS:
            module = importlib.import_module(f"expmath.{module_name}")
            for name, value in vars(module).items():
                if hasattr(value, "cache_info") and getattr(value, "__module__", None) == module.__name__:
                    memos.add(name)
                    assert isinstance(value.cache_info().maxsize, int), f"{module_name}.{name}"
                elif isinstance(value, (dict, list, set)) and not name.startswith("__"):
                    containers.add(f"{module_name}.{name}")
        assert {"_table", "_bernoulli_number", "_power_sums", "_k0_cached"} <= memos
        assert containers == {
            "barzilai_borwein.PROBLEMS", "relations._BASIS_FACTORIES", "cli._BB_DEFAULT_STARTS",
        }
