"""Command-line surface and config loading."""

import contextlib
import io
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trisemi
from trisemi import (
    GroupModeError,
    InvalidParameter,
    ParseError,
    RunConfig,
    element_text,
    load_config,
    parse_element,
)
from trisemi.cli import run


def out_of(capsys):
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_normalize_weyl_example(capsys):
    assert run(["normalize", "D(1)*M(1)"]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == "exp(-i*1) * M(1) * D(1)"


def test_normalize_empty_gives_identity(capsys):
    assert run(["normalize", ""]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == "1"


def test_ideal_test_example(capsys):
    assert run(["ideal-test", "--ideal", "cph", "M(1)*V(1) - M(2)*V(1)"]) == 0
    out, _ = out_of(capsys)
    assert "member: true" in out


def test_json_flag_produces_valid_json(capsys):
    assert run(["--json", "normalize", "M(1)*D(2)"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["element"] == "M(1) * D(2)"
    assert payload["terms"][0]["coeff"] == "1"


def test_mul_matches_normalize_of_product(capsys):
    assert run(["--json", "mul", "M(1)", "D(1)"]) == 0
    left, _ = out_of(capsys)
    assert run(["--json", "normalize", "M(1)*D(1)"]) == 0
    right, _ = out_of(capsys)
    assert json.loads(left)["element"] == json.loads(right)["element"]


def test_adjoint_roundtrip(capsys):
    assert run(["adjoint", "M(1)*D(1)*V(1)"]) == 0
    out, _ = out_of(capsys)
    text = out.strip()
    assert run(["adjoint", text]) == 0
    back, _ = out_of(capsys)
    assert back.strip() == "M(1) * D(1) * V(1)"


def test_coeff_subcommand(capsys):
    argv = ["--json", "coeff", "--axis", "E", "--index", "2", "M(1)*D(2) + M(1)"]
    assert run(argv) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["axis"] == "E"
    assert payload["element"] == "M(1)"


def test_bf_table_shows_exact_weights(capsys):
    assert run(["bf", "--m", "3", "D(1)"]) == 0
    out, _ = out_of(capsys)
    assert "5/6" in out


def test_bf_dilation_grading_keys_weights_by_dilation_text(capsys):
    assert run(["--json", "bf", "--m", "2", "--grading", "dilation", "V(1) + V(2)"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["grading"] == "dilation"
    assert [set(row["weights"]) for row in payload["rows"]] == [{"1", "2"}]


@pytest.mark.parametrize(
    "argv, grading",
    [
        (["gauge", "--grading", "E", "--theta", "0.5", "M(1)*D(2) + D(3)"], "translation"),
        (["bf", "--m", "2,3", "--grading", "h", "V(1) + V(2)"], "dilation"),
        (["cesaro", "--grading", "z", "--index", "1", "--T", "50", "M(1)*D(2) + M(2)"],
         "multiplication"),
    ],
)
def test_grading_letters_print_the_grading_name(capsys, argv, grading):
    assert run(["--json", *argv]) == 0
    out, _ = out_of(capsys)
    assert json.loads(out)["grading"] == grading


def test_recurrence_example(capsys):
    argv = ["--json", "recurrence", "--freqs", "1", "--eps", "0.05", "--limit", "100000"]
    assert run(argv) == 0
    out, _ = out_of(capsys)
    assert json.loads(out)["n"] == 44


def test_error_record_and_exit_code(capsys):
    code = run(["normalize", "M(1"])
    assert code == 2
    out, err = out_of(capsys)
    assert out == ""
    record = json.loads(err)["error"]
    assert record["code"] == "parse"
    assert "span" in record
    # an unexpected-end error points one past the last character
    lo, hi = record["span"]
    assert 0 <= lo <= hi <= len("M(1") + 1


@pytest.mark.parametrize("text", ["M(1/0)", "V(1/0)", "exp(i*1/0)", "M(s2@{1/0})"])
def test_zero_denominator_exits_2_with_a_parse_record(capsys, text):
    assert run(["--json", "normalize", text]) == 2
    out, err = out_of(capsys)
    assert out == ""
    record = json.loads(err)["error"]
    assert record["code"] == "parse"
    lo, hi = record["span"]
    assert text[lo:hi] == "0"


# a guard under 1e-12 resolves the sign of M(1e-12)
_TINY = ["support", "--algebra", "aph", "M(1/1000000000000)*V(1)"]
# 10^400, beyond the double range; the parser has no power operator
_HUGE = "1" + "0" * 400
# past the interpreter's 4300-digit limit on int/str conversion
_LONG = "7" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ["cesaro", "--index", "0", "--T", "-1", "D(1)"],
        ["bf", "--m", "0", "D(1)"],
        ["gauge", "--grading", "foo", "--theta", "1", "D(1)"],
        ["recurrence", "--freqs", "1", "--eps", "0.05", "--limit", "0"],
        ["sim-norm-bound", "--trials", "0", "D(1)"],
        ["char-eval", "--family", "d3", "--w", "2", "D(1)"],
        ["char-eval", "--family", "d1", "--y", "-1", "M(1)"],
        # usage errors from argument parsing
        ["zz", "M(1)"],
        ["char-eval", "--family", "zz", "M(1)"],
        ["coeff", "--axis", "E", "M(1)"],
        ["sim-column-identity", "--grading", "multiplication", "D(1)"],
        ["support", "--algebra", "zz", "M(1)"],
        # only the jt ideal takes --t, and it needs one
        ["ideal-test", "--ideal", "cp", "--t", "1", "M(1)*D(1)"],
        ["ideal-test", "--ideal", "jt", "M(1)"],
        # non-finite floats and a negative seed
        ["cesaro", "--T", "nan", "--index", "1", "M(1)"],
        ["cesaro", "--T", "inf", "--index", "1", "M(1)"],
        ["gauge", "--theta", "nan", "M(1)"],
        ["gauge", "--theta", "inf", "M(1)"],
        ["sim-norm-bound", "--seed", "-1", "M(1)"],
        # a NaN or negative sign guard would switch refusal off altogether
        *(["--guard", g, *_TINY] for g in ("nan", "inf", "-1")),
        ["ideal-test", "--ideal", "zz", "M(1)"],
        ["sim-wot", "--mode", "zz", "--schedule", "1,2", "M(1)"],
        # malformed numbers: the message names the value expected
        ["kernel", "--freqs", "1", "--m", "1", "--t", "abc"],
        ["bf", "--m", "x", "M(1)"],
        ["sim-residuals", "--lam", "abc"],
    ],
)
def test_invalid_parameter_exits_2_with_a_record(capsys, argv):
    assert run(["--json", *argv]) == 2
    out, err = out_of(capsys)
    assert out == ""
    record = json.loads(err)["error"]
    assert record["code"] == "invalid-parameter"
    # argparse names a type function that raises a plain ValueError
    assert not any(name in record["message"] for name in ("_int_list", "_float_list", "_finite"))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["auto-apply", "--theta", "1/0", "M(1)"], "parse"),
        (["char-eval", "--family", "d1", "--angles", "=1", "M(1)"], "parse"),
        (["char-eval", "--family", "d1", "--angles", "s2=nan", "M(1)"], "parse"),
        (["char-eval", "--family", "d1", "--y", "inf/2", "M(1)"], "parse"),
        (["cert-jt", "--lam", "nan", "--t", "1"], "invalid-scale"),
        (["cert-jt", "--lam", "inf", "--t", "1"], "invalid-scale"),
        (["cert-jt", "--lam", "2", "--t", "inf"], "invalid-scale"),
        # e^t rounds to 1, and e^t overflows
        (["cert-jt", "--lam", "1e308", "--t", "1e-300"], "invalid-scale"),
        (["cert-jt", "--lam", "2", "--t", "1000"], "numeric-overflow"),
        # about log(lam)/t = 6.9e7 telescope steps
        (["cert-jt", "--lam", "1e300", "--t", "1e-5"], "invalid-scale"),
        (["normalize", "M(²)"], "parse"),
        (["recurrence", "--eps", "0.1", "--limit", "100000000000"], "invalid-parameter"),
        (["sim-residuals", "--lam", "nan"], "invalid-parameter"),
        (["sim-fourier", "--lam", "inf"], "invalid-parameter"),
        (["kernel", "--freqs", "1", "--m", "1", "--t", "nan"], "invalid-parameter"),
        (["char-eval", "--family", "d3", "--w", "nan", "V(1)"], "invalid-parameter"),
        # a relation phase (lam mu, e^t lam, e^-t mu) above 2^26
        (["sim-residuals", "--lam", "1e300"], "invalid-parameter"),
        (["sim-residuals", "--lam", "1e200", "--mu", "1e200"], "invalid-parameter"),
        (["sim-residuals", "--mu", "1e8"], "invalid-parameter"),
        (["sim-residuals", "--t", "30"], "invalid-parameter"),
        (["sim-residuals", "--t", "-30", "--mu", "1"], "invalid-parameter"),
        # a float view of an exact value beyond the double range, the
        # exact commands' coefficient views included
        (["normalize", f"{_HUGE}*M(1)"], "numeric-overflow"),
        (["normalize", f"exp(i*{_HUGE})*M(1)"], "numeric-overflow"),
        (["support", "--algebra", "aph", f"M({_HUGE})*V(1)"], "numeric-overflow"),
        (["char-eval", "--family", "d1", f"M({_HUGE})"], "numeric-overflow"),
        (["char-eval", "--family", "d1", "--y", _HUGE, "M(1)"], "numeric-overflow"),
        (["char-eval", "--family", "d1", "--angles", f"ONE={_HUGE}", "M(1)"], "numeric-overflow"),
        (["recurrence", "--freqs", _HUGE, "--eps", "0.1", "--limit", "10"], "numeric-overflow"),
        # finite factors whose double product overflows: no NaN view, no
        # scan over an infinite frequency
        (["normalize", "exp(i*1000000*ONE@{700})*M(1)"], "numeric-overflow"),
        (["recurrence", "--freqs", "1000000*ONE@{700}", "--eps", "0.1", "--limit", "10"],
         "numeric-overflow"),
        (["gauge", "--grading", "dilation", "--theta", "1", f"V({_HUGE})"], "numeric-overflow"),
        (["cesaro", "--grading", "dilation", "--index", _HUGE, "--T", "1", "V(1)"],
         "numeric-overflow"),
        (["sim-norm-bound", f"V({_HUGE})"], "numeric-overflow"),
        (["bf", "--m", "1", f"{_HUGE}*M(1)*D(1) + D(1/2)"], "numeric-overflow"),
        (["char-eval", "--family", "d3", "--w", "0.5", f"V({_HUGE})"], "numeric-overflow"),
        # sizes past their caps are refused before any work
        (["bf", "--m", _HUGE, "M(1)"], "invalid-parameter"),
        (["cesaro", "--steps", _HUGE, "--T", "1", "--index", "1", "M(1)"], "invalid-parameter"),
        (["sim-norm-bound", "--trials", _HUGE, "M(1)"], "invalid-parameter"),
        (["recurrence", "--eps", "nan", "--limit", "10"], "invalid-parameter"),
        # a number too long to convert from text, and weights (their
        # denominators have about 5700 digits) too long to print
        (["normalize", f"M({_LONG})"], "parse"),
        (["bf", "--m", "2000", "D(1)+D(1/2)+M(1)*D(1/3)"], "numeric-overflow"),
        # a divisor must be a nonzero scalar
        (["normalize", "M(1)/0"], "parse"),
        (["normalize", "M(1)/M(2)"], "parse"),
    ],
)
def test_degenerate_numbers_exit_2_with_one_record(capsys, argv, code):
    assert run(["--json", *argv]) == 2
    out, err = out_of(capsys)
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert json.loads(lines[0])["error"]["code"] == code


@pytest.mark.parametrize(
    "name, value, member",
    [("bp", "bp", False), ("ap", "ap", False), ("aph_g_plus", "aph", True),
     ("aph_g_plus_adjoint", "aph-adj", False)],
)
def test_support_accepts_every_algebra_name_its_help_lists(capsys, name, value, member):
    assert run(["--json", "support", "--algebra", name, "M(1)*V(1)"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert (payload["algebra"], payload["member"]) == (value, member)


@pytest.mark.parametrize(
    "argv, key, want",
    [
        (["support", "--algebra", "aph", f"V({_HUGE})"], "member", True),
        (["char-eval", "--family", "d2", f"V({_HUGE})"], "value", {"re": 0.0, "im": 0.0}),
        (["ideal-test", "--ideal", "jt", "--t", _HUGE, "M(1)"], "member", False),
    ],
)
def test_a_dilation_beyond_the_double_range_is_signed_exactly(capsys, argv, key, want):
    assert run(["--json", *argv]) == 0
    assert json.loads(out_of(capsys)[0])[key] == want


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    assert out_of(capsys)[0].startswith("usage: trisemi")


@pytest.mark.parametrize(
    "letter, name, text",
    [("E", "translation", "M(1)*D(1) + 2*D(1/2)"), ("h", "dilation", "M(1)*V(1) + D(2)*V(1/2)")],
)
def test_sim_column_identity_takes_grading_letters(capsys, letter, name, text):
    payloads = []
    for grading in (letter, name):
        assert run(["--json", "sim-column-identity", "--grading", grading, text]) == 0
        payloads.append(json.loads(out_of(capsys)[0]))
    assert payloads[0] == payloads[1]
    assert payloads[0]["grading"] == name


def test_sim_column_identity_prints_the_same_bytes_under_every_hash_seed(tmp_path):
    src = Path(trisemi.__file__).resolve().parent.parent
    text = ("(1/3)*M(1)*D(1/7) + (2/3+1/5*i)*D(3/11) + (5/7)*M(2/3)*D(2/9)"
            " + (3/13)*D(5/17) + M(1)*D(1/3)")
    outs = {
        subprocess.run(
            [sys.executable, "-B", "-m", "trisemi", "--json", "sim-column-identity", text],
            cwd=tmp_path,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": str(seed)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in range(10)
    }
    assert len(outs) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sim-wot", "--mode", "dilation-in", "--schedule", "151,622", "D(1)*V(1)"],
        ["sim-wot", "--mode", "dilation-out", "--schedule", "151,622", "M(1)*V(1)"],
    ],
)
def test_far_apart_packets_meet_in_zero_without_warnings(tmp_path, argv):
    # the dilated packet sits ~1e270 away from g: every entry underflows to 0
    src = Path(trisemi.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-B", "-m", "trisemi", "--json", *argv],
        cwd=tmp_path,
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0
    assert done.stderr == ""

    def finite(text):
        raise AssertionError(f"non-finite JSON number {text}")

    payload = json.loads(done.stdout, parse_constant=finite)
    assert [step["value"] for step in payload["steps"]] == [{"re": 0.0, "im": 0.0}] * 2


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "D(1)*V(1000)*M(1)"],
        ["sim-norm-bound", "V(1000)"],
        ["sim-wot", "--mode", "dilation-in", "--schedule", "1,2", "V(-1000)"],
    ],
)
def test_numeric_overflow_exits_2_with_a_record(capsys, argv):
    assert run(["--json", *argv]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert json.loads(err)["error"]["code"] == "numeric-overflow"


@pytest.mark.parametrize("opener", ["(", "adj("])
def test_deep_nesting_exits_2_with_the_span_of_the_first_paren_past_the_bound(
    capsys, opener
):
    from trisemi.exprs import MAX_NESTING

    text = opener * 3000 + "M(1)" + ")" * 3000
    assert run(["--json", "normalize", text]) == 2
    out, err = out_of(capsys)
    assert out == ""
    record = json.loads(err)["error"]
    assert record["code"] == "parse"
    lo, hi = record["span"]
    assert (lo, hi) == (len(opener) * (MAX_NESTING + 1) - 1, len(opener) * (MAX_NESTING + 1))
    assert text[lo:hi] == "("


def test_nesting_up_to_the_bound_and_long_sign_runs_parse(capsys):
    from trisemi.exprs import MAX_NESTING

    text = "(" * MAX_NESTING + "D(1)*M(1)" + ")" * MAX_NESTING
    assert run(["normalize", text]) == 0
    assert out_of(capsys)[0].strip() == "exp(-i*1) * M(1) * D(1)"
    assert run(["normalize", "--", "-" * 3001 + "M(1)"]) == 0
    assert out_of(capsys)[0].strip() == "-M(1)"


def test_ideal_test_outside_ambient_is_an_error(capsys):
    assert run(["ideal-test", "--ideal", "cp", "V(1)"]) == 2
    _, err = out_of(capsys)
    assert json.loads(err)["error"]["code"] == "not-in-ambient"


def test_config_file_flow(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[atoms]\nphi = 1.6180339887498949\n\n[options]\ngroup = Z\nseed = 5\n"
    )
    assert run(["--config", str(cfg), "normalize", "M(phi)"]) == 0
    out, _ = out_of(capsys)
    assert out.strip() == "M(phi)"


def test_load_config_defaults():
    cfg = load_config(None)
    assert isinstance(cfg, RunConfig)
    assert cfg.group == "Z"
    assert cfg.seed == 0


def test_load_config_rejects_bad_group(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[options]\ngroup = Q\n")
    with pytest.raises(GroupModeError):
        load_config(str(bad))


def test_load_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[options]\ncolour = blue\n")
    with pytest.raises(ParseError):
        load_config(str(bad))


@pytest.mark.parametrize(
    "text",
    [
        "s2 = 1.5\n",  # no section header
        "[atoms]\ns2 = abc\n",
        "[options]\nguard = abc\n",
        "[options]\nseed = 1.5\n",
    ],
)
def test_load_config_rejects_malformed_files(tmp_path, text):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    with pytest.raises(ParseError):
        load_config(str(bad))


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "missing.ini", "normalize", "M(1"],
        ["char-eval", "--family", "zz", "M(1"],
        ["auto-apply", "--angles", "=1", "M(1"],
        # usage errors that argparse finds after it has parsed the operand
        ["mul", "M(1"],
        ["normalize", "M(1", "extra"],
    ],
)
def test_a_malformed_operand_is_reported_before_any_other_fault(tmp_path, capsys, argv):
    # the argument parser parses expression operands, so their parse error
    # comes before a missing or extra argument is found and before the
    # config file, --family and --angles are read
    assert run(["--json", "normalize", "M(1"]) == 2
    alone = out_of(capsys)[1]
    argv = [str(tmp_path / a) if a == "missing.ini" else a for a in argv]
    assert run(["--json", *argv]) == 2
    assert out_of(capsys) == ("", alone)
    assert json.loads(alone)["error"]["code"] == "parse"


def test_config_guard_nan_exits_2_with_one_record(tmp_path, capsys):
    cfg = tmp_path / "nan.ini"
    cfg.write_text("[options]\nguard = nan\n")
    with pytest.raises(InvalidParameter):
        load_config(str(cfg))
    assert run(["--json", "--config", str(cfg), *_TINY]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert json.loads(err)["error"]["code"] == "invalid-parameter"


def test_a_bad_dilation_value_in_the_config_is_a_parse_record(tmp_path, capsys):
    cfg = tmp_path / "dil.ini"
    cfg.write_text("[dilation]\nh = -1\n")
    assert run(["--json", "--config", str(cfg), "normalize", "V(h)"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert json.loads(err)["error"] == {
        "code": "parse", "message": "dilation symbol 'h' must have a positive finite value",
    }


def test_guard_zero_stays_legal_and_the_default_guard_refuses(capsys):
    assert run(["--json", "--guard", "0", *_TINY]) == 0
    assert json.loads(out_of(capsys)[0])["member"] is True
    assert run(["--json", *_TINY]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert json.loads(err)["error"]["code"] == "indeterminate-sign"


def test_a_sign_inside_its_rounding_bound_is_refused(tmp_path, capsys):
    # the double sum reads +2.4e-4; the exact value over the declared
    # doubles is -3.4e-7, inside the rounding bound 4.0e-3
    cfg = tmp_path / "atoms.ini"
    cfg.write_text("[atoms]\ns2 = 1.4142135623730951\ns3 = 1.7320508075688772\n")
    expr = "M(622284859645*s2 - 738342608038*s3 + 418175487673978733/1048576)"
    assert run(["--config", str(cfg), "--json", "support", "--algebra", "aph", expr]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert json.loads(err)["error"]["code"] == "indeterminate-sign"


# the command-line examples of the README, the last one an error record
_README_EXAMPLES = [
    ["normalize", "D(1)*M(1)"],
    ["--json", "ideal-test", "--ideal", "cph", "M(1)*V(1) - M(2)*V(1)"],
    ["bf", "--m", "3", "D(1)"],
    ["recurrence", "--freqs", "1", "--eps", "0.05", "--limit", "100000"],
    ["--json", "support", "--algebra", "ap", "M(s2)"],
]


def test_runs_in_one_process_share_no_state():
    # the parser is built once per process: the examples, run forwards and
    # then backwards, print the same bytes each time
    def outputs(order):
        got = {}
        for i in order:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(list(_README_EXAMPLES[i]))
            got[i] = (code, out.getvalue(), err.getvalue())
        return got

    order = range(len(_README_EXAMPLES))
    forwards = outputs(order)
    assert forwards == outputs(reversed(order))
    assert [forwards[i][0] for i in order] == [0, 0, 0, 0, 2]


def test_load_config_missing_file():
    with pytest.raises(ParseError):
        load_config("/nonexistent/path.ini")


def test_char_eval_untrusted_warns_in_payload(capsys):
    argv = ["--json", "char-eval", "--family", "chi0", "--w", "0.5", "M(1)"]
    assert run(argv) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["character"]["trusted"] is False
    assert payload["warning"] == "untrusted character family"


def test_char_eval_reads_a_half_plane_point_under_group_r(tmp_path, capsys):
    cfg = tmp_path / "r.ini"
    cfg.write_text("[options]\ngroup = R\n")
    argv = ["--json", "--config", str(cfg), "char-eval", "--family", "d3", "--w", "1/2", "V(1)"]
    assert run(argv) == 0
    out, _ = out_of(capsys)
    character = json.loads(out)["character"]
    assert character["dilation_point"] == {"kind": "half-plane-finite", "decay": "1/2", "angles": {}}
    assert character["trusted"] is True


def test_sim_fourier_subcommand(capsys):
    assert run(["--json", "sim-fourier", "--lam", "1.0"]) == 0
    out, _ = out_of(capsys)
    payload = json.loads(out)
    assert payload["residual"] < 1e-8
    assert run(["--json", "sim-fourier", "--lam", "2.0", "--dual"]) == 0
    out, _ = out_of(capsys)
    assert json.loads(out)["residual"] < 1e-8


def _payload(capsys, argv) -> dict:
    assert run(["--json", *argv]) == 0
    out, err = out_of(capsys)
    assert err == ""
    return json.loads(out)


def _human(capsys, argv) -> list[str]:
    assert run(argv) == 0
    out, err = out_of(capsys)
    assert err == ""
    return out.splitlines()


_AUTO_APPLY = ["auto-apply", "--t", "1", "--theta", "1/2", "--angles", "s2=1/3",
               "--shift-angles", "s2=1/5", "M(1)*D(1)*V(1) + D(2)"]
_AUTO_APPLY_IMAGE = "D(2*ONE@{-1}) + exp(i*1/2) * M(ONE@{1}) * D(ONE@{-1}) * V(1)"


def test_auto_apply_twists_and_dilates_every_term(capsys):
    # the twists read the atom s2 only, so the rational frequencies keep
    # their coefficients and V(1) picks up exp(i*1/2)
    payload = _payload(capsys, _AUTO_APPLY)
    assert payload["element"] == _AUTO_APPLY_IMAGE
    assert [(t["coeff"], t["m"], t["d"], t["v"]) for t in payload["terms"]] == [
        ("1", "0", "2*ONE@{-1}", "0"),
        ("exp(i*1/2)", "ONE@{1}", "ONE@{-1}", "1"),
    ]
    assert (payload["t"], payload["theta"]) == ("1", "1/2")
    assert _human(capsys, _AUTO_APPLY) == [f"element: {_AUTO_APPLY_IMAGE}", "t: 1", "theta: 1/2"]


def test_flip_check_reports_the_exact_gaps(capsys):
    payload = _payload(capsys, ["flip-check", "--k1", "1", "--k2", "2"])
    assert payload == {
        "k1": 1.0, "k2": 2.0, "gap_at_1_1": "3", "gap_at_1_2": "6", "contradiction": True,
    }
    assert _human(capsys, ["flip-check", "--k1", "1", "--k2", "2"])[-1] == "contradiction: true"
    # a zero scale is refused before any map is built
    assert run(["--json", "flip-check", "--k1", "0", "--k2", "2"]) == 2
    out, err = out_of(capsys)
    assert out == "" and json.loads(err)["error"]["code"] == "invalid-scale"


def test_kernel_prints_one_row_per_point(tmp_path, capsys):
    cfg = tmp_path / "s2.ini"
    cfg.write_text("[atoms]\ns2 = 1.4142135623730951\n")
    argv = ["--config", str(cfg), "kernel", "--freqs", "1,s2", "--m", "2", "--t", "0,1"]
    payload = _payload(capsys, argv)
    assert payload["basis"] == ["1", "s2"] and payload["m"] == 2
    assert [row["t"] for row in payload["rows"]] == [0.0, 1.0]
    assert payload["rows"][0]["K"] == pytest.approx(16.0)
    assert payload["rows"][1]["K"] == pytest.approx(5.8845696700709285)
    # no points: the human table prints as empty
    lines = _human(capsys, ["kernel", "--freqs", "1", "--m", "1", "--t", ""])
    assert lines == ['basis: ["1"]', "m: 1", "(empty)"]


def test_recurrence_schedule_lists_the_successive_minima(capsys):
    argv = ["recurrence", "--freqs", "1,1/3", "--eps", "0.5", "--limit", "40", "--schedule"]
    payload = _payload(capsys, argv)
    assert payload == {"freqs": ["1", "1/3"], "eps": 0.5, "limit": 40, "schedule": [19]}


def test_cert_commutator_prints_a_verified_certificate(capsys):
    payload = _payload(capsys, ["cert-commutator", "--lam", "1", "--s", "2"])
    assert payload["kind"] == "commutator"
    assert payload["multiplier"] == "(-exp(i*2))/(1 - exp(i*2)) * M(1)"
    assert (payload["shift"], payload["target"]) == ("2", "M(1) * D(2)")
    assert payload["verified"] is True


def test_sim_norm_bound_reports_its_trials_and_seed(capsys):
    argv = ["sim-norm-bound", "--trials", "50", "--seed", "3", "M(1) + D(1)"]
    payload = _payload(capsys, argv)
    assert (payload["l1"], payload["trials"], payload["seed"]) == (2.0, 50, 3)
    assert 1.0 < payload["bound"] <= payload["l1"]
    assert _human(capsys, argv)[1:] == ["l1: 2", "trials: 50", "seed: 3"]


def test_sim_wot_reports_every_step_in_process(capsys):
    argv = ["sim-wot", "--mode", "dilation-in", "--schedule", "1,2", "M(1)*V(1)"]
    payload = _payload(capsys, argv)
    assert [step["n"] for step in payload["steps"]] == [1, 2]
    assert payload["limit_element"] == "V(1)"
    assert payload["steps"][1]["error"] < payload["steps"][0]["error"] < 1e-2
    assert payload["nonmonotone_fraction"] == 0


@pytest.mark.parametrize(
    "options, value",
    [
        (["--family", "d1", "--y", "inf"], "2+0i"),
        (["--family", "d3", "--w", "0.5,0.25"], "2.5+0.25i"),
        (["--family", "d3"], "2+0i"),
        (["--family", "chi_inf"], "2+0i"),
    ],
    ids=["y-inf", "w-re-im", "w-default", "chi-inf"],
)
def test_char_eval_prints_a_complex_value(capsys, options, value):
    # d1 at infinity and the vanishing point read the constant term; the
    # disc point w reads V(1) as w
    lines = _human(capsys, ["char-eval", *options, "V(1) + 2"])
    assert lines[-1] == f"value: {value}"


@pytest.mark.parametrize("w", ["1,2,3", "x"])
def test_char_eval_refuses_a_malformed_disc_point(capsys, w):
    assert run(["--json", "char-eval", "--family", "d3", "--w", w, "V(1)"]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert json.loads(err)["error"] == {
        "code": "parse", "message": f"disc point {w!r} is not re or re,im",
    }


def test_sim_residuals_weyl_row_is_a_true_residual(capsys):
    assert run(["--json", "sim-residuals"]) == 0
    out, _ = out_of(capsys)
    rows = {row["relation"]: row for row in json.loads(out)["rows"]}
    assert rows["weyl"]["residual"] < 1e-15


def test_sim_residuals_rows_follow_the_relation_table(capsys):
    assert run(["--json", "sim-residuals", "--lam", "2", "--mu", "0.5", "--t", "0.25"]) == 0
    out, _ = out_of(capsys)
    rows = json.loads(out)["rows"]
    assert [(row["relation"], row["params"]) for row in rows] == [
        ("weyl", [2.0, 0.5]),
        ("dilM", [0.25, 2.0]),
        ("dilD", [0.25, 0.5]),
    ]


@pytest.mark.parametrize("t", ["0.3", "0.7", "1.1"])
def test_sim_residuals_dild_row_is_a_true_residual(capsys, t):
    # at t = 1.1 the two sides round the dilated centre apart; the residual
    # is still the rounding error, not its square root
    assert run(["--json", "sim-residuals", "--t", t]) == 0
    out, _ = out_of(capsys)
    rows = {row["relation"]: row for row in json.loads(out)["rows"]}
    assert isinstance(rows["dilD"]["residual"], float)
    assert rows["dilD"]["residual"] <= 1e-14


@pytest.mark.parametrize(
    "argv",
    [
        ["cert-commutator", "--lam", "1+", "--s", "1"],
        ["recurrence", "--freqs", "1,a+", "--eps", "0.1", "--limit", "10"],
        ["ideal-test", "--ideal", "jt", "--t", "x+", "M(1)"],
        ["auto-apply", "--t", "h+", "M(1)"],
    ],
)
def test_malformed_typed_option_exits_2_with_a_parse_record(capsys, argv):
    assert run(["--json", *argv]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert json.loads(err)["error"]["code"] == "parse"


def test_print_parse_round_trip_on_random_elements(capsys):
    import random

    from trisemi import element_text, parse_element

    from helpers import random_element

    rng = random.Random(99)
    for _ in range(200):
        x = random_element(rng, max_terms=4)
        assert parse_element(element_text(x)) == x


@pytest.mark.parametrize("text", ["V(400)", "V(-1000)"])
def test_sim_norm_bound_past_the_double_range_exits_2_without_warnings(capsys, text):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--json", "sim-norm-bound", text]) == 2
    out, err = out_of(capsys)
    assert out == ""
    assert json.loads(err)["error"]["code"] == "numeric-overflow"
    assert not caught


# Expression text from a small grammar, weighted toward division,
# grouping and phases so that random texts reach factored denominators
# (binomial divisors, opaque ones and their cancellation); then the same
# texts with one stray piece spliced in, or loose pieces only.
_SCALARS = st.sampled_from(
    ["exp(i*s2)", "exp(-i*1/2)", "2", "i", "(1 - exp(i*s2))", "(exp(i*s2) - 1)",
     "(1 + 2*exp(i*s2))", "(1 - exp(i*1/2*s2))", "(2 + exp(i*1) + exp(i*s2))"]
)
_LEAVES = st.one_of(st.sampled_from(["M(1)", "D(s2)", "V(1)"]), _SCALARS)
_OPS = st.sampled_from([" / ", "/", " / ", " * ", " + ", " - "])
_PIECES = st.sampled_from(["/", "(", ")", "exp(i*", "*", "+", "-", "1/", "0", "@{1}", "s2", "i", " "])
_GRAMMAR = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.builds(lambda a, op, b: a + op + b, inner, _OPS, inner),
        st.builds(lambda a, b: f"{a} / {b}", inner, _SCALARS),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"adj({e})"),
    ),
    max_leaves=8,
)
_MANGLED = st.one_of(
    st.builds(lambda t, at, piece: t[:at] + piece + t[at:], _GRAMMAR, st.integers(0, 60), _PIECES),
    st.lists(_PIECES, max_size=12).map("".join),
)


def _parses_or_raises_a_parse_error_and_the_cli_exits_0_or_2(text):
    try:
        x = parse_element(text)
    except ParseError:
        pass
    else:
        assert parse_element(element_text(x)) == x
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(["--json", "normalize", "--", text]) in (0, 2)


@settings(max_examples=100)
@given(_GRAMMAR)
def test_fuzz_grammar_texts_parse_or_raise_and_the_cli_exits_0_or_2(text):
    _parses_or_raises_a_parse_error_and_the_cli_exits_0_or_2(text)


@settings(max_examples=100)
@given(_MANGLED)
def test_fuzz_mangled_texts_parse_or_raise_and_the_cli_exits_0_or_2(text):
    _parses_or_raises_a_parse_error_and_the_cli_exits_0_or_2(text)
