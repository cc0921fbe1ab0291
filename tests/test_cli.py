import json
import math
import random
import re

import pytest

import recurrencelab.cli as cli
import recurrencelab.plan_engine as plan_engine
from recurrencelab import (ExplicitFree, InsertionPlan, LazySequence,
                           SeededFree, Word, ZeroFree, apply_insertions,
                           box_dimension, materializable_term_count,
                           return_times_all, truncate_plan)
from recurrencelab.cli import main
from recurrencelab.shift_core import DEFAULT_MATERIALIZATION_CAP

from conftest import brute_return_time


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def lines(text):
    return [json.loads(ln) for ln in text.splitlines() if ln.strip()]


# -------------------------------------------------------------- classify ---

def test_classify_thresholds_json(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "1", "--beta", "2",
                       "--gamma", "2", "--delta", "1")
    assert code == 0
    data = lines(out)[0]
    assert data["dim"] == 1 and data["case"] == "v"
    assert data["A"] == 2 and data["B"] == 2


def test_classify_with_profile(capsys):
    code, out, _ = run(capsys, "classify", "--phi", "log(n)",
                       "--alpha", "2", "--beta", "2")
    assert code == 0
    data = lines(out)[0]
    assert data["gamma"] == 1 and data["delta"] == 1
    assert data["provenance"] == "analytic"


def test_classify_a_mixed_sum_is_exact(capsys):
    # log(n) + log(log(n)) has gamma = delta = 1: at 0.9/0.9, dimension 0
    code, out, _ = run(capsys, "classify", "--phi", "log(n)+log(log(n))",
                       "--alpha", "0.9", "--beta", "0.9")
    assert code == 0
    data = lines(out)[0]
    assert (data["gamma"], data["delta"]) == (1, 1)
    assert (data["provenance"], data["dim"], data["case"]) == (
        "analytic", 0, None)


def test_classify_an_irrational_gamma(capsys):
    # gamma = log 3 is printed as a float; C = beta/alpha stays exact
    code, out, err = run(capsys, "classify", "--phi", "log(3)*log(n)",
                         "--alpha", "0.9103", "--beta", "0.9103")
    assert code == 0
    data = lines(out)[0]
    assert data["gamma"] == data["delta"] == math.log(3)
    assert (data["provenance"], data["dim"], data["case"], data["C"]) == (
        "analytic", 1, "v", 1)
    assert err == "dimension 1, case v (extremes analytic)\n"


def test_classify_an_exact_root_of_a_large_literal(capsys):
    # (10^60)^0.5 log(n) = 10^30 log(n): exact extremes, so case v, C = 1
    code, out, _ = run(capsys, "classify", "--phi",
                       f"{10 ** 60}^0.5*log(n)", "--alpha", "1", "--beta", "1")
    assert code == 0
    data = lines(out)[0]
    assert data["gamma"] == data["delta"] == 10 ** 30
    assert (data["provenance"], data["case"], data["C"]) == ("analytic", "v", 1)


def test_classify_fraction_inputs(capsys):
    code, out, _ = run(capsys, "classify", "--alpha", "1/3", "--beta", "inf",
                       "--gamma", "inf", "--delta", "3/2")
    assert code == 0
    assert lines(out)[0]["dim"] == 1


def test_classify_without_extremes_is_usage(capsys):
    code, _, err = run(capsys, "classify", "--alpha", "1", "--beta", "2")
    assert code == 2


# ------------------------------------------------------------ exit codes ---

def test_usage_error_is_exit_2(capsys):
    assert run(capsys, "classify", "--alpha", "1")[0] == 2          # no beta
    assert run(capsys, "plan", "--phi", "log(n",                    # parse
               "--alpha", "2", "--beta", "2")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_refusal_is_exit_4(capsys):
    code, out, _ = run(capsys, "plan", "--phi", "log(n)",
                       "--alpha", "1/3", "--beta", "1/2")
    assert code == 4
    data = lines(out)[0]
    assert data["refused"] is True
    assert data["classification"]["dim"] == 0


def test_capacity_is_exit_3(capsys):
    # the first position already overruns the digit cap: no term to keep
    code, _, err = run(capsys, "plan", "--phi", "log(n)", "--alpha", "2",
                       "--beta", "2", "--count", "40", "--digit-cap", "1")
    assert code == 3


@pytest.mark.parametrize("command", ["plan", "verify"])
def test_float_overflow_is_exit_3(capsys, command):
    # phi = n^1000 leaves float range while its monotonicity is checked
    code, out, err = run(capsys, command, "--phi", "n^1000", "--alpha", "1",
                         "--beta", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("capacity: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_invalid_order_is_exit_1(capsys):
    code, _, err = run(capsys, "classify", "--alpha", "2", "--beta", "1",
                       "--gamma", "1", "--delta", "1")
    assert code == 1


def test_empty_word_is_exit_1(capsys):
    assert run(capsys, "return-times", "--word", "", "--m", "2")[0] == 1


def test_a_digit_string_past_m_10_is_exit_1(capsys):
    code, out, err = run(capsys, "return-times", "--word", "0101", "--m", "12")
    assert (code, out) == (1, "")
    assert err == "error: digit-string words require m <= 10\n"


@pytest.mark.parametrize("argv", [
    ["return-times", "--m", "2"], ["rates"],
    ["witnesses", "--m", "2", "--alpha", "1", "--eps", "0"]],
    ids=["return-times", "rates", "witnesses"])
def test_a_missing_word_is_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: no input word: pass --word or --word-file\n"


@pytest.mark.parametrize("argv", [
    ["return-times", "--word", "0110", "--word-file", "{word}", "--m", "2"],
    ["witnesses", "--word", "0110", "--word-file", "{word}", "--m", "2",
     "--alpha", "1", "--eps", "0"],
    ["rates", "--word", "0110", "--word-file", "{word}"],
    ["rates", "--word", "0110", "--plan-file", "{plan}"],
    ["rates", "--word-file", "{word}", "--plan-file", "{plan}"]],
    ids=["return-times", "witnesses", "rates-word-file", "rates-word-plan",
         "rates-file-plan"])
def test_conflicting_inputs_are_a_usage_error(tmp_path, capsys, argv):
    # each input alone would run; two of them exit 2 while parsing, with
    # nothing on stdout, rather than one silently dropped
    word = tmp_path / "word.txt"
    word.write_text("0110100110010110")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(
        {"p": 3, "m": 2, "terms": [{"n": 4, "ell": "64"},
                                   {"n": 8, "ell": "512"}]}))
    code, out, err = run(capsys, *(a.format(word=word, plan=plan)
                                   for a in argv))
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


# ------------------------------------------------------- plan and build ---

def test_plan_emits_classification_then_terms(capsys):
    code, out, _ = run(capsys, "plan", "--phi", "log(n)", "--alpha", "2",
                       "--beta", "2", "--count", "8")
    assert code == 0
    cls, plan = lines(out)
    assert cls["dim"] == 1 and cls["case"] == "v"
    assert plan["case_tag"] == "v"
    assert [t["n"] for t in plan["terms"]][:2] == [4, 55]
    assert plan["terms"][0]["ell"] == "23"


def test_plan_build_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "plan", "--phi", "log(n)", "--alpha", "2",
                       "--beta", "2", "--count", "8")
    assert code == 0
    plan = lines(out)[1]
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    code, out, _ = run(capsys, "build", "--plan-file", str(plan_file),
                       "--free", "zero", "--prefix", "60")
    assert code == 0
    seq, pref = lines(out)
    assert seq["base"]["kind"] == "fp" and seq["base"]["p"] == 3
    assert len(seq["events"]) >= 1
    assert seq["events"][0]["pos"] == "23"
    assert len(pref["digits"]) == 60


def test_build_reads_stdin(capsys, monkeypatch):
    plan = {"p": 3, "m": 2, "case_tag": "",
            "terms": [{"i": 1, "n": 4, "ell": "64"},
                      {"i": 2, "n": 8, "ell": "256"}]}
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(plan)))
    code, out, _ = run(capsys, "build", "--plan-file", "-", "--prefix", "80")
    assert code == 0
    digits = lines(out)[1]["digits"]
    # marker 1 . 0001 . 1 . 1 lands at position 64
    assert digits[63:70] == "1000111"


def _twelve_term_plan(tmp_path, capsys):
    code, out, _ = run(capsys, "plan", "--phi", "log(n)", "--alpha", "2",
                       "--beta", "2", "--count", "12")
    assert code == 0
    f = tmp_path / "plan.json"
    f.write_text(json.dumps(lines(out)[1]))
    return f


@pytest.mark.parametrize("cap", ["0", "-1", "1e6"])
@pytest.mark.parametrize("command", ["build", "verify"])
def test_cap_must_be_a_positive_integer(tmp_path, capsys, command, cap):
    if command == "build":
        argv = ["build", "--plan-file", str(_twelve_term_plan(tmp_path, capsys))]
    else:
        argv = ["verify", "--phi", "log(n)", "--alpha", "2", "--beta", "2"]
    code, out, err = run(capsys, *argv, "--cap", cap)
    assert code == 2 and out == ""
    assert "--cap" in err


@pytest.mark.parametrize("value", ["0", "-3", "abc", "1e6"])
@pytest.mark.parametrize("command", ["build", "verify"])
def test_the_cap_environment_follows_the_cap_rule(tmp_path, capsys,
                                                  monkeypatch, command, value):
    if command == "build":
        argv = ["build", "--plan-file", str(_twelve_term_plan(tmp_path, capsys))]
    else:
        argv = ["verify", "--phi", "log(n)", "--alpha", "2", "--beta", "2"]
    monkeypatch.setenv(cli._CAP_ENV, value)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert cli._CAP_ENV in err and repr(value) in err
    # a valid --cap never reads the variable
    code, _, _ = run(capsys, *argv, "--cap", "2000000")
    assert code == 0


@pytest.mark.parametrize("prefix", ["-5", "-1", "abc"])
def test_build_rejects_a_bad_prefix_before_any_output(tmp_path, capsys, prefix):
    f = _twelve_term_plan(tmp_path, capsys)
    code, out, err = run(capsys, "build", "--plan-file", str(f),
                         f"--prefix={prefix}")
    assert code == 2 and out == ""
    assert "--prefix" in err and "nonnegative" in err


def test_an_absent_cap_falls_back_to_the_environment(tmp_path, capsys,
                                                     monkeypatch):
    f = _twelve_term_plan(tmp_path, capsys)
    monkeypatch.delenv(cli._CAP_ENV, raising=False)
    code, _, err = run(capsys, "build", "--plan-file", str(f))
    assert code == 0
    assert err == f"cap {cli.DEFAULT_MATERIALIZATION_CAP}: materializing 2 of 12 terms\n"
    monkeypatch.setenv(cli._CAP_ENV, "5000")
    code, _, err = run(capsys, "build", "--plan-file", str(f))
    assert code == 0 and err == "cap 5000: materializing 1 of 12 terms\n"
    # the flag wins over the environment
    code, _, err = run(capsys, "build", "--plan-file", str(f), "--cap", "30")
    assert code == 0 and err == "cap 30: materializing 1 of 12 terms\n"


def test_build_seeded_free_is_reproducible(tmp_path, capsys):
    plan = {"p": 3, "m": 2, "case_tag": "",
            "terms": [{"i": 1, "n": 4, "ell": "64"},
                      {"i": 2, "n": 8, "ell": "256"}]}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(plan))
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "build", "--plan-file", str(f),
                           "--free", "seed:7", "--prefix", "120")
        assert code == 0
        outs.append(lines(out)[1]["digits"])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("spec", ["bogus", "seed:abc", "seed:", "digits:1x",
                                  "zero:1", "digits:\u0660\u0661",
                                  "digits:0\uff11"])
@pytest.mark.parametrize("command", ["build", "verify"])
def test_a_malformed_free_spec_is_a_usage_error(tmp_path, capsys, command,
                                                spec):
    if command == "build":
        argv = ["build", "--plan-file", str(_twelve_term_plan(tmp_path, capsys))]
    else:
        argv = ["verify", "--phi", "log(n)", "--alpha", "2", "--beta", "2"]
    code, out, err = run(capsys, *argv, "--free", spec)
    assert code == 2 and out == ""
    assert "--free" in err and repr(spec) in err


def test_verify_reads_a_short_free_stream_before_any_output(capsys):
    code, out, err = run(capsys, "verify", "--phi", "log(n)", "--alpha", "2",
                         "--beta", "2", "--cap", "200000",
                         "--free", "digits:0101")
    assert code == 1 and out == ""
    assert err == "error: free stream of length 4 read at 5\n"


def test_verify_reads_an_out_of_alphabet_free_stream_before_any_output(capsys):
    code, out, err = run(capsys, "verify", "--phi", "log(n)", "--alpha", "2",
                         "--beta", "2", "--cap", "200000",
                         "--free", "digits:0120")
    assert code == 1 and out == ""
    assert err == "error: free stream produced symbol 2 outside alphabet\n"


def test_build_reads_a_short_free_stream_before_any_output(tmp_path, capsys):
    code, out, _ = run(capsys, "plan", "--phi", "log(n)", "--alpha", "3",
                       "--beta", "3")
    assert code == 0
    f = tmp_path / "plan.json"
    f.write_text(json.dumps(lines(out)[1]))
    code, out, err = run(capsys, "build", "--plan-file", str(f), "--cap",
                         "2000000", "--free", "digits:" + "01" * 200,
                         "--prefix", "5000")
    assert code == 1 and out == ""
    assert err == ("cap 2000000: materializing 2 of 12 terms\n"
                   "error: free stream of length 400 read at 401\n")


@pytest.mark.parametrize("plan,field", [
    ({"p": 3, "m": 2}, "'terms'"),
    ({"m": 2, "terms": []}, "'p'"),
    ({"p": 3, "m": 2, "terms": [{"n": 4}]}, "'ell'"),
    ({"p": 3, "m": 2, "terms": [{"n": 4, "ell": "64"}, {"ell": "256"}]},
     "term 2 has no field 'n'"),
    ({"p": 3, "m": 2, "terms": [{"n": 4, "ell": "6.4"}]}, "'ell'"),
    ({"p": 3, "m": None, "terms": []}, "'m'"),
    ({"p": 3, "m": 2, "terms": {"n": 4}}, "'terms'"),
    ({"p": 3, "m": 2, "terms": [[4, 64]]}, "term 1 has no field 'n'"),
    ([3, 2], "'terms'"),
    # well formed, but too few terms for a plan
    ({"p": 3, "m": 2, "terms": []}, "'terms' needs at least two"),
    ({"p": 3, "m": 2, "terms": [{"n": 4, "ell": "64"}]},
     "'terms' needs at least two"),
])
@pytest.mark.parametrize("command", ["build", "rates"])
def test_a_malformed_plan_file_is_an_error(tmp_path, capsys, command, plan,
                                           field):
    f = tmp_path / "plan.json"
    f.write_text(json.dumps(plan))
    code, out, err = run(capsys, command, "--plan-file", str(f))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and field in err, err


# --------------------------------------------------- word-facing commands ---

def test_return_times_json_lines(capsys):
    code, out, _ = run(capsys, "return-times", "--word", "01010101",
                       "--m", "2", "--max-n", "4")
    assert code == 0
    rows = lines(out)
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert all(r["value"] == 2 and r["exact"] for r in rows)


def test_return_times_prime(capsys):
    code, out, _ = run(capsys, "return-times", "--word", "01010101",
                       "--m", "2", "--max-n", "3", "--prime")
    assert code == 0
    rows = lines(out)
    assert all(r["value"] >= r["n"] for r in rows)
    assert all(r["prime"] for r in rows)


def test_return_times_rows_match_brute(capsys):
    word = "0010010001001000100100"
    syms = [int(ch) for ch in word]
    for flag in ([], ["--prime"]):
        code, out, _ = run(capsys, "return-times", "--word", word, "--m", "2",
                           *flag)
        assert code == 0
        rows = lines(out)
        assert [r["n"] for r in rows] == list(range(1, len(word) + 1))
        for r in rows:
            assert r["prime"] is bool(flag)
            assert (r["value"], r["exact"]) == brute_return_time(
                syms, r["n"], bool(flag))


def test_return_times_read_a_build_prefix_over_300_symbols(tmp_path, capsys):
    code, out, _ = run(capsys, "plan", "--phi", "log(n)", "--alpha", "2",
                       "--beta", "2", "--count", "8", "--m", "300")
    assert code == 0
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(lines(out)[1]))
    code, out, _ = run(capsys, "build", "--plan-file", str(plan_file),
                       "--free", "seed:5", "--prefix", "400")
    assert code == 0
    prefix_line = out.splitlines()[1]
    syms = json.loads(prefix_line)["symbols"]
    assert len(syms) == 400 and max(syms) > 9
    word_file = tmp_path / "prefix.json"
    word_file.write_text(prefix_line + "\n")
    for flag in ([], ["--prime"]):
        code, out, _ = run(capsys, "return-times", "--word-file",
                           str(word_file), "--m", "300", *flag)
        assert code == 0
        rows = lines(out)
        assert [r["n"] for r in rows] == list(range(1, 401))
        for r in rows:
            assert (r["value"], r["exact"]) == brute_return_time(
                syms, r["n"], bool(flag))


def test_a_digits_prefix_line_reads_as_its_digits(tmp_path, capsys):
    word_file = tmp_path / "prefix.json"
    word_file.write_text(json.dumps({"n": 8, "digits": "01101001"}))
    code, out, _ = run(capsys, "return-times", "--word-file", str(word_file),
                       "--m", "2")
    want = run(capsys, "return-times", "--word", "01101001", "--m", "2")
    assert code == 0 and (code, out) == want[:2]


@pytest.mark.parametrize("word", ["\u0660\u0661\u0660\u0661", "\uff10\uff11",
                                  "01\u00b2"],
                         ids=["arabic-indic", "fullwidth", "superscript"])
@pytest.mark.parametrize("source", ["word", "word-file", "digits-line"])
def test_a_word_of_non_ascii_digits_is_exit_1(tmp_path, capsys, source, word):
    # int() reads these as digits; a word takes ASCII 0-9 only
    if source == "word":
        argv = ["--word", word]
    else:
        word_file = tmp_path / "word.txt"
        word_file.write_text(word if source == "word-file"
                             else json.dumps({"digits": word}),
                             encoding="utf-8")
        argv = ["--word-file", str(word_file)]
    code, out, err = run(capsys, "return-times", "--m", "2", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1


WORD_LINE_COMMANDS = {
    "return-times": ["return-times", "--m", "2"],
    "rates": ["rates", "--m", "2"],
    "witnesses": ["witnesses", "--m", "2", "--alpha", "1", "--eps", "0"]}


@pytest.mark.parametrize("line", [
    {"digits": 5}, {"digits": ["0", "1"]}, {"symbols": [0, 1, True]},
    {"symbols": [0, 1.0]}, {"symbols": "0110"}, {"n": 4}],
    ids=["digits-int", "digits-list", "symbols-bool", "symbols-float",
         "symbols-string", "no-word"])
@pytest.mark.parametrize("command", sorted(WORD_LINE_COMMANDS))
def test_a_word_line_of_the_wrong_type_is_exit_1(tmp_path, capsys, command,
                                                 line):
    # digits must be a string and symbols a list of JSON integers: one
    # error line, nothing on stdout
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps(line))
    code, out, err = run(capsys, *WORD_LINE_COMMANDS[command],
                         "--word-file", str(word_file))
    assert (code, out) == (1, "")
    assert err == ('error: a --word-file JSON line needs "digits", a string, '
                   'or "symbols", a list of integers\n')


@pytest.mark.parametrize("command", sorted(WORD_LINE_COMMANDS))
def test_a_symbols_word_line_reads_as_its_symbols(tmp_path, capsys, command):
    word_file = tmp_path / "word.json"
    word_file.write_text(json.dumps({"n": 16, "symbols": [0, 1, 1, 0] * 4}))
    argv = WORD_LINE_COMMANDS[command]
    code, out, _ = run(capsys, *argv, "--word-file", str(word_file))
    assert code == 0 and out
    assert (code, out) == run(capsys, *argv, "--word", "0110" * 4)[:2]


def test_rates_from_word(capsys):
    code, out, _ = run(capsys, "rates", "--word", "01" * 64, "--m", "2",
                       "--max-n", "12")
    assert code == 0
    rows = lines(out)
    est = rows[-1]
    assert est["entries"] == 11
    assert est["alpha_hat"] == pytest.approx(0.279, abs=0.01)


def test_rates_from_plan(tmp_path, capsys):
    plan = {"p": 3, "m": 2, "case_tag": "",
            "terms": [{"i": 1, "n": 4, "ell": "64"},
                      {"i": 2, "n": 8, "ell": "512"},
                      {"i": 3, "n": 16, "ell": "4096"},
                      {"i": 4, "n": 32, "ell": "32768"}]}
    f = tmp_path / "p.json"
    f.write_text(json.dumps(plan))
    code, out, _ = run(capsys, "rates", "--plan-file", str(f))
    assert code == 0
    est = lines(out)[-1]
    assert est["alpha_hat"] == pytest.approx(3.0, abs=0.01)
    assert est["beta_hat"] == pytest.approx(3.0, abs=0.01)


def test_witnesses_cli(capsys):
    code, out, _ = run(capsys, "witnesses", "--word", "01" * 50, "--m", "2",
                       "--alpha", "0.5", "--eps", "0", "--max-n", "10")
    assert code == 0
    rows = lines(out)
    assert [r["n"] for r in rows] == [4, 5, 6, 7, 8, 9, 10]
    assert all(r["return_time"] == 2 for r in rows)


@pytest.mark.parametrize("rate", [["--alpha", "nan", "--eps", "0"],
                                  ["--alpha", "inf", "--eps=-inf"]],
                         ids=["nan", "inf-inf"])
def test_witnesses_refuse_a_nan_rate(capsys, rate):
    code, out, err = run(capsys, "witnesses", "--word", "0110100110010110",
                         "--m", "2", *rate)
    assert code == 2 and out == ""
    assert "not a number" in err


def test_witnesses_at_an_infinite_rate(capsys):
    # every exact depth past 1 passes an infinite cutoff; at n = 1 the
    # cutoff is e^0 = 1 at every rate, and R_1 = 3
    code, out, _ = run(capsys, "witnesses", "--word", "0110100110010110",
                       "--m", "2", "--alpha", "inf", "--eps", "0")
    assert code == 0
    assert [r["n"] for r in lines(out)] == [2, 3, 4]


def test_witnesses_at_a_negative_infinite_eps(capsys):
    # attached, -inf is a value; bare, argparse would read it as an option.
    # No depth passes: past 1 the cutoff is 0, at n = 1 it is e^0 = 1
    # (not -inf * log 1 = NaN) and R_1 = 3
    code, out, _ = run(capsys, "witnesses", "--word", "0110100110010110",
                       "--m", "2", "--alpha", "0.5", "--eps=-inf")
    assert code == 0 and lines(out) == []
    code, _, err = run(capsys, "witnesses", "--word", "0110100110010110",
                       "--m", "2", "--alpha", "0.5", "--eps", "-inf")
    assert code == 2 and "--eps" in err


def test_dim_cli(capsys):
    code, out, _ = run(capsys, "dim", "--p", "4", "--depth", "400")
    assert code == 0
    data = lines(out)[0]
    assert data["expected"] == 0.5
    assert abs(data["slope"] - 0.5) < 0.02


@pytest.mark.parametrize("argv,reason", [
    (["--p", "1"], "block length p must be at least 2, got 1"),
    (["--p", "0"], "block length p must be at least 2, got 0"),
    (["--p", "3", "--m", "1"], "alphabet needs at least 2 symbols, got 1"),
    (["--p", "3", "--min-depth", "0"], "need 1 <= min_depth < max_depth"),
])
def test_dim_refuses_an_impossible_family(capsys, monkeypatch, argv, reason):
    # box_dimension refuses the family with the reason; the command
    # refuses it while parsing, before box_dimension is called
    opts = dict(zip(argv[::2], map(int, argv[1::2])))
    with pytest.raises(ValueError, match=re.escape(reason)):
        box_dimension(opts["--p"], opts.get("--m", 2), 5,
                      min_depth=opts.get("--min-depth", 1))
    called = []
    monkeypatch.setattr(cli, "box_dimension",
                        lambda *args, **kwargs: called.append(args))
    code, out, err = run(capsys, "dim", *argv, "--depth", "5")
    assert (code, out, called) == (2, "", [])
    assert f"argument {argv[-2]}: " in err and f"got {argv[-1]!r}" in err


@pytest.mark.parametrize("option, value, rule", [
    ("--p", "three", "at least 2"), ("--m", "two", "at least 2"),
    ("--depth", "1", "at least 2"), ("--depth", "-5", "at least 2"),
    ("--min-depth", "x", "positive")],
    ids=["p-word", "m-word", "depth-1", "depth-negative", "min-depth-word"])
def test_a_dim_parameter_out_of_range_is_a_usage_error(capsys, monkeypatch,
                                                       option, value, rule):
    # rejected while parsing, before any cylinder is counted
    called = []
    monkeypatch.setattr(cli, "box_dimension",
                        lambda *args, **kwargs: called.append(args))
    argv = {"--p": "3", "--depth": "5", option: value}
    code, out, err = run(capsys, "dim",
                         *[t for item in argv.items() for t in item])
    assert code == 2
    assert out == "" and not called
    assert option in err and rule in err and f"got {value!r}" in err


@pytest.mark.parametrize("min_depth", ["5", "9"])
def test_dim_needs_min_depth_below_depth(capsys, min_depth):
    # each option is in range, but not against the other: exit 1
    code, out, err = run(capsys, "dim", "--p", "3", "--min-depth", min_depth,
                         "--depth", "5")
    assert (code, out, err) == (
        1, "", "error: need 1 <= min_depth < max_depth\n")


# ----------------------------------------------------------------- verify ---

def test_verify_pipeline_passes(capsys):
    code, out, err = run(capsys, "verify", "--phi", "log(n)", "--alpha", "2",
                         "--beta", "2", "--count", "12", "--cap", "2000000")
    assert code == 0
    rows = lines(out)
    brackets = [r for r in rows if "bracket" in r]
    assert brackets and all(r["mismatches"] == 0 for r in brackets)
    verdict = rows[-1]
    assert verdict["ok"] is True and verdict["rates_ok"] is True
    assert verdict["alpha_hat"] == pytest.approx(2.03, abs=0.05)
    assert verdict["beta_hat"] == pytest.approx(2.08, abs=0.05)
    assert "PASS" in err


def test_case_iii_with_an_underflowing_lower_rate_is_unsupported(capsys):
    # alpha = 1e-400 is exactly positive, so this is case iii, but it is
    # 0.0 as a float: the generator's guard turns the division by the
    # lower rate into exit 4 instead of a traceback
    code, out, err = run(capsys, "plan", "--phi", "n^0.5",
                         "--alpha", "1e-400", "--beta", "3")
    assert code == 4
    assert out == ""
    assert err.startswith("unsupported:")


@pytest.mark.parametrize("beta,case", [("2", "v"), ("inf", "ii")])
def test_a_power_case_on_an_irrational_gamma_is_unsupported(capsys, beta,
                                                            case):
    # 2^0.5*log(n) has gamma = 2^(1/2): A = alpha*gamma is irrational, and
    # n^A has no exact integer form
    code, out, err = run(capsys, "plan", "--phi", "2^0.5*log(n)",
                         "--alpha", "1", "--beta", beta)
    assert code == 4
    assert out == ""
    assert err.startswith(f"unsupported: case {case} ")
    assert err.count("\n") == 1


def test_verify_refusal_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--phi", "log(n)", "--alpha", "1/3",
                       "--beta", "1/2")
    assert code == 4
    assert lines(out)[0]["refused"] is True


@pytest.mark.parametrize("command", ["plan", "verify"])
def test_plan_and_verify_classify_once(capsys, monkeypatch, command):
    calls = []
    original = plan_engine.classify_profile

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(plan_engine, "classify_profile", counting)
    extra = ["--cap", "2000000"] if command == "verify" else []
    code, _, _ = run(capsys, command, "--phi", "log(n)", "--alpha", "2",
                     "--beta", "2", *extra)
    assert code == 0
    assert len(calls) == 1


def test_build_large_alphabet_plan(tmp_path, capsys):
    # m > 10: event words and the prefix travel as symbol lists
    code, out_plan, _ = run(capsys, "plan", "--phi", "log(n)", "--alpha", "2",
                            "--beta", "2", "--m", "12", "--count", "5")
    assert code == 0
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(lines(out_plan)[1]))
    code, out, err = run(capsys, "build", "--plan-file", str(plan_file),
                         "--prefix", "3000")
    assert code == 0, err
    seq, pref = lines(out)
    assert seq["m"] == 12 and all(isinstance(e["word"], list)
                                  for e in seq["events"])
    assert pref["n"] == 3000 and len(pref["symbols"]) == 3000
    built = _built(lines(out_plan)[1], ZeroFree(), DEFAULT_MATERIALIZATION_CAP)
    assert seq == built.to_json_dict()
    assert pref["symbols"] == list(built.prefix(3000).symbols)


def _built(plan: dict, free, cap: int) -> LazySequence:
    """The point build writes for a plan line: the plan cut to the terms
    that fit under the cap, then apply_insertions."""
    plan = InsertionPlan.from_json_dict(plan)
    plan = truncate_plan(plan, materializable_term_count(plan, cap))
    return apply_insertions(plan, free, cap=cap)


_DIGITS = "10" * 300


@pytest.mark.parametrize("spec", ["zero", "seed:7", "digits:" + _DIGITS],
                         ids=["zero", "seed", "digits"])
@pytest.mark.parametrize("m", [2, 12])
def test_build_writes_the_sequence_apply_insertions_makes(tmp_path, capsys,
                                                          m, spec):
    # the sequence line is to_json_dict of the constructed point, event
    # words as digit strings at m = 2 and as symbol lists at m = 12, with
    # the free stream's descriptor; the prefix line is the point's prefix
    code, out, _ = run(capsys, "plan", "--phi", "log(n)", "--alpha", "3",
                       "--beta", "3", "--m", str(m), "--count", "8")
    assert code == 0
    plan = lines(out)[1]
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    code, out, err = run(capsys, "build", "--plan-file", str(plan_file),
                         "--cap", "2000000", "--free", spec,
                         "--prefix", "600")
    assert code == 0, err
    free = {"zero": ZeroFree, "seed:7": lambda: SeededFree(7, m)}.get(
        spec, lambda: ExplicitFree([int(c) for c in _DIGITS]))()
    seq = _built(plan, free, 2_000_000)
    data = seq.to_json_dict()
    assert data["events"] and {type(e["word"]) for e in data["events"]} \
        == ({str} if m == 2 else {list})
    prefix = seq.prefix(600)
    tail = ({"n": 600, "digits": prefix.to_digits()} if m == 2 else
            {"n": 600, "symbols": list(prefix.symbols)})
    assert out == json.dumps(data) + "\n" + json.dumps(tail) + "\n"


# ---------------------------------------------------------- tail fraction ---

@pytest.mark.parametrize("tail", ["0", "-0.5", "1.5", "nan", "inf", "half"])
def test_rates_rejects_a_tail_outside_the_unit_interval(capsys, tail):
    # rejected while parsing: nothing reaches stdout, the exit is a usage one
    code, out, err = run(capsys, "rates", "--word", "0110", "--m", "2",
                         "--tail", tail)
    assert code == 2
    assert out == ""
    assert "--tail" in err and "(0, 1]" in err


@pytest.mark.parametrize("tail", ["0", "1.0001", "nan", "0.5"])
def test_verify_rejects_a_tail_outside_the_unit_interval(capsys, monkeypatch,
                                                         tail):
    # verify takes no tail at all, inside (0, 1] or not: its rate verdict
    # reads the constant RATE_TAIL, and the option is a usage error before
    # the profile is classified
    called = []
    monkeypatch.setattr(cli, "_plan_from_args",
                        lambda args: called.append(args))
    code, out, err = run(capsys, "verify", "--phi", "log(n)", "--alpha", "3",
                         "--beta", "3", "--tail", tail)
    assert code == 2
    assert out == "" and not called
    assert "unrecognized arguments: --tail" in err


@pytest.mark.parametrize("count", ["0", "1", "-2", "many"])
@pytest.mark.parametrize("command", ["plan", "verify"])
def test_a_count_below_two_is_a_usage_error(capsys, monkeypatch, command,
                                            count):
    # rejected while parsing, before the profile is classified
    called = []
    monkeypatch.setattr(cli, "_plan_from_args",
                        lambda args: called.append(args))
    code, out, err = run(capsys, command, "--phi", "log(n)", "--alpha", "2",
                         "--beta", "2", "--count", count)
    assert code == 2
    assert out == "" and not called
    assert "--count" in err and "at least 2" in err


@pytest.mark.parametrize("option, value, rule", [
    ("--p", "1", "at least 2"), ("--p", "-3", "at least 2"),
    ("--m", "1", "at least 2"), ("--m", "two", "at least 2"),
    ("--digit-cap", "0", "positive"), ("--digit-cap", "-5", "positive")],
    ids=["p-1", "p-negative", "m-1", "m-word", "digit-cap-0",
         "digit-cap-negative"])
@pytest.mark.parametrize("command", ["plan", "verify"])
def test_a_block_length_alphabet_or_digit_cap_out_of_range_is_a_usage_error(
        capsys, monkeypatch, command, option, value, rule):
    # rejected while parsing, before the profile is classified
    called = []
    monkeypatch.setattr(cli, "_plan_from_args",
                        lambda args: called.append(args))
    code, out, err = run(capsys, command, "--phi", "log(n)", "--alpha", "2",
                         "--beta", "2", option, value)
    assert code == 2
    assert out == "" and not called
    assert option in err and rule in err


_RATE_OPTIONS = [("classify", "--alpha"), ("classify", "--beta"),
                 ("classify", "--gamma"), ("classify", "--delta"),
                 ("plan", "--alpha"), ("plan", "--beta"),
                 ("verify", "--alpha"), ("verify", "--beta")]


@pytest.mark.parametrize("value", ["x", "nan", "-1", "1/0"])
@pytest.mark.parametrize("command, option", _RATE_OPTIONS,
                         ids=[f"{c}{o}" for c, o in _RATE_OPTIONS])
def test_a_malformed_rate_is_a_usage_error(capsys, monkeypatch, command,
                                           option, value):
    # rejected while parsing, before anything is classified
    called = []
    monkeypatch.setattr(cli, "_plan_from_args",
                        lambda args: called.append(args))
    monkeypatch.setattr(plan_engine, "classify_thresholds",
                        lambda *args: called.append(args))
    argv = [command, "--alpha", "1", "--beta", "2"]
    argv += (["--gamma", "1", "--delta", "1"] if command == "classify"
             else ["--phi", "log(n)"])
    code, out, err = run(capsys, *argv, option, value)
    assert code == 2
    assert out == "" and not called
    assert option in err and f"got {value!r}" in err


_MAX_N_COMMANDS = {
    "return-times": (),
    "rates": ("--tail", "1"),
    "witnesses": ("--alpha", "0.5", "--eps", "0"),
}


@pytest.mark.parametrize("value", ["0", "-5", "three"])
@pytest.mark.parametrize("command", sorted(_MAX_N_COMMANDS))
def test_a_max_n_below_one_is_a_usage_error(capsys, monkeypatch, command,
                                            value):
    # rejected while parsing, before the word is read
    called = []
    monkeypatch.setattr(cli, "_word_from_args",
                        lambda args: called.append(args))
    code, out, err = run(capsys, command, "--word", "0100101001001",
                         "--m", "2", "--max-n", value,
                         *_MAX_N_COMMANDS[command])
    assert code == 2
    assert out == "" and not called
    assert "--max-n" in err and "positive integer" in err


@pytest.mark.parametrize("value", ["1", "0", "two"])
@pytest.mark.parametrize("command", sorted(_MAX_N_COMMANDS))
def test_an_alphabet_below_two_is_a_usage_error(capsys, monkeypatch, command,
                                                value):
    # --m on the word commands: rejected while parsing, before the word
    # is read
    called = []
    monkeypatch.setattr(cli, "_word_from_args",
                        lambda args: called.append(args))
    code, out, err = run(capsys, command, "--word", "0101", "--m", value,
                         *_MAX_N_COMMANDS[command])
    assert code == 2
    assert out == "" and not called
    assert "--m" in err and "at least 2" in err and f"got {value!r}" in err


@pytest.mark.parametrize("command", sorted(_MAX_N_COMMANDS))
def test_a_max_n_past_the_word_is_still_an_error(capsys, command):
    # whether a depth fits depends on the word: exit 1, not a usage error
    code, out, err = run(capsys, command, "--word", "0100101001001",
                         "--m", "2", "--max-n", "14",
                         *_MAX_N_COMMANDS[command])
    assert code == 1 and out == ""
    assert err == "error: need 1 <= max_n <= 13\n"


def test_a_tail_of_one_still_runs(capsys):
    code, out, _ = run(capsys, "rates", "--word", "01" * 64, "--m", "2",
                       "--max-n", "12", "--tail", "1")
    assert code == 0
    assert lines(out)[-1]["tail"] == 1.0


def test_rates_writes_nothing_when_the_tail_cannot_be_estimated(capsys):
    # a tail of 1e-9 of 11 entries is an empty window: no exact entry to
    # estimate the lower rate from, so the command fails before any entry
    code, out, err = run(capsys, "rates", "--word", "0100101001001",
                         "--m", "2", "--max-n", "13", "--tail", "1e-9")
    assert code == 1
    assert out == ""
    assert err.startswith("error: every tail entry is a lower bound")


def test_rates_of_a_random_word_end_at_its_exact_depth(capsys):
    # at full depth the trailing half of a random word's trajectory holds
    # only lower bounds; by default the window ends at the exact head, so
    # the estimates come from exact entries
    rng = random.Random(30)
    word = "".join(rng.choice("01") for _ in range(4000))
    depth = return_times_all(Word.from_digits(word, 2)).exact_depth
    assert 2 <= depth < 4000 // 2
    code, out, _ = run(capsys, "rates", "--word", word, "--m", "2")
    assert code == 0
    *entries, est = lines(out)
    assert [e["n"] for e in entries] == list(range(2, depth + 1))
    assert est["entries"] == depth - 1 and all(e["exact"] for e in entries)
    window = entries[len(entries) // 2:]
    assert est["alpha_hat"] == min(e["ratio"] for e in window)
    assert est["beta_hat"] == max(e["ratio"] for e in window)
    # an explicit --max-n keeps the full depth, and with it the failure
    code, out, err = run(capsys, "rates", "--word", word, "--m", "2",
                         "--max-n", "4000")
    assert code == 1 and out == ""
    assert err.startswith("error: every tail entry is a lower bound")


# ---------------------------------------------------------------- parser ---

def test_one_parser_serves_every_call(capsys):
    calls = [("return-times", "--word", "0100101001001", "--m", "2", "--prime"),
             ("classify", "--phi", "log(n)", "--alpha", "2", "--beta", "2"),
             ("witnesses", "--word", "01" * 20, "--m", "2",
              "--alpha", "0.5", "--eps", "0")]
    cli._build_parser.cache_clear()
    first = [run(capsys, *argv) for argv in calls]
    assert all(code == 0 and out for code, out, _ in first)
    # a usage error in between leaves the parser as it was
    assert run(capsys, "return-times", "--m", "2", "--max-n", "x")[0] == 2
    assert run(capsys, "classify", "--alpha", "1")[0] == 2
    for _ in range(2):
        assert [run(capsys, *argv) for argv in calls] == first
    assert cli._build_parser.cache_info().misses == 1
