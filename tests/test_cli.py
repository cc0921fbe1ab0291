import json

import pytest

from recurrencelab.cli import main

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
    # a deep unit-ratio request overruns the digit cap
    code, _, err = run(capsys, "plan", "--phi", "log(n)", "--alpha", "2",
                       "--beta", "2", "--count", "40", "--digit-cap", "500")
    assert code == 3


def test_invalid_order_is_exit_1(capsys):
    code, _, err = run(capsys, "classify", "--alpha", "2", "--beta", "1",
                       "--gamma", "1", "--delta", "1")
    assert code == 1


def test_empty_word_is_exit_1(capsys):
    assert run(capsys, "return-times", "--word", "", "--m", "2")[0] == 1


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


def test_dim_cli(capsys):
    code, out, _ = run(capsys, "dim", "--p", "4", "--depth", "400")
    assert code == 0
    data = lines(out)[0]
    assert data["expected"] == 0.5
    assert abs(data["slope"] - 0.5) < 0.02


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


def test_verify_refusal_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--phi", "log(n)", "--alpha", "1/3",
                       "--beta", "1/2")
    assert code == 4
    assert lines(out)[0]["refused"] is True
