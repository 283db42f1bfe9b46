"""CLI exit-code contract, cross-checked against the run ledger: the
exit code the process reports and the one the manifest records must
always agree (the determinism canary in CI diffs manifests, so a
mismatch here would poison every downstream comparison)."""

from __future__ import annotations

import pytest

from repro import corpus
from repro.cli import EXIT_CAPPED, EXIT_DEADLINE, main
from repro.obs import ledger


@pytest.fixture()
def ledger_root(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(root))
    return root


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


def _last(ledger_root):
    return ledger.list_runs(ledger_root)[-1]


def _assert_recorded(ledger_root, code, outcome):
    manifest = _last(ledger_root)
    assert manifest["exit_code"] == code
    assert manifest["outcome"] == outcome
    return manifest


# -- analyze: 0 atomic / 1 not shown atomic / 2 usage ------------------------------

def test_analyze_atomic_exits_0(ledger_root, tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, "q.synl",
                                   corpus.NFQ_PRIME)])
    assert code == 0
    _assert_recorded(ledger_root, 0, "ok")


def test_analyze_not_atomic_exits_1(ledger_root, tmp_path, capsys):
    code = main(["analyze", _write(tmp_path, "aba.synl",
                                   corpus.ABA_STACK)])
    assert code == 1
    _assert_recorded(ledger_root, 1, "not-atomic")


def test_analyze_missing_file_exits_2(ledger_root, capsys):
    code = main(["analyze", "/no/such/file.synl"])
    assert code == 2
    _assert_recorded(ledger_root, 2, "error")


# -- mc: 0 clean / 1 violation / 3 capped ------------------------------------------

def test_mc_clean_exits_0(ledger_root, tmp_path, capsys):
    code = main(["mc", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 "Down()", "Up()", "--mode", "full"])
    assert code == 0
    manifest = _assert_recorded(ledger_root, 0, "ok")
    assert manifest["mc"]["violation"] is None


def test_mc_violation_exits_1(ledger_root, tmp_path, capsys):
    code = main(["mc", _write(tmp_path, "sem.synl",
                              corpus.BROKEN_SEMAPHORE),
                 "DownBad()", "DownBad()", "--mode", "full"])
    assert code == 1
    manifest = _assert_recorded(ledger_root, 1, "violation")
    assert manifest["mc"]["fingerprint"]


def test_mc_capped_exits_3(ledger_root, tmp_path, capsys):
    code = main(["mc", _write(tmp_path, "sem.synl",
                              corpus.BROKEN_SEMAPHORE),
                 "DownBad()", "DownBad()", "--mode", "full",
                 "--max-states", "2"])
    assert code == EXIT_CAPPED
    manifest = _assert_recorded(ledger_root, EXIT_CAPPED, "capped")
    assert manifest["mc"]["capped"] is True


def test_mc_deadline_exits_4(ledger_root, tmp_path, capsys):
    # a §6.3-style Gao-Hesselink search is far too big to finish in
    # ~0 seconds, so the soft deadline fires; the stop is graceful —
    # the manifest still carries the partial MC summary
    code = main(["mc", _write(tmp_path, "gh.synl", corpus.GH_PROGRAM1),
                 "Apply(1)", "Apply(2)", "Apply(3)", "--mode", "full",
                 "--deadline", "0"])
    assert code == EXIT_DEADLINE
    assert "UNKNOWN" in capsys.readouterr().out
    manifest = _assert_recorded(ledger_root, EXIT_DEADLINE, "deadline")
    assert manifest["mc"]["deadline_hit"] is True
    assert manifest["mc"]["violation"] is None
    assert manifest["mc"]["states"] >= 1


def test_mc_deadline_violation_still_wins(ledger_root, tmp_path,
                                          capsys):
    # a found violation outranks the deadline verdict
    code = main(["mc", _write(tmp_path, "sem.synl",
                              corpus.BROKEN_SEMAPHORE),
                 "DownBad()", "DownBad()", "--mode", "full",
                 "--deadline", "3600"])
    assert code == 1
    _assert_recorded(ledger_root, 1, "violation")


# -- run: 0 clean / 1 violation ----------------------------------------------------

def test_run_clean_exits_0(ledger_root, tmp_path, capsys):
    code = main(["run", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 "Down()", "Up()"])
    assert code == 0
    manifest = _assert_recorded(ledger_root, 0, "ok")
    assert manifest["seed"] == 0


def test_run_violation_exits_1(ledger_root, tmp_path, capsys):
    code = main(["run", _write(tmp_path, "sem.synl",
                               corpus.BROKEN_SEMAPHORE),
                 "DownBad()", "DownBad()", "--seed", "3"])
    assert code == 1
    manifest = _assert_recorded(ledger_root, 1, "violation")
    assert manifest["seed"] == 3


# -- lint: 0 clean / 2 errors ------------------------------------------------------

def test_lint_clean_exits_0(ledger_root, tmp_path, capsys):
    code = main(["lint", _write(tmp_path, "q.synl",
                                corpus.NFQ_PRIME)])
    assert code == 0
    _assert_recorded(ledger_root, 0, "ok")


def test_lint_errors_exit_2(ledger_root, tmp_path, capsys):
    code = main(["lint", _write(tmp_path, "aba.synl",
                                corpus.ABA_STACK)])
    assert code == 2
    manifest = _assert_recorded(ledger_root, 2, "findings")
    assert manifest["lint"]["errors"] > 0


# -- report / experiments usage errors ---------------------------------------------

def test_report_without_inputs_exits_2(ledger_root, tmp_path,
                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)   # no benchmarks/out fallback here
    code = main(["report"])
    assert code == 2
    _assert_recorded(ledger_root, 2, "error")


def test_report_self_check_exits_0(ledger_root, capsys):
    code = main(["report", "--self-check"])
    assert code == 0
    _assert_recorded(ledger_root, 0, "ok")


def test_experiments_unknown_name_exits_2(ledger_root, capsys):
    code = main(["experiments", "no-such-experiment"])
    assert code == 2
    _assert_recorded(ledger_root, 2, "error")


# -- machine-clean stdout: progress stays on stderr --------------------------------

def test_mc_json_stdout_stays_parseable_with_progress(
        ledger_root, tmp_path, capsys):
    import json

    code = main(["mc", _write(tmp_path, "sem.synl", corpus.SEMAPHORE),
                 "Down()", "Up()", "--mode", "full", "--json",
                 "--progress", "9999"])
    assert code == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)       # stdout is ONE JSON document
    assert doc["states"] > 0
    assert "heatmap" in doc


# -- perf diff: 0 identical / 1 attributed drift / 2 bad operand -------------------

def _perfbench_side(tmp_path, name, calls):
    import json

    metrics = {"mc.canonical.state_key.calls":
               {"value": calls, "unit": "count"},
               "mc.canonical.state_key.self_s":
               {"value": 0.1, "unit": "s"}}
    path = tmp_path / f"{name}.txt"
    path.write_text("workload gh-atomic, seed 1, trace 1\n" + json.dumps(
        {"correct": True, "attempted": 2, "failed": 0,
         "metrics": metrics}) + "\n")
    return str(path)


def test_perf_diff_identical_exits_0(ledger_root, tmp_path, capsys):
    a = _perfbench_side(tmp_path, "a", 1000)
    b = _perfbench_side(tmp_path, "b", 1000)
    assert main(["perf", "diff", a, b]) == 0
    assert "no attributed drift" in capsys.readouterr().out


def test_perf_diff_drift_exits_1(ledger_root, tmp_path, capsys):
    a = _perfbench_side(tmp_path, "a", 1000)
    b = _perfbench_side(tmp_path, "b", 1600)
    assert main(["perf", "diff", a, b]) == 1
    assert "DRIFT" in capsys.readouterr().out


def test_perf_diff_bad_operand_exits_2(ledger_root, tmp_path, capsys):
    a = _perfbench_side(tmp_path, "a", 1000)
    code = main(["perf", "diff", a, str(tmp_path / "missing")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_perf_diff_out_written_even_on_drift(ledger_root, tmp_path,
                                             capsys):
    import json

    a = _perfbench_side(tmp_path, "a", 1000)
    b = _perfbench_side(tmp_path, "b", 1600)
    out = tmp_path / "deep" / "attribution.json"
    assert main(["perf", "diff", a, b, "--json",
                 "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["drifted"] == ["mc.canonical.state_key"]
    # stdout stays machine-parseable JSON too
    assert json.loads(capsys.readouterr().out)["drift"] is True


def test_perf_diff_is_not_ledgered(ledger_root, tmp_path, capsys):
    # query commands (runs/graph/perf) must not pollute the ledger
    a = _perfbench_side(tmp_path, "a", 1000)
    assert main(["perf", "diff", a, a]) == 0
    assert ledger.list_runs(ledger_root) == []


def test_perf_trend_changepoints_stays_informational(
        ledger_root, tmp_path, capsys):
    import json

    walls = [3.270, 3.303, 3.259, 3.292, 4.850, 4.903, 4.839, 4.882]
    history = tmp_path / "BENCH_history.jsonl"
    history.write_text("\n".join(json.dumps(
        {"at": float(i + 1), "env": {"git_rev": "abc"},
         "metrics": {"gh-noopt": {"norm_wall_s": w}}})
        for i, w in enumerate(walls)) + "\n")
    # a detected step is reported but never gates: exit stays 0
    code = main(["perf", "trend", "--history", str(history),
                 "--changepoints"])
    assert code == 0
    assert "[STEP] gh-noopt norm_wall_s:" in capsys.readouterr().out
    assert ledger.list_runs(ledger_root) == []      # a query command


def test_retired_bench_command_is_a_usage_error(ledger_root, capsys):
    # perfbench/ is the one benchmark: the bench command is retired
    with pytest.raises(SystemExit) as exc:
        main(["bench", "run"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err
