"""The persistent run ledger: manifest recording, cross-run drift
diffing, crash/violation bundles, replay, and gc (docs/OBSERVABILITY.md
"Run ledger & replay")."""

from __future__ import annotations

import json

import pytest

from repro import corpus
from repro.cli import main
from repro.errors import ReproError
from repro.obs import ledger, rundiff
from repro.obs.export import validate


@pytest.fixture()
def ledger_root(tmp_path, monkeypatch):
    root = tmp_path / "runs"
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(root))
    return root


@pytest.fixture()
def sem_file(tmp_path):
    path = tmp_path / "sem.synl"
    path.write_text(corpus.BROKEN_SEMAPHORE)
    return str(path)


@pytest.fixture()
def aba_file(tmp_path):
    path = tmp_path / "aba.synl"
    path.write_text(corpus.ABA_STACK)
    return str(path)


@pytest.fixture()
def aba_fixed_file(tmp_path):
    path = tmp_path / "aba_fixed.synl"
    path.write_text(corpus.ABA_STACK_FIXED)
    return str(path)


# -- recording ---------------------------------------------------------------------

def test_analyze_records_schema_valid_manifest(ledger_root, aba_file):
    assert main(["analyze", "--lenient", aba_file]) == 0
    manifests = ledger.list_runs(ledger_root)
    assert len(manifests) == 1
    manifest = manifests[0]
    assert validate(manifest, ledger.MANIFEST_SCHEMA) == []
    assert manifest["command"] == "analyze"
    assert manifest["argv"] == ["analyze", "--lenient", aba_file]
    assert manifest["exit_code"] == 0
    assert manifest["outcome"] == "ok"
    assert manifest["wall_s"] >= 0
    # the classification summary is present and block-granular
    analysis = manifest["analysis"]
    assert analysis["procedures"]
    assert analysis["blocks"]
    assert any(cited for cited in analysis["theorems"].values())


def test_json_output_becomes_content_addressed_artifact(
        ledger_root, aba_file, capsys):
    assert main(["analyze", "--lenient", "--json", aba_file]) == 0
    capsys.readouterr()
    manifest = ledger.list_runs(ledger_root)[-1]
    arts = {a["name"]: a for a in manifest["artifacts"]}
    assert "analysis.json" in arts
    entry = arts["analysis.json"]
    run_dir = ledger_root / manifest["run_id"]
    blob = (run_dir / entry["path"]).read_bytes()
    import hashlib
    assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
    assert entry["bytes"] == len(blob)
    # the stored copy is the emitted document
    doc = json.loads(blob)
    assert doc["run_meta"]["run_id"] == manifest["run_id"]


def test_ledger_disabled_records_nothing(
        ledger_root, aba_file, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER", "0")
    assert main(["analyze", "--lenient", aba_file]) == 0
    assert ledger.list_runs(ledger_root) == []


def test_meta_commands_never_grow_the_ledger(ledger_root, aba_file):
    assert main(["analyze", "--lenient", aba_file]) == 0
    main(["runs", "list"])
    main(["runs", "show", "last"])
    main(["runs", "diff", "-1", "-1"])
    assert len(ledger.list_runs(ledger_root)) == 1


# -- drift diffing -----------------------------------------------------------------

def test_identical_analyses_diff_empty(
        ledger_root, aba_file, capsys):
    assert main(["analyze", "--lenient", aba_file]) == 0
    assert main(["analyze", "--lenient", aba_file]) == 0
    code = main(["runs", "diff", "-2", "-1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "no drift" in out


def test_aba_fix_shows_classification_and_lint_drift(
        ledger_root, aba_file, aba_fixed_file, capsys):
    assert main(["analyze", "--lenient", aba_file]) == 0
    assert main(["analyze", "--lenient", aba_fixed_file]) == 0
    capsys.readouterr()
    code = main(["runs", "diff", "--json", "-2", "-1"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["empty"] is False
    # the versioned-CAS fix reclassifies blocks and clears the aba lint
    assert doc["classification"]
    drifted_rules = {e["rule"] for e in doc["lint"]}
    assert "aba.unversioned-cas" in drifted_rules
    gained = {t for e in doc["theorems"] for t in e["gained"]}
    assert "5.4" in gained


def test_wall_time_is_informational_not_drift():
    a = {"run_id": "a", "command": "analyze", "wall_s": 1.0,
         "outcome": "ok", "exit_code": 0,
         "analysis": {"blocks": {"P/P/a1": "A"}}}
    b = dict(a, run_id="b", wall_s=99.0)
    diff = rundiff.diff_manifests(a, b)
    assert diff["empty"] is True
    assert diff["info"]["wall_s"] == {"a": 1.0, "b": 99.0}


def test_mc_verdict_drift_is_execution_drift():
    a = {"run_id": "a", "command": "mc", "outcome": "ok",
         "exit_code": 0, "mc": {"mode": "full", "states": 10,
                                "transitions": 12, "violation": None,
                                "capped": False}}
    b = {"run_id": "b", "command": "mc", "outcome": "violation",
         "exit_code": 1, "mc": {"mode": "full", "states": 7,
                                "transitions": 8,
                                "violation": "assertion failed",
                                "capped": False,
                                "fingerprint": "feedfacefeedface"}}
    diff = rundiff.diff_manifests(a, b)
    assert diff["empty"] is False
    fields = {(e["source"], e["field"]) for e in diff["execution"]}
    assert ("mc", "violation") in fields
    assert ("mc", "fingerprint") in fields
    assert diff["outcome"] == {"a": "ok", "b": "violation"}
    assert diff["exit_code"] == {"a": 0, "b": 1}


# -- crash / violation bundles -----------------------------------------------------

def test_unhandled_exception_writes_crash_bundle(
        ledger_root, aba_file, monkeypatch):
    import repro.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(cli_mod, "analyze_program", boom)
    with pytest.raises(RuntimeError):
        main(["analyze", aba_file])
    manifest = ledger.list_runs(ledger_root)[-1]
    assert manifest["outcome"] == "crash"
    assert manifest["crash"]["reason"] == "crash"
    assert manifest["crash"]["type"] == "RuntimeError"
    bundle = json.loads(
        (ledger_root / manifest["run_id"] / "crash.json").read_text())
    assert bundle["exception"]["type"] == "RuntimeError"
    assert "injected failure" in bundle["exception"]["traceback"]
    # the SYNL source rides along for offline reproduction
    assert aba_file in bundle["sources"]


def test_violation_outcome_captures_bundle_with_seed(
        ledger_root, sem_file, capsys):
    code = main(["run", sem_file, "DownBad()", "DownBad()",
                 "--seed", "3"])
    capsys.readouterr()
    assert code == 1
    manifest = ledger.list_runs(ledger_root)[-1]
    assert manifest["outcome"] == "violation"
    assert manifest["seed"] == 3
    assert manifest["run"]["fingerprint"]
    bundle = json.loads(
        (ledger_root / manifest["run_id"] / "crash.json").read_text())
    assert bundle["reason"] == "violation"
    assert bundle["seed"] == 3


# -- replay ------------------------------------------------------------------------

def test_replay_reproduces_mc_violation(ledger_root, sem_file, capsys):
    assert main(["mc", sem_file, "DownBad()", "DownBad()",
                 "--mode", "full"]) == 1
    capsys.readouterr()
    recorded = ledger.list_runs(ledger_root)[-1]
    assert recorded["mc"]["violation"] == "assertion failed"
    fp = recorded["mc"]["fingerprint"]
    assert fp
    code = main(["replay", "--json", "last"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["reproduced"] is True
    assert doc["fingerprint_match"] is True
    assert doc["drift"]["empty"] is True
    # replay must not add a second run to the ledger
    assert len(ledger.list_runs(ledger_root)) == 1
    assert ledger.list_runs(ledger_root)[-1]["mc"]["fingerprint"] == fp


def test_replay_detects_divergence_on_tampered_fingerprint(
        ledger_root, sem_file, capsys):
    assert main(["mc", sem_file, "DownBad()", "DownBad()",
                 "--mode", "full"]) == 1
    capsys.readouterr()
    manifest = ledger.list_runs(ledger_root)[-1]
    path = ledger_root / manifest["run_id"] / "manifest.json"
    manifest["mc"]["fingerprint"] = "0" * 16
    path.write_text(json.dumps(manifest))
    code = main(["replay", "--json", "last"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["reproduced"] is False
    assert doc["fingerprint_match"] is False


# -- run resolution + gc -----------------------------------------------------------

def test_resolve_run_accepts_prefix_last_and_index(
        ledger_root, aba_file):
    assert main(["analyze", "--lenient", aba_file]) == 0
    assert main(["analyze", "--lenient", aba_file]) == 0
    ids = [m["run_id"] for m in ledger.list_runs(ledger_root)]
    assert ledger.resolve_run(ledger_root, "last") == ids[-1]
    assert ledger.resolve_run(ledger_root, "-2") == ids[0]
    assert ledger.resolve_run(ledger_root, ids[0]) == ids[0]
    with pytest.raises(ReproError):
        ledger.resolve_run(ledger_root, "no-such-run")
    with pytest.raises(ReproError):
        ledger.resolve_run(ledger_root, "-99")


def test_gc_keeps_most_recent(ledger_root, aba_file, capsys):
    for _ in range(4):
        assert main(["analyze", "--lenient", aba_file]) == 0
    before = [m["run_id"] for m in ledger.list_runs(ledger_root)]
    assert main(["runs", "gc", "--keep", "2"]) == 0
    capsys.readouterr()
    after = [m["run_id"] for m in ledger.list_runs(ledger_root)]
    assert after == before[-2:]


# -- export integration -----------------------------------------------------------

def test_run_meta_carries_run_id_inside_recorded_run(ledger_root):
    from repro.obs.export import run_meta

    rec = ledger.start(["analyze", "x.synl"], "analyze")
    try:
        meta = run_meta(seed=9)
        assert meta["run_id"] == rec.run_id
        assert meta["argv"] == ["analyze", "x.synl"]
        assert meta["seed"] == 9
        assert meta["schema_versions"]["manifest"] == \
            ledger.SCHEMA_VERSION
    finally:
        ledger.stop(rec)
    # outside a recorded run the hook degrades gracefully
    meta = run_meta()
    assert meta["run_id"] is None
