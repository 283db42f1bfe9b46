"""Differential profiling: side construction from every operand form
(saved perfbench outputs, profile docs, folded files, ledger runs), the
ranked attribution document, the increase-only drift gate, and the
rendered table — plus schema validation, so ``perf diff --json`` output
stays machine-checkable."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import ledger
from repro.obs.export import PERFDIFF_SCHEMA, validate
from repro.obs.perfdiff import (DEFAULT_THRESHOLD, WORK_FLOOR,
                                attribute, diff_specs, group_of,
                                render_attribution, resolve_side,
                                side_from_folded, side_from_perfbench,
                                side_from_profile_doc)


#: per-layer metrics of a ``perfbench/run.py --trace 1`` result line
#: (a subset; the real run prints every ``BENCHMARK.json`` layer)
TRACED = {
    "mc.canonical.state_key.self_s": (0.71, "s"),
    "mc.canonical.state_key.calls": (24_000, "count"),
    "mc.canonical.state_key.us_per_call": (29.6, "us"),
    "interp.Interp.step.self_s": (0.26, "s"),
    "interp.Interp.step.calls": (81_000, "count"),
    "mc.atomic.run_to_commit.steps_per_call": (27, "count"),
    "mc.explorer.states": (3_084, "count"),
    "mc.explorer.new_state_frac": (0.76, "ratio"),
    "analysis.purity.self_s": (0.0, "s"),
}

#: end-to-end metrics of an untraced (``--trace 0``) result line
UNTRACED = {
    "setup_s": (0.17, "s"),
    "norm_wall_s": (1.63, "s"),
    "norm_throughput_per_s": (1895.4, "1/s"),
    "peak_rss_mb": (38.9, "MB"),
}


def _perfbench_output(tmp_path, name, metrics):
    """A saved perfbench output: readable lines, then the JSON line."""
    lines = ["workload gh-atomic, seed 1, trace 1"]
    lines += [f"{n} = {v:.6g} {u}" for n, (v, u) in metrics.items()]
    lines.append(json.dumps({
        "correct": True, "attempted": 3, "failed": 0,
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()}}))
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _side(label, counters, wall=None):
    return {"label": label,
            "counters": {name: {"calls": c, "work": w}
                         for name, (c, w) in counters.items()},
            "wall": dict(wall or {}), "folded": {}}


# -- grouping ----------------------------------------------------------------------

def test_group_of_prefixes():
    assert group_of("mc.successors") == "explorer"
    assert group_of("interp.Interp.step") == "interpreter"
    assert group_of("theorem.5.3") == "theorem"
    assert group_of("lint.checker.aba_discipline") == "lint-rule"
    assert group_of("analysis.classify") == "analysis-pass"
    assert group_of("summary.lookup") == "summary-cache"
    assert group_of("parse.tokens") == "other"


# -- attribution ranking and the drift gate ----------------------------------------

def test_rows_ranked_by_absolute_delta():
    a = _side("a", {"mc.successors": (0, 1000),
                    "mc.dedup": (0, 500),
                    "theorem.5.3": (0, 100)})
    b = _side("b", {"mc.successors": (0, 1400),   # +400
                    "mc.dedup": (0, 1200),        # +700
                    "theorem.5.3": (0, 90)})      # -10
    report = attribute(a, b)
    assert [r["name"] for r in report["rows"]] == \
        ["mc.dedup", "mc.successors", "theorem.5.3"]


def test_growth_past_threshold_gates():
    a = _side("a", {"mc.successors": (0, 1000)})
    b = _side("b", {"mc.successors": (0, 1400)})
    report = attribute(a, b)                      # +40% > 25%
    assert report["drift"] is True
    assert report["drifted"] == ["mc.successors"]


def test_shrinking_work_never_gates():
    # a speedup is not a regression, mirroring the watchdog
    a = _side("a", {"mc.successors": (0, 1400)})
    b = _side("b", {"mc.successors": (0, 100)})
    report = attribute(a, b)
    assert report["drift"] is False


def test_work_floor_suppresses_tiny_absolute_deltas():
    # +100% relative, but only +8 units: below WORK_FLOOR
    a = _side("a", {"theorem.5.5": (0, 8)})
    b = _side("b", {"theorem.5.5": (0, 16)})
    assert attribute(a, b)["drift"] is False
    big = _side("b", {"theorem.5.5": (0, 8 + WORK_FLOOR + 1)})
    assert attribute(a, big)["drift"] is True


def test_identical_sides_have_zero_drift():
    a = _side("a", {"mc.successors": (10, 1000), "mc.dedup": (5, 40)})
    report = attribute(a, dict(a, label="b"))
    assert report["drift"] is False
    assert all(r["delta"] == 0 for r in report["rows"])


def test_new_region_counts_as_full_growth():
    a = _side("a", {})
    b = _side("b", {"mc.por_ample": (0, 500)})
    (row,) = attribute(a, b)["rows"]
    assert row["units_a"] == 0 and row["drift"] is True


def test_groups_aggregate_units():
    a = _side("a", {"mc.successors": (0, 1000), "mc.dedup": (0, 500),
                    "theorem.5.3": (0, 100)})
    b = _side("b", {"mc.successors": (0, 1200), "mc.dedup": (0, 700),
                    "theorem.5.3": (0, 100)})
    groups = attribute(a, b)["groups"]
    assert groups["explorer"]["delta"] == 400
    assert groups["theorem"]["delta"] == 0


def test_attribution_document_validates():
    a = _side("a", {"mc.successors": (3, 1000)}, {"mc.successors": 0.1})
    b = _side("b", {"mc.successors": (3, 1400)}, {"mc.successors": 0.2})
    report = attribute(a, b)
    assert validate(report, PERFDIFF_SCHEMA) == []


# -- side builders -----------------------------------------------------------------

def test_side_from_profile_doc():
    doc = {"v": 1, "hotspots": [
        {"name": "mc.successors", "calls": 3, "work": 90,
         "wall_s": 0.01, "share": 0.9}],
        "folded": {"mc.run;mc.successors": 0.01}}
    side = side_from_profile_doc("x", doc)
    assert side["counters"]["mc.successors"] == {"calls": 3, "work": 90}
    assert side["wall"]["mc.successors"] == 0.01
    assert side["folded"] == {"mc.run;mc.successors": 0.01}


def test_side_from_perfbench_counts_and_self_times():
    doc = {"correct": True, "attempted": 3, "failed": 0,
           "metrics": {n: {"value": v, "unit": u}
                       for n, (v, u) in TRACED.items()}}
    side = side_from_perfbench("x", doc)
    # every count metric is a counter; `.calls` names its layer
    assert side["counters"] == {
        "mc.canonical.state_key": {"calls": 24_000, "work": 0},
        "interp.Interp.step": {"calls": 81_000, "work": 0},
        "mc.atomic.run_to_commit.steps_per_call": {"calls": 27,
                                                   "work": 0},
        "mc.explorer.states": {"calls": 3_084, "work": 0}}
    # every `<layer>.self_s` is that layer's wall column
    assert side["wall"] == {"mc.canonical.state_key": 0.71,
                            "interp.Interp.step": 0.26,
                            "analysis.purity": 0.0}


def test_side_from_folded_usecs_to_seconds():
    side = side_from_folded("x", {"mc.run;mc.successors": 2_000_000})
    assert side["folded"]["mc.run;mc.successors"] == 2.0
    # leaf frame gets the wall attribution
    assert side["wall"]["mc.successors"] == 2.0


# -- operand resolution ------------------------------------------------------------

def test_resolve_side_collapsed_stack_file(tmp_path):
    path = tmp_path / "profile.folded"
    path.write_text("mc.run;mc.successors 1500000\n")
    side = resolve_side(str(path))
    assert side["folded"]["mc.run;mc.successors"] == 1.5


def test_resolve_side_unknown_operand_raises(tmp_path):
    with pytest.raises(ValueError):
        resolve_side(str(tmp_path / "nope"), root=tmp_path / "runs")
    # a directory of retired BENCH_*.json files is no operand any more
    with pytest.raises(ValueError, match="is a directory"):
        resolve_side(str(tmp_path), root=tmp_path / "runs")


def test_resolve_side_ledger_run(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "runs"))
    rec = ledger.start(["analyze", "x.synl"], "analyze")
    try:
        rec.add_artifact("profile.json", {
            "v": 1, "hotspots": [
                {"name": "analysis.classify", "calls": 1, "work": 7,
                 "wall_s": 0.001, "share": 1.0}]})
        rec.finish(0, "ok")
    finally:
        ledger.stop(rec)       # later tests must start their own runs
    side = resolve_side("last", root=tmp_path / "runs")
    assert side["counters"]["analysis.classify"]["work"] == 7
    assert side["label"].startswith("ledger:")


# -- rendering ---------------------------------------------------------------------

def test_render_names_drifted_regions():
    a = _side("a", {"mc.successors": (0, 1000), "mc.dedup": (0, 400)})
    b = _side("b", {"mc.successors": (0, 1400), "mc.dedup": (0, 390)})
    text = render_attribution(attribute(a, b))
    assert "DRIFT: 1 region(s) grew past +25%: mc.successors" in text
    assert "+40.0%" in text and "-2.5%" in text


def test_render_clean_diff_says_so():
    a = _side("a", {"mc.successors": (0, 1000)})
    text = render_attribution(attribute(a, dict(a, label="b")))
    assert "no attributed drift" in text


def test_diff_specs_end_to_end(tmp_path):
    a = _perfbench_output(tmp_path, "a.txt", TRACED)
    grown = dict(TRACED, **{"interp.Interp.step.calls": (130_000,
                                                         "count")})
    b = _perfbench_output(tmp_path, "b.txt", grown)
    report = diff_specs(a, b, threshold=DEFAULT_THRESHOLD)
    assert report["drift"] is True
    assert report["drifted"] == ["interp.Interp.step"]
    assert validate(report, PERFDIFF_SCHEMA) == []


# -- perf diff over saved perfbench outputs ----------------------------------------

def test_identical_traced_outputs_diff_empty_at_threshold_0(
        tmp_path, capsys):
    a = _perfbench_output(tmp_path, "a.txt", TRACED)
    b = _perfbench_output(tmp_path, "b.txt", TRACED)
    assert main(["perf", "diff", a, b, "--threshold", "0"]) == 0
    out = capsys.readouterr().out
    assert "no attributed drift" in out
    assert "mc.canonical.state_key" in out
    assert "interp.Interp.step" in out


def test_state_key_calls_growth_exits_1_naming_the_layer(
        tmp_path, capsys):
    a = _perfbench_output(tmp_path, "a.txt", TRACED)
    grown = dict(TRACED, **{"mc.canonical.state_key.calls": (36_000,
                                                             "count")})
    b = _perfbench_output(tmp_path, "b.txt", grown)     # +50%
    assert main(["perf", "diff", a, b]) == 1
    out = capsys.readouterr().out
    assert "DRIFT: 1 region(s) grew past +25%: " \
        "mc.canonical.state_key" in out
    assert "+50.0%" in out


def test_untraced_output_exits_2_asking_for_trace_1(tmp_path, capsys):
    a = _perfbench_output(tmp_path, "a.txt", TRACED)
    b = _perfbench_output(tmp_path, "b.txt", UNTRACED)
    assert main(["perf", "diff", a, b]) == 2
    err = capsys.readouterr().err
    assert "no count metrics" in err and "--trace 1" in err
