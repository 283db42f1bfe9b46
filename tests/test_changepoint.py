"""The perf trajectory: loading ``BENCH_history.jsonl``, the sparkline
trend view with its unit labels, and step detection — an injected
level shift must be flagged at the right entry, while IQR-level
jitter, flat (deterministic-counter) series, and short series stay
silent; the detector's whole value is a zero false-positive rate on
noise."""

from __future__ import annotations

import json

from repro.obs.changepoint import (DEFAULT_METRIC, MIN_SEG,
                                   detect_history, detect_steps,
                                   load_history, median, metric_unit,
                                   render_steps, render_trend,
                                   robust_scale, sparkline,
                                   trend_series)

#: a realistic jittery level around 10ms (diffs have nonzero MAD)
_BASE = [0.0100, 0.0103, 0.0099, 0.0102, 0.0101, 0.0098]
#: same jitter pattern one regime up (~+50%)
_UP = [0.0150, 0.0153, 0.0149, 0.0152, 0.0151, 0.0148]


# -- detect_steps ------------------------------------------------------------------

def test_injected_step_is_flagged_at_the_right_index():
    (step,) = detect_steps(_BASE + _UP)
    assert step["index"] == len(_BASE)      # first point of new regime
    assert step["delta"] > 0
    assert 40 < step["delta_pct"] < 60
    assert step["before_mean"] < step["after_mean"]


def test_downward_step_is_flagged_too():
    (step,) = detect_steps(_UP + _BASE)
    assert step["index"] == len(_UP)
    assert step["delta"] < 0
    assert step["delta_pct"] < -25


def test_noise_only_series_is_silent():
    # jitter at the same amplitude as the series' own IQR
    assert detect_steps(_BASE + _BASE) == []


def test_flat_series_is_silent():
    # deterministic counters repeat exactly: scale falls back to an
    # epsilon, but a zero mean shift must never flag
    assert detect_steps([5.0] * 12) == []


def test_short_series_is_silent():
    # fewer than 2 * MIN_SEG points cannot host a split
    values = _BASE[:MIN_SEG] + _UP[:MIN_SEG - 1]
    assert detect_steps(values) == []


def test_noise_floor_suppresses_sub_floor_steps():
    low = [1.000, 1.001, 0.999, 1.000, 1.001, 0.999]
    high = [1.2 + v - 1.0 for v in low]       # +0.2 absolute shift
    assert detect_steps(low + high) != []
    assert detect_steps(low + high, noise_floor=0.5) == []


def test_two_steps_both_found():
    series = _BASE + _UP + [v * 2 for v in _UP]
    steps = detect_steps(series)
    assert [s["index"] for s in steps] == [len(_BASE),
                                           len(_BASE) + len(_UP)]


def test_robust_scale_ignores_a_single_step():
    # the step contributes one outlier difference; the MAD of diffs
    # must reflect the jitter, not the jump
    scale = robust_scale(_BASE + _UP)
    assert 0 < scale < 0.002


# -- detect_history ----------------------------------------------------------------

def _history(walls, iqr=0.0003, name="gh-noopt"):
    return [{"at": float(i + 1), "env": {"git_rev": f"{i:x}" * 16},
             "metrics": {name: {"norm_wall_s": w,
                                "norm_throughput_per_s": 64 / w,
                                "iqr": iqr}}}
            for i, w in enumerate(walls)]


def test_history_step_annotated_with_git_rev():
    (step,) = detect_history(_history(_BASE + _UP))
    assert step["name"] == "gh-noopt"
    assert step["metric"] == "norm_wall_s"
    assert step["entry"] == len(_BASE)
    assert step["at"] == float(len(_BASE) + 1)
    # the rev of the entry where the new regime starts
    assert step["git_rev"] == f"{len(_BASE):x}" * 16


def test_history_recorded_iqr_is_the_noise_floor():
    # a shift smaller than the recorded repeat IQR must not flag
    walls = _BASE + [v + 0.002 for v in _BASE]
    assert detect_history(_history(walls, iqr=0.004)) == []
    assert detect_history(_history(walls, iqr=0.0001)) != []


def test_history_missing_metric_entries_are_skipped():
    history = _history(_BASE + _UP)
    history.insert(3, {"at": 3.5, "env": {}, "metrics": {}})
    (step,) = detect_history(history)
    assert step["name"] == "gh-noopt"


# -- render_steps ------------------------------------------------------------------

def test_render_steps_names_case_entry_and_rev():
    steps = detect_history(_history(_BASE + _UP))
    text = render_steps(steps, "norm_wall_s")
    assert "[STEP] gh-noopt norm_wall_s:" in text
    assert f"at entry {len(_BASE)}" in text
    assert "git 666666666666" in text


def test_render_steps_empty_is_a_quiet_one_liner():
    assert render_steps([], "wall_s") == \
        "no changepoints detected (wall_s)"


# -- the trajectory: loading, series, trend view -----------------------------------

def test_median_small_n():
    assert median([]) == 0.0
    assert median([3.0]) == 3.0
    assert median([1.0, 3.0]) == 2.0          # mean of middle two
    assert median([1.0, 100.0, 2.0]) == 2.0   # order-insensitive
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_history_round_trip(tmp_path):
    path = tmp_path / "BENCH_history.jsonl"
    assert load_history(path) == []
    lines = [json.dumps(e) for e in _history([3.3, 1.5])]
    path.write_text("\n".join(lines + ["not json",
                                       '{"no": "metrics"}']) + "\n")
    entries = load_history(path)                # garbage filtered
    assert len(entries) == 2
    assert entries[0]["metrics"]["gh-noopt"]["norm_wall_s"] == 3.3


def test_trend_series_and_render():
    history = _history([3.0, 2.25, 1.5])
    series = trend_series(history)              # default metric
    assert [v for _, v in series["gh-noopt"]] == [3.0, 2.25, 1.5]
    text = render_trend(history)
    assert "gh-noopt" in text and "-50.0%" in text
    assert "3 run(s)" in text
    assert render_trend(history, last=2).count("run(s)") == 1
    assert "no trajectory yet" in render_trend([])


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0]) == "▁▁"       # flat series
    line = sparkline([0.0, 0.5, 1.0])
    assert line[0] == "▁" and line[-1] == "█"


def test_trend_single_sample_renders_explicit_note():
    text = render_trend(_history([3.3]))
    assert "1 run(s)" in text
    assert "1 sample" in text
    assert "gh-noopt" in text             # workload still listed
    assert "%" not in text                # no bogus delta from 1 point
    # and the note disappears as soon as a second run exists
    assert "1 sample" not in render_trend(_history([3.3, 1.5]))


def test_trend_units_follow_the_metric_suffix():
    assert metric_unit("norm_throughput_per_s") == "1/s"
    assert metric_unit("norm_wall_s") == "s"
    assert metric_unit("setup_s") == "s"
    assert metric_unit("peak_rss_mb") == "MB"
    history = [{"at": 1.0, "env": {},
                "metrics": {"gh-atomic": {"norm_wall_s": 2.045,
                                          "peak_rss_mb": 44.65,
                                          "norm_throughput_per_s":
                                              1507.8}}}]
    assert "2.045 s -> 2.045 s" in render_trend(history)
    assert "44.65 MB -> 44.65 MB" in render_trend(
        history, metric="peak_rss_mb")
    assert "1508 1/s" in render_trend(
        history, metric="norm_throughput_per_s")
    assert "/s" not in render_trend(history, metric="peak_rss_mb")
    assert DEFAULT_METRIC == "norm_wall_s"
