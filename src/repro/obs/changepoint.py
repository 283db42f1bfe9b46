"""The perf trajectory: ``BENCH_history.jsonl`` loading, the sparkline
trend view and step-change detection (zero-dep).

``benchmarks/out/BENCH_history.jsonl`` is append-only and holds one
line per measured commit::

    {"at": <unix s>, "env": {"git_rev": ...},
     "metrics": {<workload>: {<metric>: value}}}

with the workload and end-to-end metric names of ``BENCHMARK.json``
(``perfbench/run.py``).  ``repro perf trend`` plots each workload's
series (:func:`render_trend`); a plot cannot *gate*, so
:func:`detect_history` runs an e-divisive-style binary segmentation
over each ``(workload, metric)`` series: recursively pick the split
point maximizing a t-like contrast statistic

    |mean(left) - mean(right)| / (s * sqrt(1/n_left + 1/n_right))

where ``s`` is a robust scale estimate (median absolute deviation of
the first differences, so a single step does not inflate the
noise estimate the way a global stddev would).  A split is accepted
only when the statistic clears ``z_threshold`` AND the mean shift is
material — above both a relative floor (``min_rel`` of the pooled
mean) and the absolute noise floor — which keeps the detector silent
on IQR-level jitter.

Each accepted step is annotated with the nearest git rev from the
history line's env, so ``repro perf trend --changepoints`` prints
"norm_wall_s stepped -18% at entry 7 (git 9e7ce818)" instead of a
bare index.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional, Union

DEFAULT_HISTORY = "benchmarks/out/BENCH_history.jsonl"

#: the metric ``repro perf trend`` and the report's trend view plot
DEFAULT_METRIC = "norm_wall_s"

SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: contrast statistic a split must clear to count as a step
Z_THRESHOLD = 4.0
#: minimum relative mean shift (fraction of the pooled mean)
MIN_REL = 0.10
#: minimum points on each side of a candidate split
MIN_SEG = 3


def median(samples: list[float]) -> float:
    """Exact median (mean-of-middle-two on even N; 0.0 on empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def metric_unit(metric: str) -> str:
    """Display unit of a history metric, from its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB")):
        if metric.endswith(suffix):
            return unit
    return ""


# -- the trajectory ------------------------------------------------------------

def load_history(path: Union[str, pathlib.Path]) -> list[dict]:
    """All trajectory entries, oldest first (empty when absent)."""
    path = pathlib.Path(path)
    if not path.is_file():
        return []
    out = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(entry, dict) and "metrics" in entry:
            out.append(entry)
    return out


def sparkline(values: list[float]) -> str:
    """Unicode sparkline over a value series (min..max scaled)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return SPARK_CHARS[0] * len(values)
    return "".join(
        SPARK_CHARS[min(len(SPARK_CHARS) - 1,
                        int((v - lo) / span * len(SPARK_CHARS)))]
        for v in values)


def trend_series(history: list[dict], metric: str = DEFAULT_METRIC
                 ) -> dict[str, list]:
    """``{workload: [(entry_index, value), ...]}`` over the
    trajectory; entries missing a workload or metric skip it."""
    series: dict[str, list] = {}
    for i, entry in enumerate(history):
        for name, values in (entry.get("metrics") or {}).items():
            if values.get(metric) is not None:
                series.setdefault(name, []).append((i, values[metric]))
    return series


def render_trend(history: list[dict], metric: str = DEFAULT_METRIC,
                 last: Optional[int] = None) -> str:
    """Text trajectory: sparkline + first->latest per workload."""
    if last is not None:
        history = history[-last:]
    if not history:
        return (f"no trajectory yet — append perfbench medians to "
                f"{DEFAULT_HISTORY}")
    series = trend_series(history, metric)
    unit = metric_unit(metric)
    runs = len({i for points in series.values() for i, _ in points})
    width = max((len(n) for n in series), default=6)
    lines = [f"perf trajectory — {metric} ({unit or 'value'}) over "
             f"{runs} run(s)"]
    if runs == 1:
        lines.append("(1 sample — deltas appear from the second "
                     "run onward)")
    for name in sorted(series):
        values = [v for _, v in series[name]]
        first, latest = values[0], values[-1]
        delta = ""
        if first > 0 and len(values) > 1:
            delta = f"  {(latest - first) / first * 100:+.1f}%"
        lines.append(
            f"{name.ljust(width)}  {sparkline(values)}  "
            f"{first:.4g} {unit} -> {latest:.4g} {unit}{delta}")
    return "\n".join(lines)


# -- step detection ------------------------------------------------------------

def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def robust_scale(values: list[float]) -> float:
    """Noise scale of a series that may contain steps: MAD of the
    first differences (a step contributes one outlier difference,
    which the median ignores), rescaled to be sigma-consistent for
    Gaussian noise (differences have variance 2*sigma^2, and
    MAD ~= 0.6745*sigma)."""
    if len(values) < 3:
        return 0.0
    diffs = [values[i + 1] - values[i] for i in range(len(values) - 1)]
    med = median(diffs)
    mad = median([abs(d - med) for d in diffs])
    return mad / (0.6745 * 1.4142135623730951)


def _contrast(values: list[float], split: int, scale: float) -> float:
    left, right = values[:split], values[split:]
    spread = scale * (1 / len(left) + 1 / len(right)) ** 0.5
    return abs(_mean(left) - _mean(right)) / spread if spread else 0.0


def detect_steps(values: list[float], *,
                 z_threshold: float = Z_THRESHOLD,
                 min_rel: float = MIN_REL,
                 noise_floor: float = 0.0,
                 min_seg: int = MIN_SEG) -> list[dict]:
    """Indices where the series steps to a new level, by recursive
    binary segmentation.  Each entry is ``{index, before_mean,
    after_mean, delta, delta_pct}`` — ``index`` is the first point of
    the new regime.  Empty list on short or steady series."""
    steps: list[dict] = []
    scale = robust_scale(values)
    # a perfectly flat (deterministic-counter) series has scale 0:
    # fall back to a sliver of the mean so a genuine step still
    # registers while identical values never do
    if scale <= 0:
        scale = max(abs(_mean(values)) * 1e-6, 1e-12)
    scale = max(scale, 1e-12)

    def segment(lo: int, hi: int) -> None:
        seg = values[lo:hi]
        if len(seg) < 2 * min_seg:
            return
        best_split, best_stat = 0, 0.0
        for split in range(min_seg, len(seg) - min_seg + 1):
            stat = _contrast(seg, split, scale)
            if stat > best_stat:
                best_split, best_stat = split, stat
        if not best_split or best_stat < z_threshold:
            return
        before = _mean(seg[:best_split])
        after = _mean(seg[best_split:])
        delta = after - before
        pooled = abs(_mean(seg)) or 1.0
        if abs(delta) < max(min_rel * pooled, noise_floor):
            return
        steps.append({
            "index": lo + best_split,
            "before_mean": round(before, 6),
            "after_mean": round(after, 6),
            "delta": round(delta, 6),
            "delta_pct": round(delta / before * 100, 1)
            if before else 0.0,
        })
        segment(lo, lo + best_split)
        segment(lo + best_split, hi)

    segment(0, len(values))
    steps.sort(key=lambda s: s["index"])
    return steps


def detect_history(history: list[dict],
                   metric: str = DEFAULT_METRIC, *,
                   z_threshold: float = Z_THRESHOLD,
                   min_rel: float = MIN_REL) -> list[dict]:
    """Run :func:`detect_steps` over every workload series of
    ``metric`` in a loaded ``BENCH_history.jsonl`` (list of ``{at,
    env, metrics}`` lines).  Steps gain ``name``, ``metric``, ``at``
    and the ``git_rev`` of the entry where the new regime starts.  The
    per-series noise floor is the median recorded ``iqr`` when the
    history carries one (timing jitter the detector must not flag)."""
    series = trend_series(history, metric)
    out: list[dict] = []
    for name in sorted(series):
        points = series[name]
        iqrs = [float(history[i]["metrics"][name].get("iqr") or 0.0)
                for i, _ in points]
        for step in detect_steps([float(v) for _, v in points],
                                 z_threshold=z_threshold,
                                 min_rel=min_rel,
                                 noise_floor=median(
                                     [q for q in iqrs if q > 0])):
            idx = points[step["index"]][0]
            entry = history[idx]
            env = entry.get("env") or {}
            out.append({"name": name, "metric": metric,
                        "entry": idx,
                        "at": entry.get("at"),
                        "git_rev": env.get("git_rev"),
                        **step})
    return out


def render_steps(steps: list[dict],
                 metric: Optional[str] = None) -> str:
    """Human-readable step list for ``perf trend --changepoints``."""
    if not steps:
        return "no changepoints detected" \
               + (f" ({metric})" if metric else "")
    lines = []
    for s in steps:
        rev = (s.get("git_rev") or "?")[:12]
        sign = "+" if s["delta"] >= 0 else ""
        lines.append(
            f"[STEP] {s['name']} {s['metric']}: "
            f"{sign}{s['delta_pct']:.1f}% at entry {s['entry']} "
            f"({s['before_mean']:g} -> {s['after_mean']:g}, "
            f"git {rev})")
    return "\n".join(lines)
