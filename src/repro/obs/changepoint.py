"""Step-change detection over the perf trajectory (zero-dep).

``BENCH_history.jsonl`` accumulates one ``{at, env, metrics}`` line
per statistical bench run; the trend view plots it, but a plot cannot
*gate* — someone has to notice the step.  This module runs an
e-divisive-style binary segmentation over each ``(case, metric)``
series: recursively pick the split point maximizing a t-like contrast
statistic

    |mean(left) - mean(right)| / (s * sqrt(1/n_left + 1/n_right))

where ``s`` is a robust scale estimate (median absolute deviation of
the first differences, so a single step does not inflate the
noise estimate the way a global stddev would).  A split is accepted
only when the statistic clears ``z_threshold`` AND the mean shift is
material — above both a relative floor (``min_rel`` of the pooled
mean) and the absolute noise floor — which keeps the detector silent
on IQR-level jitter.

Each accepted step is annotated with the nearest git rev from the
history line's env fingerprint, so ``repro bench trend
--changepoints`` prints "states_per_s stepped -18% at entry 7
(git 9e7ce818)" instead of a bare index.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.bench import median

#: contrast statistic a split must clear to count as a step
Z_THRESHOLD = 4.0
#: minimum relative mean shift (fraction of the pooled mean)
MIN_REL = 0.10
#: minimum points on each side of a candidate split
MIN_SEG = 3


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
                   metric: str = "wall_s", *,
                   z_threshold: float = Z_THRESHOLD,
                   min_rel: float = MIN_REL) -> list[dict]:
    """Run :func:`detect_steps` over every case series of ``metric``
    in a loaded ``BENCH_history.jsonl`` (list of ``{at, env,
    metrics}`` lines).  Steps gain ``name``, ``metric``, ``at`` and
    the ``git_rev`` of the entry where the new regime starts.  The
    per-case noise floor is the median recorded ``iqr`` when the
    history carries repeat stats (timing jitter the detector must not
    flag)."""
    series: dict[str, list[tuple[int, float, dict]]] = {}
    for i, entry in enumerate(history):
        for name, metrics in (entry.get("metrics") or {}).items():
            value = metrics.get(metric)
            if value is None:
                continue
            series.setdefault(name, []).append((i, float(value), entry))
    out: list[dict] = []
    for name in sorted(series):
        points = series[name]
        values = [v for _, v, _ in points]
        iqrs = [float(entry.get("metrics", {}).get(name, {})
                      .get("iqr") or 0.0)
                for _, _, entry in points]
        noise_floor = median([q for q in iqrs if q > 0]) \
            if any(q > 0 for q in iqrs) else 0.0
        for step in detect_steps(values, z_threshold=z_threshold,
                                 min_rel=min_rel,
                                 noise_floor=noise_floor):
            idx, _, entry = points[step["index"]]
            env = entry.get("env") or {}
            out.append({"name": name, "metric": metric,
                        "entry": idx,
                        "at": entry.get("at"),
                        "git_rev": env.get("git_rev"),
                        **step})
    return out


def render_steps(steps: list[dict],
                 metric: Optional[str] = None) -> str:
    """Human-readable step list for ``bench trend --changepoints``."""
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
