"""Bench regression watchdog: gate fresh ``BENCH_*.json`` files
against committed baselines.

The benchmark suite writes machine-readable perf records
(``benchmarks/out/BENCH_analysis.json`` / ``BENCH_mc.json``, schema in
:mod:`repro.obs.export`).  This module compares a fresh set against
the committed baselines under ``benchmarks/baselines/`` with
per-metric relative thresholds:

* ``wall_s`` — regression when more than 25% *slower*;
* ``states_per_s`` — regression when more than 25% lower throughput;
* ``percentiles.p95`` — regression when tail latency grew over 30%
  (only checked when both sides carry percentiles, clear
  :data:`P95_FLOOR_S`, and estimate the tail from a real sample —
  harness records with fewer than :data:`MIN_P95_REPEATS` repeats
  skip the gate, because their p95 is just the sample maximum);
* ``mem_peak_mb`` — regression when the peak RSS grew over 30%
  (only checked when both sides carry the field; growths under
  :data:`MEM_FLOOR_MB` are allocator jitter, not leaks).

Timings under a 5 ms noise floor are never flagged (interpreter-level
micro-benchmarks jitter far more than 25% at that scale); state or
transition *count* changes are reported as notes, not failures — the
searches are deterministic, so a count drift means the checker itself
changed and the baseline wants a refresh.

Records produced by the statistical bench harness (``repro bench
run``) are gated on **median-of-repeats**: the comparison uses
``stats.median`` and only flags a wall-time regression when the delta
also clears the combined interquartile-range noise band of the two
records (floored at :data:`NOISE_FLOOR_S` absolute), so single-sample
jitter cannot fail CI.  When both sides carry a v2 env fingerprint
that differs in platform or CPU count, timing regressions are
downgraded to notes — cross-machine wall comparisons measure the
hardware delta, not the code — while structural findings still gate.
v2 wrapped bench
files (``{v, env, records}``) are accepted interchangeably with the
legacy bare arrays.

When a gate fails, the watchdog auto-writes a ranked
``PERFDIFF_attribution.json`` next to the fresh files — a
differential-profiling diff of the baseline's deterministic work
counters against the fresh run's (:mod:`repro.obs.perfdiff`) — so a
red CI run says *where the work went*, not just that it drifted.
Verdict lines name the baseline each comparison used
(``[vs benchmarks/baselines/BENCH_mc.json]`` or ``[vs
ledger:<run_id>]``).

Every check appends one JSON line to an append-only history file
(``benchmarks/out/REGRESS_history.jsonl`` by default), giving CI a
perf trajectory that survives baseline refreshes.  When the run
ledger is enabled the same line is mirrored into
``<ledger-root>/REGRESS_history.jsonl`` so the trajectory rides along
with the recorded runs, and the report is noted into any active
:mod:`repro.obs.ledger` recorder.

CLI (also ``python -m repro.obs.regress``)::

    python -m repro.obs.regress --check benchmarks/out
    python -m repro.obs.regress --check benchmarks/out --update
    python -m repro.obs.regress --check benchmarks/out --json
    python -m repro.obs.regress --check benchmarks/out \
        --baselines ledger       # baselines = newest ledgered bench

``--baselines ledger`` resolves the baseline records from the most
recent ledger run that recorded each ``BENCH_*`` artifact, instead of
the committed files — handy for "did this change regress perf versus
my last local run" without touching the checkout.

Exit codes: 0 = within thresholds, 1 = regression, 2 = usage error
(missing files, malformed records).
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Optional, Union

from repro.obs import bench
# re-exported: the watchdog's noise floor is the bench comparator's
from repro.obs.bench import NOISE_FLOOR_S
from repro.obs.export import validate_bench_file

#: maximum allowed relative increase (wall_s, p95) / decrease
#: (states_per_s) before a record is flagged
DEFAULT_THRESHOLDS = {
    "wall_s": 0.25,
    "states_per_s": 0.25,
    "p95": 0.30,
    "mem_peak_mb": 0.30,
}

#: tail-latency (p95) estimates from a handful of repeats need even
#: more headroom than medians before a relative threshold means
#: anything — p95 comparisons under this floor are never flagged
P95_FLOOR_S = 2 * NOISE_FLOOR_S

#: peak-RSS growths below this many MB are allocator noise (the
#: interpreter's baseline RSS dwarfs any per-benchmark allocation)
MEM_FLOOR_MB = 1.0

#: the file pair the watchdog knows about
BENCH_FILES = ("BENCH_analysis.json", "BENCH_mc.json")

DEFAULT_HISTORY = "REGRESS_history.jsonl"


@dataclass
class Finding:
    """One comparison outcome for (record, metric)."""

    file: str
    name: str
    metric: str
    severity: str            # 'regression' | 'note'
    message: str
    baseline: Optional[float] = None
    fresh: Optional[float] = None
    #: which baseline the verdict compared against (file path or
    #: ``ledger:<run_id>``) — a multi-file gate failure must say which
    #: BENCH_*.json tripped it
    source: Optional[str] = None

    def to_dict(self) -> dict:
        out: dict = {"file": self.file, "name": self.name,
                     "metric": self.metric, "severity": self.severity,
                     "message": self.message}
        if self.baseline is not None:
            out["baseline"] = self.baseline
        if self.fresh is not None:
            out["fresh"] = self.fresh
        if self.source is not None:
            out["source"] = self.source
        return out

    def render(self) -> str:
        flag = "REGRESSION" if self.severity == "regression" else "note"
        src = f" [vs {self.source}]" if self.source else ""
        return f"[{flag}] {self.file} {self.name}: {self.message}{src}"


def _pct(new: float, old: float) -> float:
    return (new - old) / old * 100.0


def compare_records(fresh: list[dict], baseline: list[dict],
                    thresholds: Optional[dict] = None,
                    file: str = "",
                    source: Optional[str] = None) -> list[Finding]:
    """Compare two record lists (matched by ``name``).  ``source``
    names where the baseline records came from; it is stamped onto
    every finding so verdict lines identify their baseline."""
    limits = dict(DEFAULT_THRESHOLDS, **(thresholds or {}))
    by_name = {r["name"]: r for r in baseline}
    findings: list[Finding] = []
    seen = set()
    for record in fresh:
        name = record["name"]
        seen.add(name)
        base = by_name.get(name)
        if base is None:
            findings.append(Finding(
                file, name, "presence", "note",
                "new record with no committed baseline"))
            continue
        findings.extend(_compare_one(file, name, record, base, limits))
    for name in sorted(set(by_name) - seen):
        findings.append(Finding(
            file, name, "presence", "regression",
            "baseline record missing from the fresh run"))
    if source:
        for finding in findings:
            finding.source = source
    return findings


#: below this many repeats a p95 is just the sample maximum — gating
#: on it flags scheduler jitter, not tail regressions
MIN_P95_REPEATS = 10


def _p95_meaningful(record: dict) -> bool:
    """Harness records stamp ``stats.repeats``; with a small sample
    the p95 degenerates to the max and is pure noise, so the p95 gate
    only applies to records whose percentiles came from a real
    distribution (multi-round histograms, or >= :data:`MIN_P95_REPEATS`
    repeats).  Records without ``stats`` predate the harness and keep
    the historical behavior."""
    stats = record.get("stats")
    if not stats:
        return True
    return int(stats.get("repeats", 0)) >= MIN_P95_REPEATS


def _compare_one(file: str, name: str, fresh: dict, base: dict,
                 limits: dict) -> list[Finding]:
    out: list[Finding] = []

    def slower(metric: str, new: float, old: float, limit: float) -> None:
        out.append(Finding(
            file, name, metric, "regression",
            f"{metric} {old:.6g} -> {new:.6g} "
            f"(+{_pct(new, old):.1f}%, limit +{limit * 100:.0f}%)",
            baseline=old, fresh=new))

    # median-of-repeats gating under the shared noise rule: the delta
    # must clear the relative limit, the combined IQR noise band and
    # the absolute noise floor
    wall = bench.wall_change(base, fresh, limits["wall_s"])
    if wall["verdict"] == "slower":
        slower("wall_s", wall["new_wall_s"], wall["old_wall_s"],
               limits["wall_s"])

    new_rate, old_rate = fresh["states_per_s"], base["states_per_s"]
    # rate gating only matters for real searches, and only when the
    # baseline wall time clears the noise floor
    if old_rate > 0 and base["wall_s"] > NOISE_FLOOR_S \
            and new_rate < old_rate * (1 - limits["states_per_s"]):
        out.append(Finding(
            file, name, "states_per_s", "regression",
            f"states_per_s {old_rate:.6g} -> {new_rate:.6g} "
            f"({_pct(new_rate, old_rate):.1f}%, limit "
            f"-{limits['states_per_s'] * 100:.0f}%)",
            baseline=old_rate, fresh=new_rate))

    fresh_p = fresh.get("percentiles")
    base_p = base.get("percentiles")
    if fresh_p and base_p and _p95_meaningful(fresh) \
            and _p95_meaningful(base):
        # tail estimates from a handful of repeats are the noisiest
        # number in the record — the IQR band applies here too
        new, old = fresh_p["p95"], base_p["p95"]
        if max(new, old) > P95_FLOOR_S and old > 0 \
                and new > old * (1 + limits["p95"]) \
                and new - old > bench._stat(fresh, "iqr") \
                + bench._stat(base, "iqr"):
            slower("p95", new, old, limits["p95"])

    new_mem = fresh.get("mem_peak_mb")
    old_mem = base.get("mem_peak_mb")
    if new_mem is not None and old_mem is not None and old_mem > 0 \
            and new_mem - old_mem > MEM_FLOOR_MB \
            and new_mem > old_mem * (1 + limits["mem_peak_mb"]):
        out.append(Finding(
            file, name, "mem_peak_mb", "regression",
            f"mem_peak_mb {old_mem:.6g} -> {new_mem:.6g} "
            f"(+{_pct(new_mem, old_mem):.1f}%, limit "
            f"+{limits['mem_peak_mb'] * 100:.0f}%)",
            baseline=old_mem, fresh=new_mem))

    for metric in ("states", "transitions"):
        if fresh[metric] != base[metric]:
            out.append(Finding(
                file, name, metric, "note",
                f"{metric} changed {base[metric]} -> {fresh[metric]} "
                f"(deterministic search drift — refresh the baseline "
                f"if intended)",
                baseline=float(base[metric]),
                fresh=float(fresh[metric])))
    return out


def baselines_from_ledger(root: Union[None, str, pathlib.Path] = None,
                          sources: Optional[dict] = None
                          ) -> dict[str, list]:
    """Baseline records from the run ledger: for each ``BENCH_*``
    file, the copy recorded by the most recent ledgered run (schema-
    validated; unreadable artifacts are skipped).  When ``sources`` is
    a dict it is filled with ``{name: "ledger:<run_id>"}`` so verdict
    lines can name the winning run."""
    from repro.obs import ledger
    from repro.obs.export import (BENCH_FILE_SCHEMA, BENCH_RUN_SCHEMA,
                                  bench_records, validate)

    ledger_root = ledger.ledger_root(root)
    out: dict[str, list] = {}
    for manifest in ledger.list_runs(ledger_root):   # oldest first
        for artifact in manifest.get("artifacts", []):
            if artifact.get("name") not in BENCH_FILES \
                    or not artifact.get("path"):
                continue
            path = ledger_root / manifest["run_id"] / artifact["path"]
            try:
                doc = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            schema = BENCH_RUN_SCHEMA if isinstance(doc, dict) \
                else BENCH_FILE_SCHEMA
            if not validate(doc, schema):
                out[artifact["name"]] = bench_records(doc)  # newest wins
                if sources is not None:
                    sources[artifact["name"]] = \
                        f"ledger:{manifest['run_id']}"
    return out


#: env-fingerprint fields whose mismatch makes absolute timings
#: incomparable (a different machine class, not a different moment)
_ENV_TIMING_FIELDS = ("platform", "cpu_count")

#: metrics that measure time — the ones an env mismatch invalidates
_TIMING_METRICS = ("wall_s", "states_per_s", "p95")


def _file_env(path: pathlib.Path) -> Optional[dict]:
    """The v2 env fingerprint of a bench file, or ``None`` for v1
    arrays (which carry no provenance)."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if isinstance(doc, dict):
        env = doc.get("env")
        return env if isinstance(env, dict) else None
    return None


def _env_mismatch(fresh_env: Optional[dict],
                  base_env: Optional[dict]) -> Optional[str]:
    """A human-readable description of why the two sides' timings are
    not comparable, or ``None`` when they are (unknown provenance is
    treated as comparable — v1 files keep the historical behavior)."""
    if not fresh_env or not base_env:
        return None
    diffs = [f"{key} {base_env.get(key)} -> {fresh_env.get(key)}"
             for key in _ENV_TIMING_FIELDS
             if fresh_env.get(key) != base_env.get(key)]
    return "; ".join(diffs) if diffs else None


def _timing_as_note(finding: Finding, mismatch: str) -> Finding:
    """Cross-machine wall comparisons measure the hardware delta, not
    the code: downgrade timing regressions to informational notes and
    leave structural findings (counts, memory, missing records) to
    gate as usual."""
    if finding.severity != "regression" \
            or finding.metric not in _TIMING_METRICS:
        return finding
    return Finding(
        finding.file, finding.name, finding.metric, "note",
        finding.message + f" [env mismatch: {mismatch} — timing "
        f"informational, refresh baselines from this environment]",
        baseline=finding.baseline, fresh=finding.fresh,
        source=finding.source)


def check_dir(out_dir: Union[str, pathlib.Path],
              baseline_dir: Union[str, pathlib.Path],
              thresholds: Optional[dict] = None) -> dict:
    """Compare every known bench file present in ``out_dir`` against
    its committed baseline — or, when ``baseline_dir`` is the literal
    string ``"ledger"``, against the newest bench artifacts in the run
    ledger.  Returns a JSON-ready report; raises ``ValueError`` when a
    present file is malformed or has no baseline."""
    out_dir = pathlib.Path(out_dir)
    from_ledger: Optional[dict] = None
    ledger_sources: dict = {}
    if str(baseline_dir) == "ledger":
        from_ledger = baselines_from_ledger(sources=ledger_sources)
    baseline_dir = pathlib.Path(baseline_dir)
    findings: list[Finding] = []
    compared: list[str] = []
    baseline_sources: dict[str, str] = {}
    env_mismatch: Optional[str] = None
    for filename in BENCH_FILES:
        fresh_path = out_dir / filename
        if not fresh_path.exists():
            continue
        base_env: Optional[dict] = None
        if from_ledger is not None:
            baseline = from_ledger.get(filename)
            if baseline is None:
                raise ValueError(
                    f"{fresh_path} has no ledgered baseline — no "
                    f"recorded run carries a {filename} artifact")
            source = ledger_sources.get(filename, "ledger")
        else:
            baseline_path = baseline_dir / filename
            if not baseline_path.exists():
                raise ValueError(
                    f"{fresh_path} has no baseline {baseline_path} — "
                    f"run with --update to record one")
            baseline = validate_bench_file(baseline_path)
            base_env = _file_env(baseline_path)
            source = str(baseline_path)
        fresh = validate_bench_file(fresh_path)
        mismatch = _env_mismatch(_file_env(fresh_path), base_env)
        file_findings = compare_records(fresh, baseline, thresholds,
                                        file=filename, source=source)
        if mismatch:
            env_mismatch = mismatch
            file_findings = [_timing_as_note(f, mismatch)
                             for f in file_findings]
        findings.extend(file_findings)
        compared.append(filename)
        baseline_sources[filename] = source
    if not compared:
        raise ValueError(f"no {' / '.join(BENCH_FILES)} under {out_dir}")
    regressions = [f for f in findings if f.severity == "regression"]
    report = {
        "compared": compared,
        "baseline_sources": baseline_sources,
        "status": "regression" if regressions else "ok",
        "regressions": len(regressions),
        "notes": len(findings) - len(regressions),
        "findings": [f.to_dict() for f in findings],
    }
    if env_mismatch:
        report["env_mismatch"] = env_mismatch
    return report


def update_baselines(out_dir: Union[str, pathlib.Path],
                     baseline_dir: Union[str, pathlib.Path]
                     ) -> list[pathlib.Path]:
    """Copy (validated) fresh bench files over the baselines."""
    out_dir = pathlib.Path(out_dir)
    baseline_dir = pathlib.Path(baseline_dir)
    baseline_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for filename in BENCH_FILES:
        fresh_path = out_dir / filename
        if not fresh_path.exists():
            continue
        validate_bench_file(fresh_path)
        target = baseline_dir / filename
        target.write_text(fresh_path.read_text())
        written.append(target)
    if not written:
        raise ValueError(f"no bench files under {out_dir} to promote")
    return written


def append_history(path: Union[str, pathlib.Path],
                   report: dict) -> pathlib.Path:
    """Append one summary line (never rewrites earlier entries)."""
    return bench.append_history(path, {
        "at": round(time.time(), 3),
        "status": report["status"],
        "regressions": report["regressions"],
        "notes": report["notes"],
        "compared": report["compared"],
    })


#: filename of the attribution artifact a failed gate auto-emits
ATTRIBUTION_FILE = "PERFDIFF_attribution.json"


def write_attribution(out_dir: Union[str, pathlib.Path],
                      baseline_dir: Union[str, pathlib.Path]
                      ) -> Optional[pathlib.Path]:
    """On a failed gate, answer *where the work went*: diff the
    baseline's deterministic profile counters against the fresh run's
    and write the ranked attribution document
    (:mod:`repro.obs.perfdiff`) next to the fresh bench files.
    Best-effort — records predating the counters block simply yield
    no artifact (``None``)."""
    from repro.obs import ledger, perfdiff

    out_dir = pathlib.Path(out_dir)
    try:
        base_set = bench.resolve_side(str(baseline_dir))
        fresh_set = bench.resolve_side(str(out_dir))
    except ValueError:
        return None
    base = perfdiff.side_from_records(
        f"baseline:{baseline_dir}",
        [r for records in base_set.values() for r in records])
    fresh = perfdiff.side_from_records(
        f"fresh:{out_dir}",
        [r for records in fresh_set.values() for r in records])
    report = perfdiff.attribute(base, fresh)
    if not report["rows"]:
        return None
    path = out_dir / ATTRIBUTION_FILE
    path.write_text(json.dumps(report, indent=2) + "\n")
    ledger.add_artifact(ATTRIBUTION_FILE, report)
    return path


def _mirror_history_to_ledger(report: dict) -> None:
    """Mirror the history line next to the recorded runs and note the
    report into any active run recorder (both best-effort)."""
    from repro.obs import ledger

    ledger.note("regress", {"status": report["status"],
                            "regressions": report["regressions"],
                            "notes": report["notes"],
                            "compared": report["compared"]})
    if not ledger.enabled():
        return
    root = ledger.ledger_root()
    try:
        append_history(root / DEFAULT_HISTORY, report)
    except OSError:
        pass


def main(argv: Optional[list[str]] = None) -> int:
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.regress",
        description="compare fresh BENCH_*.json files against "
                    "committed baselines")
    parser.add_argument("--check", metavar="DIR",
                        default="benchmarks/out",
                        help="directory holding the fresh bench files "
                             "(default: benchmarks/out)")
    parser.add_argument("--baselines", metavar="DIR",
                        default="benchmarks/baselines",
                        help="committed baseline directory (default: "
                             "benchmarks/baselines), or the literal "
                             "'ledger' to compare against the newest "
                             "bench artifacts in the run ledger")
    parser.add_argument("--update", action="store_true",
                        help="promote the fresh files to baselines "
                             "instead of checking")
    parser.add_argument("--history", metavar="FILE",
                        help="append-only JSONL perf history (default: "
                             "<check-dir>/REGRESS_history.jsonl; "
                             "'-' disables)")
    parser.add_argument("--json", action="store_true",
                        help="print the full report as JSON")
    args = parser.parse_args(argv)

    if args.update:
        try:
            written = update_baselines(args.check, args.baselines)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for path in written:
            print(f"baseline updated: {path}")
        return 0

    try:
        report = check_dir(args.check, args.baselines)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    history = args.history
    if history != "-":
        if history is None:
            history = pathlib.Path(args.check) / DEFAULT_HISTORY
        append_history(history, report)
        _mirror_history_to_ledger(report)
    attribution: Optional[pathlib.Path] = None
    if report["status"] == "regression":
        attribution = write_attribution(args.check, args.baselines)
        if attribution is not None:
            report["attribution"] = str(attribution)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for finding in report["findings"]:
            flag = ("REGRESSION" if finding["severity"] == "regression"
                    else "note")
            src = f" [vs {finding['source']}]" \
                if finding.get("source") else ""
            print(f"[{flag}] {finding['file']} {finding['name']}: "
                  f"{finding['message']}{src}")
        print(f"{report['status']}: {report['regressions']} "
              f"regression(s), {report['notes']} note(s) across "
              f"{', '.join(report['compared'])} (baselines: "
              + ", ".join(f"{k} vs {v}" for k, v in sorted(
                  report.get("baseline_sources", {}).items())) + ")")
        if attribution is not None:
            print(f"attribution written: {attribution} "
                  f"(repro perf diff — where the work went)")
    return 1 if report["status"] == "regression" else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
