#!/usr/bin/env python3
"""The repository's benchmark: one workload per run, in a fresh process.

    python3 perfbench/run.py --workload gh-noopt --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Workloads (``workloads.py``):

* ``gh-noopt``       — §6.3 set-up, Gao–Hesselink Program 1, 3 threads x
  one ``Apply`` each, full interleaving, capped at 10,000 states;
* ``gh-atomic``      — same program, 3 threads x 3 ``Apply`` calls,
  atomic (run-to-commit) transitions, uncapped;
* ``corpus-analyze`` — ``analyze_program`` over the 15 corpus programs
  with hand-written verdicts.

The seed picks the thread->group permutation (seed % 6) and the corpus
order.  Every output is checked against a known answer
(``known_answers.json``).  With ``--trace 0`` the run prints the
end-to-end metrics, its times scaled by a reference job timed between
batches (``reference.py``); with ``--trace 1`` it alternates untraced
and traced batches and prints the per-layer metrics (``layers.py``).
The last line of standard output is one JSON object.

The program is used from source (``src/`` next to this directory); the
run exits 2 without a result when that tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
from layers import LayerTracer
from workloads import (GH_WORKLOADS, NAMES, CorpusRun, GHRun, load_answers,
                       perm_name)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_SECONDS = 36
#: set-ups timed per run; ``setup_s`` is their median
SETUPS = 25
#: set-ups on either side whose reference jobs scale a set-up
SETUP_WINDOW = 2
#: reference jobs that scale a segment of batches, at least
SEGMENT_JOBS = 10

WORKLOAD_WHY = {
    "gh-noopt": "§6.3 no-opt headline run: state_key canonicalisation, "
                "World.copy and the seen set do almost all the work "
                "(10k-state cap, counts pinned per permutation)",
    "gh-atomic": "atomic run-to-commit: whole procedures per transition, "
                 "state_key on a world being mutated, copy and seen set "
                 "nearly idle (3,083 or 3,084 states by permutation)",
    "corpus-analyze": "analyze_program over 15 programs with hand-written "
                      "verdicts: parse, CFG, purity, variants, lint and "
                      "§5.4 inference do all the work, no MC layer runs",
}

#: (name, unit, better, bound) — printed by every ``--trace 0`` run
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("norm_wall_s", "s", "lower", 0.25),
    ("norm_throughput_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

#: (name, unit, better) — printed by every ``--trace 1`` run; per-batch
#: averages (one exploration, or one corpus pass)
PER_LAYER = [
    ("mc.canonical.state_key.self_s", "s", "lower"),
    ("mc.canonical.state_key.calls", "count", "lower"),
    ("mc.canonical.state_key.us_per_call", "us", "lower"),
    ("mc.canonical.quiescent_keys.self_s", "s", "lower"),
    ("interp.World.copy.self_s", "s", "lower"),
    ("interp.World.copy.calls", "count", "lower"),
    ("interp.Interp.step.self_s", "s", "lower"),
    ("interp.Interp.step.calls", "count", "lower"),
    ("interp.Interp.enabled_threads.self_s", "s", "lower"),
    ("mc.atomic.run_to_commit.self_s", "s", "lower"),
    ("mc.atomic.run_to_commit.calls", "count", "lower"),
    ("mc.atomic.run_to_commit.steps_per_call", "count", "lower"),
    ("mc.atomic.run_to_commit.disabled_frac", "ratio", "lower"),
    ("mc.explorer.dfs_self_s", "s", "lower"),
    ("mc.explorer.states", "count", "lower"),
    ("mc.explorer.transitions", "count", "lower"),
    ("mc.explorer.new_state_frac", "ratio", "higher"),
    ("mc.explorer.bytes_per_state", "B", "lower"),
    ("synl.load_program.self_s", "s", "lower"),
    ("cfg.build_cfg.self_s", "s", "lower"),
    ("analysis.lint.self_s", "s", "lower"),
    ("analysis.purity.self_s", "s", "lower"),
    ("analysis.escape_uniqueness.self_s", "s", "lower"),
    ("analysis.variants.self_s", "s", "lower"),
    ("analysis.windows_locks.self_s", "s", "lower"),
    ("analysis.inference.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def manifest() -> dict:
    """The ``BENCHMARK.json`` document (``--write-manifest``)."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_once(sampler: reference.Sampler) -> float:
    """Import the package from scratch and build the GH interpreter;
    the seconds it took, less those ``sampler`` spent meanwhile."""
    for name in [m for m in sys.modules
                 if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    # free the previous import now, so it does not inflate peak_rss_mb
    gc.collect()
    spent0 = sampler.spent
    t0 = time.perf_counter()
    import repro.analysis  # noqa: F401
    import repro.corpus
    import repro.interp
    import repro.mc  # noqa: F401

    repro.interp.Interp(repro.corpus.GH_PROGRAM1)
    return time.perf_counter() - t0 - (sampler.spent - spent0)


def timed_setups() -> tuple[float, float]:
    """Median set-up time of ``SETUPS`` set-ups, raw and scaled.  Each
    set-up is scaled by the typical reference job over it and its
    ``SETUP_WINDOW`` neighbours on either side: the host's speed moves
    within seconds."""
    with reference.Sampler() as sampler:
        walls = []
        starts = []
        for _ in range(SETUPS):
            starts.append(len(sampler.jobs))
            walls.append(setup_once(sampler))
        starts.append(len(sampler.jobs))
    if sampler.wrong or not sampler.jobs:
        raise RuntimeError("reference jobs failed during set-up")
    scaled = []
    for i, wall in enumerate(walls):
        jobs = sampler.jobs[starts[max(0, i - SETUP_WINDOW)]:
                            starts[min(SETUPS, i + SETUP_WINDOW + 1)]]
        scaled.append(wall * reference.REF_SECONDS
                      / reference.typical(jobs or sampler.jobs))
    return statistics.median(walls), statistics.median(scaled)


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class Measured:
    """Batch times and outputs of one run, keyed by "was it traced"."""

    walls: dict[bool, list[float]]
    outputs: dict[bool, list]
    tracer: LayerTracer
    #: peak RSS of the process through set-up and its first batch —
    #: later batches only add allocator fragmentation
    first_peak_mb: float
    #: untraced runs only: the reference jobs' times, and each batch's
    #: wall in scaled seconds
    refs: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)


def measure(batch, seconds: float, trace: bool) -> Measured:
    """Time ``batch()`` until the run's seconds are used.  Untraced, see
    :func:`measure_scaled`.  Traced, the batches alternate untraced and
    traced, at least one of each, and a batch starts only while the
    median batch so far still fits."""
    if not trace:
        return measure_scaled(batch, seconds)
    tracer = LayerTracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    outputs: dict[bool, list] = {False: [], True: []}
    first_peak_mb = None
    start = time.perf_counter()
    while True:
        traced = len(walls[True]) < len(walls[False])
        gc.collect()
        with tracer if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            out = batch()
            wall = time.perf_counter() - t0
        if first_peak_mb is None:
            first_peak_mb = peak_rss_mb()
        walls[traced].append(wall)
        outputs[traced].append(out)
        if not walls[True]:
            continue
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls[False] + walls[True]) \
                > seconds:
            return Measured(walls, outputs, tracer, first_peak_mb)


def measure_scaled(batch, seconds: float) -> Measured:
    """Time ``batch()`` in scaled seconds (``reference.py``) until the
    run's seconds are used; a batch starts only while the median batch
    so far still fits.  Batches are grouped into segments of at least
    ``SEGMENT_JOBS`` reference jobs, and each batch in a segment is
    scaled by the segment's typical job time."""
    walls: list[float] = []
    outputs: list = []
    scaled: list[float] = []
    segment: list[float] = []
    first_peak_mb = None
    start = time.perf_counter()
    with reference.Sampler() as sampler:
        segment_start = sampler.mark()[0]
        while True:
            gc.collect()
            jobs0, spent0 = sampler.mark()
            t0 = time.perf_counter()
            outputs.append(batch())
            wall = time.perf_counter() - t0
            jobs1, spent1 = sampler.mark()
            if first_peak_mb is None:
                first_peak_mb = peak_rss_mb()
            walls.append(wall)
            segment.append(wall - (spent1 - spent0))
            elapsed = time.perf_counter() - start
            done = elapsed + statistics.median(walls) > seconds
            if jobs1 > segment_start and (
                    done or jobs1 - segment_start >= SEGMENT_JOBS):
                jobs = sampler.jobs[segment_start:jobs1]
                scale = reference.REF_SECONDS / reference.typical(jobs)
                scaled += [w * scale for w in segment]
                segment = []
                segment_start = jobs1
            if done and not segment:
                break
    if sampler.wrong:
        raise RuntimeError(f"{sampler.wrong} reference jobs gave a wrong "
                           f"result")
    return Measured({False: walls, True: []}, {False: outputs, True: []},
                    LayerTracer(), first_peak_mb, sampler.jobs, scaled)


def scaled_lines(m: Measured) -> list[str]:
    """The raw times behind the scaled ones."""
    return [f"raw wall_s = {statistics.median(m.walls[False]):.4f} s "
            f"over {len(m.scaled)} batches; reference job "
            f"{statistics.median(m.refs) * 1e3:.4f} ms (median of "
            f"{len(m.refs)}, nominal {reference.REF_SECONDS * 1e3} ms)"]


def report_problems(problems: list[str]) -> None:
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)


def run_gh(name: str, seed: int, seconds: float, trace: bool,
           answers: dict) -> tuple[int, int, dict, list[str]]:
    """One GH run: (operations, failed, metrics, readable lines)."""
    gh = GHRun(GH_WORKLOADS[name], seed, answers)
    rss_before = peak_rss_mb()
    m = measure(gh.explore, seconds, trace)
    results = m.outputs[False] + m.outputs[True]
    failed = 0
    for result in results:
        problems = gh.check(result).problems
        failed += bool(problems)
        report_problems(problems)
    last = results[-1]
    lines = [f"permutation {perm_name(gh.perm)} ({len(results)} "
             f"explorations)",
             f"states {last.states}, transitions {last.transitions}, "
             f"capped {last.capped}"]
    if not trace:
        rates = [r.states / w for r, w in zip(m.outputs[False],
                                               m.scaled)]
        lines.append(f"states_per_s = {statistics.median(rates):.1f} "
                     f"1/s (scaled)")
        metrics = {"norm_wall_s": (statistics.median(m.scaled), "s"),
                   "norm_throughput_per_s": (statistics.median(rates),
                                             "1/s"),
                   "peak_rss_mb": (m.first_peak_mb, "MB")}
        return len(results), failed, metrics, lines + scaled_lines(m)
    metrics = layer_metrics(m)
    metrics["mc.explorer.bytes_per_state"] = (
        (m.first_peak_mb - rss_before) * 2**20 / results[0].states, "B")
    metrics["mc.explorer.states"] = (last.states, "count")
    metrics["mc.explorer.transitions"] = (last.transitions, "count")
    metrics["mc.explorer.new_state_frac"] = (
        (last.states - 1) / last.transitions, "ratio")
    return len(results), failed, metrics, lines + overhead(m, metrics)


def run_corpus(seed: int, seconds: float, trace: bool,
               answers: dict) -> tuple[int, int, dict, list[str]]:
    """One corpus run: (operations, failed, metrics, readable lines)."""
    corpus = CorpusRun(seed, answers)

    def batch():
        latencies: list[float] = []
        return corpus.analyze_pass(latencies), latencies

    m = measure(batch, seconds, trace)
    passes = m.outputs[False] + m.outputs[True]
    failed = 0
    for check, _latencies in passes:
        failed += len(check.problems)
        report_problems(check.problems)
    latencies = [t for _check, batch_latencies in m.outputs[False]
                 for t in batch_latencies]
    p50, _ = percentile(latencies, 0.50)
    p95, beyond = percentile(latencies, 0.95)
    lines = ["order " + " ".join(name for name, _s, _v in corpus.programs),
             f"verdict_ms.p50 = {p50 * 1e3:.3f} ms, "
             f"verdict_ms.p95 = {p95 * 1e3:.3f} ms "
             f"(n={len(latencies)}, {beyond} beyond p95)"]
    operations = len(passes) * len(corpus.programs)
    if not trace:
        rates = [len(corpus.programs) / w for w in m.scaled]
        metrics = {"norm_wall_s": (statistics.median(m.scaled), "s"),
                   "norm_throughput_per_s": (statistics.median(rates),
                                             "1/s"),
                   "peak_rss_mb": (m.first_peak_mb, "MB")}
        return operations, failed, metrics, lines + scaled_lines(m)
    metrics = layer_metrics(m)
    return operations, failed, metrics, lines + overhead(m, metrics)


def layer_metrics(m: Measured) -> dict:
    """Per traced batch: self time and calls of every wrapped layer.
    The explorer's counts and memory read 0 until a GH run sets them."""
    tracer = m.tracer
    batches = len(m.walls[True])
    stats = tracer.stats
    out = {"mc.explorer.bytes_per_state": (0.0, "B"),
           "mc.explorer.states": (0, "count"),
           "mc.explorer.transitions": (0, "count"),
           "mc.explorer.new_state_frac": (0.0, "ratio")}
    for layer in ("synl.load_program", "cfg.build_cfg", "analysis.lint",
                  "analysis.purity", "analysis.escape_uniqueness",
                  "analysis.variants", "analysis.windows_locks",
                  "analysis.inference", "mc.canonical.quiescent_keys",
                  "interp.Interp.enabled_threads"):
        out[f"{layer}.self_s"] = (stats[layer].self_s / batches, "s")
    for layer in ("mc.canonical.state_key", "interp.World.copy",
                  "interp.Interp.step", "mc.atomic.run_to_commit"):
        out[f"{layer}.self_s"] = (stats[layer].self_s / batches, "s")
        out[f"{layer}.calls"] = (stats[layer].calls / batches, "count")
    key = stats["mc.canonical.state_key"]
    out["mc.canonical.state_key.us_per_call"] = (
        key.self_s / key.calls * 1e6 if key.calls else 0.0, "us")
    commit = stats["mc.atomic.run_to_commit"]
    steps = tracer.edges["mc.atomic.run_to_commit", "interp.Interp.step"]
    out["mc.atomic.run_to_commit.steps_per_call"] = (
        steps / commit.calls if commit.calls else 0.0, "count")
    out["mc.atomic.run_to_commit.disabled_frac"] = (
        commit.misses / commit.calls if commit.calls else 0.0, "ratio")
    out["mc.explorer.dfs_self_s"] = (
        stats["mc.explorer.run"].self_s / batches, "s")
    return out


def overhead(m: Measured, metrics: dict) -> list[str]:
    """Tracing overhead: median traced minus median untraced batch."""
    plain = statistics.median(m.walls[False])
    traced = statistics.median(m.walls[True])
    metrics["trace.overhead_s"] = (traced - plain, "s")
    return [f"untraced wall_s = {plain:.4f} s, traced wall_s = "
            f"{traced:.4f} s ({len(m.walls[False])} + "
            f"{len(m.walls[True])} batches)"]


def run_one(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    raw_setup_s, setup_s = timed_setups()

    answers = load_answers()
    trace = bool(args.trace)
    if args.workload in GH_WORKLOADS:
        attempted, failed, metrics, lines = run_gh(
            args.workload, args.seed, args.seconds, trace, answers)
    else:
        attempted, failed, metrics, lines = run_corpus(
            args.seed, args.seconds, trace, answers)
    if not trace:
        metrics["setup_s"] = (setup_s, "s")
        lines.append(f"raw setup_s = {raw_setup_s:.4f} s")
        names = [n for n, *_ in END_TO_END]
    else:
        names = [n for n, *_ in PER_LAYER]
    assert sorted(metrics) == sorted(names), sorted(metrics)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for line in lines:
        print(line)
    for name in names:
        value, unit = metrics[name]
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in names},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own fresh process, one after another;
    the last line merges their results with ``<workload>/`` prefixes."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root "
                             "and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(manifest(), fh, indent=2, ensure_ascii=False)
            fh.write("\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
