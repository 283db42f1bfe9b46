"""Tests of the benchmark itself: seeding, known-answer checks that can
fail, and tracing that leaves the counts alone.

    python -m pytest perfbench/tests -q
"""

import copy
import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from layers import LayerTracer  # noqa: E402

#: a small capped GH workload, so a test exploration takes ~1 s
SMALL = W.GHWorkload("gh-small", "full", 1, 2_000)


def small_run(seed, counts=None):
    """A GHRun of SMALL whose pinned counts are ``counts`` (or None)."""
    answers = {"gh": {SMALL.name: {"counts": {
        W.perm_name(W.perm_of(seed)): counts}}}}
    return W.GHRun(SMALL, seed, answers)


def counts_of(result):
    return {"states": result.states, "transitions": result.transitions}


@pytest.fixture(scope="module")
def answers():
    return W.load_answers()


def test_seed_permutation_map_covers_all_six():
    assert {W.perm_of(seed) for seed in range(6)} == \
        set(itertools.permutations((1, 2, 3)))


def test_every_permutation_is_pinned(answers):
    names = {W.perm_name(p) for p in W.PERMS}
    for name in W.GH_WORKLOADS:
        assert set(answers["gh"][name]["counts"]) == names


def test_rotating_scripts():
    specs = W.gh_specs((3, 1, 2), calls=3)
    assert [[args[0] for _name, args in s.ops] for s in specs] == \
        [[3, 1, 2], [1, 2, 3], [2, 3, 1]]


@pytest.mark.parametrize("name", sorted(W.GH_WORKLOADS))
def test_serial_oracle_matches_arithmetic(answers, name):
    gh = W.GHRun(W.GH_WORKLOADS[name], 5, answers)
    assert gh.oracle.problems == []
    assert W.decode_data(gh.serial_shared) == gh.data


def test_same_seed_same_outputs(answers):
    first, second = small_run(7), small_run(7)
    a, b = first.explore(), second.explore()
    assert counts_of(a) == counts_of(b)
    assert a.final_shared == b.final_shared
    assert first.serial_shared == second.serial_shared
    c1, c2 = W.CorpusRun(7, answers), W.CorpusRun(7, answers)
    assert [n for n, *_ in c1.programs] == [n for n, *_ in c2.programs]
    assert c1.analyze_pass([]).problems == c2.analyze_pass([]).problems \
        == []


def test_corpus_order_follows_seed(answers):
    orders = {tuple(n for n, *_ in W.CorpusRun(s, answers).programs)
              for s in range(4)}
    assert len(orders) > 1


def test_traced_counts_equal_untraced():
    gh = small_run(2)
    plain = gh.explore()
    tracer = LayerTracer()
    import repro.mc.explorer as explorer
    original = explorer.state_key
    with tracer:
        traced = gh.explore()
    assert explorer.state_key is original
    assert counts_of(traced) == counts_of(plain)
    assert traced.final_shared == plain.final_shared
    stats = tracer.stats
    assert stats["mc.explorer.run"].calls == 1
    # every counted transition keyed one copied, stepped world
    for layer in ("mc.canonical.state_key", "interp.World.copy",
                  "interp.Interp.step"):
        assert stats[layer].calls >= plain.transitions


def test_corrupted_gh_answer_fails():
    probe = small_run(3).explore()
    good = small_run(3, counts_of(probe))
    assert good.check(good.explore()).problems == []
    wrong = dict(counts_of(probe), transitions=probe.transitions + 1)
    bad = small_run(3, wrong)
    assert len(bad.check(bad.explore()).problems) == 1


def test_corrupted_verdict_makes_fail_frac_positive(answers):
    corrupted = copy.deepcopy(answers)
    verdicts = corrupted["corpus"]["verdicts"]["TREIBER_STACK"]
    verdicts["Push"] = not verdicts["Push"]
    attempted, failed, _metrics, _lines = run.run_corpus(1, 0.01, False,
                                                         corrupted)
    # one failed program per corpus pass
    assert failed >= 1 and failed == attempted // 15


def test_reference_sampler_times_jobs_and_restores_handler():
    import signal
    import time

    assert reference.job() == reference.CHECKSUM
    before = signal.getsignal(signal.SIGALRM)
    with reference.Sampler() as sampler:
        t_end = time.perf_counter() + 0.5
        while time.perf_counter() < t_end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert sampler.wrong == 0 and len(sampler.jobs) >= 2
    assert 0 < sampler.spent <= 0.5


def test_typical_trims_a_tenth_each_side():
    assert reference.typical([1.0] * 9 + [100.0]) == 1.0
    assert reference.typical([0.001] + [2.0] * 18 + [50.0]) == 2.0
    assert reference.typical([3.0]) == 3.0


def test_manifest_matches_benchmark_json():
    with open(BENCH.parent / "BENCHMARK.json") as fh:
        assert json.load(fh) == run.manifest()
