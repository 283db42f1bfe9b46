"""Raw analysis throughput across the corpus (not a paper artifact —
tracks the cost of the full steps 1–7 pipeline; the repository
benchmark's ``corpus-analyze`` workload lives in ``perfbench/``)."""

import pytest

from repro import corpus
from repro.analysis import analyze_program

CASES = {
    "nfq_prime": corpus.NFQ_PRIME,
    "herlihy": corpus.HERLIHY_SMALL,
    "gh_program1": corpus.GH_PROGRAM1,
    "allocator": corpus.ALLOCATOR,
    "treiber": corpus.TREIBER_STACK,
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_analysis_speed(benchmark, name):
    result = benchmark(analyze_program, CASES[name])
    assert result.verdicts
