"""A fixed pure-Python reference job that measures the host's speed
while a batch runs.

The host is shared, and its speed drifts by tens of percent within
seconds and within minutes, so raw seconds from two runs of the same
code can differ more than any bound worth gating on.  While ``run.py``
times batches, a :class:`Sampler` runs a short reference job every
``INTERVAL_S`` from a ``SIGALRM`` handler — in the main thread, between
two bytecodes of whatever runs — and times it.  The jobs are spread
evenly over the batches, so they see the same host.  A batch's *scaled*
time is its wall time, less the time spent in the handler, times
``REF_SECONDS`` over the typical job time during it (:func:`typical`):
the time the batch would take on a host where one job takes exactly
``REF_SECONDS``.

The job does the kind of work the model checker does — build small
records, copy lists and dicts, hash tuples into a set — and never
touches ``repro``, so a change to the program moves the scaled times
and a change of host speed does not.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: one job's nominal duration, the unit of the scaled times; near what
#: it takes on a 2-core shared host at its usual speed
REF_SECONDS = 0.003
#: loop iterations of one job
ITERATIONS = 600
#: one job's result, fixed by its arithmetic
CHECKSUM = 73_081
#: wall seconds between two jobs
INTERVAL_S = 0.1


class _Cell:
    __slots__ = ("tid", "reg", "val")

    def __init__(self, tid, reg, val):
        self.tid = tid
        self.reg = reg
        self.val = val


def job(iterations: int = ITERATIONS) -> int:
    """Explore a small made-up state space depth first; return a
    checksum of the keys it stored."""
    seen = set()
    frontier = [(0, (0, 0, 0), {"x": 0})]
    acc = 0
    i = 0
    while i < iterations:
        if not frontier:
            frontier.append((0, (i % 7, 0, 0), {"x": i % 11}))
        depth, regs, heap = frontier.pop()
        for tid in range(3):
            i += 1
            r = list(regs)
            r[tid] = (r[tid] * 31 + i) % 257
            h = dict(heap)
            h["x"] = (h["x"] + tid) % 101
            cells = [_Cell(k, r[k], h["x"]) for k in range(3)]
            key = (depth + 1, tuple(r), tuple(sorted(h.items())),
                   tuple((c.tid, c.reg, c.val) for c in cells))
            if key not in seen:
                seen.add(key)
                frontier.append((depth + 1, tuple(r), h))
                acc += key[1][tid]
    return acc + len(seen)


def typical(jobs: list[float]) -> float:
    """Mean job time, less the fastest and the slowest tenth: a mean
    weighs the host's slow moments as a batch's wall time does, and the
    trimming drops the jobs that a stray interrupt or timer tick hit."""
    ordered = sorted(jobs)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Sampler:
    """Runs and times a job every ``INTERVAL_S`` while entered.

    ``jobs`` holds each job's seconds; ``spent`` the seconds spent in
    the handler in all, bookkeeping included, so that a caller can take
    it out of a wall time.  A job with the wrong result is counted in
    ``wrong`` — raising from a signal handler would raise inside the
    program under test."""

    def __init__(self):
        self.jobs: list[float] = []
        self.spent = 0.0
        self.wrong = 0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        # a collection started by the job's allocations would walk the
        # program's heap and be timed as the job's
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        result = job()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.wrong += result != CHECKSUM
        self.jobs.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def mark(self) -> tuple[int, float]:
        return len(self.jobs), self.spent

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
