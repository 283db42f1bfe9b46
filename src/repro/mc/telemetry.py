"""Everything the explorer reports about a search, behind one seam.

The DFS in :mod:`repro.mc.explorer` owns the search; a
:class:`Telemetry` owns every signal about it: the always-on coverage
counters (statement heat, depth histogram, frontier samples, dedup and
ample-set counts), the event stream, the graph writer, the profiler
regions, the ``--progress`` heartbeat and the run-ledger note.  The
DFS calls the hooks below at fixed points (table in
docs/OBSERVABILITY.md, "Coverage telemetry") and hands the finished
:class:`~repro.mc.explorer.MCResult` to :meth:`Telemetry.finish`.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.obs import ledger
from repro.obs.metrics import EwmaRate, depth_summary
from repro.obs.profile import malloc_top, peak_rss_mb

#: frontier-size sampling starts at this transition stride and doubles
#: (halving the retained samples) whenever the buffer fills, keeping
#: the per-run series bounded no matter how long the search runs
_FRONTIER_SAMPLE_STRIDE = 64
_FRONTIER_MAX_SAMPLES = 256


class Telemetry:
    """The signals of one :meth:`Explorer.run
    <repro.mc.explorer.Explorer.run>`, started at ``start``
    (``time.perf_counter``)."""

    def __init__(self, explorer, start: float):
        self.mode = explorer.mode
        self.max_states = explorer.max_states
        self.deadline = explorer.deadline
        self.events = explorer.events
        self.profiler = explorer.profiler
        self.graph = explorer.graph
        #: the ample-set code executes the transitions it prunes only
        #: when the graph writer asked to record them
        self.record_pruned = self.graph is not None \
            and self.graph.record_pruned
        self.progress = explorer.progress
        self.progress_sink = explorer.progress_sink
        self.trace_malloc = explorer.trace_malloc
        if self.trace_malloc:
            import tracemalloc
            if not tracemalloc.is_tracing():
                tracemalloc.start()
        self.start = start
        self.next_beat = start + self.progress \
            if self.progress is not None else None
        #: EWMA states/sec estimator feeding the heartbeat's rate/ETA
        self.rate = EwmaRate()
        # profiler regions, accumulated as plain numbers and flushed
        # once by finish()
        self.succ_wall = 0.0
        self.succ_calls = 0
        self.succ_work = 0
        self.canon_wall = 0.0
        self.ample_wall = 0.0
        self.ample_checks = 0
        self.ample_reduced = 0
        self.ample_full = 0
        self.cache_hits = 0  # canonical-key lookups that found a seen state
        self.max_depth = 1
        self.depth_counts: dict[int, int] = {}
        self.frontier_samples: list[tuple[int, int]] = []
        self.sample_stride = _FRONTIER_SAMPLE_STRIDE
        self.next_sample = _FRONTIER_SAMPLE_STRIDE
        #: per-statement heat: uid -> [visits, switches, tidmask]
        self.stmt_heat: dict[int, list] = {}

    # -- hooks called by the DFS ----------------------------------------------
    def node(self, key, depth: int, world, init: bool = False
             ) -> Optional[str]:
        """A state was counted; returns its graph id (None = no graph)."""
        if self.graph is None:
            return None
        return self.graph.node(key, depth, init=init,
                               quiescent=world.quiescent())

    def expanded(self, wall: float, n: int) -> None:
        """Successors of one state were computed (``n`` of them)."""
        self.succ_wall += wall
        self.succ_calls += 1
        self.succ_work += n

    def pruned(self, src: Optional[str], dst_key, succ) -> None:
        """An ample set elected not to take ``succ`` from ``src``."""
        self.graph.pruned(src, dst_key, tid=succ.tid, uid=succ.uid,
                          op=succ.kind)

    def transition(self, src: Optional[str], parent_tid: int, succ,
                   key, dup: bool, canon_wall: float, transitions: int,
                   stack_len: int) -> None:
        """A transition was counted; ``dup`` = its target was seen."""
        self.canon_wall += canon_wall
        if succ.uid is not None:
            # source heat: visits / context switches / which threads
            # ran this statement
            heat = self.stmt_heat.get(succ.uid)
            if heat is None:
                heat = self.stmt_heat[succ.uid] = [0, 0, 0]
            heat[0] += 1
            if 0 <= parent_tid != succ.tid:
                heat[1] += 1
            if succ.tid >= 0:
                heat[2] |= 1 << succ.tid
        if transitions >= self.next_sample:
            self.frontier_samples.append((transitions, stack_len))
            if len(self.frontier_samples) >= _FRONTIER_MAX_SAMPLES:
                self.frontier_samples = self.frontier_samples[::2]
                self.sample_stride *= 2
            self.next_sample = transitions + self.sample_stride
        if self.graph is not None:
            self.graph.edge(src, key, tid=succ.tid, uid=succ.uid,
                            op=succ.kind, dup=dup)
        if dup:
            self.cache_hits += 1

    def push(self, depth: int, desc: str, states: int) -> None:
        self.depth_counts[depth] = self.depth_counts.get(depth, 0) + 1
        if depth > self.max_depth:
            self.max_depth = depth
        if self.events is not None:
            self.events.emit("mc.push", depth=depth, desc=desc,
                             states=states)

    def pop(self, depth: int) -> None:
        if self.events is not None:
            self.events.emit("mc.pop", depth=depth)

    def ample_check(self, wall: float) -> None:
        """One ample-set candidate was tested."""
        self.ample_wall += wall
        self.ample_checks += 1

    def ample(self, tid: int, desc: str) -> None:
        """A singleton ample set was taken."""
        self.ample_reduced += 1
        if self.events is not None:
            self.events.emit("mc.ample", tid=tid, desc=desc)

    def no_ample(self) -> None:
        """No candidate qualified: the state was fully expanded."""
        self.ample_full += 1

    def violation(self, desc: str, message: str) -> None:
        if self.events is not None:
            self.events.emit("mc.violation", desc=desc, message=message)

    def stopped(self, kind: str, **fields) -> None:
        """The search stopped early (``mc.cap`` / ``mc.deadline``)."""
        if self.events is not None:
            self.events.emit(kind, **fields)

    def tick(self, result, now: float, stack_len: int) -> None:
        """Periodic clock check: emit a heartbeat when one is due."""
        if self.next_beat is not None and now >= self.next_beat:
            self._beat(result, now, stack_len)
            self.next_beat = now + self.progress

    def finish(self, result, stack_len: int, safety):
        """Stamp timing, the metrics snapshot and the coverage
        telemetry onto ``result`` (``time.perf_counter`` throughout —
        monotonic, immune to wall-clock jumps), flush the profiler
        regions, emit the final heartbeat and note the outcome in the
        run ledger."""
        result.elapsed = time.perf_counter() - self.start
        hits = self.cache_hits
        lookups = hits + result.states
        hit_rate = round(hits / lookups, 6) if lookups else 0.0
        ample_total = self.ample_reduced + self.ample_full
        depth_counts = self.depth_counts
        result.metrics = {
            "mc.states": result.states,
            "mc.transitions": result.transitions,
            "mc.states_per_s": round(result.states_per_s, 3),
            "mc.cache_hits": hits,
            "mc.cache_hit_ratio": hit_rate,
            # alias of cache_hit_ratio under the name the bench
            # records and the regression watchdog use
            "mc.dedup_hit_rate": hit_rate,
            "mc.max_depth": self.max_depth,
            "mc.ample_reduced": self.ample_reduced,
            "mc.ample_full": self.ample_full,
            "mc.ample_reduction_ratio":
                round(self.ample_reduced / ample_total, 6)
                if ample_total else 0.0,
            "mc.safety_cache_hits": safety.hits,
            "mc.safety_cache_misses": safety.misses,
            "mc.deadline_hit": bool(result.deadline_hit),
            "mc.mem_peak_mb": peak_rss_mb(),
            "mc.depth": depth_summary(depth_counts),
            "mc.depth_hist": [[d, depth_counts[d]]
                              for d in sorted(depth_counts)],
            "mc.frontier_samples": [list(pair)
                                    for pair in self.frontier_samples],
            # per-statement heat: [uid, visits, switches, n_threads]
            # (always on — the source-heatmap substrate)
            "mc.stmt_heat": [
                [uid, heat[0], heat[1], bin(heat[2]).count("1")]
                for uid, heat in sorted(self.stmt_heat.items())],
        }
        if self.trace_malloc:
            result.metrics["mc.malloc_top"] = malloc_top()
        prof = self.profiler
        if prof.enabled:
            prof.acc("mc.successors", self.succ_wall,
                     work=self.succ_work, calls=self.succ_calls)
            # every counted transition is one canonical-key build
            prof.acc("mc.canonicalize", self.canon_wall,
                     calls=result.transitions, work=result.transitions)
            prof.acc("mc.por_ample", self.ample_wall,
                     work=self.ample_checks, calls=self.ample_checks)
            # dedup: calls = canonical-key lookups, work = hits
            prof.acc("mc.dedup", 0.0, work=hits, calls=lookups)
            result.profile = prof.to_dict()
            prof.emit_hotspots(self.events)
        if self.progress is not None:
            self._beat(result, time.perf_counter(), stack_len,
                       final=True)
        # outcome capture for the persistent run ledger: verdict +
        # counterexample fingerprint (no-op outside a recorded run)
        ledger.note_mc(result)
        return result

    # -- the --progress heartbeat ---------------------------------------------
    def _beat(self, result, now: float, stack_len: int,
              final: bool = False) -> None:
        """One heartbeat: a stderr line plus an ``explorer.progress``
        event.  The rate is an EWMA; the ETA targets the state cap when
        one is set, and a running deadline reports its remaining
        budget."""
        elapsed = now - self.start
        rate = self.rate.update(result.states, now)
        eta_text = f" rate={rate:,.0f}/s"
        eta_fields: dict = {"rate_states_per_s": round(rate, 1)}
        if self.max_states is not None:
            eta = self.rate.eta_s(self.max_states - result.states)
            eta_text += f" eta_cap={eta:.1f}s" if eta is not None \
                else " eta_cap=?"
            if eta is not None:
                eta_fields["eta_cap_s"] = round(eta, 3)
        if self.deadline is not None:
            left = max(0.0, self.deadline - elapsed)
            eta_text += f" deadline_in={left:.1f}s"
            eta_fields["deadline_in_s"] = round(left, 3)
        tag = "done " if final else ""
        self.progress_sink(
            f"[mc:{self.mode}] {tag}t={elapsed:.1f}s "
            f"states={result.states} trans={result.transitions} "
            f"frontier={stack_len} depth_max={self.max_depth} "
            f"mem={peak_rss_mb():.1f}MB{eta_text}")
        if self.events is not None:
            lookups = self.cache_hits + result.states
            self.events.emit("explorer.progress",
                             states=result.states,
                             transitions=result.transitions,
                             depth=self.max_depth,
                             frontier=stack_len,
                             elapsed_s=round(elapsed, 3),
                             dedup_hit_rate=round(
                                 self.cache_hits / lookups, 6)
                             if lookups else 0.0,
                             mem_mb=round(peak_rss_mb(), 1),
                             final=final,
                             **eta_fields)
