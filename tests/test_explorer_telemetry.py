"""Golden telemetry of small explorations.

Everything the explorer reports about a run — the metrics snapshot,
the profiler counters, the event sequence, the captured state graph,
the progress lines and the counterexample path — is pinned here for a
handful of small runs covering every mode, a capped run and two
violating runs.  Wall-clock fields are masked, and CFG uids (which
come from a process-global counter) are rebased through
:func:`~repro.obs.graph.stable_uid_map`, so the fingerprint depends
only on the program text and the explorer's logic.

Regenerate the golden file after a deliberate change with::

    PYTHONPATH=src python tests/test_explorer_telemetry.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import re

import pytest

from repro import corpus
from repro.experiments.section63 import commutes
from repro.interp import Interp, ThreadSpec
from repro.mc import Explorer
from repro.mc.properties import Property
from repro.obs.events import EventStream
from repro.obs.graph import GraphWriter, stable_uid_map
from repro.obs.profile import Profiler
from repro.obs.top import TopState

GOLDEN = pathlib.Path(__file__).with_name("explorer_telemetry_golden.json")

#: metrics that depend on the host (rate, resident memory)
_VOLATILE_METRICS = ("mc.states_per_s", "mc.mem_peak_mb")
#: event fields that depend on the clock, the process or the host;
#: their presence is pinned, their values are masked
_VOLATILE_FIELDS = ("elapsed_s", "mem_mb", "rate_states_per_s",
                    "eta_cap_s", "deadline_in_s", "wall_s")
_DROPPED_FIELDS = ("t", "pid", "path")
_DESC_UID = re.compile(r"(t\d+@)(\d+)")
_LINE_VOLATILE = re.compile(
    r"\b(t|mem|rate|eta_cap|deadline_in)=[^ ]+")


class FailsAtInit(Property):
    """Violated by the initial state already."""

    def check_state(self, world, interp, ghost):
        return "bad initial state"


def _specs(*calls):
    return [ThreadSpec.of(call) for call in calls]


#: name -> (program, thread calls, explorer keyword arguments,
#:          capture POR-pruned edges)
CASES = {
    "por-pruned": (corpus.SEMAPHORE, (("Down",), ("Up",)),
                   {"mode": "por"}, True),
    "both": (corpus.GH_PROGRAM1, (("Apply", 1), ("Apply", 2), ("Apply", 3)),
             {"mode": "both", "commutes": commutes}, True),
    "atomic": (corpus.GH_PROGRAM1,
               (("Apply", 1), ("Apply", 2), ("Apply", 3)),
               {"mode": "atomic", "deadline": 3600.0}, False),
    "full-capped": (corpus.GH_PROGRAM1, (("Apply", 1), ("Apply", 2)),
                    {"mode": "full", "max_states": 60}, False),
    "violation": (corpus.BROKEN_SEMAPHORE, (("DownBad",), ("DownBad",)),
                  {"mode": "full"}, False),
    "init-violation": (corpus.SEMAPHORE, (("Down",), ("Up",)),
                       {"mode": "full", "properties": [FailsAtInit()]},
                       False),
}


def _rebase_desc(desc, uid_map):
    return _DESC_UID.sub(
        lambda m: m.group(1) + str(uid_map.get(int(m.group(2)),
                                               m.group(2))), desc)


def _event(ev, uid_map):
    out = {}
    for key, value in ev.items():
        if key in _DROPPED_FIELDS:
            continue
        if key in _VOLATILE_FIELDS:
            value = "*"
        elif key == "desc":
            value = _rebase_desc(value, uid_map)
        out[key] = value
    return out


def _events(raw, uid_map):
    """Normalised event list; the profiler's hotspot events are ranked
    by wall time, so that run of events is put in name order."""
    events = [_event(ev, uid_map) for ev in raw]
    hot = [i for i, ev in enumerate(events)
           if ev["kind"] == "profile.hotspot"]
    if hot:
        ranked = sorted((events[i] for i in hot),
                        key=lambda ev: ev["name"])
        for i, ev in zip(hot, ranked):
            events[i] = dict(ev, seq=events[i]["seq"])
    return events


def _metrics(metrics, uid_map):
    out = []
    for key, value in metrics.items():
        if key in _VOLATILE_METRICS:
            continue
        if key == "mc.stmt_heat":
            value = [[uid_map[row[0]]] + row[1:] for row in value]
        out.append([key, value])
    return out


def _path(path, uid_map):
    return [dict(step, desc=_rebase_desc(step["desc"], uid_map),
                 uid=uid_map.get(step["uid"], step["uid"]))
            for step in path]


def run_case(name, tmp_dir, *, profiled=True):
    source, calls, kwargs, record_pruned = CASES[name]
    interp = Interp(source)
    uid_map = stable_uid_map(interp)
    events = EventStream(capacity=100_000)
    profiler = Profiler() if profiled else None
    lines = []
    graph_path = pathlib.Path(tmp_dir) / f"{name}.jsonl"
    writer = GraphWriter(graph_path, mode=kwargs["mode"],
                         threads=len(calls),
                         record_pruned=record_pruned, uid_map=uid_map)
    try:
        result = Explorer(interp, _specs(*calls), events=events,
                          profiler=profiler, graph=writer,
                          progress=3600.0, progress_sink=lines.append,
                          **kwargs).run()
    finally:
        writer.close()
    graph = graph_path.read_text()
    doc = {
        "result": [result.states, result.transitions, result.violation,
                   result.capped, result.deadline_hit],
        "metrics": _metrics(result.metrics, uid_map),
        "counters": profiler.counters() if profiled else None,
        "events": _events(events.snapshot(), uid_map),
        "progress_lines": [_LINE_VOLATILE.sub(r"\1=*", line)
                           for line in lines],
        "graph_sha256": hashlib.sha256(graph.encode()).hexdigest(),
        "graph_summary": json.loads(graph.splitlines()[-1]),
        "trace": [_rebase_desc(d, uid_map) for d in result.trace],
        "path": _path(result.path, uid_map),
    }
    return result, json.loads(json.dumps(doc))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_telemetry_matches_golden(name, golden, tmp_path):
    _, doc = run_case(name, tmp_path)
    expected = golden[name]
    for part in expected:
        assert doc[part] == expected[part], f"{name}: {part} drifted"


def test_profiler_does_not_change_metrics_or_counts(tmp_path):
    with_prof, a = run_case("por-pruned", tmp_path / "a")
    without, b = run_case("por-pruned", tmp_path / "b", profiled=False)
    assert (with_prof.states, with_prof.transitions) \
        == (without.states, without.transitions)
    assert a["metrics"] == b["metrics"]
    assert with_prof.profile and not without.profile


def test_violation_in_initial_state_takes_the_violation_path(tmp_path):
    result, doc = run_case("init-violation", tmp_path)
    assert result.violation == "bad initial state"
    assert result.trace == ["init"]
    assert [step["kind"] for step in result.path] == ["init"]
    (event,) = [ev for ev in doc["events"] if ev["kind"] == "mc.violation"]
    assert event["desc"] == "init"
    top = TopState()
    for ev in doc["events"]:
        top.feed(ev)
    assert top.status == "VIOLATION: bad initial state"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = {name: run_case(name, tmp)[1] for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=False) + "\n")
    print(f"wrote {GOLDEN}")
