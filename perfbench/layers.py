"""Per-layer spans recorded from outside the program.

The traced run replaces each layer's public function at every site that
binds it with a wrapper that times the call on a nesting-aware span
stack, so a layer's *self* time is its spans' duration minus the part
covered by child spans of other wrapped layers.  Several layers are
imported by name into their callers, so each binding site is patched
separately; :meth:`LayerTracer.restore` puts every original back.

Spans are aggregated in memory per layer (calls, self time, and calls
per parent layer) rather than stored one by one: the model checker
makes millions of calls per run.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable, Optional

#: (layer, module, attribute path) for every binding site of a layer.
#: An attribute path ``Class.method`` patches the method on the class.
SITES = [
    ("mc.explorer.run", "repro.mc.explorer", "Explorer.run"),
    ("mc.canonical.state_key", "repro.mc.explorer", "state_key"),
    ("mc.canonical.state_key", "repro.mc.atomic", "state_key"),
    ("mc.canonical.quiescent_keys", "repro.mc.explorer", "quiescent_key"),
    ("mc.canonical.quiescent_keys", "repro.mc.explorer", "shared_key"),
    ("mc.atomic.run_to_commit", "repro.mc.explorer", "run_to_commit"),
    ("interp.World.copy", "repro.interp.state", "World.copy"),
    ("interp.Interp.step", "repro.interp.interp", "Interp.step"),
    ("interp.Interp.enabled_threads", "repro.interp.interp",
     "Interp.enabled_threads"),
    ("synl.load_program", "repro.analysis.inference", "load_program"),
    ("synl.load_program", "repro.interp.interp", "load_program"),
    ("cfg.build_cfg", "repro.analysis.inference", "build_cfg"),
    ("cfg.build_cfg", "repro.interp.interp", "build_cfg"),
    # looked up lazily inside AtomicityChecker._run_lint
    ("analysis.lint", "repro.analysis.lint", "lint_program"),
    ("analysis.purity", "repro.analysis.inference", "pure_loops"),
    ("analysis.escape_uniqueness", "repro.analysis.inference",
     "escape_analysis"),
    ("analysis.escape_uniqueness", "repro.analysis.inference",
     "uniqueness_analysis"),
    ("analysis.variants", "repro.analysis.inference", "make_variants"),
    ("analysis.windows_locks", "repro.analysis.inference",
     "lockset_analysis"),
    ("analysis.windows_locks", "repro.analysis.inference", "Dominators"),
    ("analysis.windows_locks", "repro.analysis.inference", "WindowIndex"),
    # self time = the §5.4 inference proper, minus every pass above
    ("analysis.inference", "repro.analysis.inference",
     "AtomicityChecker.run"),
]

#: layer -> predicate on a call's return value marking a wasted call
MISSES: dict[str, Callable] = {
    # a disabled atomic transition: the operation cannot complete here
    "mc.atomic.run_to_commit":
        lambda outcome: outcome.world is None
        and outcome.violation is None,
}

LAYERS = sorted({layer for layer, _m, _a in SITES})


class LayerStats:
    __slots__ = ("calls", "self_s", "misses")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.misses = 0


class LayerTracer:
    def __init__(self) -> None:
        self.stats = {layer: LayerStats() for layer in LAYERS}
        #: (parent layer or None, child layer) -> calls
        self.edges: Counter = Counter()
        # one [layer, child time] entry per open span
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def wrap(self, layer: str, fn: Callable,
             miss: Optional[Callable] = None) -> Callable:
        stats = self.stats[layer]
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                took = clock() - t0
                stack.pop()
                stats.calls += 1
                stats.self_s += took - frame[1]
                edges[parent, layer] += 1
                if stack:
                    stack[-1][1] += took
            if miss is not None and miss(out):
                stats.misses += 1
            return out

        return span

    def install(self) -> None:
        for layer, module_name, path in SITES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    self.wrap(layer, original, MISSES.get(layer)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
