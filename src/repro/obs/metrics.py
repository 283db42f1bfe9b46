"""Thread-safe metric primitives and a flat registry.

Three instrument kinds, one registry:

* :class:`Counter` — monotonically increasing (``inc``);
* :class:`Gauge` — last-write-wins scalar (``set``);
* :class:`Histogram` — streaming count/sum/min/max/mean plus
  fixed-bucket p50/p95/p99 estimates (``observe``).

All instruments take an internal lock per update, so they aggregate
correctly when the explorer or test harness drives them from several
threads.  Hot loops that cannot afford a lock per event (the DFS inner
loop, the O(sites²) conflict scan) accumulate plain integers locally
and flush them into the registry once at the end — the registry is the
*reporting* surface, not the accumulation surface.

``snapshot()`` flattens everything into a JSON-ready ``dict``:
counters/gauges as numbers, histograms as
``{count, total, min, max, mean, p50, p95, p99}`` sub-dicts.

Every instrument (and the registry) also supports cross-process
**merge**: ``state()`` serializes the raw internal state (including
the sparse histogram buckets ``to_dict()`` throws away),
``from_state()`` reconstructs it in another process, and ``merge()``
folds one instrument into another.  Merge is associative, commutative,
and identity-preserving by construction — counters and histogram
buckets add, min/max combine, and gauges take the **max of set
values** (every gauge in this codebase is a peak: ``mem_peak_mb``,
``depth_max``), with a never-``set()`` gauge acting as the identity.
This is the contract the fleet aggregator (:mod:`repro.obs.fleet`)
relies on to merge N worker spools into one registry in any order.

Percentiles use fixed log-spaced buckets (4 per power of two, so the
upper-bound estimate is within ~19% of the true value) rather than
kept samples: memory stays O(1) per histogram no matter how many
observations, which matters when the DFS loop observes per-state
timings.  Estimates are clamped to the observed min/max, so histograms
with a single value report it exactly.
"""

from __future__ import annotations

import math
import threading
from typing import Optional, Union

#: log-spaced bucket resolution: boundaries at ``2**(i / 4)``
_BUCKETS_PER_OCTAVE = 4
#: quarter-octave index clamp — covers ~1e-9 .. ~1e9
_BUCKET_LO = -30 * _BUCKETS_PER_OCTAVE
_BUCKET_HI = 30 * _BUCKETS_PER_OCTAVE


def _bucket_index(value: float) -> int:
    if value <= 0:
        return _BUCKET_LO
    i = math.floor(math.log2(value) * _BUCKETS_PER_OCTAVE)
    return max(_BUCKET_LO, min(_BUCKET_HI, i))


class Counter:
    """Monotonic counter."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, n: Union[int, float] = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> Union[int, float]:
        return self._value

    def merge(self, other: "Counter") -> None:
        """Fold another counter in: values add."""
        with self._lock:
            self._value += other.value

    def state(self) -> dict:
        return {"value": self._value}

    @classmethod
    def from_state(cls, doc: dict) -> "Counter":
        inst = cls()
        inst._value = doc.get("value", 0)
        return inst


class Gauge:
    """Last-write-wins scalar."""

    __slots__ = ("_value", "_set", "_lock")

    def __init__(self) -> None:
        self._value: Union[int, float] = 0
        self._set = False
        self._lock = threading.Lock()

    def set(self, value: Union[int, float]) -> None:
        with self._lock:
            self._value = value
            self._set = True

    @property
    def value(self) -> Union[int, float]:
        return self._value

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in: max of *set* values (gauges here are
        peaks — ``mem_peak_mb`` and friends); a never-set gauge is the
        merge identity, so merge order never matters."""
        with self._lock:
            if other._set:
                if not self._set or other._value > self._value:
                    self._value = other._value
                self._set = True

    def state(self) -> dict:
        return {"value": self._value, "set": self._set}

    @classmethod
    def from_state(cls, doc: dict) -> "Gauge":
        inst = cls()
        inst._value = doc.get("value", 0)
        inst._set = bool(doc.get("set", doc.get("value", 0) != 0))
        return inst


class Histogram:
    """Streaming summary statistics over sparse log-spaced buckets
    (no samples kept; percentiles are upper-bound estimates)."""

    __slots__ = ("count", "total", "min", "max", "_buckets", "_lock")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: dict[int, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: Union[int, float]) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            index = _bucket_index(value)
            self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (``0 < q <= 1``): the upper bound
        of the bucket holding the rank-``ceil(q * count)`` sample,
        clamped to the observed range."""
        with self._lock:
            if not self.count:
                return None
            rank = max(1, math.ceil(q * self.count))
            seen = 0
            for index in sorted(self._buckets):
                seen += self._buckets[index]
                if seen >= rank:
                    upper = 2 ** ((index + 1) / _BUCKETS_PER_OCTAVE)
                    return max(self.min, min(self.max, upper))
            return self.max  # pragma: no cover — rank <= count

    def to_dict(self) -> dict:
        """Snapshot schema: ``{count, total, min, max, mean, p50, p95,
        p99}``.  The percentile fields are *upper-bound estimates*:
        each is the upper boundary of the log-spaced bucket holding
        the rank sample, clamped to ``[min, max]`` — so they can
        overstate the true quantile by up to one bucket width (~19%
        at 4 buckets/octave) but never understate past the bucket,
        and a single-observation histogram reports the value exactly.
        All percentile fields are None when the histogram is empty."""
        def rounded(value: Optional[float]) -> Optional[float]:
            return round(value, 9) if value is not None else None

        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max,
                "mean": round(self.mean, 9),
                "p50": rounded(self.percentile(0.50)),
                "p95": rounded(self.percentile(0.95)),
                "p99": rounded(self.percentile(0.99))}

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in: counts/totals add, min/max
        combine, sparse buckets add per index — so percentile
        estimates over the merged histogram are exactly what a single
        histogram fed both observation streams would report."""
        with self._lock:
            self.count += other.count
            self.total += other.total
            if other.min is not None and (self.min is None
                                          or other.min < self.min):
                self.min = other.min
            if other.max is not None and (self.max is None
                                          or other.max > self.max):
                self.max = other.max
            for index, n in other._buckets.items():
                self._buckets[index] = self._buckets.get(index, 0) + n

    def state(self) -> dict:
        """Raw internal state for cross-process transport — unlike
        :meth:`to_dict` this keeps the sparse buckets, so a histogram
        round-tripped through JSON still merges losslessly."""
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max,
                "buckets": {str(i): n
                            for i, n in sorted(self._buckets.items())}}

    @classmethod
    def from_state(cls, doc: dict) -> "Histogram":
        inst = cls()
        inst.count = doc.get("count", 0)
        inst.total = doc.get("total", 0.0)
        inst.min = doc.get("min")
        inst.max = doc.get("max")
        inst._buckets = {int(i): n
                         for i, n in (doc.get("buckets") or {}).items()}
        return inst


def depth_summary(depth_counts: dict[int, int]) -> dict:
    """Exact summary statistics over a ``{depth: count}`` histogram
    (unlike the log-bucketed :class:`Histogram`, depths are small ints
    so exact nearest-rank percentiles are free).  Shared by the
    explorer's ``mc.depth`` metric and ``repro top``'s depth row."""
    total = sum(depth_counts.values())
    if not total:
        return {"count": 0, "min": 0, "max": 0, "mean": 0.0,
                "p50": 0, "p95": 0, "p99": 0}
    ordered = sorted(depth_counts)
    out = {"count": total, "min": ordered[0], "max": ordered[-1],
           "mean": round(sum(d * n for d, n in depth_counts.items())
                         / total, 3)}
    for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
        rank = max(1, int(q * total + 0.999999))
        seen = 0
        value = ordered[-1]
        for depth in ordered:
            seen += depth_counts[depth]
            if seen >= rank:
                value = depth
                break
        out[name] = value
    return out


class EwmaRate:
    """Exponentially-weighted throughput estimator with an ETA.

    Feeds the explorer's ``--progress`` heartbeat: each
    :meth:`update` takes a *cumulative* monotonic count (states seen
    so far) and a timestamp, computes the instantaneous rate since the
    previous update, and folds it into an EWMA so one slow beat does
    not whipsaw the ETA.  Edge cases are deliberate:

    * the first update only baselines (rate stays 0 — no window yet);
    * a non-increasing count re-baselines without poisoning the rate
      (restarted searches, clock-adjacent beats);
    * a zero/negative time delta is ignored entirely;
    * :meth:`eta_s` is ``None`` until the rate is positive, and 0.0
      once the remaining work is gone — callers can always render it.
    """

    __slots__ = ("alpha", "rate", "_last_count", "_last_t")

    def __init__(self, alpha: float = 0.3):
        self.alpha = alpha
        self.rate = 0.0
        self._last_count: Optional[float] = None
        self._last_t = 0.0

    def update(self, count: float, now: float) -> float:
        """Fold one observation; returns the smoothed rate."""
        if self._last_count is None:
            self._last_count, self._last_t = count, now
            return self.rate
        dt = now - self._last_t
        if dt <= 0:
            return self.rate
        if count < self._last_count:
            self._last_count, self._last_t = count, now
            return self.rate
        inst = (count - self._last_count) / dt
        self.rate = inst if self.rate == 0.0 \
            else self.alpha * inst + (1 - self.alpha) * self.rate
        self._last_count, self._last_t = count, now
        return self.rate

    def eta_s(self, remaining: float) -> Optional[float]:
        """Seconds until ``remaining`` units drain at the current
        rate; None when no positive rate has been established."""
        if remaining <= 0:
            return 0.0
        if self.rate <= 0:
            return None
        return remaining / self.rate


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            inst = self._counters.get(name)
            if inst is None:
                inst = self._counters[name] = Counter()
            return inst

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            inst = self._gauges.get(name)
            if inst is None:
                inst = self._gauges[name] = Gauge()
            return inst

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            inst = self._histograms.get(name)
            if inst is None:
                inst = self._histograms[name] = Histogram()
            return inst

    # -- convenience -------------------------------------------------------
    def inc(self, name: str, n: Union[int, float] = 1) -> None:
        self.counter(name).inc(n)

    def set(self, name: str, value: Union[int, float]) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: Union[int, float]) -> None:
        self.histogram(name).observe(value)

    def merge_counts(self, counts: dict) -> None:
        """Flush a plain ``{name: n}`` dict of locally accumulated
        counts (the lock-free hot-path pattern) into real counters."""
        for name, n in counts.items():
            self.counter(name).inc(n)

    # -- cross-process merge -------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: instruments merge per kind, names
        union.  Associative, commutative (up to gauge ties), and a
        fresh registry is the identity — so N worker registries merge
        to the same result in any order."""
        with other._lock:
            counters = dict(other._counters)
            gauges = dict(other._gauges)
            histograms = dict(other._histograms)
        for name, c in counters.items():
            self.counter(name).merge(c)
        for name, g in gauges.items():
            self.gauge(name).merge(g)
        for name, h in histograms.items():
            self.histogram(name).merge(h)

    def state(self) -> dict:
        """JSON-ready raw state (see :meth:`Histogram.state`) for
        worker spools: ``{"counters": ..., "gauges": ...,
        "histograms": ...}``, keys sorted."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {n: c.state()
                         for n, c in sorted(counters.items())},
            "gauges": {n: g.state()
                       for n, g in sorted(gauges.items())},
            "histograms": {n: h.state()
                           for n, h in sorted(histograms.items())},
        }

    @classmethod
    def from_state(cls, doc: dict) -> "MetricsRegistry":
        inst = cls()
        for name, sub in (doc.get("counters") or {}).items():
            inst._counters[name] = Counter.from_state(sub)
        for name, sub in (doc.get("gauges") or {}).items():
            inst._gauges[name] = Gauge.from_state(sub)
        for name, sub in (doc.get("histograms") or {}).items():
            inst._histograms[name] = Histogram.from_state(sub)
        return inst

    def snapshot(self) -> dict:
        """Flat JSON-ready view, keys sorted for stable output."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        out: dict = {}
        for name, c in counters.items():
            out[name] = c.value
        for name, g in gauges.items():
            out[name] = g.value
        for name, h in histograms.items():
            out[name] = h.to_dict()
        return dict(sorted(out.items()))

    def render(self) -> str:
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                inner = " ".join(f"{k}={v}" for k, v in value.items())
                lines.append(f"{name}: {inner}")
            else:
                lines.append(f"{name}: {value}")
        return "\n".join(lines)
