"""Latency metrics: per-invocation records, percentiles, CDFs.

:class:`LatencyRecorder` folds every sample into per-function fixed-bin
log-scale histograms (HdrHistogram-style), so quantile queries are
O(bins) and — with ``keep_results=False`` — memory is O(bins), not
O(invocations).  With ``keep_results`` (the default) it also keeps
every :class:`InvocationResult` for per-invocation analysis.  Each
histogram keeps an exact sample buffer until :data:`EXACT_SAMPLE_CAP`
samples, so small runs (every tier-1 test, the golden W2 slices) answer
quantile queries exactly as :func:`percentile` over the results would;
only trace-scale runs switch to binned answers (bounded relative error,
see :class:`LogHistogram`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Histograms answer exactly (via a retained sample buffer) until this
#: many samples, then drop the buffer and answer from bins.
EXACT_SAMPLE_CAP = 4096

#: Log-scale bin resolution.  128 bins per decade puts neighbouring bin
#: edges a factor 10^(1/128) ~= 1.8% apart, so a binned quantile is
#: within ~0.9% of the true value — far below the seed-to-seed noise of
#: any experiment here.
BINS_PER_DECADE = 128

#: Smallest resolvable latency (100 ns); everything below lands in bin 0.
_LO = 1e-7
_LO_EXP = math.log10(_LO)
#: 12 decades: 100 ns .. 100 ks covers every latency this simulator emits.
_N_BINS = 12 * BINS_PER_DECADE


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0–100) of ``values``; nan if empty."""
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile out of range: {p}")
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, p))


#: Pending samples are folded into bins in vectorised chunks of this
#: size, which also bounds streaming-mode memory between flushes.
FLUSH_CHUNK = 8192


def _accumulate_exact(partials: List[float], x: float) -> None:
    """Fold ``x`` into a Shewchuk partials list (math.fsum's invariant).

    The list always holds non-overlapping floats whose real-number sum
    equals the exact sum of everything accumulated so far, so the
    rounded readout (``math.fsum(partials)``) is independent of
    accumulation order *and grouping* — merging shard histograms yields
    bit-identical totals to a serial run no matter how samples were
    partitioned, which the parallel cluster runner's registry contract
    depends on.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    del partials[i:]
    partials.append(x)


def _accumulate_many(partials: List[float], values: Sequence[float]) -> None:
    """Fold every value of ``values`` into ``partials``, exactly.

    ``math.fsum`` rounds the exact sum of its arguments once, so peeling
    that readout off and summing the rest again splits the exact sum of
    ``values`` into a few floats (two or three for a chunk of
    latencies), and only those take the per-float fold: one C-speed
    pass per peel instead of a Python loop per value.  Non-finite input
    takes the per-value fold.
    """
    rest = list(values)
    peeled: List[float] = []
    while True:
        try:
            s = math.fsum(rest)
        except OverflowError:
            s = math.inf
        if not math.isfinite(s):
            for x in values:
                _accumulate_exact(partials, x)
            return
        if s == 0.0:
            break
        peeled.append(s)
        rest.append(-s)
    for s in peeled:
        _accumulate_exact(partials, s)


def _canonical_partials(partials: Sequence[float]) -> List[float]:
    """Canonical decomposition of the exact value held by ``partials``.

    Grow-expansion partials are *not* canonical: two lists built from
    the same multiset in different orders can hold different components
    while summing to the same real number.  Anything that serializes
    partials (the registry's process boundary) must first reduce them
    to a form that depends only on the exact value, or shard merges
    stop being bit-identical at the JSON level.  The greedy form —
    repeatedly peel off the correctly-rounded remainder (``math.fsum``)
    and subtract it exactly — is such a form: every step is a pure
    function of the remaining real value.  Terminates in a handful of
    iterations (each remainder is < 0.5 ulp of the previous component).
    """
    rest = list(partials)
    out: List[float] = []
    while True:
        s = math.fsum(rest)
        if s == 0.0:
            return out
        out.append(s)
        _accumulate_exact(rest, -s)


class LogHistogram:
    """Fixed-bin log-scale histogram with an exact small-sample fallback.

    ``add`` is a single list append — the recorder sits on a
    per-invocation hot path, so binning is deferred: pending samples
    fold into bins in vectorised :data:`FLUSH_CHUNK` batches (one
    ``np.log10`` over the chunk instead of ``math.log10`` per sample).
    ``quantile`` is O(occupied bins) once the exact buffer is dropped,
    and bit-exact (``np.percentile`` over retained samples) before
    that.  Memory is O(occupied bins) + the bounded buffers.
    """

    __slots__ = ("counts", "_count", "_partials", "vmin", "vmax", "_exact",
                 "_exact_cap", "_pending")

    def __init__(self, exact_cap: int = EXACT_SAMPLE_CAP):
        self.counts: Dict[int, int] = {}
        self._count = 0
        #: Exact running sum as Shewchuk partials (see
        #: :func:`_accumulate_exact`); read through :attr:`total`.
        self._partials: List[float] = []
        self.vmin = math.inf
        self.vmax = -math.inf
        self._exact: Optional[List[float]] = []
        self._exact_cap = exact_cap
        self._pending: List[float] = []

    @staticmethod
    def _bin_mid(idx: int) -> float:
        # Geometric midpoint of the bin's edge pair.
        return 10.0 ** (_LO_EXP + (idx + 0.5) / BINS_PER_DECADE)

    @property
    def count(self) -> int:
        return self._count + len(self._pending)

    @property
    def total(self) -> float:
        """Correctly-rounded exact sum — order- and merge-invariant."""
        return math.fsum(self._partials)

    def canonical_partials(self) -> List[float]:
        """Serialization-safe partials (see :func:`_canonical_partials`)."""
        self._flush()
        return _canonical_partials(self._partials)

    @property
    def exact(self) -> bool:
        """Whether quantiles are still answered from retained samples."""
        self._flush()
        return self._exact is not None

    def add(self, value: float) -> None:
        self._pending.append(value)
        if len(self._pending) >= FLUSH_CHUNK:
            self._flush()

    def _flush(self) -> None:
        """Fold pending samples into the bins, vectorised."""
        if not self._pending:
            return
        arr = np.asarray(self._pending, dtype=float)
        self._count += arr.size
        _accumulate_many(self._partials, self._pending)
        self.vmin = min(self.vmin, float(arr.min()))
        self.vmax = max(self.vmax, float(arr.max()))
        if self._exact is not None:
            if len(self._exact) + arr.size <= self._exact_cap:
                self._exact.extend(self._pending)
            else:
                self._exact = None
        idx = ((np.log10(np.maximum(arr, _LO)) - _LO_EXP)
               * BINS_PER_DECADE).astype(np.int64)
        np.clip(idx, 0, _N_BINS - 1, out=idx)
        counts = self.counts
        for b, c in zip(*np.unique(idx, return_counts=True)):
            b = int(b)
            counts[b] = counts.get(b, 0) + int(c)
        self._pending = []

    def mean(self) -> float:
        self._flush()
        return self.total / self._count if self._count else float("nan")

    def quantile(self, p: float) -> float:
        """The ``p``-th percentile (0–100); nan if empty."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        self._flush()
        if self._count == 0:
            return float("nan")
        if self._exact is not None:
            return float(np.percentile(np.asarray(self._exact, dtype=float),
                                       p))
        target = math.ceil(p / 100.0 * self._count)
        if target <= 0:
            return self.vmin
        cum = 0
        for idx in sorted(self.counts):
            cum += self.counts[idx]
            if cum >= target:
                mid = self._bin_mid(idx)
                return min(max(mid, self.vmin), self.vmax)
        return self.vmax

    def cdf_points(self) -> Tuple[np.ndarray, np.ndarray]:
        """(values, cumulative probability) — exact when possible."""
        self._flush()
        if self._count == 0:
            empty = np.empty(0)
            return empty, empty
        if self._exact is not None:
            vals = np.sort(np.asarray(self._exact, dtype=float))
            probs = np.arange(1, vals.size + 1) / vals.size
            return vals, probs
        bins = sorted(self.counts)
        vals = np.array([self._bin_mid(i) for i in bins])
        probs = np.cumsum([self.counts[i] for i in bins]) / self._count
        return vals, probs

    def merge(self, other: "LogHistogram") -> None:
        self._flush()
        other._flush()
        for idx, c in sorted(other.counts.items()):
            self.counts[idx] = self.counts.get(idx, 0) + c
        self._count += other._count
        # Adding the peer's partials preserves exactness, so totals are
        # independent of how samples were sharded before the merge.
        for p in other._partials:
            _accumulate_exact(self._partials, p)
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        if self._exact is not None and other._exact is not None and \
                len(self._exact) + len(other._exact) <= self._exact_cap:
            self._exact.extend(other._exact)
        else:
            self._exact = None


@dataclass(frozen=True)
class InvocationResult:
    """One completed invocation."""

    function: str
    arrival: float
    start_kind: str        # "warm" | "repurposed" | "restored" | "cold"
    startup: float         # sandbox/VM + memory restore latency
    exec: float            # execution-phase latency
    e2e: float             # end-to-end (queue + startup + exec)
    queue: float = 0.0     # admission-control wait (concurrency limit)
    retries: int = 0       # pool-fault retries consumed (backoff waits)
    degraded: bool = False  # completed via a fallback/degraded path

    def __post_init__(self):
        if self.e2e + 1e-9 < self.startup + self.exec + self.queue:
            raise ValueError("e2e smaller than queue+startup+exec")


class _FunctionAggregate:
    """Streaming per-function state: three histograms + counters."""

    __slots__ = ("e2e", "startup", "exec", "start_kinds", "degraded",
                 "retried", "retries_total")

    def __init__(self):
        self.e2e = LogHistogram()
        self.startup = LogHistogram()
        self.exec = LogHistogram()
        self.start_kinds: Dict[str, int] = {}
        self.degraded = 0
        self.retried = 0
        self.retries_total = 0

    def add(self, r: InvocationResult) -> None:
        # Inlined LogHistogram.add x3: this runs once per invocation at
        # trace scale, and the method-call dispatch alone is measurable.
        h = self.e2e
        h._pending.append(r.e2e)
        if len(h._pending) >= FLUSH_CHUNK:
            h._flush()
        h = self.startup
        h._pending.append(r.startup)
        if len(h._pending) >= FLUSH_CHUNK:
            h._flush()
        h = self.exec
        h._pending.append(r.exec)
        if len(h._pending) >= FLUSH_CHUNK:
            h._flush()
        self.start_kinds[r.start_kind] = \
            self.start_kinds.get(r.start_kind, 0) + 1
        if r.degraded:
            self.degraded += 1
        if r.retries > 0:
            self.retried += 1
            self.retries_total += r.retries

    def merge(self, other: "_FunctionAggregate") -> None:
        self.e2e.merge(other.e2e)
        self.startup.merge(other.startup)
        self.exec.merge(other.exec)
        for kind, c in sorted(other.start_kinds.items()):
            self.start_kinds[kind] = self.start_kinds.get(kind, 0) + c
        self.degraded += other.degraded
        self.retried += other.retried
        self.retries_total += other.retries_total


class LatencyRecorder:
    """Collects invocation results and answers the paper's questions.

    ``keep_results=False`` turns the recorder into a pure streaming
    accumulator (O(bins) memory): :attr:`results` stays empty and
    :meth:`measured` is unavailable, but every aggregate query —
    percentiles, means, CDFs, start-kind counts, availability — works.
    The warm-up filter is applied at record time in streaming mode, so
    set :attr:`warmup` before the run (the runners do).
    """

    def __init__(self, warmup: float = 0.0, keep_results: bool = True):
        self._warmup = warmup
        self.keep_results = keep_results
        self.results: List[InvocationResult] = []
        #: Invocations that never completed: (function, arrival, reason).
        self.failures: List[Tuple[str, float, str]] = []
        self._per_fn: Dict[str, _FunctionAggregate] = {}

    # -- warm-up handling --------------------------------------------------------

    @property
    def warmup(self) -> float:
        return self._warmup

    @warmup.setter
    def warmup(self, value: float) -> None:
        if value == self._warmup:
            return
        self._warmup = value
        if self._per_fn:
            # Streaming aggregates were filtered with the old warm-up.
            if not self.keep_results:
                raise RuntimeError(
                    "cannot re-filter a streaming-only recorder: set "
                    "warmup before recording")
            self._per_fn = {}
            for r in self.results:
                self._stream_add(r)

    # -- recording ----------------------------------------------------------------

    def _stream_add(self, result: InvocationResult) -> None:
        if result.arrival < self._warmup:
            return
        per_fn = self._per_fn
        agg = per_fn.get(result.function)
        if agg is None:
            agg = per_fn[result.function] = _FunctionAggregate()
        agg.add(result)

    def record(self, result: InvocationResult) -> None:
        # _stream_add inlined: one call per invocation at trace scale.
        if self.keep_results:
            self.results.append(result)
        if result.arrival < self._warmup:
            return
        per_fn = self._per_fn
        agg = per_fn.get(result.function)
        if agg is None:
            agg = per_fn[result.function] = _FunctionAggregate()
        agg.add(result)

    def record_failure(self, function: str, arrival: float,
                       reason: str = "") -> None:
        self.failures.append((function, arrival, reason))

    def merge_from(self, other: "LatencyRecorder") -> None:
        """Fold another recorder's data into this one.

        Result-keeping sources are re-recorded (so this recorder's own
        warm-up applies); streaming-only sources merge histograms
        directly, which requires matching warm-ups.
        """
        if other.keep_results:
            for result in other.results:
                self.record(result)
        else:
            if other._warmup != self._warmup:
                raise RuntimeError(
                    "streaming merge requires matching warm-ups "
                    f"({other._warmup} != {self._warmup})")
            for fn, agg in sorted(other._per_fn.items()):
                mine = self._per_fn.get(fn)
                if mine is None:
                    mine = self._per_fn[fn] = _FunctionAggregate()
                mine.merge(agg)
        for failure in other.failures:
            self.failures.append(failure)

    # -- selection ----------------------------------------------------------------

    def measured(self, function: Optional[str] = None
                 ) -> List[InvocationResult]:
        """Results past the warm-up window, optionally for one function."""
        if not self.keep_results:
            raise RuntimeError(
                "recorder was built with keep_results=False; "
                "per-invocation results were not retained")
        out = [r for r in self.results if r.arrival >= self._warmup]
        if function is not None:
            out = [r for r in out if r.function == function]
        return out

    def _agg(self, function: Optional[str]) -> Optional[_FunctionAggregate]:
        """The streaming aggregate for ``function`` (None = all).

        The all-functions aggregate is assembled on demand by merging
        the per-function ones (order-independent), so the per-record
        hot path maintains exactly one aggregate, not two.
        """
        if function is None:
            total = _FunctionAggregate()
            for fn in sorted(self._per_fn):
                total.merge(self._per_fn[fn])
            return total
        return self._per_fn.get(function)

    def functions(self) -> List[str]:
        return sorted(fn for fn, agg in self._per_fn.items()
                      if agg.e2e.count)

    # -- aggregates ------------------------------------------------------------------

    def e2e_percentile(self, p: float, function: Optional[str] = None) -> float:
        agg = self._agg(function)
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        return agg.e2e.quantile(p) if agg else float("nan")

    def startup_percentile(self, p: float,
                           function: Optional[str] = None) -> float:
        agg = self._agg(function)
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        return agg.startup.quantile(p) if agg else float("nan")

    def exec_percentile(self, p: float, function: Optional[str] = None) -> float:
        agg = self._agg(function)
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile out of range: {p}")
        return agg.exec.quantile(p) if agg else float("nan")

    def mean_e2e(self, function: Optional[str] = None) -> float:
        agg = self._agg(function)
        return agg.e2e.mean() if agg else float("nan")

    def mean_exec(self, function: Optional[str] = None) -> float:
        agg = self._agg(function)
        return agg.exec.mean() if agg else float("nan")

    def cdf(self, function: Optional[str] = None
            ) -> Tuple[np.ndarray, np.ndarray]:
        """(sorted latencies, cumulative probability) for CDF plots."""
        agg = self._agg(function)
        if agg is None:
            empty = np.empty(0)
            return empty, empty
        return agg.e2e.cdf_points()

    def start_kind_counts(self, function: Optional[str] = None
                          ) -> Dict[str, int]:
        agg = self._agg(function)
        if agg is None:
            return {}
        return dict(sorted(agg.start_kinds.items()))

    def count(self, function: Optional[str] = None) -> int:
        agg = self._agg(function)
        return agg.e2e.count if agg else 0

    def availability(self) -> Dict[str, float]:
        """Availability under faults: how invocations fared, post-warmup.

        ``degraded`` counts invocations that completed via a fallback
        path (slower, but no error); ``retried`` those that consumed at
        least one pool-fault retry; ``failed`` those that never
        completed (e.g. the whole rack was down past the re-dispatch
        budget).
        """
        failed = [f for f in self.failures if f[1] >= self._warmup]
        agg = self._agg(None)
        assert agg is not None
        completed = agg.e2e.count
        total = completed + len(failed)
        return {
            "completed": completed,
            "failed": len(failed),
            "degraded": agg.degraded,
            "retried": agg.retried,
            "retries_total": agg.retries_total,
            "success_rate": (completed / total) if total else 1.0,
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-function P50/P99 e2e + mean startup, for report tables."""
        out: Dict[str, Dict[str, float]] = {}
        for fn in self.functions():
            out[fn] = {
                "count": self.count(fn),
                "p50_e2e": self.e2e_percentile(50, fn),
                "p99_e2e": self.e2e_percentile(99, fn),
                "p99_startup": self.startup_percentile(99, fn),
                "mean_exec": self.mean_exec(fn),
            }
        return out
