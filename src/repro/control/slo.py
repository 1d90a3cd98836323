"""Per-function SLO targets with multi-window burn-rate accounting.

An invocation is *good* when its end-to-end latency meets the
function's :class:`~repro.control.config.SLOTarget` threshold, *bad*
otherwise.  The burn rate over a trailing window is::

    burn = bad_fraction_in_window / (1 - objective)

so burn 1.0 consumes the error budget exactly at the sustainable pace;
burn 14 over 30 s is the classic "page now" signal.  Control decisions
use the two-window AND rule (both the fast and slow windows must burn
above their thresholds) so a single slow invocation after a quiet hour
cannot trip shedding, and a long-resolved incident cannot keep it
tripped.

Only *completed* invocations feed the tracker.  Shed and aborted
invocations are deliberately excluded from the latency SLO: counting a
shed as an SLO miss would latch the controller (shedding keeps burn
high, high burn keeps shedding).  Sheds and aborts are surfaced
separately through the admission controller and the cluster result.

Counters are bucketed at :attr:`ControlConfig.slo_bucket` granularity
with running window sums, so observation and query are amortised O(1)
per invocation regardless of window length.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.control.config import ControlConfig, SLOTarget
from repro.obs import hooks


class _WindowCounter:
    """Good/bad counts over one trailing window, bucketed and pruned."""

    __slots__ = ("window", "bucket", "_buckets", "good", "bad")

    def __init__(self, window: float, bucket: float):
        self.window = window
        self.bucket = min(bucket, window)
        #: FIFO of [bucket_index, good, bad]; running sums alongside.
        self._buckets: Deque[List[float]] = deque()
        self.good = 0
        self.bad = 0

    def observe(self, now: float, ok: bool) -> None:
        idx = int(now / self.bucket)
        buckets = self._buckets
        if not buckets or buckets[-1][0] != idx:
            buckets.append([idx, 0, 0])
        if ok:
            buckets[-1][1] += 1
            self.good += 1
        else:
            buckets[-1][2] += 1
            self.bad += 1
        self._prune(now)

    def _prune(self, now: float) -> None:
        # A bucket leaves the window when even its *end* is older than
        # the horizon, so the window never under-counts recent events.
        horizon_idx = int((now - self.window) / self.bucket)
        buckets = self._buckets
        while buckets and buckets[0][0] < horizon_idx:
            _idx, good, bad = buckets.popleft()
            self.good -= good
            self.bad -= bad

    def bad_fraction(self, now: float) -> float:
        self._prune(now)
        total = self.good + self.bad
        return self.bad / total if total else 0.0


class SLOTracker:
    """Burn-rate accounting for every function with a configured SLO."""

    def __init__(self, config: ControlConfig):
        self.config = config
        #: Materialized once: rebuilding dict(config.slos) per
        #: observation would be O(n_slos) on the per-invocation path.
        self._slos: Dict[str, SLOTarget] = dict(config.slos)
        #: function -> (fast window, slow window) counters.
        self._windows: Dict[str, Tuple[_WindowCounter, _WindowCounter]] = {}
        #: lifetime totals per function (good, bad).
        self._totals: Dict[str, List[int]] = {}
        for fn, slo in sorted(self._slos.items()):
            self._windows[fn] = (
                _WindowCounter(slo.fast_window, config.slo_bucket),
                _WindowCounter(slo.slow_window, config.slo_bucket))
            self._totals[fn] = [0, 0]

    def target(self, function: str) -> SLOTarget:
        return self._slos[function]

    def observe(self, function: str, now: float, e2e: float) -> None:
        """Feed one completed invocation's end-to-end latency."""
        windows = self._windows.get(function)
        if windows is None:
            return
        slo = self._slos[function]
        ok = e2e <= slo.threshold
        windows[0].observe(now, ok)
        windows[1].observe(now, ok)
        totals = self._totals[function]
        totals[0 if ok else 1] += 1
        registry = hooks.registry
        if registry is not None:
            registry.inc("slo_observations_total", function=function,
                         outcome="good" if ok else "bad")

    def burn(self, function: str, now: float) -> Tuple[float, float]:
        """(fast, slow) burn rates; (0, 0) for unconfigured functions."""
        windows = self._windows.get(function)
        if windows is None:
            return 0.0, 0.0
        budget = self._slos[function].error_budget
        return (windows[0].bad_fraction(now) / budget,
                windows[1].bad_fraction(now) / budget)

    def shed_active(self, function: str, now: float) -> bool:
        """Both windows burning above threshold: shed new arrivals."""
        windows = self._windows.get(function)
        if windows is None:
            return False
        slo = self._slos[function]
        fast, slow = self.burn(function, now)
        return fast >= slo.fast_burn and slow >= slo.slow_burn

    def degrade_active(self, now: float) -> bool:
        """Any function's fast window burning at degrade level.

        Platforms consult this to skip pool-fault retries (jump straight
        down the degradation ladder): when latency budgets are already
        burning, a slow success beats a fast maybe.
        """
        for fn in self._windows:
            fast, _slow = self.burn(fn, now)
            if fast >= self.config.degrade_burn:
                return True
        return False

    def report(self, now: float) -> Dict[str, dict]:
        """Final per-function attainment + burn snapshot (sorted keys)."""
        out: Dict[str, dict] = {}
        for fn in sorted(self._windows):
            slo = self._slos[fn]
            good, bad = self._totals[fn]
            total = good + bad
            fast, slow = self.burn(fn, now)
            out[fn] = {
                "threshold": slo.threshold,
                "objective": slo.objective,
                "observed": total,
                "good": good,
                "bad": bad,
                "attainment": good / total if total else 1.0,
                "met": (good / total if total else 1.0) >= slo.objective,
                "fast_burn": fast,
                "slow_burn": slow,
            }
        return out
