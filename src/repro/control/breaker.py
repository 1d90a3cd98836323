"""Circuit breaker on the virtual clock.

One breaker guards one shared resource — a dispatch target (node) or a
memory-pool tier as seen from one node.  The state machine is the
classic three-state one, driven entirely by the simulated clock passed
into every call, so runs are bit-identical for a given seed:

* **closed** — operations flow; outcomes land in a trailing window.
  When the window holds at least ``min_samples`` observations and the
  failure fraction (or mean latency, if configured) crosses its
  threshold, the breaker opens.
* **open** — operations are refused outright (``allow`` is False) for
  ``open_duration`` of virtual time.  Refusals are what let the rest of
  the system degrade *before* piling more work on a dying resource.
* **half-open** — after the cool-off, up to ``half_open_probes`` trial
  operations pass through.  ``close_after`` consecutive successes close
  the breaker; any probe failure re-opens it (and restarts the clock).

State transitions are emitted as labelled metrics through
:mod:`repro.obs.hooks` (host-side only — no simulated cost).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.control.config import BreakerConfig
from repro.obs import hooks

#: Breaker states (string-valued for cheap reporting).
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"


class CircuitBreaker:
    """Error/latency-triggered breaker for one named resource."""

    __slots__ = ("name", "config", "state", "_window", "_failures",
                 "_latency_sum", "_opened_at", "_probes_in_flight",
                 "_probe_successes", "transitions", "rejections",
                 "open_count")

    def __init__(self, name: str, config: BreakerConfig):
        self.name = name
        self.config = config
        self.state = CLOSED
        #: trailing (time, ok, latency) observations, pruned lazily.
        self._window: Deque[Tuple[float, bool, float]] = deque()
        self._failures = 0
        self._latency_sum = 0.0
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.transitions = 0
        self.rejections = 0
        self.open_count = 0

    # -- queries --------------------------------------------------------------

    def would_allow(self, now: float) -> bool:
        """Non-claiming preview: would :meth:`allow` grant at ``now``?

        Used to filter candidate sets without claiming half-open probe
        slots (or counting rejections) for resources that end up not
        being picked.  Never mutates state.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            # Past the cool-off, allow() would half-open and grant.
            return now - self._opened_at >= self.config.open_duration
        return self._probes_in_flight < self.config.half_open_probes

    def allow(self, now: float) -> bool:
        """May an operation proceed at virtual time ``now``?

        In the half-open state a True return *claims* one probe slot;
        the caller must report the probe's outcome via :meth:`record`.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self._opened_at < self.config.open_duration:
                self.rejections += 1
                return False
            self._transition(HALF_OPEN, now)
            self._probes_in_flight = 0
            self._probe_successes = 0
        # HALF_OPEN: hand out a bounded number of probe slots.
        if self._probes_in_flight < self.config.half_open_probes:
            self._probes_in_flight += 1
            return True
        self.rejections += 1
        return False

    # -- observations ---------------------------------------------------------

    def release_probe(self) -> None:
        """Give back a claimed grant without recording an outcome.

        For attempts abandoned for reasons that do not implicate this
        resource (e.g. the invocation's own total-time deadline
        expired): in the half-open state the probe slot returns to the
        pool so the breaker cannot wedge with all slots leaked.
        """
        if self.state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)

    def record(self, now: float, ok: bool, latency: float = 0.0) -> None:
        """Report one operation outcome observed at ``now``."""
        if self.state == HALF_OPEN:
            self._probes_in_flight = max(0, self._probes_in_flight - 1)
            if not ok:
                self._open(now)
                return
            self._probe_successes += 1
            if self._probe_successes >= self.config.close_after:
                self._transition(CLOSED, now)
                self._window.clear()
                self._failures = 0
                self._latency_sum = 0.0
            return
        if self.state == OPEN:
            # Straggler from before the breaker opened: ignore — the
            # window restarts from scratch when we close again.
            return
        self._window.append((now, ok, latency))
        if not ok:
            self._failures += 1
        self._latency_sum += latency
        self._prune(now)
        self._maybe_open(now)

    def _prune(self, now: float) -> None:
        window = self._window
        horizon = now - self.config.window
        while window and window[0][0] < horizon:
            _t, ok, latency = window.popleft()
            if not ok:
                self._failures -= 1
            self._latency_sum -= latency

    def _maybe_open(self, now: float) -> None:
        n = len(self._window)
        if n < self.config.min_samples:
            return
        if self._failures / n >= self.config.failure_threshold:
            self._open(now)
            return
        lat_thresh = self.config.latency_threshold
        if lat_thresh is not None and self._latency_sum / n >= lat_thresh:
            self._open(now)

    def _open(self, now: float) -> None:
        self._transition(OPEN, now)
        self._opened_at = now
        self.open_count += 1

    def _transition(self, state: str, now: float) -> None:
        if state == self.state:
            return
        self.state = state
        self.transitions += 1
        registry = hooks.registry
        if registry is not None:
            registry.inc("breaker_transitions_total", breaker=self.name,
                         to=state)
        tracer = hooks.tracer
        if tracer is not None:
            tracer.instant(f"breaker:{state}", now,
                           args={"breaker": self.name})

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "state": self.state,
            "transitions": self.transitions,
            "opens": self.open_count,
            "rejections": self.rejections,
        }
