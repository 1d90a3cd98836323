"""The assembled control plane: one object wired between arrival and
dispatch.

:class:`ControlPlane` owns the four mechanisms and the glue between
them:

* the :class:`~repro.control.admission.AdmissionController` (front
  door: concurrency caps, bounded queues, shedding);
* :class:`~repro.control.breaker.CircuitBreaker` families — one per
  dispatch target (node) and one per (node, pool) tier — created
  lazily, keyed deterministically by name;
* the cluster-wide :class:`~repro.control.retry_budget.RetryBudget`;
* the :class:`~repro.control.slo.SLOTracker` burn-rate accountant,
  which feeds both admission (burn shedding) and the platforms
  (degrade mode).

The cluster dispatcher waits in :meth:`admit` before its first
attempt, calls :meth:`claim_pick` (a non-claiming breaker preview,
then a claim for the picked node only) and :meth:`observe_attempt`
around every dispatch attempt and :meth:`observe_result` on
completion; platforms consult :meth:`pool_breaker` and
:meth:`degrade_active` inside their fault ladders.
:meth:`invocation_deadline` / :meth:`attempt_deadline` resolve the
timeout hierarchy onto the virtual clock.

Everything here is host-side bookkeeping on simulated inputs (the one
wait is :meth:`admit`'s admission gate): no Delay, no RNG, no wall
clock — control decisions are pure functions of the virtual-time
history, so controlled runs replay bit-identically.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.control.admission import GO, AdmissionController
from repro.control.breaker import CircuitBreaker
from repro.control.config import ControlConfig
from repro.control.retry_budget import RetryBudget
from repro.control.slo import SLOTracker
from repro.obs import hooks
from repro.sim.engine import Interrupt, Simulator

#: Why an armed control plane pins a run to the serial path
#: (:mod:`repro.serverless.partition` quotes this in fallback reports).
#: Every mechanism here is *rack-global*: admission queues order
#: arrivals across all nodes, breaker state from one node's attempt
#: changes the next dispatch's candidate set anywhere, and the retry
#: budget is earned/spent in global event order.  Each dispatch
#: decision can therefore depend on any other shard's state zero
#: simulated seconds earlier — there is no lookahead to window on, and
#: sharding would require reconciling these deltas at every event,
#: i.e. running serially.  The serial fallback keeps controlled runs
#: bit-identical by construction.
PARALLEL_UNSAFE_REASON = (
    "control plane armed: admission queues, breaker state and the "
    "retry budget are rack-global couplings with zero lookahead")


class ControlPlane:
    """Overload-resilience machinery for one cluster (or platform) run."""

    def __init__(self, sim: Simulator, config: ControlConfig):
        self.sim = sim
        self.config = config
        self.slo = SLOTracker(config)
        self.admission = AdmissionController(sim, config, self.slo)
        self.budget = RetryBudget(config.retry_budget)
        self._node_breakers: Dict[str, CircuitBreaker] = {}
        self._pool_breakers: Dict[Tuple[str, str], CircuitBreaker] = {}
        #: reason -> count for admitted-but-never-completed invocations.
        self.abort_counts: Dict[str, int] = {}
        self.abort_log: List[Tuple[str, float, str]] = []
        self.completions = 0

    # -- admission ------------------------------------------------------------

    def admit(self, function: str, arrival: float,
              deadline: Optional[float], ctx=None) -> Generator:
        """Timed: wait at the front door for an admission slot.

        Returns None once admitted (the retry budget has earned its
        deposit and the caller holds the slot until it calls
        ``admission.release``), else the shed reason.  An interrupt
        while queued cancels the entry, so no slot is lost.
        """
        now = self.sim.now
        status, entry = self.admission.request(function, arrival, now,
                                               deadline, ctx=ctx)
        if status == "shed":
            return entry
        if status == "wait":
            try:
                signal = yield entry.gate
            except Interrupt:
                self.admission.cancel(entry)
                raise
            if signal != GO:
                return signal.split(":", 1)[1]
            tracer = hooks.tracer
            if tracer is not None:
                # The matching slot_grant link (with the granting
                # invocation as src) is emitted at release time; this
                # one records the wait itself, so the gap is
                # attributable even if the grantor was untraced.
                tracer.link("admission_wait", now, self.sim.now, dst=ctx,
                            args={"function": function})
        self.budget.earn()
        return None

    # -- breakers -------------------------------------------------------------

    def node_breaker(self, node: str) -> Optional[CircuitBreaker]:
        if self.config.node_breaker is None:
            return None
        breaker = self._node_breakers.get(node)
        if breaker is None:
            breaker = self._node_breakers[node] = CircuitBreaker(
                f"node/{node}", self.config.node_breaker)
        return breaker

    def pool_breaker(self, node: str, pool: str
                     ) -> Optional[CircuitBreaker]:
        if self.config.pool_breaker is None:
            return None
        key = (node, pool)
        breaker = self._pool_breakers.get(key)
        if breaker is None:
            breaker = self._pool_breakers[key] = CircuitBreaker(
                f"pool/{node}/{pool}", self.config.pool_breaker)
        return breaker

    def filter_candidates(self, platforms: Sequence, now: float) -> List:
        """Drop candidates whose dispatch breaker refuses traffic.

        Order is preserved (policies depend on it).  This is a
        non-claiming preview (:meth:`CircuitBreaker.would_allow`): no
        probe slots are taken, so unpicked candidates leak nothing.
        After the policy picks one candidate, the caller must claim the
        actual grant via :meth:`claim_attempt` and then report the
        outcome via :meth:`observe_attempt`.
        """
        if self.config.node_breaker is None:
            return list(platforms)
        allowed = []
        for platform in platforms:
            breaker = self.node_breaker(platform.node.name)
            if breaker.would_allow(now):
                allowed.append(platform)
        return allowed

    def claim_attempt(self, node: str, now: float) -> bool:
        """Claim the dispatch grant for the *picked* node.

        In the half-open state this takes one probe slot, which the
        caller must settle via :meth:`observe_attempt`.  Returns False
        if the breaker refuses (state moved since the preview).
        """
        breaker = self.node_breaker(node)
        return True if breaker is None else breaker.allow(now)

    def claim_pick(self, policy, candidates: Sequence, function: str,
                   now: float) -> Tuple[Optional[object], Optional[str]]:
        """Pick a dispatch target and claim its breaker grant.

        The preview (:meth:`filter_candidates`) drops the nodes whose
        breaker refuses traffic; ``policy`` then picks among the rest,
        and only the picked node's grant is claimed
        (:meth:`claim_attempt`).  A lost claim (state moved since the
        preview) removes that node and the policy picks again.  Returns
        ``(platform, None)``, or ``(None, reason)`` with reason
        ``"breaker-open"`` (the preview refused every node) or
        ``"claim-race"`` (every claim was lost).
        """
        allowed = self.filter_candidates(candidates, now)
        if not allowed:
            return None, "breaker-open"
        while allowed:
            pick = policy.pick(allowed, function)
            if self.claim_attempt(pick.node.name, now):
                return pick, None
            allowed.remove(pick)
        return None, "claim-race"

    def observe_attempt(self, node: str, now: float, ok: bool,
                        latency: float) -> None:
        """Feed one dispatch attempt's outcome to the node breaker."""
        breaker = self.node_breaker(node)
        if breaker is not None:
            breaker.record(now, ok, latency)

    def settle_attempt(self, node: str) -> None:
        """Settle a claimed grant without recording an outcome.

        For attempts abandoned for node-agnostic reasons (the
        invocation's own deadline): returns any half-open probe slot
        taken by :meth:`claim_attempt` so it cannot leak.
        """
        breaker = self.node_breaker(node)
        if breaker is not None:
            breaker.release_probe()

    # -- SLO + completion accounting ------------------------------------------

    def observe_result(self, function: str, now: float, e2e: float
                       ) -> None:
        self.completions += 1
        self.slo.observe(function, now, e2e)

    def record_abort(self, function: str, arrival: float, now: float,
                     reason: str) -> str:
        """An admitted invocation was given up on (deadline, budget...)."""
        self.abort_counts[reason] = self.abort_counts.get(reason, 0) + 1
        self.abort_log.append((function, arrival, reason))
        registry = hooks.registry
        if registry is not None:
            registry.inc("aborts_total", function=function, reason=reason)
        tracer = hooks.tracer
        if tracer is not None:
            tracer.instant("abort", now,
                           args={"function": function, "reason": reason})
        return reason

    def degrade_active(self, now: float) -> bool:
        """Platforms: skip pool retries, degrade immediately."""
        return self.slo.degrade_active(now)

    # -- timeout hierarchy ----------------------------------------------------

    def invocation_deadline(self, arrival: float) -> Optional[float]:
        per_inv = self.config.timeouts.per_invocation
        return None if per_inv is None else arrival + per_inv

    def attempt_deadline(self, now: float,
                         invocation_deadline: Optional[float]
                         ) -> Optional[float]:
        """Absolute deadline of an attempt starting at ``now``.

        The per-attempt timeout never extends past the invocation
        deadline (the hierarchy is nested, not parallel).
        """
        per_att = self.config.timeouts.per_attempt
        if per_att is None:
            return invocation_deadline
        deadline = now + per_att
        if invocation_deadline is not None:
            deadline = min(deadline, invocation_deadline)
        return deadline

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict:
        """Deterministic run summary (sorted keys throughout)."""
        return {
            "admission": self.admission.summary(),
            "aborts": dict(sorted(self.abort_counts.items())),
            "completions": self.completions,
            "retry_budget": self.budget.summary(),
            "node_breakers": {
                name: b.summary()
                for name, b in sorted(self._node_breakers.items())},
            "pool_breakers": {
                f"{node}/{pool}": b.summary()
                for (node, pool), b in sorted(self._pool_breakers.items())},
            "slo": self.slo.report(self.sim.now),
        }
