"""Admission control: concurrency caps, bounded queues, load shedding.

Sits at the front door of the cluster dispatcher.  Each function has a
rack-wide in-flight cap (:meth:`ControlConfig.concurrency_for`); work
beyond the cap waits in a bounded per-function pending queue, and work
beyond the queue is *shed* — deterministically, per the configured drop
policy:

* ``drop-newest`` — reject the arriving invocation (classic tail drop);
* ``drop-oldest`` — evict the head of the queue and admit the newcomer
  (adaptive LIFO: under overload the freshest request is the one whose
  client is still waiting);
* ``deadline`` — evict the candidate (queued or arriving) with the
  least deadline slack: it is the most likely to be wasted work anyway;
* ``priority`` — evict the least important candidate (highest priority
  number), newest first on ties.

A queued invocation's gate is a one-shot simulator :class:`Event`; on
release the slot is handed directly to the next runnable entry, so
admission never over-subscribes and never loses a slot.  Entries whose
per-invocation deadline passed while queued are shed (``expired``) at
hand-off time rather than dispatched into certain failure.  Burn-rate
shedding (:meth:`SLOTracker.shed_active`) rejects at the door before
any queueing.

Everything is driven by the virtual clock and insertion order — no RNG,
no wall time — so shed decisions are bit-identical across runs.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.control.config import ControlConfig
from repro.control.slo import SLOTracker
from repro.obs import hooks
from repro.sim.engine import Event, Simulator

#: Gate payloads: the dispatcher waits on entry.gate and receives one.
GO = "go"


class PendingEntry:
    """One queued invocation waiting for an admission slot."""

    __slots__ = ("function", "arrival", "deadline", "priority", "seq",
                 "gate", "ctx", "t_enq")

    def __init__(self, function: str, arrival: float,
                 deadline: Optional[float], priority: int, seq: int,
                 gate: Event, ctx=None, t_enq: float = 0.0):
        self.function = function
        self.arrival = arrival
        self.deadline = deadline
        self.priority = priority
        self.seq = seq
        self.gate = gate
        self.ctx = ctx
        self.t_enq = t_enq


class AdmissionController:
    """Per-function concurrency gate with deterministic shedding."""

    def __init__(self, sim: Simulator, config: ControlConfig,
                 slo: SLOTracker):
        self.sim = sim
        self.config = config
        self.slo = slo
        self._inflight: Dict[str, int] = {}
        self._queues: Dict[str, List[PendingEntry]] = {}
        self._seq = itertools.count()
        self.admitted = 0
        self.queued = 0
        #: reason -> count, and the full (function, arrival, reason) log.
        self.shed_counts: Dict[str, int] = {}
        self.shed_log: List[Tuple[str, float, str]] = []

    # -- arrival side ---------------------------------------------------------

    def request(self, function: str, arrival: float, now: float,
                deadline: Optional[float], ctx=None
                ) -> Tuple[str, Optional[PendingEntry]]:
        """Ask for a slot.  Returns one of:

        * ``("admit", None)`` — go now;
        * ``("wait", entry)`` — yield ``entry.gate``; its payload is
          :data:`GO` (slot handed over) or ``"shed:<reason>"``;
        * ``("shed", reason)`` — rejected outright.
        """
        if self.slo.shed_active(function, now):
            return "shed", self._shed(function, arrival, now, "burn")
        limit = self.config.concurrency_for(function)
        if limit is None:
            self.admitted += 1
            return "admit", None
        running = self._inflight.get(function, 0)
        if running < limit:
            self._inflight[function] = running + 1
            self.admitted += 1
            return "admit", None
        queue = self._queues.setdefault(function, [])
        entry = PendingEntry(function, arrival, deadline,
                             self.config.priority_for(function),
                             next(self._seq), self.sim.event(),
                             ctx=ctx, t_enq=now)
        if len(queue) < self.config.queue_capacity:
            queue.append(entry)
            self.queued += 1
            return "wait", entry
        victim = self._pick_victim(queue, entry)
        if victim is entry:
            return "shed", self._shed(function, arrival, now, "queue-full")
        queue.remove(victim)
        victim.gate.trigger("shed:" + self._shed(
            victim.function, victim.arrival, now, "evicted"))
        queue.append(entry)
        self.queued += 1
        return "wait", entry

    def _pick_victim(self, queue: List[PendingEntry],
                     newcomer: PendingEntry) -> PendingEntry:
        policy = self.config.shed_policy
        if policy == "drop-newest":
            return newcomer
        if policy == "drop-oldest":
            # queue_capacity=0 means no queue at all: the newcomer is
            # the only candidate there is.
            return queue[0] if queue else newcomer
        candidates = queue + [newcomer]
        if policy == "deadline":
            # Least slack first; deadline-less entries are never wasted
            # work, so they lose only to each other (then: newest).
            return min(candidates,
                       key=lambda e: (e.deadline is None,
                                      e.deadline if e.deadline is not None
                                      else -e.seq))
        # priority: least important loses; newest first on ties.
        return max(candidates, key=lambda e: (e.priority, e.seq))

    def _shed(self, function: str, arrival: float, now: float,
              reason: str) -> str:
        self.shed_counts[reason] = self.shed_counts.get(reason, 0) + 1
        self.shed_log.append((function, arrival, reason))
        registry = hooks.registry
        if registry is not None:
            registry.inc("sheds_total", function=function, reason=reason)
        tracer = hooks.tracer
        if tracer is not None:
            tracer.instant("shed", now,
                           args={"function": function, "reason": reason})
        return reason

    # -- completion side ------------------------------------------------------

    def release(self, function: str, now: float, ctx=None) -> None:
        """An admitted invocation finished: hand its slot onward."""
        if self.config.concurrency_for(function) is None:
            return
        queue = self._queues.get(function)
        while queue:
            entry = queue.pop(0)
            if entry.deadline is not None and now >= entry.deadline:
                # Would miss its deadline before even starting: shed it
                # and keep the slot for the next entry.
                entry.gate.trigger("shed:" + self._shed(
                    entry.function, entry.arrival, now, "expired"))
                continue
            self.admitted += 1
            tracer = hooks.tracer
            if tracer is not None and entry.ctx is not None:
                tracer.link("slot_grant", entry.t_enq, now,
                            src=(ctx if ctx is not None else 0),
                            dst=entry.ctx,
                            args={"function": entry.function})
            entry.gate.trigger(GO)   # slot transferred, count unchanged
            return
        running = self._inflight.get(function, 0)
        self._inflight[function] = max(0, running - 1)

    def cancel(self, entry: PendingEntry) -> None:
        """A waiter was interrupted: forget it (or give back its slot).

        If the entry is still queued it simply leaves; if the slot
        arrived in the same tick as the interrupt, the slot is released
        onward.
        """
        queue = self._queues.get(entry.function)
        if queue is not None and entry in queue:
            queue.remove(entry)
        elif entry.gate.triggered and entry.gate.value == GO:
            self.release(entry.function, self.sim.now)

    # -- reporting ------------------------------------------------------------

    def queue_depth(self, function: str) -> int:
        return len(self._queues.get(function, ()))

    def total_queued_now(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def summary(self) -> dict:
        return {
            "admitted": self.admitted,
            "queued": self.queued,
            "shed": dict(sorted(self.shed_counts.items())),
            "shed_total": len(self.shed_log),
        }
