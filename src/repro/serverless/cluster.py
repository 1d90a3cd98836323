"""Multi-node cluster: several hosts, one rack-level memory pool.

§8.2: "TrEnv reduces the overall memory footprint by enabling
cross-machine-intra-rack deduplication.  Only one copy is needed per
rack if it is read-only, reducing the cost by a factor of the number of
machines (~10)."  The cluster shares one simulator across nodes (one
virtual clock) and dispatches invocations by policy.

Dispatch is a per-invocation hot path: at trace scale (10 nodes x 100k
invocations) the naive policies rescan every node per decision.  The
state-reading built-in policies are instead served from incrementally
maintained indices — a per-function warm-instance map fed by
:class:`~repro.serverless.base.WarmPool` change notifications and a
load-keyed lazy heap fed by
:class:`~repro.sim.cpu.FairShareCPU` load notifications — with the
O(nodes) scan kept for the other policies, for re-dispatch with
excluded nodes and for runs with the control plane armed.  Index picks
are defined to equal the scan picks exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.control.config import ControlConfig
from repro.control.plane import ControlPlane
from repro.faults.errors import (AttemptTimeoutError, DeadlineExceededError,
                                 NodeCrashedError)
from repro.node import Node
from repro.obs import hooks
from repro.serverless.base import ServerlessPlatform
from repro.serverless.metrics import LatencyRecorder
from repro.sim.engine import Delay, Interrupt, Simulator
from repro.workloads.functions import function_by_name
from repro.workloads.synthetic import Workload


class DispatchPolicy:
    """Chooses a host for each invocation."""

    name = "base"

    def pick(self, platforms: Sequence[ServerlessPlatform],
             function: str) -> ServerlessPlatform:
        raise NotImplementedError

    def static_assignment(self, n_events: int,
                          n_nodes: int) -> Optional[List[int]]:
        """Event-index -> node-index map, when it is a pure function of
        arrival order.

        Policies that consult live cluster state (warm pools, CPU
        loads) return None: their picks depend on the interleaved
        global timeline, so a sharded run cannot reproduce them without
        zero-lookahead synchronisation and
        :mod:`repro.serverless.partition` falls back to the serial
        path instead.
        """
        return None


class RoundRobin(DispatchPolicy):
    name = "round-robin"

    def __init__(self):
        self._next = 0

    def pick(self, platforms, function):
        platform = platforms[self._next % len(platforms)]
        # Wrap at increment so the cursor stays bounded over
        # million-invocation runs instead of growing without limit.
        self._next = (self._next + 1) % len(platforms)
        return platform

    def static_assignment(self, n_events: int, n_nodes: int) -> List[int]:
        # With every node healthy the cursor walks the full platform
        # list, so invocation i lands on node i mod N independent of
        # any runtime state — the property that makes a round-robin
        # cluster run statically partitionable.
        return [i % n_nodes for i in range(n_events)]


def _load_key(platform: ServerlessPlatform) -> Tuple[int, str]:
    """Least-loaded ordering: runnable tasks, then node name.

    The explicit name tie-break makes the choice independent of the
    candidate list's construction order — required for the dispatch
    index (a heap) to reproduce the scan exactly.
    """
    return (platform.node.cpu.load, platform.node.name)


class LeastLoaded(DispatchPolicy):
    """Send to the host with the fewest runnable CPU tasks."""

    name = "least-loaded"

    def pick(self, platforms, function):
        return min(platforms, key=_load_key)


class WarmAffinity(DispatchPolicy):
    """Prefer a host holding a warm instance of the function; fall back
    to least-loaded.  This is what production schedulers approximate."""

    name = "warm-affinity"

    def pick(self, platforms, function):
        for platform in platforms:
            if platform.warm.has(function):
                return platform
        return min(platforms, key=_load_key)


#: Built-in policies by registry name — the one table every surface
#: (sweep grid, parallel runner specs, CLI) resolves names against.
POLICIES: Dict[str, type] = {
    RoundRobin.name: RoundRobin,
    LeastLoaded.name: LeastLoaded,
    WarmAffinity.name: WarmAffinity,
}


def make_policy(name: str) -> DispatchPolicy:
    """Instantiate a built-in policy by its registry name."""
    try:
        return POLICIES[name]()
    except KeyError:
        raise ValueError(f"unknown policy {name!r}; "
                         f"known: {tuple(sorted(POLICIES))}") from None


class _DispatchIndex:
    """Incrementally maintained indices behind the built-in policies.

    * ``_warm``: function -> {platform index: warm count}, updated by
      :attr:`WarmPool.on_change` on every put/take/remove/clear.  The
      warm-affinity pick is the smallest non-crashed holder index, which
      equals the first hit of the platform-order scan.
    * ``_loads``: a lazy heap of ``(load, node name, index)`` entries,
      pushed by :attr:`FairShareCPU.on_load_change` on every runnable
      count change.  Stale entries (load no longer current) are popped
      at pick time; crashed holders are skipped but re-pushed so they
      rejoin the order on recovery.

    ``pick`` returns None whenever the fast path cannot answer exactly
    (unindexed policy, every node down) and the caller falls back to
    the O(nodes) scan.
    """

    def __init__(self, platforms: Sequence[ServerlessPlatform]):
        self._platforms = list(platforms)
        self._warm: Dict[str, Dict[int, int]] = {}
        self._loads: List[Tuple[int, str, int]] = []
        for idx, platform in enumerate(self._platforms):
            cpu = platform.node.cpu
            cpu.on_load_change = (
                lambda load, i=idx: self._on_load(i, load))
            platform.warm.on_change = (
                lambda fn, count, i=idx: self._on_warm(i, fn, count))
            heapq.heappush(self._loads,
                           (cpu.load, platform.node.name, idx))
            for fn, count in sorted(platform.warm.function_counts().items()):
                self._warm.setdefault(fn, {})[idx] = count

    def _on_load(self, idx: int, load: int) -> None:
        heapq.heappush(self._loads,
                       (load, self._platforms[idx].node.name, idx))

    def _on_warm(self, idx: int, function: str, count: int) -> None:
        holders = self._warm.setdefault(function, {})
        if count:
            holders[idx] = count
        else:
            holders.pop(idx, None)

    def _pick_warm(self, function: str) -> Optional[ServerlessPlatform]:
        holders = self._warm.get(function)
        if not holders:
            return None
        best = -1
        for idx in holders:
            if (best < 0 or idx < best) and \
                    not self._platforms[idx].crashed:
                best = idx
        return self._platforms[best] if best >= 0 else None

    def _pick_least_loaded(self) -> Optional[ServerlessPlatform]:
        heap = self._loads
        crashed_entries = []
        chosen = None
        while heap:
            load, _name, idx = heap[0]
            platform = self._platforms[idx]
            if load != platform.node.cpu.load:
                heapq.heappop(heap)            # stale snapshot
                continue
            if platform.crashed:
                crashed_entries.append(heapq.heappop(heap))
                continue
            chosen = platform                  # current + healthy: keep it
            break
        for entry in crashed_entries:          # rejoin on recovery
            heapq.heappush(heap, entry)
        return chosen

    def pick(self, policy: DispatchPolicy,
             function: str) -> Optional[ServerlessPlatform]:
        # Exact types only: a subclass may have changed pick semantics.
        if type(policy) is WarmAffinity:
            platform = self._pick_warm(function)
            if platform is not None:
                return platform
            return self._pick_least_loaded()
        if type(policy) is LeastLoaded:
            return self._pick_least_loaded()
        return None


@dataclass
class ClusterResult:
    """Aggregated outcome of one cluster workload run."""

    recorder: LatencyRecorder
    per_node_peak_mb: List[float]
    total_peak_mb: float
    pool_used_mb: float
    dispatch_counts: Dict[str, int]
    duration: float
    #: LatencyRecorder.availability() of the merged recorder.
    availability: Dict[str, float] = field(default_factory=dict)
    redispatches: int = 0
    node_crashes: int = 0
    #: (function, arrival, reason) for invocations that never completed.
    failed: List[Tuple[str, float, str]] = field(default_factory=list)
    #: ControlPlane.summary() when the control plane was armed, else None.
    control: Optional[Dict] = None


class Cluster:
    """N hosts driven by one simulator, dispatching one workload.

    Dispatch is failure-aware: crashed nodes are blacklisted, in-flight
    invocations on a crashing node are interrupted and re-dispatched to
    a surviving host, and a recovered node rejoins the candidate set on
    the next dispatch decision (see repro.faults)."""

    #: Pause before re-scanning when every node is down (simulated s).
    redispatch_wait = 0.05
    #: Per-invocation dispatch-attempt budget before declaring failure.
    max_dispatch_attempts = 200

    def __init__(self, platforms: Sequence[ServerlessPlatform],
                 policy: Optional[DispatchPolicy] = None,
                 control: Optional[ControlConfig] = None):
        if not platforms:
            raise ValueError("cluster needs at least one platform")
        sims = {id(p.node.sim) for p in platforms}
        if len(sims) != 1:
            raise ValueError("all cluster nodes must share one Simulator")
        self.platforms = list(platforms)
        self._by_name = {p.node.name: p for p in self.platforms}
        if len(self._by_name) != len(self.platforms):
            raise ValueError("cluster node names must be unique")
        self.sim: Simulator = platforms[0].node.sim
        self.policy = policy or WarmAffinity()
        # The control plane is armed by config presence, never a flag:
        # with control=None (the default) the one dispatch generator
        # skips every control step, and an armed plane with every knob
        # open gives the same simulated run (TestArmedButPermissive).
        self.control_plane: Optional[ControlPlane] = None
        if control is not None:
            self.control_plane = ControlPlane(self.sim, control)
            for platform in self.platforms:
                platform.control = self.control_plane
        # Built for the state-reading policies of an uncontrolled rack
        # only: breaker filtering changes the candidate set, so index
        # picks would not equal a controlled run's picks.
        self._index: Optional[_DispatchIndex] = (
            _DispatchIndex(self.platforms)
            if control is None
            and type(self.policy) in (WarmAffinity, LeastLoaded)
            else None)
        self.dispatch_counts: Dict[str, int] = {}
        self.redispatches = 0
        self.node_crashes = 0
        self.attempt_timeouts = 0
        #: (function, arrival, reason) for invocations we gave up on.
        self.failed: List[Tuple[str, float, str]] = []
        self._inflight: List[Dict] = []

    # -- failure handling ---------------------------------------------------

    def healthy_platforms(self) -> List[ServerlessPlatform]:
        return [p for p in self.platforms if not p.crashed]

    def crash_node(self, name: str) -> None:
        """Untimed: fail a node; interrupt its in-flight invocations so
        the dispatcher re-dispatches them to surviving hosts."""
        platform = self._by_name.get(name)
        if platform is None:
            raise KeyError(f"crash_node: unknown node {name!r}")
        if platform.crashed:
            return
        self.node_crashes += 1
        platform.crash()
        for slot in self._inflight:
            if slot["node"] == name and slot["waiter"] is not None:
                slot["waiter"].interrupt(NodeCrashedError(name))

    def recover_node(self, name: str) -> None:
        platform = self._by_name.get(name)
        if platform is None:
            raise KeyError(f"recover_node: unknown node {name!r}")
        platform.recover()

    # -- control-plane deadline watchdog -----------------------------------

    def _arm_watchdog(self, slot: Dict, deadline: float,
                      gen: Optional[int] = None) -> None:
        """Interrupt the slot's invocation at ``deadline``.

        With ``gen`` None the timer is the invocation's own deadline
        (:class:`DeadlineExceededError`); otherwise it times out the
        attempt of that generation (:class:`AttemptTimeoutError`).  The
        guards are the slot's ``alive`` flag (cleared on every exit
        path) and its ``gen`` counter (bumped when an attempt ends), so
        a watchdog outliving what it guards is a no-op — the classic
        stale-timer hazard of ``call_at`` callbacks.
        """
        def fire():
            waiter = slot["waiter"]
            if not slot["alive"] or waiter is None:
                return
            if gen is None:
                waiter.interrupt(DeadlineExceededError("invocation",
                                                       deadline))
            elif slot["gen"] == gen:
                waiter.interrupt(AttemptTimeoutError("attempt", deadline))
        self.sim.call_at(deadline, fire)

    # -- rack-level accounting ----------------------------------------------

    def rack_pool_used_mb(self) -> float:
        """Pool usage of the whole rack, not just the first node.

        Platforms sharing one pool object (the TrEnv rack: one CXL
        device per rack) are counted once; distinct pools (mixed racks)
        are summed.  This definition is a pure function of the set of
        pools, so serial and sharded runs agree by construction.
        """
        seen: Dict[int, float] = {}
        for platform in self.platforms:
            pool = getattr(platform, "pool", None)
            if pool is not None:
                seen[id(pool)] = pool.used_bytes
        return sum(seen.values()) / (1 << 20)

    # -- workload driving ---------------------------------------------------

    def prepare_workload(self, workload: Workload,
                         warmup: Optional[float] = None) -> float:
        """Untimed preprocessing: registration and per-run knobs.

        Idempotent — :meth:`run_workload` always calls it, but callers
        that must keep registration-time effects (pool/store writes,
        registration RNG draws) outside an observation window can call
        it first themselves, making the in-run call a no-op (the
        parallel runner does this so every shard's registry covers the
        timed run only).  Returns the effective warmup cutoff.
        """
        chosen_warmup = workload.warmup if warmup is None else warmup
        # Derive the function set once, not per platform, and resolve
        # each missing name at most once for the whole rack.  Names are
        # looked up only when a platform lacks them — pre-registered
        # bench-local profiles never hit the global table.
        needed = workload.functions_used()
        resolved: Dict = {}
        for platform in self.platforms:
            platform.keep_alive = workload.keep_alive
            platform.recorder.warmup = chosen_warmup
            platform.node.memory.soft_cap_bytes = workload.soft_cap_bytes
            for name in needed:
                if name not in platform.functions:
                    profile = resolved.get(name)
                    if profile is None:
                        profile = resolved[name] = function_by_name(name)
                    platform.register_function(profile)
        return chosen_warmup

    def run_workload(self, workload: Workload,
                     warmup: Optional[float] = None) -> ClusterResult:
        chosen_warmup = self.prepare_workload(workload, warmup)
        tracer0 = hooks.tracer
        if tracer0 is not None:
            # Pin node->pid to rack order before any dispatch: every
            # parallel shard worker rebuilds the same rack and prebinds
            # identically, so serial and merged shard traces agree on
            # pids by construction (first-bind order would depend on
            # which events a worker owns).
            tracer0.prebind_nodes(p.node.name for p in self.platforms)

        def dispatch(event, slot):
            """One invocation, arrival to completion or failure.

            With a control plane armed, the control steps run around the
            plain attempt loop: admission in front, the invocation and
            attempt deadline watchdogs, breaker-filtered picks (never
            from the dispatch index, which is then not built: breaker
            filtering changes the candidate set), attempt outcomes fed
            to the breakers and budget-gated re-dispatch.  Without one,
            every control step is skipped.
            """
            plane = self.control_plane
            sim = self.sim
            tracer = hooks.tracer
            ctx = None
            if tracer is not None:
                ctx = tracer.begin(event.function, sim.now)
            try:
                deadline = None
                if plane is not None:
                    deadline = plane.invocation_deadline(event.time)
                    shed = yield from plane.admit(event.function,
                                                  event.time, deadline, ctx)
                    if shed is not None:
                        self.failed.append((event.function, event.time,
                                            f"shed:{shed}"))
                        return
                    # Admitted: the slot is ours until every exit below.
                    slot["alive"] = True
                    if deadline is not None:
                        self._arm_watchdog(slot, deadline)
                abort_reason = "dispatch-budget"
                try:
                    excluded: set = set()
                    for _attempt in range(self.max_dispatch_attempts):
                        t_att = sim.now
                        if deadline is not None and t_att >= deadline:
                            abort_reason = "deadline"
                            break
                        platform = None
                        if self._index is not None and not excluded:
                            platform = self._index.pick(self.policy,
                                                        event.function)
                        if platform is None:
                            candidates = [p for p in self.platforms
                                          if not p.crashed
                                          and p.node.name not in excluded]
                            if not candidates:
                                backoff = "all-down"
                            elif plane is None:
                                platform = self.policy.pick(candidates,
                                                            event.function)
                            else:
                                platform, backoff = plane.claim_pick(
                                    self.policy, candidates, event.function,
                                    t_att)
                            if platform is None:
                                # Whole rack down, every breaker open or
                                # every claim lost: wait, then rescan
                                # every node.
                                excluded.clear()
                                yield Delay(self.redispatch_wait)
                                if tracer is not None:
                                    tracer.link("backoff", t_att, sim.now,
                                                dst=ctx,
                                                args={"reason": backoff})
                                continue
                        key = platform.node.name
                        self.dispatch_counts[key] = (
                            self.dispatch_counts.get(key, 0) + 1)
                        slot["node"] = key
                        if hooks.on_dispatch is not None:
                            hooks.on_dispatch(key)
                        if tracer is not None:
                            tracer.bind(ctx, key)
                            tracer.span(ctx, "dispatch", t_att, sim.now,
                                        args=tracer.shared_args(
                                            node=key, attempt=_attempt))
                        if plane is not None:
                            att_deadline = plane.attempt_deadline(t_att,
                                                                  deadline)
                            if att_deadline is not None \
                                    and att_deadline > t_att:
                                self._arm_watchdog(slot, att_deadline,
                                                   gen=slot["gen"])
                        try:
                            result = yield from platform.invoke(
                                event.function, arrival=event.time, ctx=ctx)
                            if plane is not None:
                                plane.observe_attempt(key, sim.now, True,
                                                      sim.now - t_att)
                                plane.observe_result(event.function, sim.now,
                                                     result.e2e)
                            return
                        except NodeCrashedError:
                            if plane is not None:
                                plane.observe_attempt(key, sim.now, False,
                                                      sim.now - t_att)
                            excluded.add(key)
                            self.redispatches += 1
                            registry = hooks.registry
                            if registry is not None:
                                registry.inc("redispatches_total")
                            if tracer is not None:
                                tracer.instant("redispatch", sim.now,
                                               ctx=ctx, args={"from": key})
                                tracer.link("crash_redispatch", t_att,
                                            sim.now, dst=ctx,
                                            args={"from": key})
                            if plane is not None and \
                                    not plane.budget.try_spend("redispatch"):
                                abort_reason = "retry-budget"
                                break
                        except AttemptTimeoutError:
                            plane.observe_attempt(key, sim.now, False,
                                                  sim.now - t_att)
                            excluded.add(key)
                            self.attempt_timeouts += 1
                            registry = hooks.registry
                            if registry is not None:
                                registry.inc("attempt_timeouts_total",
                                             node=key)
                            if not plane.budget.try_spend(
                                    "attempt-timeout"):
                                abort_reason = "retry-budget"
                                break
                        except DeadlineExceededError:
                            # The *invocation* ran out of total time —
                            # that does not implicate this node, so do
                            # not feed its breaker a failure (it would
                            # open breakers on healthy nodes under
                            # broad overload).  Settle the half-open
                            # probe slot claimed for this attempt, if
                            # any, without recording an outcome.
                            plane.settle_attempt(key)
                            abort_reason = "deadline"
                            break
                        finally:
                            slot["node"] = None
                            slot["gen"] += 1   # disarm attempt watchdog
                except Interrupt as intr:
                    # A deadline fired while this task sat between
                    # attempts (backoff / rescan Delay).
                    if not isinstance(intr.cause, DeadlineExceededError):
                        raise
                    abort_reason = "deadline"
                finally:
                    if plane is not None:
                        slot["alive"] = False
                        plane.admission.release(event.function, sim.now,
                                                ctx=ctx)
                # Only failures reach here (success returned above).
                if plane is None:
                    self.failed.append((event.function, event.time,
                                        "dispatch budget exhausted"))
                    if tracer is not None:
                        tracer.instant("dispatch_failed", sim.now,
                                       args={"function": event.function})
                else:
                    plane.record_abort(event.function, event.time, sim.now,
                                       abort_reason)
                    self.failed.append((event.function, event.time,
                                        f"abort:{abort_reason}"))
            finally:
                if tracer is not None:
                    tracer.finish(ctx, sim.now)

        # One queue entry per invocation, scheduled directly at its
        # arrival time; sequence numbers are assigned in event order.
        slots: List[Dict] = []
        now = self.sim.now

        def schedule():
            for e in workload.events:
                slot = {"node": None, "waiter": None,
                        "alive": False, "gen": 0}
                slots.append(slot)
                yield (max(now, e.time), dispatch(e, slot))

        waiters = self.sim.spawn_at_many(schedule())
        for slot, waiter in zip(slots, waiters):
            slot["waiter"] = waiter
        self._inflight = slots
        self.sim.run()
        if any(not w.done for w in waiters):
            raise RuntimeError("cluster run left invocations unfinished")

        merged = LatencyRecorder(
            warmup=chosen_warmup,
            keep_results=all(p.recorder.keep_results
                             for p in self.platforms))
        for platform in self.platforms:
            merged.merge_from(platform.recorder)
        for function, when, reason in self.failed:
            merged.record_failure(function, when, reason)
        peaks = [p.node.memory.peak_bytes / (1 << 20)
                 for p in self.platforms]
        pool_mb = self.rack_pool_used_mb()
        control_summary = None
        if self.control_plane is not None:
            control_summary = self.control_plane.summary()
            control_summary["attempt_timeouts"] = self.attempt_timeouts
        return ClusterResult(
            recorder=merged,
            per_node_peak_mb=peaks,
            total_peak_mb=sum(peaks),
            pool_used_mb=pool_mb,
            dispatch_counts=dict(sorted(self.dispatch_counts.items())),
            duration=self.sim.now,
            availability=merged.availability(),
            redispatches=self.redispatches,
            node_crashes=self.node_crashes,
            failed=list(self.failed),
            control=control_summary,
        )


def make_trenv_cluster(n_nodes: int, pool, store=None, seed: int = 0,
                       cores: int = 64,
                       policy: Optional[DispatchPolicy] = None,
                       config=None, fallback_pool=None,
                       control: Optional[ControlConfig] = None) -> Cluster:
    """A rack of TrEnv hosts sharing one memory pool and dedup store.

    ``fallback_pool`` (e.g. a NASPool) becomes every host's degradation
    target should the shared pool go offline mid-run.  ``control`` arms
    the overload control plane (:mod:`repro.control`); None (default)
    makes the dispatch generator skip every control step."""
    from repro.core.platform import TrEnvPlatform
    from repro.mem.pools import DedupStore

    sim = Simulator()
    store = store or DedupStore(pool)
    platforms = []
    for i in range(n_nodes):
        node = Node(sim=sim, cores=cores, seed=seed + i, name=f"node{i}")
        platform = TrEnvPlatform(node, pool, store=store, config=config,
                                 name=f"t-cxl-n{i}", seed=seed + i)
        if fallback_pool is not None:
            platform.set_fallback_pool(fallback_pool)
        platforms.append(platform)
    return Cluster(platforms, policy=policy, control=control)
