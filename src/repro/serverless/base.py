"""Platform skeleton shared by every evaluated system.

Implements the §9.1 methodology pieces that are common across faasd,
CRIU, REAP+, FaaSnap+ and TrEnv:

* the keep-alive schedule policy — finished instances stay warm for a
  fixed window (default 10 min) in an LRU pool and are reused for new
  invocations of the same function;
* memory-pressure eviction — under a soft memory cap (W2: 32 GB), LRU
  warm instances are destroyed until usage fits;
* the execution engine — an invocation replays its page-access trace
  through the instance's address space; fault handling and remote-pool
  fetches become CPU work (so they stretch under load, which is exactly
  the §9.2.2 tail-latency effect), CXL load deltas become execution time,
  and file IO flows through the platform's page-cache model.

Subclasses provide acquisition (``_acquire``), recycling (``_recycle``)
and retirement (``_retire``).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, Generator, List, Optional, Tuple

from repro.faults.errors import (DeadlineExceededError, NodeCrashedError,
                                 PoolFault, PoolUnavailableError)
from repro.faults.retry import RetryPolicy
from repro.mem.address_space import AddressSpace
from repro.mem.layout import PAGE_SIZE
from repro.mem.page_cache import FileIdRegistry, PageCache
from repro.mem.pools import MemoryPool
from repro.node import Node
from repro.obs import hooks as obs_hooks
from repro.serverless.metrics import InvocationResult, LatencyRecorder
from repro.sim.engine import Delay, Interrupt
from repro.sim.rng import SeededRNG
from repro.workloads.functions import FunctionProfile

#: IO time per freshly-read 4 KiB page cache block on the host (NVMe).
_HOST_IO_PER_PAGE = 3e-6


class Instance:
    """One live (or warm) execution environment."""

    _ids = itertools.count(1)

    def __init__(self, profile: FunctionProfile, space: AddressSpace,
                 payload: object = None):
        self.instance_id = next(Instance._ids)
        self.profile = profile
        self.space = space
        self.payload = payload          # sandbox / MicroVM / None
        self.busy = True
        self.last_used = 0.0
        self.invocations = 0
        self.retired = False
        #: Maintained by WarmPool: True while idle in the keep-alive pool.
        self.parked = False
        #: Set when acquisition had to take a fallback path because the
        #: remote pool was unreachable (see repro.faults).
        self.degraded_start = False
        #: The TraceContext of the invocation currently running on this
        #: instance (repro.obs); None whenever tracing is off or idle.
        self.obs_ctx = None

    @property
    def function(self) -> str:
        return self.profile.name


class WarmPool:
    """Keep-alive pool: per-function stacks with global LRU view.

    The LRU view is a lazy min-heap keyed ``(last_used, fseq, putseq)``:
    ``fseq`` is the order the function key first entered the pool and
    ``putseq`` a global park counter, so ties resolve exactly like the
    old full scan (function registration order, then stack position) —
    eviction victims, and therefore seeded results, are unchanged.
    Entries whose instance was taken, removed or re-parked since the push
    are detected by a stamp mismatch and dropped on the next peek, making
    ``lru_victim`` amortised O(log n) instead of O(pool size).
    """

    def __init__(self):
        self._by_function: Dict[str, List[Instance]] = {}
        self._heap: List[Tuple[float, int, int, Instance]] = []
        self._fseq: Dict[str, int] = {}
        self._putseq = itertools.count()
        self.hits = 0
        self.misses = 0
        #: Single-consumer hook: called with (function, idle count) after
        #: every change to a function's idle-instance count.  Cluster
        #: dispatch indices subscribe so WarmAffinity never scans.
        self.on_change: Optional[Callable[[str, int], None]] = None

    def has(self, function: str) -> bool:
        """Whether at least one idle instance of ``function`` is parked."""
        return bool(self._by_function.get(function))

    def count(self, function: str) -> int:
        """Number of idle instances of ``function`` in the pool."""
        return len(self._by_function.get(function, ()))

    def take(self, function: str) -> Optional[Instance]:
        stack = self._by_function.get(function)
        if stack:
            self.hits += 1
            inst = stack.pop()
            inst.busy = True
            inst.parked = False
            if self.on_change is not None:
                self.on_change(function, len(stack))
            return inst
        self.misses += 1
        return None

    def put(self, inst: Instance) -> None:
        inst.busy = False
        inst.parked = True
        stack = self._by_function.setdefault(inst.function, [])
        stack.append(inst)
        fseq = self._fseq.get(inst.function)
        if fseq is None:
            fseq = self._fseq[inst.function] = len(self._fseq)
        heapq.heappush(self._heap,
                       (inst.last_used, fseq, next(self._putseq), inst))
        if self.on_change is not None:
            self.on_change(inst.function, len(stack))

    def remove(self, inst: Instance) -> bool:
        stack = self._by_function.get(inst.function, [])
        if inst in stack:
            stack.remove(inst)
            inst.parked = False
            if self.on_change is not None:
                self.on_change(inst.function, len(stack))
            return True
        return False

    def lru_victim(self) -> Optional[Instance]:
        """The least-recently-used idle instance across all functions."""
        heap = self._heap
        while heap:
            stamp, _fseq, _putseq, inst = heap[0]
            if (inst.parked and not inst.retired
                    and inst.last_used == stamp):
                return inst
            heapq.heappop(heap)
        return None

    def idle_instances(self) -> List[Instance]:
        return [i for stack in self._by_function.values() for i in stack]

    def clear(self) -> None:
        """Drop every parked instance (node crash: warm state is lost)."""
        emptied: List[str] = []
        for function, stack in self._by_function.items():
            if stack:
                emptied.append(function)
            for inst in stack:
                inst.parked = False
        self._by_function.clear()
        self._heap.clear()
        self._fseq.clear()
        if self.on_change is not None:
            for function in emptied:
                self.on_change(function, 0)

    def function_counts(self) -> Dict[str, int]:
        """{function: idle count} for every function with idle instances."""
        return {fn: len(stack) for fn, stack in self._by_function.items()
                if stack}

    def __len__(self) -> int:
        return sum(len(s) for s in self._by_function.values())


class ServerlessPlatform:
    """Base class; subclasses implement acquisition and retirement."""

    name = "base"

    def __init__(self, node: Node, keep_alive: float = 600.0, seed: int = 0,
                 keep_alive_policy=None):
        self.node = node
        self.keep_alive = keep_alive
        #: Optional KeepAlivePolicy; None means the fixed window in
        #: ``keep_alive`` (re-read at expiry time, so the workload
        #: runner may adjust it).
        self.keep_alive_policy = keep_alive_policy
        self.functions: Dict[str, FunctionProfile] = {}
        self.warm = WarmPool()
        self.recorder = LatencyRecorder()
        self.trace_rng = SeededRNG(seed, f"{self.name}/traces")
        self.host_cache = PageCache(
            "host-cache",
            on_delta=lambda d: node.memory.charge_pages("host-page-cache", d))
        self.files = FileIdRegistry()
        self._pools_by_name: Dict[str, MemoryPool] = {}
        self._inflight_fetches = 0
        self._inv_counter = itertools.count()
        # Per-function admission control: None = unlimited.
        self._concurrency_limits: Dict[str, int] = {}
        self._running_per_function: Dict[str, int] = {}
        self._admission_queues: Dict[str, List] = {}
        # -- failure handling (repro.faults) --
        self.retry_policy = RetryPolicy()
        #: Substream for retry-backoff jitter; untouched while the
        #: policy's jitter is 0, so seeded results are unchanged.
        self.retry_rng = SeededRNG(seed, f"{self.name}/retry")
        #: Optional repro.control.ControlPlane — set by the cluster when
        #: a ControlConfig is armed; None means no control plane (the
        #: default, byte-identical to the pre-control platform).
        self.control = None
        #: Next rung of the degradation ladder after the primary pool
        #: (typically a NASPool); the final rung is a local batched copy.
        self.fallback_pool: Optional[MemoryPool] = None
        self.crashed = False
        self.crash_count = 0
        self.pool_fault_count = 0
        self.fault_retries = 0
        self.degraded_invocations = 0

    # -- registration --------------------------------------------------------------

    def register_function(self, profile: FunctionProfile) -> None:
        """Register + run platform preprocessing (snapshots, templates)."""
        self.functions[profile.name] = profile
        self._preprocess(profile)

    def _preprocess(self, profile: FunctionProfile) -> None:
        """Hook: offline preparation (untimed, §4 phase A)."""

    def register_pool(self, pool: MemoryPool) -> None:
        self._pools_by_name[pool.name] = pool

    @property
    def pools(self) -> Dict[str, MemoryPool]:
        """Public view of the registered pools (used by FaultInjector)."""
        return dict(self._pools_by_name)

    def set_fallback_pool(self, pool: MemoryPool) -> None:
        """Register ``pool`` as the degradation target for pool faults."""
        self.register_pool(pool)
        self.fallback_pool = pool

    def set_concurrency_limit(self, function: str, limit: Optional[int]
                              ) -> None:
        """Cap in-flight invocations per function (FIFO admission)."""
        if limit is not None and limit <= 0:
            raise ValueError("concurrency limit must be positive")
        if limit is None:
            self._concurrency_limits.pop(function, None)
        else:
            self._concurrency_limits[function] = limit

    # -- the invocation lifecycle -----------------------------------------------------

    def invoke(self, function: str, arrival: Optional[float] = None,
               ctx=None) -> Generator:
        """Timed: run one invocation end-to-end; returns the result.

        Pool faults are absorbed (retry with backoff, then degrade to a
        fallback path).  A node crash mid-invocation surfaces as a typed
        :class:`NodeCrashedError` so a cluster dispatcher can re-dispatch
        the work elsewhere.

        ``ctx`` is an optional :class:`repro.obs.trace.TraceContext`
        threaded down from a dispatcher; with tracing on and no context
        given, the invocation opens (and closes) its own.  Observability
        is host-side only: no branch below adds simulated time.
        """
        if self.crashed:
            raise NodeCrashedError(self.node.name)
        profile = self.functions[function]
        arrival = self.node.now if arrival is None else arrival
        if self.keep_alive_policy is not None:
            self.keep_alive_policy.observe_arrival(function, arrival)
        inv_idx = next(self._inv_counter)
        t0 = self.node.now
        obs = obs_hooks.active
        tracer = obs.tracer if obs is not None else None
        own_ctx = False
        if tracer is not None:
            if ctx is None:
                ctx = tracer.begin(function, t0)
                own_ctx = True
            if not ctx.bound:
                tracer.bind(ctx, self.node.name)
        else:
            ctx = None   # stale context from a since-removed observer
        inst: Optional[Instance] = None
        try:
            yield from self._admit(function, ctx)
            queue_wait = self.node.now - t0
            t_acquire = self.node.now
            inst = self.warm.take(function)
            if inst is not None:
                kind = "warm"
                inst.obs_ctx = ctx
                yield from self._warm_resume(inst)
                if tracer is not None:
                    tracer.span(ctx, "warm_hit", t_acquire, self.node.now)
            else:
                inst, kind = yield from self._acquire(profile, ctx)
                inst.obs_ctx = ctx
                if obs is not None and tracer is not None:
                    tracer.span(ctx, "acquire", t_acquire, self.node.now,
                                args=obs.kind_args(kind))
            startup = self.node.now - t_acquire
            t1 = self.node.now
            retries, degraded = yield from self.execute(inst, profile, inv_idx)
            exec_lat = self.node.now - t1
            inst.last_used = self.node.now
            inst.invocations += 1
            t_teardown = self.node.now
            yield from self._recycle(inst)
            if tracer is not None:
                tracer.span(ctx, "teardown", t_teardown, self.node.now)
            self._release(function, ctx)
            self._apply_memory_pressure()
        except Interrupt as intr:
            # The node died under us: drop whatever was half-built and
            # re-raise as a typed crash for the dispatcher.
            self._abort_crashed_instance(inst)
            if tracer is not None:
                tracer.instant("interrupted", self.node.now, ctx=ctx,
                               args={"function": function})
                if own_ctx:
                    tracer.finish(ctx, self.node.now)
            cause = intr.cause
            if not isinstance(cause,
                              (NodeCrashedError, DeadlineExceededError)):
                # Unattributed interrupt: treat as a crash (historical
                # behaviour).  Deadline interrupts pass through typed so
                # the dispatcher can tell "host died" from "out of
                # time" — only the former is worth re-dispatching.
                cause = NodeCrashedError(self.node.name)
            raise cause from None
        finally:
            if inst is not None:
                inst.obs_ctx = None
        degraded = degraded or inst.degraded_start
        inst.degraded_start = False   # one-shot: only this start was degraded
        if degraded:
            self.degraded_invocations += 1
        self.fault_retries += retries
        result = InvocationResult(function=function, arrival=arrival,
                                  start_kind=kind, startup=startup,
                                  exec=exec_lat,
                                  e2e=self.node.now - t0,
                                  queue=queue_wait,
                                  retries=retries, degraded=degraded)
        self.recorder.record(result)
        if obs is not None:
            obs.on_invocation(self.name, result)
            if tracer is not None:
                if queue_wait > 0:
                    tracer.span(ctx, "queue", t0, t0 + queue_wait)
                tracer.span(ctx, function, t0, self.node.now,
                            cat="invocation",
                            args={"kind": kind, "queue": queue_wait,
                                  "retries": retries,
                                  "degraded": degraded})
                if own_ctx:
                    tracer.finish(ctx, self.node.now)
        return result

    def _abort_crashed_instance(self, inst: Optional[Instance]) -> None:
        """Untimed cleanup for an instance lost to a node crash."""
        if inst is None or inst.retired:
            return
        inst.retired = True
        inst.space.destroy()

    def _admit(self, function: str, ctx=None):
        """Timed: wait for an admission slot if the function is capped.
        The slot is handed directly to the next waiter on release, so
        admission is strictly FIFO and never over-subscribes.

        ``ctx`` rides along on the queue entry so the eventual grantor
        can emit a causal ``slot_grant`` link (who the queue wait was
        actually waiting on) — a host-side annotation only.
        """
        limit = self._concurrency_limits.get(function)
        if limit is None:
            return
            yield  # pragma: no cover
        running = self._running_per_function.get(function, 0)
        if running >= limit:
            gate = self.node.sim.event()
            entry = (gate, ctx, self.node.now)
            self._admission_queues.setdefault(function, []).append(entry)
            try:
                yield gate   # slot transferred on wake
            except Interrupt:
                queue = self._admission_queues.get(function)
                if queue and entry in queue:
                    queue.remove(entry)      # never got the slot
                else:
                    self._release(function)  # slot arrived mid-interrupt
                raise
        else:
            self._running_per_function[function] = running + 1
        return

    def _release(self, function: str, ctx=None) -> None:
        if function not in self._concurrency_limits:
            return
        queue = self._admission_queues.get(function)
        if queue:
            gate, waiter_ctx, t_enq = queue.pop(0)
            obs = obs_hooks.active
            if (obs is not None and obs.tracer is not None
                    and waiter_ctx is not None):
                obs.tracer.link("slot_grant", t_enq, self.node.now,
                                src=(ctx if ctx is not None else 0),
                                dst=waiter_ctx,
                                args={"function": function,
                                      "node": self.node.name})
            gate.trigger()
        else:
            # .get guards the post-crash case where counters were reset
            # while this invocation still held a slot.
            running = self._running_per_function.get(function, 0)
            self._running_per_function[function] = max(0, running - 1)

    # -- hooks ---------------------------------------------------------------------------

    def _acquire(self, profile: FunctionProfile, ctx=None) -> Generator:
        """Timed hook: produce a ready instance; returns (inst, kind).

        ``ctx`` is the invocation's TraceContext (or None): subclasses
        thread it into the restore/attach engines so cold-start phases
        land on the right trace lane.
        """
        raise NotImplementedError

    def _warm_resume(self, inst: Instance) -> Generator:
        """Timed hook: wake a warm instance (default: unpause cost)."""
        yield Delay(0.3e-3)

    def _recycle(self, inst: Instance) -> Generator:
        """Timed hook: what happens after completion (default: keep warm)."""
        self.warm.put(inst)
        self._schedule_expiry(inst)
        return
        yield  # pragma: no cover

    def _retire(self, inst: Instance) -> Generator:
        """Timed hook: destroy the instance and release resources."""
        inst.retired = True
        inst.space.destroy()
        return
        yield  # pragma: no cover

    # -- execution engine ----------------------------------------------------------------

    def execute(self, inst: Instance, profile: FunctionProfile,
                inv_idx: int) -> Generator:
        """Timed: replay the invocation's page-access trace and compute.

        Returns ``(retries, degraded)``: how many pool-fault retries were
        consumed and whether any access fell back to a degraded path.
        """
        node = self.node
        lat = node.latency.mem
        obs = obs_hooks.active
        tracer = obs.tracer if obs is not None else None
        ctx = inst.obs_ctx if tracer is not None else None
        trace = profile.make_trace(self.trace_rng, inv_idx)
        outcome = inst.space.access(trace.read_pages, trace.write_pages,
                                    trace.read_loads)
        # Fault handling is CPU work: it stretches under overload.
        overhead = (outcome.minor_faults * lat.minor_fault
                    + outcome.cow_faults * lat.cow_fault)
        retries = 0
        degraded = False
        t_replay0 = node.now
        #: Host-side ledger: pool name -> CPU seconds charged for its
        #: fetches/loads this invocation (feeds the per-tier blame).
        pool_seconds: Dict[str, float] = {}
        self._inflight_fetches += 1
        try:
            for pool_name, pages in outcome.fetch_pools.items():
                pool = self._pools_by_name.get(pool_name)
                if pool is None:
                    raise KeyError(
                        f"{self.name}: fetched from unregistered pool "
                        f"{pool_name!r}")
                t, r, d = yield from self._fetch_with_recovery(pool, pages)
                overhead += t
                retries += r
                degraded = degraded or d
                if tracer is not None:
                    pool_seconds[pool_name] = (
                        pool_seconds.get(pool_name, 0.0) + t)
            # CXL (or other byte-addressable) resident loads: per-load
            # latency delta, paid inline during execution.
            if outcome.remote_loads:
                t, r, d = yield from self._loads_with_recovery(
                    inst, outcome.remote_loads)
                overhead += t
                retries += r
                degraded = degraded or d
                if tracer is not None and t > 0:
                    load_pool = self._byte_addressable_pool(inst)
                    load_name = (load_pool.name if load_pool is not None
                                 else "local")
                    pool_seconds[load_name] = (
                        pool_seconds.get(load_name, 0.0) + t)
            t_compute0 = node.now
            yield from node.cpu.compute(profile.exec_cpu + overhead)
        finally:
            self._inflight_fetches -= 1
        if tracer is not None and ctx is not None:
            # Fault-replay CPU is paid inside the fair-shared compute
            # interval; split it proportionally for the trace view (a
            # derived reading — simulated time is untouched).
            total_cpu = profile.exec_cpu + overhead
            frac = overhead / total_cpu if total_cpu > 0 else 0.0
            split = t_compute0 + frac * (node.now - t_compute0)
            tracer.span(ctx, "fault_replay", t_replay0, split,
                        args={"minor_faults": int(outcome.minor_faults),
                              "cow_faults": int(outcome.cow_faults),
                              "retries": retries,
                              "fault_cpu_s": overhead,
                              "pools": {k: pool_seconds[k]
                                        for k in sorted(pool_seconds)}})
            for pool_name in sorted(pool_seconds):
                tracer.link("pool_fetch", t_replay0, split, src=0, dst=ctx,
                            args={"pool": pool_name,
                                  "cpu_s": pool_seconds[pool_name]})
            t_exec0 = split
        io_time = profile.io_time + self._file_io(inst, profile)
        if io_time > 0:
            yield Delay(io_time)
        if tracer is not None and ctx is not None:
            tracer.span(ctx, "exec", t_exec0, node.now,
                        args={"exec_cpu_s": profile.exec_cpu,
                              "io_s": io_time})
        return retries, degraded

    # -- fault recovery (repro.faults) --------------------------------------------

    def _pool_breaker(self, pool: MemoryPool):
        """This node's circuit breaker for ``pool``, or None (no plane)."""
        if self.control is None:
            return None
        return self.control.pool_breaker(self.node.name, pool.name)

    def _should_degrade_early(self) -> bool:
        """Control-plane veto on the next pool retry.

        With the plane armed, a retry is skipped (straight down the
        degradation ladder) when SLO budgets are already burning at
        degrade level — a slow certain success beats a fast maybe — or
        when the cluster-wide retry budget is exhausted.  Without a
        plane this is always False and the ladder is untouched.
        """
        if self.control is None:
            return False
        if self.control.degrade_active(self.node.now):
            return True
        return not self.control.budget.try_spend("pool-retry")

    def _fetch_with_recovery(self, pool: MemoryPool, npages: int
                             ) -> Generator:
        """Timed: fetch cost with bounded retries, then degradation.

        Each backoff is a real :class:`Delay`, so a transient flap can
        heal mid-invocation and the retry then succeeds at full speed.
        Returns ``(cpu_seconds, retries, degraded)``.
        """
        breaker = self._pool_breaker(pool)
        if breaker is not None and not breaker.allow(self.node.now):
            # Tier declared unhealthy: don't pile more work on it.
            return self._degraded_fetch_time(
                pool, npages,
                PoolUnavailableError(pool.name, "breaker open")), 0, True
        attempt = 0
        while True:
            try:
                cost = pool.fetch_time(npages, self._inflight_fetches)
            except PoolFault as fault:
                self.pool_fault_count += 1
                if breaker is not None:
                    breaker.record(self.node.now, False)
                if attempt >= self.retry_policy.max_retries \
                        or self._should_degrade_early():
                    return self._degraded_fetch_time(pool, npages, fault), \
                        attempt, True
                yield Delay(self.retry_policy.backoff(attempt,
                                                      self.retry_rng))
                attempt += 1
                continue
            if breaker is not None:
                breaker.record(self.node.now, True, cost)
            return cost, attempt, False

    def _byte_addressable_pool(self, inst: Instance) -> Optional[MemoryPool]:
        """The pool serving this instance's direct loads, if any."""
        return inst.space.layout.direct_pool

    def _loads_with_recovery(self, inst: Instance, nloads: int
                             ) -> Generator:
        """Timed: direct-load overhead with the same retry/degrade ladder."""
        pool = self._byte_addressable_pool(inst)
        if pool is None:
            return 0.0, 0, False
        breaker = self._pool_breaker(pool)
        if breaker is not None and not breaker.allow(self.node.now):
            return self._degraded_fetch_time(
                pool, nloads,
                PoolUnavailableError(pool.name, "breaker open")), 0, True
        attempt = 0
        while True:
            try:
                cost = pool.read_overhead(nloads)
            except PoolFault as fault:
                self.pool_fault_count += 1
                if breaker is not None:
                    breaker.record(self.node.now, False)
                if attempt >= self.retry_policy.max_retries \
                        or self._should_degrade_early():
                    # Device gone: every load becomes a remote fetch on
                    # the fallback path.
                    return self._degraded_fetch_time(pool, nloads, fault), \
                        attempt, True
                yield Delay(self.retry_policy.backoff(attempt,
                                                      self.retry_rng))
                attempt += 1
                continue
            if breaker is not None:
                breaker.record(self.node.now, True, cost)
            return cost, attempt, False

    def _degraded_fetch_time(self, pool: MemoryPool, npages: int,
                             fault: PoolFault) -> float:
        """Cost of serving ``npages`` once ``pool`` is declared dead.

        The degradation ladder of §8.1: try the fallback pool (NAS tier),
        and as the last rung restore from the node-local snapshot copy —
        a cold-start-class batched read, slow but always available.
        """
        fallback = self.fallback_pool
        if fallback is not None and fallback is not pool:
            try:
                return fallback.fetch_time(npages, self._inflight_fetches)
            except PoolFault:
                self.pool_fault_count += 1
        return self.node.latency.memory_copy(npages * PAGE_SIZE)

    # -- node crash / recovery ----------------------------------------------------

    def crash(self) -> None:
        """Untimed: the node fails.  Warm state and admission state are
        lost; in-flight invocations must be interrupted by the caller
        (the cluster dispatcher does this per tracked slot)."""
        if self.crashed:
            return
        self.crashed = True
        self.crash_count += 1
        obs = obs_hooks.active
        if obs is not None:
            obs.registry.inc("node_crashes_total", node=self.node.name)
            if obs.tracer is not None:
                obs.tracer.instant("node_crash", self.node.now,
                                   node=self.node.name)
        for inst in self.warm.idle_instances():
            inst.retired = True
            inst.space.destroy()
        self.warm.clear()
        self._running_per_function.clear()
        self._admission_queues.clear()
        self._on_crash()

    def recover(self) -> None:
        """Untimed: the node comes back, cold — no warm instances."""
        self.crashed = False
        obs = obs_hooks.active
        if obs is not None and obs.tracer is not None:
            obs.tracer.instant("node_recover", self.node.now,
                               node=self.node.name)

    def _on_crash(self) -> None:
        """Hook: subclass state lost with the node (sandbox pools, ...)."""

    def _file_io(self, inst: Instance, profile: FunctionProfile) -> float:
        """Charge caches for rootfs file IO; return IO seconds.

        Containers read through the host page cache directly: one copy
        per node per function's file set, shared by all instances.
        """
        fid = self.files.file_id("fn-files", profile.name)
        fresh = self.host_cache.charge_file(fid, profile.file_io_bytes)
        return fresh * _HOST_IO_PER_PAGE

    # -- keep-alive + pressure ---------------------------------------------------------------

    def _expiry_window(self, inst: Instance) -> float:
        if self.keep_alive_policy is not None:
            return self.keep_alive_policy.window(inst.function)
        return self.keep_alive

    def _schedule_expiry(self, inst: Instance) -> None:
        stamp = inst.last_used
        window = self._expiry_window(inst)
        if window <= 0:
            if self.warm.remove(inst):
                self._spawn_retire(inst, "expire")
            return

        def check():
            if (not inst.busy and not inst.retired
                    and inst.last_used == stamp):
                if self.warm.remove(inst):
                    self._spawn_retire(inst, "expire")

        self.node.sim.call_at(self.node.now + window, check)

    def _spawn_retire(self, inst: Instance, reason: str) -> None:
        """Spawn the retirement task, wrapped for observability if on."""
        gen = self._retire(inst)
        obs = obs_hooks.active
        if obs is not None:
            gen = self._observed_retire(gen, inst, reason, obs)
        self.node.sim.spawn(gen, name=f"{reason}-{inst.instance_id}")

    def _observed_retire(self, gen: Generator, inst: Instance,
                         reason: str, obs) -> Generator:
        """yield-from wrapper: engine-transparent, reports the retirement."""
        t0 = self.node.now
        result = yield from gen
        obs.on_retire(self.name, inst.function, reason)
        if obs.tracer is not None:
            obs.tracer.node_span(self.node.name, "retire", t0,
                                 self.node.now,
                                 args={"function": inst.function,
                                       "reason": reason})
        return result

    def _apply_memory_pressure(self) -> None:
        """Evict LRU warm instances while over the node's soft cap."""
        guard = 0
        while self.node.memory.over_soft_cap() and guard < 1000:
            victim = self.warm.lru_victim()
            if victim is None:
                break
            self.warm.remove(victim)
            self._spawn_retire(victim, "pressure")
            guard += 1

    # -- stats ------------------------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "warm_hits": self.warm.hits,
            "warm_misses": self.warm.misses,
            "warm_size": len(self.warm),
            "pool_faults": self.pool_fault_count,
            "fault_retries": self.fault_retries,
            "degraded_invocations": self.degraded_invocations,
            "crashes": self.crash_count,
        }
