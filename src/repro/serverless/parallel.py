"""Parallel cluster runs: node-group shards across worker processes.

:func:`run_cluster_parallel` executes one :class:`ClusterSpec` +
:class:`~repro.workloads.synthetic.Workload` in three steps — plan, run,
merge — and the result is **bit-identical to the serial run by
construction**:

* **plan**: :func:`~repro.serverless.partition.plan_shards` proves the
  run statically partitionable (round-robin assignment, no control
  plane, no faults) or names why not — ineligible runs take the serial
  path and report the reasons;
* **run**: each worker rebuilds the *full* rack from the spec — every
  platform, every function registration in serial order — so shared
  pool/store contents and registration-time RNG draws match the serial
  run, then runs **only its owned events** (a contiguous node block)
  with a plain :meth:`~repro.serverless.cluster.Cluster.run_workload`.
  Dispatch replays the plan's static assignment via a scripted policy,
  so per-node event streams equal the serial run's slices exactly;
* **merge**: shard outcomes merge in shard order, which equals the
  serial per-node merge order because node blocks are contiguous.

Statically partitioned shards exchange no events, so workers never
wait on each other.  A worker that dies (``BrokenProcessPool``) makes
the run re-execute serially and say so in the report, instead of
hanging the parent.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.obs.trace import SpanTracer

from repro.serverless.cluster import ClusterResult, DispatchPolicy
from repro.serverless.metrics import LatencyRecorder
from repro.serverless.partition import (ClusterSpec, ParallelPlan,
                                        SerialFallback, plan_shards)
from repro.workloads.synthetic import ArrivalEvent, Workload


def resolve_jobs(jobs: int, shards: int) -> int:
    """The one worker-count rule shared by every ``--jobs`` surface.

    ``jobs <= 0`` means "size to the machine": ``min(cpu_count,
    shards)``.  Explicit requests are capped by the shard count (a
    worker with no shard would idle) and floored at one.
    """
    if shards <= 0:
        return 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, shards))


@dataclass
class ParallelReport:
    """Host-side summary of one parallel run, for bench/CLI reports."""

    mode: str                      # "parallel" | "fallback"
    jobs: int
    n_shards: int
    reasons: List[str] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "jobs": self.jobs,
            "n_shards": self.n_shards,
            "reasons": list(self.reasons),
        }


class ScriptedPolicy(DispatchPolicy):
    """Replays a precomputed node-name sequence, one pick per event.

    Inside a shard worker the stock policy cannot run: its cursor (or
    state reads) would see only the shard's event subsequence and
    drift off the plan.  The worker instead scripts the exact node
    names the plan assigned to its events, in order.
    """

    name = "scripted"

    def __init__(self, node_names: Sequence[str]):
        self._names = list(node_names)
        self._cursor = 0

    def pick(self, platforms, function):
        name = self._names[self._cursor]
        self._cursor += 1
        for platform in platforms:
            if platform.node.name == name:
                return platform
        raise RuntimeError(f"scripted node {name!r} not in candidate set")


@dataclass
class _ShardOutcome:
    """Picklable result of one shard worker."""

    shard: int
    recorder: LatencyRecorder
    per_node_peak_mb: List[float]
    dispatch_counts: Dict[str, int]
    failed: List[Tuple[str, float, str]]
    duration: float
    pool_used_mb: float
    registry: Optional[Dict]
    tracer: Optional[Dict] = None


@dataclass
class ParallelRunOutcome:
    """What :func:`run_cluster_parallel` hands back."""

    result: ClusterResult
    report: ParallelReport
    #: Merged MetricsRegistry.to_dict() when obs_level != "off".
    registry: Optional[Dict] = None
    #: The run's span trace when obs_level == "spans": the live serial
    #: tracer, or shard traces merged back to serial-equivalent form.
    tracer: Optional["SpanTracer"] = None
    #: How the trace was obtained: "serial" (reference path), "merged"
    #: (shard traces folded via repro.obs.merge), or
    #: "fallback: <reason>" (merge invariant broken; the trace comes
    #: from a serial re-run).  None when spans were not requested.
    span_merge: Optional[str] = None


def _sub_workload(workload: Workload, events: List[ArrivalEvent],
                  shard: int) -> Workload:
    return Workload(name=f"{workload.name}/shard{shard}",
                    events=list(events), duration=workload.duration,
                    soft_cap_bytes=workload.soft_cap_bytes,
                    keep_alive=workload.keep_alive,
                    warmup=workload.warmup)


def _shard_worker(spec: ClusterSpec, workload: Workload, shard: int,
                  group: Tuple[int, int], events: List[ArrivalEvent],
                  node_seq: List[str], warmup: Optional[float],
                  obs_level: str) -> _ShardOutcome:
    """One shard: rebuild the world, run its owned events."""
    from repro.obs.observer import observed

    # Build and prepare (replay registration) OUTSIDE the observed
    # window on every path: each worker replays the full registration
    # for state parity, so observing it would count registration-time
    # metrics n_shards times.  The registry covers the timed run only —
    # the serial path does the same, keeping the merged registry
    # identical.  Preparing with the FULL workload (not the shard's
    # subsequence) also matters for state parity itself: a shard whose
    # events happen to use fewer functions would otherwise register a
    # subset, skewing shared pool/store contents and registration RNG.
    cluster = spec.build()
    cluster.prepare_workload(workload, warmup=warmup)
    cluster.policy = ScriptedPolicy(node_seq)
    # The scripted policy is exact by construction; the dispatch index
    # (built for stateful policies only) is never consulted for it.
    assert cluster._index is None

    sub = _sub_workload(workload, events, shard)
    registry_dict: Optional[Dict] = None
    tracer_dict: Optional[Dict] = None
    if obs_level != "off":
        with observed(obs_level) as obs:
            cluster.run_workload(sub, warmup=warmup)
        registry_dict = obs.registry.to_dict()
        if obs.tracer is not None:
            tracer_dict = obs.tracer.to_dict()
    else:
        cluster.run_workload(sub, warmup=warmup)

    start, end = group
    owned = cluster.platforms[start:end]
    chosen_warmup = workload.warmup if warmup is None else warmup
    recorder = LatencyRecorder(
        warmup=chosen_warmup,
        keep_results=all(p.recorder.keep_results for p in owned))
    for platform in owned:
        recorder.merge_from(platform.recorder)
    return _ShardOutcome(
        shard=shard,
        recorder=recorder,
        per_node_peak_mb=[p.node.memory.peak_bytes / (1 << 20)
                          for p in owned],
        dispatch_counts=dict(cluster.dispatch_counts),
        failed=list(cluster.failed),
        duration=cluster.sim.now,
        pool_used_mb=cluster.rack_pool_used_mb(),
        registry=registry_dict,
        tracer=tracer_dict)


def _run_serial(spec: ClusterSpec, workload: Workload,
                warmup: Optional[float], obs_level: str, mode: str,
                jobs: int, reasons: List[str]) -> ParallelRunOutcome:
    from repro.obs.observer import observed

    cluster = spec.build()
    # Same observation contract as the shard workers: registration is
    # untimed preprocessing and stays outside the observed window.
    cluster.prepare_workload(workload, warmup=warmup)
    registry_dict: Optional[Dict] = None
    tracer = None
    if obs_level != "off":
        with observed(obs_level) as obs:
            result = cluster.run_workload(workload, warmup=warmup)
        registry_dict = obs.registry.to_dict()
        tracer = obs.tracer
    else:
        result = cluster.run_workload(workload, warmup=warmup)
    report = ParallelReport(mode=mode, jobs=jobs, n_shards=1,
                            reasons=list(reasons))
    return ParallelRunOutcome(result=result, report=report,
                              registry=registry_dict, tracer=tracer,
                              span_merge=("serial" if tracer is not None
                                          else None))


def _merge_outcomes(spec: ClusterSpec, workload: Workload,
                    warmup: Optional[float], plan: ParallelPlan,
                    outcomes: List[_ShardOutcome]) -> ClusterResult:
    """Shard-order merge; equals run_workload's node-order merge."""
    chosen_warmup = workload.warmup if warmup is None else warmup
    merged = LatencyRecorder(
        warmup=chosen_warmup,
        keep_results=all(o.recorder.keep_results for o in outcomes))
    for outcome in outcomes:
        merged.merge_from(outcome.recorder)
    failed: List[Tuple[str, float, str]] = []
    for outcome in outcomes:
        for failure in outcome.failed:
            merged.record_failure(*failure)
            failed.append(failure)
    peaks: List[float] = []
    for outcome in outcomes:
        peaks.extend(outcome.per_node_peak_mb)
    counts: Dict[str, int] = {}
    for outcome in outcomes:
        for node, n in outcome.dispatch_counts.items():
            counts[node] = counts.get(node, 0) + n
    pool_mbs = {round(o.pool_used_mb, 9) for o in outcomes}
    if len(pool_mbs) != 1:
        raise RuntimeError(
            f"shard workers disagree on rack pool usage: {pool_mbs}")
    return ClusterResult(
        recorder=merged,
        per_node_peak_mb=peaks,
        total_peak_mb=sum(peaks),
        pool_used_mb=outcomes[0].pool_used_mb,
        dispatch_counts=dict(sorted(counts.items())),
        duration=max(o.duration for o in outcomes),
        availability=merged.availability(),
        redispatches=0,
        node_crashes=0,
        failed=failed,
        control=None)


def run_cluster_parallel(spec: ClusterSpec, workload: Workload,
                         jobs: int = 0, warmup: Optional[float] = None,
                         obs_level: str = "off") -> ParallelRunOutcome:
    """Run one cluster workload, sharded when provably safe.

    ``jobs`` follows the unified rule (:func:`resolve_jobs`): 0 sizes
    to ``min(cpu_count, n_nodes)``; the shard count equals the resolved
    worker count (one contiguous node block per worker).  Results are
    independent of the worker count: any eligible sharding merges back
    to the serial result bit-for-bit, and ineligible configurations
    (including ``jobs=1``) run the serial path outright
    (``report.reasons`` says why).
    """
    n_jobs = resolve_jobs(jobs, spec.n_nodes)
    plan = plan_shards(spec, workload, n_jobs)
    if isinstance(plan, SerialFallback):
        return _run_serial(spec, workload, warmup, obs_level,
                           mode="fallback", jobs=n_jobs,
                           reasons=list(plan.reasons))

    node_names = [f"node{i}" for i in range(spec.n_nodes)]
    tasks = []
    for shard in range(plan.n_shards):
        indices = plan.owned_events(shard)
        events = [workload.events[i] for i in indices]
        node_seq = [node_names[plan.assignment[i]] for i in indices]
        tasks.append((spec, workload, shard, plan.node_groups[shard],
                      events, node_seq, warmup, obs_level))
    # One worker per shard.  ``_shard_worker`` is looked up at call time,
    # so a wrapped worker (instrumentation, fault tests) is the one sent.
    try:
        with ProcessPoolExecutor(plan.n_shards) as pool:
            futures = [pool.submit(_shard_worker, *task) for task in tasks]
            outcomes = [f.result() for f in futures]
    except BrokenProcessPool as exc:
        return _run_serial(spec, workload, warmup, obs_level,
                           mode="fallback", jobs=plan.n_shards,
                           reasons=[f"worker died: {exc}"])

    result = _merge_outcomes(spec, workload, warmup, plan, outcomes)
    report = ParallelReport(mode="parallel", jobs=plan.n_shards,
                            n_shards=plan.n_shards)
    registry: Optional[Dict] = None
    if obs_level != "off":
        from repro.obs.registry import MetricsRegistry
        combined = MetricsRegistry()
        for outcome in outcomes:
            assert outcome.registry is not None
            # Shards partition one rack: counters/histograms add and
            # gauge levels are disjoint contributions, so "sum" rebuilds
            # the serial registry exactly (unlike independent sweep
            # shards, where only the max of a gauge is meaningful).
            combined.merge_from(MetricsRegistry.from_dict(outcome.registry),
                                gauges="sum")
        registry = combined.to_dict()
    tracer = None
    span_merge: Optional[str] = None
    if obs_level == "spans":
        from repro.obs.merge import (SpanMergeError, merge_shard_tracers,
                                     shard_remaps)
        remaps = shard_remaps([e.time for e in workload.events], plan)
        try:
            tracer = merge_shard_tracers(
                [o.tracer for o in outcomes], remaps)
            span_merge = "merged"
        except SpanMergeError as exc:
            # The merge invariants should hold for every eligible plan;
            # if one broke, surface why and take the serial reference
            # path for the trace (results stay bit-identical — only the
            # trace's provenance changes).
            fallback = _run_serial(spec, workload, warmup, obs_level,
                                   mode="parallel", jobs=plan.n_shards,
                                   reasons=[])
            tracer = fallback.tracer
            span_merge = f"fallback: {exc}"
    return ParallelRunOutcome(result=result, report=report,
                              registry=registry, tracer=tracer,
                              span_merge=span_merge)
