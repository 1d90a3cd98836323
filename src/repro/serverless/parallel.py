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
  serial per-node merge order because node blocks are contiguous.  At
  the spans level each worker records serial trace ids from the start
  (the parent computes each shard's ids before submitting) and
  content-sorts its own trace (:func:`repro.obs.merge.shard_trace`),
  so the parent concatenates runs that are already in order.  The
  parent receives and merges with the cyclic collector paused: the
  shard outcomes are large, acyclic and unpickled in bulk.

Statically partitioned shards exchange no events, so workers never
wait on each other.  A worker that dies (``BrokenProcessPool``) or
runs past a bound derived from the plan makes the run re-execute
serially and say so in the report, instead of hanging the parent.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Optional, Sequence,
                    Tuple)

if TYPE_CHECKING:   # pragma: no cover - typing only
    from repro.obs.merge import ShardTrace
    from repro.obs.registry import MetricsRegistry
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


#: How long the parent waits for its shard workers before it gives up
#: on them: a fixed allowance for the fork and the rack rebuild, plus
#: an allowance per event of the largest shard.  A traced shard of the
#: 10-node micro rack takes ~0.2 ms of host time per event on a 2-vCPU
#: host, and under 0.4 ms under perfbench's shard profiler; the
#: allowance is 50 times the former, so a slow or instrumented host
#: stays well inside the bound and a hung run still ends.
_WAIT_BASE_S = 120.0
_WAIT_S_PER_EVENT = 0.01


def _wait_bound(events_per_shard: Sequence[int]) -> float:
    """Host seconds to wait for every shard worker of one plan."""
    return _WAIT_BASE_S + _WAIT_S_PER_EVENT * max(events_per_shard)


def _collect(pool: ProcessPoolExecutor, futures: List,
             bound: float) -> Optional[List["_ShardOutcome"]]:
    """The shards' outcomes, or None if ``bound`` seconds pass first.

    On a timeout every worker process of ``pool`` is stopped and
    reaped, so none outlives the run.  A worker that died raises
    ``BrokenProcessPool`` here.
    """
    _done, late = wait(futures, timeout=bound)
    if not late:
        return [f.result() for f in futures]
    # The executor has no public call that stops busy workers (before
    # Python 3.14), and its shutdown would wait for the hung one.
    procs = list(pool._processes.values())
    for proc in procs:
        proc.terminate()
    for proc in procs:
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    return None


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
    registry: Optional["MetricsRegistry"]
    #: The shard's content-sorted span trace (spans level).
    trace: Optional["ShardTrace"] = None


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
                  obs_level: str,
                  remap: Optional[List[int]]) -> _ShardOutcome:
    """One shard: rebuild the world, run its owned events.

    At the spans level ``remap`` is the serial trace id of each of the
    shard's ``begin`` calls in turn; the worker's tracer records those
    ids, and the worker content-sorts its own trace for the merge.
    """
    from repro.obs.merge import shard_trace
    from repro.obs.observer import observed
    from repro.obs.trace import SpanTracer

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
    registry = None
    trace = None
    if obs_level != "off":
        tracer = SpanTracer(ids=remap) if obs_level == "spans" else None
        with observed(obs_level, tracer=tracer) as obs:
            cluster.run_workload(sub, warmup=warmup)
        registry = obs.registry
        if obs.tracer is not None:
            trace = shard_trace(obs.tracer, shard)
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
        registry=registry,
        trace=trace)


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

    from repro.obs.merge import (SpanMergeError, _collector_paused,
                                 merge_shard_tracers, shard_remaps)

    remaps: List[Optional[List[int]]] = [None] * plan.n_shards
    if obs_level == "spans":
        remaps = shard_remaps([e.time for e in workload.events], plan)
    node_names = [f"node{i}" for i in range(spec.n_nodes)]
    tasks = []
    for shard in range(plan.n_shards):
        indices = plan.owned_events(shard)
        events = [workload.events[i] for i in indices]
        node_seq = [node_names[plan.assignment[i]] for i in indices]
        tasks.append((spec, workload, shard, plan.node_groups[shard],
                      events, node_seq, warmup, obs_level, remaps[shard]))
    bound = _wait_bound([len(task[4]) for task in tasks])
    outcomes = None
    tracer = None
    span_error: Optional[SpanMergeError] = None
    # One worker per shard.  ``_shard_worker`` is looked up at call time,
    # so a wrapped worker (instrumentation, fault tests) is the one sent.
    try:
        with ProcessPoolExecutor(plan.n_shards) as pool:
            futures = [pool.submit(_shard_worker, *task) for task in tasks]
            # Every worker is forked by now, with the collector as it
            # was; from here the parent only receives and merges.
            with _collector_paused():
                outcomes = _collect(pool, futures, bound)
                if outcomes is not None:
                    result = _merge_outcomes(spec, workload, warmup, plan,
                                             outcomes)
                    registry = _merge_registries(outcomes, obs_level)
                    if obs_level == "spans":
                        try:
                            tracer = merge_shard_tracers(
                                [o.trace for o in outcomes])
                        except SpanMergeError as exc:
                            span_error = exc
    except BrokenProcessPool as exc:
        return _run_serial(spec, workload, warmup, obs_level,
                           mode="fallback", jobs=plan.n_shards,
                           reasons=[f"worker died: {exc}"])
    if outcomes is None:
        return _run_serial(spec, workload, warmup, obs_level,
                           mode="fallback", jobs=plan.n_shards,
                           reasons=["worker timed out"])

    report = ParallelReport(mode="parallel", jobs=plan.n_shards,
                            n_shards=plan.n_shards)
    span_merge: Optional[str] = None
    if obs_level == "spans":
        span_merge = "merged"
        if span_error is not None:
            # The merge invariants should hold for every eligible plan;
            # if one broke, surface why and take the serial reference
            # path for the trace (results stay bit-identical — only the
            # trace's provenance changes).
            fallback = _run_serial(spec, workload, warmup, obs_level,
                                   mode="parallel", jobs=plan.n_shards,
                                   reasons=[])
            tracer = fallback.tracer
            span_merge = f"fallback: {span_error}"
    return ParallelRunOutcome(result=result, report=report,
                              registry=registry, tracer=tracer,
                              span_merge=span_merge)


def _merge_registries(outcomes: List[_ShardOutcome],
                      obs_level: str) -> Optional[Dict]:
    """The shards' registries as one, in ``to_dict`` form."""
    if obs_level == "off":
        return None
    from repro.obs.registry import MetricsRegistry
    combined = MetricsRegistry()
    for outcome in outcomes:
        assert outcome.registry is not None
        # Shards partition one rack: counters/histograms add and gauge
        # levels are disjoint contributions, so "sum" rebuilds the
        # serial registry exactly (unlike independent sweep shards,
        # where only the max of a gauge is meaningful).
        combined.merge_from(outcome.registry, gauges="sum")
    return combined.to_dict()
