"""Drive a workload through a platform and collect results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.control.config import ControlConfig
from repro.node import Node
from repro.obs import hooks as obs_hooks
from repro.serverless.base import ServerlessPlatform
from repro.serverless.metrics import LatencyRecorder
from repro.workloads.functions import FUNCTIONS, FunctionProfile, function_by_name
from repro.workloads.synthetic import Workload


@dataclass
class RunResult:
    """Everything a bench needs from one platform × workload run."""

    platform: str
    workload: str
    recorder: LatencyRecorder
    peak_memory_bytes: int
    memory_breakdown_mb: Dict[str, float]
    memory_timeline: List
    integral_mb_seconds: float
    cpu_utilization: float
    platform_stats: Dict[str, float]
    duration: float
    #: Per-function SLO attainment when a ControlConfig was given.
    slo_report: Optional[Dict[str, dict]] = None

    @property
    def peak_memory_mb(self) -> float:
        return self.peak_memory_bytes / (1 << 20)


def run_workload(platform: ServerlessPlatform, workload: Workload,
                 warmup: Optional[float] = None,
                 control: Optional[ControlConfig] = None) -> RunResult:
    """Replay ``workload`` on ``platform``; returns aggregated results.

    Functions referenced by the workload are registered automatically.
    ``warmup`` (default: the workload's) masks early invocations from the
    latency statistics — §9.1 warms caches for ~5 minutes before
    measuring.

    ``control`` applies the single-node slice of a
    :class:`~repro.control.config.ControlConfig`: per-function
    concurrency caps (via the platform's FIFO admission gate) and a
    post-run SLO attainment report.  Breakers, retry budgets and the
    timeout hierarchy need a dispatcher and live on the cluster path.
    """
    node = platform.node
    node.memory.soft_cap_bytes = workload.soft_cap_bytes
    platform.keep_alive = workload.keep_alive
    if warmup is None:
        warmup = workload.warmup
    platform.recorder.warmup = warmup

    for name in workload.functions_used():
        if name not in platform.functions:
            platform.register_function(function_by_name(name))
    if control is not None:
        for name in sorted(workload.functions_used()):
            platform.set_concurrency_limit(name,
                                           control.concurrency_for(name))

    def invoke(event):
        obs = obs_hooks.active
        tracer = obs.tracer if obs is not None else None
        if tracer is None:
            yield from platform.invoke(event.function, arrival=event.time)
            return
        ctx = tracer.begin(event.function, node.now)
        tracer.bind(ctx, node.name)
        tracer.span(ctx, "dispatch", node.now, node.now,
                    args={"node": node.name})
        try:
            yield from platform.invoke(event.function, arrival=event.time,
                                       ctx=ctx)
        finally:
            tracer.finish(ctx, node.now)

    # Each invocation is scheduled directly at its arrival time: one
    # queue entry per arrival, in event order.
    now = node.sim.now
    waiters = node.sim.spawn_at_many(
        (max(now, e.time), invoke(e)) for e in workload.events)
    node.sim.run()
    pending = [w for w in waiters if not w.done]
    if pending:
        raise RuntimeError(f"{len(pending)} invocations never completed")

    slo_report = None
    if control is not None and control.slos:
        slo_report = _slo_report(platform.recorder, control)

    return RunResult(
        platform=platform.name,
        workload=workload.name,
        recorder=platform.recorder,
        peak_memory_bytes=node.memory.peak_bytes,
        memory_breakdown_mb=node.memory.breakdown_mb(),
        memory_timeline=node.memory.timeline_mb(),
        integral_mb_seconds=node.memory.integral_mb_seconds(),
        cpu_utilization=node.cpu.utilization(),
        platform_stats=platform.stats(),
        duration=node.now,
        slo_report=slo_report,
    )


def _slo_report(recorder: LatencyRecorder,
                control: ControlConfig) -> Dict[str, dict]:
    """Post-hoc per-function SLO attainment from recorded results.

    Needs the exact-results regime; a streaming recorder reports only
    what its histograms can answer (attainment via the e2e quantile at
    the objective, which is exact in intent if coarser in value).
    """
    report: Dict[str, dict] = {}
    for fn, slo in sorted(dict(control.slos).items()):
        if fn not in recorder.functions():
            continue
        if recorder.keep_results:
            measured = recorder.measured(fn)
            total = len(measured)
            good = sum(1 for r in measured if r.e2e <= slo.threshold)
            attainment = good / total if total else 1.0
        else:
            total = None
            # Streaming: the latency at the objective quantile tells us
            # whether the objective-th invocation met the threshold.
            at_objective = recorder.e2e_percentile(
                100.0 * slo.objective, fn)
            attainment = slo.objective if at_objective <= slo.threshold \
                else 0.0
        report[fn] = {
            "threshold": slo.threshold,
            "objective": slo.objective,
            "observed": total,
            "attainment": attainment,
            "met": attainment >= slo.objective,
        }
    return report
