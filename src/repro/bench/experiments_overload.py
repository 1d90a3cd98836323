"""Overload + chaos experiment: the control plane vs a retry storm.

The robustness claim this benchmark backs: a rack driven far past its
CPU capacity — with a node crash in the middle of the surge — keeps a
bounded p99 for the invocations it *accepts* when the control plane is
armed, paying for it with an explicit, deterministic shed/abort
breakdown.  The uncontrolled baseline accepts everything and lets the
backlog stretch every invocation instead: nothing is dropped, but tail
latency collapses to queueing delay.

``run_overload_chaos`` runs three racks over the identical arrival
schedule and fault plan:

* ``uncontrolled`` — dispatch as before this module existed,
* ``controlled``   — admission limits, deadline-aware shedding,
  breakers, a retry budget and the timeout hierarchy armed,
* ``replay``       — the controlled run again; its report must be
  bit-identical (the determinism check CI asserts).

Reports include a backlog timeline sampled by virtual-time probes so
the collapse (and its absence) is visible, not just the percentiles.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.control.config import ControlConfig, SLOTarget, TimeoutConfig
from repro.faults import FaultInjector, FaultPlan
from repro.mem.layout import GB
from repro.mem.pools import CXLPool
from repro.serverless.cluster import make_trenv_cluster
from repro.workloads.functions import function_by_name
from repro.workloads.synthetic import make_scaleout_uniform

#: Functions driven in the surge: mid-weight CPU profiles so a 10x
#: overload builds real queueing without the trace-replay cost of the
#: heaviest suite members dominating host time.
SURGE_FUNCTIONS: Tuple[str, ...] = ("CH", "CR", "IP", "PR")

#: Timeline sampling interval (simulated seconds).
PROBE_DT = 1.0


def surge_profile(quick: bool = False) -> Dict[str, float]:
    """The scenario knobs for one overload run.

    ``rate`` is chosen so offered CPU demand is ~10x what the rack can
    serve: mean exec_cpu of the surge suite is ~0.66 s, so at
    ``n_nodes * cores`` cores the sustainable rate is ``cores_total /
    0.66`` invocations/s and we drive ten times that.
    """
    if quick:
        return {"n_nodes": 2, "cores": 4, "duration": 12.0,
                "rate": 100.0, "crash_at": 5.0, "outage": 4.0}
    return {"n_nodes": 3, "cores": 4, "duration": 40.0,
            "rate": 180.0, "crash_at": 15.0, "outage": 10.0}


def overload_control(functions: Sequence[str] = SURGE_FUNCTIONS,
                     concurrency: int = 4,
                     queue_capacity: int = 8,
                     slo_threshold: float = 4.0) -> ControlConfig:
    """The ControlConfig armed for the controlled runs.

    Per-function concurrency keeps admitted CPU demand near capacity,
    the deadline shed policy drops what can no longer meet its
    per-invocation deadline, and the timeout hierarchy bounds every
    attempt.  SLO targets drive burn-rate accounting in the report.
    """
    return ControlConfig(
        default_concurrency=concurrency,
        queue_capacity=queue_capacity,
        shed_policy="deadline",
        timeouts=TimeoutConfig(per_attempt=2.5, per_invocation=4.0),
        slos={fn: SLOTarget(threshold=slo_threshold, objective=0.95)
              for fn in functions},
    )


def _surge_workload(seed: int, profile: Dict[str, float]):
    suite = [function_by_name(n) for n in SURGE_FUNCTIONS]
    return make_scaleout_uniform(seed=seed, functions=suite,
                                 duration=profile["duration"],
                                 rate=profile["rate"],
                                 keep_alive=600.0)


def _offered_load(workload, n_nodes: int, cores: int) -> float:
    """Offered CPU demand as a multiple of rack capacity."""
    demand = sum(function_by_name(e.function).exec_cpu
                 for e in workload.events)
    return demand / (workload.duration * n_nodes * cores)


def _failure_breakdown(failed: List[Tuple[str, float, str]]) -> Dict:
    """Split the failed list into shed/abort reason counters."""
    sheds: Dict[str, int] = {}
    aborts: Dict[str, int] = {}
    for _fn, _arrival, reason in failed:
        kind, _, cause = reason.partition(":")
        bucket = sheds if kind == "shed" else aborts
        bucket[cause] = bucket.get(cause, 0) + 1
    return {"sheds": dict(sorted(sheds.items())),
            "aborts": dict(sorted(aborts.items()))}


def _run_surge(seed: int, profile: Dict[str, float],
               control: Optional[ControlConfig]) -> Dict:
    """One rack through the surge + node crash; pure-deterministic dict."""
    cluster = make_trenv_cluster(int(profile["n_nodes"]), CXLPool(128 * GB),
                                 seed=seed, cores=int(profile["cores"]),
                                 control=control)
    workload = _surge_workload(seed, profile)
    plan = FaultPlan().node_crash(profile["crash_at"], "node1",
                                  duration=profile["outage"])
    injector = FaultInjector.for_cluster(cluster, plan).arm()

    # Virtual-time backlog probes: read-only callbacks, so the
    # simulated run is unchanged whether or not anyone looks.
    timeline: List[Dict] = []
    plane = cluster.control_plane

    def probe():
        entry = {
            "t": cluster.sim.now,
            "cpu_backlog": sum(p.node.cpu.load for p in cluster.platforms),
        }
        if plane is not None:
            entry["queued"] = plane.admission.total_queued_now()
            entry["shed"] = sum(plane.admission.shed_counts.values())
        timeline.append(entry)

    t = 0.0
    while t <= profile["duration"]:
        cluster.sim.call_at(t, probe)
        t += PROBE_DT

    result = cluster.run_workload(workload)
    recorder = result.recorder
    completed = len(recorder.measured())
    report = {
        "n_invocations": workload.n_invocations,
        "completed": completed,
        "failed": len(result.failed),
        "failure_breakdown": _failure_breakdown(result.failed),
        "p50_e2e": recorder.e2e_percentile(50),
        "p99_e2e": recorder.e2e_percentile(99),
        "max_e2e": max((r.e2e for r in recorder.results),
                       default=float("nan")),
        "redispatches": result.redispatches,
        "node_crashes": result.node_crashes,
        "fault_timeline": injector.timeline(),
        "backlog_timeline": timeline,
        "peak_cpu_backlog": max(e["cpu_backlog"] for e in timeline),
    }
    if result.control is not None:
        report["control"] = result.control
    return report


def run_overload_chaos(seed: int = 1, quick: bool = False,
                       jobs: int = 0) -> Dict:
    """10x CPU overload plus a mid-surge node crash, three ways.

    Returns the scenario parameters plus ``uncontrolled``,
    ``controlled`` and ``replay`` run reports, a ``deterministic`` flag
    (controlled == replay, compared structurally) and ``p99_bounded``
    (the controlled tail stayed under the per-invocation deadline while
    the uncontrolled tail blew past it).

    ``jobs`` is the unified worker-count option; overload runs arm the
    control plane and inject faults — both zero-lookahead couplings —
    so any requested parallelism falls back to serial execution and the
    report's ``parallel`` key records the resolved worker count and the
    fallback reasons.
    """
    from repro.control.plane import PARALLEL_UNSAFE_REASON
    from repro.serverless.partition import FAULTS_UNSAFE_REASON
    from repro.serverless.parallel import resolve_jobs

    profile = surge_profile(quick)
    control = overload_control()
    workload = _surge_workload(seed, profile)
    n_jobs = resolve_jobs(jobs, int(profile["n_nodes"]))

    uncontrolled = _run_surge(seed, profile, None)
    controlled = _run_surge(seed, profile, overload_control())
    replay = _run_surge(seed, profile, overload_control())

    deadline = control.timeouts.per_invocation
    return {
        "schema": "trenv-repro-overload/1",
        "quick": quick,
        "seed": seed,
        "profile": profile,
        "workload": {
            "functions": list(SURGE_FUNCTIONS),
            "n_invocations": workload.n_invocations,
            "duration": workload.duration,
            "offered_load": _offered_load(workload,
                                          int(profile["n_nodes"]),
                                          int(profile["cores"])),
        },
        "control": {
            "default_concurrency": control.default_concurrency,
            "queue_capacity": control.queue_capacity,
            "shed_policy": control.shed_policy,
            "per_attempt": control.timeouts.per_attempt,
            "per_invocation": control.timeouts.per_invocation,
            "slo_threshold": control.slos[SURGE_FUNCTIONS[0]].threshold,
        },
        "parallel": {
            "jobs_requested": jobs,
            "jobs_resolved": n_jobs,
            "mode": "fallback" if n_jobs > 1 else "serial",
            "reasons": [PARALLEL_UNSAFE_REASON, FAULTS_UNSAFE_REASON],
        },
        "uncontrolled": uncontrolled,
        "controlled": controlled,
        "replay": replay,
        "deterministic": controlled == replay,
        "p99_bounded": (controlled["p99_e2e"] <= deadline
                        and uncontrolled["p99_e2e"] > 2 * deadline),
    }
