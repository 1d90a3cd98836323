"""Build and run the four workloads against the simulator.

``prepare`` does everything a user pays before the first simulated
event (schedule build, rack construction, ``register_function``) and
returns the timed part as a zero-argument callable, with the workload's
resolved parameters.  The simulator is driven as the CLI experiments
drive it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from spec import RACK, WORKLOADS


@dataclass
class Outcome:
    """What one timed run produced."""

    recorder: object
    scheduled: int
    dispatch_counts: Dict[str, int] = field(default_factory=dict)
    failed: List[Tuple[str, float, str]] = field(default_factory=list)
    redispatches: int = 0
    control: Optional[Dict] = None
    n_spans: int = 0
    #: The parallel runner's report (``rack_trace_jobs2`` only).
    parallel: Optional[Dict] = None


#: A workload ready to run: its timed part and its resolved parameters.
Prepared = Tuple[Callable[[], Outcome], Dict]


def micro_suite(n: int):
    """Zero-page micro functions: per-invocation simulated work is
    negligible, so host time goes to the framework itself."""
    from repro.mem.layout import MB
    from repro.workloads.functions import FunctionProfile

    return tuple(FunctionProfile(
        name=f"micro{i}", lang="python",
        description="scale-out micro function",
        mem_bytes=1 * MB, n_threads=1, exec_cpu=0.0, io_time=0.0,
        touched_pages=0, write_fraction=0.0, loads_per_read_page=0.0,
        n_vmas=4, n_fds=1, runtime_shared_bytes=MB // 4,
        bootstrap_time=0.01, file_io_bytes=0,
        trace_jitter=0.0) for i in range(n))


def _w2_tcxl(seed: int, scale: float) -> Prepared:
    from repro.bench.harness import make_platform
    from repro.mem.layout import GB
    from repro.serverless.runner import run_workload
    from repro.workloads.functions import function_by_name
    from repro.workloads.synthetic import make_w2_diurnal

    p = WORKLOADS["w2_tcxl"]["params"]
    workload = make_w2_diurnal(seed=p["trace_seed"],
                               duration=p["duration_s"] * scale,
                               mean_rate=p["mean_rate"],
                               soft_cap_bytes=p["soft_cap_gb"] * GB)
    platform = make_platform(p["platform"], seed=seed)
    # The knobs run_workload sets before it registers, then the
    # registrations themselves, so that run_workload finds nothing left
    # to register and its timed part starts at the first event.
    platform.node.memory.soft_cap_bytes = workload.soft_cap_bytes
    platform.keep_alive = workload.keep_alive
    platform.recorder.warmup = workload.warmup
    for fn in workload.functions_used():
        platform.register_function(function_by_name(fn))

    def run() -> Outcome:
        result = run_workload(platform, workload)
        return Outcome(recorder=result.recorder,
                       scheduled=workload.n_invocations,
                       failed=list(result.recorder.failures))

    return run, dict(p, duration_s=workload.duration,
                     arrivals=workload.n_invocations)


def _rack(seed: int, scale: float):
    from repro.serverless.partition import ClusterSpec
    from repro.workloads.synthetic import make_scaleout_uniform

    suite = micro_suite(RACK["functions"])
    arrivals = max(1, int(RACK["arrivals"] * scale))
    workload = make_scaleout_uniform(
        seed=seed, functions=suite, duration=RACK["duration_s"],
        rate=arrivals / RACK["duration_s"], quantum=RACK["quantum_s"])
    spec = ClusterSpec(n_nodes=RACK["n_nodes"], seed=seed,
                       policy=RACK["policy"], functions=suite,
                       keep_results=RACK["keep_results"])
    return spec, workload


def _cluster_outcome(result, scheduled: int, **extra) -> Outcome:
    return Outcome(recorder=result.recorder, scheduled=scheduled,
                   dispatch_counts=dict(result.dispatch_counts),
                   failed=list(result.failed),
                   redispatches=result.redispatches,
                   control=result.control, **extra)


def _rack_rr(seed: int, scale: float) -> Prepared:
    spec, workload = _rack(seed, scale)
    cluster = spec.build()
    cluster.prepare_workload(workload)

    def run() -> Outcome:
        return _cluster_outcome(cluster.run_workload(workload),
                                workload.n_invocations)

    return run, dict(WORKLOADS["rack_rr"]["params"],
                     arrivals=workload.n_invocations)


def _overload_ctl(seed: int, scale: float) -> Prepared:
    from repro.bench import experiments_overload as surge
    from repro.faults import FaultInjector, FaultPlan
    from repro.mem.layout import GB
    from repro.mem.pools import CXLPool
    from repro.serverless.cluster import make_trenv_cluster

    profile = surge.surge_profile()
    for knob in ("duration", "crash_at", "outage"):
        profile[knob] *= scale
    # The cluster and fault plan of experiments_overload._run_surge,
    # built here so that set-up ends before the first simulated event.
    cluster = make_trenv_cluster(int(profile["n_nodes"]), CXLPool(128 * GB),
                                 seed=seed, cores=int(profile["cores"]),
                                 control=surge.overload_control())
    workload = surge._surge_workload(seed, profile)
    plan = FaultPlan().node_crash(profile["crash_at"], "node1",
                                  duration=profile["outage"])
    FaultInjector.for_cluster(cluster, plan).arm()
    cluster.prepare_workload(workload)

    def run() -> Outcome:
        return _cluster_outcome(cluster.run_workload(workload),
                                workload.n_invocations)

    return run, dict(WORKLOADS["overload_ctl"]["params"], **profile,
                     functions=list(surge.SURGE_FUNCTIONS),
                     arrivals=workload.n_invocations)


def _rack_trace_jobs2(seed: int, scale: float) -> Prepared:
    from repro.serverless.parallel import run_cluster_parallel

    spec, workload = _rack(seed, scale)
    p = WORKLOADS["rack_trace_jobs2"]["params"]

    def run() -> Outcome:
        out = run_cluster_parallel(spec, workload, jobs=p["jobs"],
                                   obs_level=p["obs_level"])
        report = dict(out.report.to_dict(), span_merge=out.span_merge)
        return _cluster_outcome(
            out.result, workload.n_invocations,
            n_spans=out.tracer.n_spans if out.tracer is not None else 0,
            parallel=report)

    return run, dict(p, arrivals=workload.n_invocations)


_BUILDERS = {
    "w2_tcxl": _w2_tcxl,
    "rack_rr": _rack_rr,
    "overload_ctl": _overload_ctl,
    "rack_trace_jobs2": _rack_trace_jobs2,
}


def prepare(name: str, seed: int, scale: float = 1.0) -> Prepared:
    """Set up workload ``name`` for workload seed ``seed``: returns the
    timed part and the workload's resolved parameters.

    ``scale`` < 1 shrinks the run (tests only); pinned digests hold for
    ``scale == 1``.
    """
    return _BUILDERS[name](seed, scale)
