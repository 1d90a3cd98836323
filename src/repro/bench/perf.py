"""Tracked performance harness: host-side cost of the simulator itself.

Every other module under :mod:`repro.bench` measures *simulated* time —
the virtual-clock latencies the paper reports.  This one measures the
*host* cost of producing those numbers, so regressions in the
reproduction's own hot paths are visible and tracked:

1. **Attach latency vs image size** — wall-clock cost of
   ``clone_metadata`` + ``adopt_vma`` for every VMA of a template on the
   copy-on-write clone path (:mod:`repro.mem.cow`).  The
   fixed-VMA-count sweep varies pages only: attach time must stay flat
   as pages grow, mirroring TrEnv's O(metadata) ``mmt_attach`` (§5.1,
   Figure 11).  Real function layouts (DH, IR) are reported as well;
   those scale VMA count with image size.
2. **Cluster throughput** — invocations simulated per host-second for a
   fig17-style W2 diurnal run.
3. **Parallel scaling** — a 10-node rack driving a 100k-invocation
   quantised trace through micro functions, sharded at each worker
   count.
4. **Observability overhead** and **peak RSS** of the harness process.

Results land in ``BENCH_perf.json`` at the repo root (overwritten per
run; CI uploads it as an artifact without threshold gating).  Run via
``python -m repro.cli perf [--quick]``.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.harness import run_platform_workload
from repro.core.mm_template import (MMTemplateRegistry, MemoryTemplate,
                                    _ATTACH_PER_PAGE)
from repro.criu.images import SnapshotImage
from repro.mem.address_space import AddressSpace, PROT_READ, PROT_WRITE
from repro.mem.layout import GB, MB
from repro.mem.pools import CXLPool, DedupStore
from repro.serverless.metrics import LatencyRecorder
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.workloads.functions import FunctionProfile, function_by_name
from repro.workloads.synthetic import make_scaleout_uniform, make_w2_diurnal

#: Page counts for the fixed-VMA-count sweep.  218880 pages is the
#: 855 MB IR image of Table 4 — the paper's largest container snapshot.
ATTACH_PAGE_COUNTS = (1024, 32768, 218880)
ATTACH_N_VMAS = 16


# ------------------------------------------------------------------ attach --

def _build_synthetic_template(total_pages: int,
                              n_vmas: int = ATTACH_N_VMAS) -> MemoryTemplate:
    """A template with a fixed VMA count, so attach cost scales only
    with pages (the quantity CoW is supposed to erase)."""
    registry = MMTemplateRegistry(Simulator())
    store = DedupStore(CXLPool(64 * GB))
    template = registry.mmt_create(f"synthetic-{total_pages}")
    per = total_pages // n_vmas
    cursor = 0
    for i in range(n_vmas):
        npages = per if i < n_vmas - 1 else total_pages - per * (n_vmas - 1)
        name = f"vma-{i}"
        registry.mmt_add_map(template, name, npages, PROT_READ | PROT_WRITE)
        content = np.arange(cursor, cursor + npages, dtype=np.int64)
        registry.mmt_setup_pt(template, name, store.store_image(content))
        template.find_vma(name).content[:] = content
        cursor += npages
    return template


def _build_function_template(fn_name: str) -> MemoryTemplate:
    registry = MMTemplateRegistry(Simulator())
    store = DedupStore(CXLPool(64 * GB))
    image = SnapshotImage.from_profile(function_by_name(fn_name))
    from repro.core.mm_template import build_template_for_function
    return build_template_for_function(registry, image, store)


def _time_attach(template: MemoryTemplate, iters: int) -> float:
    """Best-of-N wall-clock seconds for one full template attach."""
    best = float("inf")
    for _ in range(iters):
        t0 = time.perf_counter()
        space = AddressSpace("bench")
        for vma in template.vmas:
            space.adopt_vma(vma.clone_metadata())
        best = min(best, time.perf_counter() - t0)
    return best


def _attach_record(template: MemoryTemplate, iters: int) -> Dict:
    """CoW attach cost (host and simulated) for one template."""
    # One warm attach first: building the frozen CoW bases is a one-time
    # per-template cost, exactly like the kernel sealing the template
    # page table; steady-state warm starts are what the paper plots.
    _time_attach(template, 1)
    cow_s = _time_attach(template, iters)
    lat = LatencyModel().mem
    simulated = (lat.mmt_attach_base
                 + lat.mmt_attach_per_vma * len(template.vmas)
                 + _ATTACH_PER_PAGE * template.total_pages)
    return {
        "pages": template.total_pages,
        "n_vmas": len(template.vmas),
        "cow_us": cow_s * 1e6,
        "simulated_ms": simulated * 1e3,
    }


def bench_attach(iters: int = 30,
                 page_counts: Sequence[int] = ATTACH_PAGE_COUNTS,
                 functions: Sequence[str] = ("DH", "IR")) -> Dict:
    sweep: List[Dict] = [
        _attach_record(_build_synthetic_template(pages), iters)
        for pages in page_counts
    ]
    images: List[Dict] = []
    for fn in functions:
        rec = _attach_record(_build_function_template(fn), iters)
        rec["function"] = fn
        images.append(rec)
    return {"fixed_vma_sweep": sweep, "function_images": images}


# -------------------------------------------------------------- throughput --

def bench_throughput(duration: float = 120.0,
                     platforms: Sequence[str] = ("t-cxl", "t-rdma"),
                     seed: int = 1) -> Dict:
    """Invocations simulated per host wall-clock second, W2 diurnal."""
    out: Dict = {"workload": "W2", "duration_s": duration, "platforms": {}}
    for name in platforms:
        workload = make_w2_diurnal(seed=seed, duration=duration,
                                   mean_rate=1.6, soft_cap_bytes=5 * GB)
        t0 = time.perf_counter()
        result = run_platform_workload(name, workload, seed=seed)
        wall = time.perf_counter() - t0
        n = len(result.recorder.results)
        out["platforms"][name] = {
            "invocations": n,
            "wall_s": wall,
            "inv_per_s": n / wall if wall > 0 else float("inf"),
        }
    return out


# ------------------------------------------------------------- rack runs --

def micro_suite(n: int = 4):
    """Tiny functions for scale-out benchmarking.

    Minimal pages/CPU/IO per invocation so the per-invocation simulated
    work is negligible and the harness measures the framework's own
    hot paths: event scheduling, dispatch decisions, arrival spawning
    and metrics recording.
    """
    return tuple(FunctionProfile(
        name=f"micro{i}", lang="python",
        description="scale-out micro function",
        mem_bytes=1 * MB, n_threads=1, exec_cpu=0.0, io_time=0.0,
        touched_pages=0, write_fraction=0.0, loads_per_read_page=0.0,
        n_vmas=4, n_fds=1, runtime_shared_bytes=MB // 4,
        bootstrap_time=0.01, file_io_bytes=0,
        trace_jitter=0.0) for i in range(n))


def _run_rack(workload, suite, n_nodes: int, seed: int) -> Dict:
    """One timed rack run on a freshly built rack.

    Dispatch is round-robin, not the default warm-affinity: with
    zero-exec micro functions every load tie breaks to node0 and warm
    affinity then pins the entire trace there — a one-node rack in
    disguise.  Round-robin keeps all ``n_nodes`` hosts doing real work
    (the point of a scale-out bench) while staying deterministic."""
    from repro.serverless.cluster import RoundRobin, make_trenv_cluster

    t0 = time.perf_counter()
    cluster = make_trenv_cluster(n_nodes, CXLPool(128 * GB), seed=seed,
                                 policy=RoundRobin())
    for platform in cluster.platforms:
        for profile in suite:
            platform.register_function(profile)
        # O(bins) metrics memory: no per-invocation result list.
        platform.recorder = LatencyRecorder(keep_results=False)
    result = cluster.run_workload(workload)
    summary = result.recorder.summary()
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "invocations": result.recorder.count(),
        "inv_per_s": (result.recorder.count() / wall
                      if wall > 0 else float("inf")),
        "p99_e2e": max(row["p99_e2e"] for row in summary.values()),
        "dispatch_counts": result.dispatch_counts,
    }


def _best_s(fn, repeats: int) -> float:
    """Best-of-N wall-clock seconds for one timed closure."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# ----------------------------------------------------------------- parallel --

def bench_parallel(n_nodes: int = 10, invocations: int = 100_000,
                   seed: int = 3, quick: bool = False,
                   jobs_cap: int = 0) -> Dict:
    """Wall-clock scaling of the sharded cluster runner.

    A 10-node rack driving 100k quantised invocations through micro
    functions, round-robin, run through
    :func:`~repro.serverless.parallel.run_cluster_parallel` at each
    worker count.  ``jobs=1`` takes the serial reference path; every
    other count must merge back to the same dispatch counts (checked
    here — full bit-identity of results and registries is pinned by the
    golden tests).  ``speedup`` is serial wall over parallel wall and
    ``efficiency`` divides it by the worker count; ``host_cpus`` is
    recorded because scaling is bounded by it — worker processes on
    fewer cores time-slice instead of overlapping, so efficiency on a
    starved host measures sharding overhead, not parallelism.
    """
    from repro.serverless.parallel import run_cluster_parallel
    from repro.serverless.partition import ClusterSpec

    if quick:
        n_nodes, invocations = 4, 8_000
    worker_counts = [1, 2] if quick else [1, 2, 4]
    if jobs_cap > 0:
        worker_counts = [j for j in worker_counts if j <= jobs_cap] or [1]

    suite = micro_suite(16)
    duration = 600.0
    rate = invocations / duration
    workload = make_scaleout_uniform(seed=seed, functions=suite,
                                     duration=duration, rate=rate,
                                     quantum=0.05)
    spec = ClusterSpec(n_nodes=n_nodes, seed=seed, policy="round-robin",
                       functions=suite, keep_results=False)

    serial_wall: Optional[float] = None
    reference_counts: Optional[Dict] = None
    workers: List[Dict] = []
    for j in worker_counts:
        t0 = time.perf_counter()
        out = run_cluster_parallel(spec, workload, jobs=j)
        wall = time.perf_counter() - t0
        counts = out.result.dispatch_counts
        if reference_counts is None:
            reference_counts, serial_wall = counts, wall
        elif counts != reference_counts:
            raise RuntimeError(
                f"parallel bench: jobs={j} diverged from the serial "
                "reference dispatch counts")
        n = out.result.recorder.count()
        workers.append({
            "jobs": j,
            "mode": out.report.mode,
            "n_shards": out.report.n_shards,
            "wall_s": wall,
            "inv_per_s": n / wall if wall > 0 else float("inf"),
            "speedup": serial_wall / wall if wall > 0 else float("inf"),
            "efficiency": (serial_wall / (wall * j)
                           if wall > 0 else float("inf")),
        })
    return {
        "n_nodes": n_nodes,
        "scheduled_invocations": len(workload.events),
        "host_cpus": os.cpu_count() or 1,
        "workers": workers,
    }


# ------------------------------------------------------------ obs overhead --

def bench_obs_overhead(quick: bool = False, seed: int = 5) -> Dict:
    """Wall-clock cost of repro.obs at each level on a rack-scale run.

    Four timed runs of the same scenario: a baseline with no observer
    installed, a second un-observed run (their ratio bounds repeat-run
    noise — the "< 2% when off" acceptance check, since obs-off code is
    just the never-taken ``hooks.active is not None`` branches), then
    ``metrics`` and ``spans``.  Simulated results are asserted identical
    across all four.
    """
    from repro.obs.observer import observed

    if quick:
        n_nodes, invocations, repeats = 2, 2_000, 1
    else:
        n_nodes, invocations, repeats = 4, 8_000, 3
    suite = micro_suite(8)
    duration = 120.0
    rate = invocations / duration
    workload = make_scaleout_uniform(seed=seed, functions=suite,
                                     duration=duration, rate=rate,
                                     quantum=0.05)

    checks: List = []

    def run_at(level: str) -> Dict:
        with observed(level):
            out = _run_rack(workload, suite, n_nodes, seed)
        checks.append((out["invocations"], out["dispatch_counts"]))
        return out

    # Warm discard run: imports, trace caches, allocator warm-up.
    run_at("off")
    checks.clear()

    baseline_s = _best_s(lambda: run_at("off"), repeats)
    off_s = _best_s(lambda: run_at("off"), repeats)
    metrics_s = _best_s(lambda: run_at("metrics"), repeats)
    spans_s = _best_s(lambda: run_at("spans"), repeats)
    if len(set(map(str, checks))) != 1:
        raise RuntimeError("obs-overhead bench: simulated results diverged "
                           "across observability levels")

    def pct(a: float, b: float) -> float:
        return max(0.0, (a / b - 1.0) * 100.0) if b > 0 else 0.0

    return {
        "n_nodes": n_nodes,
        "scheduled_invocations": len(workload.events),
        "repeats": repeats,
        "baseline_s": baseline_s,
        "off_s": off_s,
        "metrics_s": metrics_s,
        "spans_s": spans_s,
        "off_overhead_pct": pct(off_s, baseline_s),
        "metrics_overhead_pct": pct(metrics_s, off_s),
        "spans_overhead_pct": pct(spans_s, off_s),
    }


# --------------------------------------------------------------------- rss --

def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":   # bytes on macOS
        return rss / (1024 * 1024)
    return rss / 1024


# -------------------------------------------------------------- entrypoint --

def run_perf(quick: bool = False,
             out_path: Optional[str] = "BENCH_perf.json",
             jobs: int = 0) -> Dict:
    """Run the full harness; write ``out_path`` (unless None); return it.

    ``jobs`` (the unified worker-count option) caps the worker counts
    the ``parallel`` section sweeps; 0 keeps the profile's default
    ladder (1/2/4 full, 1/2 quick).
    """
    iters = 5 if quick else 30
    duration = 30.0 if quick else 120.0
    platforms = ("t-cxl",) if quick else ("t-cxl", "t-rdma")
    report = {
        "schema": "trenv-repro-perf/1",
        "quick": quick,
        "attach": bench_attach(iters=iters),
        "throughput": bench_throughput(duration=duration,
                                       platforms=platforms),
        "parallel": bench_parallel(quick=quick, jobs_cap=jobs),
        "obs_overhead": bench_obs_overhead(quick=quick),
        "peak_rss_mb": peak_rss_mb(),
    }
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report
