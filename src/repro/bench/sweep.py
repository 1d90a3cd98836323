"""Parallel experiment sweep: (seed, policy, node count, trace) grids.

Scaling the reproduction to trace scale means running *many* cluster
configurations, and each configuration is an independent simulation with
its own :class:`~repro.sim.engine.Simulator`.  The sweep runner fans a
configuration grid across a process pool — one shard per
configuration, each building its world from the configuration's seed —
and merges the shard reports into ``BENCH_sweep.json``.

Shards are **bit-identical to serial execution** by construction: a
shard's simulated outcome is a pure function of its
:class:`SweepConfig` (all randomness flows through
:class:`~repro.sim.rng.SeededRNG` keyed by the config's seed), so the
process boundary can only change host-side timings, which are reported
under a separate ``host`` key and excluded from determinism
comparisons.  ``tests/integration/test_golden_determinism.py`` holds
the regression gate.  A worker that dies makes the sweep re-run every
shard serially and record why under ``host.fallback``.

Run via ``python -m repro.cli sweep [--quick] [--jobs N]``.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from repro.mem.layout import GB
from repro.serverless.parallel import resolve_jobs

#: Dispatch policies the sweep exercises, by their registry names.
POLICY_NAMES = ("warm-affinity", "least-loaded", "round-robin")

#: Trace generators the sweep can replay.
TRACE_NAMES = ("W1", "W2", "azure", "huawei", "scaleout")


@dataclass(frozen=True)
class SweepConfig:
    """One sweep shard: everything needed to rebuild its world."""

    seed: int
    policy: str
    n_nodes: int
    trace: str
    duration: float = 300.0
    #: Arrival rate for the synthetic "scaleout" trace (ignored by the
    #: paper traces, which carry their own rate structure).
    rate: float = 120.0

    @property
    def config_id(self) -> str:
        return (f"{self.trace}-{self.policy}-n{self.n_nodes}"
                f"-s{self.seed}")


def default_grid(quick: bool = False) -> List[SweepConfig]:
    """The stock grid: every policy over a couple of seeds and shapes."""
    if quick:
        return [
            SweepConfig(seed=1, policy="warm-affinity", n_nodes=2,
                        trace="W2", duration=120.0),
            SweepConfig(seed=2, policy="least-loaded", n_nodes=2,
                        trace="scaleout", duration=60.0, rate=30.0),
        ]
    configs: List[SweepConfig] = []
    for trace in ("W2", "azure", "scaleout"):
        for policy in POLICY_NAMES:
            for seed in (1, 2):
                configs.append(SweepConfig(
                    seed=seed, policy=policy, n_nodes=4, trace=trace,
                    duration=300.0, rate=60.0))
    return configs


def _make_policy(name: str):
    from repro.serverless.cluster import make_policy
    return make_policy(name)


def _make_workload(config: SweepConfig):
    from repro.mem.layout import GB as _GB
    from repro.workloads.azure import make_azure_workload
    from repro.workloads.huawei import make_huawei_workload
    from repro.workloads.synthetic import (make_scaleout_uniform,
                                           make_w1_bursty, make_w2_diurnal)
    if config.trace == "W1":
        return make_w1_bursty(seed=config.seed, duration=config.duration)
    if config.trace == "W2":
        return make_w2_diurnal(seed=config.seed, duration=config.duration,
                               mean_rate=1.6, soft_cap_bytes=5 * _GB)
    if config.trace == "azure":
        return make_azure_workload(seed=config.seed,
                                   duration=config.duration)
    if config.trace == "huawei":
        return make_huawei_workload(seed=config.seed,
                                    duration=config.duration)
    if config.trace == "scaleout":
        return make_scaleout_uniform(seed=config.seed,
                                     duration=config.duration,
                                     rate=config.rate)
    raise ValueError(
        f"unknown trace {config.trace!r}; known: {TRACE_NAMES}")


def run_config(config: SweepConfig, obs_level: str = "off") -> Dict:
    """One shard: build a cluster from the config, run it, summarise.

    The ``results`` block is a pure function of ``config``; ``host``
    carries wall-clock only and is excluded from determinism checks.
    With ``obs_level != "off"`` a fresh observer runs for the shard and
    its registry is serialised under ``obs`` — registry merge is
    associative, so the parent's merged totals equal a serial run's.
    """
    from repro.mem.pools import CXLPool
    from repro.obs.observer import observed
    from repro.serverless.cluster import make_trenv_cluster

    t0 = time.perf_counter()
    workload = _make_workload(config)
    cluster = make_trenv_cluster(config.n_nodes, CXLPool(128 * GB),
                                 seed=config.seed,
                                 policy=_make_policy(config.policy))
    with observed(obs_level) as obs:
        result = cluster.run_workload(workload)
    wall = time.perf_counter() - t0
    recorder = result.recorder
    report = {
        "id": config.config_id,
        "config": dict(sorted(asdict(config).items())),
        "results": {
            "invocations": recorder.count(),
            "p50_e2e": recorder.e2e_percentile(50),
            "p99_e2e": recorder.e2e_percentile(99),
            "p99_startup": recorder.startup_percentile(99),
            "start_kinds": recorder.start_kind_counts(),
            "dispatch_counts": result.dispatch_counts,
            "availability": dict(sorted(result.availability.items())),
            "total_peak_mb": result.total_peak_mb,
            "pool_used_mb": result.pool_used_mb,
            "duration": result.duration,
        },
        "host": {"wall_s": wall},
    }
    if obs is not None:
        report["obs"] = obs.registry.to_dict()
    return report


def run_sweep(configs: Optional[Sequence[SweepConfig]] = None,
              jobs: int = 0, quick: bool = False,
              out_path: Optional[str] = "BENCH_sweep.json",
              obs_level: str = "off") -> Dict:
    """Fan ``configs`` over a process pool; merge into one report.

    ``jobs=0`` sizes the pool to the CPU count (capped by the shard
    count); ``jobs=1`` runs serially in-process, which the determinism
    test uses as the reference ordering.  With ``obs_level != "off"``
    each shard observes itself and the per-shard registries are merged
    (in sorted shard-id order) under the report's ``obs`` key; merge is
    associative, so parallel totals equal a serial run's.
    """
    shards = list(configs) if configs is not None else default_grid(quick)
    ids = [c.config_id for c in shards]
    if len(set(ids)) != len(ids):
        raise ValueError("sweep grid has duplicate config ids")
    t0 = time.perf_counter()
    n = resolve_jobs(jobs, len(shards))
    reports: Optional[List[Dict]] = None
    fallback: Optional[str] = None
    if n > 1:
        try:
            with ProcessPoolExecutor(n) as pool:
                futures = [pool.submit(run_config, c, obs_level)
                           for c in shards]
                reports = [f.result() for f in futures]
        except BrokenProcessPool as exc:
            fallback = f"worker died: {exc}"
    if reports is None:
        reports = [run_config(c, obs_level=obs_level) for c in shards]
    wall = time.perf_counter() - t0
    merged = {
        "schema": "trenv-repro-sweep/1",
        "quick": quick,
        "n_configs": len(shards),
        "shards": {r["id"]: {"config": r["config"],
                             "results": r["results"]}
                   for r in sorted(reports, key=lambda r: r["id"])},
        "host": {
            "wall_s": wall,
            "per_shard_wall_s": {r["id"]: r["host"]["wall_s"]
                                 for r in sorted(reports,
                                                 key=lambda r: r["id"])},
        },
    }
    if fallback is not None:
        merged["host"]["fallback"] = fallback
    if obs_level != "off":
        from repro.obs.registry import MetricsRegistry
        combined = MetricsRegistry()
        for r in sorted(reports, key=lambda r: r["id"]):
            combined.merge_from(MetricsRegistry.from_dict(r["obs"]))
        merged["obs"] = {
            "level": obs_level,
            "registry": combined.to_dict(),
            "totals": combined.totals(),
        }
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(merged, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return merged
