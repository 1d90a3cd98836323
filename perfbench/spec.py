"""What the benchmark measures: workloads, metrics and the layer table.

Pure data, no simulator imports: the parent process (``run.py``), the
per-iteration child (``child.py``) and the tests all read it.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

#: Metric and workload names: what ``BENCHMARK.json`` accepts.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: ``--seed n`` selects workload seed ``n % SEED_SPACE``.  Every workload
#: seed in this space has its outcome digest pinned in ``expected.json``,
#: so every run is checked against a known-good result, whatever seed it
#: is given.
SEED_SPACE = 16


def workload_seed(seed: int) -> int:
    return seed % SEED_SPACE


#: The 10-node rack of the ROADMAP, shared by ``rack_rr`` and
#: ``rack_trace_jobs2``.
RACK = {
    "n_nodes": 10,
    "functions": 16,
    "arrivals": 8_000,
    "duration_s": 600.0,
    "quantum_s": 0.05,
    "policy": "round-robin",
    "keep_results": False,
}

WORKLOADS: Dict[str, Dict] = {
    "w2_tcxl": {
        "why": "paper container scenario: fig17 W2 on one t-cxl node; "
               "host time is address-space faults and CoW, the engine "
               "is nearly idle",
        # The trace is the issue-defined W2 of seed 1, so every run does
        # the same work; the workload seed drives the node's randomness.
        "params": {"platform": "t-cxl", "trace_seed": 1, "duration_s": 120.0,
                   "mean_rate": 1.6, "soft_cap_gb": 5},
    },
    "rack_rr": {
        "why": "10-node rack, 16 zero-page micro functions, round-robin, "
               "serial: engine stepping, dispatch and platform "
               "bookkeeping dominate, memory work is small",
        "params": dict(RACK),
    },
    "overload_ctl": {
        "why": "10x CPU surge with a node crash, warm-affinity dispatch "
               "and the control plane armed: the only run of "
               "repro.control and repro.faults",
        # The controlled surge of repro.bench.experiments_overload, as
        # that module defines it; the child reports the resolved values.
        "params": {"profile": "surge_profile()",
                   "control": "overload_control()",
                   "crash": "node1", "policy": "warm-affinity"},
    },
    "rack_trace_jobs2": {
        "why": "rack_rr arrivals sharded over 2 workers with spans on: "
               "the only run where the sharded path and the obs layer "
               "do real work",
        "params": dict(RACK, jobs=2, obs_level="spans"),
    },
}

#: ``rack_trace_jobs2`` must reproduce ``rack_rr`` bit for bit, so both
#: are checked against the same pinned digests.
DIGEST_KEY = {"rack_trace_jobs2": "rack_rr"}

#: End-to-end metrics: (name, unit, better).  Bounds live in
#: ``BENCHMARK.json``.
END_TO_END: List[Tuple[str, str, str]] = [
    ("inv_per_s", "1/s", "higher"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Layer -> the modules it owns.  An entry ending in ``.*`` owns a
#: package and every module below it; any other entry owns exactly that
#: module.  Every ``repro`` module a workload imports must match exactly
#: one entry (``test_perfbench.py`` checks this).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim": ("repro.sim", "repro.sim.engine", "repro.sim.cpu",
            "repro.sim.rng", "repro.sim.latency"),
    "serverless.dispatch": ("repro.serverless.cluster",
                            "repro.serverless.policies"),
    "serverless.platform": ("repro.serverless", "repro.serverless.base",
                            "repro.serverless.runner",
                            "repro.serverless.baselines", "repro.core",
                            "repro.core.platform", "repro.core.config",
                            "repro.node"),
    "serverless.metrics": ("repro.serverless.metrics",),
    "control": ("repro.control.*", "repro.faults.*"),
    "mem.fault": ("repro.mem", "repro.mem.address_space", "repro.mem.cow",
                  "repro.mem.accounting", "repro.mem.layout"),
    "mem.pools": ("repro.mem.pools", "repro.mem.page_cache",
                  "repro.mem.tiering", "repro.mem.dedup_analysis"),
    "core.template": ("repro.core.mm_template", "repro.criu.*"),
    "sandbox": ("repro.core.repurpose", "repro.container.*",
                "repro.kernel.*", "repro.vm.*"),
    "workloads": ("repro.workloads.*", "repro.mem.trace"),
    "obs": ("repro.obs.*",),
    "parallel": ("repro.serverless.parallel", "repro.serverless.partition",
                 "repro.sim.parallel"),
    # Not part of the simulated system: package roots, flags, the
    # experiment harness, the analysis tools, and this benchmark's code.
    "harness": ("repro", "repro.optflags", "repro.bench.*",
                "repro.analysis.*", "repro.agents.*", "repro.report",
                "repro.cli"),
}

#: Host time no layer owns: library code with no repro caller.
UNOWNED = "other"


def layers_of(module: str) -> List[str]:
    """Every layer with an entry matching ``module`` (ideally one)."""
    out = []
    for layer, entries in LAYERS.items():
        for entry in entries:
            if entry.endswith(".*"):
                pkg = entry[:-2]
                hit = module == pkg or module.startswith(pkg + ".")
            else:
                hit = module == entry
            if hit:
                out.append(layer)
                break
    return out


def layer_of(module: str) -> Optional[str]:
    found = layers_of(module)
    return found[0] if len(found) == 1 else None


#: Per-layer metrics: (name, unit, better).  ``<layer>.self_s`` is the
#: layer's own host time in the traced run (its inclusive time minus
#: that of the layers it calls; library time goes to the calling layer).
_LAYER_EXTRA: Dict[str, List[Tuple[str, str, str]]] = {
    "sim": [("us_per_inv", "us", "lower")],
    "serverless.dispatch": [("picks", "count", "lower"),
                            ("redispatches", "count", "lower")],
    "serverless.platform": [("invokes", "count", "lower"),
                            ("warm_hit_ratio", "ratio", "higher")],
    "serverless.metrics": [("records", "count", "lower")],
    "control": [("admits", "count", "higher"),
                ("shed_ratio", "ratio", "lower"),
                ("breaker_rejects", "count", "lower")],
    "mem.fault": [("accesses", "count", "lower"),
                  ("faults", "count", "lower"),
                  ("ns_per_fault", "ns", "lower")],
    "mem.pools": [("fetches", "count", "lower")],
    "core.template": [("attaches", "count", "lower"),
                      ("restores", "count", "lower"),
                      ("us_per_attach", "us", "lower")],
    "sandbox": [("repurposes", "count", "lower")],
    "workloads": [("traces", "count", "lower"),
                  ("trace_cache_hit_ratio", "ratio", "higher")],
    "obs": [("spans", "count", "lower"), ("us_per_span", "us", "lower")],
    "parallel": [("plan_s", "s", "lower"), ("merge_s", "s", "lower"),
                 ("shard_wall_max_s", "s", "lower"),
                 ("imbalance", "ratio", "lower"),
                 ("speedup", "x", "higher")],
}

TRACE_METRICS: List[Tuple[str, str, str]] = [
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage", "ratio", "higher"),
]


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    out: List[Tuple[str, str, str]] = []
    for layer in list(LAYERS) + [UNOWNED]:
        out.append((f"{layer}.self_s", "s", "lower"))
        for name, unit, better in _LAYER_EXTRA.get(layer, []):
            out.append((f"{layer}.{name}", unit, better))
    return out + TRACE_METRICS
