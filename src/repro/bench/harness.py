"""Shared helpers: platform and template construction, workload runs,
table printing."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import TrEnvConfig
from repro.core.mm_template import MMTemplateRegistry, MemoryTemplate
from repro.core.platform import TrEnvPlatform
from repro.mem.address_space import PROT_READ, PROT_WRITE
from repro.mem.layout import GB
from repro.mem.pools import CXLPool, DedupStore, RDMAPool, TieredPool
from repro.node import Node
from repro.serverless.baselines import (CRIUPlatform, FaasdPlatform,
                                        FaasnapPlatform, ReapPlatform)
from repro.serverless.runner import RunResult, run_workload
from repro.sim.engine import Simulator
from repro.workloads.synthetic import Workload

#: Container-side systems of §9.2–§9.5.
PLATFORM_NAMES = ("faasd", "criu", "reap+", "faasnap+", "t-cxl", "t-rdma")

POOL_BYTES = 128 * GB


def make_platform(name: str, seed: int = 1, cores: int = 64,
                  config: Optional[TrEnvConfig] = None):
    """Build a fresh node + platform by its paper name."""
    node = Node(cores=cores, seed=seed)
    if name == "faasd":
        return FaasdPlatform(node)
    if name == "criu":
        return CRIUPlatform(node)
    if name in ("reap", "reap+"):
        return ReapPlatform(node, netns_pool=name.endswith("+"))
    if name in ("faasnap", "faasnap+"):
        return FaasnapPlatform(node, netns_pool=name.endswith("+"))
    if name == "t-cxl":
        pool = CXLPool(POOL_BYTES, node.latency)
        return TrEnvPlatform(node, pool, config=config, name="t-cxl")
    if name == "t-rdma":
        pool = RDMAPool(POOL_BYTES, node.latency)
        return TrEnvPlatform(node, pool, config=config, name="t-rdma")
    if name == "t-tiered":
        pool = TieredPool(CXLPool(POOL_BYTES // 2, node.latency),
                          RDMAPool(POOL_BYTES // 2, node.latency),
                          hot_fraction=0.5)
        return TrEnvPlatform(node, pool, config=config, name="t-tiered")
    raise ValueError(f"unknown platform {name!r}; known: {PLATFORM_NAMES}")


def run_platform_workload(name: str, workload: Workload, seed: int = 1,
                          config: Optional[TrEnvConfig] = None) -> RunResult:
    platform = make_platform(name, seed=seed, config=config)
    return run_workload(platform, workload)


def build_synthetic_template(total_pages: int,
                             n_vmas: int = 16) -> MemoryTemplate:
    """A sealed template of ``total_pages`` pages over a fixed VMA count,
    so attach cost can only scale with pages (what O(metadata)
    ``mmt_attach`` must not do, §5.1)."""
    registry = MMTemplateRegistry(Simulator())
    store = DedupStore(CXLPool(64 * GB))
    template = registry.mmt_create(f"synthetic-{total_pages}")
    per = total_pages // n_vmas
    for i in range(n_vmas):
        registry.mmt_add_map(
            template, f"vma-{i}",
            per if i < n_vmas - 1 else total_pages - per * (n_vmas - 1),
            PROT_READ | PROT_WRITE)
    content = np.arange(total_pages, dtype=np.int64)
    registry.mmt_setup_pt(template, None, store.store_image(content))
    template.content[:] = content
    return template


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence], width: int = 12) -> str:
    """Render an aligned text table for bench output."""
    def fmt(cell):
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    lines = [title, "-" * max(len(title), width * len(headers))]
    lines.append("".join(f"{h:>{width}}" for h in headers))
    for row in rows:
        lines.append("".join(f"{fmt(c):>{width}}" for c in row))
    return "\n".join(lines)
