"""Ablation: tiered-pool placement policies (design choice in §5.1/§9.5).

Compares, for a CXL-budget-constrained rack, (a) pure CXL, (b) pure
RDMA, (c) naive fractional tiering, (d) working-set-aware tiering.
"""

import numpy as np

from repro.bench import format_table
from repro.core.mm_template import MMTemplateRegistry, build_template_for_function
from repro.criu.images import SnapshotImage
from repro.mem.address_space import AddressSpace
from repro.mem.layout import GB
from repro.mem.pools import CXLPool, DedupStore, RDMAPool, TieredPool
from repro.mem.tiering import working_set_hot_mask
from repro.sim.engine import Simulator
from repro.sim.rng import SeededRNG
from repro.workloads.functions import function_by_name


def run_tiering_ablation(function="IR"):
    profile = function_by_name(function)
    image = SnapshotImage.from_profile(profile)
    rng = SeededRNG(5)
    trace = profile.make_trace(rng, invocation=1)

    def run(pool, hot_mask=None):
        sim = Simulator()
        registry = MMTemplateRegistry(sim)
        store = DedupStore(pool)
        template = build_template_for_function(registry, image, store,
                                               hot_mask=hot_mask)
        space = AddressSpace("x")

        def proc():
            yield from registry.mmt_attach(template, space)

        sim.run_process(proc())
        outcome = space.access(trace.read_pages, trace.write_pages,
                               trace.read_loads)
        fetch_t = (pool.fetch_time(outcome.pages_fetched)
                   if outcome.pages_fetched else 0.0)
        read_t = pool.read_overhead(outcome.remote_loads)
        return {"exec_overhead_ms": (fetch_t + read_t) * 1e3,
                "local_mb": space.local_bytes / (1 << 20),
                "major_faults": outcome.major_faults}

    lat = None
    results = {
        "pure-cxl": run(CXLPool(8 * GB)),
        "pure-rdma": run(RDMAPool(8 * GB)),
        "tiered-naive": run(TieredPool(CXLPool(8 * GB), RDMAPool(8 * GB),
                                       hot_fraction=0.10)),
        "tiered-ws": run(TieredPool(CXLPool(8 * GB), RDMAPool(8 * GB),
                                    hot_fraction=0.10),
                         hot_mask=working_set_hot_mask(profile, rng)),
    }
    return results


def test_ablation_tiering(run_once):
    data = run_once(run_tiering_ablation)

    rows = [(name, d["exec_overhead_ms"], d["local_mb"], d["major_faults"])
            for name, d in data.items()]
    print()
    print(format_table(
        "Tiering ablation (IR): remote-memory overhead per invocation",
        ("policy", "overhead_ms", "local_MB", "faults"), rows, width=14))

    # Pure CXL is the floor; pure RDMA the ceiling.
    assert data["pure-cxl"]["exec_overhead_ms"] \
        < data["pure-rdma"]["exec_overhead_ms"]
    # Naive 10% tiering misses most of the working set.
    assert data["tiered-naive"]["major_faults"] > 1000
    # Working-set placement recovers almost the pure-CXL behaviour with
    # a tenth of the CXL budget.
    assert data["tiered-ws"]["major_faults"] \
        < data["tiered-naive"]["major_faults"] / 3
    assert data["tiered-ws"]["exec_overhead_ms"] \
        < 2.5 * data["pure-cxl"]["exec_overhead_ms"] + 10.0
    # And it keeps local memory as low as pure CXL (reads stay remote).
    assert data["tiered-ws"]["local_mb"] \
        < data["pure-rdma"]["local_mb"] / 2
