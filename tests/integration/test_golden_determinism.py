"""Golden determinism: host-side work never changes simulated results.

The CoW attach path, trace cache, fused fault handling, the event heap
and the rest of the hot-path work are *host-side* mechanisms: for a
fixed seed they must produce bit-identical invocation streams and memory
peaks, with only wall-clock and allocations allowed to differ.  This is
the regression gate for that contract.  The W2 slice and the 3-node
cluster stream are pinned as blake2b digests of their ``repr``; the
literals were recorded when every optimization still had a switchable
reference path, and both paths produced them bit for bit.
"""

import hashlib

import pytest

from repro.bench.harness import run_platform_workload
from repro.mem.layout import GB
from repro.workloads.synthetic import make_w2_diurnal


def digest(value):
    return hashlib.blake2b(repr(value).encode(),
                           digest_size=16).hexdigest()


def run_w2_slice(platform, seed=1, duration=150.0):
    wl = make_w2_diurnal(seed=seed, duration=duration, mean_rate=1.6,
                         soft_cap_bytes=5 * GB)
    result = run_platform_workload(platform, wl, seed=seed)
    stream = [(r.function, r.arrival, r.start_kind, r.startup, r.exec,
               r.e2e, r.queue, r.retries, r.degraded)
              for r in result.recorder.results]
    return stream, result.peak_memory_bytes


#: platform -> (invocations, stream digest, peak memory bytes).
GOLDEN_W2 = {
    "t-cxl": (228, "a0e420aa5bbd5c559d462231d86c83e1", 607657984),
    "t-rdma": (228, "11ecf4f51a5bfe20898089fefa86efaf", 904773632),
    "criu": (228, "bf3a029bb898431bbee00dfc139d2267", 5823602688),
}

#: The 3-node cluster at seed 3: (invocations, stream digest, counts).
GOLDEN_CLUSTER = (213, "ab3507eae7231171356f54ccdbef949e",
                  {"node0": 94, "node1": 82, "node2": 37})


@pytest.mark.parametrize("platform", ["t-cxl", "t-rdma", "criu"])
def test_optimizations_are_bit_identical(platform):
    """The W2 slice reproduces the pinned stream and memory peak."""
    stream, peak = run_w2_slice(platform)
    assert (len(stream), digest(stream), peak) == GOLDEN_W2[platform]


@pytest.mark.parametrize("platform", ["t-cxl", "faasnap+"])
def test_w2_repeat_is_bit_identical(platform):
    """Teardown eviction order and page-cache counting are order-free.

    VM teardown evicts the private host-cache files of many VMs into a
    shared accountant; ``charge_file`` counts misses on a set.  Both ran
    over unordered sets before the SIM003 sweep — two identical-seed W2
    runs must agree on the full stream *and* the memory peak (which the
    eviction/charge timeline feeds).
    """
    assert run_w2_slice(platform) == run_w2_slice(platform)


def _cluster_stream(seed, reference=None):
    """Run the 3-node W2 cluster; ``reference`` swaps one fast path for
    the plain code it replaces (``dispatch_index``: every pick takes the
    O(nodes) policy scan; ``batch_arrivals``: one ``spawn_at`` per
    arrival instead of ``spawn_at_many``)."""
    from repro.mem.pools import CXLPool
    from repro.serverless.cluster import make_trenv_cluster

    cluster = make_trenv_cluster(3, CXLPool(128 * GB), seed=seed)
    sim = cluster.sim
    if reference == "dispatch_index":
        cluster._index = None
    elif reference == "batch_arrivals":
        sim.spawn_at_many = lambda schedule: [sim.spawn_at(when, gen)
                                              for when, gen in schedule]
    elif reference is not None:
        raise ValueError(f"unknown reference path {reference!r}")
    wl = make_w2_diurnal(seed=seed, duration=150.0, mean_rate=1.6)
    result = cluster.run_workload(wl)
    return ([(r.function, r.arrival, r.start_kind, r.e2e)
             for r in result.recorder.results],
            dict(result.dispatch_counts))


def test_cluster_stream_matches_golden_digest():
    """The rack's dispatch index and batched arrivals keep the pinned
    stream and per-node dispatch counts."""
    stream, counts = _cluster_stream(seed=3)
    assert (len(stream), digest(stream), counts) == GOLDEN_CLUSTER


@pytest.mark.parametrize("flag", ["dispatch_index", "batch_arrivals"])
def test_cluster_scale_flags_bit_identical(flag):
    """Cluster-level streams agree with each scale fast path replaced by
    its reference code."""
    optimized = _cluster_stream(seed=3)
    reference = _cluster_stream(seed=3, reference=flag)
    assert optimized[0]
    assert optimized == reference


def test_sweep_parallel_is_bit_identical_to_serial():
    """Sweep shards agree bit-for-bit across pool sizes.

    ``jobs=1`` runs the shards serially in-process (the reference
    ordering); ``jobs=2`` fans them over a multiprocessing pool.  The
    ``results`` blocks must match exactly — only the ``host`` timing
    key may differ, and ``run_sweep`` already excludes it from the
    shard payloads.
    """
    from repro.bench.sweep import SweepConfig, run_sweep

    grid = [
        SweepConfig(seed=1, policy="warm-affinity", n_nodes=2,
                    trace="W2", duration=90.0),
        SweepConfig(seed=2, policy="least-loaded", n_nodes=2,
                    trace="scaleout", duration=30.0, rate=20.0),
        SweepConfig(seed=3, policy="round-robin", n_nodes=3,
                    trace="W2", duration=90.0),
    ]
    serial = run_sweep(grid, jobs=1, out_path=None)
    fanned = run_sweep(grid, jobs=2, out_path=None)
    assert serial["n_configs"] == 3
    assert list(serial["shards"]) == sorted(serial["shards"])
    assert serial["shards"] == fanned["shards"]


def test_sweep_worker_death_falls_back_to_serial(monkeypatch, hang_guard):
    """A dead sweep worker breaks the pool; the sweep re-runs serially,
    says why under ``host.fallback``, and keeps the serial results."""
    import functools
    import os

    from repro.bench import sweep
    from repro.bench.sweep import SweepConfig, run_sweep

    grid = [SweepConfig(seed=seed, policy="round-robin", n_nodes=2,
                        trace="scaleout", duration=10.0, rate=10.0)
            for seed in (1, 2)]
    serial = run_sweep(grid, jobs=1, out_path=None)
    original = sweep.run_config
    parent = os.getpid()

    # functools.wraps keeps the qualified name, so the pool pickles the
    # wrapper by reference and the forked worker resolves it.  Only a
    # pool worker dies; the serial re-run happens in this process.
    @functools.wraps(original)
    def dying(config, obs_level="off"):
        if config.seed == 2 and os.getpid() != parent:
            os._exit(9)
        return original(config, obs_level)

    monkeypatch.setattr(sweep, "run_config", dying)
    fanned = run_sweep(grid, jobs=2, out_path=None)
    assert fanned["host"]["fallback"].startswith("worker died: ")
    assert "fallback" not in serial["host"]
    monkeypatch.undo()
    assert fanned["shards"] == serial["shards"]


def test_sweep_hung_worker_times_out_and_falls_back(monkeypatch, hang_guard):
    """A sweep worker that blocks without dying cannot hang the sweep:
    past the configs' bound the pool's processes are stopped, and the
    sweep re-runs serially and says why under ``host.fallback``."""
    import functools
    import multiprocessing
    import os
    import threading

    from repro.bench import sweep
    from repro.bench.sweep import SweepConfig, run_sweep

    grid = [SweepConfig(seed=seed, policy="round-robin", n_nodes=2,
                        trace="scaleout", duration=10.0, rate=10.0)
            for seed in (1, 2)]
    assert sweep._sweep_bound(grid) >= 120.0
    serial = run_sweep(grid, jobs=1, out_path=None)
    original = sweep.run_config
    parent = os.getpid()

    @functools.wraps(original)
    def blocking(config, obs_level="off"):
        if config.seed == 2 and os.getpid() != parent:
            threading.Event().wait()      # never set: blocks for good
        return original(config, obs_level)

    monkeypatch.setattr(sweep, "run_config", blocking)
    monkeypatch.setattr(sweep, "_sweep_bound", lambda configs: 3.0)
    fanned = run_sweep(grid, jobs=2, out_path=None)
    assert fanned["host"]["fallback"] == "worker timed out"
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    assert fanned["shards"] == serial["shards"]


@pytest.mark.parametrize("level", ["metrics", "spans"])
def test_observability_is_bit_identical(level):
    """repro.obs never changes simulated results (the zero-cost contract).

    The same W2 slice runs unobserved and under each observability
    level; invocation streams and memory peaks must match bit-for-bit.
    """
    from repro.obs.observer import observed

    baseline = run_w2_slice("t-cxl")
    with observed(level) as obs:
        traced = run_w2_slice("t-cxl")
    assert baseline[0], "W2 slice produced no invocations"
    assert baseline == traced
    assert len(obs.registry) > 0
    if level == "spans":
        assert obs.tracer.n_spans > 0


def test_observability_cluster_bit_identical():
    """Same contract for the rack: dispatch spans don't perturb results."""
    from repro.obs.observer import observed

    baseline = _cluster_stream(seed=3)
    with observed("spans") as obs:
        traced = _cluster_stream(seed=3)
    assert baseline[0]
    assert baseline == traced
    assert obs.tracer.n_spans > 0


def test_w2_cluster_dispatch_counts_deterministic():
    """Cluster results expose dispatch counts in sorted-key order."""
    from repro.mem.layout import GB as _GB
    from repro.mem.pools import CXLPool
    from repro.serverless.cluster import make_trenv_cluster
    from repro.workloads.synthetic import make_w2_diurnal

    def run(seed):
        cluster = make_trenv_cluster(3, CXLPool(128 * _GB), seed=seed)
        wl = make_w2_diurnal(seed=seed, duration=150.0, mean_rate=1.6)
        result = cluster.run_workload(wl)
        return (list(result.dispatch_counts.items()),
                [(r.function, r.e2e) for r in result.recorder.results])

    first, second = run(3), run(3)
    assert first == second
    keys = [k for k, _ in first[0]]
    assert keys == sorted(keys)
