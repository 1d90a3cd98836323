"""Regression tests for the base-trace memo (found by `lint --deep`).

The original ``_BASE_TRACE_CACHE`` was a plain unbounded dict that grew
without limit across long parameter sweeps.  It now routes through
:func:`repro.workloads.cache.memoized`: bounded LRU, and certified
shard-safe (the value is a pure function of the key).  Its
bound covers a whole rack, so a round-robin run over every (node,
function) pair builds each base trace once.
"""

from collections import Counter

import numpy as np

from repro.mem.layout import MB
from repro.mem.trace import AccessTrace
from repro.sim.rng import SeededRNG
from repro.workloads import functions as fmod
from repro.workloads.functions import (BASE_TRACE_ENTRIES, FUNCTIONS,
                                       FunctionProfile, function_by_name)


def setup_function(_):
    fmod._BASE_TRACE_CACHE.clear()


def traces_equal(a, b):
    return (np.array_equal(a.read_pages, b.read_pages)
            and np.array_equal(a.write_pages, b.write_pages))


def test_base_trace_identical_with_and_without_cache():
    f = function_by_name("IR")
    cached_cold = f.base_trace(SeededRNG(11))
    cached_warm = f.base_trace(SeededRNG(11))
    assert cached_warm is cached_cold  # memo hit
    fmod._BASE_TRACE_CACHE.clear()
    uncached = f.base_trace(SeededRNG(11))
    assert uncached is not cached_cold
    assert traces_equal(uncached, cached_cold)


def test_base_trace_cache_is_bounded():
    rngs = [SeededRNG(seed) for seed in range(30)]
    for rng in rngs:
        for f in FUNCTIONS:
            f.base_trace(rng)
    assert len(rngs) * len(FUNCTIONS) > BASE_TRACE_ENTRIES
    assert len(fmod._BASE_TRACE_CACHE) == BASE_TRACE_ENTRIES


def test_distinct_keys_get_distinct_traces():
    f = function_by_name("DH")
    a = f.base_trace(SeededRNG(1))
    b = f.base_trace(SeededRNG(2))
    assert not traces_equal(a, b)


def test_rack_round_robin_builds_each_base_trace_once(monkeypatch):
    from repro.serverless.partition import ClusterSpec
    from repro.workloads.synthetic import make_scaleout_uniform

    suite = tuple(FunctionProfile(
        name=f"micro{i}", lang="python", description="micro",
        mem_bytes=1 * MB, n_threads=1, exec_cpu=0.0, io_time=0.0,
        touched_pages=0, write_fraction=0.0, loads_per_read_page=0.0,
        n_vmas=4, n_fds=1, runtime_shared_bytes=MB // 4,
        bootstrap_time=0.01, file_io_bytes=0, trace_jitter=0.0)
        for i in range(16))
    builds = Counter()
    generate = AccessTrace.generate

    def counting_generate(rng, *args, **kwargs):
        builds[rng.path] += 1
        return generate(rng, *args, **kwargs)

    monkeypatch.setattr(AccessTrace, "generate",
                        staticmethod(counting_generate))
    workload = make_scaleout_uniform(seed=3, functions=suite,
                                     duration=60.0, rate=2000 / 60.0,
                                     quantum=0.05)
    cluster = ClusterSpec(n_nodes=10, seed=3, policy="round-robin",
                          functions=suite, keep_results=False).build()
    cluster.prepare_workload(workload)
    cluster.run_workload(workload)
    # Every (node, function) pair ran, and each base trace was built
    # exactly once despite ~12 invocations per pair.
    assert len(builds) == 10 * len(suite)
    assert set(builds.values()) == {1}
    assert workload.n_invocations > 3 * len(builds)
