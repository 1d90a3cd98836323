"""End-to-end determinism: identical seeds give identical runs.

The paper engineers determinism via trace replay (§9.6); the simulator
must guarantee it everywhere — same seed, same workload, same platform
=> bit-identical latency sequences and memory peaks.
"""

import pytest

from repro.bench.harness import make_platform
from repro.serverless.runner import run_workload
from repro.workloads.synthetic import make_w1_bursty


def run_once(platform_name, seed):
    wl = make_w1_bursty(seed=seed, duration=700.0, burst_size=4,
                        bursts_per_function=1)
    result = run_workload(make_platform(platform_name, seed=seed), wl)
    latencies = [(r.function, r.start_kind, r.startup, r.exec, r.e2e)
                 for r in result.recorder.results]
    return latencies, result.peak_memory_bytes


@pytest.mark.parametrize("platform", ["criu", "reap+", "t-cxl", "t-rdma"])
def test_identical_seed_identical_run(platform):
    a = run_once(platform, seed=42)
    b = run_once(platform, seed=42)
    assert a == b


def test_different_seed_differs():
    a = run_once("t-cxl", seed=1)
    b = run_once("t-cxl", seed=2)
    assert a != b


def test_agent_platform_determinism():
    from repro.agents.platform import TrEnvVMPlatform
    from repro.agents.spec import agent_by_name
    from repro.node import Node

    def run(seed):
        node = Node(cores=4, seed=seed)
        platform = TrEnvVMPlatform(node, browser_sharing=True)
        spec = agent_by_name("shop-assistant")
        out = []

        def one():
            r = yield from platform.run_agent(spec)
            out.append((r.startup, r.e2e, r.active_time))

        for _ in range(5):
            node.sim.spawn(one())
        node.sim.run()
        return out, node.memory.peak_bytes

    assert run(7) == run(7)


def test_cluster_determinism():
    from repro.mem.layout import GB
    from repro.mem.pools import CXLPool
    from repro.serverless.cluster import RoundRobin, make_trenv_cluster

    def run(seed):
        pool = CXLPool(128 * GB)
        cluster = make_trenv_cluster(2, pool, seed=seed,
                                     policy=RoundRobin())
        wl = make_w1_bursty(seed=seed, duration=700.0, burst_size=3,
                            bursts_per_function=1)
        result = cluster.run_workload(wl)
        return ([(r.function, r.e2e) for r in result.recorder.results],
                result.per_node_peak_mb)

    assert run(9) == run(9)
