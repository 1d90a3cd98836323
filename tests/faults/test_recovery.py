"""Failure recovery: retries, degradation ladder, crash re-dispatch."""

import pytest

from repro.core.platform import TrEnvPlatform
from repro.criu.images import SnapshotImage
from repro.faults import (FaultInjector, FaultPlan, NodeCrashedError)
from repro.mem.layout import GB
from repro.mem.pools import CXLPool, DedupStore, NASPool, RDMAPool
from repro.node import Node
from repro.serverless.base import Instance, ServerlessPlatform
from repro.serverless.baselines import FaasdPlatform
from repro.serverless.cluster import make_trenv_cluster
from repro.sim.cpu import FairShareCPU
from repro.sim.engine import Delay, Interrupt, Simulator
from repro.workloads.functions import function_by_name
from repro.workloads.synthetic import make_w1_bursty


def small_workload(seed=0):
    return make_w1_bursty(seed=seed, duration=700.0, burst_size=4,
                          bursts_per_function=1)


def remote_bound_instance(node, platform, pool, function="DH"):
    """An instance whose memory is lazily bound to ``pool``."""
    profile = function_by_name(function)
    platform.functions[profile.name] = profile
    image = SnapshotImage.from_profile(profile)
    space = image.build_address_space("x")
    store = DedupStore(pool)
    for vma, content in zip(space.vmas,
                            [c for _v, c in image.vma_content_slices()]):
        space.bind_remote(vma, store.store_image(content), valid=False)
    return Instance(profile, space), profile


class TestRetries:
    def test_timeout_burst_retried_then_succeeds(self):
        node = Node(seed=21)
        pool = RDMAPool(64 * GB, node.latency)
        platform = TrEnvPlatform(node, pool)
        platform.register_function(function_by_name("DH"))
        pool.inject_timeouts(2)
        r = node.sim.run_process(platform.invoke("DH"))
        assert r.retries == 2
        assert not r.degraded
        assert platform.pool_fault_count == 2
        assert platform.stats()["fault_retries"] == 2

    def test_backoff_lets_a_flap_heal(self):
        """An outage shorter than the total backoff is ridden out."""
        node = Node(seed=22)
        pool = RDMAPool(64 * GB, node.latency)
        platform = ServerlessPlatform(node)
        platform.register_pool(pool)
        inst, profile = remote_bound_instance(node, platform, pool)
        pool.fail("short flap")
        # Recover before the retry budget runs out.
        node.sim.call_at(platform.retry_policy.backoff(0) / 2, pool.recover)

        def driver():
            retries, degraded = yield from platform.execute(inst, profile, 0)
            return retries, degraded

        retries, degraded = node.sim.run_process(driver())
        assert retries >= 1
        assert not degraded


class TestDegradationLadder:
    def test_dead_pool_degrades_to_local_copy(self):
        node = Node(seed=23)
        pool = RDMAPool(8 * GB, node.latency)
        platform = ServerlessPlatform(node)
        platform.register_pool(pool)
        inst, profile = remote_bound_instance(node, platform, pool)
        pool.fail("rdma link down")

        def driver():
            retries, degraded = yield from platform.execute(inst, profile, 0)
            return retries, degraded

        retries, degraded = node.sim.run_process(driver())
        assert degraded
        assert retries == platform.retry_policy.max_retries
        assert platform.degraded_invocations == 0  # counted by invoke()

    def test_dead_pool_prefers_nas_fallback(self):
        node = Node(seed=23)
        pool = RDMAPool(8 * GB, node.latency)
        nas = NASPool(8 * GB, node.latency)
        platform = ServerlessPlatform(node)
        platform.register_pool(pool)
        platform.set_fallback_pool(nas)
        inst, profile = remote_bound_instance(node, platform, pool)
        pool.fail("rdma link down")

        def driver():
            out = yield from platform.execute(inst, profile, 0)
            return out

        _retries, degraded = node.sim.run_process(driver())
        assert degraded
        # NAS actually served the fallback fetches.
        assert nas.available

    def test_trenv_cold_start_survives_offline_pool(self):
        node = Node(seed=24)
        pool = RDMAPool(64 * GB, node.latency)
        platform = TrEnvPlatform(node, pool)
        platform.register_function(function_by_name("DH"))
        pool.fail("device offline")
        r = node.sim.run_process(platform.invoke("DH"))
        assert r.degraded
        assert platform.degraded_acquires >= 1
        assert platform.stats()["degraded_invocations"] == 1
        # Memory arrived fully resident via the copy path.
        assert r.startup > 0


class TestPlatformCrash:
    def test_crash_drops_warm_state_and_blocks_invokes(self):
        node = Node(seed=25)
        platform = FaasdPlatform(node)
        platform.register_function(function_by_name("DH"))
        node.sim.run_process(platform.invoke("DH"))
        assert len(platform.warm) == 1
        platform.crash()
        assert len(platform.warm) == 0
        assert platform.stats()["crashes"] == 1
        with pytest.raises(NodeCrashedError):
            node.sim.run_process(platform.invoke("DH"))
        platform.recover()
        r = node.sim.run_process(platform.invoke("DH"))
        assert r.start_kind == "cold"

    def test_trenv_crash_clears_sandbox_pool(self):
        node = Node(seed=26)
        platform = TrEnvPlatform(node, CXLPool(64 * GB, node.latency))
        platform.register_function(function_by_name("DH"))

        def driver():
            yield from platform.invoke("DH")
            yield Delay(700.0)  # keep-alive expiry → cleanse into pool

        node.sim.run_process(driver())
        node.sim.run()
        assert len(platform.sandbox_pool) > 0
        platform.crash()
        assert len(platform.sandbox_pool) == 0


class TestClusterRecovery:
    def test_node_crash_redispatches_and_everything_completes(self):
        pool = CXLPool(128 * GB)
        cluster = make_trenv_cluster(2, pool)
        wl = small_workload()
        first_t = wl.events[0].time
        plan = FaultPlan().node_crash(first_t + 0.01, "node0",
                                      duration=50.0)
        FaultInjector.for_cluster(cluster, plan).arm()
        result = cluster.run_workload(wl)
        assert result.node_crashes == 1
        assert result.redispatches >= 1
        assert result.availability["completed"] == wl.n_invocations
        assert result.availability["failed"] == 0

    def test_whole_rack_down_records_failures_not_hangs(self):
        pool = CXLPool(128 * GB)
        cluster = make_trenv_cluster(1, pool)
        wl = small_workload()
        plan = FaultPlan().node_crash(0.0, "node0")
        FaultInjector.for_cluster(cluster, plan).arm()
        result = cluster.run_workload(wl)
        assert result.availability["completed"] == 0
        assert result.availability["failed"] == wl.n_invocations
        assert len(result.failed) == wl.n_invocations
        assert result.availability["success_rate"] == 0.0

    def test_empty_plan_is_bit_identical_to_no_injector(self):
        result_a = make_trenv_cluster(2, CXLPool(128 * GB)).run_workload(
            small_workload())
        cluster_b = make_trenv_cluster(2, CXLPool(128 * GB))
        FaultInjector.for_cluster(cluster_b, FaultPlan()).arm()
        result_b = cluster_b.run_workload(small_workload())
        key = lambda rec: [(r.function, r.arrival, r.start_kind, r.e2e,
                            r.startup, r.queue) for r in rec.results]
        assert key(result_a.recorder) == key(result_b.recorder)
        assert result_b.availability["degraded"] == 0
        assert result_b.availability["retries_total"] == 0
        assert result_b.redispatches == 0


class TestInterruptSafety:
    def test_interrupting_a_sleeper_cancels_stale_wakeup(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield Delay(5.0)
                log.append("woke")
            except Interrupt:
                log.append("interrupted")
                yield Delay(1.0)
                log.append("resumed")

        waiter = sim.spawn(sleeper())
        sim.call_at(1.0, lambda: waiter.interrupt("crash"))
        sim.run()
        assert log == ["interrupted", "resumed"]
        assert sim.now == pytest.approx(2.0)

    def test_interrupted_compute_releases_cpu_share(self):
        sim = Simulator()
        cpu = FairShareCPU(sim, cores=1)

        def worker():
            try:
                yield from cpu.compute(10.0)
            except Interrupt:
                pass

        waiter = sim.spawn(worker())
        sim.call_at(1.0, lambda: waiter.interrupt("crash"))
        sim.run()
        assert cpu.load == 0
