"""Golden bit-identity of the sharded cluster runner.

`run_cluster_parallel` must produce the same `ClusterResult`,
invocation records and metrics registry as the serial reference for
every worker count — including counts that do not divide the node
count — and ineligible configurations (state-reading policies, an
armed control plane, injected faults, a single worker) must take the
serial path with the reasons recorded.  ``jobs=1`` is the serial
reference every sharded run is compared against.
"""

import functools
import json
import multiprocessing
import os
import threading

import pytest

import repro.serverless.parallel as par_mod
from repro.control.config import ControlConfig
from repro.control.plane import PARALLEL_UNSAFE_REASON
from repro.mem.layout import GB, MB
from repro.mem.pools import CXLPool
from repro.serverless.parallel import (ScriptedPolicy, resolve_jobs,
                                       run_cluster_parallel)
from repro.serverless.partition import (FAULTS_UNSAFE_REASON, ClusterSpec,
                                        PoolSpec, SerialFallback,
                                        node_groups_for, plan_shards)
from repro.workloads.synthetic import make_scaleout_uniform, make_w2_diurnal


def _w2(seed=1, duration=120.0):
    return make_w2_diurnal(seed=seed, duration=duration, mean_rate=1.6,
                           soft_cap_bytes=5 * GB)


def _scaleout(seed=7, duration=60.0, rate=30.0):
    return make_scaleout_uniform(seed=seed, duration=duration, rate=rate)


def _signature(outcome):
    """Everything a ClusterResult asserts bit-identity over."""
    r = outcome.result
    return (
        tuple((s.function, s.arrival, s.start_kind, s.startup, s.exec,
               s.e2e, s.queue) for s in r.recorder.results),
        tuple(r.per_node_peak_mb),
        r.total_peak_mb,
        r.pool_used_mb,
        tuple(sorted(r.dispatch_counts.items())),
        r.duration,
        tuple(sorted(r.availability.items())),
        tuple(r.failed),
    )


def _registry_json(outcome):
    return json.dumps(outcome.registry, sort_keys=True)


# ------------------------------------------------------------ bit-identity --

def test_w2_parallel_bit_identical_across_worker_counts():
    """Golden W2 rack: jobs 1/2/3 merge to one result and one registry."""
    workload = _w2()
    spec = ClusterSpec(n_nodes=3, seed=1)
    serial = run_cluster_parallel(spec, workload, jobs=1,
                                  obs_level="metrics")
    assert serial.report.mode == "fallback"
    assert "single shard" in serial.report.reasons[0]
    ref_sig = _signature(serial)
    ref_reg = _registry_json(serial)
    for jobs in (2, 3):
        par = run_cluster_parallel(spec, workload, jobs=jobs,
                                   obs_level="metrics")
        assert par.report.mode == "parallel"
        assert par.report.n_shards == jobs
        assert _signature(par) == ref_sig
        assert _registry_json(par) == ref_reg


def test_non_dividing_worker_count_is_bit_identical():
    """5 nodes over 2 and 4 workers: uneven contiguous blocks."""
    workload = _scaleout()
    spec = ClusterSpec(n_nodes=5, seed=7)
    serial = run_cluster_parallel(spec, workload, jobs=1,
                                  obs_level="metrics")
    ref_sig = _signature(serial)
    ref_reg = _registry_json(serial)
    for jobs in (2, 4):
        par = run_cluster_parallel(spec, workload, jobs=jobs,
                                   obs_level="metrics")
        assert par.report.mode == "parallel"
        assert _signature(par) == ref_sig
        assert _registry_json(par) == ref_reg


def test_parallel_report_structure():
    workload = _scaleout()
    spec = ClusterSpec(n_nodes=5, seed=7)
    par = run_cluster_parallel(spec, workload, jobs=2)
    assert par.report.to_dict() == {"mode": "parallel", "jobs": 2,
                                    "n_shards": 2, "reasons": []}


# --------------------------------------------------------------- fallbacks --

def test_killed_worker_falls_back_to_serial(monkeypatch, hang_guard):
    """A shard worker that dies cannot hang the run: the pool breaks,
    the run re-executes serially and the report says why."""
    original = par_mod._shard_worker

    # functools.wraps keeps the qualified name, so the pool pickles the
    # wrapper by reference and the forked worker resolves it.
    @functools.wraps(original)
    def dying_worker(*args):
        if args[2] == 1:          # the shard index
            os._exit(9)
        return original(*args)

    monkeypatch.setattr(par_mod, "_shard_worker", dying_worker)
    workload = _scaleout(duration=10.0)
    spec = ClusterSpec(n_nodes=2, seed=7)
    out = run_cluster_parallel(spec, workload, jobs=2)
    assert out.report.mode == "fallback"
    assert len(out.report.reasons) == 1
    assert out.report.reasons[0].startswith("worker died: ")
    monkeypatch.undo()
    ref = run_cluster_parallel(spec, workload, jobs=1)
    assert _signature(out) == _signature(ref)


def test_hung_worker_times_out_and_falls_back(monkeypatch, hang_guard):
    """A shard worker that blocks without dying cannot hang the run
    either: past the plan's bound the pool's processes are stopped and
    the run re-executes serially, saying why."""
    original = par_mod._shard_worker

    @functools.wraps(original)
    def blocking_worker(*args):
        if args[2] == 1:          # the shard index
            threading.Event().wait()      # never set: blocks for good
        return original(*args)

    monkeypatch.setattr(par_mod, "_shard_worker", blocking_worker)
    monkeypatch.setattr(par_mod, "_wait_bound", lambda events: 3.0)
    workload = _scaleout(duration=10.0)
    spec = ClusterSpec(n_nodes=2, seed=7)
    out = run_cluster_parallel(spec, workload, jobs=2)
    assert out.report.mode == "fallback"
    assert out.report.reasons == ["worker timed out"]
    assert multiprocessing.active_children() == []
    monkeypatch.undo()
    ref = run_cluster_parallel(spec, workload, jobs=1)
    assert _signature(out) == _signature(ref)


def test_wait_bound_scales_with_the_largest_shard():
    small = par_mod._wait_bound([10, 20])
    large = par_mod._wait_bound([10, 20_000])
    assert small >= 60.0
    assert large > small
    assert par_mod._wait_bound([20_000, 10]) == large


def test_state_reading_policy_falls_back_bit_identically():
    workload = _w2(duration=60.0)
    spec = ClusterSpec(n_nodes=3, seed=1, policy="warm-affinity")
    par = run_cluster_parallel(spec, workload, jobs=3)
    assert par.report.mode == "fallback"
    assert any("warm-affinity" in r for r in par.report.reasons)
    ref = spec.build().run_workload(workload)
    assert par.result.dispatch_counts == ref.dispatch_counts
    assert [s.e2e for s in par.result.recorder.results] == \
        [s.e2e for s in ref.recorder.results]


def test_control_plane_armed_falls_back():
    workload = _scaleout(duration=30.0)
    spec = ClusterSpec(n_nodes=4, seed=2, control=ControlConfig())
    plan = plan_shards(spec, workload, 4)
    assert isinstance(plan, SerialFallback)
    assert PARALLEL_UNSAFE_REASON in plan.reasons
    par = run_cluster_parallel(spec, workload, jobs=4)
    assert par.report.mode == "fallback"
    assert PARALLEL_UNSAFE_REASON in par.report.reasons
    assert par.result.control is not None


def test_faults_armed_falls_back():
    workload = _scaleout(duration=30.0)
    spec = ClusterSpec(n_nodes=4, seed=2)
    plan = plan_shards(spec, workload, 4, faults_armed=True)
    assert isinstance(plan, SerialFallback)
    assert FAULTS_UNSAFE_REASON in plan.reasons


def test_empty_workload_falls_back():
    from repro.workloads.synthetic import Workload
    empty = Workload(name="empty", events=[], duration=10.0,
                     soft_cap_bytes=None)
    plan = plan_shards(ClusterSpec(n_nodes=4, seed=0), empty, 4)
    assert isinstance(plan, SerialFallback)
    assert any("empty workload" in r for r in plan.reasons)


# ------------------------------------------------------------- partitioning --

def test_node_groups_are_contiguous_and_cover():
    for n_nodes in (1, 3, 5, 10):
        for n_shards in range(1, n_nodes + 1):
            groups = node_groups_for(n_nodes, n_shards)
            assert groups[0][0] == 0
            assert groups[-1][1] == n_nodes
            for (a1, a2), (b1, b2) in zip(groups, groups[1:]):
                assert a2 == b1
                assert a1 < a2
    with pytest.raises(ValueError):
        node_groups_for(2, 3)
    with pytest.raises(ValueError):
        node_groups_for(2, 0)


def test_owned_events_partition_the_workload():
    workload = _scaleout()
    spec = ClusterSpec(n_nodes=5, seed=7)
    plan = plan_shards(spec, workload, 3)
    assert not isinstance(plan, SerialFallback)
    seen = []
    for shard in range(plan.n_shards):
        seen.extend(plan.owned_events(shard))
    assert sorted(seen) == list(range(len(workload.events)))
    # Round-robin static assignment: event i -> node i mod N.
    assert plan.assignment == tuple(i % 5
                                    for i in range(len(workload.events)))


def test_resolve_jobs_clamps_to_shards():
    assert resolve_jobs(4, 2) == 2
    assert resolve_jobs(1, 8) == 1
    assert resolve_jobs(3, 3) == 3
    assert resolve_jobs(5, 0) == 1
    # 0 = size to the machine, still capped by shards and floored at 1.
    assert 1 <= resolve_jobs(0, 64) <= 64
    assert resolve_jobs(0, 1) == 1


def test_jobs_clamped_to_node_count():
    workload = _scaleout()
    spec = ClusterSpec(n_nodes=2, seed=7)
    par = run_cluster_parallel(spec, workload, jobs=16)
    assert par.report.n_shards == 2


def test_scripted_policy_rejects_unknown_node():
    policy = ScriptedPolicy(["nodeX"])

    class _FakeNode:
        name = "node0"

    class _FakePlatform:
        node = _FakeNode()

    with pytest.raises(RuntimeError):
        policy.pick([_FakePlatform()], "fn")


# ------------------------------------------------------ rack pool reporting --

def test_rack_pool_used_counts_shared_pool_once():
    pool = CXLPool(1 * GB)
    from repro.serverless.cluster import make_trenv_cluster
    cluster = make_trenv_cluster(3, pool, seed=0)
    pool.allocate_pages(256)          # 1 MB
    assert cluster.rack_pool_used_mb() == pool.used_bytes / (1 << 20)


def test_rack_pool_used_sums_distinct_pools():
    from repro.serverless.cluster import make_trenv_cluster
    pool_a = CXLPool(1 * GB)
    cluster = make_trenv_cluster(2, pool_a, seed=0)
    pool_b = CXLPool(1 * GB)
    cluster.platforms[1].pool = pool_b
    pool_a.allocate_pages(256)        # 1 MB
    pool_b.allocate_pages(512)        # 2 MB
    assert cluster.rack_pool_used_mb() == pytest.approx(3.0)
    assert MB == 1 << 20
