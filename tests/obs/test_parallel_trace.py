"""Span-complete parallel traces: shard merge equals serial, byte for byte."""

import json

import pytest

from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.merge import (SpanMergeError, merge_shard_tracers,
                             serial_trace_ids, shard_remaps, shard_trace)
from repro.obs.trace import SpanTracer
from repro.serverless.parallel import run_cluster_parallel
from repro.serverless.partition import ClusterSpec, plan_shards
from repro.workloads.synthetic import make_scaleout_uniform


def _setup(duration=30.0, nodes=4, seed=7, rate=20.0):
    workload = make_scaleout_uniform(seed=seed, duration=duration,
                                     rate=rate)
    return ClusterSpec(n_nodes=nodes, seed=seed), workload


# ---------------------------------------------------------------- id remap --

def test_serial_trace_ids_follow_wake_order():
    # Wake order sorts by (time, index); ids are 1-based positions.
    assert serial_trace_ids([0.0, 2.0, 1.0]) == [1, 3, 2]
    assert serial_trace_ids([5.0, 5.0, 1.0]) == [2, 3, 1]
    # Negative times clamp to "now" (0) but keep index order.
    assert serial_trace_ids([-1.0, 0.0, -2.0]) == [1, 2, 3]
    assert serial_trace_ids([]) == []


def test_shard_remaps_cover_ids_exactly_once():
    spec, workload = _setup()
    plan = plan_shards(spec, workload, 3)
    remaps = shard_remaps([e.time for e in workload.events], plan)
    assert len(remaps) == plan.n_shards
    seen = [sid for remap in remaps for sid in remap.values()]
    assert sorted(seen) == list(range(1, len(workload.events) + 1))
    for remap in remaps:
        assert sorted(remap) == list(range(1, len(remap) + 1))


# ------------------------------------------------------------ byte identity --

def test_parallel_trace_byte_identical_to_serial():
    spec, workload = _setup()
    serial = run_cluster_parallel(spec, workload, jobs=1,
                                  obs_level="spans")
    assert serial.span_merge == "serial"
    ref = json.dumps(to_chrome_trace(serial.tracer))
    for jobs in (2, 3, 4):
        par = run_cluster_parallel(spec, workload, jobs=jobs,
                                   obs_level="spans")
        assert par.span_merge == "merged"
        assert json.dumps(to_chrome_trace(par.tracer)) == ref
    assert validate_chrome_trace(json.loads(ref)) == []


def test_merged_tracer_is_shard_count_invariant():
    spec, workload = _setup(nodes=3)
    two = run_cluster_parallel(spec, workload, jobs=2, obs_level="spans")
    three = run_cluster_parallel(spec, workload, jobs=3,
                                 obs_level="spans")
    assert two.tracer.to_dict() == three.tracer.to_dict()


def test_metrics_level_records_no_trace():
    spec, workload = _setup(duration=10.0, nodes=2)
    par = run_cluster_parallel(spec, workload, jobs=2,
                               obs_level="metrics")
    assert par.tracer is None
    assert par.span_merge is None
    assert par.registry is not None


# ------------------------------------------------------- fallback reasons --

def test_merge_rejects_missing_shard_trace():
    with pytest.raises(SpanMergeError, match="no span trace"):
        merge_shard_tracers([None])
    with pytest.raises(SpanMergeError, match="no shard traces"):
        merge_shard_tracers([])


def test_merge_rejects_disagreeing_pid_maps():
    a, b = SpanTracer(), SpanTracer()
    a.prebind_nodes(["node0", "node1"])
    b.prebind_nodes(["node1", "node0"])
    with pytest.raises(SpanMergeError, match="pid map differs"):
        merge_shard_tracers([shard_trace(a, {}, 0), shard_trace(b, {}, 1)])


def test_merge_rejects_begin_count_mismatch():
    tracer = SpanTracer()
    tracer.begin("fn", 0.0)
    trace = shard_trace(tracer, {1: 1, 2: 2}, 0)
    assert trace.breach == "shard 0 began 1 traces but the plan owns 2 events"
    assert trace.spans == []
    with pytest.raises(SpanMergeError, match="owns 2 events"):
        merge_shard_tracers([trace])


def test_merge_rejects_unknown_local_id():
    tracer = SpanTracer()
    ctx = tracer.begin("fn", 0.0)
    tracer.bind(ctx, "node0")
    tracer.span(ctx, "exec", 0.0, 1.0)
    trace = shard_trace(tracer, {2: 5}, 1)
    assert trace.breach == "shard 1 referenced unknown local trace id 1"
    with pytest.raises(SpanMergeError, match="unknown local trace id 1"):
        merge_shard_tracers([trace])


def test_shard_trace_remaps_and_sorts():
    tracer = SpanTracer()
    tracer.prebind_nodes(["node0"])
    a, b = tracer.begin("a", 0.0), tracer.begin("b", 0.0)
    tracer.bind(a, "node0")
    tracer.bind(b, "node0")
    tracer.span(b, "exec", 1.0, 2.0, args={"k": 2})
    tracer.span(a, "exec", 1.0, 2.0, args={"k": 1})
    tracer.span(a, "exec", 0.5, 2.0, args={"k": 1})
    tracer.finish(b, 2.0)
    tracer.finish(a, 2.0)
    tracer.link("queue", 0.0, 0.5, src=a, dst=b)
    trace = shard_trace(tracer, {1: 7, 2: 3}, 0)
    assert trace.breach is None
    assert trace.spans == [(0.5, 2.0, 1, 1, "exec", "phase", 7, {"k": 1}),
                           (1.0, 2.0, 1, 1, "exec", "phase", 7, {"k": 1}),
                           (1.0, 2.0, 1, 2, "exec", "phase", 3, {"k": 2})]
    assert trace.instants == [
        (2.0, 1, 1, "invocation_close", {"trace_id": 7}),
        (2.0, 1, 2, "invocation_close", {"trace_id": 3})]
    assert trace.links == [(0.0, 0.5, "queue", 7, 3, None)]
    # The worker copies remapped args; the live tracer keeps local ids.
    assert tracer.instants[0][4] == {"trace_id": 2}


def test_merge_breaks_lead_ties_by_canonical_args():
    tracer = SpanTracer()
    tracer.prebind_nodes(["node0"])
    for args in ({"b": 1, "a": 2}, None, {"a": 1}, {"a": 2, "b": 0}):
        tracer.node_span("node0", "teardown", 1.0, 2.0, args=args)
    merged = merge_shard_tracers([shard_trace(tracer, {}, 0)])
    assert [s[7] for s in merged.spans] == [
        None, {"a": 1}, {"a": 2, "b": 0}, {"b": 1, "a": 2}]


def _breached(monkeypatch, corrupt):
    """A spans run whose shard-1 remap ``corrupt`` damaged."""
    import repro.obs.merge as merge_mod

    real = merge_mod.shard_remaps

    def broken(event_times, plan):
        remaps = real(event_times, plan)
        remaps[1] = corrupt(remaps[1])
        return remaps

    monkeypatch.setattr(merge_mod, "shard_remaps", broken)
    spec, workload = _setup(duration=10.0, nodes=2)
    return spec, workload, run_cluster_parallel(spec, workload, jobs=2,
                                                obs_level="spans")


def _assert_serial_trace(spec, workload, out):
    """The fallback trace is the serial run's trace."""
    assert out.report.mode == "parallel"
    serial = run_cluster_parallel(spec, workload, jobs=1, obs_level="spans")
    assert json.dumps(to_chrome_trace(out.tracer)) == \
        json.dumps(to_chrome_trace(serial.tracer))


def test_worker_breach_wrong_remap_length_falls_back(monkeypatch):
    def short(remap):
        remap.pop(len(remap))
        return remap

    spec, workload, out = _breached(monkeypatch, short)
    assert out.span_merge.startswith("fallback: shard 1 began ")
    assert out.span_merge.endswith(" events")
    _assert_serial_trace(spec, workload, out)


def test_worker_breach_unknown_local_id_falls_back(monkeypatch):
    def shifted(remap):
        # Same size, but local id 1 is no longer covered.
        return {local + 1: serial for local, serial in remap.items()}

    spec, workload, out = _breached(monkeypatch, shifted)
    assert out.span_merge == \
        "fallback: shard 1 referenced unknown local trace id 1"
    _assert_serial_trace(spec, workload, out)


def test_merge_failure_surfaces_reason_and_reruns_serial(monkeypatch):
    """A broken merge invariant falls back with an explicit reason."""
    def broken_merge(traces):
        raise SpanMergeError("synthetic invariant breach")

    monkeypatch.setattr("repro.obs.merge.merge_shard_tracers",
                        broken_merge)
    spec, workload = _setup(duration=10.0, nodes=2)
    out = run_cluster_parallel(spec, workload, jobs=2, obs_level="spans")
    assert out.span_merge == "fallback: synthetic invariant breach"
    _assert_serial_trace(spec, workload, out)


def test_capture_report_surfaces_span_merge(tmp_path):
    from repro.obs.capture import run_traced_scenario
    out = tmp_path / "trace.json"
    report = run_traced_scenario("cluster", duration=10.0, nodes=2,
                                 jobs=2, out=str(out))
    assert report["parallel"]["mode"] == "parallel"
    assert report["parallel"]["span_merge"] == "merged"
    assert report["n_links"] >= 0
    assert validate_chrome_trace(json.loads(out.read_text())) == []
