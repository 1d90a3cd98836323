"""Span-complete parallel traces: shard merge equals serial, byte for byte."""

import functools
import gc
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.merge as merge_mod
import repro.serverless.parallel as par_mod
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.merge import (SpanMergeError, merge_shard_tracers,
                             serial_trace_ids, shard_remaps, shard_trace)
from repro.obs.trace import SpanTracer
from repro.serverless.parallel import run_cluster_parallel
from repro.serverless.partition import (ClusterSpec, node_groups_for,
                                        plan_shards)
from repro.workloads.synthetic import make_scaleout_uniform


def _setup(duration=30.0, nodes=4, seed=7, rate=20.0):
    workload = make_scaleout_uniform(seed=seed, duration=duration,
                                     rate=rate)
    return ClusterSpec(n_nodes=nodes, seed=seed), workload


# -------------------------------------------------------------- serial ids --

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
    seen = [sid for remap in remaps for sid in remap]
    assert sorted(seen) == list(range(1, len(workload.events) + 1))
    for shard, remap in enumerate(remaps):
        # A shard begins its events in serial wake order.
        assert remap == sorted(remap)
        assert len(remap) == len(plan.owned_events(shard))


def test_tracer_hands_out_its_id_list_in_turn():
    tracer = SpanTracer(ids=[4, 9])
    assert [tracer.begin("fn", 0.0).trace_id for _ in range(3)] == [4, 9, 0]
    assert tracer.n_begun == 3
    plain = SpanTracer()
    assert [plain.begin("fn", 0.0).trace_id for _ in range(2)] == [1, 2]


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


def test_phase_breakdown_is_shard_count_invariant():
    """The trace report's phase table reads the same for a serial and a
    merged trace, although their records come in different orders."""
    from repro.obs.export import phase_breakdown
    spec, workload = _setup(nodes=3)
    serial = run_cluster_parallel(spec, workload, jobs=1,
                                  obs_level="spans")
    merged = run_cluster_parallel(spec, workload, jobs=3,
                                  obs_level="spans")
    assert merged.span_merge == "merged"
    assert serial.tracer.spans != merged.tracer.spans      # other order
    assert json.dumps(phase_breakdown(merged.tracer)) == \
        json.dumps(phase_breakdown(serial.tracer))


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
        merge_shard_tracers([shard_trace(a, 0), shard_trace(b, 1)])


def test_merge_rejects_begin_count_mismatch():
    tracer = SpanTracer(ids=[1, 2])
    tracer.begin("fn", 0.0)
    trace = shard_trace(tracer, 0)
    assert trace.breach == "shard 0 began 1 traces but the plan owns 2 events"
    assert trace.spans == []
    with pytest.raises(SpanMergeError, match="owns 2 events"):
        merge_shard_tracers([trace])


def test_merge_rejects_begin_overrun():
    # Beginning past the id list must not raise inside the simulated
    # task; the overrun is reported as the shard's breach.
    tracer = SpanTracer(ids=[5])
    tracer.prebind_nodes(["node0"])
    for _ in range(2):
        ctx = tracer.begin("fn", 0.0)
        tracer.bind(ctx, "node0")
        tracer.span(ctx, "exec", 0.0, 1.0)
    trace = shard_trace(tracer, 1)
    assert trace.breach == "shard 1 began 2 traces but the plan owns 1 events"
    assert trace.spans == []
    with pytest.raises(SpanMergeError, match="began 2 traces"):
        merge_shard_tracers([trace])


def test_shard_trace_remaps_and_sorts():
    tracer = SpanTracer(ids=[7, 3])
    tracer.prebind_nodes(["node0", "node1"])
    a, b = tracer.begin("a", 0.0), tracer.begin("b", 0.0)
    tracer.bind(a, "node0")
    tracer.bind(b, "node0")
    tracer.span(b, "exec", 1.0, 2.0, args={"k": 2})
    tracer.node_span("node1", "retire", 0.1, 0.2)
    tracer.span(a, "exec", 1.0, 2.0, args={"k": 1})
    tracer.span(a, "exec", 0.5, 2.0, args={"k": 1})
    tracer.finish(b, 2.0)
    tracer.finish(a, 2.0)
    tracer.instant("fault", 3.0)
    tracer.link("queue", 0.0, 0.5, src=a, dst=b)
    trace = shard_trace(tracer, 0)
    assert trace.breach is None
    assert trace.n_ids == 2
    # Serial ids from the tracer's list; pid-major content order.
    assert trace.spans == [(0.5, 2.0, 1, 1, "exec", "phase", 7, {"k": 1}),
                           (1.0, 2.0, 1, 1, "exec", "phase", 7, {"k": 1}),
                           (1.0, 2.0, 1, 2, "exec", "phase", 3, {"k": 2}),
                           (0.1, 0.2, 2, 0, "retire", "node", 0, None)]
    assert trace.instants == [
        (3.0, 0, 0, "fault", None),
        (2.0, 1, 1, "invocation_close", {"trace_id": 7}),
        (2.0, 1, 2, "invocation_close", {"trace_id": 3})]
    assert trace.links == [(0.0, 0.5, "queue", 7, 3, None)]
    # The live tracer recorded the same ids; only its order differs.
    assert sorted(tracer.spans, key=lambda s: (s[2], s[3], s[0])) == \
        trace.spans


def test_merge_breaks_lead_ties_by_canonical_args():
    tracer = SpanTracer()
    tracer.prebind_nodes(["node0"])
    for args in ({"b": 1, "a": 2}, None, {"a": 1}, {"a": 2, "b": 0}):
        tracer.node_span("node0", "teardown", 1.0, 2.0, args=args)
    merged = merge_shard_tracers([shard_trace(tracer, 0)])
    assert [s[7] for s in merged.spans] == [
        None, {"a": 1}, {"a": 2, "b": 0}, {"b": 1, "a": 2}]


def _breached(monkeypatch, corrupt):
    """A spans run whose shard-1 id list ``corrupt`` damaged."""
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
    # One id short: the shard's last begin overruns its list, inside a
    # simulated task, and the run still completes and falls back.
    owned = []

    def short(remap):
        owned.append(len(remap) - 1)
        return remap[:-1]

    spec, workload, out = _breached(monkeypatch, short)
    assert out.span_merge == (f"fallback: shard 1 began {owned[0] + 1} "
                              f"traces but the plan owns {owned[0]} events")
    _assert_serial_trace(spec, workload, out)


def test_worker_breach_long_remap_falls_back(monkeypatch):
    # One id too many: the shard begins fewer traces than it owns.
    owned = []

    def long(remap):
        owned.append(len(remap) + 1)
        return remap + [max(remap) + 1]

    spec, workload, out = _breached(monkeypatch, long)
    assert out.span_merge == (f"fallback: shard 1 began {owned[0] - 1} "
                              f"traces but the plan owns {owned[0]} events")
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


# ------------------------------------------------------- merge properties --

_N_NODES = 4
_TIMES = st.sampled_from([0.0, 0.5, 1.0])
_NAMES = st.sampled_from(["acquire", "exec"])
_ARGS = st.sampled_from([None, {"a": 1}, {"a": 2, "b": 0}, {"b": 0, "a": 2},
                         {"b": 1}])
_PIDS = st.integers(0, _N_NODES)     # 0 is the rack track
_TIDS = st.integers(0, 2)
_SPANS = st.lists(st.tuples(_TIMES, _TIMES, _PIDS, _TIDS, _NAMES,
                            st.sampled_from(["phase", "node"]),
                            st.integers(0, 3), _ARGS), max_size=40)
_INSTANTS = st.lists(st.tuples(_TIMES, _PIDS, _TIDS, _NAMES, _ARGS),
                     max_size=20)
_LINKS = st.lists(st.tuples(_TIMES, _TIMES,
                            st.sampled_from(["backoff", "slot_grant"]),
                            st.integers(0, 3), st.integers(0, 3), _ARGS),
                  max_size=10)


def _one_content_sort(records, lead):
    """The reference: one sort on (leading fields, canonical args)."""
    return [list(r) for r in sorted(records, key=lambda r: (
        lead(r), json.dumps(r[-1], sort_keys=True) if r[-1] else ""))]


@settings(max_examples=150, deadline=None)
@given(spans=_SPANS, instants=_INSTANTS, links=_LINKS,
       rng=st.randoms(use_true_random=False))
def test_merge_is_one_content_sort_for_every_shard_count(spans, instants,
                                                         links, rng):
    """Each node's records go to the shard that owns the node; rack
    records and links go to any shard.  Every shard count merges to the
    same tracer, and that tracer holds the union in one pid-major
    content sort."""
    names = [f"node{i}" for i in range(_N_NODES)]
    merged = []
    for n_shards in range(1, _N_NODES + 1):
        groups = node_groups_for(_N_NODES, n_shards)

        def shard_of(pid):
            if pid == 0:
                return rng.randrange(n_shards)
            return next(shard for shard, (lo, hi) in enumerate(groups)
                        if lo <= pid - 1 < hi)

        tracers = [SpanTracer() for _ in groups]
        for tracer in tracers:
            tracer.prebind_nodes(names)
        for record in spans:
            tracers[shard_of(record[2])].spans.append(record)
        for record in instants:
            tracers[shard_of(record[1])].instants.append(record)
        for record in links:
            tracers[rng.randrange(n_shards)].links.append(record)
        merged.append(merge_shard_tracers(
            [shard_trace(t, shard) for shard, t in enumerate(tracers)]
        ).to_dict())
    assert all(m == merged[0] for m in merged[1:])
    # Spans (pid, tid, t0, t1, name, cat, trace_id), instants (pid,
    # tid, t, name), links (t0, t1, kind, src, dst).
    assert merged[0]["spans"] == _one_content_sort(
        spans, lambda s: (s[2], s[3], s[0], s[1], s[4], s[5], s[6]))
    assert merged[0]["instants"] == _one_content_sort(
        instants, lambda i: (i[1], i[2], i[0], i[3]))
    assert merged[0]["links"] == _one_content_sort(links, lambda l: l[:5])


def test_merge_rejects_overlapping_shard_runs():
    names = ["node0", "node1"]
    a, b = SpanTracer(), SpanTracer()
    for tracer in (a, b):
        tracer.prebind_nodes(names)
    a.node_span("node1", "retire", 0.5, 1.0)       # node1 is b's
    b.node_span("node1", "retire", 0.0, 1.0)
    with pytest.raises(SpanMergeError,
                       match="shard 1 node records overlap shard 0's"):
        merge_shard_tracers([shard_trace(a, 0), shard_trace(b, 1)])


def _captured_run(monkeypatch, **setup):
    """A 2-shard spans run, with the shard traces the parent merged."""
    captured = []
    real = merge_mod.merge_shard_tracers

    def spy(traces):
        captured.extend(traces)
        return real(traces)

    monkeypatch.setattr(merge_mod, "merge_shard_tracers", spy)
    spec, workload = _setup(**setup)
    out = run_cluster_parallel(spec, workload, jobs=2, obs_level="spans")
    assert out.span_merge == "merged"
    return captured


def test_shard_runs_arrive_in_order_past_the_rack_records(monkeypatch):
    """Pids are prebound in rack order and each shard owns a contiguous
    node block, so the shards' runs, minus their rack (pid 0) records,
    concatenate into one sorted run: the parent's merge is linear."""
    traces = _captured_run(monkeypatch, nodes=4)
    assert len(traces) == 2
    for kind, lead, pid_at in (
            ("spans", merge_mod._SPAN_LEAD, merge_mod._SPAN_PID),
            ("instants", merge_mod._INSTANT_LEAD, merge_mod._INSTANT_PID)):
        runs = [[r for r in getattr(t, kind) if r[pid_at] != 0]
                for t in traces]
        assert all(runs), kind            # both shards recorded node work
        keys = [lead(r) for run in runs for r in run]
        assert keys == sorted(keys), kind
        assert lead(runs[0][-1]) < lead(runs[1][0]), kind


def test_collector_state_restored_on_every_exit(monkeypatch, hang_guard):
    """The parent receives and merges with the collector paused, and
    gets it back after a normal run and after either fallback; serial
    re-runs take place with the collector on."""
    spec, workload = _setup(duration=10.0, nodes=2)
    seen = []
    real_merge = merge_mod.merge_shard_tracers
    real_serial = par_mod._run_serial

    def merge_spy(traces):
        seen.append(("merge", gc.isenabled()))
        return real_merge(traces)

    def serial_spy(*args, **kwargs):
        seen.append(("serial", gc.isenabled()))
        return real_serial(*args, **kwargs)

    monkeypatch.setattr(merge_mod, "merge_shard_tracers", merge_spy)
    monkeypatch.setattr(par_mod, "_run_serial", serial_spy)
    assert gc.isenabled()
    out = run_cluster_parallel(spec, workload, jobs=2, obs_level="spans")
    assert out.span_merge == "merged"
    assert seen == [("merge", False)]
    assert gc.isenabled()

    def broken_merge(traces):
        seen.append(("merge", gc.isenabled()))
        raise SpanMergeError("synthetic invariant breach")

    seen.clear()
    monkeypatch.setattr(merge_mod, "merge_shard_tracers", broken_merge)
    out = run_cluster_parallel(spec, workload, jobs=2, obs_level="spans")
    assert out.span_merge == "fallback: synthetic invariant breach"
    assert seen == [("merge", False), ("serial", True)]
    assert gc.isenabled()

    original = par_mod._shard_worker

    @functools.wraps(original)
    def dying_worker(*args):
        if args[2] == 1:          # the shard index
            os._exit(9)
        return original(*args)

    seen.clear()
    monkeypatch.setattr(par_mod, "_shard_worker", dying_worker)
    out = run_cluster_parallel(spec, workload, jobs=2, obs_level="spans")
    assert out.report.reasons[0].startswith("worker died: ")
    assert seen == [("serial", True)]
    assert gc.isenabled()


def test_capture_report_surfaces_span_merge(tmp_path):
    from repro.obs.capture import run_traced_scenario
    out = tmp_path / "trace.json"
    report = run_traced_scenario("cluster", duration=10.0, nodes=2,
                                 jobs=2, out=str(out))
    assert report["parallel"]["mode"] == "parallel"
    assert report["parallel"]["span_merge"] == "merged"
    assert report["n_links"] >= 0
    assert validate_chrome_trace(json.loads(out.read_text())) == []
