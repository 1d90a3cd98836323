"""End-to-end observability: real runs emit the full span taxonomy."""

import json

import pytest

from repro.bench.harness import run_platform_workload
from repro.mem.layout import GB
from repro.obs.export import phase_breakdown
from repro.obs.observer import observed
from repro.workloads.synthetic import make_w2_diurnal


@pytest.fixture(scope="module")
def w2_spans():
    """One W2 slice traced at spans level, shared across assertions."""
    wl = make_w2_diurnal(seed=1, duration=150.0, mean_rate=1.6,
                         soft_cap_bytes=5 * GB)
    with observed("spans") as obs:
        result = run_platform_workload("t-cxl", wl, seed=1)
    return obs, result


def test_span_taxonomy_covers_lifecycle(w2_spans):
    obs, _ = w2_spans
    names = {s[4] for s in obs.tracer.spans}
    for required in ("dispatch", "acquire", "mmt_attach",
                     "proc_state_restore", "fault_replay", "exec",
                     "teardown", "warm_hit", "retire"):
        assert required in names, f"missing span {required!r}"


def test_cold_and_warm_kinds_decomposed(w2_spans):
    obs, result = w2_spans
    kinds = result.recorder.start_kind_counts()
    assert kinds.get("warm", 0) > 0 and kinds.get("cold", 0) > 0
    breakdown = phase_breakdown(obs.tracer)
    # Cold starts pay the restore/attach path; warm hits skip it.
    assert breakdown["cold"]["mmt_attach"]["count"] > 0
    assert breakdown["cold"]["exec"]["count"] > 0
    assert breakdown["warm"]["warm_hit"]["count"] > 0
    assert breakdown["warm"]["exec"]["count"] > 0
    assert "mmt_attach" not in breakdown["warm"]


def test_root_spans_match_recorder(w2_spans):
    obs, result = w2_spans
    roots = [s for s in obs.tracer.spans if s[5] == "invocation"]
    assert len(roots) == result.recorder.count()
    # Every root span closes after it opens and carries the kind the
    # recorder saw.
    kinds = set(result.recorder.start_kind_counts())
    for t0, t1, _pid, _tid, _name, _cat, trace_id, args in roots:
        assert t1 >= t0 and trace_id > 0
        assert args["kind"] in kinds


def test_registry_counts_match_recorder(w2_spans):
    obs, result = w2_spans
    totals = obs.registry.totals()
    invoked = sum(v for k, v in totals.items()
                  if k.startswith("invocations_total{"))
    assert invoked == result.recorder.count()
    attaches = obs.registry.counter("mmt_attaches_total")
    assert attaches > 0


def test_mmt_attach_pool_label_matches_vma_walk():
    """The attach span's pool label comes from the template's layout and
    equals a walk over its VMAs, before and after a VMA gains a pool."""
    import numpy as np

    from repro.core.mm_template import MMTemplateRegistry
    from repro.mem.address_space import PROT_READ, PROT_WRITE
    from repro.mem.pools import CXLPool, DedupStore
    from repro.obs.observer import Observability
    from repro.sim.engine import Simulator

    def walk(template):
        return ",".join(sorted({v.pool.name for v in template.vmas
                                if v.pool is not None})) or "local"

    registry = MMTemplateRegistry(Simulator())
    store = DedupStore(CXLPool(GB))
    template = registry.mmt_create("fn")
    registry.mmt_add_map(template, "text", 4, PROT_READ)
    registry.mmt_add_map(template, "heap", 4, PROT_READ | PROT_WRITE)
    obs = Observability("spans")
    ctx = obs.tracer.begin("fn", 0.0)
    obs.tracer.bind(ctx, "node0")
    obs.on_mmt_attach(template, 0.0, 1.0, ctx)
    before = walk(template)
    registry.mmt_setup_pt(template, "heap", store.store_image(np.arange(4)))
    obs.on_mmt_attach(template, 1.0, 2.0, ctx)
    labels = [s[7]["pool"] for s in obs.tracer.spans]
    assert labels == [before, walk(template)]
    assert labels[0] == "local" and labels[1] != "local"


def test_criu_platform_emits_restore_spans():
    wl = make_w2_diurnal(seed=1, duration=60.0, mean_rate=1.6,
                         soft_cap_bytes=5 * GB)
    with observed("spans") as obs:
        run_platform_workload("criu", wl, seed=1)
    names = {s[4] for s in obs.tracer.spans}
    assert "criu_restore" in names
    assert obs.registry.counter("criu_restores_total") > 0


def test_metrics_level_has_no_tracer():
    wl = make_w2_diurnal(seed=1, duration=30.0, mean_rate=1.6,
                         soft_cap_bytes=5 * GB)
    with observed("metrics") as obs:
        run_platform_workload("t-cxl", wl, seed=1)
    assert obs.tracer is None
    assert len(obs.registry) > 0
    assert obs.registry.prometheus_text()


def test_cluster_trace_has_node_tracks():
    from repro.mem.pools import CXLPool
    from repro.serverless.cluster import make_trenv_cluster
    cluster = make_trenv_cluster(3, CXLPool(128 * GB), seed=3)
    wl = make_w2_diurnal(seed=3, duration=90.0, mean_rate=1.6)
    with observed("spans") as obs:
        result = cluster.run_workload(wl)
    procs = obs.tracer.processes()
    assert "rack" in procs
    assert sum(1 for n in procs if n != "rack") == 3
    dispatched = sum(v for k, v in obs.registry.totals().items()
                     if k.startswith("dispatches_total{"))
    assert dispatched >= result.recorder.count()
    assert any(s[4] == "dispatch" for s in obs.tracer.spans)


def test_cli_trace_writes_loadable_json(tmp_path, capsys):
    from repro.cli import main
    out = tmp_path / "trace.json"
    assert main(["trace", "w2", "--duration", "20", "--out", str(out),
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["obs_level"] == "spans"
    assert report["trace_events"] > 0
    data = json.loads(out.read_text())
    assert data["traceEvents"]
    assert {ev["ph"] for ev in data["traceEvents"]} <= {"X", "i", "M"}


def test_cli_trace_metrics_level(tmp_path, capsys):
    from repro.cli import main
    assert main(["trace", "w2", "--duration", "20", "--obs-level",
                 "metrics", "--out", str(tmp_path / "t.json"),
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics_totals"]
    assert "n_spans" not in report
    assert not (tmp_path / "t.json").exists()


def test_sweep_shard_merge_matches_serial():
    """Parallel shard registries merge to the serial run's totals."""
    from repro.bench.sweep import SweepConfig, run_sweep
    grid = [
        SweepConfig(seed=1, policy="warm-affinity", n_nodes=2,
                    trace="W2", duration=60.0),
        SweepConfig(seed=2, policy="least-loaded", n_nodes=2,
                    trace="scaleout", duration=30.0, rate=20.0),
    ]
    serial = run_sweep(grid, jobs=1, out_path=None, obs_level="metrics")
    fanned = run_sweep(grid, jobs=2, out_path=None, obs_level="metrics")
    assert serial["obs"]["totals"]
    assert serial["obs"]["totals"] == fanned["obs"]["totals"]
    assert serial["obs"]["registry"] == fanned["obs"]["registry"]
    assert serial["shards"] == fanned["shards"]
