"""Tests of the benchmark's own code.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import digest  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_every_name_is_valid_and_unique():
    bench = _benchmark()
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"]]
             + [m["name"] for m in bench["per_layer"]])
    assert len(set(names)) == len(names)
    names += list(spec.WORKLOADS)
    names += list(digest.sim_metrics(_recorder(True), 60, 0))
    assert not [n for n in names if not spec.NAME_RE.match(n)]


def test_benchmark_json_lists_what_the_code_reports():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == spec.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == spec.per_layer_metrics()


def _recorder(keep_results: bool, n: int = 60, nudge: int = -1,
              shift: int = -1):
    """``n`` results; ``nudge`` moves one e2e up one ulp, ``shift`` moves
    a microsecond of one result's startup into its exec time."""
    from repro.serverless.metrics import InvocationResult, LatencyRecorder

    rec = LatencyRecorder(keep_results=keep_results)
    for i in range(n):
        startup, exec_ = 0.01 + i * 1e-4, 0.05
        e2e = startup + exec_ + 1e-3
        if i == nudge:
            e2e = math.nextafter(e2e, math.inf)
        if i == shift:
            startup, exec_ = startup - 1e-6, exec_ + 1e-6
        rec.record(InvocationResult(
            function=f"f{i % 3}", arrival=i * 0.1,
            start_kind="warm" if i % 2 else "cold", startup=startup,
            exec=exec_, e2e=e2e))
    return rec


# Streaming recorders keep exact samples up to EXACT_SAMPLE_CAP per
# histogram and bin beyond it: 15000 results put 5000 in each function's.
@pytest.mark.parametrize("keep_results,n", [(True, 60), (False, 60),
                                            (False, 15000)])
def test_digest_check_fails_on_a_perturbed_outcome(keep_results, n):
    from repro.serverless.metrics import EXACT_SAMPLE_CAP

    failed = [("f0", 1.5, "shed:deadline")]
    counts = {"node0": 31, "node1": 30}

    def of(rec, counts=counts, failed=failed):
        return digest.digest(digest.outcome_view(rec, counts, failed, n + 1))

    pinned = of(_recorder(keep_results, n))
    assert digest.check(of(_recorder(keep_results, n)), pinned) is None
    if not keep_results:
        binned = n // 3 > EXACT_SAMPLE_CAP
        assert _recorder(keep_results, n)._agg("f0").e2e.exact != binned
    perturbed = [
        of(_recorder(keep_results, n, nudge=17)),
        of(_recorder(keep_results, n, shift=17)),
        of(_recorder(keep_results, n), counts={"node0": 30, "node1": 31}),
        of(_recorder(keep_results, n), failed=[("f0", 1.5, "shed:queue")]),
        of(_recorder(keep_results, n), failed=[]),
    ]
    for actual in perturbed:
        assert digest.check(actual, pinned) is not None
    assert digest.check(pinned, None) is not None


def test_a_sharded_run_must_take_the_sharded_path():
    from run import sharding_problem

    ran = {"mode": "parallel", "n_shards": 2, "span_merge": "merged"}
    assert sharding_problem("rack_trace_jobs2", {"parallel": ran}) is None
    assert sharding_problem("rack_rr", {}) is None
    for change in ({"mode": "fallback", "n_shards": 1},
                   {"n_shards": 3},
                   {"span_merge": "fallback: merge invariant broken"}):
        result = {"parallel": dict(ran, **change)}
        assert sharding_problem("rack_trace_jobs2", result) is not None
    assert sharding_problem("rack_trace_jobs2", {}) is not None


def test_a_slow_host_phase_is_scaled_out_of_the_times():
    from run import PROBE_REFERENCE_S, end_to_end

    fast = [{"scheduled": 100, "wall_s": w, "cpu_s": w, "setup_s": s,
             "peak_rss_mb": 80.0} for w, s in ((1.0, 0.3), (1.2, 0.5),
                                               (1.1, 0.4))]
    slow = [dict(r, wall_s=1.5 * r["wall_s"], cpu_s=1.5 * r["cpu_s"],
                 setup_s=1.5 * r["setup_s"]) for r in fast]
    measured = end_to_end(fast, PROBE_REFERENCE_S)
    assert measured == {"inv_per_s": 100.0, "cpu_s": 1.0, "setup_s": 0.4,
                        "peak_rss_mb": 80.0}
    scaled = end_to_end(slow, 1.5 * PROBE_REFERENCE_S)
    assert scaled == pytest.approx(measured)


def test_tail_uses_the_highest_percentile_with_ten_beyond():
    rec = _recorder(keep_results=True)          # 60 completions
    sim = digest.sim_metrics(rec, scheduled=61, n_failed=1)
    tail = sim["sim_tail_e2e_ms"]
    assert (tail["percentile"], tail["beyond"]) == (100.0, 0)
    assert sim["failed_frac"]["value"] == 1 / 61


def test_every_workload_seed_is_pinned():
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    assert expected["seed_space"] == spec.SEED_SPACE
    for name in spec.WORKLOADS:
        table = expected["digests"][spec.DIGEST_KEY.get(name, name)]
        assert sorted(table, key=int) == [str(s)
                                          for s in range(spec.SEED_SPACE)]


_IMPORTS = """
import json, sys
sys.path[:0] = [{here!r}, {src!r}]
import layers
from scenarios import prepare
from spec import WORKLOADS
layers.install_counters({{}})
layers.install_parallel_timers({{}}, {src!r}, profile_shards=False)
for name in WORKLOADS:
    run, _params = prepare(name, 1, 0.02)
    run()
print(json.dumps(sorted(m for m in sys.modules
                        if m == "repro" or m.startswith("repro."))))
"""


def test_every_imported_repro_module_maps_to_exactly_one_layer():
    code = _IMPORTS.format(here=HERE, src=SRC)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300, check=True)
    modules = json.loads(out.stdout.strip().splitlines()[-1])
    assert "repro.serverless.parallel" in modules
    unmapped = {m: spec.layers_of(m) for m in modules
                if len(spec.layers_of(m)) != 1}
    assert not unmapped


def test_overload_ctl_is_the_surge_of_experiments_overload():
    """The benchmark builds the surge's rack itself (so that set-up ends
    before the first event); it must still run the module's scenario."""
    from repro.bench import experiments_overload as surge
    from scenarios import prepare

    run, params = prepare("overload_ctl", 1, 0.1)
    ours = run()
    profile = {knob: params[knob] for knob in surge.surge_profile()}
    theirs = surge._run_surge(1, profile, surge.overload_control())
    rec = ours.recorder
    assert (ours.scheduled, len(rec.measured()), len(ours.failed),
            ours.redispatches, rec.e2e_percentile(50),
            rec.e2e_percentile(99)) == (
        theirs["n_invocations"], theirs["completed"], theirs["failed"],
        theirs["redispatches"], theirs["p50_e2e"], theirs["p99_e2e"])
    assert theirs["failed"] > 0 and theirs["node_crashes"] > 0


def test_library_time_goes_to_the_calling_layer():
    src = "/x/src"
    engine = (f"{src}/repro/sim/engine.py", 1, "run")
    fault = (f"{src}/repro/mem/address_space.py", 1, "access")
    numpy_fn = ("~", 0, "<built-in method numpy.bincount>")
    stats = {
        engine: (1, 1, 1.0, 9.0, {}),
        fault: (1, 1, 2.0, 8.0, {engine: (1, 1, 2.0, 8.0)}),
        numpy_fn: (2, 2, 6.0, 6.0, {engine: (1, 1, 1.5, 1.5),
                                    fault: (1, 1, 4.5, 4.5)}),
    }
    self_s = layers.attribute(stats, layers.classifier(src))
    assert self_s["sim"] == pytest.approx(2.5)
    assert self_s["mem.fault"] == pytest.approx(6.5)
    assert sum(self_s.values()) == pytest.approx(9.0)


def test_run_fails_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rack_rr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
