"""Smoke test for the tracked perf harness (repro.bench.perf).

Runs the quick harness once, checks the report shape that CI archives
(``BENCH_perf.json``), and asserts the headline property of the CoW
clone: attach cost stays flat from 1 024 to 218 880 pages (the 855 MB
IR-sized image).
"""

import json
import os

from repro.bench.perf import ATTACH_PAGE_COUNTS, run_perf


def test_quick_harness_report(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    report = run_perf(quick=True, out_path=str(out))

    # The JSON artifact round-trips and matches the returned report.
    assert os.path.exists(out)
    assert json.loads(out.read_text()) == json.loads(json.dumps(report))
    assert report["schema"] == "trenv-repro-perf/1"
    assert report["quick"] is True
    assert report["peak_rss_mb"] > 0

    sweep = report["attach"]["fixed_vma_sweep"]
    assert [rec["pages"] for rec in sweep] == list(ATTACH_PAGE_COUNTS)
    assert sweep[-1]["pages"] == 218880
    # O(metadata): CoW attach stays flat while the sweep grows 213x.
    cow_times = [rec["cow_us"] for rec in sweep]
    assert max(cow_times) < 10 * min(cow_times)
    # Simulated attach is sub-millisecond at every size (Figure 11).
    assert all(rec["simulated_ms"] < 1.0 for rec in sweep)

    for rec in report["attach"]["function_images"]:
        assert rec["function"] in ("DH", "IR")
        assert rec["cow_us"] > 0

    thr = report["throughput"]
    assert thr["workload"] == "W2"
    for stats in thr["platforms"].values():
        assert stats["invocations"] > 0
        assert stats["inv_per_s"] > 0

    # Parallel scaling ladder: jobs=1 is the serial reference; every other
    # worker count must dispatch the same invocations (bit-identity is
    # pinned by tests/serverless/test_parallel_cluster.py — the bench
    # only cross-checks counts and records wall/speedup/efficiency).
    par = report["parallel"]
    assert par["host_cpus"] >= 1
    workers = par["workers"]
    assert workers[0]["jobs"] == 1
    assert workers[0]["mode"] == "fallback"
    assert any(w["mode"] == "parallel" for w in workers[1:])
    for w in workers:
        assert w["wall_s"] > 0 and w["inv_per_s"] > 0
        assert w["speedup"] > 0 and w["efficiency"] > 0
