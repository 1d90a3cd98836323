"""Streaming metrics: LogHistogram and the O(bins) recorder paths.

The latency recorder folds every invocation into fixed-bin log-scale
histograms; below :data:`EXACT_SAMPLE_CAP` samples the
histogram retains the raw values and answers quantiles bit-exactly, so
every paper experiment (small-sample) is unaffected while trace-scale
runs get O(bins) memory and queries.
"""

import math

import numpy as np
import pytest

from repro.serverless.metrics import (BINS_PER_DECADE, EXACT_SAMPLE_CAP,
                                      InvocationResult, LatencyRecorder,
                                      LogHistogram, percentile)
from repro.sim.rng import SeededRNG


def _result(function="IR", arrival=10.0, e2e=0.5, startup=0.0,
            exec_=0.0, start_kind="warm"):
    # e2e must cover queue+startup+exec (InvocationResult invariant).
    e2e = max(e2e, startup + exec_)
    return InvocationResult(function=function, arrival=arrival,
                            start_kind=start_kind, startup=startup,
                            exec=exec_, e2e=e2e, queue=0.0)


# -- LogHistogram ---------------------------------------------------------------


def test_histogram_exact_below_cap():
    rng = SeededRNG(1, "hist")
    values = [rng.uniform(0.001, 50.0) for _ in range(500)]
    h = LogHistogram()
    for v in values:
        h.add(v)
    assert h.exact
    assert h.count == 500
    for p in (0, 25, 50, 90, 99, 100):
        assert h.quantile(p) == pytest.approx(
            float(np.percentile(values, p)), abs=0.0)
    assert h.mean() == pytest.approx(float(np.mean(values)))


def test_histogram_binned_above_cap_bounded_error():
    rng = SeededRNG(2, "hist")
    values = [rng.uniform(0.001, 50.0) for _ in range(EXACT_SAMPLE_CAP + 500)]
    h = LogHistogram()
    for v in values:
        h.add(v)
    assert not h.exact
    assert h.count == len(values)
    # A log-bin quantile is off by at most one bin width (a factor of
    # 10**(1/BINS_PER_DECADE)) from the true value.
    tol = 10.0 ** (1.5 / BINS_PER_DECADE)
    for p in (10, 50, 99):
        true = float(np.percentile(values, p))
        assert h.quantile(p) / true < tol
        assert true / h.quantile(p) < tol
    assert h.quantile(0) == pytest.approx(min(values))
    assert h.quantile(100) == pytest.approx(max(values))
    assert h.mean() == pytest.approx(float(np.mean(values)))


def test_histogram_empty_and_range_checks():
    h = LogHistogram()
    assert math.isnan(h.quantile(50))
    assert math.isnan(h.mean())
    with pytest.raises(ValueError):
        h.quantile(101)


def test_histogram_merge_preserves_exactness_under_cap():
    a, b = LogHistogram(), LogHistogram()
    for v in (0.1, 0.2, 0.3):
        a.add(v)
    for v in (0.4, 0.5):
        b.add(v)
    a.merge(b)
    assert a.exact and a.count == 5
    assert a.quantile(100) == pytest.approx(0.5)
    assert a.quantile(0) == pytest.approx(0.1)


def test_histogram_merge_overflows_to_binned():
    a, b = LogHistogram(exact_cap=4), LogHistogram(exact_cap=4)
    for v in (0.1, 0.2, 0.3):
        a.add(v)
    for v in (0.4, 0.5):
        b.add(v)
    a.merge(b)
    assert not a.exact
    assert a.count == 5
    assert a.mean() == pytest.approx(0.3)


def test_histogram_cdf_modes():
    h = LogHistogram(exact_cap=8)
    vals = [0.1 * (i + 1) for i in range(6)]
    for v in vals:
        h.add(v)
    xs, ps = h.cdf_points()
    assert list(xs) == pytest.approx(sorted(vals))
    assert ps[-1] == pytest.approx(1.0)
    for v in vals:
        h.add(v)  # now 12 > cap: binned
    xs, ps = h.cdf_points()
    assert not h.exact
    assert ps[-1] == pytest.approx(1.0)
    assert list(xs) == sorted(xs)


# -- LatencyRecorder streaming modes -------------------------------------------


def test_streaming_only_recorder_matches_exact_aggregates():
    rng = SeededRNG(3, "rec")
    results = [_result(function="IR" if i % 2 else "IFR",
                       arrival=float(i),
                       e2e=rng.uniform(1.4, 2.0),
                       startup=rng.uniform(0.0, 0.3),
                       exec_=rng.uniform(0.01, 1.0))
               for i in range(300)]
    exact = LatencyRecorder(keep_results=True)
    stream = LatencyRecorder(keep_results=False)
    for r in results:
        exact.record(r)
        stream.record(r)
    assert not stream.results  # nothing retained
    for fn in (None, "IR", "IFR"):
        e2e = [r.e2e for r in exact.measured(fn)]
        for p in (50, 99):
            assert stream.e2e_percentile(p, fn) == pytest.approx(
                percentile(e2e, p))
        assert stream.mean_e2e(fn) == pytest.approx(float(np.mean(e2e)))
    assert stream.count() == exact.count() == 300
    assert stream.start_kind_counts() == exact.start_kind_counts()
    assert stream.functions() == ["IFR", "IR"]


def test_streaming_only_recorder_forbids_measured():
    rec = LatencyRecorder(keep_results=False)
    rec.record(_result())
    with pytest.raises(RuntimeError):
        rec.measured()


def test_streaming_only_recorder_forbids_late_warmup():
    rec = LatencyRecorder(keep_results=False)
    rec.record(_result(arrival=5.0))
    with pytest.raises(RuntimeError):
        rec.warmup = 1.0


def test_streaming_warmup_filters_at_record_time():
    rec = LatencyRecorder(warmup=10.0, keep_results=False)
    rec.record(_result(arrival=5.0, e2e=100.0))   # inside warm-up
    rec.record(_result(arrival=15.0, e2e=0.5))
    assert rec.count() == 1
    assert rec.e2e_percentile(50) == pytest.approx(0.5)


def test_merge_from_streaming_shards():
    shards = []
    for s in range(3):
        rec = LatencyRecorder(keep_results=False)
        for i in range(50):
            rec.record(_result(arrival=float(i), e2e=0.1 * (s + 1)))
        shards.append(rec)
    merged = LatencyRecorder(keep_results=False)
    for shard in shards:
        merged.merge_from(shard)
    assert merged.count() == 150
    assert merged.mean_e2e() == pytest.approx((0.1 + 0.2 + 0.3) / 3)


def test_merge_from_streaming_requires_matching_warmup():
    src = LatencyRecorder(warmup=5.0, keep_results=False)
    src.record(_result(arrival=10.0))
    dst = LatencyRecorder(warmup=0.0, keep_results=False)
    with pytest.raises(RuntimeError):
        dst.merge_from(src)


def test_retained_results_answer_like_percentile_over_results():
    """Below the exact-sample cap, recorder queries equal the
    module-level percentile over the retained results, bit for bit."""
    results = [_result(arrival=float(i), e2e=0.1 + 0.01 * i)
               for i in range(40)]
    rec = LatencyRecorder()
    for r in results:
        rec.record(r)
    assert rec.results == results
    e2e = [r.e2e for r in results]
    for p in (0, 50, 99, 100):
        assert rec.e2e_percentile(p) == percentile(e2e, p)
    assert rec.mean_e2e() == pytest.approx(float(np.mean(e2e)))
