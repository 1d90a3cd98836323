import numpy as np
import pytest

from repro.mem.trace import AccessTrace
from repro.sim.rng import SeededRNG


def test_generate_respects_fractions():
    rng = SeededRNG(1)
    trace = AccessTrace.generate(rng, total_pages=1000, touch_fraction=0.5,
                                 write_fraction=0.2)
    assert trace.distinct_reads == 500
    assert trace.distinct_writes == 100


def test_generate_deterministic_per_seed():
    a = AccessTrace.generate(SeededRNG(5), 1000, 0.5, 0.3)
    b = AccessTrace.generate(SeededRNG(5), 1000, 0.5, 0.3)
    assert np.array_equal(a.read_pages, b.read_pages)
    assert np.array_equal(a.write_pages, b.write_pages)


def test_writes_are_subset_of_reads():
    trace = AccessTrace.generate(SeededRNG(2), 1000, 0.4, 0.5)
    assert np.isin(trace.write_pages, trace.read_pages).all()


def test_read_only_ratio_matches_write_fraction():
    trace = AccessTrace.generate(SeededRNG(3), 10_000, 0.5, 0.25)
    assert trace.read_only_ratio == pytest.approx(0.75, abs=0.01)


def test_pages_within_bounds_and_distinct():
    trace = AccessTrace.generate(SeededRNG(4), 500, 1.0, 1.0)
    assert trace.read_pages.min() >= 0
    assert trace.read_pages.max() < 500
    assert len(np.unique(trace.read_pages)) == len(trace.read_pages)


def test_invalid_fractions_raise():
    rng = SeededRNG(0)
    with pytest.raises(ValueError):
        AccessTrace.generate(rng, 100, 1.5, 0.5)
    with pytest.raises(ValueError):
        AccessTrace.generate(rng, 100, 0.5, -0.1)


def test_read_loads_scale_with_touched():
    trace = AccessTrace.generate(SeededRNG(6), 1000, 0.5, 0.1,
                                 loads_per_read_page=10)
    assert trace.read_loads == 5000


def test_subset_shrinks_trace():
    rng = SeededRNG(7)
    trace = AccessTrace.generate(rng, 1000, 0.8, 0.2)
    sub = trace.subset(0.5, rng.fork("ws"))
    assert sub.distinct_reads == trace.distinct_reads // 2
    assert np.isin(sub.read_pages, trace.read_pages).all()
    assert np.isin(sub.write_pages, trace.write_pages).all()


def test_subset_zero_and_full():
    rng = SeededRNG(8)
    trace = AccessTrace.generate(rng, 100, 0.5, 0.5)
    empty = trace.subset(0.0, rng.fork("a"))
    assert empty.distinct_reads == 0
    full = trace.subset(1.0, rng.fork("b"))
    assert full.distinct_reads == trace.distinct_reads


def test_subset_invalid_fraction():
    rng = SeededRNG(9)
    trace = AccessTrace.generate(rng, 100, 0.5, 0.5)
    with pytest.raises(ValueError):
        trace.subset(2.0, rng)


def test_touched_pages_counts_union():
    trace = AccessTrace(read_pages=np.array([1, 2, 3]),
                        write_pages=np.array([3, 4]), read_loads=0)
    assert trace.touched_pages == 4


def test_jitter_without_swaps_keeps_writable_start():
    # 10 reads at 1% jitter round to zero swapped pages: the copy must
    # still carry the read-only prefix bound.
    trace = AccessTrace.generate(SeededRNG(10), 100, 0.1, 0.5,
                                 writable_start=40)
    same = trace.jittered(SeededRNG(11), 100, fraction=0.01)
    assert same.writable_start == 40
    assert np.array_equal(same.read_pages, trace.read_pages)
    assert np.array_equal(same.write_pages, trace.write_pages)
    assert same.read_pages is not trace.read_pages


def test_jitter_writes_stay_in_reads_and_above_writable_start():
    trace = AccessTrace.generate(SeededRNG(12), 2000, 0.5, 0.4,
                                 writable_start=300)
    jit = trace.jittered(SeededRNG(13), 2000, fraction=0.3)
    assert np.isin(jit.write_pages, jit.read_pages).all()
    assert (jit.write_pages >= 300).all()
    assert (np.diff(jit.read_pages) > 0).all()
    assert (np.diff(jit.write_pages) > 0).all()
    assert jit.distinct_writes == trace.distinct_writes
