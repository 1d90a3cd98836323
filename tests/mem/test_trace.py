import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- jitter on the shapes the benchmark workloads draw ---------------------------


def _sorted_unique(pages):
    pages.sort()
    if len(pages) < 2:
        return pages
    keep = np.empty(len(pages), dtype=bool)
    keep[0] = True
    np.not_equal(pages[1:], pages[:-1], out=keep[1:])
    return pages[keep]


def _member_mask(pages, sorted_set):
    if len(sorted_set) == 0:
        return np.zeros(len(pages), dtype=bool)
    pos = np.searchsorted(sorted_set, pages)
    pos[pos == len(sorted_set)] = 0
    return sorted_set[pos] == pages


def sort_merge_jittered(trace, rng, total_pages, fraction):
    """The sort-merge jitter the mask form replaced, as a reference."""
    n_swap = int(round(len(trace.read_pages) * fraction))
    keep_idx = rng.sample_pages(len(trace.read_pages),
                                len(trace.read_pages) - n_swap)
    kept = trace.read_pages[np.sort(keep_idx)]
    fresh = rng.sample_pages(total_pages, n_swap)
    reads = _sorted_unique(np.concatenate([kept, fresh]))
    writes = trace.write_pages[_member_mask(trace.write_pages, reads)]
    deficit = len(trace.write_pages) - len(writes)
    if deficit > 0:
        candidates = reads[~_member_mask(reads, writes)]
        candidates = candidates[np.searchsorted(
            candidates, trace.writable_start):]
        if len(candidates):
            extra = candidates[rng.sample_pages(
                len(candidates), min(deficit, len(candidates)))]
            writes = np.concatenate([writes, extra])
            writes.sort()
    return reads, writes


#: (reads, writes, image pages, writable_start) of the base traces that
#: the W2 and overload-surge runs jitter, one per function profile (IP
#: twice: its write count depends on the node's stream), plus a shape
#: whose top-up mostly runs out of candidates.
WORKLOAD_SHAPES = [
    (2_000, 400, 12_903, 9_728),      # DH
    (3_050, 1_068, 24_295, 9_728),    # JS
    (3_500, 1_295, 28_416, 9_728),    # JJS
    (4_000, 1_600, 24_295, 9_728),    # CH
    (5_000, 2_500, 31_744, 9_728),    # CR
    (6_000, 2_618, 17_178, 9_728),    # IP
    (6_000, 2_540, 17_178, 9_728),    # IP, another node
    (10_700, 1_070, 218_880, 9_728),  # IR: sparse over a large image
    (12_000, 3_600, 29_696, 9_728),   # PR
    (20_000, 15_200, 64_768, 9_728),  # IFR
    (30_000, 16_500, 82_944, 9_728),  # VP
    (3_000, 234, 12_000, 11_000),     # every writable read written
]


def base_of_shape(n_reads, n_writes, total, writable_start):
    rng = SeededRNG(n_reads, "shape")
    reads = np.sort(rng.sample_pages(total, n_reads))
    writable = reads[reads >= writable_start]
    writes = np.sort(writable[rng.sample_pages(len(writable), n_writes)])
    assert len(writes) == n_writes
    return AccessTrace(reads, writes, 7 * n_reads,
                       writable_start=writable_start)


@pytest.mark.parametrize("shape", WORKLOAD_SHAPES,
                         ids=lambda s: "x".join(map(str, s)))
def test_jitter_matches_sort_merge_on_workload_shapes(shape):
    total = shape[2]
    base = base_of_shape(*shape)
    for seed in range(4):
        rng_new, rng_ref = SeededRNG(seed, "j"), SeededRNG(seed, "j")
        jit = base.jittered(rng_new, total, 0.08)
        reads, writes = sort_merge_jittered(base, rng_ref, total, 0.08)
        assert rng_new.random() == rng_ref.random()
        for got, want in ((jit.read_pages, reads), (jit.write_pages, writes)):
            assert got.dtype == np.int64 == want.dtype
            assert np.array_equal(got, want)
            assert (np.diff(got) > 0).all()       # sorted and distinct
            assert not np.shares_memory(got, base.read_pages)
            assert not np.shares_memory(got, base.write_pages)
        # The top-up ran: some writes are pages the base never wrote.
        assert not np.isin(jit.write_pages, base.write_pages).all()


# -- touched_pages / read_only_ratio against numpy's set operations -------------


page_arrays = st.lists(st.integers(0, 300), unique=True, max_size=120).map(
    lambda xs: np.array(sorted(xs), dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(page_arrays, page_arrays, st.booleans())
def test_touched_and_read_only_match_numpy_set_operations(reads, writes,
                                                          subset):
    if subset:
        writes = writes[np.isin(writes, reads)]
    trace = AccessTrace(reads, writes, 0)
    touched = len(np.union1d(reads, writes))
    assert trace.touched_pages == touched
    both = len(np.intersect1d(writes, reads, assume_unique=True))
    want = (len(reads) - both) / touched if touched else 0.0
    assert trace.read_only_ratio == want
