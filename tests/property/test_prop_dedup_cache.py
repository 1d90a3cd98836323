"""Property tests: dedup store and page cache invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.layout import MB, PAGE_SIZE
from repro.mem.page_cache import PageCache
from repro.mem.pools import (CXLPool, DedupStore, PoolBlock, RDMAPool,
                             TieredPool)

images = st.lists(
    st.lists(st.integers(0, 500), min_size=1, max_size=80).map(
        lambda xs: np.array(xs, dtype=np.int64)),
    min_size=1, max_size=6)


@settings(max_examples=60, deadline=None)
@given(images)
def test_unique_pages_equals_union_of_contents(imgs):
    store = DedupStore(CXLPool(256 * MB))
    union = set()
    for img in imgs:
        store.store_image(img)
        union |= set(int(c) for c in img)
        assert store.unique_pages_stored == len(union)
        assert store.pool.used_pages == len(union)


@settings(max_examples=60, deadline=None)
@given(images)
def test_same_content_same_offset_across_images(imgs):
    store = DedupStore(CXLPool(256 * MB))
    seen = {}
    for img in imgs:
        block = store.store_image(img)
        for cid, off in zip(img, block.offsets):
            if int(cid) in seen:
                assert seen[int(cid)] == int(off)
            else:
                seen[int(cid)] = int(off)


@settings(max_examples=60, deadline=None)
@given(images)
def test_dedup_ratio_bounds(imgs):
    store = DedupStore(CXLPool(256 * MB))
    for img in imgs:
        store.store_image(img)
    assert 0.0 <= store.dedup_ratio < 1.0
    assert store.total_pages_presented == sum(len(i) for i in imgs)


class PendingBufferStore:
    """Oracle: the dedup store as it was when callers stored one VMA at a
    time.  Fresh ids land in a small sorted pending buffer that is merged
    into the main sorted index once it outgrows a quarter of it."""

    def __init__(self, pool):
        self.pool = pool
        self._cids = np.empty(0, dtype=np.int64)
        self._cid_offsets = np.empty(0, dtype=np.int64)
        self._pend_cids = np.empty(0, dtype=np.int64)
        self._pend_offsets = np.empty(0, dtype=np.int64)
        self.total_pages_presented = 0
        self.unique_pages_stored = 0

    def _known_mask(self, sorted_ids):
        known = np.zeros(len(sorted_ids), dtype=bool)
        for cids in (self._cids, self._pend_cids):
            if not len(cids):
                continue
            pos = np.searchsorted(cids, sorted_ids)
            in_range = pos < len(cids)
            known[in_range] |= cids[pos[in_range]] == sorted_ids[in_range]
        return known

    def _lookup(self, content_ids):
        offsets = np.empty(len(content_ids), dtype=np.int64)
        found = np.zeros(len(content_ids), dtype=bool)
        for cids, offs in ((self._cids, self._cid_offsets),
                           (self._pend_cids, self._pend_offsets)):
            if not len(cids):
                continue
            pos = np.searchsorted(cids, content_ids)
            in_range = pos < len(cids)
            hit = np.zeros(len(content_ids), dtype=bool)
            hit[in_range] = cids[pos[in_range]] == content_ids[in_range]
            offsets[hit] = offs[pos[hit]]
            found |= hit
        assert found.all()
        return offsets

    def _merge_pending(self):
        at = np.searchsorted(self._cids, self._pend_cids)
        self._cids = np.insert(self._cids, at, self._pend_cids)
        self._cid_offsets = np.insert(self._cid_offsets, at,
                                      self._pend_offsets)
        self._pend_cids = np.empty(0, dtype=np.int64)
        self._pend_offsets = np.empty(0, dtype=np.int64)

    def store_image(self, content_ids, hot_mask=None):
        content_ids = np.asarray(content_ids, dtype=np.int64)
        self.total_pages_presented += len(content_ids)
        unique, first_idx = np.unique(content_ids, return_index=True)
        known = self._known_mask(unique)
        missing = unique[~known]
        if len(missing):
            if hot_mask is not None:
                mask = np.asarray(hot_mask, dtype=bool)[first_idx[~known]]
                fresh = self.pool.allocate_pages_masked(mask)
            else:
                fresh = self.pool.allocate_pages(len(missing))
            at = np.searchsorted(self._pend_cids, missing)
            self._pend_cids = np.insert(self._pend_cids, at, missing)
            self._pend_offsets = np.insert(self._pend_offsets, at, fresh)
            self.unique_pages_stored += len(missing)
            if len(self._pend_cids) * 4 > len(self._cids):
                self._merge_pending()
        return PoolBlock(pool=self.pool, offsets=self._lookup(content_ids))

    @property
    def dedup_ratio(self):
        if self.total_pages_presented == 0:
            return 0.0
        return 1.0 - self.unique_pages_stored / self.total_pages_presented


def _tiered():
    return TieredPool(CXLPool(64 * MB), RDMAPool(64 * MB), hot_fraction=0.5)


@st.composite
def layered_images(draw):
    """Snapshot-shaped images: ascending content ids (a run shared by all
    images, then ids of each image's own), cut into VMAs, each with a
    per-page hot mask."""
    shared = draw(st.integers(0, 60))
    out = []
    for k in range(draw(st.integers(1, 5))):
        own = draw(st.integers(1, 120))
        ids = np.concatenate([np.arange(shared),
                              (k + 1) * 1000 + np.arange(own)])
        cuts = sorted(draw(st.lists(st.integers(1, len(ids) - 1),
                                    max_size=6, unique=True))
                      ) if len(ids) > 1 else []
        mask = np.array(draw(st.lists(st.booleans(), min_size=len(ids),
                                      max_size=len(ids))), dtype=bool)
        out.append((ids.astype(np.int64), cuts, mask))
    return out


@settings(max_examples=60, deadline=None)
@given(layered_images(), st.booleans())
def test_one_pass_store_matches_per_vma_oracle(imgs, tiered):
    """Storing a snapshot whole places every page where storing it VMA by
    VMA into the pending-buffer store did: same offsets, same tier."""
    oracle = PendingBufferStore(_tiered() if tiered else CXLPool(64 * MB))
    store = DedupStore(_tiered() if tiered else CXLPool(64 * MB))
    for ids, cuts, mask in imgs:
        bounds = [0, *cuts, len(ids)]
        per_vma = np.concatenate([
            oracle.store_image(ids[lo:hi],
                               hot_mask=mask[lo:hi] if tiered else None
                               ).offsets
            for lo, hi in zip(bounds, bounds[1:])])
        whole = store.store_image(ids, hot_mask=mask if tiered else None)
        assert np.array_equal(whole.offsets, per_vma)
        assert np.array_equal(store.pool.valid_mask(whole.offsets),
                              oracle.pool.valid_mask(per_vma))
    assert store.pool.used_pages == oracle.pool.used_pages
    if tiered:
        assert store.pool.hot.used_pages == oracle.pool.hot.used_pages


@settings(max_examples=60, deadline=None)
@given(images, st.lists(st.integers(1, 79), max_size=4))
def test_one_pass_store_matches_oracle_counts(imgs, cuts):
    """Any content, stored whole, dedups exactly as much as the oracle
    storing it in pieces; stored in the same calls, it also gets the
    same offsets."""
    pieces = PendingBufferStore(CXLPool(256 * MB))
    same_calls = PendingBufferStore(CXLPool(256 * MB))
    store = DedupStore(CXLPool(256 * MB))
    for img in imgs:
        bounds = sorted({0, len(img), *(c for c in cuts if c < len(img))})
        for lo, hi in zip(bounds, bounds[1:]):
            pieces.store_image(img[lo:hi])
        assert np.array_equal(store.store_image(img).offsets,
                              same_calls.store_image(img).offsets)
    for oracle in (pieces, same_calls):
        assert store.unique_pages_stored == oracle.unique_pages_stored
        assert store.total_pages_presented == oracle.total_pages_presented
        assert store.dedup_ratio == oracle.dedup_ratio
        assert store.pool.used_pages == oracle.pool.used_pages


file_ops = st.lists(
    st.tuples(st.integers(1, 5),                 # file id
              st.integers(1, 30),                # pages
              st.integers(0, 20)),               # offset pages
    min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(file_ops)
def test_page_cache_counts_distinct_blocks(ops):
    cache = PageCache()
    expected = set()
    for fid, pages, off_pages in ops:
        cache.charge_file(fid, pages * PAGE_SIZE, offset=off_pages * PAGE_SIZE)
        for b in range(off_pages, off_pages + pages):
            expected.add((fid, b))
        assert cache.cached_pages == len(expected)


@settings(max_examples=60, deadline=None)
@given(file_ops, st.integers(1, 5))
def test_page_cache_evict_removes_exactly_one_file(ops, victim):
    cache = PageCache()
    expected = set()
    for fid, pages, off_pages in ops:
        cache.charge_file(fid, pages * PAGE_SIZE, offset=off_pages * PAGE_SIZE)
        for b in range(off_pages, off_pages + pages):
            expected.add((fid, b))
    victims = {key for key in expected if key[0] == victim}
    assert cache.evict_file(victim) == len(victims)
    assert cache.cached_pages == len(expected) - len(victims)


@settings(max_examples=40, deadline=None)
@given(file_ops)
def test_page_cache_delta_hook_consistent(ops):
    total = [0]
    cache = PageCache(on_delta=lambda d: total.__setitem__(0, total[0] + d))
    for fid, pages, off_pages in ops:
        cache.charge_file(fid, pages * PAGE_SIZE, offset=off_pages * PAGE_SIZE)
    assert total[0] == cache.cached_pages
    cache.drop_all()
    assert total[0] == 0
