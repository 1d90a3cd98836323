from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.layout import PAGE_SIZE, pages_for_bytes
from repro.mem.page_cache import FileIdRegistry, PageCache
from repro.obs import hooks


def test_charge_file_counts_pages():
    cache = PageCache()
    fresh = cache.charge_file(1, 10 * PAGE_SIZE)
    assert fresh == 10
    assert cache.cached_pages == 10
    assert cache.cached_bytes == 10 * PAGE_SIZE


def test_recaching_same_file_is_free():
    cache = PageCache()
    cache.charge_file(1, 4 * PAGE_SIZE)
    fresh = cache.charge_file(1, 4 * PAGE_SIZE)
    assert fresh == 0
    assert cache.hits == 4


def test_different_files_duplicate():
    cache = PageCache()
    cache.charge_file(1, 4 * PAGE_SIZE)
    fresh = cache.charge_file(2, 4 * PAGE_SIZE)
    assert fresh == 4
    assert cache.cached_pages == 8


def test_offset_ranges_overlap_correctly():
    cache = PageCache()
    cache.charge_file(1, 4 * PAGE_SIZE, offset=0)
    fresh = cache.charge_file(1, 4 * PAGE_SIZE, offset=2 * PAGE_SIZE)
    assert fresh == 2


def test_evict_file():
    cache = PageCache()
    cache.charge_file(1, 4 * PAGE_SIZE)
    cache.charge_file(2, 2 * PAGE_SIZE)
    assert cache.evict_file(1) == 4
    assert cache.cached_pages == 2


def test_drop_all():
    cache = PageCache()
    cache.charge_file(1, 4 * PAGE_SIZE)
    assert cache.drop_all() == 4
    assert cache.cached_pages == 0


def test_delta_callback_fires():
    deltas = []
    cache = PageCache(on_delta=deltas.append)
    cache.charge_file(1, 3 * PAGE_SIZE)
    cache.evict_file(1)
    assert deltas == [3, -3]


def test_partial_page_rounds_up():
    cache = PageCache()
    assert cache.charge_file(1, 1) == 1


def test_file_id_registry_stable():
    reg = FileIdRegistry()
    a = reg.file_id("base-image", "python")
    b = reg.file_id("base-image", "python")
    c = reg.file_id("base-image", "node")
    assert a == b
    assert a != c


# -- property: the run-list cache against the per-file set model it replaced --


class SetPageCache:
    """The per-file block-set cache: every block a set member."""

    def __init__(self, name, on_delta):
        self.name = name
        self._files = {}
        self.on_delta = on_delta
        self.hits = 0
        self.misses = 0

    def _delta(self, delta):
        self.on_delta(delta)
        if hooks.on_page_cache_delta is not None:
            hooks.on_page_cache_delta(self, delta)

    def charge_file(self, file_id, nbytes, offset=0):
        first = offset // PAGE_SIZE
        count = pages_for_bytes(nbytes)
        cached = self._files.setdefault(file_id, set())
        before = len(cached)
        cached.update(range(first, first + count))
        fresh = len(cached) - before
        self.hits += count - fresh
        self.misses += fresh
        if fresh:
            self._delta(fresh)
        return fresh

    def evict_file(self, file_id):
        victims = self._files.pop(file_id, None)
        if not victims:
            return 0
        self._delta(-len(victims))
        return len(victims)

    def drop_all(self):
        freed = self.cached_pages
        self._files.clear()
        if freed:
            self._delta(-freed)
        return freed

    @property
    def cached_pages(self):
        return sum(len(blocks) for blocks in self._files.values())

    @property
    def cached_bytes(self):
        return self.cached_pages * PAGE_SIZE


class DeltaRecorder:
    """Records page-cache hook deltas.  It subscribes next to the
    sanitizer or observer of a wrapped run, which still get every
    call."""

    def __init__(self):
        self.deltas = []

    def on_page_cache_delta(self, cache, delta):
        self.deltas.append(delta)


def run_ops(cache, ops):
    recorder = DeltaRecorder()
    previous = hooks.install(recorder)
    results = []
    try:
        for op in ops:
            if op[0] == "charge":
                results.append(cache.charge_file(*op[1:]))
            elif op[0] == "evict":
                results.append(cache.evict_file(op[1]))
            else:
                results.append(cache.drop_all())
            results.append((cache.hits, cache.misses, cache.cached_pages,
                            cache.cached_bytes))
    finally:
        hooks.uninstall(recorder, previous)
    return results, recorder.deltas


def unaligned(max_pages):
    """Byte counts of up to ``max_pages`` pages, mostly not page-aligned."""
    return st.builds(lambda pages, rest: pages * PAGE_SIZE + rest,
                     st.integers(0, max_pages),
                     st.sampled_from([0, 1, PAGE_SIZE // 2, PAGE_SIZE - 1]))


# Ranges inside a small window of a few files, so they leave gaps,
# overlap, abut, nest and span several runs; zero-byte reads included.
charges = st.tuples(st.just("charge"), st.integers(1, 2), unaligned(5),
                    unaligned(8))
cache_ops = st.lists(st.one_of(
    charges, charges, charges, charges,
    st.tuples(st.just("evict"), st.integers(1, 3)),
    st.tuples(st.just("drop"))), min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(cache_ops)
# Pinned edges: a zero-byte read leaves an empty entry, then a missing
# file is evicted; abutting ranges, then an unaligned one past them; a
# range that joins two runs and ends inside the second.
@example([("charge", 1, 0, 0), ("evict", 1), ("evict", 5)])
@example([("charge", 1, 4 * PAGE_SIZE, 0), ("charge", 1, 4 * PAGE_SIZE,
                                             4 * PAGE_SIZE),
          ("charge", 1, 12 * PAGE_SIZE, 1), ("drop",)])
@example([("charge", 2, 2 * PAGE_SIZE, 0), ("charge", 2, 4 * PAGE_SIZE,
                                             4 * PAGE_SIZE),
          ("charge", 2, 4 * PAGE_SIZE, PAGE_SIZE)])
def test_run_list_matches_block_set_model(ops):
    got_deltas, want_deltas = [], []
    got = run_ops(PageCache("runs", on_delta=got_deltas.append), ops)
    want = run_ops(SetPageCache("sets", want_deltas.append), ops)
    assert got == want
    assert got_deltas == want_deltas
