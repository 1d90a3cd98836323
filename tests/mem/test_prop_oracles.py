"""Property tests: the memory hot path against its straightforward forms.

``AccessTrace.jittered`` uses sort-merge set operations and
``AddressSpace.access`` handles each page list in one gather pass.  The
simpler implementations they replaced are kept below as oracles
(``np.unique``/``intersect1d``/``setdiff1d`` jitter; a per-VMA generator
loop with one ``bincount`` per VMA) and the two must agree bit for bit:
same arrays and dtypes, same RNG draws, same fault counts, same PTE
states, and the same accountant and hook call sequences.

Both charge the accountant once per access.  The per-VMA loop used to
charge once per faulting VMA; the oracle still reports that sequence,
and a third property shows that an accountant fed it ends in the same
state as one fed the single charge, save the count of cap violations.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem.accounting import MemoryAccountant
from repro.mem.address_space import (PROT_READ, PROT_WRITE, PTE_LOCAL,
                                     PTE_NONE, PTE_REMOTE_INVALID,
                                     PTE_REMOTE_RO, AccessOutcome,
                                     AddressSpace)
from repro.mem.cow import CHUNK_PAGES, count_equal
from repro.mem.layout import MB
from repro.mem.pools import CXLPool, DedupStore, RDMAPool
from repro.mem.trace import AccessTrace
from repro.obs import hooks
from repro.sim.rng import SeededRNG

# -- oracles: the implementations the fast paths replaced ------------------------


def oracle_jittered(trace, rng, total_pages, fraction):
    n_swap = int(round(len(trace.read_pages) * fraction))
    if n_swap == 0:
        return AccessTrace(trace.read_pages.copy(),
                           trace.write_pages.copy(), trace.read_loads)
    keep_idx = rng.sample_pages(len(trace.read_pages),
                                len(trace.read_pages) - n_swap)
    kept = trace.read_pages[np.sort(keep_idx)]
    fresh = rng.sample_pages(total_pages, n_swap)
    reads = np.unique(np.concatenate([kept, fresh]))
    writes = np.intersect1d(trace.write_pages, reads, assume_unique=False)
    deficit = len(trace.write_pages) - len(writes)
    if deficit > 0:
        candidates = np.setdiff1d(reads, writes, assume_unique=True)
        candidates = candidates[candidates >= trace.writable_start]
        if len(candidates):
            extra = candidates[rng.sample_pages(
                len(candidates), min(deficit, len(candidates)))]
            writes = np.unique(np.concatenate([writes, extra]))
    return AccessTrace(read_pages=reads, write_pages=np.sort(writes),
                       read_loads=trace.read_loads,
                       writable_start=trace.writable_start)


def _oracle_runs(space, flat_pages):
    flat = np.asarray(flat_pages, dtype=np.int64)
    n = len(flat)
    if n == 0:
        return
    if n > 1 and (np.diff(flat) < 0).any():
        flat = np.sort(flat, kind="stable")
    cum = space.flatten()
    if flat[0] < 0 or flat[-1] >= cum[-1]:
        raise IndexError("page index out of range for address space")
    bounds = np.searchsorted(flat, cum)
    for vma_idx in range(len(space.vmas)):
        lo, hi = int(bounds[vma_idx]), int(bounds[vma_idx + 1])
        if lo == hi:
            continue
        yield space.vmas[vma_idx], flat[lo:hi] - cum[vma_idx]


def _oracle_reads(vma, idx, out, per_vma):
    states = vma.state[idx]
    counts = np.bincount(states, minlength=4)
    out.minor_faults += int(counts[PTE_NONE])
    n_fetch = int(counts[PTE_REMOTE_INVALID])
    if n_fetch:
        out.major_faults += n_fetch
        out.pages_fetched += n_fetch
        out.fetch_pools[vma.pool.name if vma.pool else "unknown"] += n_fetch
        vma.state[idx[states == PTE_REMOTE_INVALID]] = PTE_LOCAL
        out.local_pages_allocated += n_fetch
        per_vma.append(n_fetch)
    if vma.pool is not None and vma.pool.byte_addressable:
        return int(counts[PTE_REMOTE_RO])
    return 0


def _oracle_writes(space, vma, idx, out, per_vma):
    if not vma.writable:
        raise PermissionError(
            f"write to read-only VMA {vma.name!r} in {space.name}")
    states = vma.state[idx]
    counts = np.bincount(states, minlength=4)
    n_zero = int(counts[PTE_NONE])
    n_cow = int(counts[PTE_REMOTE_RO])
    n_fetch = int(counts[PTE_REMOTE_INVALID])
    out.minor_faults += n_zero
    out.cow_faults += n_cow + n_fetch
    if n_fetch:
        out.major_faults += n_fetch
        out.pages_fetched += n_fetch
        out.fetch_pools[vma.pool.name if vma.pool else "unknown"] += n_fetch
    n_alloc = n_zero + n_cow + n_fetch
    if n_alloc:
        vma.state[idx[states != PTE_LOCAL]] = PTE_LOCAL
        out.local_pages_allocated += n_alloc
        per_vma.append(n_alloc)
    if n_cow and hooks.on_pte_cow is not None:
        hooks.on_pte_cow(vma, n_cow)


def oracle_access(space, read_pages, write_pages, read_loads=0,
                  per_vma=None):
    """The per-VMA loop.  It charges once per access; ``per_vma``, if
    given, receives the per-faulting-VMA charges it used to make."""
    out = AccessOutcome()
    per_vma = [] if per_vma is None else per_vma
    for vma, idx in _oracle_runs(space, write_pages):
        _oracle_writes(space, vma, idx, out, per_vma)
    remote_ro = 0
    n_reads = len(read_pages)
    for vma, idx in _oracle_runs(space, read_pages):
        remote_ro += _oracle_reads(vma, idx, out, per_vma)
    if read_loads and n_reads:
        out.remote_loads += int(round(read_loads * remote_ro / n_reads))
    if out.local_pages_allocated:
        space._charge(out.local_pages_allocated)
    return out


# -- jitter ------------------------------------------------------------------------


def sorted_unique(values):
    return np.array(sorted(values), dtype=np.int64)


@st.composite
def jitter_cases(draw):
    total = draw(st.integers(1, 400))
    pages = st.integers(0, total - 1)
    reads = sorted_unique(draw(st.sets(pages, max_size=total)))
    if draw(st.booleans()):
        # Writes drawn from the reads, as generated traces have them.
        writes = sorted_unique(draw(st.sets(st.sampled_from(reads.tolist()))
                                    if len(reads) else st.just(set())))
    else:
        writes = sorted_unique(draw(st.sets(pages, max_size=total)))
    # Past the largest page: no top-up candidates at all.
    writable_start = draw(st.integers(0, total + 2))
    fraction = draw(st.one_of(st.just(0.0), st.just(1.0),
                              st.floats(0.0, 1.0)))
    return total, reads, writes, writable_start, fraction


def same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b)


_TEN = np.arange(10, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(jitter_cases(), st.integers(0, 2**32 - 1), st.integers(0, 10**6))
# Pinned edges: n_swap == 0; empty writes; no top-up candidates at or
# above writable_start; fresh pages overlapping kept ones (every page of
# the image is read, so each fresh page collides).
@example((10, _TEN, _TEN[:3], 4, 0.01), 3, 5)
@example((10, _TEN, _TEN[:0], 0, 0.5), 3, 5)
@example((10, _TEN, _TEN[:6], 11, 0.5), 3, 5)
@example((10, _TEN, _TEN[::2], 0, 0.9), 3, 5)
def test_jitter_matches_set_operation_oracle(case, seed, loads):
    total, reads, writes, writable_start, fraction = case
    trace = AccessTrace(reads, writes, loads, writable_start=writable_start)
    rng_new, rng_old = SeededRNG(seed, "j"), SeededRNG(seed, "j")
    new = trace.jittered(rng_new, total, fraction)
    old = oracle_jittered(trace, rng_old, total, fraction)
    assert same_array(new.read_pages, old.read_pages)
    assert same_array(new.write_pages, old.write_pages)
    assert new.read_loads == old.read_loads
    # The oracle's n_swap == 0 branch dropped writable_start; the fast
    # path keeps it on every branch.
    assert new.writable_start == writable_start
    # Both consumed exactly the same random draws.
    assert rng_new.random() == rng_old.random()
    # The input trace is never modified.
    assert same_array(trace.read_pages, reads)
    assert same_array(trace.write_pages, writes)


# -- access ------------------------------------------------------------------------

#: VMA kinds: unbound demand-zero, CXL (valid RO PTEs), RDMA (invalid
#: PTEs), valid/invalid mixes on either pool, and RDMA grown by
#: demand-zero pages.
KINDS = ("anon", "cxl", "rdma", "cxl-mixed", "rdma-mixed", "grown")


@st.composite
def vma_specs(draw):
    big = draw(st.integers(0, 9)) == 0
    npages = draw(st.integers(CHUNK_PAGES + 1, 2 * CHUNK_PAGES + 50)
                  if big else st.integers(1, 120))
    kind = draw(st.sampled_from(KINDS))
    writable = draw(st.integers(0, 5)) != 0
    mask_seed = draw(st.integers(0, 2**16))
    return npages, kind, writable, mask_seed


def build_space(specs, clone, cap_pages):
    """A deterministic address space from ``specs``; with ``clone`` it
    attaches a bound template's table copy-on-write (the mm-template
    attach)."""
    cxl = DedupStore(CXLPool(256 * MB))
    rdma = DedupStore(RDMAPool(256 * MB))
    template = AddressSpace("template")
    for i, (npages, kind, writable, mask_seed) in enumerate(specs):
        prot = PROT_READ | (PROT_WRITE if writable else 0)
        vma = template.add_vma(f"v{i}", npages, prot=prot)
        content = np.arange(npages) + (i << 20)
        if kind == "anon":
            continue
        store = cxl if kind.startswith("cxl") else rdma
        valid = kind == "cxl"
        if kind.endswith("-mixed"):
            valid = np.random.default_rng(mask_seed).random(npages) < 0.5
        template.bind_remote(vma, store.store_image(content), valid)
    acc = MemoryAccountant(soft_cap_bytes=cap_pages * 4096)
    deltas = []

    def on_delta(pages):
        deltas.append(pages)
        acc.charge_pages("anon", pages)

    if clone:
        space = AddressSpace("space", on_local_delta=on_delta)
        space.attach(template)
    else:
        space = template
        space.on_local_delta = on_delta
    for (npages, kind, _, _), vma in zip(specs, space.vmas):
        if kind == "grown":
            space.grow_vma(vma.name, max(1, npages // 3))
    return space, acc, deltas


class HookRecorder:
    """Records every hook call with a snapshot of the owner.  It
    subscribes next to the sanitizer or observer of a wrapped run,
    which still get every call."""

    def __init__(self, space, acc):
        self.space = space
        self.acc = acc
        self.calls = []

    def _label(self, owner):
        if owner is self.space:
            return ("space", owner.local_pages)
        if owner is self.acc:
            return ("acc", owner.current_bytes, owner.cap_violations)
        for i, vma in enumerate(self.space.vmas):
            if owner is vma:
                return ("vma", i, count_equal(vma.state, PTE_REMOTE_RO),
                        count_equal(vma.state, PTE_LOCAL))
        return (type(owner).__name__,)

    def __getattr__(self, name):
        if not name.startswith("on_"):
            raise AttributeError(name)

        def hook(*args):
            self.calls.append((name,) + tuple(
                self._label(a) if not isinstance(a, (int, str)) else a
                for a in args))
        return hook


def recorded(space, acc, fn):
    recorder = HookRecorder(space, acc)
    previous = hooks.install(recorder)
    try:
        result = fn()
    finally:
        hooks.uninstall(recorder, previous)
    return result, recorder.calls


def states_of(space):
    return [np.asarray(v.state).copy() for v in space.vmas]


def page_lists(total):
    # Distinct but in arbitrary (drawn) order: the handler must sort.
    return st.lists(st.integers(0, total - 1), unique=True,
                    max_size=min(total, 300)).map(
        lambda xs: np.array(xs, dtype=np.int64))


@settings(max_examples=120, deadline=None)
@given(st.data(), st.lists(vma_specs(), min_size=1, max_size=5),
       st.booleans(), st.integers(0, 400))
def test_access_matches_per_vma_oracle(data, specs, clone, cap_pages):
    old_space, old_acc, old_deltas = build_space(specs, clone, cap_pages)
    new_space, new_acc, new_deltas = build_space(specs, clone, cap_pages)
    total = new_space.total_pages
    read_only = [not v.writable for v in new_space.vmas]
    cum = new_space.flatten()
    for _ in range(data.draw(st.integers(1, 3))):
        reads = data.draw(page_lists(total))
        writes = data.draw(page_lists(total))
        loads = data.draw(st.integers(0, 5000))
        vma_of = np.searchsorted(cum, writes, side="right") - 1
        to_ro = np.array([read_only[i] for i in vma_of], dtype=bool)
        if to_ro.any():
            # Rejected before any state changes (the oracle faulted in
            # the writes of earlier VMAs first).
            before = states_of(new_space)
            n_deltas, local = len(new_deltas), new_space.local_pages
            with pytest.raises(PermissionError):
                new_space.access(reads, writes, loads)
            assert all(np.array_equal(a, b)
                       for a, b in zip(before, states_of(new_space)))
            assert (len(new_deltas), new_space.local_pages) == (n_deltas,
                                                                local)
            writes = writes[~to_ro]
        old, old_calls = recorded(old_space, old_acc, lambda: oracle_access(
            old_space, reads, writes, loads))
        new, new_calls = recorded(new_space, new_acc, lambda: new_space.access(
            reads, writes, loads))
        assert new == old
        assert all(type(getattr(new, f)) is int for f in (
            "minor_faults", "major_faults", "cow_faults", "pages_fetched",
            "local_pages_allocated", "remote_loads"))
        assert list(new.fetch_pools.items()) == list(old.fetch_pools.items())
        assert all(np.array_equal(a, b) for a, b in
                   zip(states_of(old_space), states_of(new_space)))
        assert new_deltas == old_deltas
        assert new_space.local_pages == old_space.local_pages
        assert new_acc.cap_violations == old_acc.cap_violations
        assert new_acc.timeline == old_acc.timeline
        assert new_calls == old_calls


def lists_with_repeats(total):
    # Any order, and a page may be named more than once.
    return st.lists(st.integers(0, total - 1),
                    max_size=min(2 * total, 300)).map(
        lambda xs: np.array(xs, dtype=np.int64))


@settings(max_examples=120, deadline=None)
@given(st.data(), st.lists(vma_specs(), min_size=1, max_size=5),
       st.booleans())
def test_repeated_pages_rejected_and_unique_pages_match_oracle(data, specs,
                                                               clone):
    """A list naming a page twice raises before any state changes; the
    same lists with each page once then match the per-VMA oracle, and
    the charged count stays the count of ``PTE_LOCAL`` entries."""
    old_space, _, old_deltas = build_space(specs, clone, 0)
    new_space, _, new_deltas = build_space(specs, clone, 0)
    writable = np.repeat(new_space.layout.writable,
                         np.diff(new_space.flatten()))
    total = new_space.total_pages
    for _ in range(data.draw(st.integers(1, 3))):
        reads = data.draw(lists_with_repeats(total))
        writes = data.draw(lists_with_repeats(total))
        writes = writes[writable[writes]]
        unique_reads, unique_writes = np.unique(reads), np.unique(writes)
        if len(unique_reads) < len(reads) or len(unique_writes) < len(writes):
            before = states_of(new_space)
            n_deltas = len(new_deltas)
            with pytest.raises(ValueError, match="repeats"):
                new_space.access(reads, writes)
            assert all(np.array_equal(a, b)
                       for a, b in zip(before, states_of(new_space)))
            assert len(new_deltas) == n_deltas
        old = oracle_access(old_space, unique_reads, unique_writes)
        new = new_space.access(unique_reads, unique_writes)
        assert new == old
        assert all(np.array_equal(a, b) for a, b in
                   zip(states_of(old_space), states_of(new_space)))
        assert new_deltas == old_deltas
        assert new_space.local_pages == sum(
            count_equal(v.state, PTE_LOCAL) for v in new_space.vmas)


#: Clock advances between steps: the same instant, within and at the
#: accountant's 1 s timeline resolution, and arbitrary.
ADVANCES = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 1.0]),
                     st.floats(0.0, 3.0))


@settings(max_examples=120, deadline=None)
@given(st.data(), st.lists(vma_specs(), min_size=1, max_size=5),
       st.booleans(), st.integers(0, 400))
def test_one_charge_per_access_matches_per_vma_charges(data, specs, clone,
                                                       cap_pages):
    """An accountant fed each access's per-VMA charges and one fed its
    single charge end alike, save ``cap_violations``: it counts
    over-cap charges, so the single charge counts one per access whose
    per-VMA charges counted any."""
    now = [0.0]
    old_acc, new_acc = (MemoryAccountant(clock=lambda: now[0],
                                         soft_cap_bytes=cap_pages * 4096)
                        for _ in range(2))
    old_space, _, _ = build_space(specs, clone, cap_pages)
    new_space, _, _ = build_space(specs, clone, cap_pages)
    old_space.on_local_delta = None
    new_space.on_local_delta = new_acc.page_delta_hook("anon")
    writable = np.repeat(new_space.layout.writable,
                         np.diff(new_space.flatten()))
    total = new_space.total_pages
    violations = 0
    for _ in range(data.draw(st.integers(1, 6))):
        now[0] += data.draw(ADVANCES)
        before = old_acc.cap_violations
        if data.draw(st.booleans()):
            reads = data.draw(page_lists(total))
            writes = data.draw(page_lists(total))
            writes = writes[writable[writes]]
            per_vma = []
            oracle_access(old_space, reads, writes, per_vma=per_vma)
            for pages in per_vma:
                old_acc.charge_pages("anon", pages)
            new_space.access(reads, writes)
            violations += min(1, old_acc.cap_violations - before)
        else:
            # Another category's charge or release: one charge on both.
            cached = old_acc.usage.get("cache", 0) // 4096
            delta = data.draw(st.integers(-cached, 200))
            old_acc.charge_pages("cache", delta)
            new_acc.charge_pages("cache", delta)
            violations += old_acc.cap_violations - before
        assert new_acc.current_bytes == old_acc.current_bytes
        assert new_acc.usage == old_acc.usage
        assert new_acc.peak_bytes == old_acc.peak_bytes
        assert new_acc.peak_time == old_acc.peak_time
        assert new_acc.timeline == old_acc.timeline
        assert new_acc.cap_violations == violations


def test_per_vma_charges_count_a_violation_per_vma():
    """The one count that differs: an over-cap access that faults two
    VMAs counts two violations charged per VMA, one charged once."""
    specs = [(10, "anon", True, 0), (10, "cxl", True, 1)]
    space, acc, deltas = build_space(specs, clone=True, cap_pages=0)
    per_vma = []
    oracle_access(space, np.arange(0), np.array([1, 2, 12]),
                  per_vma=per_vma)
    assert per_vma == [2, 1] and deltas == [3]
    old_acc = MemoryAccountant(soft_cap_bytes=0)
    for pages in per_vma:
        old_acc.charge_pages("anon", pages)
    assert (old_acc.cap_violations, acc.cap_violations) == (2, 1)
    assert old_acc.timeline == acc.timeline


def test_access_oracle_sees_all_four_states():
    """The generated spaces reach every PTE state and both pool kinds."""
    specs = [(50, "anon", True, 0), (50, "cxl-mixed", True, 1),
             (CHUNK_PAGES + 10, "grown", True, 2), (30, "cxl", False, 3)]
    space, _, _ = build_space(specs, clone=True, cap_pages=10)
    space.access(np.arange(0, 40), np.arange(10, 30))
    counts = Counter()
    for vma in space.vmas:
        for state in (PTE_NONE, PTE_LOCAL, PTE_REMOTE_RO, PTE_REMOTE_INVALID):
            counts[state] += count_equal(vma.state, state)
    assert all(counts[s] > 0 for s in (PTE_NONE, PTE_LOCAL, PTE_REMOTE_RO,
                                       PTE_REMOTE_INVALID))
