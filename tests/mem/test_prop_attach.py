"""Property tests: the flat-table attach against the per-VMA clone.

``AddressSpace.attach`` shares a source's whole PTE table copy-on-write
and its layout vectors.  The per-VMA clone it replaced (copy each VMA's
state, offsets and content VMA by VMA, then charge the local pages in
one call and report each VMA bound) is kept below as the oracle; the two
must agree on every VMA's metadata and PTE arrays, on ``local_pages``,
and on the accountant and hook call sequences.  A second group pins CoW
isolation: spaces attached to one template never see each other's
writes, and the sealed template table rejects writes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mm_template import MMTemplateError, MMTemplateRegistry
from repro.mem.address_space import (PROT_READ, PROT_WRITE, PTE_LOCAL,
                                     PTE_REMOTE_RO, AddressSpace)
from repro.mem.cow import CHUNK_PAGES, count_equal
from repro.mem.layout import MB
from repro.mem.pools import CXLPool, DedupStore, RDMAPool
from repro.obs import hooks
from repro.sim.engine import Simulator


def oracle_attach(source, space):
    """The per-VMA clone this attach replaced."""
    for src in source.vmas:
        vma = space.add_vma(src.name, src.npages, src.prot, src.flags,
                            start=src.start)
        vma.state[:] = np.asarray(src.state)
        vma.offsets[:] = np.asarray(src.offsets)
        vma.content[:] = np.asarray(src.content)
        vma.pool = src.pool
    space._charge(count_equal(space.state, PTE_LOCAL))
    if hooks.on_pte_bound is not None:
        for vma in space.vmas:
            hooks.on_pte_bound(vma)


#: VMA kinds: unbound demand-zero, CXL, RDMA, valid/invalid mixes on
#: either pool, RDMA grown by demand-zero pages, and VMAs holding local
#: pages (fully populated, or partly written).
KINDS = ("anon", "cxl", "rdma", "cxl-mixed", "rdma-mixed", "grown",
         "local", "written")


@st.composite
def vma_specs(draw):
    big = draw(st.integers(0, 9)) == 0
    npages = draw(st.integers(CHUNK_PAGES + 1, 2 * CHUNK_PAGES + 50)
                  if big else st.integers(1, 120))
    kind = draw(st.sampled_from(KINDS))
    writable = draw(st.integers(0, 5)) != 0 or kind == "written"
    return npages, kind, writable, draw(st.integers(0, 2**16))


def build_source(specs):
    """A deterministic, bound source table from ``specs``."""
    cxl = DedupStore(CXLPool(256 * MB))
    rdma = DedupStore(RDMAPool(256 * MB))
    source = AddressSpace("template")
    for i, (npages, kind, writable, seed) in enumerate(specs):
        prot = PROT_READ | (PROT_WRITE if writable else 0)
        vma = source.add_vma(f"v{i}", npages, prot=prot)
        content = np.arange(npages) + (i << 20)
        if kind == "local":
            source.populate_local(vma, content_base=i << 20)
        elif kind == "written":
            first = source.flatten()[i]
            pages = np.unique(np.random.default_rng(seed).integers(
                0, npages, size=1 + npages // 4)) + first
            source.access(np.array([], dtype=np.int64), pages)
        elif kind != "anon":
            store = cxl if kind.startswith("cxl") else rdma
            valid = kind == "cxl"
            if kind.endswith("-mixed"):
                valid = np.random.default_rng(seed).random(npages) < 0.5
            block = store.store_image(content)
            vma.content[:] = content
            source.bind_remote(vma, block, valid)
    for (npages, kind, _, _), vma in zip(specs, list(source.vmas)):
        if kind == "grown":
            source.grow_vma(vma.name, max(1, npages // 3))
    return source


class Recorder:
    """Records every sanitizer hook call with a snapshot of its owner."""

    def __init__(self, space):
        self.space = space
        self.calls = []

    def _label(self, owner):
        if owner is self.space:
            return ("space", owner.local_pages)
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
                a if isinstance(a, (int, str)) else self._label(a)
                for a in args))
        return hook


def attach_recorded(source, attach_fn, with_hooks):
    deltas = []
    space = AddressSpace("space", on_local_delta=deltas.append)
    recorder = Recorder(space)
    previous = hooks.install(recorder) if with_hooks else None
    try:
        attach_fn(source, space)
    finally:
        if with_hooks:
            hooks.uninstall(recorder, previous)
    return space, deltas, recorder.calls


def metadata(vma):
    return (vma.name, vma.start, vma.npages, vma.prot, vma.flags,
            vma.writable, vma.end)


@settings(max_examples=80, deadline=None)
@given(st.lists(vma_specs(), min_size=1, max_size=6), st.booleans())
def test_attach_matches_per_vma_clone(specs, with_hooks):
    source = build_source(specs)
    old, old_deltas, old_calls = attach_recorded(
        source, oracle_attach, with_hooks)
    new, new_deltas, new_calls = attach_recorded(
        source, lambda src, space: space.attach(src), with_hooks)
    assert len(new.vmas) == len(old.vmas) == len(source.vmas)
    for a, b in zip(old.vmas, new.vmas):
        assert metadata(a) == metadata(b)
        assert b.pool is a.pool
        for field in ("state", "offsets", "content"):
            x = np.asarray(getattr(a, field))
            y = np.asarray(getattr(b, field))
            assert x.dtype == y.dtype and np.array_equal(x, y)
    assert np.array_equal(new.flatten(), old.flatten())
    assert new.total_pages == old.total_pages
    assert new.local_pages == old.local_pages
    assert new_deltas == old_deltas
    assert new_calls == old_calls
    assert new.layout.direct_pool is old.layout.direct_pool
    assert np.array_equal(new.layout.writable, old.layout.writable)
    assert new.layout.pool_names == old.layout.pool_names
    # Both answer the next access alike.
    total = new.total_pages
    reads = np.arange(0, total, 3, dtype=np.int64)
    writes = np.flatnonzero(np.repeat(new.layout.writable,
                                      np.diff(new.flatten())))[::5]
    assert new.access(reads, writes, 100) == old.access(reads, writes, 100)
    assert np.array_equal(np.asarray(new.state), np.asarray(old.state))


def test_attach_generated_sources_reach_local_pages_and_both_pools():
    specs = [(40, "local", True, 0), (60, "written", True, 1),
             (50, "cxl-mixed", True, 2), (CHUNK_PAGES + 10, "grown", True, 3),
             (20, "anon", False, 4)]
    source = build_source(specs)
    space = AddressSpace("space")
    space.attach(source)
    assert space.local_pages == source.local_pages > 40
    pools = {type(v.pool).__name__ for v in space.vmas}
    assert {"CXLPool", "RDMAPool"} <= pools


def test_attach_rejects_a_non_empty_space():
    source = build_source([(10, "cxl", True, 0)])
    space = AddressSpace("space")
    space.add_vma("heap", 4)
    with pytest.raises(ValueError):
        space.attach(source)


# -- copy-on-write isolation ------------------------------------------------------


def sealed_template(pool_cls):
    registry = MMTemplateRegistry(Simulator())
    store = DedupStore(pool_cls(256 * MB))
    template = registry.mmt_create("iso")
    sizes = (30, 3 * CHUNK_PAGES + 7, 50)
    for i, npages in enumerate(sizes):
        name = f"v{i}"
        registry.mmt_add_map(template, name, npages, PROT_READ | PROT_WRITE)
        content = np.arange(npages) + (i << 20)
        registry.mmt_setup_pt(template, name, store.store_image(content))
        template.find_vma(name).content[:] = content
    spaces = [AddressSpace("a"), AddressSpace("b")]
    for space in spaces:
        registry.sim.run_process(registry.mmt_attach(template, space))
    return registry, template, spaces


def table(t):
    return [np.asarray(t.state).copy(), np.asarray(t.offsets).copy(),
            np.asarray(t.content).copy()]


@pytest.mark.parametrize("pool_cls", [CXLPool, RDMAPool])
def test_writes_in_one_space_never_show_elsewhere(pool_cls):
    _, template, (a, b) = sealed_template(pool_cls)
    pristine = table(template)
    assert all(np.array_equal(x, y) for x, y in zip(table(b), pristine))
    total = a.total_pages
    a.access(np.arange(0, total, 7, dtype=np.int64),
             np.arange(1, total, 2, dtype=np.int64))
    a.find_vma("v2").content[0:3] = -5
    a.find_vma("v1").offsets[[0, CHUNK_PAGES]] = 99
    a.grow_vma("v0", 10)
    assert a.local_pages > 0
    assert count_equal(a.state, PTE_LOCAL) == a.local_pages
    # Neither the template nor the sibling space saw any of it.
    assert all(np.array_equal(x, y) for x, y in zip(table(template),
                                                    pristine))
    assert all(np.array_equal(x, y) for x, y in zip(table(b), pristine))
    assert b.local_pages == 0 and b.total_pages == template.total_pages
    # And b's own writes stay out of a.
    before = table(a)
    b.access(np.array([], dtype=np.int64), np.arange(5, dtype=np.int64))
    assert all(np.array_equal(x, y) for x, y in zip(table(a), before))


def test_sealed_template_table_rejects_writes():
    registry, template, (a, _) = sealed_template(CXLPool)
    with pytest.raises(ValueError):
        template.state[0] = PTE_LOCAL
    with pytest.raises(ValueError):
        template.find_vma("v1").content[3] = 7
    with pytest.raises(MMTemplateError):
        registry.mmt_setup_pt(template, "v0", None)
    with pytest.raises(MMTemplateError):
        registry.mmt_add_map(template, "late", 4, PROT_READ)
    assert np.asarray(a.state)[0] == PTE_REMOTE_RO
