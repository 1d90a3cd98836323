import numpy as np
import pytest

from repro.core.mm_template import (MMTemplateError, MMTemplateRegistry,
                                    build_template_for_function)
from repro.criu.images import SnapshotImage
from repro.mem.address_space import (AddressSpace, PROT_READ, PROT_WRITE,
                                     PTE_LOCAL, PTE_REMOTE_INVALID,
                                     PTE_REMOTE_RO)
from repro.mem.layout import GB, MB
from repro.mem.pools import CXLPool, DedupStore, RDMAPool
from repro.sim.engine import Simulator
from repro.workloads.functions import function_by_name


def setup(pool_cls=CXLPool):
    sim = Simulator()
    registry = MMTemplateRegistry(sim)
    store = DedupStore(pool_cls(8 * GB))
    return sim, registry, store


def build(sim, registry, store, func="JS"):
    image = SnapshotImage.from_profile(function_by_name(func))
    return image, build_template_for_function(registry, image, store)


class TestRegistry:
    def test_create_and_get(self):
        sim, registry, _store = setup()
        t = registry.mmt_create("X")
        assert registry.mmt_get(t.template_id) is t
        assert len(registry) == 1

    def test_get_unknown_raises(self):
        sim, registry, _store = setup()
        with pytest.raises(MMTemplateError):
            registry.mmt_get(999)

    def test_delete(self):
        sim, registry, _store = setup()
        t = registry.mmt_create("X")
        registry.mmt_delete(t.template_id)
        assert len(registry) == 0
        with pytest.raises(MMTemplateError):
            registry.mmt_delete(t.template_id)

    def test_root_required(self):
        """§8.1: the pseudo-device is root-only."""
        sim, registry, _store = setup()
        with pytest.raises(MMTemplateError, match="root"):
            registry.mmt_create("X", as_root=False)
        t = registry.mmt_create("X")
        with pytest.raises(MMTemplateError, match="root"):
            registry.mmt_add_map(t, "heap", 4, PROT_READ | PROT_WRITE,
                                 as_root=False)

    def test_setup_pt_size_mismatch(self):
        sim, registry, store = setup()
        t = registry.mmt_create("X")
        registry.mmt_add_map(t, "heap", 10, PROT_READ | PROT_WRITE)
        block = store.store_image(np.arange(5))
        with pytest.raises(MMTemplateError):
            registry.mmt_setup_pt(t, "heap", block)

    def test_setup_pt_whole_layout_in_one_pass(self):
        sim, registry, store = setup(RDMAPool)
        t = registry.mmt_create("X")
        for name, npages in (("text", 3), ("heap", 5), ("stack", 2)):
            registry.mmt_add_map(t, name, npages, PROT_READ | PROT_WRITE)
        with pytest.raises(MMTemplateError, match="the layout has 10"):
            registry.mmt_setup_pt(t, None, store.store_image(np.arange(9)))
        block = store.store_image(np.arange(10))
        registry.mmt_setup_pt(t, None, block)
        assert (np.asarray(t.state) == PTE_REMOTE_INVALID).all()
        assert np.array_equal(t.offsets, block.offsets)
        assert [vma.pool for vma in t.vmas] == [store.pool] * 3
        assert t.layout.pool_names == ["rdma"] * 3


class TestBuild:
    def test_cxl_template_has_valid_ro_ptes(self):
        sim, registry, store = setup(CXLPool)
        _image, t = build(sim, registry, store)
        for vma in t.vmas:
            assert (vma.state == PTE_REMOTE_RO).all()
            assert vma.pool is store.pool

    def test_rdma_template_has_invalid_ptes(self):
        sim, registry, store = setup(RDMAPool)
        _image, t = build(sim, registry, store)
        for vma in t.vmas:
            assert (vma.state == PTE_REMOTE_INVALID).all()

    def test_template_covers_image(self):
        sim, registry, store = setup()
        image, t = build(sim, registry, store)
        assert t.total_pages == image.total_pages
        assert t.metadata_bytes < 2 * MB

    def test_dedup_across_same_language_functions(self):
        """Figure 12: duplicated regions map to the same pool block."""
        sim, registry, store = setup()
        build(sim, registry, store, "JS")
        stored_after_first = store.unique_pages_stored
        build(sim, registry, store, "DH")
        shared_pages = (38 * MB) // 4096
        dh_pages = function_by_name("DH").image_pages
        expected_new = dh_pages - shared_pages
        assert store.unique_pages_stored == pytest.approx(
            stored_after_first + expected_new, abs=2)


class TestOnePassRegistration:
    """Structural guard, no timing: registering a function stores its
    snapshot with one ``store_image`` call and one pool allocation,
    whatever its VMA count."""

    @pytest.mark.parametrize("name", ["t-cxl", "t-tiered", "reap",
                                      "faasnap"])
    def test_one_store_and_one_allocation_per_function(self, name,
                                                       monkeypatch):
        from repro.bench.harness import make_platform

        platform = make_platform(name, seed=3)
        store, pool = platform.store, platform.store.pool
        calls = {"store": 0, "alloc": 0}

        def counted(method, key):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return method(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(store, "store_image",
                            counted(store.store_image, "store"))
        for alloc in ("allocate_pages", "allocate_pages_masked"):
            if hasattr(pool, alloc):
                monkeypatch.setattr(pool, alloc,
                                    counted(getattr(pool, alloc), "alloc"))
        for fn in ("DH", "IR", "JS"):
            before = dict(calls)
            platform.register_function(function_by_name(fn))
            assert calls["store"] - before["store"] == 1, fn
            assert calls["alloc"] - before["alloc"] == 1, fn


class TestAttach:
    def test_attach_copies_metadata_only(self):
        sim, registry, store = setup()
        image, t = build(sim, registry, store)
        space = AddressSpace("restored")

        def proc():
            yield from registry.mmt_attach(t, space)
            return sim.now

        elapsed = sim.run_process(proc())
        # Metadata-only: sub-millisecond even for tens of MB (§9.4).
        assert elapsed < 0.002
        assert space.total_pages == image.total_pages
        assert space.local_pages == 0
        assert t.attach_count == 1

    def test_attach_multiple_times_shares_pool_pages(self):
        sim, registry, store = setup()
        image, t = build(sim, registry, store)
        pool_pages_before = store.pool.used_pages
        spaces = [AddressSpace(f"r{i}") for i in range(5)]

        def proc():
            for s in spaces:
                yield from registry.mmt_attach(t, s)

        sim.run_process(proc())
        assert store.pool.used_pages == pool_pages_before  # no new storage
        assert t.attach_count == 5

    def test_attached_instances_cow_independently(self):
        sim, registry, store = setup()
        _image, t = build(sim, registry, store)
        a, b = AddressSpace("a"), AddressSpace("b")

        def proc():
            yield from registry.mmt_attach(t, a)
            yield from registry.mmt_attach(t, b)

        sim.run_process(proc())
        # Write to the tail of the space (heap/stack region, writable).
        tail = np.arange(a.total_pages - 100, a.total_pages)
        a.access(np.array([], dtype=np.int64), tail)
        assert a.local_pages == 100
        assert b.local_pages == 0
        # Template itself is untouched.
        assert all((v.state != PTE_LOCAL).all() for v in t.vmas)

    def test_attach_cost_scales_with_pages_not_bytes(self):
        sim, registry, store = setup()
        _imgJS, tJS = build(sim, registry, store, "JS")   # 95 MB
        _imgIR, tIR = build(sim, registry, store, "IR")   # 855 MB

        def timed(template):
            space = AddressSpace("x")
            start = sim.now

            def proc():
                yield from registry.mmt_attach(template, space)
                return sim.now - start

            return sim.run_process(proc())

        t_small = timed(tJS)
        t_big = timed(tIR)
        # Both are sub-ms; big is more costly but nowhere near the ~450 ms
        # a full 855 MB copy would take.
        assert t_small < t_big < 0.002

    def test_same_virtual_layout_attached(self):
        """§8.1.2: all restored instances share the template's layout
        (ASLR is defeated — a documented limitation)."""
        sim, registry, store = setup()
        _image, t = build(sim, registry, store)
        a, b = AddressSpace("a"), AddressSpace("b")

        def proc():
            yield from registry.mmt_attach(t, a)
            yield from registry.mmt_attach(t, b)

        sim.run_process(proc())
        assert [v.start for v in a.vmas] == [v.start for v in b.vmas]
