import numpy as np
import pytest

from repro.mem.address_space import (MAP_PRIVATE, PROT_READ, PROT_WRITE,
                                     PTE_LOCAL, PTE_NONE, PTE_REMOTE_INVALID,
                                     PTE_REMOTE_RO, AddressSpace)
from repro.mem.layout import MB, PAGE_SIZE
from repro.mem.pools import CXLPool, DedupStore, RDMAPool


def make_space(npages=100, name="test"):
    space = AddressSpace(name)
    space.add_vma("heap", npages)
    return space


def cxl_bound_space(npages=100):
    space = make_space(npages)
    store = DedupStore(CXLPool(64 * MB))
    block = store.store_image(np.arange(npages))
    space.bind_remote(space.find_vma("heap"), block, valid=True)
    return space


def rdma_bound_space(npages=100):
    space = make_space(npages)
    store = DedupStore(RDMAPool(64 * MB))
    block = store.store_image(np.arange(npages))
    space.bind_remote(space.find_vma("heap"), block, valid=False)
    return space


def arr(*values):
    return np.array(values, dtype=np.int64)


class TestLayout:
    def test_add_vma_assigns_disjoint_ranges(self):
        space = AddressSpace()
        a = space.add_vma("text", 10)
        b = space.add_vma("data", 10)
        assert b.start > a.end

    def test_add_vma_rejects_empty(self):
        with pytest.raises(ValueError):
            AddressSpace().add_vma("x", 0)

    def test_find_vma_missing(self):
        with pytest.raises(KeyError):
            make_space().find_vma("nope")

    def test_total_pages(self):
        space = AddressSpace()
        space.add_vma("a", 10)
        space.add_vma("b", 5)
        assert space.total_pages == 15

    def test_grow_extends_with_demand_zero(self):
        space = make_space(10)
        space.grow_vma("heap", 5)
        vma = space.find_vma("heap")
        assert vma.npages == 15
        assert (vma.state[10:] == PTE_NONE).all()


class TestDemandZero:
    def test_read_of_untouched_costs_minor_fault_no_memory(self):
        space = make_space()
        out = space.access(arr(0, 1, 2), arr())
        assert out.minor_faults == 3
        assert space.local_pages == 0

    def test_write_allocates_local(self):
        space = make_space()
        out = space.access(arr(), arr(0, 1))
        assert out.minor_faults == 2
        assert out.local_pages_allocated == 2
        assert space.local_pages == 2

    def test_second_write_is_free(self):
        space = make_space()
        space.access(arr(), arr(0))
        out = space.access(arr(), arr(0))
        assert out.minor_faults == 0
        assert space.local_pages == 1


class TestCXLPath:
    def test_bind_remote_sets_valid_ro_ptes(self):
        space = cxl_bound_space()
        vma = space.find_vma("heap")
        assert (vma.state == PTE_REMOTE_RO).all()
        assert space.local_pages == 0

    def test_reads_cost_nothing(self):
        space = cxl_bound_space()
        out = space.access(np.arange(50), arr())
        assert out.minor_faults == 0
        assert out.major_faults == 0
        assert space.local_pages == 0

    def test_reads_count_remote_loads(self):
        space = cxl_bound_space()
        out = space.access(np.arange(50), arr(), read_loads=1000)
        assert out.remote_loads == 1000

    def test_write_triggers_cow(self):
        space = cxl_bound_space()
        out = space.access(arr(), arr(3, 4))
        assert out.cow_faults == 2
        assert out.local_pages_allocated == 2
        assert space.local_pages == 2
        vma = space.find_vma("heap")
        assert vma.state[3] == PTE_LOCAL
        assert vma.state[5] == PTE_REMOTE_RO

    def test_cow_only_once_per_page(self):
        space = cxl_bound_space()
        space.access(arr(), arr(3))
        out = space.access(arr(), arr(3))
        assert out.cow_faults == 0
        assert space.local_pages == 1

    def test_remote_loads_scale_with_residency(self):
        space = cxl_bound_space(100)
        # CoW half the pages; loads should be apportioned to the
        # still-remote half.
        space.access(arr(), np.arange(50))
        out = space.access(np.arange(100), arr(), read_loads=1000)
        assert out.remote_loads == pytest.approx(500, abs=10)


class TestRDMAPath:
    def test_bind_lazy_sets_invalid_ptes(self):
        space = rdma_bound_space()
        vma = space.find_vma("heap")
        assert (vma.state == PTE_REMOTE_INVALID).all()

    def test_read_fetches_and_allocates_local(self):
        space = rdma_bound_space()
        out = space.access(np.arange(30), arr())
        assert out.major_faults == 30
        assert out.pages_fetched == 30
        assert out.fetch_pools == {"rdma": 30}
        assert space.local_pages == 30

    def test_second_read_is_free(self):
        space = rdma_bound_space()
        space.access(np.arange(30), arr())
        out = space.access(np.arange(30), arr())
        assert out.major_faults == 0

    def test_write_fetches_then_cows(self):
        space = rdma_bound_space()
        out = space.access(arr(), arr(1, 2))
        assert out.major_faults == 2
        assert out.cow_faults == 2
        assert space.local_pages == 2

    def test_no_remote_loads_for_rdma(self):
        space = rdma_bound_space()
        out = space.access(np.arange(10), arr(), read_loads=500)
        assert out.remote_loads == 0


class TestProtection:
    def test_write_to_readonly_vma_raises(self):
        space = AddressSpace()
        space.add_vma("text", 10, prot=PROT_READ)
        with pytest.raises(PermissionError):
            space.access(arr(), arr(0))

    def test_rejected_write_leaves_state_untouched(self):
        # Writes to a CoW-able VMA come first in address order; the
        # read-only VMA after it must reject the access before any of
        # them are faulted in.
        deltas = []
        space = AddressSpace(on_local_delta=deltas.append)
        heap = space.add_vma("heap", 10)
        store = DedupStore(CXLPool(MB))
        space.bind_remote(heap, store.store_image(np.arange(10)), valid=True)
        space.add_vma("text", 10, prot=PROT_READ)
        with pytest.raises(PermissionError):
            space.access(arr(0, 1), arr(2, 3, 12))
        assert (np.asarray(heap.state) == PTE_REMOTE_RO).all()
        assert space.local_pages == 0
        assert deltas == []

    def test_bind_remote_size_mismatch(self):
        space = make_space(10)
        store = DedupStore(CXLPool(MB))
        block = store.store_image(np.arange(5))
        with pytest.raises(ValueError):
            space.bind_remote(space.find_vma("heap"), block, valid=True)


class TestFlatIndexing:
    def test_split_across_vmas(self):
        space = AddressSpace()
        space.add_vma("a", 10)
        space.add_vma("b", 10)
        out = space.access(arr(), arr(5, 15))
        assert space.local_pages == 2
        assert space.vmas[0].state[5] == PTE_LOCAL
        assert space.vmas[1].state[5] == PTE_LOCAL

    def test_out_of_range_raises(self):
        space = make_space(10)
        with pytest.raises(IndexError):
            space.access(arr(10), arr())
        with pytest.raises(IndexError):
            space.access(arr(), arr(-1))

    def test_repeated_index_rejected_before_any_change(self):
        # Once allocated two pages and charged two for one PTE_LOCAL.
        deltas = []
        space = AddressSpace("rep", on_local_delta=deltas.append)
        space.add_vma("heap", 4)
        with pytest.raises(ValueError, match="repeats"):
            space.access(arr(), arr(0, 0))
        # Unsorted, and in the read list after a valid write list.
        with pytest.raises(ValueError, match="repeats"):
            space.access(arr(3, 1, 3), arr(2))
        assert (space.vmas[0].state == PTE_NONE).all()
        assert space.local_pages == 0 and deltas == []
        # The same page in the write and the read list is one page each.
        out = space.access(arr(0), arr(0))
        assert out.local_pages_allocated == 1 and deltas == [1]

    def test_flatten_invalidated_by_growth(self):
        space = make_space(10)
        space.access(arr(9), arr())
        space.grow_vma("heap", 10)
        out = space.access(arr(), arr(15))
        assert space.local_pages == 1


class TestAccounting:
    def test_local_delta_callback(self):
        deltas = []
        space = AddressSpace(on_local_delta=deltas.append)
        space.add_vma("heap", 10)
        space.access(arr(), arr(0, 1, 2))
        space.destroy()
        assert sum(deltas) == 0
        assert deltas[0] == 3
        assert deltas[-1] == -3

    def test_destroy_idempotent(self):
        space = make_space()
        space.access(arr(), arr(0))
        assert space.destroy() == 1
        assert space.destroy() == 0

    def test_populate_local_charges_all_pages(self):
        space = make_space(20)
        space.populate_local(space.find_vma("heap"))
        assert space.local_pages == 20

    def test_bind_remote_releases_local(self):
        space = make_space(10)
        space.populate_local(space.find_vma("heap"))
        store = DedupStore(CXLPool(MB))
        block = store.store_image(np.arange(10))
        space.bind_remote(space.find_vma("heap"), block, valid=True)
        assert space.local_pages == 0

    def test_bind_remote_whole_layout(self):
        space = make_space(6)
        space.add_vma("stack", 4)
        space.populate_local(space.find_vma("stack"))
        store = DedupStore(RDMAPool(MB))
        with pytest.raises(ValueError):
            space.bind_remote(None, store.store_image(np.arange(6)), False)
        mask = np.arange(10) % 2 == 0
        block = store.store_image(np.arange(10, 20))
        space.bind_remote(None, block, valid=mask)
        assert space.local_pages == 0
        assert np.array_equal(
            space.state, np.where(mask, PTE_REMOTE_RO, PTE_REMOTE_INVALID))
        assert np.array_equal(space.offsets, block.offsets)
        assert space.layout.pool_names == ["rdma", "rdma"]

    def test_page_state_counts(self):
        space = cxl_bound_space(10)
        space.access(arr(), arr(0, 1))
        counts = space.page_state_counts()
        assert counts[PTE_LOCAL] == 2
        assert counts[PTE_REMOTE_RO] == 8


class TestSnapshotHelpers:
    def test_content_image_concatenates(self):
        space = AddressSpace()
        a = space.add_vma("a", 2)
        b = space.add_vma("b", 3)
        space.populate_local(a, content_base=100)
        space.populate_local(b, content_base=200)
        image = space.content_image()
        assert list(image) == [100, 101, 200, 201, 202]

    def test_attach_shares_nothing_mutable(self):
        space = cxl_bound_space(10)
        vma = space.find_vma("heap")
        clone = AddressSpace("clone")
        clone.attach(space)
        clone.access(arr(), arr(0))
        clone.find_vma("heap").offsets[1] = -7
        assert clone.find_vma("heap").state[0] == PTE_LOCAL
        assert vma.state[0] == PTE_REMOTE_RO
        assert vma.offsets[1] != -7
        assert clone.find_vma("heap").pool is vma.pool
