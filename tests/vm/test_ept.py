"""Tests for two-dimensional paging with template pre-population."""

import numpy as np
import pytest

from repro.mem.address_space import PTE_NONE
from repro.mem.layout import MB
from repro.mem.pools import CXLPool, DedupStore, RDMAPool
from repro.vm.ept import ExtendedPageTable


def make_ept(npages=100, pool_cls=CXLPool):
    ept = ExtendedPageTable(npages)
    store = DedupStore(pool_cls(64 * MB))
    block = store.store_image(np.arange(npages))
    ept.bind_template(block)
    return ept


def arr(*xs):
    return np.array(xs, dtype=np.int64)


class TestBinding:
    def test_bind_requires_matching_size(self):
        ept = ExtendedPageTable(10)
        store = DedupStore(CXLPool(MB))
        with pytest.raises(ValueError):
            ept.bind_template(store.store_image(np.arange(5)))

    def test_prepopulate_requires_binding(self):
        ept = ExtendedPageTable(10)
        with pytest.raises(RuntimeError):
            ept.prepopulate(np.ones(10, dtype=bool))

    def test_prepopulate_mask_length_checked(self):
        ept = make_ept(10)
        with pytest.raises(ValueError):
            ept.prepopulate(np.ones(5, dtype=bool))


class TestLazyBaseline:
    def test_every_first_read_takes_a_vm_exit(self):
        ept = make_ept(100)
        out = ept.access(np.arange(50), arr())
        assert out.vm_exits == 50
        assert out.pages_fetched == 50
        assert ept.local_pages == 50

    def test_second_read_free(self):
        ept = make_ept(100)
        ept.access(np.arange(50), arr())
        out = ept.access(np.arange(50), arr())
        assert out.vm_exits == 0


class TestPrepopulation:
    def test_prepopulated_reads_take_no_exits(self):
        """§8.1.3: avoid triggering a VM exit due to a page fault on
        read access."""
        ept = make_ept(100)
        cost = ept.prepopulate(np.ones(100, dtype=bool))
        assert cost > 0
        out = ept.access(np.arange(100), arr())
        assert out.vm_exits == 0
        assert out.direct_loads == 100
        assert ept.local_pages == 0   # still shared, zero local memory

    def test_partial_hot_mask(self):
        ept = make_ept(100)
        hot = np.zeros(100, dtype=bool)
        hot[:30] = True
        ept.prepopulate(hot)
        out = ept.access(np.arange(100), arr())
        assert out.direct_loads == 30
        assert out.vm_exits == 70

    def test_writes_to_prepopulated_pages_cow(self):
        ept = make_ept(100)
        ept.prepopulate(np.ones(100, dtype=bool))
        out = ept.access(arr(), np.arange(10))
        assert out.cow_faults == 10
        assert out.vm_exits == 10
        assert ept.local_pages == 10

    def test_rdma_pool_cannot_prepopulate(self):
        ept = make_ept(100, RDMAPool)
        cost = ept.prepopulate(np.ones(100, dtype=bool))
        assert cost == 0.0
        out = ept.access(np.arange(10), arr())
        assert out.vm_exits == 10

    def test_prepopulation_faster_at_runtime(self):
        lazy = make_ept(1000)
        out_lazy = lazy.access(np.arange(1000), arr())
        t_lazy = lazy.access_time(out_lazy)

        pre = make_ept(1000)
        pre.prepopulate(np.ones(1000, dtype=bool))
        out_pre = pre.access(np.arange(1000), arr())
        t_pre = pre.access_time(out_pre)
        assert t_pre < t_lazy / 3


class TestAccounting:
    def test_local_delta_hook(self):
        deltas = []
        ept = ExtendedPageTable(50, on_local_delta=deltas.append)
        store = DedupStore(CXLPool(MB))
        ept.bind_template(store.store_image(np.arange(50)))
        ept.access(np.arange(20), np.arange(5))
        assert sum(deltas) == ept.local_pages

    def test_out_of_range_rejected(self):
        ept = make_ept(10)
        with pytest.raises(IndexError):
            ept.access(arr(10), arr())

    def test_out_of_range_read_rejected_before_writes_apply(self):
        deltas = []
        ept = ExtendedPageTable(8, on_local_delta=deltas.append)
        with pytest.raises(IndexError):
            ept.access(arr(8), arr(0, 1))
        assert (ept.state == PTE_NONE).all()
        assert ept.local_pages == 0 and deltas == []

    def test_repeated_page_rejected_before_any_change(self):
        # Once two VM exits and two local pages for one PTE_LOCAL.
        deltas = []
        ept = ExtendedPageTable(4, on_local_delta=deltas.append)
        with pytest.raises(ValueError, match="repeats"):
            ept.access(arr(), arr(1, 1))
        with pytest.raises(ValueError, match="repeats"):
            ept.access(arr(3, 0, 3), arr(2))
        assert (ept.state == PTE_NONE).all()
        assert ept.local_pages == 0 and deltas == []

    def test_one_charge_per_access(self):
        # Prepopulated pages CoW, invalid ones fetch and untouched ones
        # allocate: three kinds of fault, one charge.
        deltas = []
        ept = ExtendedPageTable(12, on_local_delta=deltas.append)
        store = DedupStore(CXLPool(MB))
        ept.bind_template(store.store_image(np.arange(12)))
        ept.prepopulate(np.arange(12) < 4)
        ept.state[8:] = PTE_NONE
        out = ept.access(arr(5, 6), arr(0, 1, 4, 8, 9))
        assert (out.cow_faults, out.local_pages_allocated) == (3, 7)
        assert deltas == [7] and ept.local_pages == 7
        ept.access(arr(0, 5), arr(1))
        assert deltas == [7]

    def test_access_time_components(self):
        ept = make_ept(100)
        out = ept.access(np.arange(50), arr())
        t = ept.access_time(out)
        assert t > 0
        # Cheap relative to a full memory copy of the same pages.
        assert t < 50 * 4096 * ept.latency.mem.copy_per_byte * 10
