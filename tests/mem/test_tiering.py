import numpy as np
import pytest

from repro.mem.layout import GB, MB
from repro.mem.pools import CXLPool, DedupStore, RDMAPool, TieredPool
from repro.mem.tiering import working_set_hot_mask
from repro.sim.rng import SeededRNG
from repro.workloads.functions import function_by_name


class TestWorkingSetMask:
    def test_mask_covers_exactly_the_base_trace(self):
        profile = function_by_name("JS")
        rng = SeededRNG(1)
        mask = working_set_hot_mask(profile, rng)
        base = profile.base_trace(rng)
        assert mask.sum() == len(base.read_pages)
        assert mask[base.read_pages].all()

    def test_budget_truncates(self):
        profile = function_by_name("JS")
        rng = SeededRNG(1)
        mask = working_set_hot_mask(profile, rng, budget_fraction=0.01)
        assert mask.sum() <= int(profile.image_pages * 0.01)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            working_set_hot_mask(function_by_name("JS"), SeededRNG(1),
                                 budget_fraction=1.5)


class TestMaskedPlacement:
    def test_masked_allocation_places_by_mask(self):
        hot, cold = CXLPool(64 * MB), RDMAPool(64 * MB)
        tiered = TieredPool(hot, cold)
        mask = np.array([True, False, True, False])
        offsets = tiered.allocate_pages_masked(mask)
        valid = tiered.valid_mask(offsets)
        assert np.array_equal(valid, mask)
        assert hot.used_pages == 2
        assert cold.used_pages == 2

    def test_store_image_with_mask(self):
        hot, cold = CXLPool(64 * MB), RDMAPool(64 * MB)
        store = DedupStore(TieredPool(hot, cold))
        content = np.arange(10)
        mask = np.zeros(10, dtype=bool)
        mask[:4] = True
        block = store.store_image(content, hot_mask=mask)
        assert hot.used_pages == 4
        assert cold.used_pages == 6
        valid = store.pool.valid_mask(block.offsets)
        assert np.array_equal(valid, mask)

    def test_first_store_wins_placement(self):
        hot, cold = CXLPool(64 * MB), RDMAPool(64 * MB)
        store = DedupStore(TieredPool(hot, cold))
        content = np.arange(10)
        store.store_image(content, hot_mask=np.ones(10, dtype=bool))
        # Second store demands cold placement — but pages already exist.
        store.store_image(content, hot_mask=np.zeros(10, dtype=bool))
        assert hot.used_pages == 10
        assert cold.used_pages == 0

    def test_mask_on_flat_pool_rejected(self):
        store = DedupStore(CXLPool(64 * MB))
        with pytest.raises(TypeError):
            store.store_image(np.arange(4), hot_mask=np.ones(4, dtype=bool))


class TestEndToEnd:
    def test_ws_tiering_beats_naive_fraction(self):
        """Working-set placement should serve reads from CXL even with a
        small hot tier, unlike the naive 50/50 split."""
        from repro.core.mm_template import (MMTemplateRegistry,
                                            build_template_for_function)
        from repro.criu.images import SnapshotImage
        from repro.mem.address_space import AddressSpace
        from repro.sim.engine import Simulator

        profile = function_by_name("IR")   # touches only ~5% of 855 MB
        image = SnapshotImage.from_profile(profile)
        rng = SeededRNG(5)
        trace = profile.make_trace(rng, invocation=1)

        def run(hot_mask):
            sim = Simulator()
            registry = MMTemplateRegistry(sim)
            tiered = TieredPool(CXLPool(2 * GB), RDMAPool(8 * GB),
                                hot_fraction=0.10)
            store = DedupStore(tiered)
            template = build_template_for_function(registry, image, store,
                                                   hot_mask=hot_mask)
            space = AddressSpace("x")

            def proc():
                yield from registry.mmt_attach(template, space)

            sim.run_process(proc())
            return space.access(trace.read_pages, trace.write_pages)

        naive = run(None)                       # first 10% of pages hot
        ws = run(working_set_hot_mask(profile, rng))
        # The working-set plan serves almost all reads without fetches.
        assert ws.major_faults < naive.major_faults / 3
