"""Tests for the state-duplication / memory-stranding analyzers."""

import numpy as np
import pytest

from repro.criu.images import SnapshotImage
from repro.mem.dedup_analysis import (DuplicationReport, duplication_report,
                                      stranding_report)
from repro.mem.layout import GB
from repro.sim.engine import Delay
from repro.workloads.functions import function_by_name


def resident_space(func="DH", name="i"):
    image = SnapshotImage.from_profile(function_by_name(func))
    space = image.build_address_space(name)
    for vma in space.vmas:
        space.populate_local(vma)
    return space


class TestDuplicationReport:
    def test_single_instance_no_duplication(self):
        report = duplication_report([resident_space()])
        assert report.duplication_ratio == 0.0
        assert report.duplicated_pages == 0

    def test_two_identical_instances_fifty_percent_redundant(self):
        report = duplication_report([resident_space(name="a"),
                                     resident_space(name="b")])
        assert report.duplication_ratio == pytest.approx(0.5)
        # Every page exists twice: occurrence is 100%.
        assert report.duplication_occurrence == pytest.approx(1.0)

    def test_same_language_partial_duplication(self):
        """Two different Python functions share the runtime pages."""
        report = duplication_report([resident_space("DH", "a"),
                                     resident_space("JS", "b")])
        assert 0.0 < report.duplication_occurrence < 1.0

    def test_empty_spaces(self):
        image = SnapshotImage.from_profile(function_by_name("DH"))
        empty = image.build_address_space("empty")
        report = duplication_report([empty])
        assert report.total_resident_pages == 0
        assert report.duplication_ratio == 0.0

    def test_trenv_instances_show_no_resident_duplication(self):
        """Template-attached instances keep shared content in the pool —
        a content scan over *resident* pages finds nothing to dedup."""
        from repro.core.mm_template import (MMTemplateRegistry,
                                            build_template_for_function)
        from repro.mem.address_space import AddressSpace
        from repro.mem.pools import CXLPool, DedupStore
        from repro.sim.engine import Simulator

        sim = Simulator()
        registry = MMTemplateRegistry(sim)
        store = DedupStore(CXLPool(8 * GB))
        image = SnapshotImage.from_profile(function_by_name("DH"))
        template = build_template_for_function(registry, image, store)
        spaces = [AddressSpace(f"i{i}") for i in range(3)]

        def proc():
            for s in spaces:
                yield from registry.mmt_attach(template, s)

        sim.run_process(proc())
        # Each instance writes a disjoint-ish set of pages (jittered).
        total = spaces[0].total_pages
        for i, s in enumerate(spaces):
            s.access(np.array([], dtype=np.int64),
                     np.arange(total - 200 * (i + 1), total - 200 * i))
        report = duplication_report(spaces)
        assert report.duplication_occurrence == 0.0


class TestStrandingReport:
    def test_warm_instances_counted_idle(self):
        from repro.node import Node
        from repro.serverless.baselines import FaasdPlatform

        node = Node(seed=23)
        platform = FaasdPlatform(node)
        platform.register_function(function_by_name("DH"))

        def driver():
            yield from platform.invoke("DH")

        node.sim.run_process(driver())
        report = stranding_report(platform)
        # Everything is idle warm state after the invocation completes.
        assert report.idle_bytes > 0
        assert report.stranding_ratio == pytest.approx(1.0)

    def test_busy_instances_counted_active(self):
        from repro.node import Node
        from repro.serverless.baselines import FaasdPlatform

        node = Node(seed=23)
        platform = FaasdPlatform(node)
        platform.register_function(function_by_name("VP"))   # 2.2 s exec

        def one():
            yield from platform.invoke("VP")

        node.sim.spawn(one())
        node.sim.run(until=3.0)   # mid-execution
        report = stranding_report(platform)
        assert report.active_bytes > 0
        assert report.stranding_ratio < 1.0

    def test_empty_platform(self):
        from repro.node import Node
        from repro.serverless.baselines import FaasdPlatform

        report = stranding_report(FaasdPlatform(Node()))
        assert report.total_bytes == 0
        assert report.stranding_ratio == 0.0
