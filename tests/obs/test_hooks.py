"""The hook bus: slots, context attributes, install order and nesting."""

import contextlib

import pytest

from repro.analysis.sanitizer import Sanitizer, sanitized
from repro.mem.layout import GB
from repro.mem.pools import CXLPool
from repro.obs import hooks
from repro.obs.observer import Observability, observed


@pytest.fixture
def bare_bus():
    """No subscriber for the test's duration (a wrapped run's sanitizer
    or observer is put back afterwards)."""
    saved = hooks._subscribers
    for sub in saved:
        hooks.uninstall(sub)
    yield
    for sub in saved:
        hooks.install(sub)


def slot_values():
    return {name: getattr(hooks, name) for name in hooks.SLOTS}


class First:
    def __init__(self, log):
        self.log = log

    def on_pool_alloc(self, pool, npages):
        self.log.append(("first", pool, npages))


class Second(First):
    def on_pool_alloc(self, pool, npages):
        self.log.append(("second", pool, npages))


def test_every_subscriber_hook_is_a_slot_and_every_slot_is_used():
    def hook_names(cls):
        return {name for name in dir(cls) if name.startswith("on_")}

    sanitizer, observer = hook_names(Sanitizer), hook_names(Observability)
    assert sanitizer <= set(hooks.SLOTS)
    assert observer <= set(hooks.SLOTS)
    assert sanitizer | observer == set(hooks.SLOTS)


def test_nothing_installed_leaves_every_slot_none(bare_bus):
    assert set(slot_values().values()) == {None}
    assert hooks.tracer is None
    assert hooks.registry is None


def test_observer_only_makes_no_sanitizer_slot(bare_bus):
    with observed("spans") as obs:
        assert hooks.on_sim_event is None
        assert hooks.on_pte_cow is None
        assert hooks.on_pool_alloc == obs.on_pool_alloc
        assert hooks.tracer is obs.tracer
        assert hooks.registry is obs.registry
    with observed("metrics") as obs:
        assert hooks.tracer is None
        assert hooks.registry is obs.registry
    assert set(slot_values().values()) == {None}


def test_shared_event_reaches_both_subscribers_in_install_order(bare_bus):
    log = []
    first, second = First(log), Second(log)
    hooks.install(first)
    hooks.install(second)
    try:
        hooks.on_pool_alloc("pool", 3)
    finally:
        hooks.uninstall(second)
        hooks.uninstall(first)
    assert log == [("first", "pool", 3), ("second", "pool", 3)]
    assert hooks.on_pool_alloc is None


def test_sanitizer_and_observer_both_see_a_pool_allocation(bare_bus):
    pool = CXLPool(1 * GB)
    with sanitized() as san, observed("metrics") as obs:
        pool.allocate_pages(4)
        pool.allocate_pages(2)
    assert san._pools[id(pool)][1] == pool.used_pages == 6
    assert obs.registry.counter("pool_alloc_pages_total",
                                pool=pool.name) == 6


def test_install_replaces_the_same_class_in_place(bare_bus):
    log = []
    first, second, third = First(log), Second(log), First(log)
    hooks.install(first)
    hooks.install(second)
    assert hooks.install(third) is first
    hooks.on_pool_alloc("pool", 1)
    assert [who for who, _, _ in log] == ["first", "second"]
    assert hooks._subscribers == (third, second)
    hooks.uninstall(third, first)
    assert hooks._subscribers == (first, second)
    hooks.uninstall(second)
    hooks.uninstall(first)
    assert hooks.on_pool_alloc is None


@pytest.mark.parametrize("fail", [False, True])
def test_nested_observed_restores_the_outer_observer(bare_bus, fail):
    pool = CXLPool(1 * GB)
    with sanitized() as san, observed("spans") as outer:
        failing = pytest.raises(RuntimeError) if fail else \
            contextlib.nullcontext()
        with failing:
            with observed("spans") as inner:
                assert hooks._subscribers == (san, inner)
                assert hooks.tracer is inner.tracer
                assert hooks.on_sim_event == san.on_sim_event
                pool.allocate_pages(1)
                if fail:
                    raise RuntimeError("inner block failed")
        assert hooks._subscribers == (san, outer)
        assert hooks.tracer is outer.tracer
        assert hooks.registry is outer.registry
        assert hooks.on_sim_event == san.on_sim_event
        pool.allocate_pages(2)
    alloc = "pool_alloc_pages_total"
    assert inner.registry.counter(alloc, pool=pool.name) == 1
    assert outer.registry.counter(alloc, pool=pool.name) == 2
    assert san._pools[id(pool)][1] == 3
    assert set(slot_values().values()) == {None}


def test_a_wrapped_run_subscribes_the_sanitizer_first():
    """``REPRO_SANITIZE`` and ``REPRO_OBS`` subscribe through conftest
    fixtures; with both set the sanitizer comes first."""
    names = [type(sub).__name__ for sub in hooks._subscribers]
    assert names in ([], ["Sanitizer"], ["Observability"],
                     ["Sanitizer", "Observability"])
