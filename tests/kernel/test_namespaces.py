import pytest

from repro.kernel.namespaces import (NamespaceManager, NetNamespace)
from repro.sim.engine import Delay, Simulator
from repro.sim.latency import LatencyModel


def test_netns_creation_cost_at_low_concurrency():
    sim = Simulator()
    mgr = NamespaceManager(sim)

    def proc():
        ns = yield from mgr.create_netns()
        return ns, sim.now

    ns, now = sim.run_process(proc())
    assert isinstance(ns, NetNamespace)
    assert now == pytest.approx(0.080, rel=0.01)


def test_netns_contention_inflates_cost():
    """§3.3: 15 concurrent creates -> ~400 ms network setup."""
    sim = Simulator()
    mgr = NamespaceManager(sim)
    finish = []

    def proc():
        yield from mgr.create_netns()
        finish.append(sim.now)

    for _ in range(15):
        sim.spawn(proc())
    sim.run()
    assert max(finish) == pytest.approx(0.402, rel=0.05)


def test_netns_cost_capped():
    lat = LatencyModel()
    assert lat.ns.netns_create(10_000) == lat.ns.netns_max


def test_in_flight_counter_returns_to_zero():
    sim = Simulator()
    mgr = NamespaceManager(sim)

    def proc():
        yield from mgr.create_netns()

    for _ in range(3):
        sim.spawn(proc())
    sim.run()
    assert mgr.netns_in_flight == 0
    assert mgr.created["net"] == 3


def test_netns_connection_lifecycle():
    ns = NetNamespace()
    ns.open_connection(1, nbytes=100)
    ns.open_connection(2)
    assert ns.leaks_execution_data
    assert ns.terminate_connections() == 2
    assert not ns.leaks_execution_data
    # Statistics persist across reuse (§8.1.1).
    assert ns.veth_rx_bytes == 100


def test_netns_customisation_and_reset():
    ns = NetNamespace()
    ns.add_firewall_rule("drop tcp/25")
    assert ns.customised
    ns.reset_configuration()
    assert not ns.customised
    assert ns.firewall_rules == []
    assert ns.routing_entries == ["default"]


def test_light_namespaces_cheap():
    sim = Simulator()
    mgr = NamespaceManager(sim)

    def proc():
        nss = yield from mgr.create_light_set()
        return nss, sim.now

    nss, now = sim.run_process(proc())
    assert set(nss) == {"pid", "uts", "ipc", "time"}
    assert now < 0.001


def test_light_namespace_unknown_kind():
    sim = Simulator()
    mgr = NamespaceManager(sim)
    with pytest.raises(ValueError):
        sim.run_process(mgr.create_light("bogus"))


def test_mntns_creation():
    sim = Simulator()
    mgr = NamespaceManager(sim)

    def proc():
        ns = yield from mgr.create_mntns()
        return ns

    ns = sim.run_process(proc())
    assert ns.kind == "mnt"


def test_namespace_ids_unique():
    a, b = NetNamespace(), NetNamespace()
    assert a.ns_id != b.ns_id
