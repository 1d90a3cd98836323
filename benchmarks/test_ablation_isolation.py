"""Ablation: Groundhog-style sequential request isolation (§10).

Quantifies the trade-off of rolling warm instances back to the pristine
template after every request: stronger isolation, slightly more CoW work
per invocation, and a flat (non-accumulating) memory profile.
"""

from repro.bench import format_table
from repro.core.config import TrEnvConfig
from repro.core.platform import TrEnvPlatform
from repro.mem.layout import GB
from repro.mem.pools import CXLPool
from repro.node import Node
from repro.workloads.functions import function_by_name


def run_isolation_ablation(fn="JS", invocations=12):
    out = {}
    for label, sequential in (("trenv", False), ("trenv-groundhog", True)):
        node = Node(cores=8, seed=41)
        platform = TrEnvPlatform(
            node, CXLPool(64 * GB, node.latency),
            config=TrEnvConfig(sequential_isolation=sequential))
        platform.register_function(function_by_name(fn))
        execs = []

        def driver():
            for _ in range(invocations):
                r = yield from platform.invoke(fn)
                execs.append(r.exec)

        node.sim.run_process(driver())
        warm_inst = platform.warm.idle_instances()[0]
        out[label] = {
            "mean_exec_ms": 1e3 * sum(execs) / len(execs),
            "first_exec_ms": 1e3 * execs[0],
            "steady_exec_ms": 1e3 * execs[-1],
            "warm_resident_mb": warm_inst.space.local_bytes / (1 << 20),
        }
    return out


def test_ablation_sequential_isolation(run_once):
    data = run_once(run_isolation_ablation)

    rows = [(name, d["first_exec_ms"], d["steady_exec_ms"],
             d["warm_resident_mb"])
            for name, d in data.items()]
    print()
    print(format_table(
        "Sequential-isolation ablation (JS, 12 invocations)",
        ("config", "first_ms", "steady_ms", "warm_MB"), rows, width=15))

    plain = data["trenv"]
    iso = data["trenv-groundhog"]
    # Without rollback, later invocations run faster (their pages are
    # already CoW'd); with rollback every request re-pays its writes.
    assert plain["steady_exec_ms"] < plain["first_exec_ms"]
    assert iso["steady_exec_ms"] >= plain["steady_exec_ms"]
    # The rollback keeps the warm instance at zero private memory.
    assert iso["warm_resident_mb"] == 0.0
    assert plain["warm_resident_mb"] > 1.0
    # The isolation tax stays small (one re-CoW pass per request).
    assert iso["steady_exec_ms"] < plain["first_exec_ms"] * 1.3
