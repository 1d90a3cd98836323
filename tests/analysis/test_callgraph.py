"""Call-graph construction: resolution, reachability, guards, chains."""

import ast
import textwrap

from repro.analysis.callgraph import build_callgraph, module_name_for
from repro.analysis.rules import ParsedModule


def modules_from(sources):
    out = {}
    for relpath, source in sources.items():
        source = textwrap.dedent(source)
        out[relpath] = ParsedModule(relpath=relpath, tree=ast.parse(source),
                                    lines=source.splitlines())
    return out


def edges_of(graph, caller):
    return sorted(site.callee for site in graph.callees(caller))


def test_module_name_for():
    assert module_name_for("src/repro/mem/pools.py") == "repro.mem.pools"
    assert module_name_for("src/repro/mem/__init__.py") == "repro.mem"
    assert module_name_for("benchmarks/bench_w2.py") == "benchmarks.bench_w2"


def test_local_function_calls_resolve():
    graph = build_callgraph(modules_from({"src/repro/app.py": """
        def helper():
            return 1

        def main():
            return helper()
    """}))
    assert edges_of(graph, "repro.app.main") == ["repro.app.helper"]


def test_cross_module_calls_resolve_through_imports():
    graph = build_callgraph(modules_from({
        "src/repro/util.py": """
            def tick():
                return 0
        """,
        "src/repro/app.py": """
            from repro.util import tick
            import repro.util as u

            def direct():
                return tick()

            def dotted():
                return u.tick()
        """,
    }))
    assert edges_of(graph, "repro.app.direct") == ["repro.util.tick"]
    assert edges_of(graph, "repro.app.dotted") == ["repro.util.tick"]


def test_self_method_and_subclass_override_resolve():
    graph = build_callgraph(modules_from({"src/repro/cls.py": """
        class Base:
            def run(self):
                return self.step()

            def step(self):
                return 0

        class Child(Base):
            def step(self):
                return 1
    """}))
    callees = edges_of(graph, "repro.cls.Base.run")
    assert "repro.cls.Base.step" in callees
    assert "repro.cls.Child.step" in callees  # dynamic dispatch


def test_constructor_call_resolves_to_init():
    graph = build_callgraph(modules_from({"src/repro/mk.py": """
        class Widget:
            def __init__(self):
                self.x = 0

        def make():
            return Widget()
    """}))
    assert edges_of(graph, "repro.mk.make") == ["repro.mk.Widget.__init__"]


def test_nested_defs_fold_into_enclosing_function():
    graph = build_callgraph(modules_from({"src/repro/nest.py": """
        def leaf():
            return 3

        def outer():
            def inner():
                return leaf()
            return inner()
    """}))
    assert "repro.nest.leaf" in edges_of(graph, "repro.nest.outer")


def test_reachability_and_prefix_roots():
    graph = build_callgraph(modules_from({
        "src/repro/simx/engine.py": """
            from repro.work import step

            class Simulator:
                def run(self):
                    return step()
        """,
        "src/repro/work.py": """
            def step():
                return leaf()

            def leaf():
                return 0

            def unrelated():
                return 9
        """,
    }))
    reach = graph.reachable(["repro.simx.engine.Simulator.run"])
    assert "repro.work.step" in reach
    assert "repro.work.leaf" in reach
    assert "repro.work.unrelated" not in reach
    # A module prefix expands to every function it contains.
    assert graph.resolve_roots(["repro.work"]) == sorted(
        ["repro.work.step", "repro.work.leaf", "repro.work.unrelated"])


def test_call_chain_is_shortest_and_deterministic():
    graph = build_callgraph(modules_from({"src/repro/chainy.py": """
        def a():
            return b()

        def b():
            return c()

        def c():
            return 0

        def root():
            b()
            a()
    """}))
    chain = graph.call_chain(["repro.chainy.root"], "repro.chainy.c")
    assert chain == ["repro.chainy.root", "repro.chainy.b",
                     "repro.chainy.c"]
    assert graph.call_chain(["repro.chainy.c"], "repro.chainy.a") is None


def test_attribute_heuristic_caps_fanout():
    # 9 classes define `.go`; the ambiguous-receiver heuristic must not
    # explode the graph past its fan-out cap.
    classes = "\n".join(
        f"class C{i}:\n    def go(self):\n        return {i}\n"
        for i in range(9))
    graph = build_callgraph(modules_from({"src/repro/many.py": f"""
{textwrap.indent(classes, '        ')}
        def call(x):
            return x.go()
    """}))
    assert edges_of(graph, "repro.many.call") == []
