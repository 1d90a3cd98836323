"""Per-rule simlint tests: every rule gets paired bad/good snippets."""

import ast
import textwrap

from repro.analysis.rules import REGISTRY, ParsedModule, all_rules


def parse(source, relpath="src/repro/sample.py"):
    source = textwrap.dedent(source)
    return ParsedModule(relpath=relpath, tree=ast.parse(source),
                        lines=source.splitlines())


def hits(rule_id, source, relpath="src/repro/sample.py"):
    rule = REGISTRY[rule_id]()
    return list(rule.check_file(parse(source, relpath)))


def test_registry_is_complete_and_sorted():
    rules = all_rules()
    assert [r.rule_id for r in rules] == [
        "SIM001", "SIM002", "SIM003", "SIM004",
        "SIM006", "SIM007", "SIM008", "SIM009", "SIM010"]
    for rule in rules:
        assert rule.title and rule.rationale
    assert {r.rule_id: r.scope for r in rules if r.scope == "deep"} == {
        "SIM006": "deep", "SIM007": "deep", "SIM008": "deep",
        "SIM009": "deep", "SIM010": "deep"}


# -- SIM001: wall-clock time ---------------------------------------------------


def test_sim001_flags_time_time():
    found = hits("SIM001", """
        import time
        def stamp():
            return time.time()
    """)
    assert len(found) == 1
    assert found[0].rule_id == "SIM001"
    assert "time.time" in found[0].message


def test_sim001_flags_from_import_and_alias():
    assert hits("SIM001", """
        from time import perf_counter
        x = perf_counter()
    """)
    assert hits("SIM001", """
        import time as walltime
        x = walltime.monotonic()
    """)
    assert hits("SIM001", """
        import datetime
        d = datetime.datetime.now()
    """)


def test_sim001_good_simulated_clock():
    assert not hits("SIM001", """
        import time
        from repro.sim.engine import Delay
        def proc(sim):
            start = sim.now
            yield Delay(1.0)
            return sim.now - start
    """)


# -- SIM002: unseeded randomness -----------------------------------------------


def test_sim002_flags_global_random():
    found = hits("SIM002", """
        import random
        x = random.random()
        y = random.choice([1, 2])
    """)
    assert len(found) == 2


def test_sim002_flags_numpy_global_random():
    assert hits("SIM002", """
        import numpy as np
        noise = np.random.rand(16)
    """)


def test_sim002_good_seeded_generators():
    assert not hits("SIM002", """
        import random
        import numpy as np
        rng = random.Random(7)
        gen = np.random.default_rng(7)
        a = rng.random()
        b = gen.normal()
    """)


# -- SIM003: unordered iteration -----------------------------------------------


def test_sim003_flags_for_over_set():
    found = hits("SIM003", """
        pending = {3, 1, 2}
        for item in pending:
            dispatch(item)
    """)
    assert len(found) == 1


def test_sim003_flags_list_and_comprehension_over_set():
    assert hits("SIM003", """
        victims = set(candidates)
        order = list(victims)
    """)
    assert hits("SIM003", """
        victims = set(candidates)
        costs = [price(v) for v in victims]
    """)


def test_sim003_flags_self_attribute_sets():
    found = hits("SIM003", """
        class Scheduler:
            def __init__(self):
                self.ready = set()
            def drain(self):
                for task in self.ready:
                    run(task)
    """)
    assert len(found) == 1


def test_sim003_good_order_free_uses():
    assert not hits("SIM003", """
        pending = {3, 1, 2}
        for item in sorted(pending):
            dispatch(item)
        n = len(pending)
        present = 3 in pending
        total = sum(pending)
        doubled = {x * 2 for x in pending}
    """)


def test_sim003_nested_function_scope_does_not_leak():
    # `inner`'s set must not taint the outer loop over a list.
    assert not hits("SIM003", """
        def outer(rows):
            def inner():
                seen = set()
                return seen
            for row in rows:
                handle(row)
    """)


# -- SIM004: accounting bypass -------------------------------------------------


def test_sim004_flags_direct_field_writes():
    assert hits("SIM004", """
        def tamper(acct):
            acct.current_bytes += 4096
    """)
    assert hits("SIM004", """
        def tamper(space):
            space.local_pages = 0
    """)
    assert hits("SIM004", """
        def tamper(acct):
            acct.usage["kernel"] = 0
    """)


def test_sim004_flags_set_mutators_on_procs():
    found = hits("SIM004", """
        def tamper(cgroup):
            cgroup.procs.add(99)
    """)
    assert len(found) == 1
    assert "procs" in found[0].message


def test_sim004_good_owner_module_and_self():
    # The owning module may touch its own fields...
    assert not hits("SIM004", """
        class MemoryAccountant:
            def charge(self, category, delta):
                self.current_bytes += delta
    """, relpath="src/repro/mem/accounting.py")
    # ...and self-access anywhere is the class's own business.
    assert not hits("SIM004", """
        class Space:
            def _charge(self, delta):
                self.local_pages += delta
    """)


def test_sim004_good_api_calls():
    assert not hits("SIM004", """
        def release(node, pages):
            node.memory.charge_pages("vm-guest-anon", -pages)
    """)
