"""Per-rule simlint tests: every rule gets paired bad/good snippets,
and its mutant: a one-site edit of a real module that only the rule
catches before the code runs (docs/analysis.md, "Mutation audit")."""

import ast
import textwrap
from pathlib import Path

from repro.analysis.config import load_config
from repro.analysis.rules import REGISTRY, ParsedModule, all_rules

REPO = Path(__file__).resolve().parents[2]


def parse(source, relpath="src/repro/sample.py"):
    source = textwrap.dedent(source)
    return ParsedModule(relpath=relpath, tree=ast.parse(source),
                        lines=source.splitlines())


def hits(rule_id, source, relpath="src/repro/sample.py"):
    rule = REGISTRY[rule_id]()
    return list(rule.check_file(parse(source, relpath)))


def mutant_hits(rule_id, relpath, *edits):
    """Hits of ``rule_id`` on repo file ``relpath`` after ``edits``
    (``(old, new)`` pairs, each ``old`` unique in the file), honouring
    the repository's own per-rule path excludes.  The unedited file
    must be clean."""
    assert not load_config(REPO).path_excluded(relpath, rule_id)
    source = (REPO / relpath).read_text(encoding="utf-8")
    assert not hits(rule_id, source, relpath)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    return hits(rule_id, source, relpath)


def test_registry_is_complete_and_sorted():
    rules = all_rules()
    assert [r.rule_id for r in rules] == [
        "SIM001", "SIM002", "SIM003", "SIM004", "SIM010"]
    for rule in rules:
        assert rule.title and rule.rationale


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


def test_sim001_mutant_wall_clock_retry_jitter():
    found = mutant_hits(
        "SIM001", "src/repro/faults/retry.py",
        ("from dataclasses import dataclass\n",
         "import time\nfrom dataclasses import dataclass\n"),
        ("base *= 1.0 + rng.uniform(0.0, self.jitter)",
         "base *= 1.0 + (time.perf_counter() % 1.0) * self.jitter"))
    assert [v.rule_id for v in found] == ["SIM001"]


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


def test_sim002_mutant_global_rng_retry_jitter():
    # The RetryPolicy bug class: backoff jitter from module-level state.
    found = mutant_hits(
        "SIM002", "src/repro/faults/retry.py",
        ("from dataclasses import dataclass\n",
         "import random\nfrom dataclasses import dataclass\n"),
        ("base *= 1.0 + rng.uniform(0.0, self.jitter)",
         "base *= 1.0 + random.uniform(0.0, self.jitter)"))
    assert [v.rule_id for v in found] == ["SIM002"]


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


def test_sim003_mutant_microvm_teardown_eviction_order():
    found = mutant_hits(
        "SIM003", "src/repro/vm/microvm.py",
        ("for fid in sorted(self._private_host_fids):",
         "for fid in self._private_host_fids:"))
    assert [v.rule_id for v in found] == ["SIM003"]


def test_sim003_mutant_float_fold_over_a_set_of_pools():
    # The order-sensitive float fold the whole-program SIM008 targeted:
    # the per-file rule flags the loop that feeds it.
    found = mutant_hits(
        "SIM003", "src/repro/serverless/cluster.py",
        ("""        seen: Dict[int, float] = {}
        for platform in self.platforms:
            pool = getattr(platform, "pool", None)
            if pool is not None:
                seen[id(pool)] = pool.used_bytes
        return sum(seen.values()) / (1 << 20)""",
         """        pools = {getattr(p, "pool", None) for p in self.platforms}
        total = 0.0
        for pool in pools - {None}:
            total += pool.used_bytes
        return total / (1 << 20)"""))
    assert [v.rule_id for v in found] == ["SIM003"]


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


def test_sim004_mutant_guest_teardown_writes_the_ept_counter():
    found = mutant_hits(
        "SIM004", "src/repro/agents/platform.py",
        ("ept.release_local()  # on_local_delta hook uncharges node.memory",
         "node.memory.charge_pages('vm-guest-anon', -ept.local_pages)\n"
         "        ept.local_pages = 0"))
    assert [v.rule_id for v in found] == ["SIM004"]


# -- SIM010: process-environment access ----------------------------------------


def test_sim010_flags_environ_reads_and_getenv():
    for source in ("""
        import os
        knob = float(os.environ.get("REPRO_KNOB", "1.0"))
    """, """
        import os
        knob = os.environ["REPRO_KNOB"]
    """, """
        import os as _os
        knob = _os.getenv("REPRO_KNOB")
    """, """
        from os import environ
        knob = environ.get("REPRO_KNOB")
    """):
        found = hits("SIM010", source)
        assert [v.rule_id for v in found] == ["SIM010"], source


def test_sim010_good_os_path_and_local_names():
    assert not hits("SIM010", """
        import os
        def where(environ):
            return os.path.join("a", environ.get("b", ""))
    """)


def test_sim010_mutant_environ_read_behind_the_dispatch_key():
    # Deep-only before: the read sits in a helper whose only caller is
    # dispatch.  With the variable unset results cannot change, so no
    # runtime check sees it either.
    found = mutant_hits(
        "SIM010", "src/repro/serverless/cluster.py",
        ("import heapq\n", "import heapq\nimport os\n"),
        ("def _load_key(platform: ServerlessPlatform) -> Tuple[int, str]:",
         "def _tiebreak(name: str) -> str:\n"
         "    return os.environ.get('REPRO_TIEBREAK', '') + name\n\n\n"
         "def _load_key(platform: ServerlessPlatform) -> Tuple[int, str]:"),
        ("    return (platform.node.cpu.load, platform.node.name)",
         "    return (platform.node.cpu.load, "
         "_tiebreak(platform.node.name))"))
    assert [v.rule_id for v in found] == ["SIM010"]
