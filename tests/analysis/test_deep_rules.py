"""Deep-rule tests: a positive and a negative per SIM006-SIM010."""

import ast
import textwrap
from pathlib import Path

from repro.analysis.config import SimlintConfig
from repro.analysis.rules import REGISTRY, ParsedModule
from repro.analysis.shardcheck import build_deep_context


def modules_from(sources):
    out = {}
    for relpath, source in sources.items():
        source = textwrap.dedent(source)
        out[relpath] = ParsedModule(relpath=relpath, tree=ast.parse(source),
                                    lines=source.splitlines())
    return out


def deep_hits(rule_id, sources, roots=("repro.simx.Simulator.run",)):
    modules = modules_from(sources)
    config = SimlintConfig(root=Path("."), deep_roots=tuple(roots))
    context = build_deep_context(modules, config)
    return list(REGISTRY[rule_id]().check_deep(context))


# -- SIM006: shard-unsafe global mutable state ---------------------------------


SIM006_BAD = {"src/repro/simx.py": """
    CACHE = {}

    class Simulator:
        def run(self):
            return remember("k", 1)

    def remember(key, value):
        CACHE[key] = value
        return value
"""}


def test_sim006_flags_sim_reachable_global_write():
    found = deep_hits("SIM006", SIM006_BAD)
    assert len(found) == 1
    v = found[0]
    assert v.rule_id == "SIM006"
    assert "repro.simx.CACHE" in v.message
    assert "remember" in v.message
    assert v.snippet.startswith("CACHE = {}")


def test_sim006_pragma_certifies_the_cache():
    src = SIM006_BAD["src/repro/simx.py"].replace(
        "CACHE = {}",
        "CACHE = {}  # simlint: shard-safe (pure function of key)")
    assert deep_hits("SIM006", {"src/repro/simx.py": src}) == []


def test_sim006_ignores_writes_outside_the_sim():
    found = deep_hits("SIM006", {"src/repro/simx.py": """
        CACHE = {}

        class Simulator:
            def run(self):
                return CACHE.get("k")

        def load_time_fill(key, value):
            CACHE[key] = value
    """})
    assert found == []  # the only writer runs before the sim starts


# -- SIM007: non-associative merge --------------------------------------------


def test_sim007_flags_overwrite_with_other_shard():
    found = deep_hits("SIM007", {"src/repro/reg.py": """
        class Registry:
            def merge_from(self, other):
                for key in other.gauges:
                    self.gauges[key] = other.gauges[key]
    """})
    assert len(found) == 1
    assert "overwrites" in found[0].message


def test_sim007_flags_non_associative_fold():
    found = deep_hits("SIM007", {"src/repro/reg.py": """
        class Registry:
            def merge_from(self, other):
                self.total -= other.total
    """})
    assert len(found) == 1
    assert "non-associative" in found[0].message


def test_sim007_accepts_additive_and_maxmin_merges():
    found = deep_hits("SIM007", {"src/repro/reg.py": """
        class Registry:
            def merge_from(self, other):
                for key, value in other.counters.items():
                    self.counters[key] = self.counters.get(key, 0) + value
                for key, theirs in other.gauges.items():
                    mine = self.gauges.get(key)
                    self.gauges[key] = theirs if mine is None else \\
                        max(mine, theirs)
                self.exact = None
    """})
    assert found == []


# -- SIM008: order-sensitive float accumulation --------------------------------


def test_sim008_flags_float_fold_over_set():
    found = deep_hits("SIM008", {"src/repro/acc.py": """
        def total(items):
            pending = set(items)
            out = 0.0
            for item in pending:
                out += item
            return out
    """})
    assert len(found) == 1
    assert "out" in found[0].message
    assert "sorted" in found[0].message


def test_sim008_accepts_sorted_iteration_and_int_accumulators():
    found = deep_hits("SIM008", {"src/repro/acc.py": """
        def total(items):
            pending = set(items)
            out = 0.0
            for item in sorted(pending):
                out += item
            count = 0
            for item in pending:
                count += 1
            return out, count
    """})
    assert found == []


# -- SIM009: unguarded hook call ----------------------------------------------


def test_sim009_flags_unguarded_hook_call():
    found = deep_hits("SIM009", {"src/repro/instr.py": """
        from repro.obs import hooks

        def record(event):
            hooks.on_event(event)
    """})
    assert len(found) == 1
    assert "hooks.on_event" in found[0].message


def test_sim009_flags_unguarded_context_attribute():
    found = deep_hits("SIM009", {"src/repro/instr.py": """
        from repro.obs import hooks

        def begin(function, t):
            return hooks.tracer.begin(function, t)
    """})
    assert len(found) == 1
    assert "hooks.tracer" in found[0].message


def test_sim009_accepts_guarded_forms():
    found = deep_hits("SIM009", {"src/repro/instr.py": """
        from repro.obs import hooks

        def direct(event):
            if hooks.on_event is not None:
                hooks.on_event(event)

        def aliased(event):
            on_event = hooks.on_event
            if on_event is not None:
                on_event(event)

        def context(function, t):
            tracer = hooks.tracer
            if tracer is not None:
                tracer.begin(function, t)

        def early_return(event):
            if hooks.on_event is None:
                return
            hooks.on_event(event)

        def bool_and(fresh, event):
            if fresh and hooks.on_event is not None:
                hooks.on_event(event)

        def subscribe(sub):
            previous = hooks.install(sub)
            hooks.uninstall(sub, previous)
    """})
    assert found == []


def test_sim009_guard_covers_only_its_slot():
    found = deep_hits("SIM009", {"src/repro/instr.py": """
        from repro.obs import hooks

        def crossed(event):
            if hooks.on_event is not None:
                hooks.on_other(event)
    """})
    assert len(found) == 1
    assert "hooks.on_other" in found[0].message


def test_sim009_alias_guard_does_not_leak_to_reassignment():
    found = deep_hits("SIM009", {"src/repro/instr.py": """
        from repro.obs import hooks

        def rebound(event):
            tracer = hooks.tracer
            if tracer is not None:
                tracer.instant(event)
            tracer = hooks.tracer
            tracer.instant(event)
    """})
    assert len(found) == 1
    assert found[0].line == max(v.line for v in found)


# -- SIM010: interprocedural taint reaching a sim sink -------------------------


def test_sim010_flags_wall_clock_behind_a_helper():
    found = deep_hits("SIM010", {"src/repro/simx.py": """
        import time

        class Simulator:
            def run(self):
                return backoff()

        def backoff():
            return time.time()
    """})
    assert len(found) == 1
    v = found[0]
    assert "wall-clock" in v.message
    assert "Simulator.run -> repro.simx.backoff" in v.message


def test_sim010_flags_global_rng_and_environ():
    found = deep_hits("SIM010", {"src/repro/simx.py": """
        import os
        import random

        class Simulator:
            def run(self):
                return jitter() + knob()

        def jitter():
            return random.random()

        def knob():
            return float(os.environ.get("REPRO_KNOB", "1.0"))
    """})
    assert len(found) == 2
    assert any("global-rng" in v.message for v in found)
    assert any("environ" in v.message for v in found)


def test_sim010_ignores_sources_outside_the_sim():
    found = deep_hits("SIM010", {"src/repro/simx.py": """
        import time

        class Simulator:
            def run(self):
                return 0

        def host_harness():
            return time.time()
    """})
    assert found == []


def test_sim010_ignores_seeded_rng():
    found = deep_hits("SIM010", {"src/repro/simx.py": """
        import random

        class Simulator:
            def run(self):
                rng = random.Random(42)
                return rng.random()
    """})
    assert found == []
