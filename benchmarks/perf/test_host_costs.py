"""Host-cost gates: the two checks on the simulator's own host time that
perfbench does not make.  perfbench writes every host-time number; these
tests only gate two properties, each against a fixed bound.

* **Attach stays flat** (§5.1, Figure 11: ``mmt_attach`` copies
  metadata only).  Best-of-30 host time of a full template attach over
  16-VMA templates of 1024, 32768 and 218880 pages (the 855 MB IR image
  of Table 4) must stay within 10x from smallest to largest.
* **Hooks cost < 2 % when off.**  With no sanitizer or observer
  installed, every hook site costs one never-taken guard such as
  ``if hooks.on_pool_alloc is not None``.  The cost is measured without
  timing two noisy runs against each other: ``sys.settrace`` counts how
  many times the guard lines execute in one run (an exact, repeatable
  count), ``timeit`` prices one guard, and their product is divided by
  the best untraced wall of the same run.  Guard lines are every line
  in ``src/repro`` that reads a slot of the hook bus (any attribute of
  :mod:`repro.obs.hooks` but its ``install``/``uninstall``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``; add
``-s`` to print the figures.
"""

import ast
import collections
import math
import sys
import time
import timeit
from pathlib import Path

import pytest

import repro
from repro.analysis.rules import _import_aliases
from repro.bench.harness import build_synthetic_template, make_platform
from repro.core.mm_template import MMTemplateRegistry
from repro.mem.address_space import AddressSpace
from repro.mem.layout import GB, MB
from repro.obs import hooks
from repro.serverless.partition import ClusterSpec
from repro.serverless.runner import run_workload
from repro.sim.engine import Simulator
from repro.workloads.functions import FunctionProfile, function_by_name
from repro.workloads.synthetic import make_scaleout_uniform, make_w2_diurnal

ATTACH_PAGE_COUNTS = (1024, 32768, 218880)
ATTACH_ITERS = 30
HOOKS_OFF_BOUND_PCT = 2.0
SEED = 3
#: The hook bus, and its two functions that are not slots.
HOOK_MODULES = frozenset({"repro.obs.hooks"})
HOOK_FUNCTIONS = frozenset({"install", "uninstall"})


# ------------------------------------------------------------------ attach --

def best_attach_s(template, iters):
    """Best-of-``iters`` host seconds for one attach: a fresh address
    space plus ``mmt_attach`` driven to completion."""
    registry = MMTemplateRegistry(Simulator())
    best = math.inf
    for _ in range(iters):
        t0 = time.perf_counter()
        space = AddressSpace("bench")
        registry.sim.run_process(registry.mmt_attach(template, space))
        best = min(best, time.perf_counter() - t0)
    return best


def test_attach_host_time_is_flat_in_pages():
    best_us = []
    for pages in ATTACH_PAGE_COUNTS:
        template = build_synthetic_template(pages)
        # One warm attach first: sealing the template's frozen CoW bases
        # is a one-time cost per template, not part of a warm start.
        best_attach_s(template, 1)
        best_us.append(best_attach_s(template, ATTACH_ITERS) * 1e6)
    print("\nattach best-of-%d (us): %s" % (ATTACH_ITERS, ", ".join(
        f"{pages} pages {us:.1f}"
        for pages, us in zip(ATTACH_PAGE_COUNTS, best_us))))
    # O(metadata): the sweep grows 213x in pages, attach must not.
    assert max(best_us) < 10 * min(best_us), best_us


# --------------------------------------------------------------- hooks off --

def guard_sites():
    """``(filename, line)`` of every hook-bus slot read in
    ``src/repro``, with filenames as the interpreter reports them."""
    sites = set()
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {local for local, target in _import_aliases(tree).items()
                 if target in HOOK_MODULES}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and node.attr not in HOOK_FUNCTIONS
                    and isinstance(node.value, ast.Name)
                    and node.value.id in names):
                sites.add((str(path), node.lineno))
    return sites


def count_guards(run, sites):
    """Run ``run`` under ``sys.settrace``; return how many times a guard
    line executed."""
    files = {filename for filename, _ in sites}
    counts = collections.Counter()

    def on_line(frame, event, arg):
        if event == "line":
            counts[frame.f_code.co_filename, frame.f_lineno] += 1
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return sum(counts[site] for site in sites)


def guard_cost_s():
    """Host seconds for one never-taken guard: min over repeats."""
    timer = timeit.Timer("if m.on_sim_event is not None: pass",
                         globals={"m": hooks})
    number = 1_000_000
    return min(timer.repeat(repeat=7, number=number)) / number


def best_wall_s(prepare, repeats=3):
    """Best-of-``repeats`` host seconds of the run ``prepare()`` returns;
    set-up is not timed."""
    best = math.inf
    for _ in range(repeats):
        run = prepare()
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


def micro_suite(n):
    """Zero-page micro functions, so host time goes to the framework's
    own stepping, dispatch and bookkeeping."""
    return tuple(FunctionProfile(
        name=f"micro{i}", lang="python",
        description="scale-out micro function",
        mem_bytes=1 * MB, n_threads=1, exec_cpu=0.0, io_time=0.0,
        touched_pages=0, write_fraction=0.0, loads_per_read_page=0.0,
        n_vmas=4, n_fds=1, runtime_shared_bytes=MB // 4,
        bootstrap_time=0.01, file_io_bytes=0,
        trace_jitter=0.0) for i in range(n))


def w2_tcxl():
    """fig17 W2 for 120 s on one t-cxl node, functions registered in
    set-up."""
    workload = make_w2_diurnal(seed=1, duration=120.0, mean_rate=1.6,
                               soft_cap_bytes=5 * GB)
    platform = make_platform("t-cxl", seed=SEED)
    # The knobs run_workload sets before it registers, then the
    # registrations, so that the run starts at the first event.
    platform.node.memory.soft_cap_bytes = workload.soft_cap_bytes
    platform.keep_alive = workload.keep_alive
    platform.recorder.warmup = workload.warmup
    for fn in workload.functions_used():
        platform.register_function(function_by_name(fn))
    return lambda: run_workload(platform, workload)


def rack_rr_quarter():
    """10-node round-robin rack of 16 micro functions, 2000 arrivals
    over 600 s (a quarter of perfbench's ``rack_rr``)."""
    suite = micro_suite(16)
    workload = make_scaleout_uniform(seed=SEED, functions=suite,
                                     duration=600.0, rate=2000 / 600.0,
                                     quantum=0.05)
    cluster = ClusterSpec(n_nodes=10, seed=SEED, policy="round-robin",
                          functions=suite, keep_results=False).build()
    cluster.prepare_workload(workload)
    return lambda: cluster.run_workload(workload)


#: Each scenario does its set-up and returns the run, a zero-argument
#: callable: the wall and the guard count cover the run only.
@pytest.mark.parametrize("scenario", [w2_tcxl, rack_rr_quarter],
                         ids=lambda fn: fn.__name__)
def test_hooks_off_cost_under_two_percent(scenario):
    assert {getattr(hooks, name) for name in hooks.SLOTS} == {None}
    sites = guard_sites()
    wall = best_wall_s(scenario)
    guards = count_guards(scenario(), sites)
    # The count is exact, not sampled: a second run repeats it.
    assert count_guards(scenario(), sites) == guards
    per_guard = guard_cost_s()
    pct = guards * per_guard / wall * 100.0
    print(f"\n{scenario.__name__}: {guards} guard executions over "
          f"{len(sites)} sites x {per_guard * 1e9:.1f} ns = "
          f"{pct:.2f}% of the best untraced wall {wall:.3f} s")
    assert guards > 0
    assert pct < HOOKS_OFF_BOUND_PCT
