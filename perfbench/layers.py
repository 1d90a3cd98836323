"""Per-layer host time and counts for the traced run.

Time comes from the standard library's ``cProfile``.  Each profiled
function belongs to the layer that owns its module (``spec.LAYERS``);
its own time (cProfile's ``tottime``) is that layer's self time.  Code
outside ``repro`` (numpy, builtins, the standard library) has no layer
of its own: its time goes to the layers of its callers, split by how
much of it each caller incurred, so numpy time lands in the layer that
called numpy.  Generator frames are profiled per resumption, so work a
generator does inside an engine step is charged to its own layer.

Counts come from probes: thin call-counting wrappers installed on a
few public entry points, from outside the program, in traced runs only.
The ``rack_trace_jobs2`` timers (plan, merge, per-shard wall) are cheap
enough to install in every run of that workload.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from spec import LAYERS, UNOWNED, layer_of

#: Layer charged for the benchmark's own frames.
HARNESS = "harness"

#: Probe wrappers carry this code name; their frames pass time through
#: to their callers instead of counting as harness time.
_PROBE = "_perfbench_probe"

_HERE = os.path.dirname(os.path.abspath(__file__))


def _module_of(filename: str, src_root: str) -> Optional[str]:
    prefix = src_root + os.sep
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return None
    rel = filename[len(prefix):-3].split(os.sep)
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def classifier(src_root: str) -> Callable[[Tuple], Optional[str]]:
    """Map a cProfile key to its layer; None passes time to callers."""
    src_root = os.path.abspath(src_root)
    here = _HERE + os.sep
    cache: Dict[str, Optional[str]] = {}

    def classify(key: Tuple) -> Optional[str]:
        filename, _line, funcname = key
        if funcname == _PROBE:
            return None
        if filename not in cache:
            module = _module_of(filename, src_root)
            if module is not None:
                cache[filename] = layer_of(module) or UNOWNED
            elif filename.startswith(here):
                cache[filename] = HARNESS
            else:
                cache[filename] = None
        return cache[filename]

    return classify


def attribute(stats: Dict, classify) -> Dict[str, float]:
    """Self seconds per layer from ``cProfile.Profile().stats``.

    ``stats`` maps ``(file, line, func)`` to ``(cc, nc, tt, ct,
    callers)`` with ``callers[c] = (nc, cc, tt, ct)``.  A function with
    a layer keeps its ``tt``; any other function splits its ``tt`` over
    its callers by the ``tt`` each caller incurred, and a caller without
    a layer passes its share on up by cumulative time.
    """
    own = {key: classify(key) for key in stats}
    memo: Dict[Tuple, Dict[str, float]] = {}

    def owners(key) -> Dict[str, float]:
        layer = own.get(key)
        if layer is not None:
            return {layer: 1.0}
        if key in memo:
            return memo[key]
        memo[key] = {UNOWNED: 1.0}          # cycle guard
        callers = stats[key][4] if key in stats else {}
        total = sum(v[3] for v in callers.values())
        if total <= 0.0:
            return memo[key]
        out: Dict[str, float] = {}
        for caller, v in callers.items():
            for lay, share in owners(caller).items():
                out[lay] = out.get(lay, 0.0) + share * v[3] / total
        memo[key] = out
        return out

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20000))
    try:
        self_s: Dict[str, float] = {lay: 0.0 for lay in LAYERS}
        self_s[UNOWNED] = 0.0
        for key, (_cc, _nc, tt, _ct, callers) in stats.items():
            layer = own[key]
            if layer is not None:
                self_s[layer] = self_s.get(layer, 0.0) + tt
                continue
            total = sum(v[2] for v in callers.values())
            if total <= 0.0:
                self_s[UNOWNED] += tt
                continue
            for caller, v in callers.items():
                for lay, share in owners(caller).items():
                    self_s[lay] = (self_s.get(lay, 0.0)
                                   + tt * share * v[2] / total)
    finally:
        sys.setrecursionlimit(limit)
    return self_s


def cumulative(stats: Dict, path_suffix: str, funcname: str) -> float:
    """Cumulative seconds of the profiled function(s) so named."""
    return sum(v[3] for (f, _l, name), v in stats.items()
               if name == funcname and f.endswith(path_suffix))


def profiled(fn: Callable, src_root: str):
    """Run ``fn`` under cProfile; returns (result, wall, stats, self_s)."""
    import cProfile

    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    try:
        result = fn()
    finally:
        prof.disable()
    wall = time.perf_counter() - t0
    prof.create_stats()
    stats = prof.stats
    return result, wall, stats, attribute(stats, classifier(src_root))


# ------------------------------------------------------------------ probes --

def _wrap(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    elif isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _counting(counts: Dict[str, float], key: str,
              extra: Optional[Callable] = None):
    def make(fn):
        @functools.wraps(fn)
        def _perfbench_probe(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            result = fn(*args, **kwargs)
            if extra is not None:
                extra(counts, result)
            return result
        return _perfbench_probe
    return make


def _count_faults(counts: Dict[str, float], outcome) -> None:
    counts["faults"] = (counts.get("faults", 0) + outcome.minor_faults
                        + outcome.major_faults + outcome.cow_faults)


def install_counters(counts: Dict[str, float]) -> None:
    """Count calls into the layers' public entry points.

    Generator functions are counted per call (one per operation
    started), not per resumption.
    """
    from repro.core.mm_template import MMTemplateRegistry
    from repro.core.repurpose import Repurposer
    from repro.criu.restore import CRIUEngine
    from repro.mem.address_space import AddressSpace
    from repro.mem.pools import MemoryPool
    from repro.mem.trace import AccessTrace
    from repro.serverless.base import ServerlessPlatform
    from repro.serverless.metrics import LatencyRecorder
    from repro.workloads.functions import FunctionProfile

    _wrap(AddressSpace, "access",
          _counting(counts, "accesses", _count_faults))
    _wrap(MemoryPool, "fetch_time", _counting(counts, "fetches"))
    _wrap(MMTemplateRegistry, "mmt_attach", _counting(counts, "attaches"))
    _wrap(CRIUEngine, "restore_process_state", _counting(counts, "restores"))
    _wrap(Repurposer, "repurpose", _counting(counts, "repurposes"))
    _wrap(ServerlessPlatform, "invoke", _counting(counts, "invokes"))
    _wrap(LatencyRecorder, "record", _counting(counts, "records"))
    _wrap(FunctionProfile, "make_trace", _counting(counts, "traces"))
    _wrap(AccessTrace, "generate", _counting(counts, "traces_built"))
    _wrap(AccessTrace, "jittered", _counting(counts, "traces_built"))


def install_parallel_timers(box: Dict, src_root: str,
                            profile_shards: bool) -> None:
    """Time the sharded runner's parent-side phases and each shard.

    Shard workers are forked, so the wrapped ``_shard_worker`` runs in
    the worker and returns its timings on the outcome it sends back.
    With ``profile_shards`` each worker also profiles itself and
    returns its per-layer self times and probe counts.
    """
    import repro.obs.merge as obs_merge
    import repro.serverless.parallel as par
    from repro.obs.registry import MetricsRegistry

    box.setdefault("plan_s", 0.0)
    box.setdefault("merge_s", 0.0)
    box.setdefault("shards", [])

    def timed(key: str):
        def make(fn):
            @functools.wraps(fn)
            def _perfbench_probe(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    box[key] += time.perf_counter() - t0
            return _perfbench_probe
        return make

    par.plan_shards = timed("plan_s")(par.plan_shards)
    obs_merge.merge_shard_tracers = timed("merge_s")(
        obs_merge.merge_shard_tracers)
    _wrap(MetricsRegistry, "merge_from", timed("merge_s"))

    original_merge = par._merge_outcomes

    @functools.wraps(original_merge)
    def merge(spec, workload, warmup, plan, outcomes):
        box["shards"] = [getattr(o, "perfbench", None) for o in outcomes]
        return original_merge(spec, workload, warmup, plan, outcomes)

    par._merge_outcomes = timed("merge_s")(merge)

    original = par._shard_worker

    # functools.wraps keeps the qualified name, so the pool pickles this
    # wrapper by reference and the forked worker resolves it.
    @functools.wraps(original)
    def shard_worker(*args):
        counts: Dict[str, float] = {}
        t0 = time.perf_counter()
        c0 = time.process_time()
        if profile_shards:
            sys.setprofile(None)      # drop the profiler inherited by fork
            install_counters(counts)
            outcome, _wall, _stats, self_s = profiled(
                lambda: original(*args), src_root)
        else:
            outcome, self_s = original(*args), None
        outcome.perfbench = {
            "wall_s": time.perf_counter() - t0,
            "cpu_s": time.process_time() - c0,
            "self_s": self_s,
            "counts": counts,
        }
        return outcome

    par._shard_worker = shard_worker


def critical_path(parent: Dict[str, float], wait_s: float,
                  shards: List[Dict]) -> Dict[str, float]:
    """Layer self times of a sharded run along its critical path.

    The parent's time blocked on the worker pool (``wait_s``, charged
    to ``parallel`` by :func:`attribute`) is replaced by the slowest
    shard's own layer breakdown; what the wait exceeds that shard by
    (fork, pickling, result transfer) stays with ``parallel``.
    """
    out = dict(parent)
    slowest = max(shards, key=lambda s: s["wall_s"])
    shard_total = sum(slowest["self_s"].values())
    out["parallel"] = out.get("parallel", 0.0) - wait_s
    for layer, secs in slowest["self_s"].items():
        out[layer] = out.get(layer, 0.0) + secs
    out["parallel"] += max(0.0, wait_s - shard_total)
    return out
