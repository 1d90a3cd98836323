"""The active observability object: metrics registry + optional tracer.

Two levels:

* ``"metrics"`` — counters/gauges/histograms only (cheap; per-event cost
  is a dict update);
* ``"spans"`` — metrics plus the virtual-time span tracer.

Installation mirrors :mod:`repro.analysis.sanitizer`: a module-level
``hooks.active`` slot, ``observed(...)`` as the context manager, and
``maybe_observed()`` gated on the ``REPRO_OBS`` environment variable so
the whole test suite (or any run) can be wrapped without code changes.

The contract shared with the sanitizer and the host-side hot paths:
observers read simulated state, they never add Delays, RNG draws or any
other simulated effect — results with observability on are bit-identical to
results with it off (``tests/integration/test_golden_determinism.py``).
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Optional, Tuple

from repro.obs import hooks
from repro.obs.registry import MetricKey, MetricsRegistry
from repro.obs.trace import SpanTracer, TraceContext

#: Valid --obs-level / REPRO_OBS values ("off" means: don't install).
LEVELS = ("off", "metrics", "spans")


class Observability:
    """Holds the registry (+ tracer) and receives every hook call.

    Instrumented modules call the ``on_*`` methods below through
    ``hooks.active``; platform code with richer context (the invocation
    lifecycle) uses :attr:`tracer` and :attr:`registry` directly.

    Hot hooks resolve their series keys once per pool, memory
    category, image, template layout or node, and build each span's
    ``args`` once per image, template layout, start kind or dispatch
    target: every span of that object shares one dict, so callers must
    treat span args as read-only.  A shared dict is also pickled once
    per shard trace, through pickle's memo.
    """

    def __init__(self, level: str = "spans",
                 registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[SpanTracer] = None):
        if level not in LEVELS or level == "off":
            raise ValueError(
                f"observability level must be one of {LEVELS[1:]}, "
                f"got {level!r}")
        self.level = level
        self.registry = registry if registry is not None else \
            MetricsRegistry()
        self.tracer = tracer if tracer is not None else (
            SpanTracer() if level == "spans" else None)
        # (platform, function, start kind) -> on_invocation's series keys.
        self._invocation_keys: Dict[Tuple[str, str, str],
                                    Tuple[MetricKey, ...]] = {}
        key = self.registry.key
        self._criu_keys = (key("criu_restores_total"),
                           key("criu_restore_bytes_total"),
                           key("criu_restore_seconds"))
        self._proc_restore_key = key("proc_state_restores_total")
        self._mmt_keys = (key("mmt_attaches_total"),
                          key("mmt_attach_pages_total"),
                          key("mmt_attach_seconds"))
        # Per object, keyed by identity: series keys, and the values and
        # span args that stay fixed for the object's life.
        self._pool_keys: Dict[object, Tuple[MetricKey, ...]] = {}
        self._charge_keys: Dict[str, Tuple[MetricKey, MetricKey]] = {}
        self._image_facts: Dict[object, Tuple[int, Dict, Dict]] = {}
        self._template_facts: Dict[Tuple, Tuple[int, Dict]] = {}
        self._dispatch_keys: Dict[str, MetricKey] = {}
        self._dispatch_args: Dict[Tuple[str, int], Dict] = {}
        self._kind_args: Dict[str, Dict] = {}

    # -- memory subsystem hooks ----------------------------------------------

    def _keys_of_pool(self, pool) -> Tuple[MetricKey, ...]:
        keys = self._pool_keys.get(pool)
        if keys is None:
            key, name = self.registry.key, pool.name
            keys = self._pool_keys[pool] = (
                key("pool_alloc_pages_total", pool=name),
                key("pool_fetches_total", pool=name),
                key("pool_fetch_pages_total", pool=name),
                key("pool_fetch_seconds", pool=name),
                key("pool_read_loads_total", pool=name))
        return keys

    def on_pool_alloc(self, pool, npages: int) -> None:
        self.registry.inc_key(self._keys_of_pool(pool)[0], npages)

    def on_pool_fetch(self, pool, npages: int, seconds: float) -> None:
        _alloc, fetches, pages, secs, _reads = self._keys_of_pool(pool)
        reg = self.registry
        reg.inc_key(fetches)
        reg.inc_key(pages, npages)
        reg.observe_key(secs, seconds)

    def on_pool_read(self, pool, nloads: int) -> None:
        self.registry.inc_key(self._keys_of_pool(pool)[4], nloads)

    def on_page_cache_delta(self, cache, delta: int) -> None:
        if delta > 0:
            self.registry.inc("page_cache_inserted_pages_total", delta,
                              cache=cache.name)
        else:
            self.registry.inc("page_cache_evicted_pages_total", -delta,
                              cache=cache.name)

    def on_mem_charge(self, category: str, delta_bytes: int) -> None:
        keys = self._charge_keys.get(category)
        if keys is None:
            key = self.registry.key
            keys = self._charge_keys[category] = (
                key("mem_charge_events_total", category=category),
                key("mem_category_bytes", category=category))
        self.registry.inc_key(keys[0])
        self.registry.add_gauge_key(keys[1], delta_bytes)

    # -- VM hooks -------------------------------------------------------------

    def on_vm_event(self, event: str, vm_name: str, t: float) -> None:
        self.registry.inc("vm_events_total", event=event)
        if self.tracer is not None:
            self.tracer.instant(f"vm_{event}", t,
                                args={"vm": vm_name})

    def on_vm_io(self, mode: str, nbytes: int, seconds: float,
                 ctx: Optional[TraceContext] = None) -> None:
        self.registry.inc("vm_io_bytes_total", nbytes, mode=mode)
        self.registry.inc("vm_io_seconds_total", seconds, mode=mode)

    # -- restore-path hooks ---------------------------------------------------

    def _facts_of_image(self, image) -> Tuple[int, Dict, Dict]:
        """(bytes, criu_restore args, proc_state_restore args)."""
        facts = self._image_facts.get(image)
        if facts is None:
            facts = self._image_facts[image] = (
                image.nbytes,
                {"bytes": image.nbytes, "n_vmas": len(image.vmas)},
                {"n_threads": image.n_threads, "n_fds": image.n_fds})
        return facts

    def on_criu_restore(self, image, t0: float, t1: float,
                        ctx: Optional[TraceContext]) -> None:
        restores, nbytes, seconds = self._criu_keys
        size, args, _ = self._facts_of_image(image)
        reg = self.registry
        reg.inc_key(restores)
        reg.inc_key(nbytes, size)
        reg.observe_key(seconds, t1 - t0)
        if self.tracer is not None:
            self.tracer.span(ctx, "criu_restore", t0, t1, args=args)

    def on_proc_state_restore(self, image, t0: float, t1: float,
                              ctx: Optional[TraceContext]) -> None:
        self.registry.inc_key(self._proc_restore_key)
        if self.tracer is not None:
            self.tracer.span(ctx, "proc_state_restore", t0, t1,
                             args=self._facts_of_image(image)[2])

    def on_mmt_attach(self, template, t0: float, t1: float,
                      ctx: Optional[TraceContext]) -> None:
        # A layout is immutable and replaced on change, so the pair
        # fixes the template's size and pools.
        which = (template, template.layout)
        facts = self._template_facts.get(which)
        if facts is None:
            pages = template.total_pages
            facts = self._template_facts[which] = (pages, {
                "template": template.key, "pages": pages,
                "pool": ",".join(template.layout.pools) or "local"})
        pages, args = facts
        attaches, npages, seconds = self._mmt_keys
        reg = self.registry
        reg.inc_key(attaches)
        reg.inc_key(npages, pages)
        reg.observe_key(seconds, t1 - t0)
        if self.tracer is not None:
            self.tracer.span(ctx, "mmt_attach", t0, t1, args=args)

    # -- dispatch (called from serverless/cluster.py) --------------------------

    def on_dispatch(self, node: str) -> None:
        key = self._dispatch_keys.get(node)
        if key is None:
            key = self._dispatch_keys[node] = self.registry.key(
                "dispatches_total", node=node)
        self.registry.inc_key(key)

    def dispatch_args(self, node: str, attempt: int) -> Dict:
        """The shared args of a ``dispatch`` span."""
        args = self._dispatch_args.get((node, attempt))
        if args is None:
            args = self._dispatch_args[(node, attempt)] = {
                "node": node, "attempt": attempt}
        return args

    def kind_args(self, kind: str) -> Dict:
        """The shared args of an ``acquire`` span."""
        args = self._kind_args.get(kind)
        if args is None:
            args = self._kind_args[kind] = {"kind": kind}
        return args

    # -- fault-domain hooks ---------------------------------------------------

    def on_fault_event(self, kind: str, target: str, t: float) -> None:
        self.registry.inc("faults_injected_total", kind=kind)
        if self.tracer is not None:
            self.tracer.instant(f"fault:{kind}", t,
                                args={"target": target})

    def on_fault_revert(self, kind: str, target: str, t: float) -> None:
        self.registry.inc("faults_reverted_total", kind=kind)
        if self.tracer is not None:
            self.tracer.instant(f"fault:{kind}", t,
                                args={"target": target})

    # -- invocation lifecycle (called from serverless/base.py) -----------------

    def on_invocation(self, platform_name: str, result) -> None:
        which = (platform_name, result.function, result.start_kind)
        keys = self._invocation_keys.get(which)
        if keys is None:
            keys = self._invocation_keys[which] = \
                self._resolve_invocation_keys(*which)
        total, warm, retries, degraded, e2e, startup, exec_ = keys
        reg = self.registry
        reg.inc_key(total)
        reg.inc_key(warm)
        if result.retries:
            reg.inc_key(retries, result.retries)
        if result.degraded:
            reg.inc_key(degraded)
        reg.observe_key(e2e, result.e2e)
        reg.observe_key(startup, result.startup)
        reg.observe_key(exec_, result.exec)

    def _resolve_invocation_keys(self, platform: str, function: str,
                                 kind: str) -> Tuple[MetricKey, ...]:
        key = self.registry.key
        return (
            key("invocations_total", platform=platform, function=function,
                kind=kind),
            key("warm_hits_total" if kind == "warm" else
                "warm_misses_total", platform=platform),
            key("invocation_retries_total", platform=platform),
            key("degraded_invocations_total", platform=platform),
            key("invocation_seconds", platform=platform, phase="e2e"),
            key("invocation_seconds", platform=platform, phase="startup"),
            key("invocation_seconds", platform=platform, phase="exec"),
        )

    def on_retire(self, platform_name: str, function: str,
                  reason: str) -> None:
        self.registry.inc("retires_total", platform=platform_name,
                          reason=reason)


# -- installation -------------------------------------------------------------

def install(level: str = "spans",
            registry: Optional[MetricsRegistry] = None) -> Observability:
    """Install a fresh observer; returns it.  Pair with uninstall()."""
    obs = Observability(level, registry=registry)
    hooks.install(obs)
    return obs


def uninstall(previous: Optional[Observability] = None) -> None:
    hooks.uninstall(previous)


@contextlib.contextmanager
def observed(level: str = "spans",
             registry: Optional[MetricsRegistry] = None,
             tracer: Optional[SpanTracer] = None):
    """Context manager: observe everything inside the block.

    Yields the :class:`Observability`; the previous observer (usually
    None) is restored on exit.  ``tracer`` replaces the fresh tracer of
    the spans level (a shard worker passes one that hands out serial
    trace ids).
    """
    if level == "off":
        yield None
        return
    obs = Observability(level, registry=registry, tracer=tracer)
    previous = hooks.install(obs)
    try:
        yield obs
    finally:
        hooks.uninstall(previous)


def level_from_env() -> str:
    """The level requested by ``REPRO_OBS`` (off unless set).

    ``REPRO_OBS=1`` means full spans (the strictest setting, what the
    golden-determinism CI slice exercises); ``metrics``/``spans`` select
    a level explicitly; empty/``0``/``off`` disable.
    """
    raw = os.environ.get("REPRO_OBS", "").strip().lower()
    if raw in ("", "0", "off", "false"):
        return "off"
    if raw in ("1", "true", "spans"):
        return "spans"
    if raw == "metrics":
        return "metrics"
    raise ValueError(
        f"REPRO_OBS={raw!r}: expected 0/1/off/metrics/spans")


@contextlib.contextmanager
def maybe_observed():
    """Install an observer iff ``REPRO_OBS`` requests one (conftest)."""
    level = level_from_env()
    if level == "off":
        yield None
        return
    with observed(level) as obs:
        yield obs
