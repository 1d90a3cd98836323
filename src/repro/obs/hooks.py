"""The hook bus: one slot per instrumentation event — dependency-free.

Instrumented modules (pools, address spaces, page caches, accounting,
cgroups, the event engine, the serverless platforms, the control plane,
the fault injector) import this module and guard every hook call once::

    if hooks.on_pool_alloc is not None:
        hooks.on_pool_alloc(self, npages)

Each ``on_*`` attribute below is a slot.  It holds ``None`` unless an
installed subscriber defines a method of that name: then it holds that
bound method, or, when several subscribers define it, a fan-out that
calls each one in install order.  Two subscribers exist: the runtime
sanitizer (:class:`repro.analysis.sanitizer.Sanitizer`) checks the
kernel bookkeeping and the observer
(:class:`repro.obs.observer.Observability`) explains it.  A slot no
subscriber defines stays ``None``, so the disabled path costs one
global load and an ``is`` check — host-side only, never simulated time —
and an observer-only run makes no sanitizer calls.

``tracer`` and ``registry`` are the observer's span tracer and metrics
registry, or ``None``: code with richer context (the invocation
lifecycle, the control plane) reads them directly, as in
``tracer = hooks.tracer``.

Keeping this module free of imports avoids cycles: ``repro.mem`` and
``repro.sim`` may import it without pulling in the subscribers (which
themselves import them).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import SpanTracer

Hook = Optional[Callable[..., None]]

# -- memory: both subscribers -------------------------------------------------
on_accountant_charge: Hook = None   # (accountant, category, delta_bytes)
on_page_cache_delta: Hook = None    # (cache, delta_pages)
on_pool_alloc: Hook = None          # (pool, npages)
# -- kernel state and the engine: the sanitizer ---------------------------------
on_cgroup_created: Hook = None      # (cgroup)
on_cgroup_proc: Hook = None         # (cgroup, pid, added)
on_local_charge: Hook = None        # (space_or_ept, delta_pages)
on_pte_bound: Hook = None           # (vma_or_ept)
on_pte_cow: Hook = None             # (vma_or_ept, n_cow)
on_sim_event: Hook = None           # (sim, when)
# -- pools, VMs, restore paths, dispatch, faults: the observer ------------------
on_criu_restore: Hook = None        # (image, t0, t1, ctx)
on_dispatch: Hook = None            # (node)
on_fault_event: Hook = None         # (kind, target, t)
on_fault_revert: Hook = None        # (kind, target, t)
on_invocation: Hook = None          # (platform_name, result)
on_mmt_attach: Hook = None          # (template, t0, t1, ctx)
on_pool_fetch: Hook = None          # (pool, npages, seconds)
on_pool_read: Hook = None           # (pool, nloads)
on_proc_state_restore: Hook = None  # (image, t0, t1, ctx)
on_retire: Hook = None              # (platform, node, function, reason, t0, t1)
on_vm_event: Hook = None            # (event, vm_name, t)
on_vm_io: Hook = None               # (mode, nbytes, seconds, ctx)

#: The observer's span tracer (spans level) and metrics registry.
tracer: Optional["SpanTracer"] = None
registry: Optional["MetricsRegistry"] = None

#: Every slot name, in declaration order.
SLOTS: Tuple[str, ...] = tuple(
    name for name in tuple(globals()) if name.startswith("on_"))

#: Installed subscribers, in install order.
_subscribers: Tuple[Any, ...] = ()


def install(subscriber: Any) -> Any:
    """Subscribe ``subscriber``; returns the one it replaced, or None.

    A subscriber replaces the installed one of the same class in place
    (so an inner ``observed()`` shadows the outer observer and a
    sanitizer stays subscribed); otherwise it joins at the end.
    """
    global _subscribers
    subs = list(_subscribers)
    previous = None
    for i, sub in enumerate(subs):
        if type(sub) is type(subscriber):
            previous, subs[i] = sub, subscriber
            break
    else:
        subs.append(subscriber)
    _subscribers = tuple(subs)
    _rebind()
    return previous


def uninstall(subscriber: Any, previous: Any = None) -> None:
    """Unsubscribe ``subscriber``; ``previous`` (what :func:`install`
    returned) takes its place."""
    global _subscribers
    subs = [previous if sub is subscriber else sub for sub in _subscribers]
    _subscribers = tuple(sub for sub in subs if sub is not None)
    _rebind()


def _rebind() -> None:
    """Recompute every slot and context attribute from the subscribers."""
    slots = globals()
    for name in SLOTS:
        methods = tuple(method for method in (
            getattr(sub, name, None) for sub in _subscribers)
            if method is not None)
        slots[name] = (None if not methods else methods[0]
                       if len(methods) == 1 else _fan_out(methods))
    for name in ("tracer", "registry"):
        slots[name] = next((value for value in (
            getattr(sub, name, None) for sub in _subscribers)
            if value is not None), None)


def _fan_out(methods: Tuple[Callable[..., None], ...]
             ) -> Callable[..., None]:
    def fan_out(*args: Any) -> None:
        for method in methods:
            method(*args)
    return fan_out
