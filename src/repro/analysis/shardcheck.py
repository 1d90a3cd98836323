"""Shard-safety certification: the interprocedural deep rules.

``python -m repro.cli lint --deep`` composes the call graph
(:mod:`repro.analysis.callgraph`), the purity/effect inference
(:mod:`repro.analysis.effects`) and the taint analysis
(:mod:`repro.analysis.dataflow`) into one :class:`DeepContext`, then
runs five whole-program rules over it:

* **SIM006** — shard-unsafe global mutable state: a module- or
  class-level mutable object written by code reachable from the
  simulation roots.  Every shard of a parallel run has its own worker
  process, but one process still runs simulations one after another
  (a sweep's serial path, the test suite): state such an object
  carries from one run into the next makes a run's result depend on
  what ran before it.  A deterministic memo whose value is a pure
  function of its key may be declared safe with
  ``# simlint: shard-safe (reason)`` on the defining line.
* **SIM007** — non-associative merge on a ``merge``/``merge_from``
  path: the registry merge infrastructure assumes every merge is
  associative and commutative, so shard order cannot matter.  Plain
  overwrites of an accumulator with the other side's value, or
  subtraction/division folds, break that contract.
* **SIM008** — order-sensitive float accumulation over an unordered
  iterable: float addition is not associative, so ``total += x`` over
  a ``set`` gives bit-different sums per iteration order even though
  the *math* is order-free.
* **SIM009** — a hook-bus slot used without the zero-cost-when-off
  guard (``if hooks.on_pool_alloc is not None:``, the same test on
  ``hooks.tracer`` or ``hooks.registry``, or a guarded local alias):
  unguarded calls crash when no subscriber is installed.
* **SIM010** — interprocedural wall-clock/RNG/environ taint reaching a
  sim sink: the whole-program version of SIM001/SIM002, catching the
  helper-function indirection the per-file rules cannot see (the PR 6
  ``RetryPolicy`` jitter bug class).

All five respect ``[tool.simlint]`` per-rule excludes, flow through the
standard baseline machinery (deep findings land in ``deep_baseline``),
and are exercised positively and negatively by
``tests/analysis/test_deep_rules.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, build_callgraph
from repro.analysis.config import SimlintConfig
from repro.analysis.dataflow import TaintAnalysis, analyze_taint
from repro.analysis.effects import (SHARD_SAFE_PRAGMA, EffectReport,
                                    infer_effects)
from repro.analysis.rules import (ParsedModule, Rule, Violation,
                                  _SetScope, _collect_set_bindings,
                                  _dotted_parts, _import_aliases, register)

#: The hook-bus module: each of its attributes is a slot to guard-check.
HOOK_MODULES = frozenset({"repro.obs.hooks"})

#: Hook-bus functions that are not slots (called unguarded by design).
HOOK_FUNCTIONS = frozenset({"install", "uninstall"})


@dataclass
class DeepContext:
    """Everything the deep rules share, computed once per lint run."""

    modules: Dict[str, ParsedModule]
    config: SimlintConfig
    graph: CallGraph
    effects: EffectReport
    taint: TaintAnalysis
    sim_reachable: Set[str]
    roots: Tuple[str, ...]

    def module_for(self, relpath: str) -> Optional[ParsedModule]:
        return self.modules.get(relpath)


def build_deep_context(modules: Dict[str, ParsedModule],
                       config: SimlintConfig) -> DeepContext:
    """Compose call graph, effects and taint for one module set."""
    graph = build_callgraph(modules)
    effects = infer_effects(modules, graph)
    roots = tuple(config.deep_roots)
    taint = analyze_taint(modules, graph, roots)
    return DeepContext(modules=modules, config=config, graph=graph,
                       effects=effects, taint=taint,
                       sim_reachable=graph.reachable(roots), roots=roots)


class DeepRule(Rule):
    """Base for whole-program rules (scope ``deep``)."""

    scope = "deep"

    def _deep_violation(self, context: DeepContext, relpath: str,
                        line: int, col: int, message: str) -> Violation:
        module = context.module_for(relpath)
        snippet = module.snippet(line) if module is not None else ""
        return Violation(rule_id=self.rule_id, relpath=relpath, line=line,
                         col=col, message=message, snippet=snippet)


# -- SIM006: shard-unsafe global mutable state ---------------------------------


@register
class ShardUnsafeGlobalRule(DeepRule):
    rule_id = "SIM006"
    title = "shard-unsafe global mutable state"
    rationale = (
        "A module- or class-level mutable object written by code "
        "reachable from the simulation roots outlives the run that "
        "wrote it.  One process runs simulations one after another (a "
        "sweep's serial path, the test suite), so memo state carried "
        "from one run into the next makes a result depend on what ran "
        "before it.  Make the state instance-owned, key it immutably, "
        "or — for a deterministic memo whose value is a pure function "
        "of its key — declare it with `# simlint: shard-safe (reason)` "
        "on the defining line.")

    def check_deep(self, context: DeepContext) -> Iterator[Violation]:
        for qualname in sorted(context.effects.shared):
            obj = context.effects.shared[qualname]
            if obj.shard_safe:
                continue
            writers = [a for a in context.effects.writers_of(qualname)
                       if a.function in context.sim_reachable]
            if not writers:
                continue
            writer = writers[0]
            chain = context.graph.call_chain(context.roots,
                                            writer.function)
            via = f" (via {' -> '.join(chain)})" if chain else ""
            yield self._deep_violation(
                context, obj.relpath, obj.line, 0,
                f"global mutable '{qualname}' is written by "
                f"sim-reachable {writer.function} at "
                f"{writer.relpath}:{writer.line}{via} — shard-unsafe; "
                f"make it instance-owned or mark the definition "
                f"`# {SHARD_SAFE_PRAGMA} (reason)`")


# -- SIM007: non-associative merge --------------------------------------------


_MERGE_NAMES = frozenset({"merge", "merge_from", "merge_into"})
_ORDER_FREE_COMBINES = frozenset({"max", "min", "union", "sorted"})
_NON_ASSOC_OPS = (ast.Sub, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)


def _names_in(node: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _calls_in(node: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            parts = _dotted_parts(n.func)
            if parts:
                out.add(parts[-1])
    return out


@register
class NonAssociativeMergeRule(DeepRule):
    rule_id = "SIM007"
    title = "non-associative merge on a registry/merge_from path"
    rationale = (
        "Shard merging (obs registry, LogHistogram.merge_from, the "
        "sweep runner) relies on every merge being associative and "
        "commutative so shard order cannot change results.  Inside a "
        "merge/merge_from method, overwriting an accumulator with the "
        "other side's value, or folding with subtraction/division, "
        "makes A.merge(B) != B.merge(A).  Combine with +, max/min, "
        "or set union instead.")

    def check_deep(self, context: DeepContext) -> Iterator[Violation]:
        for qualname in sorted(context.graph.functions):
            info = context.graph.functions[qualname]
            if info.node.name not in _MERGE_NAMES or \
                    info.class_qualname is None:
                continue
            yield from self._check_merge(context, qualname)

    def _check_merge(self, context: DeepContext,
                     qualname: str) -> Iterator[Violation]:
        info = context.graph.functions[qualname]
        args = [a.arg for a in info.node.args.args]
        if len(args) < 2:
            return
        other = args[1]
        self_derived: Set[str] = {"self"}
        other_derived: Set[str] = {other}
        node: ast.AST
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                names = _names_in(node.value)
                target_name = node.targets[0].id
                if names & self_derived:
                    self_derived.add(target_name)
                elif names & other_derived:
                    other_derived.add(target_name)
        for node in ast.walk(info.node):
            if isinstance(node, ast.AugAssign) and \
                    isinstance(node.op, _NON_ASSOC_OPS):
                if _names_in(node.value) & other_derived and \
                        self._is_self_target(node.target, self_derived):
                    yield self._deep_violation(
                        context, info.relpath, node.lineno,
                        node.col_offset,
                        f"{qualname} folds the other shard's value with "
                        f"a non-associative operator — merge order "
                        f"changes the result")
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if not self._is_self_target(target, self_derived):
                        continue
                    value_names = _names_in(node.value)
                    if not (value_names & other_derived):
                        continue
                    if value_names & self_derived:
                        continue
                    if _calls_in(node.value) & _ORDER_FREE_COMBINES:
                        continue
                    yield self._deep_violation(
                        context, info.relpath, node.lineno,
                        node.col_offset,
                        f"{qualname} overwrites an accumulator with the "
                        f"other shard's value — last merge wins, so "
                        f"shard order changes the result (combine with "
                        f"+=, max/min, or a histogram merge)")

    @staticmethod
    def _is_self_target(target: ast.expr, self_derived: Set[str]) -> bool:
        node: ast.expr = target
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return isinstance(node, ast.Name) and node.id in self_derived


# -- SIM008: order-sensitive float accumulation --------------------------------


@register
class FloatAccumulationRule(DeepRule):
    rule_id = "SIM008"
    title = "order-sensitive float accumulation over an unordered iterable"
    rationale = (
        "Float addition is not associative: `total += x` over a set "
        "yields bit-different sums for different iteration orders even "
        "though the mathematical sum is order-free, so per-shard "
        "results cannot be replayed bit-identically.  Iterate "
        "sorted(...) (or accumulate integers) before folding floats.")

    def check_deep(self, context: DeepContext) -> Iterator[Violation]:
        for qualname in sorted(context.graph.functions):
            info = context.graph.functions[qualname]
            module = context.module_for(info.relpath)
            if module is None:
                continue
            scope = _SetScope()
            _collect_set_bindings(info.node.body, scope)
            float_names = self._float_accumulators(info.node)
            node: ast.AST
            for node in ast.walk(info.node):
                if not isinstance(node, ast.For) or \
                        not scope.is_set(node.iter):
                    continue
                for sub in ast.walk(node):
                    if isinstance(sub, ast.AugAssign) and \
                            isinstance(sub.op, ast.Add) and \
                            isinstance(sub.target, ast.Name) and \
                            sub.target.id in float_names:
                        yield self._deep_violation(
                            context, info.relpath, sub.lineno,
                            sub.col_offset,
                            f"float accumulator '{sub.target.id}' is "
                            f"folded over an unordered set in "
                            f"{qualname} — float addition is not "
                            f"associative; iterate sorted(...)")

    @staticmethod
    def _float_accumulators(func: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(func):
            if not isinstance(node, ast.Assign):
                continue
            is_float = (isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, float))
            if isinstance(node.value, ast.Call):
                parts = _dotted_parts(node.value.func)
                if parts == ["float"]:
                    is_float = True
            if not is_float:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names


# -- SIM009: unguarded hook call ----------------------------------------------


@register
class UnguardedHookRule(DeepRule):
    rule_id = "SIM009"
    title = "hook-bus slot used without the zero-cost-when-off guard"
    rationale = (
        "Instrumented modules must guard every use of a hook-bus slot "
        "with `if hooks.<slot> is not None:` (or a checked local "
        "alias): a slot is None unless a subscriber (the sanitizer or "
        "the observer) defines it, so an unguarded call crashes the "
        "common case, and the guard is what keeps the disabled-path "
        "cost at one load + one `is` check.")

    def check_deep(self, context: DeepContext) -> Iterator[Violation]:
        for relpath in sorted(context.modules):
            module = context.modules[relpath]
            modname_locals = self._hook_locals(module)
            if not modname_locals:
                continue
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    yield from self._check_scope(
                        context, module, node.body, modname_locals)
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                            yield from self._check_scope(
                                context, module, item.body,
                                modname_locals)

    @staticmethod
    def _hook_locals(module: ParsedModule) -> Set[str]:
        """Local names bound to a hook-slot module in this file."""
        return {name for name, target
                in _import_aliases(module.tree).items()
                if target in HOOK_MODULES}

    # A "hook expression" is a slot `<mod>.<slot>` (key "<mod>.<slot>")
    # or a local alias assigned from one (key "<name>").  A call rooted
    # at an unguarded hook expression is a violation.

    def _check_scope(self, context: DeepContext, module: ParsedModule,
                     body: Sequence[ast.stmt],
                     hook_mods: Set[str]) -> Iterator[Violation]:
        aliases: Set[str] = set()
        yield from self._check_body(context, module, body, hook_mods,
                                    aliases, frozenset())

    def _slot_key(self, node: ast.expr, hook_mods: Set[str],
                    aliases: Set[str]) -> Optional[str]:
        """Guard key if ``node`` denotes a hook slot, else None."""
        parts = _dotted_parts(node)
        if not parts:
            return None
        if len(parts) == 1 and parts[0] in aliases:
            return parts[0]
        if len(parts) == 2 and parts[0] in hook_mods and \
                parts[1] not in HOOK_FUNCTIONS:
            return f"{parts[0]}.{parts[1]}"
        return None

    def _guards_from_test(self, test: ast.expr, hook_mods: Set[str],
                          aliases: Set[str]
                          ) -> Tuple[Set[str], Set[str]]:
        """(guarded-if-true, guarded-if-false) hook keys in a test."""
        pos: Set[str] = set()
        neg: Set[str] = set()
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                p, _ = self._guards_from_test(value, hook_mods, aliases)
                pos |= p
            return pos, neg
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            p, n = self._guards_from_test(test.operand, hook_mods,
                                          aliases)
            return n, p
        if isinstance(test, ast.Compare) and len(test.ops) == 1 and \
                isinstance(test.comparators[0], ast.Constant) and \
                test.comparators[0].value is None:
            key = self._slot_key(test.left, hook_mods, aliases)
            if key is not None:
                if isinstance(test.ops[0], ast.IsNot):
                    pos.add(key)
                elif isinstance(test.ops[0], ast.Is):
                    neg.add(key)
            return pos, neg
        key = self._slot_key(test, hook_mods, aliases)
        if key is not None:
            pos.add(key)
        return pos, neg

    @staticmethod
    def _terminates(body: Sequence[ast.stmt]) -> bool:
        return bool(body) and isinstance(
            body[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break))

    def _check_body(self, context: DeepContext, module: ParsedModule,
                    body: Sequence[ast.stmt], hook_mods: Set[str],
                    aliases: Set[str], guarded: FrozenSet[str]
                    ) -> Iterator[Violation]:
        live: Set[str] = set(guarded)
        for stmt in body:
            if isinstance(stmt, ast.If):
                pos, neg = self._guards_from_test(stmt.test, hook_mods,
                                                 aliases)
                yield from self._check_expr(context, module, stmt.test,
                                            hook_mods, aliases, live)
                yield from self._check_body(
                    context, module, stmt.body, hook_mods, aliases,
                    frozenset(live | pos))
                yield from self._check_body(
                    context, module, stmt.orelse, hook_mods, aliases,
                    frozenset(live | neg))
                if self._terminates(stmt.body):
                    live |= neg
                if stmt.orelse and self._terminates(stmt.orelse):
                    live |= pos
                continue
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                value_key = self._slot_key(stmt.value, hook_mods,
                                             aliases)
                live.discard(name)
                if value_key is not None:
                    aliases.add(name)
                    if value_key in live:
                        live.add(name)
                else:
                    aliases.discard(name)
                yield from self._check_expr(context, module, stmt.value,
                                            hook_mods, aliases, live)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                yield from self._check_expr(context, module, stmt.iter,
                                            hook_mods, aliases, live)
                yield from self._check_body(context, module, stmt.body,
                                            hook_mods, aliases,
                                            frozenset(live))
                yield from self._check_body(context, module, stmt.orelse,
                                            hook_mods, aliases,
                                            frozenset(live))
                continue
            if isinstance(stmt, ast.While):
                yield from self._check_expr(context, module, stmt.test,
                                            hook_mods, aliases, live)
                yield from self._check_body(context, module, stmt.body,
                                            hook_mods, aliases,
                                            frozenset(live))
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    yield from self._check_expr(
                        context, module, item.context_expr, hook_mods,
                        aliases, live)
                yield from self._check_body(context, module, stmt.body,
                                            hook_mods, aliases,
                                            frozenset(live))
                continue
            if isinstance(stmt, ast.Try):
                for part in (stmt.body, stmt.orelse, stmt.finalbody):
                    yield from self._check_body(context, module, part,
                                                hook_mods, aliases,
                                                frozenset(live))
                for handler in stmt.handlers:
                    yield from self._check_body(context, module,
                                                handler.body, hook_mods,
                                                aliases, frozenset(live))
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_body(context, module, stmt.body,
                                            hook_mods, aliases,
                                            frozenset(live))
                continue
            yield from self._check_expr(context, module, stmt, hook_mods,
                                        aliases, live)

    def _check_expr(self, context: DeepContext, module: ParsedModule,
                    node: ast.AST, hook_mods: Set[str],
                    aliases: Set[str], live: Set[str]
                    ) -> Iterator[Violation]:
        for sub in ast.walk(node):
            if isinstance(sub, ast.IfExp):
                pos, _ = self._guards_from_test(sub.test, hook_mods,
                                                aliases)
                if pos:
                    # Guarded conditional value: body is safe under the
                    # test; check it separately and skip its subtree.
                    yield from self._check_expr(
                        context, module, sub.body, hook_mods, aliases,
                        live | pos)
                    yield from self._check_expr(
                        context, module, sub.orelse, hook_mods, aliases,
                        live)
                    yield from self._check_expr(
                        context, module, sub.test, hook_mods, aliases,
                        live)
                    return
            if not isinstance(sub, ast.Call):
                continue
            parts = _dotted_parts(sub.func)
            if not parts:
                continue
            root_key: Optional[str] = None
            if parts[0] in aliases:
                root_key = parts[0]
            elif len(parts) >= 2 and parts[0] in hook_mods and \
                    parts[1] not in HOOK_FUNCTIONS:
                root_key = f"{parts[0]}.{parts[1]}"
            if root_key is None or root_key in live:
                continue
            yield self._deep_violation(
                context, module.relpath, sub.lineno, sub.col_offset,
                f"hook call through '{root_key}' without an "
                f"`is not None` guard — wrap it in "
                f"`if {root_key} is not None:` (zero-cost-when-off "
                f"contract)")


# -- SIM010: interprocedural nondeterminism reaching a sim sink ----------------


@register
class TaintReachesSimRule(DeepRule):
    rule_id = "SIM010"
    title = "interprocedural wall-clock/RNG/environ taint reaching a sim sink"
    rationale = (
        "The per-file rules (SIM001/SIM002) cannot see a helper whose "
        "*callers* are simulation code — exactly how the PR 6 "
        "RetryPolicy drew backoff jitter from module-level RNG state.  "
        "This rule propagates taint from every wall-clock, "
        "global-RNG and os.environ read over the project call graph "
        "and fires when the containing function is reachable from a "
        "simulation root, i.e. the nondeterminism can feed simulated "
        "time, metrics, or dispatch decisions.")

    def check_deep(self, context: DeepContext) -> Iterator[Violation]:
        for flow in context.taint.flows():
            source = flow.source
            yield self._deep_violation(
                context, source.relpath, source.line, source.col,
                f"{source.kind} source {source.detail} is reachable "
                f"from simulation code: {flow.render_chain()} — route "
                f"it through the virtual clock / a seeded substream, "
                f"or lift it out of the sim path")
