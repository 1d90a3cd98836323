"""simlint rule registry and the built-in rules.

Each rule owns an id (``SIM0xx``), a one-line title, and a rationale;
``docs/analysis.md`` documents all of them with examples.  File-scoped
rules see one parsed module at a time; deep-scoped rules (SIM006–SIM010,
defined in :mod:`repro.analysis.shardcheck`) see a whole-program
:class:`~repro.analysis.shardcheck.DeepContext` — call graph, effect
inference, taint — and run only under ``lint --deep``.

The rules encode this reproduction's determinism contract:

* SIM001 — no wall-clock time outside the bench harness.
* SIM002 — no unseeded/global RNG: every random draw flows through
  :class:`repro.sim.rng.SeededRNG` or an explicitly seeded generator.
* SIM003 — no iteration over unordered ``set`` values where the order
  can leak into scheduling/eviction/dispatch decisions.
* SIM004 — no direct mutation of frame/charge state behind the
  accounting APIs (:mod:`repro.mem.accounting`, :mod:`repro.kernel.cgroup`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Set, Type)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.shardcheck import DeepContext


@dataclass(frozen=True)
class Violation:
    """One rule hit, anchored to a source line."""

    rule_id: str
    relpath: str
    line: int
    col: int
    message: str
    snippet: str

    def format(self) -> str:
        return (f"{self.relpath}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}")


@dataclass
class ParsedModule:
    """A parsed lint target: AST plus raw source lines."""

    relpath: str
    tree: ast.Module
    lines: Sequence[str]

    def snippet(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class: subclass, set metadata, implement a check method."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""
    scope: str = "file"           # "file" | "deep"

    def check_file(self, module: ParsedModule) -> Iterator[Violation]:
        return iter(())

    def check_deep(self, context: "DeepContext") -> Iterator[Violation]:
        return iter(())

    def _violation(self, module: ParsedModule, node: ast.AST,
                   message: str) -> Violation:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Violation(rule_id=self.rule_id, relpath=module.relpath,
                         line=lineno, col=col, message=message,
                         snippet=module.snippet(lineno))


REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    # The deep (interprocedural) rules live in repro.analysis.shardcheck
    # and register themselves on import; imported lazily here to keep
    # rules.py free of a circular dependency on the deep machinery.
    from repro.analysis import shardcheck  # noqa: F401
    return [REGISTRY[rule_id]() for rule_id in sorted(REGISTRY)]


# -- shared AST helpers ------------------------------------------------------


def _dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None for non-name chains."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted path, from the module's imports."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(
                    ".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.level == 0:
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def _canonical_call(node: ast.Call, aliases: Dict[str, str]
                    ) -> Optional[str]:
    """Canonical dotted path of a call target, resolving import aliases."""
    parts = _dotted_parts(node.func)
    if not parts:
        return None
    head = aliases.get(parts[0], parts[0])
    return ".".join([head] + parts[1:])


# -- SIM001: wall-clock time --------------------------------------------------


@register
class WallClockRule(Rule):
    rule_id = "SIM001"
    title = "wall-clock time in simulated code"
    rationale = (
        "Simulated results must depend only on the virtual clock and the "
        "seeded RNG streams; host wall-clock reads make runs "
        "non-reproducible.  Bench-harness timing is configured via a "
        "[tool.simlint.per_rule.SIM001] path exclude, not a code special "
        "case.")

    BANNED = frozenset({
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns", "time.clock_gettime",
        "time.clock_gettime_ns", "time.sleep", "time.localtime",
        "time.gmtime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    })

    def check_file(self, module: ParsedModule) -> Iterator[Violation]:
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node, aliases)
            if canonical in self.BANNED:
                yield self._violation(
                    module, node,
                    f"wall-clock call {canonical}() — simulated code must "
                    f"use the virtual clock (Simulator.now)")


# -- SIM002: unseeded randomness ----------------------------------------------


@register
class UnseededRandomRule(Rule):
    rule_id = "SIM002"
    title = "unseeded / global-state RNG"
    rationale = (
        "The stdlib `random` module functions and `numpy.random.*` "
        "module-level functions draw from hidden global state, so results "
        "depend on import order and interpreter history.  Use "
        "repro.sim.rng.SeededRNG or numpy.random.default_rng(seed).")

    ALLOWED = frozenset({
        "random.Random", "random.SystemRandom",
        "numpy.random.default_rng", "numpy.random.Generator",
        "numpy.random.SeedSequence", "numpy.random.PCG64",
        "numpy.random.Philox",
    })

    def check_file(self, module: ParsedModule) -> Iterator[Violation]:
        aliases = _import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            canonical = _canonical_call(node, aliases)
            if canonical is None or canonical in self.ALLOWED:
                continue
            if canonical.startswith("random.") and canonical.count(".") == 1:
                yield self._violation(
                    module, node,
                    f"global-state RNG call {canonical}() — use a seeded "
                    f"generator (repro.sim.rng.SeededRNG)")
            elif canonical.startswith("numpy.random."):
                yield self._violation(
                    module, node,
                    f"numpy global RNG call {canonical}() — use "
                    f"numpy.random.default_rng(seed)")


# -- SIM003: unordered-set iteration ------------------------------------------


def _is_set_constructor(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id in (
                "set", "frozenset", "Set", "FrozenSet", "AbstractSet",
                "MutableSet"):
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in (
                "Set", "FrozenSet", "AbstractSet", "MutableSet"):
            return True
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and "set" in sub.value.lower():
            return True
    return False


_SET_METHODS = frozenset({
    "union", "intersection", "difference", "symmetric_difference", "copy"})

#: Calls through which set order cannot leak into results.
_ORDER_SAFE_CALLS = frozenset({
    "sorted", "len", "min", "max", "any", "all", "sum", "bool", "set",
    "frozenset", "id", "repr"})

#: Calls that materialise iteration order into an ordered value.
_ORDER_LEAK_CALLS = frozenset({
    "list", "tuple", "enumerate", "iter", "next", "map", "filter",
    "reversed", "zip"})


class _SetScope:
    """Names (and self-attributes) known to hold sets, per lexical scope."""

    def __init__(self) -> None:
        self.names: Set[str] = set()
        self.self_attrs: Set[str] = set()

    def is_set(self, node: ast.AST) -> bool:
        if _is_set_constructor(node):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.names
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self":
            return node.attr in self.self_attrs
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Sub, ast.BitAnd, ast.BitOr, ast.BitXor)):
            return self.is_set(node.left) or self.is_set(node.right)
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _SET_METHODS:
            return self.is_set(node.func.value)
        return False


_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
              ast.Lambda)


def _walk_same_scope(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk ``body`` without descending into nested def/class scopes."""
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, _DEF_NODES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _nested_defs(body: Sequence[ast.stmt]) -> List[ast.AST]:
    """Def/class nodes directly inside this scope (not through another)."""
    defs: List[ast.AST] = []
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, _DEF_NODES):
            if not isinstance(node, ast.Lambda):
                defs.append(node)
            continue
        stack.extend(ast.iter_child_nodes(node))
    return defs


def _collect_set_bindings(body: Sequence[ast.stmt], scope: _SetScope) -> None:
    """Record set-typed assignments in one scope body.

    Two passes so ``a = set(); b = a`` marks ``b`` regardless of source
    order; nested function/class scopes are not descended into (their
    locals are their own), except that callers pre-collect ``self.X``
    bindings across a whole class body.
    """
    for _pass in range(2):
        before = (len(scope.names), len(scope.self_attrs))
        for node in _walk_same_scope(body):
            if isinstance(node, ast.Assign):
                if not (_is_set_constructor(node.value)
                        or scope.is_set(node.value)):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        scope.names.add(target.id)
                    elif isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == "self":
                        scope.self_attrs.add(target.attr)
            elif isinstance(node, ast.AnnAssign) and \
                    _annotation_is_set(node.annotation):
                if isinstance(node.target, ast.Name):
                    scope.names.add(node.target.id)
                elif isinstance(node.target, ast.Attribute) and \
                        isinstance(node.target.value, ast.Name) and \
                        node.target.value.id == "self":
                    scope.self_attrs.add(node.target.attr)
        if (len(scope.names), len(scope.self_attrs)) == before:
            break


@register
class UnorderedIterRule(Rule):
    rule_id = "SIM003"
    title = "iteration over an unordered set"
    rationale = (
        "Set iteration order depends on insertion history and (for str "
        "keys) the per-process hash seed; feeding it into scheduling, "
        "eviction or dispatch decisions silently breaks bit-identical "
        "replay.  Iterate sorted(...) or keep an insertion-ordered "
        "structure instead.  Order-insensitive reductions (len, min, max, "
        "sum, any, all, sorted, membership) are exempt.")

    def check_file(self, module: ParsedModule) -> Iterator[Violation]:
        yield from self._check_scope(module, module.tree.body, _SetScope(),
                                     class_scope=None)

    def _check_scope(self, module: ParsedModule, body: Sequence[ast.stmt],
                     outer: _SetScope,
                     class_scope: Optional[_SetScope]
                     ) -> Iterator[Violation]:
        scope = _SetScope()
        scope.names |= outer.names
        if class_scope is not None:
            scope.self_attrs |= class_scope.self_attrs
        _collect_set_bindings(body, scope)
        yield from self._flag_nodes(module, body, scope)
        # Recurse into nested def/class scopes found in this scope body.
        for child in _nested_defs(body):
            if isinstance(child, ast.ClassDef):
                cls_scope = _SetScope()
                for method in _nested_defs(child.body):
                    if isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                        _collect_set_bindings(method.body, cls_scope)
                yield from self._check_scope(module, child.body, scope,
                                             class_scope=cls_scope)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_scope(module, child.body, scope,
                                             class_scope=class_scope)

    def _flag_nodes(self, module: ParsedModule, body: Sequence[ast.stmt],
                    scope: _SetScope) -> Iterator[Violation]:
        # Comprehensions fed directly into an order-insensitive reduction
        # (sorted(f(x) for x in s), sum(...), ...) cannot leak set order.
        safe_comps: Set[int] = set()
        for node in _walk_same_scope(body):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id in _ORDER_SAFE_CALLS:
                for arg in node.args:
                    if isinstance(arg, (ast.ListComp, ast.GeneratorExp,
                                        ast.SetComp)):
                        safe_comps.add(id(arg))
        for node in _walk_same_scope(body):
            if isinstance(node, ast.For) and scope.is_set(node.iter):
                yield self._violation(
                    module, node.iter,
                    "for-loop over an unordered set — iterate "
                    "sorted(...) or an insertion-ordered structure")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                if id(node) in safe_comps:
                    continue
                for gen in node.generators:
                    if scope.is_set(gen.iter):
                        yield self._violation(
                            module, gen.iter,
                            "comprehension over an unordered set leaks "
                            "iteration order — iterate sorted(...)")
            elif isinstance(node, ast.Call):
                yield from self._flag_call(module, node, scope)

    def _flag_call(self, module: ParsedModule, node: ast.Call,
                   scope: _SetScope) -> Iterator[Violation]:
        if isinstance(node.func, ast.Name):
            name = node.func.id
            if name in _ORDER_SAFE_CALLS or name not in _ORDER_LEAK_CALLS:
                return
            if node.args and scope.is_set(node.args[0]):
                yield self._violation(
                    module, node,
                    f"{name}() over an unordered set materialises "
                    f"arbitrary order — wrap in sorted(...)")
        elif isinstance(node.func, ast.Attribute) and \
                node.func.attr == "join":
            if node.args and scope.is_set(node.args[0]):
                yield self._violation(
                    module, node,
                    "str.join over an unordered set — wrap in sorted(...)")


# -- SIM004: accounting-API bypass --------------------------------------------


@register
class AccountingBypassRule(Rule):
    rule_id = "SIM004"
    title = "direct mutation of frame/charge state"
    rationale = (
        "Frame counts, byte charges and cgroup memberships are owned by "
        "their accounting APIs (MemoryAccountant.charge, "
        "AddressSpace._charge, MemoryPool.allocate_pages, "
        "CgroupManager.*); writing the underlying fields directly skips "
        "peak tracking, conservation checks and the sanitizer's ledgers, "
        "corrupting every reported number downstream.")

    #: attribute -> path suffix of the module allowed to touch it.
    PROTECTED: Dict[str, str] = {
        "current_bytes": "repro/mem/accounting.py",
        "peak_bytes": "repro/mem/accounting.py",
        "usage": "repro/mem/accounting.py",
        "cap_violations": "repro/mem/accounting.py",
        "local_pages": "repro/mem/address_space.py",
        "_stored_pages": "repro/mem/pools.py",
        "procs": "repro/kernel/cgroup.py",
    }

    MUTATORS = frozenset({
        "add", "discard", "remove", "clear", "update", "pop", "setdefault"})

    def _owned_here(self, attr: str, relpath: str) -> bool:
        return relpath.replace("\\", "/").endswith(self.PROTECTED[attr])

    def _protected_attr(self, node: ast.AST) -> Optional[ast.Attribute]:
        """The protected Attribute inside an assignment target, if any."""
        if isinstance(node, ast.Attribute) and node.attr in self.PROTECTED:
            return node
        if isinstance(node, ast.Subscript):
            return self._protected_attr(node.value)
        return None

    @staticmethod
    def _is_self_access(attr: ast.Attribute) -> bool:
        return isinstance(attr.value, ast.Name) and attr.value.id == "self"

    def check_file(self, module: ParsedModule) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in self.MUTATORS:
                owner = node.func.value
                if isinstance(owner, ast.Attribute) and \
                        owner.attr in self.PROTECTED and \
                        not self._is_self_access(owner) and \
                        not self._owned_here(owner.attr, module.relpath):
                    yield self._violation(
                        module, node,
                        f".{owner.attr}.{node.func.attr}() bypasses the "
                        f"accounting API owning '{owner.attr}' "
                        f"({self.PROTECTED[owner.attr]})")
                continue
            for target in targets:
                attr = self._protected_attr(target)
                if attr is None or self._is_self_access(attr):
                    continue
                if self._owned_here(attr.attr, module.relpath):
                    continue
                yield self._violation(
                    module, node,
                    f"direct write to .{attr.attr} bypasses the accounting "
                    f"API owning it ({self.PROTECTED[attr.attr]})")
