"""Purity / effect inference over the project call graph.

Classifies every function into a three-point lattice::

    PURE  <  READS_SHARED  <  WRITES_SHARED

where *shared state* means module-level mutable objects (dicts, lists,
sets, ``OrderedDict``/``defaultdict``/``deque`` instances, ...) and
class-level mutable attributes — state that outlives the simulation
that wrote it.  Every shard of a parallel run has its own worker
process, but one process still runs simulations one after another (a
sweep's serial path, the test suite), and memo state carried from one
run into the next makes a run's result depend on what ran before it.

Direct effects are syntactic:

* ``global x`` + assignment, or a subscript/attribute store whose base
  resolves to a shared object, or a mutator-method call on one
  (``.update``, ``.append``, ``.pop``, ...) — **writes**;
* any other load of a shared object — **reads**;
* neither — **pure**.

Two interprocedural refinements close the gaps a per-file pass cannot
see:

* **parameter mutation**: a function that subscript-stores or calls a
  mutator on one of its parameters marks that position; a caller
  passing a shared object in a mutated position *writes* it (this is
  how ``workloads.cache.memoized(cache, key, build)`` taints its
  callers), propagated to a fixpoint through call chains;
* **transitive effects**: a function's final effect is the maximum of
  its own and all callees', iterated to a fixpoint over the call graph.

Shared objects can be declared shard-safe with a pragma comment on the
defining line (``# simlint: shard-safe (reason)``); the certifier
(SIM006) honours it, this module still records the accesses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (CallGraph, FunctionInfo,
                                      module_name_for)
from repro.analysis.rules import ParsedModule, _dotted_parts

#: Effect lattice values, ordered.
PURE = 0
READS_SHARED = 1
WRITES_SHARED = 2

EFFECT_NAMES = {PURE: "pure", READS_SHARED: "reads-shared",
                WRITES_SHARED: "writes-shared"}

#: Pragma marking a shared object as intentionally shard-safe.
SHARD_SAFE_PRAGMA = "simlint: shard-safe"

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "move_to_end", "pop", "popitem", "popleft",
    "remove", "reverse", "rotate", "setdefault", "sort", "update",
    "difference_update", "intersection_update", "symmetric_difference_update",
})

#: Constructor calls whose result is a shared *mutable* container.
_MUTABLE_CONSTRUCTORS = frozenset({
    "dict", "list", "set", "bytearray", "OrderedDict", "defaultdict",
    "deque", "Counter", "ChainMap",
})


@dataclass(frozen=True)
class SharedObject:
    """One module- or class-level mutable object."""

    qualname: str               # repro.workloads.azure._EVENTS_CACHE
    module: str
    relpath: str
    line: int
    kind: str                   # "module" | "class-attr"
    shard_safe: bool            # pragma present on the defining line


@dataclass(frozen=True)
class SharedAccess:
    """One read or write of a shared object from a function."""

    obj: str                    # SharedObject qualname
    function: str               # accessing function qualname
    relpath: str
    line: int
    write: bool
    via: str                    # "store" | "mutator" | "global" | \
    #                             "load" | "argument"


@dataclass
class EffectReport:
    """Inference output: shared objects, accesses, per-function effects."""

    shared: Dict[str, SharedObject] = field(default_factory=dict)
    accesses: List[SharedAccess] = field(default_factory=list)
    effects: Dict[str, int] = field(default_factory=dict)
    #: function qualname -> zero-based indices of mutated parameters.
    mutated_params: Dict[str, Set[int]] = field(default_factory=dict)

    def effect_name(self, qualname: str) -> str:
        return EFFECT_NAMES[self.effects.get(qualname, PURE)]

    def writers_of(self, obj_qualname: str) -> List[SharedAccess]:
        return [a for a in self.accesses
                if a.obj == obj_qualname and a.write]


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        parts = _dotted_parts(node.func)
        if parts and parts[-1] in _MUTABLE_CONSTRUCTORS:
            return True
    return False


def _line_has_pragma(module: ParsedModule, lineno: int) -> bool:
    if 1 <= lineno <= len(module.lines):
        return SHARD_SAFE_PRAGMA in module.lines[lineno - 1]
    return False


def collect_shared_objects(modules: Dict[str, ParsedModule]
                           ) -> Dict[str, SharedObject]:
    """Module-level and class-level mutable bindings, project-wide."""
    shared: Dict[str, SharedObject] = {}

    def record(modname: str, relpath: str, owner: Optional[str],
               name: str, node: ast.stmt, module: ParsedModule) -> None:
        qual = f"{owner}.{name}" if owner else f"{modname}.{name}"
        shared[qual] = SharedObject(
            qualname=qual, module=modname, relpath=relpath,
            line=node.lineno, kind="class-attr" if owner else "module",
            shard_safe=_line_has_pragma(module, node.lineno))

    for relpath in sorted(modules):
        module = modules[relpath]
        modname = module_name_for(relpath)

        def scan(body: Sequence[ast.stmt], owner: Optional[str]) -> None:
            for node in body:
                value: Optional[ast.expr]
                targets: List[ast.expr]
                if isinstance(node, ast.Assign):
                    value, targets = node.value, list(node.targets)
                elif isinstance(node, ast.AnnAssign) and \
                        node.value is not None:
                    value, targets = node.value, [node.target]
                else:
                    continue
                if value is None or not _is_mutable_value(value):
                    continue
                for target in targets:
                    if isinstance(target, ast.Name):
                        record(modname, relpath, owner, target.id, node,
                               module)

        scan(module.tree.body, owner=None)
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                scan(node.body, owner=f"{modname}.{node.name}")
    return shared


class _FunctionScanner:
    """Extracts one function's direct shared-state accesses."""

    def __init__(self, info: FunctionInfo, graph: CallGraph,
                 shared: Dict[str, SharedObject]) -> None:
        self._info = info
        self._graph = graph
        self._shared = shared
        self._aliases = graph.aliases.get(info.module, {})
        self._globals_declared: Set[str] = set()
        node: ast.AST
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                self._globals_declared.update(node.names)
        self._params = [a.arg for a in info.node.args.posonlyargs
                        + info.node.args.args]
        if self._info.class_qualname is not None and self._params and \
                self._params[0] in ("self", "cls"):
            self._params = self._params[1:]
            self._skip_self = True
        else:
            self._skip_self = False

    def param_index(self, name: str) -> Optional[int]:
        try:
            return self._params.index(name)
        except ValueError:
            return None

    def shared_qualname(self, node: ast.expr) -> Optional[str]:
        """Resolve an expression to a shared-object qualname, if any."""
        parts = _dotted_parts(node)
        if not parts:
            return None
        if len(parts) == 1:
            qual = f"{self._info.module}.{parts[0]}"
            if qual in self._shared:
                return qual
            target = self._aliases.get(parts[0])
            if target is not None and target in self._shared:
                return target
            return None
        head = self._aliases.get(parts[0], parts[0])
        dotted = ".".join([head] + parts[1:])
        if dotted in self._shared:
            return dotted
        # Class attribute through a local class name: Cls.attr.
        if len(parts) == 2:
            qual = f"{self._info.module}.{parts[0]}.{parts[1]}"
            if qual in self._shared:
                return qual
        return None

    def scan(self, accesses: List[SharedAccess],
             mutated_params: Set[int]) -> None:
        info = self._info
        reads_seen: Set[Tuple[str, int]] = set()
        node: ast.AST
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets: List[ast.expr]
                if isinstance(node, ast.Assign):
                    targets = list(node.targets)
                else:
                    targets = [node.target]
                for target in targets:
                    self._scan_store(target, node.lineno, accesses,
                                     mutated_params)
            elif isinstance(node, ast.Call):
                self._scan_call(node, accesses, mutated_params)
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load):
                qual = self.shared_qualname(node)
                if qual is not None and (qual, node.lineno) not in reads_seen:
                    reads_seen.add((qual, node.lineno))
                    accesses.append(SharedAccess(
                        obj=qual, function=info.qualname,
                        relpath=info.relpath, line=node.lineno,
                        write=False, via="load"))

    def _scan_store(self, target: ast.expr, lineno: int,
                    accesses: List[SharedAccess],
                    mutated_params: Set[int]) -> None:
        info = self._info
        if isinstance(target, ast.Name):
            if target.id in self._globals_declared:
                accesses.append(SharedAccess(
                    obj=f"{info.module}.{target.id}",
                    function=info.qualname, relpath=info.relpath,
                    line=lineno, write=True, via="global"))
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            qual = self.shared_qualname(base)
            if qual is not None:
                accesses.append(SharedAccess(
                    obj=qual, function=info.qualname,
                    relpath=info.relpath, line=lineno, write=True,
                    via="store"))
                return
            if isinstance(base, ast.Name):
                idx = self.param_index(base.id)
                if idx is not None and isinstance(target, ast.Subscript):
                    mutated_params.add(idx)

    def _scan_call(self, node: ast.Call, accesses: List[SharedAccess],
                   mutated_params: Set[int]) -> None:
        info = self._info
        func = node.func
        if isinstance(func, ast.Attribute) and \
                func.attr in _MUTATOR_METHODS:
            qual = self.shared_qualname(func.value)
            if qual is not None:
                accesses.append(SharedAccess(
                    obj=qual, function=info.qualname,
                    relpath=info.relpath, line=node.lineno, write=True,
                    via="mutator"))
            elif isinstance(func.value, ast.Name):
                idx = self.param_index(func.value.id)
                if idx is not None:
                    mutated_params.add(idx)

    def argument_objects(self, node: ast.Call
                         ) -> List[Tuple[int, str]]:
        """(positional index, shared qualname) for shared args."""
        out: List[Tuple[int, str]] = []
        for idx, arg in enumerate(node.args):
            qual = self.shared_qualname(arg)
            if qual is not None:
                out.append((idx, qual))
        return out


def infer_effects(modules: Dict[str, ParsedModule],
                  graph: CallGraph) -> EffectReport:
    """Run the full inference: shared objects, accesses, fixpoints."""
    report = EffectReport()
    report.shared = collect_shared_objects(modules)

    scanners: Dict[str, _FunctionScanner] = {}
    for qualname in sorted(graph.functions):
        info = graph.functions[qualname]
        scanner = _FunctionScanner(info, graph, report.shared)
        scanners[qualname] = scanner
        mutated: Set[int] = set()
        scanner.scan(report.accesses, mutated)
        report.mutated_params[qualname] = mutated

    # Fixpoint 1: parameter mutation through call chains (f passes its
    # parameter onward into a mutated position of g).
    changed = True
    while changed:
        changed = False
        for qualname in sorted(graph.functions):
            scanner = scanners[qualname]
            info = graph.functions[qualname]
            mutated = report.mutated_params[qualname]
            node: ast.AST
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                callees = _static_callees(graph, qualname, node)
                for callee in callees:
                    callee_mut = report.mutated_params.get(callee, set())
                    if not callee_mut:
                        continue
                    for idx, arg in enumerate(node.args):
                        if idx not in callee_mut:
                            continue
                        if isinstance(arg, ast.Name):
                            pidx = scanner.param_index(arg.id)
                            if pidx is not None and pidx not in mutated:
                                mutated.add(pidx)
                                changed = True

    # Shared objects passed into mutated parameter positions.
    for qualname in sorted(graph.functions):
        scanner = scanners[qualname]
        info = graph.functions[qualname]
        node_w: ast.AST
        for node_w in ast.walk(info.node):
            if not isinstance(node_w, ast.Call):
                continue
            shared_args = scanner.argument_objects(node_w)
            if not shared_args:
                continue
            for callee in _static_callees(graph, qualname, node_w):
                callee_mut = report.mutated_params.get(callee, set())
                for idx, obj in shared_args:
                    if idx in callee_mut:
                        report.accesses.append(SharedAccess(
                            obj=obj, function=qualname,
                            relpath=info.relpath, line=node_w.lineno,
                            write=True, via="argument"))

    # Direct effects, then the transitive fixpoint over the call graph.
    for qualname in graph.functions:
        report.effects[qualname] = PURE
    for access in report.accesses:
        current = report.effects.get(access.function, PURE)
        level = WRITES_SHARED if access.write else READS_SHARED
        if level > current:
            report.effects[access.function] = level
    changed = True
    while changed:
        changed = False
        for qualname in sorted(graph.functions):
            level = report.effects[qualname]
            if level == WRITES_SHARED:
                continue
            for site in graph.callees(qualname):
                callee_level = report.effects.get(site.callee, PURE)
                if callee_level > level:
                    level = callee_level
            if level != report.effects[qualname]:
                report.effects[qualname] = level
                changed = True

    report.accesses.sort(key=lambda a: (a.relpath, a.line, a.obj,
                                        a.function, a.via))
    return report


def _static_callees(graph: CallGraph, caller: str,
                    call: ast.Call) -> List[str]:
    """Callees recorded for this exact call site (matched by position)."""
    out: List[str] = []
    for site in graph.callees(caller):
        if site.line == call.lineno and site.col == call.col_offset:
            out.append(site.callee)
    return out
