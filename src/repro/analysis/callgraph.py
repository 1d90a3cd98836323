"""Project call graph for simlint's interprocedural deep mode.

Builds, from the parsed modules alone (no imports, no execution), a
conservative static call graph over the repository:

* **module-level functions** resolve exactly through the per-module
  import/alias table (``from repro.workloads.cache import memoized``,
  ``import repro.mem.pools as pools``);
* **methods** resolve through ``self.``/``cls.`` against the enclosing
  class, its project-local ancestors *and* its subclasses (a call
  through the base may land in any override), and — for other
  receivers — through an attribute heuristic: a method name defined by
  only a few project classes resolves to all of them, while ubiquitous
  collection-protocol names (``add``, ``get``, ``append``, ...) are
  never guessed.

Nested functions, lambdas and comprehensions are attributed to their
enclosing top-level function or method: the nested ``dispatch`` closure
inside ``Cluster.run_workload`` is *part of* ``run_workload`` for
reachability purposes, which is exactly what shard-safety certification
needs (the closure runs iff its owner does).

The graph is deliberately *over*-approximate (extra edges, never
missing name-resolvable ones): deep rules use it for reachability, so
over-approximation yields false positives that a human can triage,
while under-approximation would silently certify unsafe code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.analysis.rules import ParsedModule, _dotted_parts, _import_aliases

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Method names never resolved by the attribute heuristic: they are the
#: built-in collection/stdlib protocol, so a bare ``x.get(...)`` is far
#: more likely a dict than any project class.
_COMMON_METHODS = frozenset({
    "add", "append", "clear", "copy", "count", "discard", "extend",
    "format", "get", "index", "insert", "items", "join", "keys", "lower",
    "move_to_end", "pop", "popitem", "read", "remove", "replace",
    "setdefault", "sort", "split", "strip", "update", "upper", "values",
    "write", "startswith", "endswith", "encode", "decode",
})

#: Attribute-heuristic fan-out cap: a method name defined by more
#: project classes than this is too ambiguous to resolve.
_ATTR_FANOUT_CAP = 8


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/mem/pools.py`` -> ``repro.mem.pools``;
    ``tests/sim/test_engine.py`` -> ``tests.sim.test_engine``;
    a package ``__init__.py`` maps to the package name itself.
    """
    parts = relpath.replace("\\", "/").split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One top-level function or method (nested defs fold into it)."""

    qualname: str                       # repro.mem.pools.TieredPool.fetch
    module: str                         # repro.mem.pools
    relpath: str
    node: FunctionNode
    class_qualname: Optional[str] = None

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def line(self) -> int:
        return self.node.lineno


@dataclass
class ClassInfo:
    """One class: resolved project-local bases plus its method table."""

    qualname: str
    module: str
    relpath: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge, anchored to the call expression."""

    caller: str
    callee: str
    relpath: str
    line: int
    col: int


class CallGraph:
    """The resolved whole-program call graph plus its symbol tables."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qualname -> outgoing call sites (sorted at finalise).
        self.edges: Dict[str, List[CallSite]] = {}
        #: local import alias table per module name.
        self.aliases: Dict[str, Dict[str, str]] = {}
        #: method name -> sorted class qualnames defining it.
        self.methods_by_name: Dict[str, List[str]] = {}
        #: class qualname -> sorted direct subclass qualnames.
        self.subclasses: Dict[str, List[str]] = {}

    # -- queries ---------------------------------------------------------------

    def callees(self, qualname: str) -> List[CallSite]:
        return self.edges.get(qualname, [])

    def resolve_roots(self, roots: Sequence[str]) -> List[str]:
        """Expand root specs (function qualnames or module/class
        prefixes) into the concrete functions they denote."""
        out: Set[str] = set()
        for spec in roots:
            if spec in self.functions:
                out.add(spec)
                continue
            prefix = spec + "."
            for qualname in self.functions:
                if qualname.startswith(prefix):
                    out.add(qualname)
        return sorted(out)

    def reachable(self, roots: Sequence[str]) -> Set[str]:
        """Function qualnames reachable from ``roots`` (roots included)."""
        frontier = self.resolve_roots(roots)
        seen: Set[str] = set(frontier)
        while frontier:
            nxt: List[str] = []
            for caller in frontier:
                for site in self.edges.get(caller, []):
                    if site.callee not in seen and \
                            site.callee in self.functions:
                        seen.add(site.callee)
                        nxt.append(site.callee)
            frontier = nxt
        return seen

    def call_chain(self, roots: Sequence[str], target: str
                   ) -> Optional[List[str]]:
        """A shortest root->...->target qualname chain, or None.

        BFS over sorted edges, so the reported chain is deterministic.
        """
        frontier = self.resolve_roots(roots)
        parent: Dict[str, Optional[str]] = {q: None for q in frontier}
        while frontier:
            nxt: List[str] = []
            for caller in frontier:
                if caller == target:
                    chain: List[str] = []
                    at: Optional[str] = caller
                    while at is not None:
                        chain.append(at)
                        at = parent[at]
                    chain.reverse()
                    return chain
                for site in self.edges.get(caller, []):
                    if site.callee in self.functions and \
                            site.callee not in parent:
                        parent[site.callee] = caller
                        nxt.append(site.callee)
            frontier = sorted(set(nxt))
        return None


# -- construction --------------------------------------------------------------


def _base_qualname(node: ast.expr, module: str,
                   aliases: Dict[str, str],
                   local_classes: Dict[str, str]) -> Optional[str]:
    """Resolve a base-class expression to a project class qualname."""
    parts = _dotted_parts(node)
    if not parts:
        return None
    if len(parts) == 1 and parts[0] in local_classes:
        return local_classes[parts[0]]
    head = aliases.get(parts[0], parts[0])
    return ".".join([head] + parts[1:])


class CallGraphBuilder:
    """Two-phase builder: collect symbols, then resolve call sites."""

    def __init__(self, modules: Dict[str, ParsedModule]) -> None:
        self._modules = modules
        self.graph = CallGraph()
        #: module name -> {local name -> function qualname}
        self._module_funcs: Dict[str, Dict[str, str]] = {}
        #: module name -> {local name -> class qualname}
        self._module_classes: Dict[str, Dict[str, str]] = {}

    def build(self) -> CallGraph:
        for relpath in sorted(self._modules):
            self._collect(relpath, self._modules[relpath])
        self._link_hierarchy()
        for relpath in sorted(self._modules):
            self._resolve_module(relpath, self._modules[relpath])
        for caller in self.graph.edges:
            self.graph.edges[caller].sort(
                key=lambda s: (s.line, s.col, s.callee))
        return self.graph

    # -- phase 1: symbols ------------------------------------------------------

    def _collect(self, relpath: str, module: ParsedModule) -> None:
        modname = module_name_for(relpath)
        graph = self.graph
        graph.aliases[modname] = _import_aliases(module.tree)
        funcs = self._module_funcs.setdefault(modname, {})
        classes = self._module_classes.setdefault(modname, {})
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{modname}.{node.name}"
                graph.functions[qualname] = FunctionInfo(
                    qualname=qualname, module=modname, relpath=relpath,
                    node=node)
                funcs[node.name] = qualname
            elif isinstance(node, ast.ClassDef):
                cls_qual = f"{modname}.{node.name}"
                info = ClassInfo(qualname=cls_qual, module=modname,
                                 relpath=relpath, node=node)
                graph.classes[cls_qual] = info
                classes[node.name] = cls_qual
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        m_qual = f"{cls_qual}.{item.name}"
                        graph.functions[m_qual] = FunctionInfo(
                            qualname=m_qual, module=modname,
                            relpath=relpath, node=item,
                            class_qualname=cls_qual)
                        info.methods[item.name] = m_qual

    def _link_hierarchy(self) -> None:
        graph = self.graph
        for cls_qual in sorted(graph.classes):
            info = graph.classes[cls_qual]
            aliases = graph.aliases.get(info.module, {})
            local = self._module_classes.get(info.module, {})
            for base in info.node.bases:
                resolved = _base_qualname(base, info.module, aliases, local)
                if resolved is not None and resolved in graph.classes:
                    info.bases.append(resolved)
                    graph.subclasses.setdefault(resolved, []).append(
                        cls_qual)
        for name in graph.subclasses:
            graph.subclasses[name].sort()
        by_name: Dict[str, List[str]] = {}
        for cls_qual in sorted(graph.classes):
            for method in graph.classes[cls_qual].methods:
                by_name.setdefault(method, []).append(cls_qual)
        graph.methods_by_name = by_name

    # -- phase 2: call resolution ----------------------------------------------

    def _mro(self, cls_qual: str) -> List[str]:
        """The class plus project-local ancestors, breadth-first."""
        out: List[str] = []
        frontier = [cls_qual]
        seen: Set[str] = set(frontier)
        while frontier:
            nxt: List[str] = []
            for name in frontier:
                out.append(name)
                for base in self.graph.classes[name].bases:
                    if base in self.graph.classes and base not in seen:
                        seen.add(base)
                        nxt.append(base)
            frontier = nxt
        return out

    def _descendants(self, cls_qual: str) -> List[str]:
        out: List[str] = []
        frontier = self.graph.subclasses.get(cls_qual, [])
        seen: Set[str] = set(frontier)
        while frontier:
            nxt: List[str] = []
            for name in frontier:
                out.append(name)
                for sub in self.graph.subclasses.get(name, []):
                    if sub not in seen:
                        seen.add(sub)
                        nxt.append(sub)
            frontier = nxt
        return out

    def _method_targets(self, cls_qual: str, method: str) -> List[str]:
        """Resolve ``self.method()``: own class, ancestors, overrides."""
        targets: List[str] = []
        for name in self._mro(cls_qual):
            qual = self.graph.classes[name].methods.get(method)
            if qual is not None:
                targets.append(qual)
                break           # first hit up the hierarchy == static MRO
        for name in self._descendants(cls_qual):
            qual = self.graph.classes[name].methods.get(method)
            if qual is not None:
                targets.append(qual)
        return targets

    def _class_targets(self, cls_qual: str) -> List[str]:
        """Constructor edge for ``SomeClass(...)``."""
        for name in self._mro(cls_qual):
            init = self.graph.classes[name].methods.get("__init__")
            if init is not None:
                return [init]
        return []

    def _attr_targets(self, method: str) -> List[str]:
        """The attribute heuristic for unknown receivers."""
        if method in _COMMON_METHODS:
            return []
        owners = self.graph.methods_by_name.get(method, [])
        if not owners or len(owners) > _ATTR_FANOUT_CAP:
            return []
        out: List[str] = []
        for cls_qual in owners:
            out.append(self.graph.classes[cls_qual].methods[method])
        return out

    def _resolve_module(self, relpath: str, module: ParsedModule) -> None:
        modname = module_name_for(relpath)
        aliases = self.graph.aliases[modname]
        for qualname in sorted(self.graph.functions):
            info = self.graph.functions[qualname]
            if info.module != modname or info.relpath != relpath:
                continue
            self._resolve_function(info, aliases)

    def _resolve_function(self, info: FunctionInfo,
                          aliases: Dict[str, str]) -> None:
        # Nested defs are walked too: their calls belong to the
        # enclosing function.
        edges = self.graph.edges.setdefault(info.qualname, [])
        for stmt in info.node.body:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                for callee in self._call_targets(node, info, aliases):
                    edges.append(CallSite(
                        caller=info.qualname, callee=callee,
                        relpath=info.relpath, line=node.lineno,
                        col=node.col_offset))

    def _call_targets(self, node: ast.Call, info: FunctionInfo,
                      aliases: Dict[str, str]) -> List[str]:
        graph = self.graph
        funcs = self._module_funcs.get(info.module, {})
        classes = self._module_classes.get(info.module, {})
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if name in funcs:
                return [funcs[name]]
            if name in classes:
                return self._class_targets(classes[name])
            target = aliases.get(name)
            if target is not None:
                if target in graph.functions:
                    return [target]
                if target in graph.classes:
                    return self._class_targets(target)
            return []
        parts = _dotted_parts(func)
        if parts is None:
            # e.g. ``foo()()`` or ``d[k]()`` — dynamic, unresolvable.
            return []
        if parts[0] in ("self", "cls") and len(parts) == 2 and \
                info.class_qualname is not None:
            return self._method_targets(info.class_qualname, parts[1])
        head = aliases.get(parts[0], parts[0])
        dotted = ".".join([head] + parts[1:])
        if dotted in graph.functions:
            return [dotted]
        owner = ".".join([head] + parts[1:-1])
        if owner in graph.classes:
            # Explicit Class.method(...) or module.Class(...) chains.
            for name in self._mro(owner):
                qual = graph.classes[name].methods.get(parts[-1])
                if qual is not None:
                    return [qual]
            return []
        if len(parts) == 2 and parts[0] in classes:
            for name in self._mro(classes[parts[0]]):
                qual = graph.classes[name].methods.get(parts[1])
                if qual is not None:
                    return [qual]
            return []
        return self._attr_targets(parts[-1])


def build_callgraph(modules: Dict[str, ParsedModule]) -> CallGraph:
    """Build the project call graph over ``modules`` (relpath-keyed)."""
    return CallGraphBuilder(modules).build()
