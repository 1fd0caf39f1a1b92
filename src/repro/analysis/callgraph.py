"""The reprolint call graph: who calls whom, across the whole project.

Built from the ``call_sites`` lists phase 1 records on every
:class:`~repro.analysis.project.FunctionInfo`, resolved through the
same binding tables the import rules use.  Nodes are module-level
functions and class methods, identified as ``"module:qualname"``
(``"repro.core.persist:write_dir_atomic"``,
``"repro.wal.segment:SegmentWriter.sync"``).  Resolution is
best-effort and *positive*: a call the model cannot resolve (external
library, dynamic dispatch, deep attribute chains) simply has no edge,
so the interprocedural rules only reason through calls the model
actually establishes.

``self.method()`` / ``cls.method()`` calls resolve through the
receiver class's base chain; plain names follow module bindings with
one re-export hop (``from repro.serve import QueryEngine``
reaches ``repro.serve.engine``).  Constructor calls resolve to
classes, not functions, and are deliberately left edge-less.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.project import FunctionInfo, ProjectModel


@dataclass
class FuncNode:
    """One call-graph node: a module-level function or a class method."""

    node_id: str
    module: str
    qualname: str
    info: FunctionInfo


@dataclass
class CallGraph:
    """Resolved call edges over a :class:`ProjectModel`."""

    model: ProjectModel
    nodes: dict[str, FuncNode] = field(default_factory=dict)
    #: caller node id -> resolved callee node ids.
    edges: dict[str, frozenset[str]] = field(default_factory=dict)
    #: callee node id -> caller node ids.
    reverse: dict[str, set[str]] = field(default_factory=dict)
    _resolve_cache: dict[tuple[str, str, str], str | None] = field(
        default_factory=dict, repr=False
    )

    @classmethod
    def build(cls, model: ProjectModel) -> "CallGraph":
        graph = cls(model=model)
        for name, summary in model.modules.items():
            for info in summary.functions.values():
                node_id = f"{name}:{info.qualname}"
                graph.nodes[node_id] = FuncNode(node_id, name, info.qualname, info)
            for cinfo in summary.classes.values():
                for minfo in cinfo.methods.values():
                    node_id = f"{name}:{minfo.qualname}"
                    graph.nodes[node_id] = FuncNode(
                        node_id, name, minfo.qualname, minfo
                    )
        for node_id, fnode in graph.nodes.items():
            targets: set[str] = set()
            for call_name, _, _, _ in fnode.info.call_sites:
                target = graph.resolve_call(
                    fnode.module, fnode.qualname, call_name
                )
                if target is not None and target != node_id:
                    targets.add(target)
            graph.edges[node_id] = frozenset(targets)
            for target in targets:
                graph.reverse.setdefault(target, set()).add(node_id)
        return graph

    def module_nodes(self, module_name: str) -> list[FuncNode]:
        """Every function/method node of one module, in stable order."""
        return [
            self.nodes[node_id]
            for node_id in sorted(self.nodes)
            if self.nodes[node_id].module == module_name
        ]

    # -- resolution ----------------------------------------------------

    def resolve_call(
        self, module_name: str, scope: str, name: str
    ) -> str | None:
        """Resolve a call written as ``name`` in ``scope`` to a node id."""
        key = (module_name, scope, name)
        if key in self._resolve_cache:
            return self._resolve_cache[key]
        result = self._resolve_call(module_name, scope, name)
        self._resolve_cache[key] = result
        return result

    def _resolve_call(
        self, module_name: str, scope: str, name: str
    ) -> str | None:
        if name.startswith(("self.", "cls.")):
            owner = self._method_owner(module_name, scope, name)
            if owner is None:
                return None
            summary_name, cls_name, method = owner
            return f"{summary_name}:{cls_name}.{method}"
        dotted = self.model.resolve(module_name, name)
        if dotted is None:
            return None
        return self.find_function(dotted)

    def resolve_dotted(
        self, module_name: str, scope: str, name: str
    ) -> str | None:
        """Resolve a call name to its fully-dotted form (for patterns)."""
        if name.startswith(("self.", "cls.")):
            owner = self._method_owner(module_name, scope, name)
            if owner is None:
                return None
            summary_name, cls_name, method = owner
            return f"{summary_name}.{cls_name}.{method}"
        return self.model.resolve(module_name, name)

    def _method_owner(
        self, module_name: str, scope: str, name: str
    ) -> tuple[str, str, str] | None:
        """(module, class, method) defining a ``self.m()``-style call."""
        parts = name.split(".")
        if len(parts) != 2 or "." not in scope:
            return None
        cls_name = scope.split(".", 1)[0]
        for summary, cinfo in self.model.base_chain(module_name, cls_name):
            if parts[1] in cinfo.methods:
                return summary.name, cinfo.name, parts[1]
        return None

    def find_function(self, dotted: str, _depth: int = 0) -> str | None:
        """Node id for ``pkg.module.func`` / ``pkg.module.Class.method``."""
        if _depth > 4:
            return None
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            summary = self.model.modules.get(module)
            if summary is None:
                continue
            rest = parts[split:]
            if len(rest) == 1:
                if rest[0] in summary.functions:
                    return f"{module}:{rest[0]}"
                target = summary.bindings.get(rest[0])
                if target is not None and target != dotted:
                    found = self.find_function(target, _depth + 1)
                    if found is not None:
                        return found
            elif len(rest) == 2:
                cinfo = summary.classes.get(rest[0])
                if cinfo is not None and rest[1] in cinfo.methods:
                    return f"{module}:{rest[0]}.{rest[1]}"
                target = summary.bindings.get(rest[0])
                if target is not None:
                    hop = f"{target}.{rest[1]}"
                    if hop != dotted:
                        found = self.find_function(hop, _depth + 1)
                        if found is not None:
                            return found
            # Longer prefixes can shadow: keep trying shorter ones.
        return None
