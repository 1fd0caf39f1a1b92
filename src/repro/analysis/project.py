"""Phase 1 of whole-program reprolint: the :class:`ProjectModel`.

The per-file rules (RL001-RL006) see one AST at a time.  The
architectural invariants this package also guards — the import layering
of docs/architecture.md, seed propagation — span modules, so lint runs
build a whole-program model first and run :class:`ProjectRule` checks
(RL101, RL102, RL105) over it second.

The model is deliberately *summary-shaped* rather than AST-shaped: one
:class:`ModuleSummary` per file capturing imports (classified as
module-level / runtime / typing-only), name bindings, class symbol
tables with base classes and methods, per-function call sites and
RNG-constructor seed sources.

Everything here is best-effort static analysis: dynamic constructs the
extractor cannot see (computed imports, ``setattr``) simply do not
appear in the model.  Rules therefore only flag what the model
positively establishes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.config import ProtocolConfig
from repro.analysis.context import FileContext
from repro.analysis.rngpatterns import RNG_CONSTRUCTORS, seed_argument
from repro.analysis.summaries import augment_function


def dotted_name(node: ast.expr) -> str | None:
    """Resolve ``a.b.c`` attribute chains to a dotted string, else None.

    (Intentionally mirrors :func:`repro.analysis.rules.common.dotted_name`;
    importing the rules package from here would create an import cycle
    through the rule registry.)
    """
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class ImportRecord:
    """One import statement edge out of a module.

    ``kind`` is ``"module"`` for top-level imports, ``"runtime"`` for
    imports inside a function body (the sanctioned layering escape
    hatch), and ``"typing"`` for ``TYPE_CHECKING``-guarded imports.
    ``guessed`` marks ``from pkg import name`` aliases re-recorded as
    ``pkg.name`` — real edges only when that dotted path is a module.
    """

    target: str
    lineno: int
    col: int
    kind: str = "module"
    guessed: bool = False


@dataclass
class RngConstruction:
    """An RNG constructor call and where its seed comes from (RL105)."""

    name: str
    lineno: int
    col: int
    #: "literal" | "none" | "name" | "attribute" | "expr" | "missing"
    seed_kind: str
    seed_repr: str = ""
    scope: str = "<module>"


@dataclass
class FunctionInfo:
    """Summary of one function or method body."""

    qualname: str
    lineno: int
    col: int
    #: Every dotted call in the body (nested defs included):
    #: ``[name, lineno, col, use]`` where ``use`` is ``"stmt"`` for a
    #: discarded expression-statement call, ``"bound:<var>"`` for a
    #: single-name binding, ``""`` otherwise.  Call-graph input.
    call_sites: list[list[Any]] = field(default_factory=list)
    #: Dotted calls completed on every path to a normal return.
    must_calls: list[str] = field(default_factory=list)
    #: False when no path reaches a normal return (always raises/loops).
    returns_normally: bool = True
    #: Per call site in protocol-scoped modules: ``[name, lineno, col,
    #: [must-before calls...], [must-after calls...] | None]`` — the
    #: RL301 input.  ``None`` after-set marks a site that cannot reach a
    #: normal return (the after-contract is vacuous there).
    call_orders: list[list[Any]] = field(default_factory=list)
    #: Method-call traces on constructor-bound locals (RL303 input):
    #: ``[var, [[creator, line], ...], [[method, line, col, [prior...]],
    #: ...]]`` per traced local.
    receivers: list[list[Any]] = field(default_factory=list)
    #: Call results bound to a local and dropped without close/escape:
    #: ``[callee, var, line, col]`` — the RL305 input.
    leaks: list[list[Any]] = field(default_factory=list)
    #: Returns facts for the returns-handle closure (RL305).
    returns_acquirer: bool = False
    returns_calls: list[str] = field(default_factory=list)
    returns_line: int = 0


@dataclass
class ClassInfo:
    """Symbol-table entry for one class definition."""

    name: str
    lineno: int
    bases: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything the cross-module rules need to know about one module."""

    name: str
    path: str
    is_package: bool = False
    imports: list[ImportRecord] = field(default_factory=list)
    #: Module-level name bindings from imports: local name -> dotted target.
    bindings: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    rng_constructions: list[RngConstruction] = field(default_factory=list)


def module_name_for(path: Path) -> str:
    """Derive the dotted module name by climbing ``__init__.py`` chains.

    ``src/repro/core/linker.py`` -> ``repro.core.linker`` because
    ``src/repro/core`` and ``src/repro`` are packages while ``src`` is
    not.  A file outside any package keeps its bare stem.
    """
    resolved = path.resolve()
    if resolved.name == "__init__.py":
        parts: list[str] = []
        current = resolved.parent
    else:
        parts = [resolved.stem]
        current = resolved.parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        current = current.parent
    if not parts:  # an __init__.py with no package directory above it
        parts = [resolved.parent.name]
    return ".".join(parts)


def _resolve_relative(
    module_name: str, is_package: bool, level: int, target: str | None
) -> str:
    """Resolve a ``from ...x import y`` module reference to absolute form."""
    if level == 0:
        return target or ""
    parts = module_name.split(".")
    # Level 1 from inside a package __init__ refers to the package itself.
    strip = level - 1 if is_package else level
    base = parts[: len(parts) - strip] if strip else parts
    if target:
        return ".".join([*base, target])
    return ".".join(base)


class _Extractor:
    """Single-pass recursive walk building one :class:`ModuleSummary`."""

    def __init__(self, name: str, path: str, is_package: bool) -> None:
        self.summary = ModuleSummary(name=name, path=path, is_package=is_package)
        self._scope: list[str] = []
        self._typing_depth = 0
        self._func_depth = 0
        #: FunctionInfo accumulating call facts (outermost function).
        self._func: FunctionInfo | None = None
        #: (info, def node) of every summarised function/method, for the
        #: phase-4 procedure-summary post-pass.
        self.all_functions: list[
            tuple[FunctionInfo, ast.FunctionDef | ast.AsyncFunctionDef]
        ] = []
        #: Call-node id() -> how its value is used ("stmt"/"bound:<var>").
        self._call_use: dict[int, str] = {}

    # -- entry ---------------------------------------------------------

    def run(self, tree: ast.Module) -> ModuleSummary:
        for stmt in tree.body:
            self._visit(stmt)
        return self.summary

    # -- scope helpers -------------------------------------------------

    def _scope_name(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    def _import_kind(self) -> str:
        if self._typing_depth:
            return "typing"
        if self._func_depth:
            return "runtime"
        return "module"

    # -- dispatch ------------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            self._handle_import(node)
        elif isinstance(node, ast.ImportFrom):
            self._handle_import_from(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._handle_function(node)
        elif isinstance(node, ast.ClassDef):
            self._handle_class(node)
        elif isinstance(node, ast.If) and self._is_type_checking(node.test):
            self._typing_depth += 1
            for stmt in node.body:
                self._visit(stmt)
            self._typing_depth -= 1
            for stmt in node.orelse:
                self._visit(stmt)
        else:
            self._handle_generic(node)
            for child in ast.iter_child_nodes(node):
                self._visit(child)

    @staticmethod
    def _is_type_checking(test: ast.expr) -> bool:
        name = dotted_name(test)
        return name is not None and (
            name == "TYPE_CHECKING" or name.endswith(".TYPE_CHECKING")
        )

    # -- imports -------------------------------------------------------

    def _handle_import(self, node: ast.Import) -> None:
        kind = self._import_kind()
        for alias in node.names:
            self.summary.imports.append(
                ImportRecord(alias.name, node.lineno, node.col_offset + 1, kind)
            )
            if kind == "module" and not self._scope:
                if alias.asname:
                    self.summary.bindings[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    self.summary.bindings[root] = root

    def _handle_import_from(self, node: ast.ImportFrom) -> None:
        kind = self._import_kind()
        base = _resolve_relative(
            self.summary.name, self.summary.is_package, node.level, node.module
        )
        if not base:
            return
        self.summary.imports.append(
            ImportRecord(base, node.lineno, node.col_offset + 1, kind)
        )
        for alias in node.names:
            if alias.name == "*":
                continue
            target = f"{base}.{alias.name}"
            # ``from pkg import sub`` may import a submodule: record a
            # guessed edge the model confirms against known module names.
            self.summary.imports.append(
                ImportRecord(target, node.lineno, node.col_offset + 1, kind, True)
            )
            if kind == "module" and not self._scope:
                self.summary.bindings[alias.asname or alias.name] = target

    # -- functions -----------------------------------------------------

    def _handle_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        qualname = ".".join([*self._scope, node.name]) if self._scope else node.name
        outermost = self._func is None
        if outermost:
            info = self._function_info(node, qualname)
            self._func = info
            if len(self._scope) == 0:
                self.summary.functions[node.name] = info
                self.all_functions.append((info, node))

        self._scope.append(node.name)
        self._func_depth += 1
        for default in [*node.args.defaults, *node.args.kw_defaults]:
            if default is not None:
                self._visit(default)
        for stmt in node.body:
            self._visit(stmt)
        self._func_depth -= 1
        self._scope.pop()

        if outermost:
            self._func = None

    @staticmethod
    def _function_info(
        node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
    ) -> FunctionInfo:
        return FunctionInfo(qualname=qualname, lineno=node.lineno, col=node.col_offset + 1)

    # -- classes -------------------------------------------------------

    def _handle_class(self, node: ast.ClassDef) -> None:
        info = ClassInfo(name=node.name, lineno=node.lineno)
        for base in node.bases:
            name = dotted_name(base)
            if name is not None:
                info.bases.append(name)
        registered = not self._scope and self._func is None
        if registered:
            self.summary.classes[node.name] = info

        self._scope.append(node.name)
        for stmt in node.body:
            if isinstance(stmt, (ast.AnnAssign, ast.Assign)):
                if stmt.value is not None:
                    self._visit(stmt.value)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                was_func = self._func
                self._func = None  # methods get their own FunctionInfo
                method = self._function_info(
                    stmt, ".".join([*self._scope, stmt.name])
                )
                self._func = method
                self._scope.append(stmt.name)
                self._func_depth += 1
                for body_stmt in stmt.body:
                    self._visit(body_stmt)
                self._func_depth -= 1
                self._scope.pop()
                self._func = was_func
                info.methods[stmt.name] = method
                if registered:
                    self.all_functions.append((method, stmt))
            else:
                self._visit(stmt)
        self._scope.pop()

    # -- expression-level facts ---------------------------------------

    def _handle_generic(self, node: ast.AST) -> None:
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            # The call's value is discarded; recorded before the child
            # visit reaches the Call itself.
            self._call_use[id(node.value)] = "stmt"
        if isinstance(node, ast.Call):
            self._record_call(node)
        elif isinstance(node, ast.Assign):
            self._record_assignment(node)

    def _record_call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        func = self._func
        if name is not None and func is not None:
            func.call_sites.append(
                [
                    name,
                    node.lineno,
                    node.col_offset + 1,
                    self._call_use.get(id(node), ""),
                ]
            )
        if name is not None and RNG_CONSTRUCTORS.match(name):
            self._record_rng_construction(node, name)

    def _record_assignment(self, node: ast.Assign) -> None:
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            self._call_use[id(node.value)] = f"bound:{node.targets[0].id}"

    def _record_rng_construction(self, node: ast.Call, name: str) -> None:
        seed = seed_argument(node)
        if seed is None:
            seed_kind, seed_repr = "missing", ""
        elif isinstance(seed, ast.Constant):
            seed_kind = "none" if seed.value is None else "literal"
            seed_repr = repr(seed.value)
        elif isinstance(seed, ast.Name):
            seed_kind, seed_repr = "name", seed.id
        elif isinstance(seed, ast.Attribute):
            seed_kind = "attribute"
            seed_repr = dotted_name(seed) or seed.attr
        else:
            seed_kind, seed_repr = "expr", type(seed).__name__
        self.summary.rng_constructions.append(
            RngConstruction(
                name=name,
                lineno=node.lineno,
                col=node.col_offset + 1,
                seed_kind=seed_kind,
                seed_repr=seed_repr,
                scope=self._scope_name(),
            )
        )


def extract_module(
    name: str,
    path: str,
    tree: ast.Module,
    *,
    protocols: ProtocolConfig | None = None,
    ctx: FileContext | None = None,
) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed module.

    After the single-pass walk, a post-pass
    (:func:`repro.analysis.summaries.augment_function`) adds the phase-4
    procedure summaries; its protocol-scoped fields (``call_orders``,
    ``receivers``) are only recorded for modules an ordering/typestate
    contract covers.  It reads each function's CFG from ``ctx``, the
    file's :class:`FileContext` the rules also used (a fresh one when
    none is given).
    """
    if ctx is None:
        ctx = FileContext.build(path, "", tree)
    is_package = Path(path).name == "__init__.py"
    extractor = _Extractor(name, path, is_package)
    summary = extractor.run(tree)
    record_orders = protocols is not None and protocols.order_scoped(name)
    record_receivers = protocols is not None and protocols.typestate_scoped(name)
    for info, def_node in extractor.all_functions:
        augment_function(
            info,
            def_node,
            ctx,
            record_orders=record_orders,
            record_receivers=record_receivers,
        )
    return summary


@dataclass
class ProjectModel:
    """Phase-1 output: every module summary, with resolution helpers."""

    modules: dict[str, ModuleSummary] = field(default_factory=dict)

    @classmethod
    def from_summaries(cls, summaries: Iterable[ModuleSummary]) -> "ProjectModel":
        model = cls()
        for summary in summaries:
            model.modules[summary.name] = summary
        return model

    def resolved_edges(
        self, kinds: Sequence[str] = ("module",)
    ) -> Iterator[tuple[str, str, ImportRecord]]:
        """Yield (source module, target module, record) import edges.

        Only edges whose target is a module in the model are yielded;
        guessed submodule records count only when they name a real
        module.  External imports (numpy, stdlib) never appear.
        """
        for name, summary in self.modules.items():
            for record in summary.imports:
                if record.kind not in kinds:
                    continue
                if record.target in self.modules:
                    yield name, record.target, record

    def resolve(self, module_name: str, name: str) -> str | None:
        """Resolve a source-level name in ``module_name`` to dotted form.

        Local classes/functions resolve to ``module.name``; imported
        names follow the module's bindings; dotted names resolve their
        first segment and keep the rest.
        """
        summary = self.modules.get(module_name)
        if summary is None:
            return None
        head, _, rest = name.partition(".")
        resolved: str | None = None
        if head in summary.classes or head in summary.functions:
            resolved = f"{module_name}.{head}"
        elif head in summary.bindings:
            resolved = summary.bindings[head]
        if resolved is None:
            return None
        return f"{resolved}.{rest}" if rest else resolved

    def find_class(self, dotted: str) -> tuple[ModuleSummary, ClassInfo] | None:
        """Look up ``pkg.module.Class`` by longest module-name prefix."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            summary = self.modules.get(module)
            if summary is None:
                continue
            if len(parts) - split == 1:
                info = summary.classes.get(parts[split])
                if info is not None:
                    return summary, info
            # A longer prefix matched a module but the remainder is not a
            # plain class name -- keep trying shorter prefixes.
        return None

    def resolve_class(
        self, module_name: str, source_name: str
    ) -> tuple[ModuleSummary, ClassInfo] | None:
        """Resolve a class reference as written in ``module_name``."""
        dotted = self.resolve(module_name, source_name)
        if dotted is None:
            return None
        found = self.find_class(dotted)
        if found is not None:
            return found
        # ``from x import Y`` where Y is re-exported: chase one binding hop.
        head, _, rest = dotted.rpartition(".")
        summary = self.modules.get(head)
        if summary is not None and rest in summary.bindings:
            return self.find_class(summary.bindings[rest])
        return None

    def base_chain(
        self, module_name: str, class_name: str, limit: int = 32
    ) -> Iterator[tuple[ModuleSummary, ClassInfo]]:
        """Walk a class's base-class chain through the model (MRO-ish).

        Yields (module, class) pairs starting at the class itself,
        following first resolvable bases breadth-first, stopping at
        classes outside the model.
        """
        start = self.modules.get(module_name)
        if start is None:
            return
        info = start.classes.get(class_name)
        if info is None:
            return
        queue: list[tuple[ModuleSummary, ClassInfo]] = [(start, info)]
        seen: set[tuple[str, str]] = set()
        while queue and limit:
            limit -= 1
            summary, current = queue.pop(0)
            key = (summary.name, current.name)
            if key in seen:
                continue
            seen.add(key)
            yield summary, current
            for base in current.bases:
                resolved = self.resolve_class(summary.name, base)
                if resolved is not None:
                    queue.append(resolved)
