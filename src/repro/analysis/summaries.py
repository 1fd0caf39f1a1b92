"""Phase-4 procedure summaries: per-function flow facts and effect closures.

The interprocedural rules (RL301-RL305) need more than the shallow
per-function facts phase 1 extracts: they reason about *orderings* of
calls inside a function (was there an fsync on every path before this
rename?), about *typestate traces* (which methods ran on this object,
in what order), and about *effects* that flow through the call graph
(does this helper, transitively, fsync?  does it return an open
handle?).

This module computes both halves:

* :func:`augment_function` runs at extraction time (from
  :func:`repro.analysis.project.extract_module`) and adds flow-derived
  fields to a :class:`FunctionInfo`: ``call_sites`` (every dotted call,
  for the call graph), ``must_calls`` (calls made on every path to a
  normal return), ``call_orders`` (per-site must-before / must-after
  call sets, only in modules covered by an ordering protocol),
  ``receivers`` (method-call traces on locals bound from constructors,
  only in modules covered by a typestate protocol), ``leaks`` (locals
  bound from a call and never closed/escaped, the RL305 input) and the
  ``returns_*`` facts feeding the returns-handle closure.

* :func:`held_bindings` is the one held-binding analysis per function:
  RL201 reads its acquirer facts, ``leaks`` its helper-call facts.

* :class:`EffectIndex` runs at lint time over the
  :class:`~repro.analysis.callgraph.CallGraph` and closes the
  per-function facts over calls: the may-emit / must-emit sets for each
  named event of the protocol table, and the returns-handle set for
  RL305.  Each closure is computed on first use.

The must-after side of ``call_orders`` deliberately ignores exception
edges: "a directory fsync follows every publish" is a guarantee about
paths that *complete*; the publish-then-crash window is exactly what
the crash-consistency protocol tolerates (and what replay repairs).
The must-before side counts exception edges, because a fact is only
"before" a site if no route into the site skips it.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from fnmatch import fnmatch
from typing import TYPE_CHECKING, Any

from repro.analysis.cfg import CFG, NORMAL, CFGNode, evaluated
from repro.analysis.dataflow import DataflowAnalysis, solve

if TYPE_CHECKING:  # real imports would cycle through project.py
    from repro.analysis.callgraph import CallGraph
    from repro.analysis.context import FileContext
    from repro.analysis.project import FunctionInfo, ProjectModel

#: Callables whose result is an OS resource with a ``close()`` contract.
#: (Shared with RL201; RL305 uses it to seed the returns-handle closure.)
ACQUIRERS = frozenset(
    {
        "open",
        "io.open",
        "os.fdopen",
        "mmap.mmap",
        "gzip.open",
        "bz2.open",
        "lzma.open",
        "tarfile.open",
        "zipfile.ZipFile",
        "socket.socket",
        "tempfile.TemporaryFile",
        "tempfile.NamedTemporaryFile",
    }
)


def is_acquirer_name(name: str) -> bool:
    """Does a dotted callable name acquire a closeable OS resource?"""
    return name in ACQUIRERS or name.endswith(".open")


def is_acquirer_call(call: ast.Call) -> bool:
    name = _dotted(call.func)
    return name is not None and is_acquirer_name(name)


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` chains to a dotted string.  (Local copy: importing the
    rules package or project.py from here would create an import cycle.)
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


def _walk_evaluated(node: CFGNode) -> Iterator[ast.AST]:
    """Walk a node's evaluated fragments, skipping deferred lambda bodies."""
    stack: list[ast.AST] = list(evaluated(node))
    while stack:
        sub = stack.pop()
        if isinstance(sub, ast.Lambda):
            continue  # its body runs when called, not here
        yield sub
        stack.extend(ast.iter_child_nodes(sub))


def _node_calls(node: CFGNode) -> list[tuple[str, int, int]]:
    """Dotted ``(name, line, col)`` of every call a node evaluates."""
    calls: list[tuple[str, int, int]] = []
    for sub in _walk_evaluated(node):
        if isinstance(sub, ast.Call):
            name = _dotted(sub.func)
            if name is not None:
                calls.append((name, sub.lineno, sub.col_offset + 1))
    return calls


# -- must-before / must-after call analyses ----------------------------


class _MustCalls(DataflowAnalysis[frozenset[str]]):
    """Forward must-analysis: calls completed on every path into a node.

    Exception edges carry the pre-state — a statement that raises never
    completed its own calls.
    """

    def __init__(self, calls: Mapping[int, frozenset[str]]) -> None:
        self.calls = calls

    def boundary(self) -> frozenset[str]:
        return frozenset()

    def join(self, states: Sequence[frozenset[str]]) -> frozenset[str]:
        result = states[0]
        for state in states[1:]:
            result &= state
        return result

    def transfer(self, node: CFGNode, state: frozenset[str]) -> frozenset[str]:
        gen = self.calls.get(node.index)
        return state | gen if gen else state

    def transfer_exception(
        self, node: CFGNode, state: frozenset[str]
    ) -> frozenset[str]:
        return state


def _must_after(
    graph: CFG, calls: Mapping[int, frozenset[str]]
) -> dict[int, frozenset[str]]:
    """Per node: calls made on every *normal* path strictly after it.

    A node that cannot reach the exit along normal edges is absent — a
    must-after requirement is vacuous on a path that never returns.
    """
    out: dict[int, frozenset[str]] = {graph.exit: frozenset()}
    worklist = [graph.exit]
    while worklist:
        index = worklist.pop()
        node = graph.nodes[index]
        into = out[index] | calls.get(index, frozenset())
        for pred, kind in node.preds:
            if kind != NORMAL:
                continue
            current = out.get(pred)
            updated = into if current is None else current & into
            if current is None or updated != current:
                out[pred] = updated
                worklist.append(pred)
    return out


# -- receiver traces (typestate input) ---------------------------------

_MethodState = frozenset[tuple[str, str]]


class _ReceiverMethods(DataflowAnalysis[_MethodState]):
    """Forward may-analysis: methods that may have run on tracked locals."""

    def __init__(
        self,
        methods: Mapping[int, tuple[tuple[str, str], ...]],
        rebinds: Mapping[int, frozenset[str]],
    ) -> None:
        self.methods = methods
        self.rebinds = rebinds

    def boundary(self) -> _MethodState:
        return frozenset()

    def join(self, states: Sequence[_MethodState]) -> _MethodState:
        result = states[0]
        for state in states[1:]:
            result |= state
        return result

    def transfer(self, node: CFGNode, state: _MethodState) -> _MethodState:
        killed = self.rebinds.get(node.index)
        if killed:
            state = frozenset(pair for pair in state if pair[0] not in killed)
        gen = self.methods.get(node.index)
        return state | frozenset(gen) if gen else state

    def transfer_exception(self, node: CFGNode, state: _MethodState) -> _MethodState:
        # May-analysis: the method may have run before the raise.
        return self.transfer(node, state)


def _creation(stmt: ast.AST | None) -> tuple[str, str] | None:
    """``(var, dotted callee)`` for ``var = callee(...)``, else None."""
    if (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.Call)
    ):
        name = _dotted(stmt.value.func)
        if name is not None:
            return stmt.targets[0].id, name
    return None


def _receiver_traces(graph: CFG) -> list[list[Any]]:
    """Method-call traces for locals bound from constructor-style calls.

    Returns ``[var, [[creator, line], ...], [[method, line, col,
    [prior-methods...]], ...]]`` entries; ``prior`` is the may-set of
    methods already run on the var when the call executes.
    """
    reachable = graph.reachable()
    creations: dict[str, list[list[Any]]] = {}
    for node in graph.nodes:
        if node.index not in reachable:
            continue
        created = _creation(node.stmt)
        if created is not None:
            creations.setdefault(created[0], []).append(
                [created[1], getattr(node.stmt, "lineno", 0)]
            )
    if not creations:
        return []
    tracked = frozenset(creations)
    methods: dict[int, tuple[tuple[str, str], ...]] = {}
    sites: dict[int, list[tuple[str, str, int, int]]] = {}
    rebinds: dict[int, frozenset[str]] = {}
    for node in graph.nodes:
        if node.index not in reachable:
            continue
        node_methods: list[tuple[str, str]] = []
        node_sites: list[tuple[str, str, int, int]] = []
        node_rebinds: set[str] = set()
        for sub in _walk_evaluated(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and isinstance(sub.func.value, ast.Name)
                and sub.func.value.id in tracked
            ):
                var, method = sub.func.value.id, sub.func.attr
                node_methods.append((var, method))
                node_sites.append((var, method, sub.lineno, sub.col_offset + 1))
            elif (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, (ast.Store, ast.Del))
                and sub.id in tracked
            ):
                node_rebinds.add(sub.id)
        if node_methods:
            methods[node.index] = tuple(node_methods)
            sites[node.index] = node_sites
        if node_rebinds:
            rebinds[node.index] = frozenset(node_rebinds)
    states = solve(graph, _ReceiverMethods(methods, rebinds))
    calls_by_var: dict[str, list[list[Any]]] = {}
    for index, node_sites_list in sites.items():
        state = states.get(index, frozenset())
        for var, method, line, col in node_sites_list:
            prior = sorted(m for v, m in state if v == var)
            calls_by_var.setdefault(var, []).append([method, line, col, prior])
    return [
        [var, creations[var], sorted(calls_by_var.get(var, []), key=lambda c: (c[1], c[2]))]
        for var in sorted(creations)
    ]


# -- held bindings (RL201 and RL305 input) ----------------------------

#: A call result bound to a local and not yet released:
#: ``(var, callee, line, col)``.
Held = tuple[str, str, int, int]
_HeldState = frozenset[Held]
_NodeEffect = tuple[frozenset[str], frozenset[str], Held | None]


@dataclass(frozen=True)
class HeldBindings:
    """What survives to each exit of one function: ``at_return`` on a
    normal return, ``at_raise`` when an exception escapes."""

    at_return: _HeldState
    at_raise: _HeldState


def _tracked_callee(callee: str) -> bool:
    """Is a bound call result a held-binding fact?  Acquirer results are
    RL201's; other callees feed RL305, except deep ``self.*`` chains, which
    can never resolve to a model function."""
    if is_acquirer_name(callee):
        return True
    return not (callee.startswith(("self.", "cls.")) and callee.count(".") >= 2)


class _HeldBindings(DataflowAnalysis[_HeldState]):
    """Forward may-analysis of call results bound to locals and still held.

    One solve serves two rules: acquirer bindings (``f = open(p)``) are
    RL201's facts, every other tracked binding (``h = open_log(p)``) is
    RL305's.  ``.close()`` (called or passed as a callback) and ``with
    var:`` release, rebind/``del`` kill, and any use that hands the value
    to other code (argument, return, container) escapes it.  What
    survives to an exit was provably held and dropped.  A raising
    statement completes its kills but never its own binding, so exception
    edges carry the kill-but-not-gen state.

    The two families keep their own kill scopes: a use inside a lambda
    body releases an acquirer handle (``lambda: f.close()``) but not a
    helper's result, and a statement binding any call result keeps its
    target's helper fact alive, while only an acquirer binding keeps an
    acquirer handle alive.
    """

    def __init__(self, parents: Mapping[ast.AST, ast.AST]) -> None:
        self.parents = parents
        self._effects: dict[int, _NodeEffect] = {}

    def boundary(self) -> _HeldState:
        return frozenset()

    def join(self, states: Sequence[_HeldState]) -> _HeldState:
        result = states[0]
        for state in states[1:]:
            result |= state
        return result

    def transfer(self, node: CFGNode, state: _HeldState) -> _HeldState:
        return self._apply(node, state, with_gen=True)

    def transfer_exception(self, node: CFGNode, state: _HeldState) -> _HeldState:
        return self._apply(node, state, with_gen=False)

    def _apply(self, node: CFGNode, state: _HeldState, *, with_gen: bool) -> _HeldState:
        effect = self._effects.get(node.index)
        if effect is None:
            effect = self._effects[node.index] = self._effect(node)
        acquirer_kills, helper_kills, gen = effect
        if acquirer_kills or helper_kills:
            state = frozenset(
                h
                for h in state
                if h[0] not in (acquirer_kills if is_acquirer_name(h[1]) else helper_kills)
            )
        if with_gen and gen is not None:
            # A new binding replaces the variable's old fact of its family.
            acquirer = is_acquirer_name(gen[1])
            state = frozenset(
                h for h in state if h[0] != gen[0] or is_acquirer_name(h[1]) != acquirer
            ) | {gen}
        return state

    def _effect(self, node: CFGNode) -> _NodeEffect:
        """(names releasing acquirer facts, names releasing helper facts,
        the fact this node binds)."""
        created = _creation(node.stmt)
        bound = created[0] if created is not None else None
        acquired = bound if created is not None and is_acquirer_name(created[1]) else None
        # [0]: what the statement runs itself; [1]: inside lambda bodies.
        stores: tuple[set[str], set[str]] = (set(), set())
        uses: tuple[set[str], set[str]] = (set(), set())
        stack: list[tuple[ast.AST, int]] = [(part, 0) for part in evaluated(node)]
        while stack:
            sub, deferred = stack.pop()
            if isinstance(sub, ast.Name):
                if isinstance(sub.ctx, (ast.Store, ast.Del)):
                    stores[deferred].add(sub.id)
                elif self._use_releases(sub):
                    uses[deferred].add(sub.id)
            deferred = deferred or int(isinstance(sub, ast.Lambda))
            stack.extend((child, deferred) for child in ast.iter_child_nodes(sub))
        gen: Held | None = None
        if created is not None and _tracked_callee(created[1]):
            stmt = node.stmt
            assert stmt is not None
            gen = (created[0], created[1], stmt.lineno, stmt.col_offset + 1)
        return (
            frozenset(((stores[0] | stores[1]) - {acquired}) | uses[0] | uses[1]),
            frozenset((stores[0] - {bound}) | uses[0]),
            gen,
        )

    def _use_releases(self, name: ast.Name) -> bool:
        """Does one Load of a name close or escape what it holds?"""
        parent = self.parents.get(name)
        if isinstance(parent, ast.Attribute):
            # ``f.close()`` or ``f.close`` as a callback releases it; any
            # other attribute/method access leaves it open.
            return parent.attr == "close"
        # ``with f:`` manages the release, and a bare ``f`` statement
        # neither closes nor escapes.  Anything else — call argument,
        # return/yield value, assignment value, container element,
        # comparison — hands the value to code we cannot see; ownership
        # conservatively leaves this function.
        return parent is not None and not isinstance(parent, ast.Expr)


def held_bindings(graph: CFG, parents: Mapping[ast.AST, ast.AST]) -> HeldBindings:
    """Solve the held-binding analysis of one function CFG."""
    states = solve(graph, _HeldBindings(parents))
    return HeldBindings(
        at_return=states.get(graph.exit, frozenset()),
        at_raise=states.get(graph.raise_exit, frozenset()),
    )


# -- returns facts ------------------------------------------------------


def _own_statements(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.stmt]:
    """Statements of the function body, nested def/class bodies excluded."""
    stack: list[ast.stmt] = list(node.body)
    while stack:
        stmt = stack.pop(0)
        yield stmt
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)
            else:
                stack.extend(
                    sub for sub in ast.walk(child) if isinstance(sub, ast.stmt)
                )


def _return_facts(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> tuple[bool, list[str], int]:
    """(returns an acquirer result, callees whose result is returned, line).

    Name returns are traced through single-target call bindings
    flow-insensitively; the facts feed the returns-handle closure.
    """
    bindings: dict[str, str] = {}
    returns_acquirer = False
    returns_calls: set[str] = set()
    returns_line = 0
    for stmt in _own_statements(node):
        created = _creation(stmt)
        if created is not None:
            bindings[created[0]] = created[1]
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            callee: str | None = None
            if isinstance(stmt.value, ast.Call):
                callee = _dotted(stmt.value.func)
            elif isinstance(stmt.value, ast.Name):
                callee = bindings.get(stmt.value.id)
            if callee is None:
                continue
            if is_acquirer_name(callee):
                returns_acquirer = True
                returns_line = returns_line or stmt.lineno
            else:
                returns_calls.add(callee)
                returns_line = returns_line or stmt.lineno
    return returns_acquirer, sorted(returns_calls), returns_line


# -- extraction-time entry point ---------------------------------------


def augment_function(
    info: FunctionInfo,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    ctx: FileContext,
    *,
    record_orders: bool = False,
    record_receivers: bool = False,
) -> None:
    """Fill the phase-4 flow fields of ``info`` from the function's CFG
    and held-binding analysis, both shared through ``ctx``."""
    graph = ctx.cfg(node)
    calls: dict[int, frozenset[str]] = {}
    reachable = graph.reachable()
    site_lists: dict[int, list[tuple[str, int, int]]] = {}
    for cfg_node in graph.nodes:
        if cfg_node.index not in reachable:
            continue
        node_calls = _node_calls(cfg_node)
        if node_calls:
            calls[cfg_node.index] = frozenset(name for name, _, _ in node_calls)
            site_lists[cfg_node.index] = node_calls

    before_states = solve(graph, _MustCalls(calls))
    info.returns_normally = graph.exit in before_states
    info.must_calls = sorted(before_states.get(graph.exit, frozenset()))

    if record_orders:
        after_states = _must_after(graph, calls)
        orders: list[list[Any]] = []
        for index, node_calls in sorted(site_lists.items()):
            before = sorted(before_states.get(index, frozenset()))
            after_state = after_states.get(index)
            after = sorted(after_state) if after_state is not None else None
            for name, line, col in node_calls:
                orders.append([name, line, col, before, after])
        info.call_orders = orders

    if record_receivers:
        info.receivers = _receiver_traces(graph)

    held = ctx.held(node)
    info.leaks = [
        [callee, var, line, col]
        for var, callee, line, col in sorted(held.at_return | held.at_raise)
        if not is_acquirer_name(callee)  # direct acquisitions stay RL201's
    ]
    acquirer, ret_calls, ret_line = _return_facts(node)
    info.returns_acquirer = acquirer
    info.returns_calls = ret_calls
    info.returns_line = ret_line


# -- lint-time effect closures -----------------------------------------


class EffectIndex:
    """Lazy interprocedural closures over the call graph.

    ``may_emit(event)`` — nodes from which a call matching the event's
    patterns may be reached (any call site, transitively).
    ``must_emit(event)`` — nodes guaranteed to emit the event on every
    path to a normal return (seeded from ``must_calls``, closed over
    callees that themselves must emit).  ``returns_handle()`` — nodes
    whose return value is, transitively, an open OS resource.
    """

    def __init__(
        self,
        model: ProjectModel,
        graph: CallGraph,
        events: Mapping[str, tuple[str, ...]],
    ) -> None:
        self.model = model
        self.graph = graph
        self.events = {name: tuple(patterns) for name, patterns in events.items()}
        self._may: dict[str, frozenset[str]] = {}
        self._must: dict[str, frozenset[str]] = {}
        self._returns_handle: frozenset[str] | None = None

    # -- pattern matching ----------------------------------------------

    def patterns(self, event: str) -> tuple[str, ...]:
        return self.events.get(event, ())

    def name_matches(
        self, module_name: str, scope: str, name: str, patterns: tuple[str, ...]
    ) -> bool:
        """Does a call name match, as written or once resolved?"""
        if any(fnmatch(name, pattern) for pattern in patterns):
            return True
        resolved = self.graph.resolve_dotted(module_name, scope, name)
        return resolved is not None and any(
            fnmatch(resolved, pattern) for pattern in patterns
        )

    def site_emits(
        self, module_name: str, scope: str, name: str, event: str
    ) -> bool:
        """May this call site emit the event — directly or transitively?"""
        patterns = self.patterns(event)
        if self.name_matches(module_name, scope, name, patterns):
            return True
        target = self.graph.resolve_call(module_name, scope, name)
        return target is not None and target in self.may_emit(event)

    # -- closures ------------------------------------------------------

    def may_emit(self, event: str) -> frozenset[str]:
        cached = self._may.get(event)
        if cached is not None:
            return cached
        patterns = self.patterns(event)
        emits: set[str] = set()
        if patterns:
            for node_id, fnode in self.graph.nodes.items():
                for name, _, _, _ in fnode.info.call_sites:
                    if self.name_matches(
                        fnode.module, fnode.qualname, name, patterns
                    ):
                        emits.add(node_id)
                        break
            worklist = list(emits)
            while worklist:
                target = worklist.pop()
                for caller in self.graph.reverse.get(target, ()):
                    if caller not in emits:
                        emits.add(caller)
                        worklist.append(caller)
        result = frozenset(emits)
        self._may[event] = result
        return result

    def must_emit(self, event: str) -> frozenset[str]:
        cached = self._must.get(event)
        if cached is not None:
            return cached
        patterns = self.patterns(event)
        emits: set[str] = set()
        if patterns:
            resolved_musts: dict[str, list[tuple[bool, str | None]]] = {}
            for node_id, fnode in self.graph.nodes.items():
                entries: list[tuple[bool, str | None]] = []
                for name in fnode.info.must_calls:
                    direct = self.name_matches(
                        fnode.module, fnode.qualname, name, patterns
                    )
                    target = self.graph.resolve_call(
                        fnode.module, fnode.qualname, name
                    )
                    entries.append((direct, target))
                    if direct:
                        emits.add(node_id)
                resolved_musts[node_id] = entries
            changed = True
            while changed:
                changed = False
                for node_id, entries in resolved_musts.items():
                    if node_id in emits:
                        continue
                    if any(
                        target is not None and target in emits
                        for _, target in entries
                    ):
                        emits.add(node_id)
                        changed = True
        result = frozenset(emits)
        self._must[event] = result
        return result

    def returns_handle(self) -> frozenset[str]:
        if self._returns_handle is not None:
            return self._returns_handle
        emits: set[str] = set()
        resolved: dict[str, list[str | None]] = {}
        for node_id, fnode in self.graph.nodes.items():
            if fnode.info.returns_acquirer:
                emits.add(node_id)
            resolved[node_id] = [
                self.graph.resolve_call(fnode.module, fnode.qualname, name)
                for name in fnode.info.returns_calls
            ]
        changed = True
        while changed:
            changed = False
            for node_id, targets in resolved.items():
                if node_id in emits:
                    continue
                if any(target is not None and target in emits for target in targets):
                    emits.add(node_id)
                    changed = True
        self._returns_handle = frozenset(emits)
        return self._returns_handle
