"""Intraprocedural control-flow graphs for flow-sensitive lint rules.

The per-file rules (RL001-RL006) and whole-program rules (RL101-RL105)
are flow-*insensitive*: they see that a function opens a handle, but
not *on which paths*.  The phase-3 rules (RL201+) need exactly that — a
handle closed in one branch but leaked in the other, a dtype that
promotes halfway through a kernel — so this module lowers one function
body at a time into a small CFG.

Design notes:

* **One statement per node.**  Functions in this tree are short; the
  precision of per-statement states is worth more than basic-block
  compaction.  Compound statements contribute a *header* node (the
  ``if``/``while`` test, the ``for`` iterable, the ``with`` items) and
  their bodies are lowered recursively; :func:`evaluated` returns the
  expressions a node actually evaluates so analyses never double-count
  a body through its header.
* **Exception edges are first-class.**  Any statement that may raise
  (it contains a call, a subscript, an ``await``, or is a
  ``raise``/``assert``/import) gets an ``"exception"`` edge to the
  innermost enclosing handler, or to the synthetic ``raise_exit`` node
  when the exception would leave the function.  Resource-lifetime and
  must-write analyses are sound on error paths because of these edges.
* **``finally`` bodies are duplicated per continuation.**  A ``finally``
  runs on the normal path, on every exception path and on every abrupt
  exit (``return``/``break``/``continue``) crossing it; each such path
  gets its own copy of the finally subgraph so states never merge
  continuations that Python keeps separate.  The same AST statement may
  therefore back several nodes.
* **Nested ``def``/``class`` bodies are opaque.**  A nested definition
  is a single (non-raising) statement node; its body belongs to its own
  CFG, built separately by the engine.

Everything here is pure stdlib ``ast``; the module sits below the rule
layer so both the engine (phase 3) and the model extractor
(:mod:`repro.analysis.project`, for flow-sensitive ``ctx`` facts) can
build graphs without import cycles.
"""

from __future__ import annotations

import ast
from collections.abc import Sequence
from dataclasses import dataclass, field

#: Edge kinds: ``"normal"`` control flow vs an ``"exception"`` unwind.
NORMAL = "normal"
EXCEPTION = "exception"

#: Exception types broad enough to catch anything (for dispatch edges).
_CATCH_ALL = frozenset({"BaseException", "Exception"})

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

_TRY_TYPES: tuple[type[ast.stmt], ...] = (ast.Try,)
if hasattr(ast, "TryStar"):  # 3.11+
    _TRY_TYPES = (ast.Try, ast.TryStar)


@dataclass
class CFGNode:
    """One node of the graph: a statement, a header, or a synthetic mark.

    ``label`` is ``"entry"``/``"exit"``/``"raise-exit"`` for the three
    synthetic boundary nodes, ``"stmt"`` for simple statements,
    ``"branch"``/``"loop"``/``"with"``/``"try"`` for compound-statement
    headers, ``"except"`` for a handler entry and ``"except-dispatch"``
    for the synthetic fan-out to a ``try``'s handlers.
    """

    index: int
    stmt: ast.AST | None
    label: str
    succs: list[tuple[int, str]] = field(default_factory=list)
    preds: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class CFG:
    """The control-flow graph of one function body."""

    nodes: list[CFGNode]
    entry: int
    exit: int
    raise_exit: int

    def reachable(self) -> set[int]:
        """Node indices reachable from the entry node."""
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            for succ, _ in self.nodes[stack.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen


def evaluated(node: CFGNode) -> tuple[ast.AST, ...]:
    """The AST fragments a node actually evaluates.

    For a simple statement that is the whole statement (targets
    included); for a compound header only its test/iterable/items —
    never the body, whose statements carry their own nodes.  Nested
    ``def``/``class`` statements evaluate nothing here (their bodies are
    separate CFGs and their headers are out of scope for our rules).
    """
    stmt = node.stmt
    if stmt is None:
        return ()
    if isinstance(stmt, (*_FUNC_DEFS, ast.ClassDef)):
        return ()
    if isinstance(stmt, ast.If):
        return (stmt.test,)
    if isinstance(stmt, ast.While):
        return (stmt.test,)
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return (stmt.iter, stmt.target)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        parts: list[ast.AST] = []
        for item in stmt.items:
            parts.append(item.context_expr)
            if item.optional_vars is not None:
                parts.append(item.optional_vars)
        return tuple(parts)
    if isinstance(stmt, _TRY_TYPES):
        return ()
    if isinstance(stmt, ast.Match):
        return (stmt.subject,)
    if isinstance(stmt, ast.ExceptHandler):
        return ()
    return (stmt,)


def _expr_raises(node: ast.AST | None) -> bool:
    """May evaluating this fragment raise?  Calls, subscripts, awaits.

    Lambda and nested-definition bodies are not evaluated at the point
    of definition, so they are skipped.
    """
    if node is None:
        return False
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.Call, ast.Subscript, ast.Await)):
            return True
        if isinstance(current, (ast.Lambda, *_FUNC_DEFS, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(current))
    return False


def _stmt_raises(stmt: ast.stmt) -> bool:
    """May this *simple* statement raise when executed?"""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    if isinstance(stmt, (*_FUNC_DEFS, ast.ClassDef)):
        return False  # body not executed; header effects are out of scope
    if isinstance(stmt, (ast.Pass, ast.Global, ast.Nonlocal, ast.Break, ast.Continue)):
        return False
    return _expr_raises(stmt)


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names: list[ast.expr]
    if isinstance(handler.type, ast.Tuple):
        names = list(handler.type.elts)
    else:
        names = [handler.type]
    for expr in names:
        tail = expr.attr if isinstance(expr, ast.Attribute) else None
        if isinstance(expr, ast.Name):
            tail = expr.id
        if tail in _CATCH_ALL:
            return True
    return False


@dataclass
class _LoopFrame:
    head: int
    breaks: list[int] = field(default_factory=list)


@dataclass
class _HandlerFrame:
    dispatch: int


@dataclass
class _FinallyFrame:
    body: list[ast.stmt]


_Frame = _LoopFrame | _HandlerFrame | _FinallyFrame


class _Builder:
    """Lower one function body to a :class:`CFG`."""

    def __init__(self) -> None:
        self.nodes: list[CFGNode] = []
        self.frames: list[_Frame] = []
        self.entry = self._new(None, "entry")
        self.exit = self._new(None, "exit")
        self.raise_exit = self._new(None, "raise-exit")

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        frontier = self._stmts(list(body), [self.entry])
        self._connect(frontier, self.exit)
        return CFG(
            nodes=self.nodes,
            entry=self.entry,
            exit=self.exit,
            raise_exit=self.raise_exit,
        )

    # -- graph primitives ---------------------------------------------

    def _new(self, stmt: ast.AST | None, label: str) -> int:
        node = CFGNode(index=len(self.nodes), stmt=stmt, label=label)
        self.nodes.append(node)
        return node.index

    def _connect(self, frontier: Sequence[int], target: int, kind: str = NORMAL) -> None:
        for source in frontier:
            self.nodes[source].succs.append((target, kind))
            self.nodes[target].preds.append((source, kind))

    # -- statement lowering -------------------------------------------

    def _stmts(
        self, stmts: Sequence[ast.stmt], frontier: list[int], kind: str = NORMAL
    ) -> list[int]:
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier, kind)
            kind = NORMAL
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: list[int], kind: str) -> list[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier, kind)
        if isinstance(stmt, ast.While):
            return self._while(stmt, frontier, kind)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier, kind)
        if isinstance(stmt, _TRY_TYPES):
            return self._try(stmt, frontier, kind)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier, kind)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, frontier, kind)
        if isinstance(stmt, ast.Return):
            return self._return(stmt, frontier, kind)
        if isinstance(stmt, ast.Raise):
            node = self._new(stmt, "stmt")
            self._connect(frontier, node, kind)
            self._exception_edge(node)
            return []
        if isinstance(stmt, ast.Break):
            return self._break(stmt, frontier, kind)
        if isinstance(stmt, ast.Continue):
            return self._continue(stmt, frontier, kind)
        if isinstance(stmt, ast.Assert):
            node = self._new(stmt, "stmt")
            self._connect(frontier, node, kind)
            self._exception_edge(node)  # the assertion may fail
            return [node]
        node = self._new(stmt, "stmt")
        self._connect(frontier, node, kind)
        if _stmt_raises(stmt):
            self._exception_edge(node)
        return [node]

    def _if(self, stmt: ast.If, frontier: list[int], kind: str) -> list[int]:
        test = self._new(stmt, "branch")
        self._connect(frontier, test, kind)
        if _expr_raises(stmt.test):
            self._exception_edge(test)
        out = self._stmts(stmt.body, [test])
        if stmt.orelse:
            out = out + self._stmts(stmt.orelse, [test])
        else:
            out = out + [test]
        return out

    def _while(self, stmt: ast.While, frontier: list[int], kind: str) -> list[int]:
        head = self._new(stmt, "loop")
        self._connect(frontier, head, kind)
        if _expr_raises(stmt.test):
            self._exception_edge(head)
        frame = _LoopFrame(head=head)
        self.frames.append(frame)
        body_out = self._stmts(stmt.body, [head])
        self.frames.pop()
        self._connect(body_out, head)  # back edge
        if isinstance(stmt.test, ast.Constant) and stmt.test.value:
            out: list[int] = []  # ``while True`` only falls out via break
        else:
            out = [head]
        if stmt.orelse and out:
            out = self._stmts(stmt.orelse, out)
        return out + frame.breaks

    def _for(self, stmt: ast.For | ast.AsyncFor, frontier: list[int], kind: str) -> list[int]:
        head = self._new(stmt, "loop")
        self._connect(frontier, head, kind)
        if _expr_raises(stmt.iter) or _expr_raises(stmt.target):
            self._exception_edge(head)
        frame = _LoopFrame(head=head)
        self.frames.append(frame)
        body_out = self._stmts(stmt.body, [head])
        self.frames.pop()
        self._connect(body_out, head)
        out = [head]
        if stmt.orelse:
            out = self._stmts(stmt.orelse, out)
        return out + frame.breaks

    def _with(self, stmt: ast.With | ast.AsyncWith, frontier: list[int], kind: str) -> list[int]:
        node = self._new(stmt, "with")
        self._connect(frontier, node, kind)
        if any(_expr_raises(item.context_expr) for item in stmt.items):
            self._exception_edge(node)  # entering a context manager may raise
        return self._stmts(stmt.body, [node])

    def _match(self, stmt: ast.Match, frontier: list[int], kind: str) -> list[int]:
        subject = self._new(stmt, "branch")
        self._connect(frontier, subject, kind)
        if _expr_raises(stmt.subject):
            self._exception_edge(subject)
        out: list[int] = []
        wildcard = False
        for case in stmt.cases:
            out += self._stmts(case.body, [subject])
            if (
                isinstance(case.pattern, ast.MatchAs)
                and case.pattern.pattern is None
                and case.guard is None
            ):
                wildcard = True
        if not wildcard:
            out.append(subject)  # no case matched: fall through
        return out

    def _try(self, stmt: ast.stmt, frontier: list[int], kind: str) -> list[int]:
        assert isinstance(stmt, _TRY_TYPES)
        entry = self._new(stmt, "try")
        self._connect(frontier, entry, kind)
        final_frame = _FinallyFrame(stmt.finalbody) if stmt.finalbody else None
        dispatch = self._new(None, "except-dispatch") if stmt.handlers else None

        if final_frame is not None:
            self.frames.append(final_frame)
        if dispatch is not None:
            self.frames.append(_HandlerFrame(dispatch))
        out = self._stmts(stmt.body, [entry])
        if dispatch is not None:
            self.frames.pop()  # handlers only guard the try body
        if stmt.orelse and out:
            out = self._stmts(stmt.orelse, out)

        caught_all = False
        if dispatch is not None:
            for handler in stmt.handlers:
                head = self._new(handler, "except")
                self._connect([dispatch], head)
                out += self._stmts(handler.body, [head])
                caught_all = caught_all or _is_catch_all(handler)
            if not caught_all:
                # An unmatched exception propagates past this try
                # (running its finally on the way out).
                self._exception_edge(dispatch)
        if final_frame is not None:
            self.frames.pop()
        if stmt.finalbody and out:
            out = self._stmts(stmt.finalbody, out)  # the normal-path copy
        return out

    # -- abrupt exits and unwinding -----------------------------------

    def _exception_edge(self, source: int) -> None:
        """Wire ``source`` to wherever an exception raised there lands.

        Walks the frame stack inward-out: pending ``finally`` bodies are
        copied onto the path, the innermost handler dispatch terminates
        it, and with no handler the path ends at ``raise_exit``.
        """
        frontier = [source]
        kind = EXCEPTION
        for depth in range(len(self.frames) - 1, -1, -1):
            frame = self.frames[depth]
            if isinstance(frame, _HandlerFrame):
                self._connect(frontier, frame.dispatch, kind)
                return
            if isinstance(frame, _FinallyFrame):
                frontier, kind = self._finally_copy(frame, depth, frontier, kind)
                if not frontier:
                    return  # the finally itself diverges
        self._connect(frontier, self.raise_exit, kind)

    def _finally_copy(
        self, frame: _FinallyFrame, depth: int, frontier: list[int], kind: str
    ) -> tuple[list[int], str]:
        """Lower one copy of a finally body in its *outer* frame context."""
        saved = self.frames
        self.frames = list(saved[:depth])
        try:
            out = self._stmts(frame.body, frontier, kind)
        finally:
            self.frames = saved
        return out, NORMAL

    def _return(self, stmt: ast.Return, frontier: list[int], kind: str) -> list[int]:
        node = self._new(stmt, "stmt")
        self._connect(frontier, node, kind)
        if _expr_raises(stmt.value):
            self._exception_edge(node)
        out = [node]
        for depth in range(len(self.frames) - 1, -1, -1):
            frame = self.frames[depth]
            if isinstance(frame, _FinallyFrame):
                out, _ = self._finally_copy(frame, depth, out, NORMAL)
                if not out:
                    return []
        self._connect(out, self.exit)
        return []

    def _break(self, stmt: ast.Break, frontier: list[int], kind: str) -> list[int]:
        node = self._new(stmt, "stmt")
        self._connect(frontier, node, kind)
        out = [node]
        for depth in range(len(self.frames) - 1, -1, -1):
            frame = self.frames[depth]
            if isinstance(frame, _LoopFrame):
                frame.breaks.extend(out)
                return []
            if isinstance(frame, _FinallyFrame):
                out, _ = self._finally_copy(frame, depth, out, NORMAL)
                if not out:
                    return []
        self._connect(out, self.exit)  # malformed code; fail open
        return []

    def _continue(self, stmt: ast.Continue, frontier: list[int], kind: str) -> list[int]:
        node = self._new(stmt, "stmt")
        self._connect(frontier, node, kind)
        out = [node]
        for depth in range(len(self.frames) - 1, -1, -1):
            frame = self.frames[depth]
            if isinstance(frame, _LoopFrame):
                self._connect(out, frame.head)
                return []
            if isinstance(frame, _FinallyFrame):
                out, _ = self._finally_copy(frame, depth, out, NORMAL)
                if not out:
                    return []
        self._connect(out, self.exit)
        return []


def build_cfg(node: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Build the control-flow graph of one function body."""
    return _Builder().build(node.body)
