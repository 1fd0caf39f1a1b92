"""RL201 -- file/mmap handles must be closed on every path.

The serving layer keeps snapshot payloads memory-mapped for the life of
a worker process; everything else that opens an OS resource — bundle
files, temporary spill files, sockets — must release it on *every* path
out of the function, exception paths included.  A ``with`` statement or
a ``try/finally`` close is the idiom; a handle that escapes (returned,
passed to another callable, stored on an object) transfers ownership
and is the caller's problem.

The analysis is the forward may-analysis of
:func:`repro.analysis.summaries.held_bindings`, solved once per function
and shared with RL305; this rule reads its acquirer facts: handles
acquired by a plain ``name = open(...)``-style assignment and not yet
closed or escaped.  ``.close()`` (called or passed as a callback) kills;
rebinding, ``del``, ``with name:`` and any other use of the bare name
that hands it to other code kill conservatively — RL201 only flags
handles the function *provably* keeps to itself and then drops.
Exception edges carry the kill-but-not-gen state, so ``f = open(p)``
raising mid-statement never leaks a phantom handle, while a raise
*after* the assignment does leak the real one unless a ``finally``
closes it.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.cfg import CFG
from repro.analysis.engine import FileContext, Finding, FlowRule
# The acquirer table lives in repro.analysis.summaries so RL305's
# returns-handle closure and this rule can never disagree.
from repro.analysis.summaries import is_acquirer_call, is_acquirer_name


class ResourceLifetime(FlowRule):
    rule_id = "RL201"
    summary = "acquired file/mmap handles must be closed on all paths"

    def check_function(
        self,
        graph: CFG,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        ctx: FileContext,
    ) -> Iterable[Finding]:
        held = ctx.held(node)
        findings: dict[tuple[str, int, int], Finding] = {}
        # Handles still open when the function returns normally, then
        # those leaked only when an exception escapes the function.
        for states, leak in (
            (held.at_return, "is not closed on every path to return"),
            (held.at_raise, "leaks when an exception escapes"),
        ):
            for name, callee, line, col in sorted(states):
                if is_acquirer_name(callee):
                    findings.setdefault(
                        (name, line, col),
                        Finding(
                            path=ctx.path,
                            line=line,
                            col=col,
                            rule_id=self.rule_id,
                            message=(
                                f"`{name}` acquires a closeable resource that "
                                f"{leak}; use `with` or close it in a `finally`"
                            ),
                        ),
                    )
        yield from findings.values()
        # Acquirer results dropped on the floor (not bound, returned or
        # passed anywhere) can never be closed.
        reachable = graph.reachable()
        seen: set[tuple[int, int]] = set()
        for cfg_node in graph.nodes:
            if cfg_node.index not in reachable:
                continue
            stmt = cfg_node.stmt
            if (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)
                and is_acquirer_call(stmt.value)
            ):
                key = (stmt.lineno, stmt.col_offset)
                if key in seen:
                    continue
                seen.add(key)
                yield self.make_finding(
                    stmt,
                    ctx,
                    "resource acquired and immediately discarded; bind it "
                    "and close it, or use `with`",
                )
