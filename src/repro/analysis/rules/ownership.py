"""RL305 -- ownership of handles returned by helpers.

RL201 tracks *direct* acquisitions (``open``, ``mmap.mmap``, ...)
inside one function.  But this codebase wraps acquisition in factories
— a helper that opens a segment file and returns the handle, a loader
that returns an mmap-backed reader — and the caller, not the helper,
owns the close.  A caller that binds such a result and lets it fall
out of scope leaks the descriptor; one that discards it outright leaks
it immediately.

The returns-handle set is an interprocedural closure: a function is in
it when some return value is an acquirer call, or the traced binding
of one, or a call to another returns-handle function.  On the caller
side, extraction reads the helper-call facts of the held-binding
analysis RL201 also reads (:func:`repro.analysis.summaries.held_bindings`:
``with``/``.close()`` release, rebind/``del`` kill, any escaping use
transfers ownership) and records what survives to an exit.  This rule
joins the two: a surviving binding, or a bare expression-statement
call, whose callee is in the closure is a leak.  Direct acquirer
bindings are excluded from the summaries — those stay RL201's, with its
richer per-path anchor.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.engine import Finding, InterContext, InterRule
from repro.analysis.project import ModuleSummary


class HelperHandleOwnership(InterRule):
    rule_id = "RL305"
    summary = "handles returned by helpers must be closed or handed on"
    default_severity = "error"

    def check_module(
        self, module: ModuleSummary, ctx: InterContext
    ) -> Iterable[Finding]:
        for fnode in ctx.graph.module_nodes(module.name):
            info = fnode.info
            for callee, var, line, col in info.leaks:
                target = ctx.graph.resolve_call(
                    module.name, fnode.qualname, callee
                )
                if target is None:
                    continue
                if target in ctx.effects.returns_handle():
                    yield self.finding(
                        module.path,
                        line,
                        col,
                        f"`{var}` holds an open handle returned by "
                        f"`{callee}` and is neither closed nor handed on "
                        "before the function exits",
                    )
            for name, line, col, use in info.call_sites:
                if use != "stmt":
                    continue
                target = ctx.graph.resolve_call(
                    module.name, fnode.qualname, name
                )
                if target is None:
                    continue
                if target in ctx.effects.returns_handle():
                    yield self.finding(
                        module.path,
                        line,
                        col,
                        f"`{name}` returns an open handle that is "
                        "discarded here; bind it and close it (or use "
                        "`with`)",
                    )
