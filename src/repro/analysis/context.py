"""Per-file state of one lint pass: :class:`FileContext`.

Every phase reads the same context, so each piece of per-file work
happens once: the source is tokenised once (suppression comments), the
tree is walked once for parent links, and each function's control-flow
graph and held-binding analysis are computed at most once, on first
use.  The flow rules (RL201, RL202, RL204) and the procedure summaries
behind RL301-RL305 share them.

Suppressions are comment-driven: a physical line containing
``# reprolint: disable=RL001`` (ids comma separated) silences those
rules for findings anchored to that line.  Comments are discovered with
:mod:`tokenize`, so the marker is never matched inside a string literal.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

from repro.analysis.cfg import CFG, build_cfg
from repro.analysis.summaries import HeldBindings, held_bindings

_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*disable=([A-Z0-9,\s]+)")

_Function = ast.FunctionDef | ast.AsyncFunctionDef


@dataclass
class FileContext:
    """Per-file state shared by every rule and the module summary.

    ``parents`` maps each AST node to its syntactic parent, letting rules
    ask questions like "is this ``def`` nested inside another function?"
    without each rule re-walking the tree.  ``suppressions`` maps a line
    number to the rule ids disabled on it.
    """

    path: str
    source: str
    tree: ast.Module
    lines: Sequence[str]
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    suppressions: dict[int, frozenset[str]] = field(default_factory=dict)
    _cfgs: dict[ast.AST, CFG] = field(default_factory=dict, init=False, repr=False)
    _held: dict[ast.AST, HeldBindings] = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def build(cls, path: str, source: str, tree: ast.Module) -> "FileContext":
        ctx = cls(path=path, source=source, tree=tree, lines=source.splitlines())
        stack: list[ast.AST] = [tree]
        while stack:
            parent = stack.pop()
            for child in ast.iter_child_nodes(parent):
                ctx.parents[child] = parent
                stack.append(child)
        ctx.suppressions = _collect_suppressions(source)
        return ctx

    def parent_chain(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield ancestors of ``node``, innermost first."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def cfg(self, node: _Function) -> CFG:
        """The control-flow graph of one function, built on first use."""
        graph = self._cfgs.get(node)
        if graph is None:
            graph = self._cfgs[node] = build_cfg(node)
        return graph

    def held(self, node: _Function) -> HeldBindings:
        """Call results one function binds and still holds at its exits."""
        held = self._held.get(node)
        if held is None:
            held = self._held[node] = held_bindings(self.cfg(node), self.parents)
        return held


def _collect_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Map physical line number -> rule ids disabled on that line."""
    suppressions: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            ids = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            line = token.start[0]
            suppressions[line] = suppressions.get(line, frozenset()) | ids
    except tokenize.TokenError:
        # A tokenize failure (unterminated string, etc.) surfaces later as
        # a parse error; suppression info is best-effort by then.
        pass
    return suppressions
