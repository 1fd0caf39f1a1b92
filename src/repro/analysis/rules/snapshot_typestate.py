"""RL303 -- typestate on snapshot/engine handles: no use after close.

Objects built from snapshot bundles (``QueryEngine.from_bundle``,
``ShardedIndex.open``, loaded snapshot indexes) own mmap-backed state:
once ``close()`` runs, a later ``query``/``ingest``/``compact`` call
touches unmapped memory or a half-released WAL.  The lifecycle is a
two-state protocol — *open* until a final method runs, then *closed*
forever — declared in ``[[tool.reprolint.protocols.typestate]]``.

Phase-1 extraction records, for every local bound from a constructor-
style call in a scoped module, the may-set of methods already run on
that local at each later method call (a forward dataflow fixpoint, so
branches and loops are honoured and rebinding the name starts a fresh
trace).  This rule flags any *forbidden* method whose prior-set
contains a *final* method: on some path the object was already closed.
Creator names match the protocol's ``create`` globs as written or
resolved through imports.
"""

from __future__ import annotations

from collections.abc import Iterable
from fnmatch import fnmatch

from repro.analysis.engine import Finding, InterContext, InterRule
from repro.analysis.project import ModuleSummary


class SnapshotTypestate(InterRule):
    rule_id = "RL303"
    summary = "no snapshot/engine method calls after close()"
    default_severity = "error"

    def check_module(
        self, module: ModuleSummary, ctx: InterContext
    ) -> Iterable[Finding]:
        protocols = [
            proto
            for proto in ctx.config.protocols.typestates
            if proto.scoped(module.name)
        ]
        if not protocols:
            return
        for fnode in ctx.graph.module_nodes(module.name):
            for var, creations, calls in fnode.info.receivers:
                for proto in protocols:
                    if not any(
                        self._creates(
                            ctx, module.name, fnode.qualname, creator, proto.create
                        )
                        for creator, _ in creations
                    ):
                        continue
                    suffix = f" — {proto.message}" if proto.message else ""
                    for method, line, col, prior in calls:
                        finals = sorted(set(proto.final) & set(prior))
                        if method in proto.forbidden and finals:
                            closed = "`/`.".join(finals)
                            yield self.finding(
                                module.path,
                                line,
                                col,
                                f"`{var}.{method}()` may run after "
                                f"`{var}.{closed}()` on some path; the "
                                "handle is already released" + suffix,
                            )

    @staticmethod
    def _creates(
        ctx: InterContext,
        module_name: str,
        scope: str,
        creator: str,
        patterns: tuple[str, ...],
    ) -> bool:
        if any(fnmatch(creator, pattern) for pattern in patterns):
            return True
        resolved = ctx.graph.resolve_dotted(module_name, scope, creator)
        return resolved is not None and any(
            fnmatch(resolved, pattern) for pattern in patterns
        )
