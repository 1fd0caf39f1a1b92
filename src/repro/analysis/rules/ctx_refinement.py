"""RL203 -- flow-sensitive refinement of the stage-dataflow contract.

RL104 checks the pipeline's producer/consumer contract flow-
*insensitively*: a stage that writes ``ctx.attr`` anywhere in ``run`` is
assumed to have written it before any of its own reads, so the rule
skips every self-produced attribute.  That hides a real bug shape::

    def run(self, ctx):
        if ctx.blocker is not None:
            ctx.cand_a, ctx.cand_b = ctx.blocker.candidate_pairs(ctx.embedded_b)
        total = len(ctx.cand_a)   # no blocker: still None!

The write happens on *one* path; the read executes on all of them.
RL203 closes exactly this gap using the flow-sensitive
``ctx_maybe_unset`` facts the model extractor computes per function (a
must-written fixpoint over the function CFG, exception edges included):
for each stage ``run`` method it flags reads of self-written
``PipelineContext`` fields that some path reaches without the write —
unless another stage of an earlier-or-equal kind also writes the
attribute, in which case the runner's sequencing provides the value and
the conditional self-write is a legitimate override.

Runner-provided attributes, properties, and attributes the stage never
writes are out of scope here (the latter stay RL104's department), so
the two rules never double-report one read.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.config import LintConfig
from repro.analysis.engine import Finding, ProjectRule
from repro.analysis.project import ProjectModel
from repro.analysis.rules.stage_contract import (
    KIND_ORDER,
    RUNNER_PROVIDED,
    STAGE_BASE_MODULE,
    _effective_dataflow,
    _is_stage_class,
    _stage_kind,
)


class CtxMaybeUnsetReads(ProjectRule):
    rule_id = "RL203"
    summary = "stage reads of conditionally-written ctx attributes"
    default_exclude = ("tests/*", "test_*.py", "conftest.py")

    def check_project(
        self, model: ProjectModel, config: LintConfig
    ) -> Iterable[Finding]:
        context_fields: set[str] | None = None
        context_properties: set[str] = set()
        for module in model.modules.values():
            info = module.classes.get("PipelineContext")
            if info is not None and info.fields:
                context_fields = set(info.fields)
                context_properties = set(info.properties)
                break
        if context_fields is None:
            return

        # Catalogue every stage's effective dataflow and, per attribute,
        # which (class, rank) pairs write it.
        flows = []
        writers: dict[str, list[tuple[str, int]]] = {}
        for module in model.modules.values():
            if module.name == STAGE_BASE_MODULE:
                continue
            for info in module.classes.values():
                if not _is_stage_class(model, module, info):
                    continue
                kind = _stage_kind(model, module, info)
                if kind is None:
                    continue  # RL104 reports the missing kind
                run = info.methods.get("run")
                if run is None or run.ctx_param is None:
                    continue
                _, writes = _effective_dataflow(module, run)
                key = f"{module.name}:{info.name}"
                flows.append((module, info, kind, run, writes))
                for attr in writes:
                    writers.setdefault(attr, []).append((key, KIND_ORDER[kind]))

        for module, info, kind, run, writes in flows:
            rank = KIND_ORDER[kind]
            key = f"{module.name}:{info.name}"
            for attr, lineno in sorted(run.ctx_maybe_unset.items()):
                if attr in RUNNER_PROVIDED or attr in context_properties:
                    continue
                if attr not in context_fields:
                    continue  # RL104 reports the typo
                if attr not in writes:
                    continue  # never self-written: RL104's department
                provided_elsewhere = any(
                    other_rank <= rank
                    for other_key, other_rank in writers.get(attr, [])
                    if other_key != key
                )
                if provided_elsewhere:
                    continue
                yield self.finding(
                    module.path,
                    int(lineno),
                    1,
                    f"`{info.name}` (kind `{kind}`) reads `ctx.{attr}` on a "
                    "path its own write does not reach, and no other stage "
                    "of an earlier-or-equal kind writes it — the read may "
                    "see the runner's default; write the attribute on every "
                    "path (or hoist the read under the same condition)",
                )
