"""RL104 -- the stage-dataflow contract of the linkage pipeline.

Every linker is a list of :class:`repro.pipeline.stage.PipelineStage`
subclasses executed in order by ``LinkagePipeline`` (Algorithm 2's
calibrate -> embed -> block -> candidates -> verify/classify).  The
contract has three machine-checkable parts:

1. every concrete stage class must resolve to one of the six declared
   kinds (inheriting from ``EmbedStage`` etc. or declaring a literal
   ``kind``);
2. a stage list assembled as a literal must order kinds
   non-decreasingly — a verify stage cannot precede the embed stage
   that produces its input;
3. a stage of kind *k* may only read ``PipelineContext`` attributes the
   runner provides or that some stage of kind <= *k* writes, and may
   only touch attributes that exist on ``PipelineContext`` at all
   (typo protection for the untyped ``ctx``).

Reads/writes are gathered from each stage's ``run`` method plus any
same-module helper functions it forwards ``ctx`` to (transitively), so
extracting ``_candidate_arrays(ctx)``-style helpers stays free.  Stage
lists built imperatively (conditional ``append``) are out of scope —
only list literals whose every element resolves to a stage class are
checked, so there are no false positives from merged branches.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.config import LintConfig
from repro.analysis.engine import Finding, ProjectRule
from repro.analysis.project import (
    ClassInfo,
    FunctionInfo,
    ModuleSummary,
    ProjectModel,
)

#: The six stage kinds, in legal execution order.
KIND_ORDER: dict[str, int] = {
    "calibrate": 0,
    "embed": 1,
    "block": 2,
    "candidates": 3,
    "verify": 4,
    "classify": 5,
}

#: Module defining the abstract stage vocabulary (its classes are exempt).
STAGE_BASE_MODULE = "repro.pipeline.stage"

#: Context attributes the runner itself provides before any stage runs.
RUNNER_PROVIDED = frozenset(
    {
        "dataset_a",
        "dataset_b",
        "rows_a",
        "rows_b",
        "counters",
        "extras",
    }
)


def _is_stage_class(
    model: ProjectModel, module: ModuleSummary, info: ClassInfo
) -> bool:
    """Does the class derive (transitively) from the stage base module?"""
    for owner, _ in model.base_chain(module.name, info.name):
        if owner.name == STAGE_BASE_MODULE:
            return True
    return False


def _stage_kind(
    model: ProjectModel, module: ModuleSummary, info: ClassInfo
) -> str | None:
    """First valid ``kind`` literal along the base chain, if any."""
    for _, current in model.base_chain(module.name, info.name):
        if current.kind_literal in KIND_ORDER:
            return current.kind_literal
    return None


def _effective_dataflow(
    module: ModuleSummary, run: FunctionInfo
) -> tuple[dict[str, int], dict[str, int]]:
    """ctx reads/writes of ``run`` merged with its ctx-helper closure."""
    reads = dict(run.ctx_reads)
    writes = dict(run.ctx_writes)
    seen: set[str] = set()
    frontier = list(run.ctx_calls)
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        helper = module.functions.get(name)
        if helper is None:
            continue
        for attr, lineno in helper.ctx_reads.items():
            reads.setdefault(attr, run.lineno if lineno else run.lineno)
        for attr in helper.ctx_writes:
            writes.setdefault(attr, run.lineno)
        frontier.extend(helper.ctx_calls)
    return reads, writes


class StageDataflow(ProjectRule):
    rule_id = "RL104"
    summary = "pipeline stages must declare kinds and respect stage dataflow"
    default_exclude = ("tests/*", "test_*.py", "conftest.py")

    def check_project(
        self, model: ProjectModel, config: LintConfig
    ) -> Iterable[Finding]:
        context_fields, context_properties = self._context_surface(model)

        # Pass 1: find every stage class, its kind, and its dataflow.
        kinds: dict[str, str] = {}  # "module:Class" -> kind
        flows: list[
            tuple[ModuleSummary, ClassInfo, str, dict[str, int], dict[str, int]]
        ] = []
        min_writer: dict[str, int] = {}
        for module in model.modules.values():
            for info in module.classes.values():
                if module.name == STAGE_BASE_MODULE:
                    continue
                if not _is_stage_class(model, module, info):
                    continue
                kind = _stage_kind(model, module, info)
                if kind is None:
                    yield self.finding(
                        module.path,
                        info.lineno,
                        1,
                        f"`{info.name}` subclasses PipelineStage but resolves "
                        "to no stage kind; inherit one of CalibrateStage/"
                        "EmbedStage/BlockStage/CandidateStage/VerifyStage/"
                        "ClassifyStage or declare `kind` from that vocabulary",
                    )
                    continue
                kinds[f"{module.name}:{info.name}"] = kind
                run = info.methods.get("run")
                if run is None or run.ctx_param is None:
                    continue
                reads, writes = _effective_dataflow(module, run)
                flows.append((module, info, kind, reads, writes))
                for attr in writes:
                    rank = KIND_ORDER[kind]
                    if rank < min_writer.get(attr, len(KIND_ORDER)):
                        min_writer[attr] = rank

        # Pass 2: stage-list ordering.
        yield from self._check_stage_lists(model, kinds)

        # Pass 3: per-stage reads against the write catalogue.
        if context_fields is None:
            return
        for module, info, kind, reads, writes in flows:
            rank = KIND_ORDER[kind]
            for attr in sorted(set(reads) | set(writes)):
                if (
                    attr not in context_fields
                    and attr not in context_properties
                ):
                    lineno = reads.get(attr) or writes.get(attr) or info.lineno
                    yield self.finding(
                        module.path,
                        int(lineno),
                        1,
                        f"`{info.name}.run` touches `ctx.{attr}`, which is "
                        "not a PipelineContext field (typo?)",
                    )
            for attr, lineno in sorted(reads.items()):
                if attr in RUNNER_PROVIDED or attr in context_properties:
                    continue
                if attr not in context_fields:
                    continue  # already reported as a typo above
                if attr in writes:
                    continue  # the stage produces it itself
                if min_writer.get(attr, len(KIND_ORDER)) <= rank:
                    continue
                yield self.finding(
                    module.path,
                    int(lineno),
                    1,
                    f"`{info.name}` (kind `{kind}`) reads `ctx.{attr}`, but "
                    "no stage of an earlier-or-equal kind writes it — the "
                    "attribute would still hold the runner's default",
                )

    def _context_surface(
        self, model: ProjectModel
    ) -> tuple[set[str] | None, set[str]]:
        """(fields, properties) of PipelineContext, if it is in the model."""
        for module in model.modules.values():
            info = module.classes.get("PipelineContext")
            if info is not None and info.fields:
                return set(info.fields), set(info.properties)
        return None, set()

    def _check_stage_lists(
        self, model: ProjectModel, kinds: dict[str, str]
    ) -> Iterable[Finding]:
        for module in model.modules.values():
            for stage_list in module.stage_lists:
                resolved: list[tuple[str, str, int]] = []
                complete = True
                for name, lineno in stage_list.elements:
                    found = model.resolve_class(module.name, str(name))
                    if found is None:
                        complete = False
                        break
                    owner, info = found
                    kind = kinds.get(f"{owner.name}:{info.name}")
                    if kind is None:
                        complete = False
                        break
                    resolved.append((info.name, kind, int(lineno)))
                if not complete or len(resolved) < 2:
                    continue  # not (provably) a stage list; stay silent
                for (prev_name, prev_kind, _), (name, kind, lineno) in zip(
                    resolved, resolved[1:]
                ):
                    if KIND_ORDER[kind] < KIND_ORDER[prev_kind]:
                        yield self.finding(
                            module.path,
                            lineno,
                            1,
                            f"stage list in `{stage_list.scope}` runs "
                            f"`{name}` (kind `{kind}`) after `{prev_name}` "
                            f"(kind `{prev_kind}`); stages must be ordered "
                            "calibrate -> embed -> block -> candidates -> "
                            "verify -> classify",
                        )
