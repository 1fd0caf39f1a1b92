"""Core of the reprolint framework: rules, findings, and one lint pass.

Per-file rules (:class:`Rule`) declare the AST node types they want to
see (``interests``) and implement :meth:`Rule.check_node`.  The
:class:`LintEngine` parses each file once, builds one shared
:class:`~repro.analysis.context.FileContext` (source lines, parent
links, per-line suppressions, memoised per-function CFGs), then walks
the tree a single time, fanning each node out to every rule interested
in its type.  This keeps a lint run O(nodes) regardless of how many
rules are registered.

Flow-sensitive rules (:class:`FlowRule`, RL201+) ride the same walk:
each function node met is handed, with its control-flow graph
(:mod:`repro.analysis.cfg`), to every flow rule, which typically runs a
fixpoint analysis (:mod:`repro.analysis.dataflow`) over it.

Whole-program rules (:class:`ProjectRule`, RL101+) run once every file
is read: from the same context, each file yields a
:class:`~repro.analysis.project.ModuleSummary` (reusing the CFGs the
flow rules built), the summaries are assembled into a
:class:`~repro.analysis.project.ProjectModel`, and each project rule
checks the model as a whole.

Interprocedural rules (:class:`InterRule`, RL301+) come last: the
engine assembles the summaries into a
:class:`~repro.analysis.callgraph.CallGraph`, wraps it with the
protocol table's effect closures in an :class:`InterContext`, and
checks each module against it.  Every family flows through the same
severity, scoping and suppression handling, so a cross-module or
path-sensitive finding behaves exactly like a per-file one.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, replace
from pathlib import Path

from repro.analysis.callgraph import CallGraph
from repro.analysis.cfg import CFG
from repro.analysis.config import LintConfig, ScopedRule
from repro.analysis.context import FileContext
from repro.analysis.project import ModuleSummary, ProjectModel, extract_module, module_name_for
from repro.analysis.summaries import EffectIndex

#: Rule id of unused-suppression findings.  Synthesised by the engine
#: itself (no rule class): detection needs the used-suppression record
#: of every phase, which only the engine sees.
UNUSED_SUPPRESSION_ID = "RL007"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation anchored to a file position."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: str = "error"

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


#: Canonical finding order for reports: position first, then rule id.
def finding_sort_key(finding: Finding) -> tuple[str, int, int, str, str]:
    return (
        finding.path,
        finding.line,
        finding.col,
        finding.rule_id,
        finding.message,
    )


class Rule:
    """Base class for per-file reprolint rules (the plugin interface).

    Subclasses set ``rule_id``, ``summary`` and ``interests`` and
    implement :meth:`check_node`.  Registration is automatic via
    ``__init_subclass__``; importing a rule module is enough to make its
    rules available to the engine.
    """

    rule_id: str = ""
    summary: str = ""
    #: AST node types this rule wants to inspect.
    interests: tuple[type[ast.AST], ...] = ()
    #: Default path globs the rule is restricted to (empty = everywhere).
    default_include: tuple[str, ...] = ()
    #: Default path globs the rule never runs on (e.g. tests for RL001).
    default_exclude: tuple[str, ...] = ()
    #: Severity findings carry unless the config overrides it.
    default_severity: str = "error"

    _registry: dict[str, type["Rule"]] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.rule_id:
            Rule._registry[cls.rule_id] = cls

    @classmethod
    def registered(cls) -> dict[str, type["Rule"]]:
        # Importing the rules package populates the registry.
        import repro.analysis.rules  # noqa: F401

        return dict(cls._registry)

    def check_node(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def make_finding(
        self, node: ast.AST, ctx: FileContext, message: str
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


class ProjectRule:
    """Base class for whole-program rules (RL101+).

    Project rules see the assembled
    :class:`~repro.analysis.project.ProjectModel` instead of single
    files.  Path scoping (``default_include``/``default_exclude`` and
    the per-rule config globs) is applied to each finding's path after
    the fact, and per-line suppression comments work through the module
    summaries, so the two rule families are configured identically.
    """

    rule_id: str = ""
    summary: str = ""
    default_include: tuple[str, ...] = ()
    default_exclude: tuple[str, ...] = ()
    default_severity: str = "error"

    _registry: dict[str, type["ProjectRule"]] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.rule_id:
            ProjectRule._registry[cls.rule_id] = cls

    @classmethod
    def registered(cls) -> dict[str, type["ProjectRule"]]:
        import repro.analysis.rules  # noqa: F401

        return dict(cls._registry)

    def check_project(
        self, model: ProjectModel, config: LintConfig
    ) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, path: str, line: int, col: int, message: str) -> Finding:
        return Finding(
            path=path, line=line, col=col, rule_id=self.rule_id, message=message
        )


class FlowRule:
    """Base class for flow-sensitive per-function rules (RL201+).

    For each (non-lambda) function in a file the engine calls
    :meth:`check_function` with the function's
    :class:`~repro.analysis.cfg.CFG` (built once, shared through
    ``ctx.cfg``), its AST node and the shared :class:`FileContext`.
    Rules usually run one or more :mod:`repro.analysis.dataflow`
    fixpoints over the graph and emit findings in a separate pass
    afterwards (transfer functions re-run until convergence, so they
    must never emit directly).
    """

    rule_id: str = ""
    summary: str = ""
    default_include: tuple[str, ...] = ()
    default_exclude: tuple[str, ...] = ()
    default_severity: str = "error"

    _registry: dict[str, type["FlowRule"]] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.rule_id:
            FlowRule._registry[cls.rule_id] = cls

    @classmethod
    def registered(cls) -> dict[str, type["FlowRule"]]:
        import repro.analysis.rules  # noqa: F401

        return dict(cls._registry)

    def check_function(
        self,
        graph: CFG,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        ctx: FileContext,
    ) -> Iterable[Finding]:
        raise NotImplementedError

    def make_finding(
        self, node: ast.AST, ctx: FileContext, message: str
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=self.rule_id,
            message=message,
        )


@dataclass
class InterContext:
    """Shared state for one interprocedural phase run.

    ``effects`` computes each closure on first use.
    """

    model: ProjectModel
    graph: CallGraph
    effects: EffectIndex
    config: LintConfig


class InterRule:
    """Base class for interprocedural rules (RL301+).

    Inter rules are checked *per module*: :meth:`check_module` receives
    one :class:`ModuleSummary` plus the :class:`InterContext` holding
    the whole-program call graph and effect closures.  Every finding
    must anchor in the checked module.
    """

    rule_id: str = ""
    summary: str = ""
    default_include: tuple[str, ...] = ()
    default_exclude: tuple[str, ...] = ()
    default_severity: str = "error"

    _registry: dict[str, type["InterRule"]] = {}

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.rule_id:
            InterRule._registry[cls.rule_id] = cls

    @classmethod
    def registered(cls) -> dict[str, type["InterRule"]]:
        import repro.analysis.rules  # noqa: F401

        return dict(cls._registry)

    def check_module(
        self, module: ModuleSummary, ctx: InterContext
    ) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, path: str, line: int, col: int, message: str) -> Finding:
        return Finding(
            path=path, line=line, col=col, rule_id=self.rule_id, message=message
        )


def all_rule_ids() -> set[str]:
    """Every rule id: per-file, whole-program, flow and interprocedural
    rules, plus the engine-synthesised unused-suppression check."""
    return (
        set(Rule.registered())
        | set(ProjectRule.registered())
        | set(FlowRule.registered())
        | set(InterRule.registered())
        | {UNUSED_SUPPRESSION_ID}
    )


#: (path, line, rule id) of every finding a suppression comment silenced.
_Used = set[tuple[str, int, str]]


class LintEngine:
    """Run every rule family over Python source files."""

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        self.rules: list[Rule] = [
            rule_cls()
            for rule_id, rule_cls in sorted(Rule.registered().items())
            if config.rule_enabled(rule_id)
        ]
        self.project_rules: list[ProjectRule] = [
            rule_cls()
            for rule_id, rule_cls in sorted(ProjectRule.registered().items())
            if config.rule_enabled(rule_id)
        ]
        self.flow_rules: list[FlowRule] = [
            rule_cls()
            for rule_id, rule_cls in sorted(FlowRule.registered().items())
            if config.rule_enabled(rule_id)
        ]
        self.inter_rules: list[InterRule] = [
            rule_cls()
            for rule_id, rule_cls in sorted(InterRule.registered().items())
            if config.rule_enabled(rule_id)
        ]

    def lint_source(self, path: str, source: str) -> list[Finding]:
        """Per-file and flow rules over one in-memory module; ``path`` is
        used for reporting/config."""
        parsed = parse_file(path, source)
        if isinstance(parsed, Finding):
            return [parsed]
        return self.check_file(parsed, set())

    def _admit(
        self,
        rule: ScopedRule,
        found: Iterable[Finding],
        suppressions: Mapping[str, Mapping[int, frozenset[str]]],
        used: _Used,
        out: list[Finding],
    ) -> None:
        """Scope, suppress and re-grade one rule's findings into ``out``."""
        severity = self.config.severity_for(rule.rule_id, rule.default_severity)
        for finding in found:
            if not self.config.rule_applies(rule, finding.path):
                continue
            disabled = suppressions.get(finding.path, {}).get(finding.line, ())
            if finding.rule_id in disabled:
                used.add((finding.path, finding.line, finding.rule_id))
            elif finding.severity != severity:
                out.append(replace(finding, severity=severity))
            else:
                out.append(finding)

    def check_file(self, ctx: FileContext, used: _Used) -> list[Finding]:
        """Per-file and flow rules over one walk of a module's tree.

        ``ast.walk`` yields nested functions as separate nodes and the
        CFG builder treats nested ``def`` bodies as opaque, so each
        function — however deeply nested — is analyzed exactly once.
        """
        path = ctx.path
        flow_rules = [
            rule for rule in self.flow_rules if self.config.rule_applies(rule, path)
        ]
        dispatch: dict[type[ast.AST], list[Rule]] = {}
        for rule in self.rules:
            if self.config.rule_applies(rule, path):
                for node_type in rule.interests:
                    dispatch.setdefault(node_type, []).append(rule)
        suppressions = {path: ctx.suppressions}
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            for rule in dispatch.get(type(node), ()):
                self._admit(
                    rule, rule.check_node(node, ctx), suppressions, used, findings
                )
            if flow_rules and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                graph = ctx.cfg(node)
                for flow_rule in flow_rules:
                    self._admit(
                        flow_rule,
                        flow_rule.check_function(graph, node, ctx),
                        suppressions,
                        used,
                        findings,
                    )
        return sorted(findings, key=finding_sort_key)

    def check_model(
        self,
        model: ProjectModel,
        suppressions: Mapping[str, Mapping[int, frozenset[str]]],
        used: _Used,
    ) -> list[Finding]:
        """Whole-program rules over the model, then interprocedural rules
        over each module against the call graph."""
        findings: list[Finding] = []
        for rule in self.project_rules:
            self._admit(
                rule, rule.check_project(model, self.config), suppressions, used, findings
            )
        if self.inter_rules:
            graph = CallGraph.build(model)
            ictx = InterContext(
                model=model,
                graph=graph,
                effects=EffectIndex(model, graph, self.config.protocols.events),
                config=self.config,
            )
            for name in sorted(model.modules):
                for inter_rule in self.inter_rules:
                    self._admit(
                        inter_rule,
                        inter_rule.check_module(model.modules[name], ictx),
                        suppressions,
                        used,
                        findings,
                    )
        return findings


def parse_file(path: str, source: str) -> FileContext | Finding:
    """The file's shared context, or its RL000 syntax-error finding."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(path, exc.lineno or 1, exc.offset or 1, "RL000", f"syntax error: {exc.msg}")
    return FileContext.build(path, source, tree)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def lint_paths(
    paths: Iterable[str | Path], config: LintConfig | None = None
) -> list[Finding]:
    """Lint files/directories in one pass and return sorted findings.

    Each file is read, parsed and tokenised once; its context serves the
    per-file and flow rules and then its module summary.  Findings are
    sorted by (path, line, col, rule id, message) and exact duplicates
    (e.g. from overlapping input paths) are dropped, so output is
    deterministic regardless of argument order.
    """
    if config is None:
        from repro.analysis.config import load_config

        config = load_config()
    engine = LintEngine(config)
    whole_program = bool(engine.project_rules or engine.inter_rules)
    findings: list[Finding] = []
    summaries: list[ModuleSummary] = []
    suppressions: dict[str, Mapping[int, frozenset[str]]] = {}
    used: _Used = set()
    for path in iter_python_files(paths):
        if config.path_excluded(str(path)):
            continue
        ctx = parse_file(str(path), path.read_bytes().decode("utf-8"))
        if isinstance(ctx, Finding):
            findings.append(ctx)
            continue
        suppressions[ctx.path] = ctx.suppressions
        findings.extend(engine.check_file(ctx, used))
        if whole_program:
            summaries.append(
                extract_module(
                    module_name_for(path),
                    ctx.path,
                    ctx.tree,
                    protocols=config.protocols,
                    ctx=ctx,
                )
            )
    if whole_program:
        model = ProjectModel.from_summaries(summaries)
        findings.extend(engine.check_model(model, suppressions, used))
    if config.warn_unused_suppressions and config.rule_enabled(UNUSED_SUPPRESSION_ID):
        findings.extend(_unused_suppression_findings(config, suppressions, used))
    return sorted(set(findings), key=finding_sort_key)


def _unused_suppression_findings(
    config: LintConfig,
    suppressions: Mapping[str, Mapping[int, frozenset[str]]],
    used: _Used,
) -> list[Finding]:
    """Synthesise RL007 findings for suppressions nothing needed.

    A suppression is *used* when some rule produced a finding it
    silenced.  Suppressions of rules the run disabled
    (``--select``/``--ignore``) are skipped rather than flagged: the
    rule never had a chance to fire.
    """
    known = all_rule_ids()
    severity = config.severity_for(UNUSED_SUPPRESSION_ID, "warn")
    findings: list[Finding] = []
    for path, lines in suppressions.items():
        for line, ids in lines.items():
            if UNUSED_SUPPRESSION_ID in ids:
                continue
            for rule_id in sorted(ids):
                if (path, line, rule_id) in used:
                    continue
                if rule_id in known:
                    if not config.rule_enabled(rule_id):
                        continue
                    message = (
                        f"unused suppression: no {rule_id} finding is "
                        "reported on this line"
                    )
                else:
                    message = f"suppression names unknown rule {rule_id}"
                findings.append(
                    Finding(path, line, 1, UNUSED_SUPPRESSION_ID, message, severity=severity)
                )
    return findings
