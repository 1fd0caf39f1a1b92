"""reprolint: repo-specific static analysis guarding paper invariants.

The reproduction's analytical machinery -- Theorem 1 sizing, Eq. 2
blocking-group counts, the Defs. 4-6 collision probabilities -- depends
on invariants a generic linter cannot see: every random draw must flow
from an explicit seed, probabilities must never be compared with float
``==``, and the public API must stay fully annotated so strict ``mypy``
keeps meaning something.  Beyond the per-file rules, the architectural
invariants of docs/architecture.md -- acyclic module-level imports, the
declared package layering and seed propagation -- span modules, the
flow-sensitive invariants of the kernel/serving layers -- handles
closed on every path, arrays staying ``uint64`` -- span *paths*, and the
durable path's fsync ordering spans *calls*, so one cold pass runs
four rule families over shared per-file work:

* :mod:`repro.analysis.engine` reads, parses and tokenises each module
  once into a :class:`~repro.analysis.context.FileContext`, walks its
  tree once for the per-file rules (RL001-RL006) and, at every function,
  the flow-sensitive rules (RL201, RL202 and RL204) over the function's
  control-flow graph; the same context then yields the module's
  summary.  The summaries form a whole-program model checked by the
  project rules (RL101, RL102 and RL105) and a call graph
  walked by the interprocedural rules (RL301-RL303 and RL305).
* :mod:`repro.analysis.context` holds the per-file state: suppressions,
  parent links, and each function's CFG and held-binding analysis,
  built at most once and shared by the flow rules and the procedure
  summaries behind RL301-RL305.
* :mod:`repro.analysis.cfg` builds the per-function CFGs (exception
  edges, ``finally`` duplication) and :mod:`repro.analysis.dataflow`
  runs generic forward/backward fixpoints over them.
* :mod:`repro.analysis.project` extracts the
  :class:`~repro.analysis.project.ProjectModel`: import graph, symbol
  tables, call sites and RNG seed sources.
* :mod:`repro.analysis.rules` holds one module per check.
* :mod:`repro.analysis.report` renders findings as text, JSON, or SARIF
  2.1.0 for GitHub code scanning.
* :mod:`repro.analysis.config` loads ``[tool.reprolint]`` from
  ``pyproject.toml`` (rule selection, per-rule scoping and severities,
  the ``architecture`` contract table).

Run it as ``repro lint src/`` or ``python -m repro.analysis src/``.
Suppress a finding in place with ``# reprolint: disable=RL003`` (comma
separated ids; always pair a suppression with a justification comment).
"""

from __future__ import annotations

from repro.analysis.config import LintConfig, load_config
from repro.analysis.engine import (
    FileContext,
    Finding,
    FlowRule,
    LintEngine,
    ProjectRule,
    Rule,
    lint_paths,
)
from repro.analysis.project import ModuleSummary, ProjectModel
from repro.analysis.report import render_json, render_sarif, render_text

__all__ = [
    "FileContext",
    "Finding",
    "FlowRule",
    "LintConfig",
    "LintEngine",
    "ModuleSummary",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "lint_paths",
    "load_config",
    "render_json",
    "render_sarif",
    "render_text",
]
