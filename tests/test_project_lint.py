"""Tests for the whole-program phase of reprolint (RL101, RL102, RL104, RL105).

Fixtures are small package trees written to tmp_path with real
``__init__.py`` chains, so module-name derivation, cross-module
resolution and the import graph behave exactly as they do on ``src/``.
The architecture-contract tests also exercise the *shipped*
``[tool.reprolint.architecture]`` table from pyproject.toml against a
deliberate violation (``repro.perf`` importing ``repro.baselines``), and
the self-hosting tests assert the real tree stays clean with every
whole-program rule enabled.
"""

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import LintConfig, lint_paths, load_config
from repro.analysis.config import ArchitectureConfig
from repro.analysis.project import (
    ProjectModel,
    extract_module,
    module_name_for,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Miniature stage vocabulary + context mirroring repro.pipeline, so the
#: RL104 fixtures resolve kinds the same way the real tree does.
PIPELINE_STAGE = """
    class PipelineStage:
        kind = "stage"

    class CalibrateStage(PipelineStage):
        kind = "calibrate"

    class EmbedStage(PipelineStage):
        kind = "embed"

    class BlockStage(PipelineStage):
        kind = "block"

    class CandidateStage(PipelineStage):
        kind = "candidates"

    class VerifyStage(PipelineStage):
        kind = "verify"

    class ClassifyStage(PipelineStage):
        kind = "classify"
"""

PIPELINE_CONTEXT = """
    from dataclasses import dataclass, field

    @dataclass
    class PipelineContext:
        rows_a: list
        rows_b: list
        encoder: object = None
        embedded_a: object = None
        embedded_b: object = None
        blocker: object = None
        cand_a: object = None
        cand_b: object = None
        out_a: object = None
        counters: dict = field(default_factory=dict)
        extras: dict = field(default_factory=dict)
"""


def make_tree(tmp_path, files):
    """Write dedented file contents, creating package __init__ chains."""
    for rel, content in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return tmp_path


def select_rules(*rule_ids, architecture=None):
    return LintConfig(
        select=tuple(rule_ids),
        architecture=architecture or ArchitectureConfig(),
    )


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


class TestModuleNames:
    def test_package_chain(self, tmp_path):
        make_tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/core/__init__.py": "",
                "src/repro/core/linker.py": "X: int = 1\n",
            },
        )
        assert module_name_for(tmp_path / "src/repro/core/linker.py") == "repro.core.linker"
        assert module_name_for(tmp_path / "src/repro/core/__init__.py") == "repro.core"

    def test_bare_module_outside_packages(self, tmp_path):
        (tmp_path / "script.py").write_text("X: int = 1\n")
        assert module_name_for(tmp_path / "script.py") == "script"


class TestModelExtraction:
    def _summary(self, code, name="repro.mod", path="src/repro/mod.py"):
        tree = ast.parse(textwrap.dedent(code))
        return extract_module(name, path, tree)

    def test_import_kinds(self):
        summary = self._summary(
            """
            from typing import TYPE_CHECKING

            import numpy as np
            from repro.core import qgram

            if TYPE_CHECKING:
                from repro.hamming import bitvector

            def late():
                from repro.rules import parser
                return parser
            """
        )
        kinds = {record.target: record.kind for record in summary.imports if not record.guessed}
        assert kinds["numpy"] == "module"
        assert kinds["repro.core"] == "module"
        assert kinds["repro.hamming"] == "typing"
        assert kinds["repro.rules"] == "runtime"
        assert summary.bindings["np"] == "numpy"
        assert summary.bindings["qgram"] == "repro.core.qgram"

    def test_relative_imports_resolve(self):
        summary = self._summary(
            "from .context import PipelineContext\n",
            name="repro.pipeline.stages",
            path="src/repro/pipeline/stages.py",
        )
        targets = [record.target for record in summary.imports]
        assert "repro.pipeline.context" in targets

    def test_relative_import_from_package_init(self):
        tree = ast.parse("from .runner import LinkagePipeline\n")
        summary = extract_module(
            "repro.pipeline", "src/repro/pipeline/__init__.py", tree
        )
        assert summary.is_package
        assert summary.imports[0].target == "repro.pipeline.runner"

    def test_ctx_dataflow_and_stage_class(self):
        summary = self._summary(
            """
            class MyStage(EmbedStage):
                kind = "embed"

                def run(self, ctx) -> None:
                    ctx.embedded_a = encode(ctx.rows_a)
                    helper(ctx)

            def helper(ctx) -> None:
                ctx.counters["n"] = 1
            """
        )
        run = summary.classes["MyStage"].methods["run"]
        assert "rows_a" in run.ctx_reads
        assert "embedded_a" in run.ctx_writes
        assert run.ctx_calls == ["helper"]
        assert summary.classes["MyStage"].kind_literal == "embed"
        # Subscript store on ctx.counters is a *read* of the dict field.
        assert "counters" in summary.functions["helper"].ctx_reads

    def test_rng_seed_extraction(self):
        summary = self._summary(
            """
            import numpy as np

            def unseeded(item):
                rng = np.random.default_rng()
                return item

            def seeded(seed):
                return np.random.default_rng(seed)

            def burned():
                return np.random.default_rng(1234)
            """
        )
        seeds = {c.scope: c.seed_kind for c in summary.rng_constructions}
        assert seeds == {"unseeded": "missing", "seeded": "name", "burned": "literal"}

    def test_stage_list_literals(self):
        summary = self._summary(
            """
            def build(self):
                stages = [Embed(), Block(), Verify()]
                stages.append(Extra())
                return stages
            """
        )
        assert [e[0] for e in summary.stage_lists[0].elements] == [
            "Embed",
            "Block",
            "Verify",
        ]

class TestRL101ImportCycles:
    def _files(self, cycle):
        imports_b = "from repro.beta import g\n" if cycle else (
            "def late():\n    from repro.beta import g\n    return g\n"
        )
        return {
            "src/repro/__init__.py": "",
            "src/repro/alpha.py": imports_b + "\n\ndef f() -> None:\n    pass\n",
            "src/repro/beta.py": "from repro.alpha import f\n\n\ndef g() -> None:\n    pass\n",
        }

    def test_module_level_cycle_detected(self, tmp_path):
        root = make_tree(tmp_path, self._files(cycle=True))
        findings = lint_paths([root], select_rules("RL101"))
        assert rule_ids(findings) == ["RL101"]
        assert "repro.alpha" in findings[0].message
        assert "repro.beta" in findings[0].message

    def test_runtime_import_breaks_cycle(self, tmp_path):
        root = make_tree(tmp_path, self._files(cycle=False))
        assert lint_paths([root], select_rules("RL101")) == []

    def test_cycle_reported_once(self, tmp_path):
        root = make_tree(tmp_path, self._files(cycle=True))
        findings = lint_paths([root, root], select_rules("RL101"))
        assert len(findings) == 1


class TestRL102Architecture:
    CONTRACT = ArchitectureConfig(
        leaf=("repro.perf",),
        allowed={"repro.perf": (), "repro.baselines": ("repro.perf",)},
        present=True,
    )

    def _tree(self, tmp_path, perf_body):
        return make_tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/perf/__init__.py": "",
                "src/repro/perf/fanout.py": perf_body,
                "src/repro/baselines/__init__.py": "",
                "src/repro/baselines/harra.py": (
                    "from repro.perf.fanout import run\n\nX = run\n"
                ),
            },
        )

    def test_leaf_violation_detected(self, tmp_path):
        root = self._tree(
            tmp_path, "from repro.baselines.harra import X\n\nrun = object()\n"
        )
        findings = lint_paths(
            [root], select_rules("RL102", architecture=self.CONTRACT)
        )
        assert rule_ids(findings) == ["RL102"]
        assert "import-leaf" in findings[0].message

    def test_runtime_import_is_sanctioned(self, tmp_path):
        root = self._tree(
            tmp_path,
            "def run() -> object:\n"
            "    from repro.baselines.harra import X\n"
            "    return X\n",
        )
        assert lint_paths(
            [root], select_rules("RL102", architecture=self.CONTRACT)
        ) == []

    def test_allowed_edge_is_clean(self, tmp_path):
        root = self._tree(tmp_path, "run = object()\n")
        assert lint_paths(
            [root], select_rules("RL102", architecture=self.CONTRACT)
        ) == []

    def test_absent_table_is_silent(self, tmp_path):
        root = self._tree(
            tmp_path, "from repro.baselines.harra import X\n\nrun = object()\n"
        )
        assert lint_paths([root], select_rules("RL102")) == []

    def test_leaf_allowing_non_leaf_is_a_config_error(self, tmp_path):
        contract = ArchitectureConfig(
            leaf=("repro.perf",),
            allowed={
                "repro.perf": ("repro.baselines",),
                "repro.baselines": ("repro.perf",),
            },
            present=True,
        )
        root = self._tree(tmp_path, "run = object()\n")
        findings = lint_paths([root], select_rules("RL102", architecture=contract))
        assert rule_ids(findings) == ["RL102"]
        assert findings[0].path == "pyproject.toml"

    def test_shipped_contract_catches_deliberate_violation(self, tmp_path):
        """Acceptance: the pyproject table flags repro.perf -> repro.baselines."""
        config = load_config(REPO_ROOT / "pyproject.toml").with_overrides(
            select=["RL102"]
        )
        assert config.architecture.present
        root = self._tree(
            tmp_path, "from repro.baselines.harra import X\n\nrun = object()\n"
        )
        findings = lint_paths([root], config)
        assert rule_ids(findings) == ["RL102"]
        assert "repro.perf" in findings[0].message


class TestRL104StageContract:
    def _tree(self, tmp_path, linker_body):
        return make_tree(
            tmp_path,
            {
                "src/repro/__init__.py": "",
                "src/repro/pipeline/__init__.py": "",
                "src/repro/pipeline/stage.py": PIPELINE_STAGE,
                "src/repro/pipeline/context.py": PIPELINE_CONTEXT,
                "src/repro/linker.py": linker_body,
            },
        )

    def test_missing_kind_flagged(self, tmp_path):
        root = self._tree(
            tmp_path,
            """
            from repro.pipeline.stage import PipelineStage

            class Mystery(PipelineStage):
                def run(self, ctx) -> None:
                    pass
            """,
        )
        findings = lint_paths([root], select_rules("RL104"))
        assert rule_ids(findings) == ["RL104"]
        assert "Mystery" in findings[0].message

    def test_out_of_order_stage_list_flagged(self, tmp_path):
        root = self._tree(
            tmp_path,
            """
            from repro.pipeline.stage import EmbedStage, VerifyStage

            class MyEmbed(EmbedStage):
                def run(self, ctx) -> None:
                    ctx.embedded_a = ctx.rows_a

            class MyVerify(VerifyStage):
                def run(self, ctx) -> None:
                    ctx.out_a = ctx.embedded_a

            def build():
                return [MyVerify(), MyEmbed()]
            """,
        )
        findings = lint_paths([root], select_rules("RL104"))
        assert rule_ids(findings) == ["RL104"]
        assert "ordered" in findings[0].message

    def test_appended_lists_are_out_of_scope(self, tmp_path):
        root = self._tree(
            tmp_path,
            """
            from repro.pipeline.stage import EmbedStage, VerifyStage

            class MyEmbed(EmbedStage):
                def run(self, ctx) -> None:
                    ctx.embedded_a = ctx.rows_a

            class MyVerify(VerifyStage):
                def run(self, ctx) -> None:
                    ctx.out_a = ctx.embedded_a

            def build(fancy):
                stages = [MyEmbed(), MyVerify()]
                if fancy:
                    stages.append(MyEmbed())
                return stages
            """,
        )
        assert lint_paths([root], select_rules("RL104")) == []

    def test_early_read_flagged(self, tmp_path):
        root = self._tree(
            tmp_path,
            """
            from repro.pipeline.stage import CalibrateStage

            class EagerCalibrate(CalibrateStage):
                def run(self, ctx) -> None:
                    ctx.encoder = ctx.blocker
            """,
        )
        findings = lint_paths([root], select_rules("RL104"))
        assert rule_ids(findings) == ["RL104"]
        assert "ctx.blocker" in findings[0].message
        assert "EagerCalibrate" in findings[0].message

    def test_reads_satisfied_by_earlier_writer(self, tmp_path):
        root = self._tree(
            tmp_path,
            """
            from repro.pipeline.stage import EmbedStage, VerifyStage

            class MyEmbed(EmbedStage):
                def run(self, ctx) -> None:
                    ctx.embedded_a = ctx.rows_a

            class MyVerify(VerifyStage):
                def run(self, ctx) -> None:
                    ctx.out_a = check(ctx)

            def check(ctx):
                return ctx.embedded_a
            """,
        )
        assert lint_paths([root], select_rules("RL104")) == []

    def test_unknown_context_attribute_flagged(self, tmp_path):
        root = self._tree(
            tmp_path,
            """
            from repro.pipeline.stage import EmbedStage

            class MyEmbed(EmbedStage):
                def run(self, ctx) -> None:
                    ctx.embedded_aa = ctx.rows_a
            """,
        )
        findings = lint_paths([root], select_rules("RL104"))
        assert rule_ids(findings) == ["RL104"]
        assert "embedded_aa" in findings[0].message
        assert "typo" in findings[0].message


class TestRL105SeedPropagation:
    def _lint(self, tmp_path, body):
        root = make_tree(
            tmp_path,
            {"src/repro/__init__.py": "", "src/repro/calib.py": body},
        )
        return lint_paths([root], select_rules("RL105"))

    def test_buried_literal_flagged(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import numpy as np

            def sample() -> object:
                return np.random.default_rng(1234)
            """,
        )
        assert rule_ids(findings) == ["RL105"]
        assert "1234" in findings[0].message

    def test_parameter_seed_is_clean(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import numpy as np

            def sample(seed: int) -> object:
                return np.random.default_rng(seed)
            """,
        )
        assert findings == []

    def test_config_field_seed_is_clean(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import numpy as np

            def sample(config) -> object:
                return np.random.default_rng(config.seed)
            """,
        )
        assert findings == []

    def test_literal_default_parameter_is_clean(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import numpy as np

            def sample(seed: int = 42) -> object:
                return np.random.default_rng(seed)
            """,
        )
        assert findings == []

    def test_module_level_literal_is_out_of_scope(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import numpy as np

            RNG = np.random.default_rng(7)
            """,
        )
        assert findings == []

    def test_suppression_comment_works_for_project_rules(self, tmp_path):
        findings = self._lint(
            tmp_path,
            """
            import numpy as np

            def sample() -> object:
                return np.random.default_rng(1234)  # reprolint: disable=RL105
            """,
        )
        assert findings == []


class TestProjectSelfHosting:
    """Acceptance: src/ lints clean with every whole-program rule enabled."""

    def test_project_rules_clean_on_src(self):
        config = load_config(REPO_ROOT / "pyproject.toml").with_overrides(
            select=["RL101", "RL102", "RL104", "RL105"]
        )
        findings = lint_paths([REPO_ROOT / "src"], config)
        assert findings == [], [f.format() for f in findings]

    def test_full_rule_set_clean_on_src(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        findings = lint_paths([REPO_ROOT / "src"], config)
        assert findings == [], [f.format() for f in findings]

    def test_shipped_architecture_matches_reality(self):
        """Every allowed unit in the table actually exists in the tree."""
        config = load_config(REPO_ROOT / "pyproject.toml")
        units = set(config.architecture.allowed)
        for targets in config.architecture.allowed.values():
            units.update(targets)
        src = REPO_ROOT / "src"
        for unit in sorted(units):
            as_path = src / Path(*unit.split("."))
            assert (
                as_path.is_dir() or as_path.with_suffix(".py").is_file()
            ), f"architecture table names unknown unit {unit}"

    def test_cli_sarif_on_src_exits_zero(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.analysis",
                "src/",
                "--format",
                "sarif",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["runs"][0]["results"] == []


def test_project_model_covers_real_pipeline():
    """The model sees the real stage classes, context fields and imports."""
    summaries = []
    for path in sorted((REPO_ROOT / "src/repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        summaries.append(extract_module(module_name_for(path), str(path), tree))
    model = ProjectModel.from_summaries(summaries)
    stages = model.modules["repro.pipeline.stages"]
    verify = stages.classes["ThresholdVerifyStage"]
    assert verify.bases == ["VerifyStage"]
    chain = list(model.base_chain("repro.pipeline.stages", "ThresholdVerifyStage"))
    assert any(info.kind_literal == "verify" for _, info in chain)
    context = model.modules["repro.pipeline.context"].classes["PipelineContext"]
    assert "cand_a" in context.fields
    assert "comparison_space" in context.properties
    edges = {
        target
        for source, target, _ in model.resolved_edges(("module",))
        if source == "repro.pipeline.stages"
    }
    assert "repro.pipeline.context" in edges


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
