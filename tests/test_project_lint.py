"""Tests for the whole-program phase of reprolint (RL101, RL102, RL105).

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
            "from .result import LinkageResult\n",
            name="repro.pipeline.registry",
            path="src/repro/pipeline/registry.py",
        )
        targets = [record.target for record in summary.imports]
        assert "repro.pipeline.result" in targets

    def test_relative_import_from_package_init(self):
        tree = ast.parse("from .registry import available_linkers\n")
        summary = extract_module(
            "repro.pipeline", "src/repro/pipeline/__init__.py", tree
        )
        assert summary.is_package
        assert summary.imports[0].target == "repro.pipeline.registry"

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
            select=["RL101", "RL102", "RL105"]
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


def test_project_model_covers_real_tree():
    """The model sees the real tree's class hierarchy, methods and imports."""
    summaries = []
    for path in sorted((REPO_ROOT / "src/repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        summaries.append(extract_module(module_name_for(path), str(path), tree))
    model = ProjectModel.from_summaries(summaries)
    lsh = model.modules["repro.hamming.lsh"].classes["HammingLSH"]
    assert lsh.bases == ["TableRuns"]
    chain = [info.name for __, info in model.base_chain("repro.hamming.lsh", "HammingLSH")]
    assert chain == ["HammingLSH", "TableRuns"]
    assert "match" in lsh.methods
    edges = {
        target
        for source, target, _ in model.resolved_edges(("module",))
        if source == "repro.core.linker"
    }
    assert {"repro.pipeline.result", "repro.hamming.lsh"} <= edges
