"""Tests for repro.analysis — the reprolint static-analysis pass.

Each RL00x rule gets at least one positive fixture (snippet that must
trigger it) and one negative fixture (snippet that must stay clean),
plus suppression coverage and a self-hosting test asserting the repo's
own ``src/`` tree lints clean with the shipped pyproject configuration.
(The whole-program rules RL101, RL102 and RL105 are covered in
test_project_lint.py; here they only appear through the CLI surface:
severity, SARIF, --output.)
"""

import ast
import json
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from repro.analysis import (
    LintConfig,
    LintEngine,
    lint_paths,
    load_config,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.__main__ import main as lint_main
from repro.analysis.config import RuleConfig
from repro.analysis.engine import all_rule_ids, iter_python_files

REPO_ROOT = Path(__file__).resolve().parent.parent

# A path inside the fictional lint scope: RL003/RL004 path scoping makes
# rule applicability depend on where a module lives, so fixtures lint as
# if they sat in src/repro/hamming/.
SCOPED = "src/repro/hamming/fixture.py"
UNSCOPED = "src/repro/data/fixture.py"


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


@pytest.fixture
def engine():
    return LintEngine(LintConfig())


class TestRL001UnseededRandomness:
    def test_stdlib_global_state_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "import random\nx = random.random()\n")
        assert rule_ids(findings) == ["RL001"]

    def test_numpy_legacy_global_state_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "import numpy as np\nx = np.random.rand(4)\n")
        assert rule_ids(findings) == ["RL001"]

    def test_unseeded_default_rng_triggers(self, engine):
        findings = engine.lint_source(
            SCOPED, "import numpy as np\nrng = np.random.default_rng()\n"
        )
        assert rule_ids(findings) == ["RL001"]

    def test_none_seed_counts_as_unseeded(self, engine):
        findings = engine.lint_source(
            SCOPED, "import numpy as np\nrng = np.random.default_rng(None)\n"
        )
        assert rule_ids(findings) == ["RL001"]

    def test_seeded_default_rng_is_clean(self, engine):
        findings = engine.lint_source(
            SCOPED, "import numpy as np\nrng = np.random.default_rng(42)\n"
        )
        assert findings == []

    def test_seed_keyword_is_clean(self, engine):
        findings = engine.lint_source(
            SCOPED, "import numpy as np\nrng = np.random.default_rng(seed=7)\n"
        )
        assert findings == []

    def test_generator_methods_are_clean(self, engine):
        # Draws from an explicit Generator object are exactly the fix.
        findings = engine.lint_source(
            SCOPED,
            "import numpy as np\nrng = np.random.default_rng(1)\nx = rng.random()\n",
        )
        assert findings == []

    def test_tests_are_out_of_scope(self, engine):
        findings = engine.lint_source(
            "tests/test_fixture.py", "import random\nx = random.random()\n"
        )
        assert findings == []


class TestRL002DynamicExecution:
    def test_eval_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "value = eval('1 + 1')\n")
        assert rule_ids(findings) == ["RL002"]

    def test_exec_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "exec('x = 1')\n")
        assert rule_ids(findings) == ["RL002"]

    def test_literal_eval_is_clean(self, engine):
        findings = engine.lint_source(
            SCOPED, "import ast\nvalue = ast.literal_eval('[1, 2]')\n"
        )
        assert findings == []


class TestRL003FloatEquality:
    def test_float_literal_equality_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "ok = p == 0.5\n")
        assert rule_ids(findings) == ["RL003"]

    def test_division_equality_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "ok = p != 1 / 3\n")
        assert rule_ids(findings) == ["RL003"]

    def test_float_call_equality_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "ok = float(x) == y\n")
        assert rule_ids(findings) == ["RL003"]

    def test_integer_equality_is_clean(self, engine):
        findings = engine.lint_source(SCOPED, "ok = distance == 4\n")
        assert findings == []

    def test_only_runs_in_probability_modules(self, engine):
        findings = engine.lint_source(UNSCOPED, "ok = p == 0.5\n")
        assert findings == []

    def test_tolerance_comparison_is_clean(self, engine):
        findings = engine.lint_source(
            SCOPED, "import math\nok = math.isclose(p, 1 / 3)\n"
        )
        assert findings == []


class TestRL004PublicAnnotations:
    def test_unannotated_public_function_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "def distance(a, b):\n    return a\n")
        assert rule_ids(findings) == ["RL004"]
        assert "distance" in findings[0].message

    def test_missing_return_annotation_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "def f(a: int):\n    return a\n")
        assert rule_ids(findings) == ["RL004"]
        assert "return" in findings[0].message

    def test_fully_annotated_is_clean(self, engine):
        findings = engine.lint_source(SCOPED, "def f(a: int, b: str = 'x') -> int:\n    return a\n")
        assert findings == []

    def test_private_functions_are_skipped(self, engine):
        findings = engine.lint_source(SCOPED, "def _helper(a):\n    return a\n")
        assert findings == []

    def test_nested_functions_are_skipped(self, engine):
        code = "def outer() -> None:\n    def inner(x):\n        return x\n"
        findings = engine.lint_source(SCOPED, code)
        assert findings == []

    def test_self_needs_no_annotation(self, engine):
        code = "class C:\n    def method(self, x: int) -> int:\n        return x\n"
        findings = engine.lint_source(SCOPED, code)
        assert findings == []

    def test_staticmethod_first_arg_needs_annotation(self, engine):
        code = (
            "class C:\n"
            "    @staticmethod\n"
            "    def make(x) -> int:\n"
            "        return x\n"
        )
        findings = engine.lint_source(SCOPED, code)
        assert rule_ids(findings) == ["RL004"]

    def test_outside_src_repro_is_skipped(self, engine):
        findings = engine.lint_source("scripts/tool.py", "def f(a):\n    return a\n")
        assert findings == []


class TestRL005MutableDefaults:
    def test_list_default_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "def f(xs: list = []) -> None:\n    pass\n")
        assert rule_ids(findings) == ["RL005"]

    def test_dict_call_default_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "def f(xs: dict = dict()) -> None:\n    pass\n")
        assert rule_ids(findings) == ["RL005"]

    def test_kwonly_default_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "def f(*, xs: dict = {}) -> None:\n    pass\n")
        assert rule_ids(findings) == ["RL005"]

    def test_none_default_is_clean(self, engine):
        findings = engine.lint_source(SCOPED, "def f(xs: list | None = None) -> None:\n    pass\n")
        assert findings == []

    def test_tuple_default_is_clean(self, engine):
        findings = engine.lint_source(SCOPED, "def f(xs: tuple = ()) -> None:\n    pass\n")
        assert findings == []


class TestRL006PrintCalls:
    def test_print_triggers(self, engine):
        findings = engine.lint_source(SCOPED, "print('hello')\n")
        assert rule_ids(findings) == ["RL006"]

    def test_emit_is_clean(self, engine):
        code = "from repro.evaluation.reporting import emit\nemit('hello')\n"
        findings = engine.lint_source(SCOPED, code)
        assert findings == []

    def test_configured_exclude_skips_rule(self):
        config = LintConfig(
            rule_configs={"RL006": RuleConfig(exclude=("examples/*",))}
        )
        engine = LintEngine(config)
        findings = engine.lint_source("examples/demo.py", "print('hello')\n")
        assert findings == []


class TestSuppression:
    def test_disable_comment_silences_rule(self, engine):
        findings = engine.lint_source(
            SCOPED, "x = eval('1')  # reprolint: disable=RL002\n"
        )
        assert findings == []

    def test_disable_is_rule_specific(self, engine):
        findings = engine.lint_source(
            SCOPED, "x = eval('1')  # reprolint: disable=RL006\n"
        )
        assert rule_ids(findings) == ["RL002"]

    def test_disable_accepts_multiple_ids(self, engine):
        code = "print(eval('1'))  # reprolint: disable=RL002, RL006\n"
        findings = engine.lint_source(SCOPED, code)
        assert findings == []

    def test_marker_inside_string_is_not_a_suppression(self, engine):
        code = 'x = eval("# reprolint: disable=RL002")\n'
        findings = engine.lint_source(SCOPED, code)
        assert rule_ids(findings) == ["RL002"]


class TestConfig:
    def test_select_limits_rules(self):
        engine = LintEngine(LintConfig(select=("RL002",)))
        findings = engine.lint_source(SCOPED, "print(eval('1'))\n")
        assert rule_ids(findings) == ["RL002"]

    def test_ignore_drops_rules(self):
        engine = LintEngine(LintConfig(ignore=("RL006",)))
        findings = engine.lint_source(SCOPED, "print('x')\n")
        assert findings == []

    def test_load_config_reads_pyproject(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        assert "RL003" in config.rule_configs
        assert any("hamming" in glob for glob in config.rule_configs["RL003"].include)

    def test_syntax_error_reports_rl000(self, engine):
        findings = engine.lint_source(SCOPED, "def broken(:\n")
        assert rule_ids(findings) == ["RL000"]


class TestReporting:
    def test_text_report_lists_findings(self, engine):
        findings = engine.lint_source(SCOPED, "print('x')\n")
        text = render_text(findings)
        assert "RL006" in text and SCOPED in text and "1 finding" in text

    def test_json_report_round_trips(self, engine):
        findings = engine.lint_source(SCOPED, "print('x')\n")
        payload = json.loads(render_json(findings))
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "RL006"
        assert payload["findings"][0]["line"] == 1

    def test_clean_run_text(self):
        assert "no findings" in render_text([])


class TestCommandLine:
    def test_module_entry_point_clean_tree(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("X: int = 1\n")
        assert lint_main([str(target)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_exit_status_one_on_findings(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("x = eval('1')\n")
        assert lint_main([str(target)]) == 1
        assert "RL002" in capsys.readouterr().out

    def test_select_and_ignore_flags(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("print(eval('1'))\n")
        assert lint_main([str(target), "--ignore", "RL002,RL006"]) == 0
        capsys.readouterr()
        assert lint_main([str(target), "--select", "RL006"]) == 1
        assert "RL006" in capsys.readouterr().out

    def test_unknown_rule_id_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("X: int = 1\n")
        assert lint_main([str(target), "--select", "RL999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "absent.py")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_json_format_flag(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("x = eval('1')\n")
        assert lint_main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_repro_cli_lint_subcommand(self, capsys):
        from repro.cli import main

        assert main(["lint", str(REPO_ROOT / "src")]) == 0
        assert "no findings" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["--help"], ["lint", "--help"]], ids=["repro", "lint"])
    def test_help_names_only_registered_rules(self, argv, capsys):
        """Help text never goes stale on rule ids: each one it prints, or
        spans with a range like ``RL101-RL105``, exists."""
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(argv)
        printed = set()
        for first, last in re.findall(r"RL(\d{3})(?:-RL(\d{3}))?", capsys.readouterr().out):
            printed.update(f"RL{n:03d}" for n in range(int(first), int(last or first) + 1))
        assert printed <= all_rule_ids(), printed - all_rule_ids()


class TestDeterminism:
    """lint_paths output is sorted and deduplicated (satellite 1)."""

    def _tree(self, tmp_path):
        (tmp_path / "b_mod.py").write_text("x = eval('1')\n")
        (tmp_path / "a_mod.py").write_text("print('x')\ny = eval('2')\n")
        return tmp_path

    def test_sorted_by_path_line_col_rule(self, tmp_path):
        tree = self._tree(tmp_path)
        findings = lint_paths([tree], LintConfig())
        keys = [(f.path, f.line, f.col, f.rule_id) for f in findings]
        assert keys == sorted(keys)
        assert [f.rule_id for f in findings] == ["RL006", "RL002", "RL002"]

    def test_argument_order_does_not_matter(self, tmp_path):
        tree = self._tree(tmp_path)
        a, b = tree / "a_mod.py", tree / "b_mod.py"
        assert lint_paths([a, b], LintConfig()) == lint_paths([b, a], LintConfig())

    def test_overlapping_paths_deduplicate(self, tmp_path):
        tree = self._tree(tmp_path)
        once = lint_paths([tree], LintConfig())
        twice = lint_paths([tree, tree / "a_mod.py", tree], LintConfig())
        assert twice == once


class TestWithOverrides:
    """CLI --select/--ignore precedence over pyproject (satellite 4)."""

    BASE = LintConfig(
        select=("RL001", "RL002"),
        ignore=("RL006",),
        exclude=("build/*",),
        rule_configs={"RL003": RuleConfig(include=("hamming/*",))},
    )

    def test_select_overrides_file_select(self):
        assert self.BASE.with_overrides(select=["RL004"]).select == ("RL004",)

    def test_empty_select_keeps_file_select(self):
        assert self.BASE.with_overrides(select=[]).select == ("RL001", "RL002")
        assert self.BASE.with_overrides().select == ("RL001", "RL002")

    def test_ignore_overrides_file_ignore(self):
        assert self.BASE.with_overrides(ignore=["RL002"]).ignore == ("RL002",)

    def test_empty_ignore_keeps_file_ignore(self):
        assert self.BASE.with_overrides(ignore=[]).ignore == ("RL006",)
        assert self.BASE.with_overrides(ignore=None).ignore == ("RL006",)

    def test_scoping_and_exclude_survive_overrides(self):
        derived = self.BASE.with_overrides(select=["RL003"], ignore=["RL001"])
        assert derived.exclude == ("build/*",)
        assert derived.rule_configs["RL003"].include == ("hamming/*",)


class TestRuleGlobScoping:
    """Per-rule include/exclude glob semantics (satellite 4)."""

    def test_include_is_suffix_matched(self):
        config = LintConfig(rule_configs={"RL002": RuleConfig(include=("hamming/*",))})
        engine = LintEngine(config)
        assert rule_ids(engine.lint_source(SCOPED, "x = eval('1')\n")) == ["RL002"]
        assert engine.lint_source(UNSCOPED, "x = eval('1')\n") == []

    def test_configured_include_replaces_rule_default(self):
        # RL003's default include covers hamming/*; narrowing it to
        # core/sizing.py must switch hamming off.
        config = LintConfig(rule_configs={"RL003": RuleConfig(include=("core/sizing.py",))})
        engine = LintEngine(config)
        assert engine.lint_source(SCOPED, "ok = p == 0.5\n") == []
        assert rule_ids(
            engine.lint_source("src/repro/core/sizing.py", "ok = p == 0.5\n")
        ) == ["RL003"]

    def test_exclude_beats_include(self):
        config = LintConfig(
            rule_configs={
                "RL002": RuleConfig(include=("hamming/*",), exclude=("*/fixture.py",))
            }
        )
        engine = LintEngine(config)
        assert engine.lint_source(SCOPED, "x = eval('1')\n") == []

    def test_exact_file_glob(self):
        config = LintConfig(rule_configs={"RL002": RuleConfig(exclude=("hamming/fixture.py",))})
        engine = LintEngine(config)
        assert engine.lint_source(SCOPED, "x = eval('1')\n") == []
        assert rule_ids(
            engine.lint_source("src/repro/hamming/other.py", "x = eval('1')\n")
        ) == ["RL002"]


class TestSeverity:
    def test_default_severity_is_error(self, engine):
        findings = engine.lint_source(SCOPED, "x = eval('1')\n")
        assert [f.severity for f in findings] == ["error"]

    def test_config_downgrades_to_warn(self):
        config = LintConfig(rule_configs={"RL002": RuleConfig(severity="warn")})
        findings = LintEngine(config).lint_source(SCOPED, "x = eval('1')\n")
        assert [f.severity for f in findings] == ["warn"]

    def test_warn_marker_in_text_output(self):
        config = LintConfig(rule_configs={"RL002": RuleConfig(severity="warn")})
        findings = LintEngine(config).lint_source(SCOPED, "x = eval('1')\n")
        assert "[warn]" in render_text(findings)

    def test_warn_only_run_exits_zero(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "dirty.py"
        target.write_text("x = eval('1')\n")
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.reprolint.rules.RL002]\nseverity = \"warn\"\n"
        )
        monkeypatch.chdir(tmp_path)
        assert lint_main([str(target)]) == 0
        out = capsys.readouterr().out
        assert "RL002" in out and "[warn]" in out

    def test_severity_survives_json(self):
        config = LintConfig(rule_configs={"RL002": RuleConfig(severity="warn")})
        findings = LintEngine(config).lint_source(SCOPED, "x = eval('1')\n")
        payload = json.loads(render_json(findings))
        assert payload["findings"][0]["severity"] == "warn"


class TestSarifOutput:
    def _findings(self):
        config = LintConfig(rule_configs={"RL006": RuleConfig(severity="warn")})
        return LintEngine(config).lint_source(SCOPED, "print(eval('1'))\n")

    def test_sarif_validates_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (REPO_ROOT / "tests" / "data" / "sarif-2.1.0-subset.json").read_text()
        )
        payload = json.loads(render_sarif(self._findings()))
        jsonschema.validate(payload, schema)

    def test_empty_run_also_validates(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (REPO_ROOT / "tests" / "data" / "sarif-2.1.0-subset.json").read_text()
        )
        jsonschema.validate(json.loads(render_sarif([])), schema)

    def test_result_fields(self):
        payload = json.loads(render_sarif(self._findings()))
        run = payload["runs"][0]
        assert payload["version"] == "2.1.0"
        assert run["tool"]["driver"]["name"] == "reprolint"
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels == {"RL002": "error", "RL006": "warning"}
        location = run["results"][0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == SCOPED
        assert location["region"]["startLine"] == 1
        catalogue = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert catalogue[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_cli_sarif_format(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("x = eval('1')\n")
        assert lint_main([str(target), "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"][0]["ruleId"] == "RL002"


class TestOutputFlag:
    """``repro lint --output FILE`` writes the report file directly."""

    def test_output_writes_report_file(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("x = eval('1')\n")
        report = tmp_path / "reprolint.sarif"
        status = lint_main(
            [str(target), "--format", "sarif",
             "--output", str(report)]
        )
        assert status == 1  # findings still gate the exit code
        assert capsys.readouterr().out == ""  # report went to the file
        payload = json.loads(report.read_text())
        assert payload["runs"][0]["results"][0]["ruleId"] == "RL002"

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("X: int = 1\n")
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.json"
        status = lint_main(
            [str(target), "--output", str(missing_dir)]
        )
        assert status == 2
        assert "cannot write" in capsys.readouterr().err


class TestSelfHosting:
    def test_src_tree_is_clean(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        findings = lint_paths([REPO_ROOT / "src"], config)
        assert findings == [], render_text(findings)

    def test_python_dash_m_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src/"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "no findings" in result.stdout


class TestOnePass:
    def test_each_file_tokenised_once_and_each_cfg_built_once(self, monkeypatch):
        """A cold lint of ``src/`` does each piece of per-file work once: one
        tokenisation per file (suppressions), and at most one control-flow
        graph per function, shared by the flow rules, the ``ctx`` facts
        and the procedure summaries."""
        config = load_config(REPO_ROOT / "pyproject.toml")
        files = [
            path
            for path in iter_python_files([REPO_ROOT / "src"])
            if not config.path_excluded(str(path))
        ]
        functions = sum(
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for path in files
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
        calls = {"generate_tokens": 0, "build_cfg": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            tokenize, "generate_tokens", counted("generate_tokens", tokenize.generate_tokens)
        )
        # ``build_cfg`` is imported by name: wrap it wherever the linter binds it.
        from repro.analysis.cfg import build_cfg

        wrapped = counted("build_cfg", build_cfg)
        for name, module in list(sys.modules.items()):
            bound = getattr(module, "build_cfg", None)
            if name.startswith("repro.analysis") and bound is build_cfg:
                monkeypatch.setattr(module, "build_cfg", wrapped)

        assert lint_paths([REPO_ROOT / "src"], config) == []
        assert calls["generate_tokens"] == len(files)
        assert 0 < calls["build_cfg"] <= functions
