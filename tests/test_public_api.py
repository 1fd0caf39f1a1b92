"""The public API surface: imports, __all__ hygiene and the README example."""

import importlib
from pathlib import Path

import pytest

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.hamming",
            "repro.rules",
            "repro.data",
            "repro.baselines",
            "repro.evaluation",
            "repro.text",
            "repro.protocol",
            "repro.cli",
        ],
    )
    def test_subpackages_import(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.hamming",
            "repro.rules",
            "repro.data",
            "repro.baselines",
            "repro.evaluation",
            "repro.text",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"


class TestReadmeExample:
    def test_quickstart_snippet(self):
        from repro import (
            CompactHammingLinker,
            NCVRGenerator,
            build_linkage_problem,
            evaluate_linkage,
            scheme_pl,
        )

        problem = build_linkage_problem(NCVRGenerator(), 500, scheme_pl(), seed=42)
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=42)
        result = linker.link(problem.dataset_a, problem.dataset_b)
        quality = evaluate_linkage(
            result.matches,
            problem.true_matches,
            result.n_candidates,
            problem.comparison_space,
        )
        assert quality.pairs_completeness >= 0.95
        assert 100 <= linker.encoder.total_bits <= 140

    def test_rule_aware_snippet(self):
        from repro import CompactHammingLinker, parse_rule

        rule = parse_rule("(FirstName<=4) & (LastName<=4) & (Address<=8)")
        linker = CompactHammingLinker.rule_aware(
            rule,
            k={"FirstName": 5, "LastName": 5, "Address": 10},
            attribute_names=["FirstName", "LastName", "Address", "Town"],
        )
        assert linker.rule is rule


class TestDoctests:
    def test_module_doctests(self):
        """Run the doctest examples of every ``repro`` module that has one."""
        import doctest

        root = Path(repro.__file__).parent
        names = []
        for path in sorted(root.rglob("*.py")):
            if ">>>" in path.read_text(encoding="utf-8"):
                parts = path.relative_to(root.parent).with_suffix("").parts
                names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
        assert {"repro", "repro.core.qgram", "repro.evaluation.reporting"} <= set(names)
        failed = []
        for name in names:
            # importlib: a package attribute (``repro.text.normalize`` the
            # function) can shadow the module of the same name.
            module = importlib.import_module(name)
            if doctest.testmod(module, optionflags=doctest.ELLIPSIS).failed:
                failed.append(name)
        assert failed == []
