"""Cross-module integration tests: the paper's headline shapes, in miniature.

Each test runs a full linkage pipeline on a small synthetic problem and
asserts the *qualitative* result the corresponding paper figure reports.
`benchmarks/paper.py` regenerates the quantitative grid (BENCH_paper.json).
"""

import statistics

from repro.baselines import BfHLinker, HarraLinker
from repro.core.linker import CompactHammingLinker
from repro.data import (
    DBLPGenerator,
    build_linkage_problem,
    scheme_ph,
    scheme_pl,
)
from repro.evaluation.metrics import evaluate_linkage
from repro.rules.parser import parse_rule

NCVR_NAMES = ["FirstName", "LastName", "Address", "Town"]
NCVR_K = {"FirstName": 5, "LastName": 5, "Address": 10}
DBLP_NAMES = ["FirstName", "LastName", "Title", "Year"]
DBLP_K = {"FirstName": 5, "LastName": 5, "Title": 12}
PH_RULE_NCVR = parse_rule("(FirstName<=4) & (LastName<=4) & (Address<=8)")
PH_RULE_DBLP = parse_rule("(FirstName<=4) & (LastName<=4) & (Title<=8)")


def quality_of(linker, problem):
    result = linker.link(problem.dataset_a, problem.dataset_b)
    return evaluate_linkage(
        result.matches, problem.true_matches, result.n_candidates, problem.comparison_space
    )


class TestFigure9Shapes:
    """cBV-HB's PC stays >= 0.95 on both dataset families and schemes."""

    def test_cbv_pc_ncvr_pl(self, small_pl_problem):
        quality = quality_of(
            CompactHammingLinker.record_level(threshold=4, k=30, seed=1),
            small_pl_problem,
        )
        assert quality.pairs_completeness >= 0.95

    def test_cbv_pc_ncvr_ph(self, small_ph_problem):
        quality = quality_of(
            CompactHammingLinker.rule_aware(
                PH_RULE_NCVR, k=NCVR_K, attribute_names=NCVR_NAMES, seed=2
            ),
            small_ph_problem,
        )
        assert quality.pairs_completeness >= 0.95

    def test_cbv_pc_dblp_pl(self):
        problem = build_linkage_problem(DBLPGenerator(), 400, scheme_pl(), seed=51)
        quality = quality_of(
            CompactHammingLinker.record_level(threshold=4, k=30, seed=3), problem
        )
        assert quality.pairs_completeness >= 0.95

    def test_cbv_pc_dblp_ph(self):
        problem = build_linkage_problem(DBLPGenerator(), 400, scheme_ph(), seed=52)
        quality = quality_of(
            CompactHammingLinker.rule_aware(
                PH_RULE_DBLP, k=DBLP_K, attribute_names=DBLP_NAMES, seed=4
            ),
            problem,
        )
        assert quality.pairs_completeness >= 0.95

    def test_cbv_beats_harra_on_pc(self, small_pl_problem):
        cbv = quality_of(
            CompactHammingLinker.record_level(threshold=4, k=30, seed=5),
            small_pl_problem,
        )
        harra = quality_of(
            HarraLinker(threshold=0.35, k=5, n_tables=30, seed=5), small_pl_problem
        )
        # HARRA's early pruning plus record-level bigram vector keeps it
        # behind cBV-HB (Figure 9(a)); allow equality on small samples.
        assert cbv.pairs_completeness >= harra.pairs_completeness - 0.02


class TestFigure12Shapes:
    def test_reduction_ratio_high_for_hamming_methods(self, small_pl_problem):
        for linker in (
            CompactHammingLinker.record_level(threshold=4, k=30, seed=6),
            BfHLinker(
                {name: 45 for name in NCVR_NAMES},
                n_attributes=4, names=NCVR_NAMES, k=30, seed=6,
            ),
        ):
            quality = quality_of(linker, small_pl_problem)
            assert quality.reduction_ratio >= 0.95


class TestFigure6Shapes:
    """Rule-aware blocking beats standard record-level blocking on PC."""

    def test_rule_aware_pc_at_least_standard(self, small_ph_problem):
        rule_aware = quality_of(
            CompactHammingLinker.rule_aware(
                PH_RULE_NCVR, k=NCVR_K, attribute_names=NCVR_NAMES, seed=7
            ),
            small_ph_problem,
        )
        # Standard blocking with the record-level threshold implied by PH
        # (4 + 4 + 8 = 16 bits) samples bits blind to the rule.
        standard = quality_of(
            CompactHammingLinker.record_level(threshold=16, k=30, seed=7),
            small_ph_problem,
        )
        assert rule_aware.pairs_completeness >= standard.pairs_completeness - 0.02


class TestExperimentHarnessEndToEnd:
    def test_repeated_trials_stable(self, small_pl_problem):
        pcs = [
            quality_of(
                CompactHammingLinker.record_level(threshold=4, k=30, seed=seed), small_pl_problem
            ).pairs_completeness
            for seed in (100, 101, 102)
        ]
        assert statistics.fmean(pcs) >= 0.95
        assert statistics.stdev(pcs) <= 0.05
