"""Ablations of cBV-HB's design choices (DESIGN.md §4).

Not a paper figure — these isolate the contribution of each design choice
the paper argues for:

* **compact vs. full q-gram vectors** (§5.2's motivation): the full
  26^2-position vectors are sparse, slow to block and 5-30x larger;
* **collision budget rho** (Theorem 1's knob): larger rho shrinks the
  vectors but costs accuracy;
* **padded vs. unpadded q-grams** (footnote 4): padding adds edge bigrams;
* **Algorithm 2's de-duplication**: how many repeat distance computations
  the UniqueCollection saves across redundant blocking groups;
* **HARRA's early pruning**: what the iterative removal costs in PC.
"""

import time

import numpy as np
from common import problem

from repro.baselines.harra import HarraLinker
from repro.core.config import CalibrationConfig
from repro.core.encoder import RecordEncoder
from repro.core.linker import CompactHammingLinker
from repro.core.qgram import QGramScheme
from repro.data.generators import EXPERIMENT_SCHEME
from repro.evaluation.metrics import evaluate_linkage
from repro.evaluation.reporting import banner, format_table
from repro.hamming.lsh import HammingLSH
from repro.text.alphabet import Alphabet


def _quality(linker, prob):
    result = linker.link(prob.dataset_a, prob.dataset_b)
    return (
        evaluate_linkage(
            result.matches, prob.true_matches, result.n_candidates, prob.comparison_space
        ),
        result,
    )


def test_ablation_compact_vs_full_vectors(benchmark, report):
    """The §5.2 motivation: full q-gram vectors are sparse and heavy."""
    prob = problem("ncvr", "pl")
    rows_a = prob.dataset_a.value_rows()
    rows_b = prob.dataset_b.value_rows()

    def run_compact():
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=5)
        start = time.perf_counter()
        linker.link(prob.dataset_a, prob.dataset_b)
        return time.perf_counter() - start, linker.encoder.total_bits

    def run_full():
        # Record-level full q-gram vectors: n_f * |S|^2 positions.
        scheme = EXPERIMENT_SCHEME
        width = scheme.space_size
        from repro.hamming.bitmatrix import scatter_bits

        def embed(rows):
            r_idx, bits = [], []
            for i, row in enumerate(rows):
                for att, value in enumerate(row):
                    for x in scheme.index_set(value):
                        r_idx.append(i)
                        bits.append(att * width + x)
            return scatter_bits(
                len(rows), 4 * width,
                np.asarray(r_idx, dtype=np.int64), np.asarray(bits, dtype=np.int64),
            )

        start = time.perf_counter()
        matrix_a = embed(rows_a)
        matrix_b = embed(rows_b)
        lsh = HammingLSH(n_bits=4 * width, k=30, threshold=4, seed=5)
        lsh.index(matrix_a)
        lsh.match(matrix_a, matrix_b)
        return time.perf_counter() - start, 4 * width

    benchmark.pedantic(run_compact, rounds=1, iterations=1)
    t_compact, bits_compact = run_compact()
    t_full, bits_full = run_full()
    report(
        banner("Ablation — compact c-vectors vs full q-gram vectors (NCVR, PL)")
        + "\n"
        + format_table(
            ["representation", "bits/record", "total time (s)"],
            [
                ["c-vectors (Theorem 1)", bits_compact, round(t_compact, 3)],
                ["full q-gram vectors", bits_full, round(t_full, 3)],
            ],
        )
        + f"\ncompact vectors are {bits_full / bits_compact:.0f}x smaller."
    )
    assert bits_compact * 5 < bits_full


def test_ablation_rho_sweep(benchmark, report):
    """Theorem 1's collision budget: bigger rho = smaller vectors, lower PC."""
    prob = problem("ncvr", "pl")

    def run(rho):
        linker = CompactHammingLinker.record_level(
            threshold=4, k=30,
            calibration=CalibrationConfig(rho=rho, r=1 / 3, seed=5),
            seed=5,
        )
        quality, __ = _quality(linker, prob)
        return quality.pairs_completeness, linker.encoder.total_bits

    benchmark.pedantic(lambda: run(1.0), rounds=1, iterations=1)
    rows = []
    pc_by_rho = {}
    for rho in (0.5, 1.0, 2.0, 4.0, 8.0):
        pc, bits = run(rho)
        pc_by_rho[rho] = pc
        rows.append([rho, bits, round(pc, 4)])
    report(
        banner("Ablation — collision budget rho (NCVR, PL)")
        + "\n"
        + format_table(["rho", "m̄_opt (bits)", "PC"], rows)
        + "\nshape: the paper's rho = 1 sits on the accuracy plateau; very"
        "\nlarge budgets shrink vectors at the cost of completeness."
    )
    assert pc_by_rho[1.0] >= pc_by_rho[8.0] - 0.01


def test_ablation_padded_qgrams(benchmark, report):
    """Footnote 4's padding: edge bigrams raise b (bigger vectors), and the
    same edit can now move more bits, so thresholds must be re-derived."""
    prob = problem("ncvr", "pl")
    padded_scheme = QGramScheme(
        alphabet=Alphabet(EXPERIMENT_SCHEME.alphabet.chars), padded=True
    )

    def run(scheme, threshold):
        linker = CompactHammingLinker.record_level(
            threshold=threshold, k=30, scheme=scheme, seed=5
        )
        quality, __ = _quality(linker, prob)
        return quality.pairs_completeness, linker.encoder.total_bits

    benchmark.pedantic(lambda: run(EXPERIMENT_SCHEME, 4), rounds=1, iterations=1)
    pc_plain, bits_plain = run(EXPERIMENT_SCHEME, 4)
    pc_padded, bits_padded = run(padded_scheme, 4)
    report(
        banner("Ablation — padded vs unpadded bigrams (NCVR, PL, theta = 4)")
        + "\n"
        + format_table(
            ["q-grams", "m̄_opt (bits)", "PC"],
            [
                ["unpadded (Figure 1)", bits_plain, round(pc_plain, 4)],
                ["padded (footnote 4)", bits_padded, round(pc_padded, 4)],
            ],
        )
        + "\npadding grows every attribute by ~2 bigrams; with the same"
        "\nthreshold both stay highly complete (substitution still moves <= 4 bits)."
    )
    assert bits_padded > bits_plain
    assert pc_padded >= 0.9


def test_ablation_dedup_savings(benchmark, report):
    """Algorithm 2's UniqueCollection: repeat formulations across the L
    redundant blocking groups that a de-duplicating matcher skips."""
    prob = problem("ncvr", "pl")
    rows_a = prob.dataset_a.value_rows()
    rows_b = prob.dataset_b.value_rows()
    encoder = RecordEncoder.calibrated(rows_a[:1000], scheme=EXPERIMENT_SCHEME, seed=5)
    matrix_a = encoder.encode_dataset(rows_a)
    matrix_b = encoder.encode_dataset(rows_b)
    lsh = HammingLSH(n_bits=encoder.total_bits, k=30, threshold=4, seed=5)
    lsh.index(matrix_a)

    benchmark.pedantic(lambda: lsh.candidate_pairs(matrix_b), rounds=1, iterations=1)
    counters: dict[str, float] = {}
    unique_a, __ = lsh.candidate_pairs(matrix_b, counters)
    with_repeats = int(counters["pairs_generated"])  # every group's raw pairs
    report(
        banner("Ablation — Algorithm 2 de-duplication (NCVR, PL)")
        + "\n"
        + format_table(
            ["candidate stream", "distance computations"],
            [
                ["without de-duplication", with_repeats],
                ["with UniqueCollection", int(unique_a.size)],
            ],
        )
        + f"\nde-duplication removes {1 - unique_a.size / max(with_repeats, 1):.0%}"
        " of the distance computations across the redundant groups."
    )
    assert unique_a.size < with_repeats


def test_ablation_harra_permutation_prefix(benchmark, report):
    """The truncated-permutation artifact of HARRA's implementation
    (Section 6.1): examining only a prefix of each permutation creates
    sentinel mega-buckets and degrades blocking quality."""
    prob = problem("ncvr", "pl")

    def run(prefix):
        linker = HarraLinker(
            threshold=0.35, n_tables=30, permutation_prefix=prefix, seed=5
        )
        return _quality(linker, prob)

    benchmark.pedantic(lambda: run(None), rounds=1, iterations=1)
    rows = []
    stats = {}
    for label, prefix in (("exact MinHash", None), ("2% prefix (paper's artifact)", 0.02)):
        quality, result = run(prefix)
        stats[label] = quality
        rows.append(
            [
                label,
                round(quality.pairs_completeness, 4),
                quality.n_candidates,
                round(quality.reduction_ratio, 4),
            ]
        )
    report(
        banner("Ablation — HARRA's truncated permutations (NCVR, PL)")
        + "\n"
        + format_table(["minhash variant", "PC", "candidates", "RR"], rows)
        + "\ntruncation makes hash slots fail ('an index holding 0'), whose"
        "\nsentinel agreements blow up bucket sizes — more comparisons for"
        "\nthe same or worse completeness."
    )
    assert (
        stats["2% prefix (paper's artifact)"].n_candidates
        >= stats["exact MinHash"].n_candidates
    )


def test_ablation_harra_early_pruning(benchmark, report):
    """What HARRA's iterative early removal costs in completeness."""
    prob = problem("ncvr", "pl")
    benchmark.pedantic(
        lambda: HarraLinker(threshold=0.35, n_tables=30, seed=5).link(
            prob.dataset_a, prob.dataset_b
        ),
        rounds=1,
        iterations=1,
    )
    rows = []
    pc = {}
    for label, pruning in (("early pruning (h-CC)", True), ("no pruning", False)):
        linker = HarraLinker(
            threshold=0.35, n_tables=30, early_pruning=pruning, seed=5
        )
        quality, result = _quality(linker, prob)
        pc[pruning] = quality.pairs_completeness
        rows.append(
            [label, round(quality.pairs_completeness, 4), quality.n_candidates,
             round(result.total_time, 2)]
        )
    report(
        banner("Ablation — HARRA early pruning (NCVR, PL)")
        + "\n"
        + format_table(["variant", "PC", "candidates", "time (s)"], rows)
        + "\nearly pruning saves comparisons but forfeits matches whose record"
        "\nwas already claimed by a household near-duplicate."
    )
    assert pc[False] >= pc[True]
