"""Bibliographic linkage: cBV-HB vs the baselines on DBLP-like records.

The paper's second dataset family has very different statistics from the
voter file — paper titles average ~65 bigrams while years have exactly 3 —
and it is where the baselines' weaknesses show: HARRA's single record-
level bigram vector confuses title bigrams with name bigrams, and BfH's
Bloom distances depend on string lengths.  This example links a DBLP-like
pair with all three Hamming-space methods and prints the comparison.

Run:  python examples/bibliographic_dedup.py
"""

from repro import (
    CompactHammingLinker,
    DBLPGenerator,
    build_linkage_problem,
    evaluate_linkage,
    scheme_pl,
)
from repro.baselines import BfHLinker, HarraLinker

NAMES = ["FirstName", "LastName", "Title", "Year"]


def main() -> None:
    problem = build_linkage_problem(DBLPGenerator(), 4000, scheme_pl(), seed=9)
    print("example record:")
    __, (first, last, title, year) = problem.dataset_a[0]
    print(f"  {first} {last}: {title!r} ({year})")
    print(f"\n{problem.n_true_matches} true matches hidden in "
          f"{len(problem.dataset_a)} x {len(problem.dataset_b)} pairs\n")

    methods = {
        "cBV-HB": CompactHammingLinker.record_level(threshold=4, k=30, seed=9),
        "HARRA": HarraLinker(threshold=0.35, k=5, n_tables=30, seed=9),
        "BfH": BfHLinker(
            {name: 45 for name in NAMES}, n_attributes=4, names=NAMES, k=30, seed=9
        ),
    }

    print(f"{'method':<8} {'PC':>6} {'PQ':>8} {'RR':>8} {'time':>8}")
    for label, linker in methods.items():
        result = linker.link(problem.dataset_a, problem.dataset_b)
        quality = evaluate_linkage(
            result.matches, problem.true_matches, result.n_candidates,
            problem.comparison_space,
        )
        print(
            f"{label:<8} {quality.pairs_completeness:>6.3f} "
            f"{quality.pairs_quality:>8.4f} {quality.reduction_ratio:>8.4f} "
            f"{result.total_time:>7.2f}s"
        )

    print("\n(the paper's Figure 9(b) shape: cBV-HB is the only method whose")
    print(" PC is stable across dataset families; HARRA degrades on DBLP")
    print(" because identical bigrams from different attributes collide in")
    print(" its single record-level vector)")


if __name__ == "__main__":
    main()
