"""Threshold calibration without guesswork.

The baselines in the paper all set their thresholds "after experimenting
exhaustively" — the compact Hamming space removes that step because
distances correspond to error *types* (Section 5.1).  This example:

1. derives the thresholds for an error model with `repro.rules.derive`
   (one typo per name field, two in the address — the paper's PH);
2. links with a deliberately loose threshold to collect the full
   candidate-distance spectrum;
3. sweeps the matching threshold over those distances (one
   `evaluate_linkage` per threshold) and shows that the *derived*
   threshold sits at the PC/precision knee.

Run:  python examples/threshold_calibration.py
"""

from repro import CompactHammingLinker, NCVRGenerator, build_linkage_problem, scheme_pl
from repro.evaluation import evaluate_linkage, format_table, pairs_from_arrays
from repro.rules.derive import derive_thresholds, error_budget

LOOSE_THRESHOLD = 12


def main() -> None:
    # 1. Derived thresholds: no data needed, just the error model.
    print("error model -> thresholds (Section 5.1 correspondence):")
    print(f"  one edit anywhere:        record theta = {error_budget(1)}")
    derived = derive_thresholds({"FirstName": 1, "LastName": 1, "Address": 2})
    for name, theta in derived.attribute_thresholds.items():
        print(f"  {name:<10} <= {theta} bits")
    print(f"  induced rule: {derived.rule()}\n")

    # 2. A linkage run with a loose threshold, to expose the spectrum.
    problem = build_linkage_problem(NCVRGenerator(), 4000, scheme_pl(), seed=21)
    linker = CompactHammingLinker.record_level(threshold=LOOSE_THRESHOLD, k=25, seed=21)
    result = linker.link(problem.dataset_a, problem.dataset_b)

    # 3. The sweep: keep the loose run's pairs within each threshold.
    rows, f1 = [], {}
    for theta in range(LOOSE_THRESHOLD + 1):
        keep = result.record_distances <= theta
        quality = evaluate_linkage(
            pairs_from_arrays(result.rows_a[keep], result.rows_b[keep]),
            problem.true_matches,
            result.n_candidates,
            problem.comparison_space,
        )
        f1[theta] = quality.f1
        marker = "<- derived theta" if theta == 4 else ""
        rows.append(
            [theta, quality.n_matches, round(quality.pairs_completeness, 3),
             round(quality.precision, 3), round(quality.f1, 3), marker]
        )
    print(format_table(["theta", "matches", "PC", "precision", "F1", ""], rows))

    best = max(f1, key=f1.__getitem__)
    print(f"\nbest-F1 threshold (tuned):   {best}  (F1 = {f1[best]:.3f})")
    print(f"derived threshold (theta=4): F1 = {f1[4]:.3f}")
    print("\n(the derived threshold needs no tuning data at all — that is the")
    print(" practical payoff of embedding into a space where distance counts errors)")


if __name__ == "__main__":
    main()
