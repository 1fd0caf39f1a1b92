"""Quickstart: link two noisy datasets with cBV-HB in a dozen lines.

Generates a voter-file-like dataset pair (each B record is a perturbed
copy of an A record with probability 0.5), links them with the compact
Hamming embedding + Hamming LSH pipeline, and reports the standard
blocking quality measures.

Run:  python examples/quickstart.py
"""

from repro import (
    CompactHammingLinker,
    NCVRGenerator,
    build_linkage_problem,
    evaluate_linkage,
    scheme_pl,
)


def main() -> None:
    # 1. A linkage problem: A and B with ground truth (PL = one typo per
    #    matched record, in one random attribute).
    problem = build_linkage_problem(
        NCVRGenerator(), n=5000, scheme=scheme_pl(), seed=42
    )
    print(f"dataset A: {len(problem.dataset_a)} records")
    print(f"dataset B: {len(problem.dataset_b)} records "
          f"({problem.n_true_matches} true matches)")
    __, values = problem.dataset_a[0]
    print(f"example record: {values}")

    # 2. The cBV-HB linker: one edit operation moves the compact Hamming
    #    distance by at most 4 bits (Section 5.1), so threshold 4 covers
    #    the PL scheme.  K = 30 base hashes; L comes from Equation (2).
    linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=42)
    result = linker.link(problem.dataset_a, problem.dataset_b)

    # 3. The encoder was calibrated from the data via Theorem 1 — a whole
    #    four-attribute record fits in ~120 bits.
    print(f"\ncalibrated encoder: {linker.encoder}")
    for stage, seconds in result.timings.items():
        print(f"  {stage:<10} {seconds * 1e3:8.1f} ms")

    # 4. Quality against ground truth.
    quality = evaluate_linkage(
        result.matches,
        problem.true_matches,
        result.n_candidates,
        problem.comparison_space,
    )
    print(f"\npairs completeness (PC): {quality.pairs_completeness:.3f}")
    print(f"pairs quality      (PQ): {quality.pairs_quality:.3f}")
    print(f"reduction ratio    (RR): {quality.reduction_ratio:.4f}")
    print(f"precision:               {quality.precision:.3f}")
    print(f"candidates compared:     {quality.n_candidates} "
          f"(out of {problem.comparison_space} possible pairs)")


if __name__ == "__main__":
    main()
