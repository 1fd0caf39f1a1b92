"""Blocking/matching quality measures (Section 6, "Quality measures").

With ``M`` the set of truly matching pairs, ``M̂`` the identified matches
and ``CR`` the candidate pairs formulated by blocking:

* Pairs Completeness  ``PC = |M̂ ∩ M| / |M|``          (recall against truth)
* Pairs Quality       ``PQ = |M̂ ∩ M| / |CR|``          (efficiency of blocking)
* Reduction Ratio     ``RR = 1 - |CR| / |A x B|``       (comparison-space cut)

Precision / recall / F1 of the final match set are included as well — they
are standard in the record-linkage literature [2] and useful for the
extension experiments.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinkageQuality:
    """The full measurement bundle for one linkage run."""

    pairs_completeness: float
    pairs_quality: float
    reduction_ratio: float
    precision: float
    recall: float
    n_true_matches: int
    n_candidates: int
    n_matches: int
    n_true_positives: int

    @property
    def f1(self) -> float:
        # Both terms are non-negative ratios, so <= 0.0 is an exact
        # "both are zero" test without a float equality comparison.
        if self.precision + self.recall <= 0.0:
            return 0.0
        return 2.0 * self.precision * self.recall / (self.precision + self.recall)


def pairs_completeness(found: set[tuple[int, int]], truth: set[tuple[int, int]]) -> float:
    """``|found ∩ truth| / |truth|``; defined as 1.0 for empty truth."""
    if not truth:
        return 1.0
    return len(found & truth) / len(truth)


def pairs_quality(
    found: set[tuple[int, int]], truth: set[tuple[int, int]], n_candidates: int
) -> float:
    """``|found ∩ truth| / |CR|``; defined as 0.0 when no candidates exist."""
    if n_candidates <= 0:
        return 0.0
    return len(found & truth) / n_candidates

def reduction_ratio(n_candidates: int, comparison_space: int) -> float:
    """``1 - |CR| / |A x B|``."""
    if comparison_space <= 0:
        raise ValueError(f"comparison space must be positive, got {comparison_space}")
    return 1.0 - n_candidates / comparison_space


def evaluate_linkage(
    matches: Iterable[tuple[int, int]],
    truth: set[tuple[int, int]],
    n_candidates: int,
    comparison_space: int,
) -> LinkageQuality:
    """Compute PC / PQ / RR / precision / recall for one linkage run.

    ``matches`` are the pairs the method *classified* as matching,
    ``n_candidates`` the number of candidate pairs blocking formulated
    (``|CR|``), and ``comparison_space`` is ``|A| * |B|``.
    """
    found = set(matches)
    true_positives = len(found & truth)
    precision = true_positives / len(found) if found else 0.0
    recall = true_positives / len(truth) if truth else 1.0
    return LinkageQuality(
        pairs_completeness=pairs_completeness(found, truth),
        pairs_quality=pairs_quality(found, truth, n_candidates),
        reduction_ratio=reduction_ratio(n_candidates, comparison_space),
        precision=precision,
        recall=recall,
        n_true_matches=len(truth),
        n_candidates=n_candidates,
        n_matches=len(found),
        n_true_positives=true_positives,
    )


def pairs_from_arrays(rows_a: np.ndarray, rows_b: np.ndarray) -> set[tuple[int, int]]:
    """Convert parallel index arrays into a set of (row_a, row_b) pairs."""
    return set(zip(rows_a.tolist(), rows_b.tolist()))
