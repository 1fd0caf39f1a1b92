"""Sorted neighborhood blocking (Hernandez & Stolfo [12]) — Related Work.

The paper's Section 2 singles out the sorted neighborhood method as one of
the two classic blocking approaches that "do not provide any guarantees
for identifying record pairs that are similar nor scale well".  It is
implemented here as a reference point: sort all records of both datasets
by a *sorting key* (a concatenation of attribute prefixes), slide a
fixed-size window over the sorted sequence, and compare the cross-dataset
pairs formulated inside each window.

``link`` is the shared A-sample embedding
(:func:`~repro.core.encoder.sampled_embedding`), the window sweep as its
blocking step, and the shared :func:`~repro.hamming.distance.verify_pairs`
— the same compact-Hamming verification as cBV-HB, so the comparison
isolates the *blocking* strategy.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.core.encoder import sampled_embedding
from repro.core.qgram import QGramScheme
from repro.hamming.distance import verify_pairs
from repro.hamming.lsh import sorted_unique
from repro.pipeline.result import LinkageResult, timed
from repro.protocol import DatasetLike, value_rows
from repro.text.alphabet import TEXT_ALPHABET


def default_sorting_key(values: Sequence[str], prefix: int = 3) -> str:
    """The customary key: the first characters of each attribute, in order."""
    return "".join(value[:prefix] for value in values)


class SortedNeighborhoodLinker:
    """Sorted-neighborhood blocking with Hamming verification.

    Parameters
    ----------
    threshold:
        Record-level compact-Hamming threshold for the matching step.
    window:
        Sliding-window size ``w``; each record is compared with the
        ``w - 1`` records that follow it in sort order.
    key:
        Sorting-key function over a record's attribute values.
    passes:
        Number of passes; pass ``i > 0`` rotates the attribute order, the
        standard multi-pass variant that rescues records whose first
        attribute was corrupted.
    """

    def __init__(
        self,
        threshold: int,
        window: int = 10,
        key: Callable[[Sequence[str]], str] | None = None,
        passes: int = 1,
        scheme: QGramScheme | None = None,
        seed: int | None = None,
    ) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if passes < 1:
            raise ValueError(f"passes must be >= 1, got {passes}")
        self.threshold = threshold
        self.window = window
        self.key = key or default_sorting_key
        self.passes = passes
        self.scheme = scheme or QGramScheme(alphabet=TEXT_ALPHABET)
        self.seed = seed

    def _keys_for_pass(self, rows: list[tuple[str, ...]], pass_index: int) -> list[str]:
        if pass_index == 0:
            return [self.key(row) for row in rows]
        # Rotate attribute order for later passes.
        return [
            self.key(row[pass_index % len(row) :] + row[: pass_index % len(row)])
            for row in rows
        ]

    def _candidates(
        self, rows_a: list[tuple[str, ...]], rows_b: list[tuple[str, ...]]
    ) -> tuple[np.ndarray, int]:
        """Multi-pass sorted windows over the merged, key-sorted record stream,
        as encoded pairs ``a * n_B + b`` in ascending order."""
        n_a, n_b = len(rows_a), len(rows_b)
        # Both datasets merged into one stream, tagged by side (A = 0, B = 1).
        side = np.repeat(np.array([0, 1], dtype=np.int8), [n_a, n_b])
        ids = np.concatenate([np.arange(n_a), np.arange(n_b)])
        found: list[np.ndarray] = []
        for pass_index in range(self.passes):
            keys = self._keys_for_pass(rows_a, pass_index)
            keys += self._keys_for_pass(rows_b, pass_index)
            order = np.lexsort((ids, side, np.array(keys, dtype=str)))
            sorted_side, sorted_ids = side[order], ids[order]
            # A pair is formulated when an A and a B record lie fewer than
            # ``window`` positions apart in the sorted stream.
            for gap in range(1, min(self.window, order.size)):
                first, second = sorted_side[:-gap], sorted_side[gap:]
                cross = first != second
                a_first = first[cross] == 0
                lo, hi = sorted_ids[:-gap][cross], sorted_ids[gap:][cross]
                found.append(np.where(a_first, lo, hi) * n_b + np.where(a_first, hi, lo))
        encoded = np.concatenate(found) if found else np.empty(0, dtype=np.int64)
        return sorted_unique(encoded.astype(np.int64, copy=False)), n_b

    def link(self, dataset_a: DatasetLike, dataset_b: DatasetLike) -> LinkageResult:
        """embed -> window blocking -> Hamming verify."""
        rows_a, rows_b = value_rows(dataset_a), value_rows(dataset_b)
        timings: dict[str, float] = {}
        with timed(timings, "embed"):
            matrix_a, matrix_b = sampled_embedding(rows_a, rows_b, self.scheme, self.seed)
        with timed(timings, "index"):
            candidates = self._candidates(rows_a, rows_b)
        with timed(timings, "match"):
            out_a, out_b, distances = verify_pairs(
                matrix_a.words, matrix_b.words, candidates, self.threshold
            )
        n_candidates = int(candidates[0].size)
        return LinkageResult(
            rows_a=out_a,
            rows_b=out_b,
            n_candidates=n_candidates,
            comparison_space=len(rows_a) * len(rows_b),
            timings=timings,
            record_distances=distances,
            counters={"pairs_verified": float(n_candidates)},
        )
