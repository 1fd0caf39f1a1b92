"""Lazy rule classification of candidate pairs (the Section 5.4 matching step).

The matching step applies the classification rule to the formulated
pairs.  Measuring every attribute of every candidate and only then asking
the rule is work the rule mostly does not need: a conjunction is decided
for a pair the moment one predicate fails, a disjunction the moment one
holds.  :func:`classify_pairs` therefore walks the rule over a *shrinking*
set of pairs — ``And`` hands only the survivors to its next child, ``Or``
only the not-yet-accepted, ``Not`` inverts its child's verdict — and
measures an attribute only on the pairs a predicate still has to decide,
cheapest predicate first.  The verdict equals
``rule.evaluate(encoder.attribute_distances(...))`` pair for pair; the
full per-attribute distances are computed for the accepted pairs alone.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.distance import DEFAULT_BLOCK_ROWS
from repro.rules.ast import And, Comparison, Not, Or, Rule, RuleError

if TYPE_CHECKING:
    from repro.core.encoder import AttributeLayout, RecordEncoder


def _word_span(layout: "AttributeLayout") -> tuple[int, int]:
    """First and last packed word holding a bit of the attribute."""
    return layout.offset // 64, (layout.stop - 1) // 64


class _LazyDistances:
    """Attribute distances of candidate pairs, measured on demand, a block at a time.

    ``of(attribute, index)`` measures the open block's pairs at positions
    ``index``.  An attribute's packed words are laid out once per
    classification — column-major, boundary bits masked off on both sides
    — so that measuring a pair is a contiguous gather per word, XOR and
    popcount.  An attribute named by more than one predicate
    (``repeated``) remembers what it measured in the block, so no pair's
    distance is computed twice; the others are asked at most once per pair
    by construction of the walk.
    """

    def __init__(
        self,
        encoder: "RecordEncoder",
        matrix_a: BitMatrix,
        matrix_b: BitMatrix,
        repeated: frozenset[str],
    ):
        self._encoder = encoder
        self._matrices = (matrix_a, matrix_b)
        self._repeated = repeated
        self._columns: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.rows_measured = 0

    def open_block(self, rows_a: np.ndarray, rows_b: np.ndarray) -> None:
        self._rows_a, self._rows_b = rows_a, rows_b
        self.n_rows = int(rows_a.size)
        self._memo = {
            name: (np.empty(self.n_rows, dtype=np.int64), np.zeros(self.n_rows, dtype=bool))
            for name in self._repeated
        }

    def _attribute_columns(self, attribute: str) -> tuple[np.ndarray, np.ndarray]:
        """Both matrices' words of the attribute's bit range, shape ``(words, records)``."""
        layout = self._encoder.layout(attribute)
        first, last = _word_span(layout)
        # Bits of the first word from the attribute's offset up, of the last
        # word up to its stop; all ones where the range ends on a word edge.
        low = ~np.uint64((1 << layout.offset % 64) - 1)
        high = np.uint64((1 << ((layout.stop - 1) % 64 + 1)) - 1)
        sides: list[np.ndarray] = []
        for matrix in self._matrices:
            columns = matrix.words[:, first : last + 1].T.copy()
            columns[0] &= low
            columns[-1] &= high
            sides.append(columns)
        return sides[0], sides[1]

    def _measure(self, attribute: str, index: np.ndarray) -> np.ndarray:
        columns = self._columns.get(attribute)
        if columns is None:
            columns = self._columns[attribute] = self._attribute_columns(attribute)
        self.rows_measured += int(index.size)
        xor = columns[0].take(self._rows_a[index], axis=1)
        xor ^= columns[1].take(self._rows_b[index], axis=1)
        return np.bitwise_count(xor).sum(axis=0, dtype=np.int64)

    def of(self, attribute: str, index: np.ndarray) -> np.ndarray:
        memo = self._memo.get(attribute)
        if memo is None:
            return self._measure(attribute, index)
        distance, known = memo
        fresh = index.compress(~known[index])
        distance[fresh] = self._measure(attribute, fresh)
        known[fresh] = True
        return distance[index]


def _accepted(rule: Rule, index: np.ndarray, distances: _LazyDistances) -> np.ndarray:
    """The block positions among ``index`` (ascending) whose pair ``rule`` accepts."""
    if isinstance(rule, Comparison):
        return index.compress(distances.of(rule.attribute, index) <= rule.threshold)
    if isinstance(rule, And):
        for child in rule.children:
            if not index.size:
                break
            index = _accepted(child, index, distances)
        return index
    accepted = np.zeros(distances.n_rows, dtype=bool)
    if isinstance(rule, Not):
        accepted[_accepted(rule.child, index, distances)] = True
        return index.compress(~accepted[index])
    if not isinstance(rule, Or):
        raise RuleError(f"unknown rule node {type(rule).__name__}")
    pending = index
    for child in rule.children:
        if not pending.size:
            break
        accepted[_accepted(child, pending, distances)] = True
        pending = pending.compress(~accepted[pending])
    return index.compress(accepted[index])


def _cheapest_first(rule: Rule, words: dict[str, int]) -> Rule:
    """``rule`` with every AND/OR's operands ordered by the words they touch.

    An operand's cost is the packed words its predicates read per pair;
    the sort is stable, so ties keep the rule's order.  The verdict does
    not depend on the order, only the work does.
    """
    if isinstance(rule, Not):
        return Not(_cheapest_first(rule.child, words))
    if isinstance(rule, (And, Or)):
        children = [_cheapest_first(child, words) for child in rule.children]
        children.sort(key=lambda c: sum(words[cmp.attribute] for cmp in c.comparisons()))
        return type(rule)(children)
    return rule


class PairClassifier:
    """``rule`` applied to candidate pairs of ``matrix_a`` x ``matrix_b``, lazily.

    Built once per link and asked block after block (:meth:`accepted`): an
    attribute's packed words are laid out once, however many blocks of
    candidates follow.  ``rows_measured`` counts the attribute distances
    measured so far, summed over the rule's predicates.
    """

    def __init__(
        self, rule: Rule, encoder: "RecordEncoder", matrix_a: BitMatrix, matrix_b: BitMatrix
    ):
        for cmp in rule.comparisons():
            if cmp.attribute not in encoder.names:
                raise RuleError(f"no distance supplied for attribute {cmp.attribute!r}")
        per_attribute = Counter(cmp.attribute for cmp in rule.comparisons())
        repeated = frozenset(name for name, uses in per_attribute.items() if uses > 1)
        words: dict[str, int] = {}
        for name in per_attribute:
            first, last = _word_span(encoder.layout(name))
            words[name] = last - first + 1
        self._rule = _cheapest_first(rule, words)
        self._distances = _LazyDistances(encoder, matrix_a, matrix_b, repeated)

    @property
    def rows_measured(self) -> int:
        return self._distances.rows_measured

    def accepted(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """Ascending positions of the pairs ``(rows_a[i], rows_b[i])`` the rule
        accepts, walked ``DEFAULT_BLOCK_ROWS`` at a time, so nothing
        candidate-sized is allocated beyond the result."""
        distances = self._distances
        accepted = [np.empty(0, dtype=np.int64)]
        for lo in range(0, rows_a.size, DEFAULT_BLOCK_ROWS):
            hi = lo + DEFAULT_BLOCK_ROWS
            distances.open_block(rows_a[lo:hi], rows_b[lo:hi])
            accepted.append(_accepted(self._rule, np.arange(distances.n_rows), distances) + lo)
        return np.concatenate(accepted)


def classify_pairs(
    rule: Rule,
    encoder: "RecordEncoder",
    matrix_a: BitMatrix,
    rows_a: np.ndarray,
    matrix_b: BitMatrix,
    rows_b: np.ndarray,
    counters: dict[str, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Apply ``rule`` to the candidate pairs ``(rows_a[i], rows_b[i])``.

    Returns ``(rows_a, rows_b, distances)`` restricted to the accepted
    pairs, in candidate order, with ``distances`` the encoder's
    ``attribute_distances`` of exactly those pairs (every attribute, not
    only the rule's).  An empty candidate set returns the empty arrays
    and ``{}``.  ``counters``, when given, receives
    ``classify_distance_rows``: the attribute distances measured to reach
    the verdict, summed over the rule's predicates — at most
    ``len(rows_a) * len(rule.attributes())``, the eager cost.

    One :class:`PairClassifier` over all the candidates, so nothing
    candidate-sized is allocated here.
    """
    classifier = PairClassifier(rule, encoder, matrix_a, matrix_b)
    if counters is not None:
        counters["classify_distance_rows"] = 0.0
    if not rows_a.size:
        return rows_a, rows_b, {}
    keep = classifier.accepted(rows_a, rows_b)
    if counters is not None:
        counters["classify_distance_rows"] = float(classifier.rows_measured)
    out_a, out_b = rows_a[keep], rows_b[keep]
    return out_a, out_b, encoder.attribute_distances(matrix_a, out_a, matrix_b, out_b)
