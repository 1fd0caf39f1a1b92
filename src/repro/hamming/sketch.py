"""Sketch-prefiltered Hamming verification (word-subset early rejection).

The threshold test of Algorithm 2 only needs to know *whether*
``d_H <= theta`` — the exact distance matters for the accepted minority,
not for the rejected bulk.  A partial XOR popcount over any subset of the
packed ``uint64`` words is an **exact lower bound** on the full distance
(the remaining words can only add set bits), so a candidate whose partial
distance already exceeds the threshold is rejected with zero error
margin.  This is the spirit of Kopelowitz & Porat's sampled-position
Hamming sketches, specialised to the packed-word layout: the "sample" is
a deterministic, seeded subset of whole 64-bit words, which keeps the
sketch pass a plain (gather, XOR, popcount) kernel.

:func:`verify_pairs` runs a tiered refinement: tier 1 popcounts a few
permuted words for every pair, later tiers add words for the survivors
only, and the final exact sweep popcounts just the *remaining* words —
the accumulated partial already covers the rest, so an accepted pair
costs exactly one full-width popcount no matter how many tiers ran.
Work is processed in cache-sized row blocks (``VerifyConfig.block_rows``)
so gathered candidate rows stream through the popcount kernels instead
of thrashing, and every output is byte-identical to the plain full-width
sweep (enforced by the golden-parity suite and ``bench_verify.py``).

:func:`verify_pairs_topk` extends the idea to top-k queries with a
running k-th-distance bound: the k candidates with the smallest tier-1
partials are verified exactly per query, the k-th of those exact
distances upper-bounds the final k-th distance, and every other
candidate whose partial exceeds that bound provably cannot enter the
top-k (strictly greater distance loses every ``(distance, id)``
tie-break).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

#: Default words popcounted per tier (cumulative prefix sizes of the
#: seeded word permutation); clipped to the matrix width at run time.
DEFAULT_TIERS = (3, 8)

#: Default candidate rows per cache block: 32768 pairs x a handful of
#: sketch words x 8 B keeps both gathered operands inside L2.
DEFAULT_BLOCK_ROWS = 1 << 15

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class VerifyConfig:
    """How candidate verification prefilters before the exact sweep.

    Parameters
    ----------
    enabled:
        Master switch; a disabled config routes callers to the plain
        full-width sweep (handy for CLI ablations).
    tiers:
        Strictly increasing cumulative word counts per refinement tier.
        Tier ``i`` has popcounted the first ``tiers[i]`` words of the
        seeded permutation; pairs whose accumulated partial distance
        exceeds the threshold are rejected there.  Values are clipped to
        the packed width, so a config tuned for wide embeddings degrades
        gracefully (and exactly) on narrow ones.
    block_rows:
        Candidate pairs per cache block for every gather/popcount pass.
    seed:
        Seed of the word permutation that defines the sketch subsets.
        Any seed is *correct* (rejection is an exact lower-bound test);
        it only decorrelates the sketch from the attribute layout, where
        leading words would all come from the first attribute.
    """

    enabled: bool = True
    tiers: tuple[int, ...] = DEFAULT_TIERS
    block_rows: int = DEFAULT_BLOCK_ROWS
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ValueError("tiers must name at least one sketch width")
        previous = 0
        for width in self.tiers:
            if width <= previous:
                raise ValueError(
                    f"tiers must be strictly increasing positive word counts, "
                    f"got {self.tiers}"
                )
            previous = width
        if self.block_rows < 1:
            raise ValueError(f"block_rows must be >= 1, got {self.block_rows}")


@lru_cache(maxsize=64)
def _word_order_cached(n_words: int, seed: int) -> tuple[int, ...]:
    rng = np.random.default_rng(seed)
    return tuple(int(w) for w in rng.permutation(n_words))


def sketch_word_order(n_words: int, seed: int) -> np.ndarray:
    """The seeded permutation of word indices the sketch tiers prefix.

    Deterministic in ``(n_words, seed)`` — the same config always samples
    the same words, so results are reproducible across processes, shards
    and snapshot reloads.
    """
    if n_words < 1:
        raise ValueError(f"n_words must be >= 1, got {n_words}")
    return np.asarray(_word_order_cached(n_words, int(seed)), dtype=np.int64)


def _tier_widths(tiers: tuple[int, ...], n_words: int) -> list[int]:
    """Cumulative tier widths clipped to the packed width, deduplicated."""
    widths: list[int] = []
    previous = 0
    for width in tiers:
        width = min(width, n_words)
        if width > previous:
            widths.append(width)
            previous = width
    return widths


def partial_hamming_rows(
    words_a: np.ndarray,
    rows_a: np.ndarray,
    words_b: np.ndarray,
    rows_b: np.ndarray,
    cols: np.ndarray,
    block_rows: int = DEFAULT_BLOCK_ROWS,
) -> np.ndarray:
    """Partial Hamming distance over the word subset ``cols``, blocked.

    The result is an exact lower bound of the full row-wise distance for
    any subset, and equals it when ``cols`` covers every word.  Rows are
    gathered ``block_rows`` pairs at a time so the transient XOR block
    stays cache-sized even for multi-million-pair candidate chunks.
    """
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = np.asarray(rows_b, dtype=np.int64)
    if rows_a.shape != rows_b.shape:
        raise ValueError(
            f"rows_a and rows_b must be parallel arrays, got "
            f"{rows_a.shape} vs {rows_b.shape}"
        )
    cols = np.asarray(cols, dtype=np.int64)
    out = np.empty(rows_a.size, dtype=np.int64)
    gather = cols[None, :]
    for lo in range(0, rows_a.size, block_rows):
        hi = min(lo + block_rows, rows_a.size)
        xor = words_a[rows_a[lo:hi, None], gather] ^ words_b[rows_b[lo:hi, None], gather]
        out[lo:hi] = np.bitwise_count(xor).sum(axis=1).astype(np.int64)
    return out


def _bump(counters: dict[str, float] | None, key: str, amount: float) -> None:
    if counters is not None:
        counters[key] = counters.get(key, 0.0) + amount


def reject_rate(counters: dict[str, float]) -> float:
    """Fraction of prefiltered pairs rejected before the exact sweep."""
    total = counters.get("pairs_prefiltered", 0.0)
    if not total:
        return 0.0
    rejected = total - counters.get("pairs_exact", 0.0)
    return rejected / total


def verify_pairs(
    words_a: np.ndarray,
    rows_a: np.ndarray,
    words_b: np.ndarray,
    rows_b: np.ndarray,
    threshold: int | np.ndarray,
    config: VerifyConfig,
    counters: dict[str, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thresholded Hamming verification with tiered sketch prefiltering.

    Returns ``(kept_a, kept_b, distances)`` — byte-identical (same pairs,
    same order, same exact distances) to the plain full-width sweep

    >>> # xor = words_a[rows_a] ^ words_b[rows_b]
    >>> # dist = np.bitwise_count(xor).sum(axis=1); keep = dist <= threshold

    because a pair is only rejected when its *lower bound* already
    exceeds the threshold, and survivors accumulate the popcount of
    every word exactly once.  ``threshold`` may be a scalar or a
    per-pair array (the top-k path passes per-query running bounds).

    Counters (summed into ``counters`` when given): ``pairs_prefiltered``
    (total pairs seen), ``pairs_rejected_t<i>`` per tier and
    ``pairs_exact`` (survivors whose exact distance was completed).
    """
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = np.asarray(rows_b, dtype=np.int64)
    if rows_a.shape != rows_b.shape:
        raise ValueError(
            f"rows_a and rows_b must be parallel arrays, got "
            f"{rows_a.shape} vs {rows_b.shape}"
        )
    n_words = int(words_a.shape[-1])
    if int(words_b.shape[-1]) != n_words:
        raise ValueError(
            f"packed widths differ: {n_words} vs {int(words_b.shape[-1])} words"
        )
    n_pairs = rows_a.size
    _bump(counters, "pairs_prefiltered", float(n_pairs))
    if n_pairs == 0:
        return _EMPTY, _EMPTY, _EMPTY

    order = sketch_word_order(n_words, config.seed)
    widths = _tier_widths(config.tiers, n_words)
    per_pair = isinstance(threshold, np.ndarray)
    bound = threshold if per_pair else int(threshold)

    parts_a: list[np.ndarray] = []
    parts_b: list[np.ndarray] = []
    parts_d: list[np.ndarray] = []
    rejected = [0] * len(widths)
    n_exact = 0
    for lo in range(0, n_pairs, config.block_rows):
        hi = min(lo + config.block_rows, n_pairs)
        ra = rows_a[lo:hi]
        rb = rows_b[lo:hi]
        th = bound[lo:hi] if per_pair else bound
        partial = np.zeros(hi - lo, dtype=np.int64)
        previous = 0
        for tier, width in enumerate(widths):
            cols = order[previous:width][None, :]
            xor = words_a[ra[:, None], cols] ^ words_b[rb[:, None], cols]
            partial += np.bitwise_count(xor).sum(axis=1).astype(np.int64)
            keep = partial <= th
            n_kept = int(np.count_nonzero(keep))
            rejected[tier] += partial.size - n_kept
            if n_kept < partial.size:
                ra, rb, partial = ra[keep], rb[keep], partial[keep]
                if per_pair:
                    th = th[keep]
            previous = width
            if not partial.size:
                break
        if not partial.size:
            continue
        n_exact += partial.size
        rest = order[previous:]
        if rest.size:
            cols = rest[None, :]
            xor = words_a[ra[:, None], cols] ^ words_b[rb[:, None], cols]
            partial = partial + np.bitwise_count(xor).sum(axis=1).astype(np.int64)
        keep = partial <= th
        parts_a.append(ra[keep])
        parts_b.append(rb[keep])
        parts_d.append(partial[keep])
    for tier, count in enumerate(rejected, start=1):
        _bump(counters, f"pairs_rejected_t{tier}", float(count))
    _bump(counters, "pairs_exact", float(n_exact))
    if not parts_a:
        return _EMPTY, _EMPTY, _EMPTY
    return np.concatenate(parts_a), np.concatenate(parts_b), np.concatenate(parts_d)


def verify_pairs_topk(
    words_a: np.ndarray,
    rows_a: np.ndarray,
    words_b: np.ndarray,
    rows_b: np.ndarray,
    threshold: int,
    top_k: int,
    config: VerifyConfig,
    counters: dict[str, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k-aware prefiltered verification, grouped by ``rows_b``.

    ``rows_b`` is the query index of each candidate (the grouping key);
    the returned ``(kept_a, kept_b, distances)`` contains every pair with
    exact distance ``<= threshold`` that *could* appear in its query's
    top-k — a superset of the final selection that the caller's ordinary
    top-k cut reduces to a byte-identical result.

    The rejection threshold per query is the **running k-th-distance
    bound**: the ``top_k`` candidates with the smallest tier-1 partial
    distances are verified exactly first, and the largest of those exact
    distances (an upper bound on the query's final k-th distance, once
    the query has more than ``top_k`` candidates) replaces the plain
    threshold for the rest.  Rejection stays provably safe: a discarded
    pair's exact distance is strictly greater than the bound, so at
    least ``top_k`` candidates beat it regardless of id tie-breaks.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    rows_a = np.asarray(rows_a, dtype=np.int64)
    rows_b = np.asarray(rows_b, dtype=np.int64)
    if rows_a.shape != rows_b.shape:
        raise ValueError(
            f"rows_a and rows_b must be parallel arrays, got "
            f"{rows_a.shape} vs {rows_b.shape}"
        )
    n_pairs = rows_a.size
    if n_pairs == 0:
        _bump(counters, "pairs_prefiltered", 0.0)
        return _EMPTY, _EMPTY, _EMPTY
    n_words = int(words_a.shape[-1])
    order = sketch_word_order(n_words, config.seed)
    widths = _tier_widths(config.tiers, n_words)
    tier1 = widths[0]

    partial = partial_hamming_rows(
        words_a, rows_a, words_b, rows_b, order[:tier1], config.block_rows
    )
    # Group candidates per query with the smallest partials first; ties
    # broken by record id so the seed set is deterministic.
    max_partial = 64 * tier1 + 1
    n_a = int(words_a.shape[0])
    composite = (rows_b * max_partial + partial) * n_a + rows_a
    grouping = np.argsort(composite, kind="stable")
    g_a, g_b, g_partial = rows_a[grouping], rows_b[grouping], partial[grouping]
    starts = np.flatnonzero(np.concatenate(([True], g_b[1:] != g_b[:-1])))
    counts = np.diff(starts, append=g_b.size)
    ranks = np.arange(g_b.size, dtype=np.int64) - np.repeat(starts, counts)
    is_seed = ranks < top_k

    # Exact distances for the seeds: accumulated tier-1 partial plus the
    # popcount of every remaining word.
    seed_exact = g_partial[is_seed] + partial_hamming_rows(
        words_a, g_a[is_seed], words_b, g_b[is_seed], order[tier1:], config.block_rows
    )
    # Per-query bound: queries with more than top_k candidates tighten
    # the threshold to the largest seed exact distance (the k-th smallest
    # of the seed set, which has exactly top_k members there).  Seeds are
    # contiguous at each sorted segment's head, so a reduceat per
    # seed-segment reads them off directly.
    seed_counts = np.minimum(counts, top_k)
    seed_starts = np.concatenate(([0], np.cumsum(seed_counts)[:-1]))
    seed_max = np.maximum.reduceat(seed_exact, seed_starts)
    bounds = np.where(counts > top_k, np.minimum(threshold, seed_max), threshold)

    rest_bound = np.repeat(bounds, counts)[~is_seed]
    rest_a, rest_b, rest_partial = g_a[~is_seed], g_b[~is_seed], g_partial[~is_seed]
    _bump(counters, "pairs_prefiltered", float(n_pairs))
    keep = rest_partial <= rest_bound
    _bump(counters, "pairs_rejected_t1", float(rest_partial.size - np.count_nonzero(keep)))
    rest_a, rest_b = rest_a[keep], rest_b[keep]
    rest_partial, rest_bound = rest_partial[keep], rest_bound[keep]

    # Later tiers + exact remainder for the survivors, against their
    # per-pair running bounds; tier-1 work is already accumulated.
    previous = tier1
    rejected: list[int] = []
    for width in widths[1:]:
        cols = order[previous:width]
        rest_partial = rest_partial + partial_hamming_rows(
            words_a, rest_a, words_b, rest_b, cols, config.block_rows
        )
        keep = rest_partial <= rest_bound
        rejected.append(int(rest_partial.size - np.count_nonzero(keep)))
        rest_a, rest_b = rest_a[keep], rest_b[keep]
        rest_partial, rest_bound = rest_partial[keep], rest_bound[keep]
        previous = width
    for tier, count in enumerate(rejected, start=2):
        _bump(counters, f"pairs_rejected_t{tier}", float(count))
    rest_exact = rest_partial + partial_hamming_rows(
        words_a, rest_a, words_b, rest_b, order[previous:], config.block_rows
    )
    _bump(counters, "pairs_exact", float(is_seed.sum() + rest_exact.size))

    keep_seed = seed_exact <= threshold
    keep_rest = rest_exact <= threshold
    kept_a = np.concatenate([g_a[is_seed][keep_seed], rest_a[keep_rest]])
    kept_b = np.concatenate([g_b[is_seed][keep_seed], rest_b[keep_rest]])
    kept_d = np.concatenate([seed_exact[keep_seed], rest_exact[keep_rest]])
    return kept_a, kept_b, kept_d
