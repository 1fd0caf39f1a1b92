"""Shared concrete stages used by more than one linker.

This module (like the whole ``repro.pipeline`` package) keeps its
module-level imports to numpy and the stdlib, so ``repro.core`` and
``repro.baselines`` may import it freely; the stages that need
:mod:`repro.core` or :mod:`repro.hamming` import it at run time.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any, Protocol

import numpy as np

from repro.pipeline.context import PipelineContext
from repro.pipeline.stage import (
    BlockStage,
    CalibrateStage,
    CandidateStage,
    ClassifyStage,
    EmbedStage,
    VerifyStage,
)


def _verify_chunk(
    words_a: np.ndarray,
    words_b: np.ndarray,
    chunk: tuple[np.ndarray, "np.ndarray | int"],
    threshold: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hamming-verify one candidate chunk against the threshold.

    The chunk is ``(rows_a, rows_b)`` or, as the blocker hands it over,
    ``(a * n_b + b, n_b)``; it is decoded, gathered, XORed, popcounted
    and filtered ``DEFAULT_BLOCK_ROWS`` pairs at a time, so no temporary
    is the size of the chunk.
    """
    # Runtime imports: repro.pipeline stays import-leaf (module docstring).
    from repro.hamming.distance import DEFAULT_BLOCK_ROWS
    from repro.hamming.lsh import decode_pairs

    first, second = chunk
    kept = [(_EMPTY_ROWS[0],) * 3]  # a chunk of no pairs still concatenates
    for lo in range(0, first.size, DEFAULT_BLOCK_ROWS):
        hi = lo + DEFAULT_BLOCK_ROWS
        if isinstance(second, int):
            rows_a, rows_b = decode_pairs(first[lo:hi], second)
        else:
            rows_a, rows_b = first[lo:hi], second[lo:hi]
        xor = words_a.take(rows_a, 0) ^ words_b.take(rows_b, 0)
        dist = np.bitwise_count(xor).sum(axis=1, dtype=np.int64)
        keep = np.flatnonzero(dist <= threshold)
        kept.append((rows_a[keep], rows_b[keep], dist[keep]))
    out_a, out_b, dist = map(np.concatenate, zip(*kept))
    return out_a, out_b, dist


def _packed_words(embedded: Any) -> np.ndarray:
    """Packed uint64 words of an embedding (BitMatrix or raw array)."""
    words = getattr(embedded, "words", None)
    if words is not None:
        return np.asarray(words)
    return np.asarray(embedded)


_EMPTY_ROWS = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _candidate_arrays(ctx: PipelineContext) -> tuple[np.ndarray, np.ndarray]:
    """The materialised candidate arrays (empty when a stage set none)."""
    if ctx.cand_a is None or ctx.cand_b is None:
        return _EMPTY_ROWS
    return ctx.cand_a, ctx.cand_b


class SupportsCalibration(Protocol):
    """A linker owning a lazily calibrated encoder (cBV-HB style)."""

    encoder: Any

    def calibrate(self, *datasets: Any, rows: Any = None) -> Any: ...


class EncoderCalibrateStage(CalibrateStage):
    """Run the owner's ``calibrate()`` unless an encoder is already set.

    Mirrors ``CompactHammingLinker``'s lazy calibration: a pre-calibrated
    (or externally supplied) encoder short-circuits the stage, so shared
    calibration across ``link_multiple`` keeps working.
    """

    def __init__(self, owner: SupportsCalibration):
        self.owner = owner

    def run(self, ctx: PipelineContext) -> None:
        if self.owner.encoder is None:
            self.owner.calibrate(ctx.dataset_a, ctx.dataset_b, rows=(ctx.rows_a, ctx.rows_b))
        ctx.encoder = self.owner.encoder


class LoadSnapshotStage(CalibrateStage):
    """Attach a persisted index snapshot instead of calibrating + indexing A.

    Loads the bundle (zero-copy by default) and publishes its encoder,
    packed A-side matrix and fully indexed blocker, so the rest of the
    pipeline — candidate generation, verification — runs unchanged
    against data that was never re-hashed or re-sorted.  Replaces the
    calibrate stage (the snapshot *is* the calibration) and charges its
    wall-clock to the ``"index"`` timing key, where index construction
    is accounted.

    Either bundle layout loads through ``ShardedIndex.open(...).merged()``:
    a plain bundle's snapshot as is, a sharded bundle's query view —
    every shard's records, write-ahead ingest overlay included, indexed
    as one in global-id order — byte-identical to a single-bundle index
    over the same records.  The shard count / replayed-record count land
    in the run counters.
    """

    timing = "index"

    def __init__(self, path: Any, mmap_mode: str | None = "r"):
        self.path = path
        self.mmap_mode = mmap_mode

    def run(self, ctx: PipelineContext) -> None:
        # Runtime import: repro.pipeline stays import-leaf so repro.core
        # can depend on it (see the module docstring).
        from repro.core.shards import ShardedIndex

        with ShardedIndex.open(self.path, mmap_mode=self.mmap_mode) as index:
            snapshot = index.merged()
            ctx.counters["snapshot_shards"] = float(index.n_shards)
            ctx.counters["wal_replayed_records"] = index.counters.get(
                "wal_replayed_records", 0.0
            )
        ctx.encoder = snapshot.encoder
        ctx.embedded_a = snapshot.matrix
        ctx.blocker = snapshot.lsh
        ctx.extras["snapshot"] = snapshot


class QueryEmbedStage(EmbedStage):
    """Embed only dataset B — A's embedding came from a loaded snapshot.

    The serving-side counterpart of :class:`CVectorEmbedStage`: the same
    interned ``encode_dataset`` hot path and intern counters, applied to
    the query stream alone.
    """

    def run(self, ctx: PipelineContext) -> None:
        stats: dict[str, float] = {}
        ctx.embedded_b = ctx.encoder.encode_dataset(ctx.rows_b, stats=stats)
        values = stats.get("intern_values", 0.0)
        unique = stats.get("intern_unique", 0.0)
        ctx.counters["intern_values"] = values
        ctx.counters["intern_unique"] = unique
        ctx.counters["intern_hit_rate"] = 1.0 - unique / values if values else 0.0


class CVectorEmbedStage(EmbedStage):
    """Interned c-vector embedding of both datasets, with intern counters.

    Uses the hot-path engine of ``RecordEncoder.encode_dataset``: unique
    values are encoded once and gathered, and the intern statistics land
    in the run counters (``intern_values`` / ``intern_unique`` /
    ``intern_hit_rate``).
    """

    def run(self, ctx: PipelineContext) -> None:
        stats_a: dict[str, float] = {}
        stats_b: dict[str, float] = {}
        ctx.embedded_a = ctx.encoder.encode_dataset(ctx.rows_a, stats=stats_a)
        ctx.embedded_b = ctx.encoder.encode_dataset(ctx.rows_b, stats=stats_b)
        values = stats_a.get("intern_values", 0.0) + stats_b.get("intern_values", 0.0)
        unique = stats_a.get("intern_unique", 0.0) + stats_b.get("intern_unique", 0.0)
        ctx.counters["intern_values"] = values
        ctx.counters["intern_unique"] = unique
        ctx.counters["intern_hit_rate"] = 1.0 - unique / values if values else 0.0


class SampledCalibrationEmbedStage(EmbedStage):
    """Calibrate a ``RecordEncoder`` on a sample of A and embed both sides.

    The classic-baseline embedding (canopy, sorted neighborhood, the
    exhaustive reference): fit c-vector encoders on up to ``sample_size``
    rows of dataset A, then encode both datasets.
    """

    def __init__(
        self, scheme: Any = None, seed: int | None = None, sample_size: int = 1000
    ):
        self.scheme = scheme
        self.seed = seed
        self.sample_size = sample_size

    def run(self, ctx: PipelineContext) -> None:
        # Runtime import: repro.pipeline stays import-leaf so repro.core
        # can depend on it (see the module docstring).
        from repro.core.encoder import RecordEncoder

        sample = ctx.rows_a[: min(len(ctx.rows_a), self.sample_size)]
        encoder = RecordEncoder.calibrated(sample, scheme=self.scheme, seed=self.seed)
        ctx.encoder = encoder
        ctx.embedded_a = encoder.encode_dataset(ctx.rows_a)
        ctx.embedded_b = encoder.encode_dataset(ctx.rows_b)


class BlockerIndexStage(BlockStage):
    """Build a blocking structure via ``factory(ctx)`` and index dataset A.

    Works for any blocker exposing ``index(embedded_a)`` — ``HammingLSH``,
    ``RuleAwareBlocker``, ``EuclideanLSH``; swapping the blocking backend
    of a pipeline is swapping this one stage.
    """

    def __init__(self, factory: Callable[[PipelineContext], Any]):
        self.factory = factory

    def run(self, ctx: PipelineContext) -> None:
        ctx.blocker = self.factory(ctx)
        ctx.blocker.index(ctx.embedded_a)


class ChunkedCandidateStage(CandidateStage):
    """Stream memory-bounded candidate chunks from the blocker.

    Materialises the blocker's ``encoded_chunks`` generator (each chunk
    respects the blocker's ``max_chunk_pairs`` budget), which also flushes
    the generation counters (pairs generated / unique / duplicates, chunk
    stats) into the run counters.  The chunks stay encoded, for the
    verify stage to decode a block at a time.
    """

    def run(self, ctx: PipelineContext) -> None:
        n_b = len(ctx.rows_b)
        encoded = ctx.blocker.encoded_chunks(ctx.embedded_b, counters=ctx.counters)
        ctx.candidate_chunks = [(chunk, n_b) for chunk in encoded]
        ctx.n_candidates = sum(int(chunk.size) for chunk, __ in ctx.candidate_chunks)


class MaterializedCandidateStage(CandidateStage):
    """De-duplicated candidate pair arrays via ``blocker.candidate_pairs``."""

    def run(self, ctx: PipelineContext) -> None:
        cand_a, cand_b = ctx.blocker.candidate_pairs(ctx.embedded_b)
        ctx.cand_a, ctx.cand_b = cand_a, cand_b
        ctx.n_candidates = int(cand_a.size)


class ThresholdVerifyStage(VerifyStage):
    """Hamming-verify candidates against a record-level threshold.

    Consumes ``ctx.candidate_chunks`` when a chunked candidate stage ran,
    otherwise the materialised ``cand_a`` / ``cand_b`` arrays as one
    chunk.  Each chunk is verified in blocks by :func:`_verify_chunk`
    and the parts are concatenated in chunk order.

    ``sort_pairs=True`` restores the historical cBV-HB order (sorted by
    encoded pair id ``a * n_B + b``); the classic baselines keep their
    natural candidate order.
    """

    def __init__(self, threshold: int, sort_pairs: bool = False):
        self.threshold = threshold
        self.sort_pairs = sort_pairs

    def run(self, ctx: PipelineContext) -> None:
        chunks = ctx.candidate_chunks
        if chunks is None:
            chunks = [_candidate_arrays(ctx)]
        n_pairs = sum(int(chunk_a.size) for chunk_a, __ in chunks)
        ctx.counters["pairs_verified"] = float(n_pairs)
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            ctx.out_a, ctx.out_b, ctx.record_distances = empty, empty, empty
            return
        words_a = _packed_words(ctx.embedded_a)
        words_b = _packed_words(ctx.embedded_b)
        parts = [_verify_chunk(words_a, words_b, chunk, self.threshold) for chunk in chunks]
        out_a, out_b, dist = map(np.concatenate, zip(*parts))
        if self.sort_pairs:
            order = np.argsort(out_a * len(ctx.rows_b) + out_b, kind="stable")
            out_a, out_b, dist = out_a[order], out_b[order], dist[order]
        ctx.out_a, ctx.out_b, ctx.record_distances = out_a, out_b, dist


class RuleClassifyStage(ClassifyStage):
    """Apply a rule AST to the candidates, measuring only what it still needs.

    The cBV-HB rule-aware matching step (Section 5.4), delegated to
    :func:`repro.rules.classify.classify_pairs`: the rule is walked lazily
    over the candidates and the full per-attribute distances are computed
    for the accepted pairs only.  ``classify_distance_rows`` lands in the
    run counters.
    """

    def __init__(self, rule: Any):
        self.rule = rule

    def run(self, ctx: PipelineContext) -> None:
        # Runtime import: repro.pipeline stays import-leaf so repro.core
        # can depend on it (see the module docstring).
        from repro.rules.classify import classify_pairs

        cand_a, cand_b = _candidate_arrays(ctx)
        ctx.out_a, ctx.out_b, ctx.attribute_distances = classify_pairs(
            self.rule, ctx.encoder, ctx.embedded_a, cand_a, ctx.embedded_b, cand_b,
            counters=ctx.counters,
        )


class AttributeThresholdClassifyStage(ClassifyStage):
    """Accept candidates whose per-attribute distances all clear thresholds.

    The BfH / SM-EB matching step: ``distances(ctx)`` computes every
    attribute's distance array over the candidates; attributes present in
    ``thresholds`` constrain acceptance, the rest are reported only.
    """

    def __init__(
        self,
        thresholds: Mapping[str, float],
        distances: Callable[[PipelineContext], dict[str, np.ndarray]],
    ):
        self.thresholds = dict(thresholds)
        self.distances = distances

    def run(self, ctx: PipelineContext) -> None:
        cand_a, cand_b = _candidate_arrays(ctx)
        if not cand_a.size:
            ctx.out_a, ctx.out_b = cand_a, cand_b
            ctx.attribute_distances = {}
            return
        distances = self.distances(ctx)
        accepted = np.ones(cand_a.size, dtype=bool)
        for attribute, threshold in self.thresholds.items():
            accepted &= distances[attribute] <= threshold
        ctx.out_a, ctx.out_b = cand_a[accepted], cand_b[accepted]
        ctx.attribute_distances = {name: d[accepted] for name, d in distances.items()}
