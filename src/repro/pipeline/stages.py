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


class MaterializedCandidateStage(CandidateStage):
    """De-duplicated candidate pair arrays via ``blocker.candidate_pairs``."""

    def run(self, ctx: PipelineContext) -> None:
        cand_a, cand_b = ctx.blocker.candidate_pairs(ctx.embedded_b)
        ctx.cand_a, ctx.cand_b = cand_a, cand_b
        ctx.n_candidates = int(cand_a.size)


class ThresholdVerifyStage(VerifyStage):
    """Hamming-verify materialised candidates against a record-level threshold.

    The classic baselines' verify step: ``cand_a`` / ``cand_b`` are
    verified in blocks by :func:`repro.hamming.distance.verify_pairs`
    and keep their natural candidate order.
    """

    def __init__(self, threshold: int):
        self.threshold = threshold

    def run(self, ctx: PipelineContext) -> None:
        # Runtime import: repro.pipeline stays import-leaf (module docstring).
        from repro.hamming.distance import verify_pairs

        cand_a, cand_b = _candidate_arrays(ctx)
        ctx.counters["pairs_verified"] = float(cand_a.size)
        words_a, words_b = _packed_words(ctx.embedded_a), _packed_words(ctx.embedded_b)
        ctx.out_a, ctx.out_b, ctx.record_distances = verify_pairs(
            words_a, words_b, (cand_a, cand_b), self.threshold
        )


class ThresholdMatchStage(VerifyStage):
    """Algorithm 2 in one call: ``blocker.match`` of B against the indexed A.

    Candidate generation and verification are one kernel
    (:meth:`repro.hamming.lsh.HammingLSH.match`); its counters land in the
    run counters and the matches come out in ``a * n_B + b`` order.
    ``n_candidates`` is the de-duplicated candidate count.
    """

    def __init__(self, threshold: int):
        self.threshold = threshold

    def run(self, ctx: PipelineContext) -> None:
        ctx.out_a, ctx.out_b, ctx.record_distances = ctx.blocker.match(
            ctx.embedded_a, ctx.embedded_b, self.threshold, counters=ctx.counters
        )
        ctx.n_candidates = int(ctx.counters["pairs_unique"])


class RuleMatchStage(ClassifyStage):
    """The rule-aware Algorithm 2 in one call: ``blocker.match`` of B.

    The cBV-HB rule-aware matching step (Section 5.4), delegated to
    :meth:`repro.rules.blocking.RuleAwareBlocker.match`: the plan and the
    lazy rule run over bounded row blocks of B, so no candidate-sized
    array exists.  Its counters land in the run counters
    (``classify_distance_rows`` among them); ``n_candidates`` is the
    formulated-pair count.
    """

    def run(self, ctx: PipelineContext) -> None:
        ctx.out_a, ctx.out_b, ctx.attribute_distances = ctx.blocker.match(
            ctx.embedded_b, counters=ctx.counters
        )
        ctx.n_candidates = int(ctx.counters["pairs_unique"])


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
