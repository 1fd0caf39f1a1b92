"""Sharded index bundles with durable online ingest (WAL + compaction).

One snapshot bundle (:mod:`repro.core.persist`) equals one index; this
module scales that format out: a **sharded bundle** is a directory whose
root manifest describes ``N`` shards, each shard a complete single-index
bundle (mmap-able ``.npy`` payloads, loadable on its own with
:func:`~repro.core.persist.load_index_snapshot`) plus a ``row_ids.npy``
sidecar mapping the shard's local rows back to global record ids.
Records are hashed to shards by id (:func:`shard_of_id`, a fixed
splitmix64 mix), so the assignment is stable across processes and
versions.  A plain single-index bundle is the one-shard case:
:meth:`ShardedIndex.open` — the only place that reads a bundle's kind —
attaches it as one read-only shard whose local rows *are* the global
ids (no ``row_ids.npy``, no WAL), so every consumer serves either
layout through the same object.

Layout::

    bundle/
      manifest.json            # root: kind="sharded", version, shard dirs
      encoder.json             # the shared calibrated encoder
      shards/s00000-v000001/   # shard 0 at compaction version 1:
        manifest.json ... *.npy  a full single-index bundle
        row_ids.npy              local row -> global record id
      wal/s00000.wal           # shard 0's append-only ingest log

**Durable ingest.**  :meth:`ShardedIndex.append_batch` frames each
record (canonical JSON ``{"id", "values"}``) into the owning shard's
write-ahead segment (:mod:`repro.wal`), fsyncs, and only then applies
the insert in memory — a record is acknowledged only once it is
durable.  :meth:`ShardedIndex.open` replays the segments (stopping at a
torn tail, which it truncates), so a process killed mid-ingest recovers
to exactly the acknowledged state.

**Compaction.**  :meth:`ShardedIndex.compact` folds the replayed /
ingested overlay of every shard into new shard bundle directories at
``version + 1``, publishes them with an atomic root-manifest swap
(temp file + ``os.replace``), then deletes the old directories and WAL
segments.  A crash at any point leaves a root manifest that points at
one complete generation; orphaned directories from an interrupted
compaction are swept on the next one.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.config import DEFAULT_DELTA, DEFAULT_K
from repro.core.encoder import RecordEncoder
from repro.core.persist import (
    ENCODER_NAME,
    MANIFEST_NAME,
    IndexSnapshot,
    SnapshotError,
    _dict_fingerprint,
    _fsync_dir,
    encoder_fingerprint,
    encoder_from_dict,
    encoder_to_dict,
    fsync_file,
    load_index_snapshot,
    save_index_snapshot,
    write_dir_atomic,
)
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.lsh import HammingLSH
from repro.wal import SegmentWriter, replay_segment, truncate_segment

#: Version of the sharded root-manifest layout.
SHARDED_FORMAT_VERSION = 1

#: ``kind`` discriminator in the root manifest.
SHARDED_KIND = "sharded"

#: Per-shard sidecar mapping local rows to global record ids.
ROW_IDS_NAME = "row_ids.npy"

_MASK64 = (1 << 64) - 1
_MIX_ADD = 0x9E3779B97F4A7C15
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB


def shard_of_id(record_id: int, n_shards: int) -> int:
    """The shard owning ``record_id`` (splitmix64 mix, mod ``n_shards``).

    The mix constants are fixed, so the record-to-shard assignment is a
    format property: stable across processes, compactions and builds.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if record_id < 0:
        raise ValueError(f"record_id must be >= 0, got {record_id}")
    if n_shards == 1:
        return 0
    z = (record_id + _MIX_ADD) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL2) & _MASK64
    z ^= z >> 31
    return int(z % n_shards)


def shards_of_ids(record_ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Vectorised :func:`shard_of_id` over an id array (int64 out)."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    ids = np.asarray(record_ids, dtype=np.int64)
    if n_shards == 1:
        return np.zeros(ids.shape, dtype=np.int64)
    z = ids.astype(np.uint64) + np.uint64(_MIX_ADD)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_MUL1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_MUL2)
    z = z ^ (z >> np.uint64(31))
    return (z % np.uint64(n_shards)).astype(np.int64)


def shard_dirname(shard: int, version: int) -> str:
    """Relative directory of one shard at one compaction version."""
    return f"shards/s{shard:05d}-v{version:06d}"


def wal_name(shard: int) -> str:
    """Relative path of one shard's write-ahead segment."""
    return f"wal/s{shard:05d}.wal"


class PlainBundleError(ValueError):
    """Ingest or compaction was asked of a plain (single-index) bundle.

    A plain bundle has no write-ahead log, so a record appended to it
    could be acknowledged without being durable; it is served read-only.
    """

    def __init__(self, path: Path | None, consequence: str):
        where = "this in-memory index" if path is None else str(path)
        super().__init__(f"{where} is not a sharded bundle; {consequence}")


def _is_sharded_bundle(path: str | Path) -> bool:
    """True when ``path`` holds a sharded root manifest (kind discriminator)."""
    manifest_file = Path(path) / MANIFEST_NAME
    if not manifest_file.is_file():
        return False
    try:
        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, OSError):
        return False
    return isinstance(manifest, dict) and manifest.get("kind") == SHARDED_KIND


def load_shard(
    path: str | Path, mmap_mode: str | None = "r"
) -> tuple[IndexSnapshot, np.ndarray]:
    """Load one shard directory: its snapshot plus the row-id mapping.

    A shard is a complete single-index bundle, so the snapshot loads via
    :func:`~repro.core.persist.load_index_snapshot`; the ``row_ids.npy``
    sidecar must be a 1-D int64 array with one entry per indexed row.
    """
    shard_dir = Path(path)
    snapshot = load_index_snapshot(shard_dir, mmap_mode=mmap_mode)
    row_file = shard_dir / ROW_IDS_NAME
    if not row_file.is_file():
        raise SnapshotError(f"shard row-id sidecar missing at {row_file}")
    try:
        row_ids = np.load(row_file, mmap_mode=mmap_mode, allow_pickle=False)
    except (ValueError, OSError) as exc:
        raise SnapshotError(f"shard row-id sidecar unreadable: {exc}") from exc
    if row_ids.ndim != 1 or str(row_ids.dtype) != "int64":
        raise SnapshotError(
            f"shard row-id sidecar is {row_ids.dtype}{row_ids.shape}, "
            "expected 1-D int64"
        )
    if int(row_ids.size) != snapshot.n_rows:
        raise SnapshotError(
            f"shard row-id sidecar has {row_ids.size} entries for "
            f"{snapshot.n_rows} indexed rows — stale shard bundle"
        )
    if row_ids.size > 1 and not bool(np.all(np.diff(row_ids) > 0)):
        # Local row order must follow global-id order: per-shard top-k
        # tie-breaks (smaller local id wins) only agree with the global
        # (distance, id) rule under this invariant, which every build /
        # ingest / compaction path preserves.
        raise SnapshotError(
            "shard row ids are not strictly increasing — corrupt or "
            "hand-edited shard bundle"
        )
    return snapshot, row_ids


@dataclass
class _ShardState:
    """One shard's serving state: persisted base plus in-memory overlay.

    ``words`` / ``row_ids`` start as the shard bundle's (typically
    memory-mapped) arrays and copy-on-grow at the first append; rows
    ``base_rows..count`` are the overlay — ingested or WAL-replayed
    records not yet folded into a shard bundle by compaction.
    ``row_ids`` is ``None`` for the one shard of a plain bundle, whose
    local rows are the global ids.
    """

    lsh: HammingLSH
    words: np.ndarray
    row_ids: np.ndarray | None
    count: int
    base_rows: int
    dirname: str | None = None

    @property
    def overlay_rows(self) -> int:
        return self.count - self.base_rows

    def global_ids(self, local: np.ndarray) -> np.ndarray:
        """Global record ids of ``local`` rows (themselves, in a plain shard)."""
        if self.row_ids is None:
            return local
        return np.asarray(self.row_ids[: self.count][local], dtype=np.int64)


class ShardedIndex:
    """An ``N``-shard HB index with durable online ingest.

    Construct with :meth:`build` (partition and index rows in memory),
    then :meth:`save` to persist, or :meth:`open` to attach a persisted
    bundle of either layout (payloads memory-mapped, WAL replayed).  The
    serving layer on top is :class:`repro.serve.QueryEngine`.
    """

    def __init__(
        self,
        encoder: RecordEncoder,
        shards: list[_ShardState],
        threshold: int,
        next_id: int,
        path: Path | None = None,
        version: int = 0,
        manifest: dict[str, Any] | None = None,
        mmap_mode: str | None = "r",
    ):
        if not shards:
            raise ValueError("a sharded index needs at least one shard")
        self.encoder = encoder
        self.shards = shards
        self.threshold = threshold
        self.next_id = next_id
        self.path = path
        self.version = version
        self.manifest = manifest or {}
        self._mmap_mode = mmap_mode
        #: The snapshot a plain (read-only, one-shard) index serves.
        self._plain: IndexSnapshot | None = None
        self._writers: dict[int, SegmentWriter] = {}
        #: Recovery / ingest counters (``wal_replayed_records``,
        #: ``wal_torn_bytes``, ``records_appended``).
        self.counters: dict[str, float] = {}

    # -- introspection -----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_rows(self) -> int:
        """Total indexed records across shards (including the overlay)."""
        return sum(state.count for state in self.shards)

    @property
    def overlay_rows(self) -> int:
        """Ingested / replayed records not yet compacted into shard bundles."""
        return sum(state.overlay_rows for state in self.shards)

    @property
    def n_bits(self) -> int:
        return self.encoder.total_bits

    def shard_rows(self) -> list[int]:
        """Per-shard record counts (diagnostics / stats)."""
        return [state.count for state in self.shards]

    # -- constructors ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        rows: list[tuple[str, ...]],
        encoder: RecordEncoder,
        n_shards: int | None,
        threshold: int,
        k: int = DEFAULT_K,
        delta: float = DEFAULT_DELTA,
        n_tables: int | None = None,
        seed: int | None = None,
        max_chunk_pairs: int | None = None,
    ) -> "ShardedIndex":
        """Partition ``rows`` across ``n_shards`` and index every shard.

        Global record ids are the row indices; each shard gets its own
        :class:`~repro.hamming.lsh.HammingLSH` built from the **same**
        ``(k, threshold, delta, seed)``, so all shards sample identical
        bit positions — a record's candidacy for a query depends only on
        its own blocking keys, which is what makes sharded results
        byte-identical to a single index over the same rows.
        ``n_shards=None`` indexes the rows whole as a plain index
        (:meth:`single`), which saves the single-bundle layout.
        """
        if n_shards is not None and n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")

        def indexed(part: BitMatrix) -> HammingLSH:
            lsh = HammingLSH(
                n_bits=encoder.total_bits,
                k=k,
                threshold=threshold,
                delta=delta,
                n_tables=n_tables,
                seed=seed,
                max_chunk_pairs=max_chunk_pairs,
            )
            lsh.index(part)
            return lsh

        matrix = encoder.encode_dataset(rows)
        if n_shards is None:
            return cls.single(
                IndexSnapshot(
                    encoder=encoder, matrix=matrix, lsh=indexed(matrix), threshold=threshold
                )
            )
        ids = np.arange(len(rows), dtype=np.int64)
        assignment = shards_of_ids(ids, n_shards)
        shards: list[_ShardState] = []
        for shard in range(n_shards):
            row_ids = ids[assignment == shard]
            shard_matrix = BitMatrix(
                matrix.words[row_ids], encoder.total_bits
            )
            lsh = indexed(shard_matrix)
            shards.append(
                _ShardState(
                    lsh=lsh,
                    words=shard_matrix.words,
                    row_ids=row_ids,
                    count=int(row_ids.size),
                    base_rows=int(row_ids.size),
                )
            )
        return cls(
            encoder=encoder,
            shards=shards,
            threshold=threshold,
            next_id=len(rows),
        )

    @classmethod
    def single(cls, snapshot: IndexSnapshot) -> "ShardedIndex":
        """Serve one snapshot as a plain index: one read-only shard.

        Local rows are the global ids, so nothing is copied or mapped
        beyond the snapshot itself; :meth:`merged` hands it back as is,
        :meth:`save` writes the single-bundle layout, and
        :meth:`append_batch` / :meth:`compact` raise
        :class:`PlainBundleError`.
        """
        if snapshot.threshold is None:
            raise ValueError(
                "snapshot records no matching threshold; rebuild it with one"
            )
        shard = _ShardState(
            lsh=snapshot.lsh,
            words=snapshot.matrix.words,
            row_ids=None,
            count=snapshot.n_rows,
            base_rows=snapshot.n_rows,
        )
        index = cls(
            encoder=snapshot.encoder,
            shards=[shard],
            threshold=snapshot.threshold,
            next_id=snapshot.n_rows,
            path=snapshot.path,
            manifest=snapshot.manifest,
        )
        index._plain = snapshot
        return index

    @classmethod
    def open(cls, path: str | Path, mmap_mode: str | None = "r") -> "ShardedIndex":
        """Attach a persisted bundle of either layout.

        A sharded bundle has every shard's payloads memory-mapped
        (default ``mmap_mode``) and its WAL segments replayed:
        write-ahead records land in the in-memory overlay exactly as
        they were acknowledged and a torn segment tail is truncated to
        the durable prefix.  A plain single-index bundle is attached as
        :meth:`single` over the loaded snapshot.  Any structural problem
        raises :class:`~repro.core.persist.SnapshotError`.
        """
        root = Path(path)
        if not _is_sharded_bundle(root):
            return cls.single(load_index_snapshot(root, mmap_mode=mmap_mode))
        manifest = _read_root_manifest(root)
        encoder = _read_root_encoder(root, manifest)
        threshold = int(manifest["threshold"])
        specs = manifest["shards"]
        shards: list[_ShardState] = []
        reference: tuple[tuple[int, ...], ...] | None = None
        for shard, spec in enumerate(specs):
            snapshot, row_ids = load_shard(root / spec["dir"], mmap_mode=mmap_mode)
            if snapshot.n_rows != int(spec["n_rows"]):
                raise SnapshotError(
                    f"shard {shard} holds {snapshot.n_rows} rows but the root "
                    f"manifest promises {spec['n_rows']} — stale shard manifest"
                )
            if encoder_fingerprint(snapshot.encoder) != manifest["encoder_sha256"]:
                raise SnapshotError(
                    f"shard {shard} was built with a different encoder than "
                    "the sharded root records"
                )
            positions = tuple(g.composite.positions for g in snapshot.lsh.groups)
            if reference is None:
                reference = positions
            elif positions != reference:
                raise SnapshotError(
                    f"shard {shard} samples different blocking positions than "
                    "shard 0 — shards of one bundle must share one LSH"
                )
            shards.append(
                _ShardState(
                    lsh=snapshot.lsh,
                    words=snapshot.matrix.words,
                    row_ids=row_ids,
                    count=snapshot.n_rows,
                    base_rows=snapshot.n_rows,
                    dirname=str(spec["dir"]),
                )
            )
        index = cls(
            encoder=encoder,
            shards=shards,
            threshold=threshold,
            next_id=int(manifest["next_id"]),
            path=root,
            version=int(manifest["version"]),
            manifest=manifest,
            mmap_mode=mmap_mode,
        )
        index._replay_wal()
        return index

    # -- persistence -------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Persist the index as a sharded bundle (atomic whole-directory).

        Every shard — including any in-memory overlay, which is folded
        by the shard save — is written as a complete single-index bundle
        under a temp root, the root manifest last; the temp root is then
        renamed into place.  The index re-attaches to the persisted
        bundle (payloads memory-mapped, overlay empty).  A plain index
        writes the single-bundle layout of
        :func:`~repro.core.persist.save_index_snapshot` instead and
        keeps serving its in-memory arrays.
        """
        if self._plain is not None:
            plain = self._plain
            out = save_index_snapshot(
                path, plain.encoder, plain.matrix, plain.lsh, threshold=plain.threshold
            )
            self.path = out
            self._plain = replace(plain, path=out)
            return out
        version = max(1, self.version + 1)

        def _write(tmp: Path) -> None:
            specs = []
            for shard, state in enumerate(self.shards):
                specs.append(self._write_shard(tmp, shard, state, version))
            (tmp / "wal").mkdir(exist_ok=True)
            (tmp / ENCODER_NAME).write_text(
                json.dumps(encoder_to_dict(self.encoder), indent=2),
                encoding="utf-8",
            )
            fsync_file(tmp / ENCODER_NAME)
            manifest = self._root_manifest(version, specs)
            (tmp / MANIFEST_NAME).write_text(
                json.dumps(manifest, indent=2), encoding="utf-8"
            )
            fsync_file(tmp / MANIFEST_NAME)

        out = write_dir_atomic(path, _write)
        self._attach(out)
        return out

    def compact(self) -> int:
        """Fold the WAL overlay into new shard bundles at ``version + 1``.

        Writes every shard's current state (persisted base + overlay) as
        a fresh bundle directory, atomically swaps the root manifest to
        the new generation (temp file + ``os.replace``), then removes
        the superseded shard directories and WAL segments.  A crash
        before the swap leaves the old generation authoritative; a crash
        after it leaves only orphaned old directories, swept by the next
        compaction.  Returns the new version.
        """
        if self._plain is not None:
            raise PlainBundleError(self.path, "nothing to compact")
        if self.path is None:
            raise ValueError(
                "compact() needs a persisted sharded bundle; call save() first"
            )
        root = self.path
        version = self.version + 1
        specs = [
            self._write_shard(root, shard, state, version)
            for shard, state in enumerate(self.shards)
        ]
        manifest = self._root_manifest(version, specs)
        _swap_root_manifest(root, manifest)
        self.close()
        for state in self.shards:
            if state.dirname is not None:
                shutil.rmtree(root / state.dirname, ignore_errors=True)
        for shard in range(self.n_shards):
            (root / wal_name(shard)).unlink(missing_ok=True)
        _sweep_orphans(root, {str(spec["dir"]) for spec in specs})
        self.version = version
        self.manifest = manifest
        self._reload_shards(specs)
        return version

    def close(self) -> None:
        """Close any open write-ahead segment writers (idempotent)."""
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- ingest ------------------------------------------------------------------

    def append(self, values: tuple[str, ...]) -> int:
        """Durably ingest one record; returns its global id."""
        return self.append_batch([values])[0]

    def append_batch(self, rows: list[tuple[str, ...]]) -> list[int]:
        """Durably ingest a batch; global ids are assigned sequentially.

        For a persisted index every record is CRC-framed into its owning
        shard's write-ahead segment and the touched segments are fsync'd
        **before** the in-memory inserts happen — by the time this
        returns (the acknowledgement), a crash at any earlier point
        replays to a prefix of these records and a crash after it
        replays all of them.  An in-memory index (never saved) skips the
        WAL and simply inserts.
        """
        if self._plain is not None:
            raise PlainBundleError(
                self.path,
                "online ingest needs one (build with: repro index build ... --shards N)",
            )
        if not rows:
            return []
        matrix = self.encoder.encode_dataset(rows)
        gids = np.arange(self.next_id, self.next_id + len(rows), dtype=np.int64)
        owners = shards_of_ids(gids, self.n_shards)
        if self.path is not None:
            for gid, shard, row in zip(gids.tolist(), owners.tolist(), rows):
                self._writer(shard).append(_wal_payload(gid, row), sync=False)
            for shard in np.unique(owners).tolist():
                self._writers[shard].sync()
        self._append_rows(matrix.words, gids, owners)
        self.next_id += len(rows)
        self.counters["records_appended"] = (
            self.counters.get("records_appended", 0.0) + len(rows)
        )
        return gids.tolist()

    # -- merged view -------------------------------------------------------------

    def merged(self) -> IndexSnapshot:
        """One logical :class:`IndexSnapshot` over all shards, in global order.

        Reassembles the packed words into global-id row order and merges
        every blocking group's sorted arrays (stable two-key ordering:
        bucket key, then global id) — byte-identical to the index a
        single-shard build over the same rows would produce.  Used by
        the pipeline's ``LoadSnapshotStage`` and
        ``StreamingLinker.load_snapshot`` so offline linkage runs
        unchanged against sharded bundles.  A plain index returns the
        snapshot it serves, zero-copy.
        """
        if self._plain is not None:
            return self._plain
        total = self.n_rows
        if total != self.next_id:
            raise SnapshotError(
                f"sharded bundle holds {total} rows but ids run to "
                f"{self.next_id} — global ids must be dense"
            )
        n_words = (self.n_bits + 63) // 64
        words = np.empty((total, n_words), dtype=np.uint64)
        for state in self.shards:
            words[state.global_ids(np.arange(state.count))] = state.words[: state.count]
        reference = self.shards[0].lsh
        merged = HammingLSH.from_state(
            n_bits=self.n_bits,
            k=reference.k,
            positions=[g.composite.positions for g in reference.groups],
            threshold=self.threshold,
            delta=reference.delta,
            max_chunk_pairs=reference.max_chunk_pairs,
        )
        runs = [state.lsh.export() for state in self.shards]
        key_parts: list[np.ndarray] = []
        gid_parts: list[np.ndarray] = []
        for table in range(merged.n_tables):
            spans = [slice(run.offsets[table], run.offsets[table + 1]) for run in runs]
            keys = np.concatenate([run.keys[span] for run, span in zip(runs, spans)])
            gids = np.concatenate(
                [
                    state.global_ids(run.ids[span])
                    for state, run, span in zip(self.shards, runs, spans)
                ]
            )
            by_gid = np.argsort(gids, kind="stable")
            by_key = by_gid[np.argsort(keys[by_gid], kind="stable")]
            key_parts.append(keys[by_key])
            gid_parts.append(gids[by_key])
        merged.adopt(
            np.concatenate(key_parts),
            np.concatenate(gid_parts),
            [table * total for table in range(merged.n_tables + 1)],
        )
        return IndexSnapshot(
            encoder=self.encoder,
            matrix=BitMatrix(words, self.n_bits),
            lsh=merged,
            threshold=self.threshold,
            path=self.path,
            manifest=self.manifest,
        )

    # -- internals ---------------------------------------------------------------

    def _writer(self, shard: int) -> SegmentWriter:
        writer = self._writers.get(shard)
        if writer is None:
            assert self.path is not None  # guarded by append_batch
            writer = SegmentWriter(self.path / wal_name(shard))
            self._writers[shard] = writer
        return writer

    def _append_rows(
        self, words: np.ndarray, gids: np.ndarray, owners: np.ndarray
    ) -> None:
        """Insert encoded records into their owning shards' in-memory overlays.

        Per touched shard: one slice copy into the copy-on-grow word /
        row-id stores and one :meth:`HammingLSH.insert_rows`.
        """
        for shard in np.unique(owners).tolist():
            state = self.shards[shard]
            mine = owners == shard
            stop = state.count + int(mine.sum())
            assert state.row_ids is not None  # a plain shard is never appended to
            state.words = _with_room(state.words, state.count, stop)
            state.row_ids = _with_room(state.row_ids, state.count, stop)
            state.words[state.count : stop] = words[mine]
            state.row_ids[state.count : stop] = gids[mine]
            state.lsh.insert_rows(
                BitMatrix(state.words[state.count : stop], self.n_bits),
                np.arange(state.count, stop, dtype=np.int64),
            )
            state.count = stop

    def _replay_wal(self) -> None:
        """Fold every shard's durable WAL records into the overlay.

        Every segment is parsed and checked before anything is inserted,
        so an unreadable record fails the open with the overlay empty;
        the surviving records are then encoded and inserted as one batch.
        """
        assert self.path is not None
        torn = 0
        gids: list[int] = []
        rows: list[tuple[str, ...]] = []
        for shard in range(self.n_shards):
            segment = self.path / wal_name(shard)
            result = replay_segment(segment)
            if not result.clean:
                truncate_segment(segment, result.durable_bytes)
                torn += result.torn_bytes
            for payload in result.records:
                gid, values = _parse_wal_payload(payload)
                if shard_of_id(gid, self.n_shards) != shard:
                    raise SnapshotError(
                        f"WAL segment for shard {shard} carries record "
                        f"{gid}, which hashes to shard "
                        f"{shard_of_id(gid, self.n_shards)}"
                    )
                gids.append(gid)
                rows.append(values)
        if rows:
            ids = np.asarray(gids, dtype=np.int64)
            words = self.encoder.encode_dataset(rows).words
            self._append_rows(words, ids, shards_of_ids(ids, self.n_shards))
            self.next_id = max(self.next_id, int(ids.max()) + 1)
        self.counters["wal_replayed_records"] = float(len(rows))
        self.counters["wal_torn_bytes"] = float(torn)

    def _write_shard(
        self, root: Path, shard: int, state: _ShardState, version: int
    ) -> dict[str, Any]:
        """Write one shard (base + overlay) as a bundle dir; return its spec."""
        dirname = shard_dirname(shard, version)
        matrix = BitMatrix(np.asarray(state.words[: state.count]), self.n_bits)
        save_index_snapshot(
            root / dirname, self.encoder, matrix, state.lsh, threshold=self.threshold
        )
        row_ids = state.global_ids(np.arange(state.count))
        np.save(root / dirname / ROW_IDS_NAME, row_ids, allow_pickle=False)
        fsync_file(root / dirname / ROW_IDS_NAME)
        return {"dir": dirname, "n_rows": int(state.count)}

    def _root_manifest(self, version: int, specs: list[dict[str, Any]]) -> dict[str, Any]:
        return {
            "format_version": SHARDED_FORMAT_VERSION,
            "kind": SHARDED_KIND,
            "n_shards": self.n_shards,
            "version": version,
            "next_id": self.next_id,
            "threshold": self.threshold,
            "n_bits": self.n_bits,
            "encoder_sha256": encoder_fingerprint(self.encoder),
            "shards": specs,
        }

    def _reload_shards(self, specs: list[dict[str, Any]]) -> None:
        """Re-attach every shard from disk (fresh mmap, empty overlay)."""
        assert self.path is not None
        fresh: list[_ShardState] = []
        for spec in specs:
            snapshot, row_ids = load_shard(
                self.path / spec["dir"], mmap_mode=self._mmap_mode
            )
            fresh.append(
                _ShardState(
                    lsh=snapshot.lsh,
                    words=snapshot.matrix.words,
                    row_ids=row_ids,
                    count=snapshot.n_rows,
                    base_rows=snapshot.n_rows,
                    dirname=str(spec["dir"]),
                )
            )
        self.shards = fresh

    def _attach(self, root: Path) -> None:
        """Point this index at a freshly written bundle root."""
        self.close()
        manifest = _read_root_manifest(root)
        self.path = root
        self.version = int(manifest["version"])
        self.manifest = manifest
        self._reload_shards(list(manifest["shards"]))


# -- root-manifest helpers ---------------------------------------------------------


def _read_root_manifest(root: Path) -> dict[str, Any]:
    manifest_file = root / MANIFEST_NAME
    if not manifest_file.is_file():
        raise SnapshotError(f"no sharded bundle manifest at {manifest_file}")
    try:
        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"sharded manifest is not valid JSON: {exc}") from exc
    version = manifest.get("format_version")
    if version != SHARDED_FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported sharded format version {version!r} "
            f"(this build reads version {SHARDED_FORMAT_VERSION})"
        )
    specs = manifest.get("shards")
    n_shards = manifest.get("n_shards")
    if not isinstance(specs, list) or not specs or len(specs) != n_shards:
        raise SnapshotError(
            f"sharded manifest names {0 if not isinstance(specs, list) else len(specs)} "
            f"shard dirs for n_shards={n_shards!r}"
        )
    for key in ("version", "next_id", "threshold", "n_bits", "encoder_sha256"):
        if key not in manifest:
            raise SnapshotError(f"sharded manifest is missing field {key!r}")
    return manifest


def _read_root_encoder(root: Path, manifest: dict[str, Any]) -> RecordEncoder:
    encoder_file = root / ENCODER_NAME
    if not encoder_file.is_file():
        raise SnapshotError(f"sharded encoder sidecar missing at {encoder_file}")
    try:
        encoder_data = json.loads(encoder_file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"sharded encoder sidecar is not valid JSON: {exc}"
        ) from exc
    if _dict_fingerprint(encoder_data) != manifest.get("encoder_sha256"):
        raise SnapshotError(
            "encoder fingerprint mismatch: the sidecar does not match the "
            "encoder this sharded index was built with"
        )
    try:
        encoder = encoder_from_dict(encoder_data)
    except ValueError as exc:
        raise SnapshotError(f"sharded encoder unreadable: {exc}") from exc
    if encoder.total_bits != int(manifest["n_bits"]):
        raise SnapshotError(
            f"encoder width {encoder.total_bits} does not match sharded "
            f"bundle width {manifest['n_bits']}"
        )
    return encoder


def _swap_root_manifest(root: Path, manifest: dict[str, Any]) -> None:
    """Atomically replace the root manifest (temp file + ``os.replace``)."""
    tmp = root / f"{MANIFEST_NAME}.tmp-{os.getpid()}"
    tmp.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    fsync_file(tmp)
    os.replace(tmp, root / MANIFEST_NAME)
    # Without a directory fsync the rename itself may not survive a
    # crash, leaving the old generation authoritative after an ack.
    _fsync_dir(root)


def _sweep_orphans(root: Path, live_dirs: set[str]) -> None:
    """Remove shard dirs no generation references (interrupted compactions)."""
    shards_dir = root / "shards"
    if not shards_dir.is_dir():
        return
    for child in shards_dir.iterdir():
        if child.is_dir() and f"shards/{child.name}" not in live_dirs:
            shutil.rmtree(child, ignore_errors=True)


def _with_room(store: np.ndarray, count: int, stop: int) -> np.ndarray:
    """``store`` if it holds ``stop`` rows, else an amortised-doubling copy.

    Only the first ``count`` rows are carried over; a (read-only,
    memory-mapped) shard payload is full, so it is copied at the first
    append and never written to.
    """
    if stop <= len(store):
        return store
    capacity = max(16, stop, 2 * len(store))
    grown = np.empty((capacity, *store.shape[1:]), dtype=store.dtype)
    grown[:count] = store[:count]
    return grown


def _wal_payload(gid: int, values: tuple[str, ...]) -> bytes:
    """Canonical JSON framing payload for one ingested record."""
    return json.dumps(
        {"id": gid, "values": list(values)},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")


def _parse_wal_payload(payload: bytes) -> tuple[int, tuple[str, ...]]:
    try:
        data = json.loads(payload.decode("utf-8"))
        return int(data["id"]), tuple(str(v) for v in data["values"])
    except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"unreadable WAL record: {exc}") from exc
