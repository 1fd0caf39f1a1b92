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

**One query view.**  Shards are the unit of durability, not of
querying: every layout is queried as one index, ``ShardedIndex.lsh``
over ``ShardedIndex.words`` with global ids.  A plain bundle's view is
its memory-mapped snapshot.  A sharded bundle's is built in memory:
:meth:`ShardedIndex.open` reads every shard's words and row ids into
global-id order and indexes them once; ingest and replay add to it with
one streaming insert per batch.  A shard keeps only its row ids, count
and directory; its ``keys.npy`` / ``ids.npy`` are derived at save and
compaction by indexing its rows, which reproduces the incremental
route's export byte for byte (both are the stable ``(key, row)`` sort).

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
to exactly the acknowledged state: it applies the dense run of ids that
starts at the root manifest's ``next_id`` and cuts every other frame
from its segment — one below that id was compacted before a crash kept
its segment from being deleted, one past the first missing id belongs to
a batch that was never acknowledged.

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
from repro.hamming.query import IndexView, with_room
from repro.wal import SegmentWriter, frame, replay_segment, truncate_segment

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
        # Local row order must follow global-id order: a shard's keys/ids
        # are the stable (key, local row) sort, which is the (key, global
        # id) order of the query view only under this invariant, which
        # every build / ingest / compaction path preserves.
        raise SnapshotError(
            "shard row ids are not strictly increasing — corrupt or "
            "hand-edited shard bundle"
        )
    return snapshot, row_ids


def _indexed_like(lsh: HammingLSH, words: np.ndarray) -> HammingLSH:
    """A fresh index over ``words`` (ids = row numbers) sampling ``lsh``'s positions."""
    out = HammingLSH.from_state(
        n_bits=lsh.n_bits,
        k=lsh.k,
        positions=[composite.positions for composite in lsh.composites],
        threshold=lsh.threshold,
        delta=lsh.delta,
    )
    out.index(BitMatrix(words, lsh.n_bits))
    return out


@dataclass
class _ShardState:
    """One shard's persistence state: the records it owns and where they live.

    ``row_ids`` (local row -> global id, ascending) copies-on-grow at the
    first append; rows ``base_rows..count`` are the overlay — ingested
    or WAL-replayed records not yet folded into a shard bundle by
    compaction.  ``row_ids`` is ``None`` for the one shard of a plain
    bundle, whose local rows are the global ids.  The records
    themselves live once, in the index's :class:`~repro.hamming.query.IndexView`.
    """

    view: IndexView
    row_ids: np.ndarray | None
    count: int
    base_rows: int
    dirname: str | None = None

    @property
    def overlay_rows(self) -> int:
        return self.count - self.base_rows

    @property
    def words(self) -> np.ndarray:
        """This shard's packed rows in local order (gathered from the view)."""
        if self.row_ids is None:
            return self.view.words
        return self.view.words[self.row_ids[: self.count]]

    @property
    def lsh(self) -> HammingLSH:
        """An index over :attr:`words` with local ids, built afresh per access.

        Kept only for the benchmark suite's staged replay, which scans
        shard by shard; it goes with that replay (ROADMAP item 1).
        """
        return _indexed_like(self.view.lsh, self.words)


class ShardedIndex:
    """An ``N``-shard HB index with durable online ingest.

    Construct with :meth:`build` (index rows in memory, partitioned by
    id), then :meth:`save` to persist, or :meth:`open` to attach a
    persisted bundle of either layout (WAL replayed).  Queries run
    against one view of every record, :attr:`lsh` over :attr:`words`
    with global ids; the serving layer on top is
    :class:`repro.serve.QueryEngine`.
    """

    def __init__(
        self,
        encoder: RecordEncoder,
        view: IndexView,
        shards: list[_ShardState],
        threshold: int,
        path: Path | None = None,
        version: int = 0,
        manifest: dict[str, Any] | None = None,
    ):
        if not shards:
            raise ValueError("a sharded index needs at least one shard")
        self.encoder = encoder
        self._view = view
        self.shards = shards
        self.threshold = threshold
        self.path = path
        self.version = version
        self.manifest = manifest or {}
        #: The snapshot a plain (read-only, one-shard) index serves.
        self._plain: IndexSnapshot | None = None
        self._writers: dict[int, SegmentWriter] = {}
        #: Recovery / ingest counters (``wal_replayed_records``,
        #: ``wal_skipped_records``, ``wal_torn_bytes``, ``records_appended``).
        self.counters: dict[str, float] = {}

    # -- introspection -----------------------------------------------------------

    @property
    def lsh(self) -> HammingLSH:
        """The one index every query runs against; its ids are global ids."""
        return self._view.lsh

    @property
    def words(self) -> np.ndarray:
        """Every record's packed row in global-id order."""
        return self._view.words

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_rows(self) -> int:
        """Total indexed records across shards (including the overlay)."""
        return self._view.count

    @property
    def next_id(self) -> int:
        """The id the next ingested record gets (ids ``0..next_id - 1`` are held)."""
        return self._view.count

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
    ) -> "ShardedIndex":
        """Index ``rows`` once and partition them across ``n_shards``.

        Global record ids are the row indices.  The rows are indexed as
        one :class:`~repro.hamming.lsh.HammingLSH` built from
        ``(k, threshold, delta, seed)`` — the query view, identical to a
        single index over the same rows — and the shard a record is
        persisted in is :func:`shard_of_id` of its id.
        ``n_shards=None`` serves the rows as a plain index
        (:meth:`single`), which saves the single-bundle layout.
        """
        if n_shards is not None and n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        matrix = encoder.encode_dataset(rows)
        lsh = HammingLSH(
            n_bits=encoder.total_bits,
            k=k,
            threshold=threshold,
            delta=delta,
            n_tables=n_tables,
            seed=seed,
        )
        lsh.index(matrix)
        if n_shards is None:
            return cls.single(
                IndexSnapshot(encoder=encoder, matrix=matrix, lsh=lsh, threshold=threshold)
            )
        view = IndexView(lsh, matrix.words)
        ids = np.arange(len(rows), dtype=np.int64)
        assignment = shards_of_ids(ids, n_shards)
        shards: list[_ShardState] = []
        for shard in range(n_shards):
            row_ids = ids[assignment == shard]
            shards.append(_ShardState(view, row_ids, int(row_ids.size), int(row_ids.size)))
        return cls(encoder=encoder, view=view, shards=shards, threshold=threshold)

    @classmethod
    def single(cls, snapshot: IndexSnapshot) -> "ShardedIndex":
        """Serve one snapshot as a plain index: one read-only shard.

        The snapshot is the query view, so nothing is copied or mapped
        beyond the snapshot itself; :meth:`save` writes the single-bundle
        layout, and :meth:`append_batch` / :meth:`compact` raise
        :class:`PlainBundleError`.
        """
        if snapshot.threshold is None:
            raise ValueError(
                "snapshot records no matching threshold; rebuild it with one"
            )
        view = IndexView(snapshot.lsh, snapshot.matrix.words)
        index = cls(
            encoder=snapshot.encoder,
            view=view,
            shards=[_ShardState(view, None, snapshot.n_rows, snapshot.n_rows)],
            threshold=snapshot.threshold,
            path=snapshot.path,
            manifest=snapshot.manifest,
        )
        index._plain = snapshot
        return index

    @classmethod
    def open(cls, path: str | Path, mmap_mode: str | None = "r") -> "ShardedIndex":
        """Attach a persisted bundle of either layout.

        A plain single-index bundle is attached as :meth:`single` over
        the loaded snapshot (payloads mapped with ``mmap_mode``).  A
        sharded bundle has every shard's manifest validated and its
        words and row ids read into global-id order (``mmap_mode`` only
        says how they are read), then indexed once as the query view; a
        shard's own keys / ids are never kept.  Its WAL segments are
        then replayed: the acknowledged records land in the overlay and
        a torn segment tail is truncated to the durable prefix.  Any
        structural problem raises
        :class:`~repro.core.persist.SnapshotError`.
        """
        root = Path(path)
        if not _is_sharded_bundle(root):
            return cls.single(load_index_snapshot(root, mmap_mode=mmap_mode))
        manifest = _read_root_manifest(root)
        encoder = _read_root_encoder(root, manifest)
        next_id = int(manifest["next_id"])
        words = np.empty((next_id, (encoder.total_bits + 63) // 64), dtype=np.uint64)
        held = np.zeros(next_id, dtype=bool)
        parts: list[tuple[np.ndarray, str]] = []
        reference: HammingLSH | None = None
        for shard, spec in enumerate(manifest["shards"]):
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
            if reference is None:
                reference = snapshot.lsh
            elif snapshot.lsh.composites != reference.composites:
                raise SnapshotError(
                    f"shard {shard} samples different blocking positions than "
                    "shard 0 — shards of one bundle must share one LSH"
                )
            if row_ids.size and (row_ids[0] < 0 or row_ids[-1] >= next_id):
                raise SnapshotError(
                    f"shard {shard} holds record ids outside 0..{next_id - 1} "
                    "— global ids must be dense"
                )
            words[row_ids] = snapshot.matrix.words
            held[row_ids] = True
            parts.append((np.array(row_ids), str(spec["dir"])))
        total = sum(row_ids.size for row_ids, __ in parts)
        if total != next_id or not held.all():
            raise SnapshotError(
                f"sharded bundle holds {total} rows but ids run to "
                f"{next_id} — global ids must be dense"
            )
        assert reference is not None  # the root manifest names at least one shard
        view = IndexView(_indexed_like(reference, words), words)
        index = cls(
            encoder=encoder,
            view=view,
            shards=[
                _ShardState(view, row_ids, int(row_ids.size), int(row_ids.size), dirname)
                for row_ids, dirname in parts
            ],
            threshold=int(manifest["threshold"]),
            path=root,
            version=int(manifest["version"]),
            manifest=manifest,
        )
        index._replay_wal()
        return index

    # -- persistence -------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Persist the index as a sharded bundle (atomic whole-directory).

        Every shard — including any in-memory overlay — is written as a
        complete single-index bundle under a temp root, the root
        manifest last; the temp root is then renamed into place.  The
        index keeps serving its in-memory view, now attached to the
        persisted bundle (overlay empty).  A plain index writes the
        single-bundle layout of
        :func:`~repro.core.persist.save_index_snapshot` instead.
        """
        if self._plain is not None:
            plain = self._plain
            out = save_index_snapshot(
                path, plain.encoder, plain.matrix, plain.lsh, threshold=plain.threshold
            )
            self.path = out
            self._plain = replace(plain, path=out)
            return out
        manifest = self._root_manifest(max(1, self.version + 1))

        def _write(tmp: Path) -> None:
            for state, spec in zip(self.shards, manifest["shards"]):
                self._write_shard(tmp, state, spec)
            (tmp / "wal").mkdir(exist_ok=True)
            (tmp / ENCODER_NAME).write_text(
                json.dumps(encoder_to_dict(self.encoder), indent=2),
                encoding="utf-8",
            )
            fsync_file(tmp / ENCODER_NAME)
            (tmp / MANIFEST_NAME).write_text(
                json.dumps(manifest, indent=2), encoding="utf-8"
            )
            fsync_file(tmp / MANIFEST_NAME)

        out = write_dir_atomic(path, _write)
        self.close()
        self.path = out
        self._published(manifest)
        return out

    def compact(self) -> int:
        """Fold the WAL overlay into new shard bundles at ``version + 1``.

        Writes every shard's current state (persisted base + overlay) as
        a fresh bundle directory, atomically swaps the root manifest to
        the new generation (temp file + ``os.replace``), then removes
        the superseded shard directories and WAL segments.  A crash
        before the swap leaves the old generation authoritative; a crash
        after it leaves only orphaned old directories, swept by the next
        compaction, and segments whose records the next open skips.
        The query view's delta run is folded into its bulk run.
        Returns the new version.
        """
        if self._plain is not None:
            raise PlainBundleError(self.path, "nothing to compact")
        if self.path is None:
            raise ValueError(
                "compact() needs a persisted sharded bundle; call save() first"
            )
        root = self.path
        manifest = self._root_manifest(self.version + 1)
        for state, spec in zip(self.shards, manifest["shards"]):
            self._write_shard(root, state, spec)
        _swap_root_manifest(root, manifest)
        self.close()
        for state in self.shards:
            if state.dirname is not None:
                shutil.rmtree(root / state.dirname, ignore_errors=True)
        for shard in range(self.n_shards):
            (root / wal_name(shard)).unlink(missing_ok=True)
        _sweep_orphans(root, {str(spec["dir"]) for spec in manifest["shards"]})
        self._published(manifest)
        return self.version

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
        self._append_rows(matrix.words, owners)
        self.counters["records_appended"] = (
            self.counters.get("records_appended", 0.0) + len(rows)
        )
        return gids.tolist()

    # -- internals ---------------------------------------------------------------

    def _writer(self, shard: int) -> SegmentWriter:
        writer = self._writers.get(shard)
        if writer is None:
            assert self.path is not None  # guarded by append_batch
            writer = SegmentWriter(self.path / wal_name(shard))
            self._writers[shard] = writer
        return writer

    def _append_rows(self, words: np.ndarray, owners: np.ndarray) -> None:
        """Add encoded records, the next global ids in order, to the view.

        One streaming insert into the view's LSH, then per touched shard
        (``owners``: each row's shard) one slice copy into its
        copy-on-grow row-id store.
        """
        gids = self._view.append(words)
        for shard in np.unique(owners).tolist():
            state = self.shards[shard]
            mine = gids[owners == shard]
            stop = state.count + int(mine.size)
            assert state.row_ids is not None  # a plain shard is never appended to
            state.row_ids = with_room(state.row_ids, state.count, stop)
            state.row_ids[state.count : stop] = mine
            state.count = stop

    def _replay_wal(self) -> None:
        """Fold the acknowledged write-ahead records into the view.

        Every segment is parsed and checked before anything changes, so
        an unreadable record fails the open with the overlay empty.
        Applied — encoded and inserted as one batch — is the dense run
        of ids from ``next_id`` (the root manifest's) on.  Every other
        frame is cut from its segment and counted in
        ``wal_skipped_records``: one below ``next_id`` is in a shard
        bundle already (a crash between a compaction's manifest swap and
        the segment's deletion), one past the first missing id belongs
        to a batch that crashed between two shards' fsyncs, before its
        acknowledgement.
        """
        assert self.path is not None
        torn = 0
        segments: list[tuple[Path, list[bytes], list[int]]] = []
        values: dict[int, tuple[str, ...]] = {}
        for shard in range(self.n_shards):
            segment = self.path / wal_name(shard)
            result = replay_segment(segment)
            if not result.clean:
                truncate_segment(segment, result.durable_bytes)
                torn += result.torn_bytes
            gids: list[int] = []
            for payload in result.records:
                gid, row = _parse_wal_payload(payload)
                if shard_of_id(gid, self.n_shards) != shard:
                    raise SnapshotError(
                        f"WAL segment for shard {shard} carries record "
                        f"{gid}, which hashes to shard "
                        f"{shard_of_id(gid, self.n_shards)}"
                    )
                gids.append(gid)
                values[gid] = row
            segments.append((segment, result.records, gids))
        first = stop = self.next_id
        while stop in values:
            stop += 1
        skipped = 0
        for segment, records, gids in segments:
            kept = [payload for payload, gid in zip(records, gids) if first <= gid < stop]
            if len(kept) < len(records):
                skipped += len(records) - len(kept)
                _cut_segment(segment, kept)
        if stop > first:
            rows = [values[gid] for gid in range(first, stop)]
            owners = shards_of_ids(np.arange(first, stop), self.n_shards)
            self._append_rows(self.encoder.encode_dataset(rows).words, owners)
        self.counters["wal_replayed_records"] = float(stop - first)
        self.counters["wal_skipped_records"] = float(skipped)
        self.counters["wal_torn_bytes"] = float(torn)

    def _write_shard(self, root: Path, state: _ShardState, spec: dict[str, Any]) -> None:
        """Write one shard (base + overlay) as the bundle dir ``spec`` names.

        Its keys / ids come from indexing its rows: the stable ``(key,
        local row)`` sort, which is what exporting a base index plus
        streamed inserts of later (larger) ids gives.
        """
        out = root / spec["dir"]
        words = state.words
        save_index_snapshot(
            out,
            self.encoder,
            BitMatrix(words, self.n_bits),
            _indexed_like(self.lsh, words),
            threshold=self.threshold,
        )
        assert state.row_ids is not None  # a plain shard is saved as a plain bundle
        np.save(out / ROW_IDS_NAME, state.row_ids[: state.count], allow_pickle=False)
        fsync_file(out / ROW_IDS_NAME)

    def _root_manifest(self, version: int) -> dict[str, Any]:
        return {
            "format_version": SHARDED_FORMAT_VERSION,
            "kind": SHARDED_KIND,
            "n_shards": self.n_shards,
            "version": version,
            "next_id": self.next_id,
            "threshold": self.threshold,
            "n_bits": self.n_bits,
            "encoder_sha256": encoder_fingerprint(self.encoder),
            "shards": [
                {"dir": shard_dirname(shard, version), "n_rows": int(state.count)}
                for shard, state in enumerate(self.shards)
            ],
        }

    def _published(self, manifest: dict[str, Any]) -> None:
        """Adopt a generation just written: every overlay row is in a shard
        bundle now, and the view's delta run is folded into its bulk run."""
        self.version = int(manifest["version"])
        self.manifest = manifest
        for state, spec in zip(self.shards, manifest["shards"]):
            state.base_rows = state.count
            state.dirname = str(spec["dir"])
        self.lsh.adopt(*self.lsh.export())


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


def _cut_segment(segment: Path, kept: list[bytes]) -> None:
    """Replace a write-ahead segment by the frames of ``kept`` (temp file + ``os.replace``)."""
    tmp = segment.with_name(f"{segment.name}.tmp-{os.getpid()}")
    tmp.write_bytes(b"".join(frame(payload) for payload in kept))
    fsync_file(tmp)
    os.replace(tmp, segment)
    _fsync_dir(segment.parent)


def _sweep_orphans(root: Path, live_dirs: set[str]) -> None:
    """Remove shard dirs no generation references (interrupted compactions)."""
    shards_dir = root / "shards"
    if not shards_dir.is_dir():
        return
    for child in shards_dir.iterdir():
        if child.is_dir() and f"shards/{child.name}" not in live_dirs:
            shutil.rmtree(child, ignore_errors=True)


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
