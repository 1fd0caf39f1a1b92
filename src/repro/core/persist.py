"""Serialising calibrated encoders and whole index snapshots.

A record encoder is defined by small integers — per-attribute widths and
the universal-hash coefficients ``(a, b)`` — plus the q-gram scheme.  In
the three-party workflow every custodian must embed with *bit-identical*
encoders, and a production deployment wants to calibrate once and reuse
forever; both need the encoder to round-trip through a file.

The encoder format is plain JSON, versioned, with nothing executable in
it.  On top of it sits the **index snapshot bundle** (see
``docs/serving.md``): a directory holding the encoder JSON sidecar plus
``.npy`` payloads for the packed ``BitMatrix`` words and every blocking
group's sorted bucket-key / id / run-boundary arrays.  Snapshots
round-trip bit-identically and load zero-copy via
``numpy.load(..., mmap_mode="r")`` — no re-hashing, no re-sorting — so a
reference dataset can be indexed once and served forever
(:mod:`repro.serve`).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.cvector import CVectorEncoder, UniversalHash
from repro.core.encoder import RecordEncoder
from repro.core.qgram import QGramScheme
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.lsh import HammingLSH, run_starts
from repro.text.alphabet import Alphabet

FORMAT_VERSION = 1

#: Version of the on-disk index snapshot bundle (see docs/serving.md).
SNAPSHOT_FORMAT_VERSION = 1

#: File names inside a snapshot bundle directory.
MANIFEST_NAME = "manifest.json"
ENCODER_NAME = "encoder.json"
_PAYLOADS = ("words.npy", "keys.npy", "ids.npy", "bounds.npy")


class SnapshotError(ValueError):
    """A snapshot bundle is unreadable, corrupt, or from another build.

    Raised on a format-version mismatch, a truncated / reshaped payload,
    a manifest that does not describe its arrays, or an encoder sidecar
    whose fingerprint differs from the one recorded at save time —
    anything where proceeding would silently produce garbage candidates.
    """


def scheme_to_dict(scheme: QGramScheme) -> dict[str, Any]:
    return {
        "q": scheme.q,
        "alphabet": scheme.alphabet.chars,
        "padded": scheme.padded,
        "pad_char": scheme.pad_char,
    }


def scheme_from_dict(data: dict[str, Any]) -> QGramScheme:
    return QGramScheme(
        q=int(data["q"]),
        alphabet=Alphabet(data["alphabet"]),
        padded=bool(data["padded"]),
        pad_char=data["pad_char"],
    )


def encoder_to_dict(encoder: RecordEncoder) -> dict[str, Any]:
    """A JSON-safe description of a calibrated record encoder."""
    return {
        "format_version": FORMAT_VERSION,
        "attributes": [
            {
                "name": layout.name,
                "m": attribute.m,
                "hash_a": attribute.hash_fn.a,
                "hash_b": attribute.hash_fn.b,
                "hash_p": attribute.hash_fn.p,
                "scheme": scheme_to_dict(attribute.scheme),
            }
            for layout, attribute in zip(encoder.layouts, encoder.encoders)
        ],
    }


def encoder_from_dict(data: dict[str, Any]) -> RecordEncoder:
    """Rebuild a record encoder from :func:`encoder_to_dict` output."""
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported encoder format version {version!r} "
            f"(this build reads version {FORMAT_VERSION})"
        )
    attributes = data.get("attributes") or []
    if not attributes:
        raise ValueError("encoder description has no attributes")
    encoders = []
    names = []
    for attr in attributes:
        names.append(attr["name"])
        encoders.append(
            CVectorEncoder(
                int(attr["m"]),
                scheme=scheme_from_dict(attr["scheme"]),
                hash_fn=UniversalHash(
                    a=int(attr["hash_a"]),
                    b=int(attr["hash_b"]),
                    m=int(attr["m"]),
                    p=int(attr["hash_p"]),
                ),
            )
        )
    return RecordEncoder(encoders, names=names)


def save_encoder(encoder: RecordEncoder, path: str | Path) -> None:
    """Write the encoder as JSON.

    >>> import tempfile, os
    >>> enc = RecordEncoder([CVectorEncoder(15, seed=1)], names=['f1'])
    >>> with tempfile.TemporaryDirectory() as d:
    ...     save_encoder(enc, os.path.join(d, 'enc.json'))
    ...     loaded = load_encoder(os.path.join(d, 'enc.json'))
    >>> loaded.encode_dataset([('JONES',)]) == enc.encode_dataset([('JONES',)])
    True
    """
    path = Path(path)
    path.write_text(json.dumps(encoder_to_dict(encoder), indent=2), encoding="utf-8")


def load_encoder(path: str | Path) -> RecordEncoder:
    """Read an encoder previously written by :func:`save_encoder`."""
    return encoder_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# -- index snapshot bundles ------------------------------------------------------


def _canonical_json(data: dict[str, Any]) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def encoder_fingerprint(encoder: RecordEncoder) -> str:
    """SHA-256 over the canonical JSON of :func:`encoder_to_dict`.

    Recorded in the snapshot manifest and re-checked on load, so an
    edited or swapped encoder sidecar cannot be paired with an index it
    did not build.
    """
    return _dict_fingerprint(encoder_to_dict(encoder))


def _dict_fingerprint(data: dict[str, Any]) -> str:
    return hashlib.sha256(_canonical_json(data).encode("utf-8")).hexdigest()


def _fsync_dir(path: Path) -> None:
    """fsync a directory so renames inside it survive a crash (best effort)."""
    flag = getattr(os, "O_DIRECTORY", None)
    if flag is None:  # platform without directory fds (e.g. Windows)
        return
    fd = os.open(path, os.O_RDONLY | flag)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_file(path: Path) -> None:
    """Flush one already-written file's contents to stable storage."""
    with open(path, "rb") as handle:
        os.fsync(handle.fileno())


def write_dir_atomic(path: str | Path, write: Any) -> Path:
    """Build a directory under a temp name, then publish it atomically.

    ``write(tmp_dir)`` populates a fresh temp directory next to the
    final ``path``; on success the temp directory is renamed into place,
    so a process killed at any point leaves either the old state or the
    new one — never a half-written directory that only fails at load
    time.  An existing ``path`` is retired (renamed aside, then removed)
    rather than overwritten in place.
    """
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}.tmp-"))
    try:
        write(tmp)
        _fsync_dir(tmp)
        if out.exists():
            retired = Path(
                tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}.old-")
            )
            os.rmdir(retired)
            os.rename(out, retired)
            os.rename(tmp, out)
            shutil.rmtree(retired, ignore_errors=True)
        else:
            os.rename(tmp, out)
        _fsync_dir(out.parent)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return out


def _keys_to_storage(keys: np.ndarray) -> np.ndarray:
    """Blocking keys in their storable form (void byte rows -> uint8 matrix)."""
    if keys.dtype == np.uint64:
        return keys
    return np.ascontiguousarray(keys).view(np.uint8).reshape(keys.size, keys.itemsize)


def _keys_from_storage(stored: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_keys_to_storage` (zero-copy view)."""
    if stored.ndim == 1:
        return stored
    void_dtype = np.dtype([("", np.uint8)] * stored.shape[1])
    return stored.view(void_dtype).ravel()


@dataclass
class IndexSnapshot:
    """A loaded (typically memory-mapped) persistent HB index.

    ``matrix`` wraps the snapshot's packed words — read-only when loaded
    with a mmap mode — and ``lsh`` is the fully indexed blocking
    structure, its bucket arrays viewing the same mapped payloads.  A
    ``path`` of ``None`` marks an in-memory index that was never
    persisted (built directly by :meth:`repro.serve.QueryEngine.build`).
    """

    encoder: RecordEncoder
    matrix: BitMatrix
    lsh: HammingLSH
    threshold: int | None
    path: Path | None = None
    manifest: dict[str, Any] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.matrix.n_rows


def save_index_snapshot(
    path: str | Path,
    encoder: RecordEncoder,
    matrix: BitMatrix,
    lsh: HammingLSH,
    threshold: int | None = None,
) -> Path:
    """Write a versioned index snapshot bundle into directory ``path``.

    ``matrix`` must be the matrix ``lsh`` was indexed with (dataset A's
    record-level embedding under ``encoder``).  Each blocking group's
    sorted key / id / boundary arrays are exported (any streaming
    overlay is compacted *now*, so loading never sorts) and concatenated
    into one payload per kind, with per-table offsets in the manifest.

    The bundle is written under a temporary sibling name and renamed
    into place once complete (payloads fsync'd first), so a killed save
    never leaves a half-written bundle behind: ``path`` holds either the
    previous bundle or the new one.

    Returns the bundle directory.
    """
    if matrix.n_bits != lsh.n_bits:
        raise ValueError(f"width mismatch: matrix {matrix.n_bits} vs LSH {lsh.n_bits}")
    if encoder.total_bits != lsh.n_bits:
        raise ValueError(
            f"width mismatch: encoder {encoder.total_bits} vs LSH {lsh.n_bits}"
        )

    run = lsh.export()
    table_offsets = run.offsets
    bounds = [
        run_starts(run.keys[lo:hi]) for lo, hi in zip(table_offsets, table_offsets[1:])
    ]
    bound_offsets = [0, *np.cumsum([b.size for b in bounds]).tolist()]
    positions = [[int(p) for p in group.composite.positions] for group in lsh.groups]

    words = matrix.words
    all_keys = _keys_to_storage(run.keys)
    all_ids = run.ids
    all_bounds = np.concatenate(bounds)
    payloads = {
        "words.npy": words,
        "keys.npy": all_keys,
        "ids.npy": all_ids,
        "bounds.npy": all_bounds,
    }
    manifest: dict[str, Any] = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "n_rows": matrix.n_rows,
        "n_bits": lsh.n_bits,
        "k": lsh.k,
        "n_tables": lsh.n_tables,
        "threshold": lsh.threshold if threshold is None else threshold,
        "delta": lsh.delta,
        "key_repr": "uint64" if all_keys.dtype == np.uint64 else "packed-bytes",
        "positions": positions,
        "table_offsets": table_offsets,
        "bound_offsets": bound_offsets,
        "encoder_sha256": encoder_fingerprint(encoder),
        "payloads": {
            name: {
                "shape": list(array.shape),
                "dtype": str(array.dtype),
                "nbytes": int(array.nbytes),
            }
            for name, array in payloads.items()
        },
    }
    def _write(tmp: Path) -> None:
        for name, array in payloads.items():
            np.save(tmp / name, array, allow_pickle=False)
            fsync_file(tmp / name)
        (tmp / ENCODER_NAME).write_text(
            json.dumps(encoder_to_dict(encoder), indent=2), encoding="utf-8"
        )
        fsync_file(tmp / ENCODER_NAME)
        (tmp / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2), encoding="utf-8"
        )
        fsync_file(tmp / MANIFEST_NAME)

    return write_dir_atomic(path, _write)


def _load_payload(
    bundle: Path, name: str, spec: dict[str, Any], mmap_mode: str | None
) -> np.ndarray:
    file = bundle / name
    if not file.is_file():
        raise SnapshotError(f"snapshot payload {name} missing from {bundle}")
    try:
        array = np.load(file, mmap_mode=mmap_mode, allow_pickle=False)
    except (ValueError, OSError) as exc:
        raise SnapshotError(f"snapshot payload {name} unreadable: {exc}") from exc
    if list(array.shape) != list(spec.get("shape", [])) or str(array.dtype) != spec.get(
        "dtype"
    ):
        raise SnapshotError(
            f"snapshot payload {name} is {array.dtype}{array.shape}, manifest "
            f"promises {spec.get('dtype')}{tuple(spec.get('shape', []))} — "
            "truncated or tampered bundle"
        )
    return np.asarray(array) if mmap_mode is None else array


def _offsets(manifest: dict[str, Any], field: str, n_tables: int, size: int) -> list[int]:
    offsets = [int(o) for o in manifest.get(field) or []]
    if (
        len(offsets) != n_tables + 1
        or offsets[0] != 0
        or offsets[-1] != size
        or any(lo > hi for lo, hi in zip(offsets, offsets[1:]))
    ):
        raise SnapshotError(f"snapshot manifest field {field!r} is inconsistent")
    return offsets


def load_index_snapshot(path: str | Path, mmap_mode: str | None = "r") -> IndexSnapshot:
    """Load a snapshot bundle written by :func:`save_index_snapshot`.

    With the default ``mmap_mode="r"`` every payload is memory-mapped
    read-only: the packed matrix words and each table's key / id /
    boundary arrays are views into the page cache — nothing is hashed,
    sorted or copied.  ``mmap_mode=None`` reads the payloads into
    process memory instead (for workloads that will fault every page
    anyway).

    Raises :class:`SnapshotError` on any version, integrity or
    consistency problem.
    """
    bundle = Path(path)
    manifest_file = bundle / MANIFEST_NAME
    if not manifest_file.is_file():
        raise SnapshotError(f"no snapshot manifest at {manifest_file}")
    try:
        manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot manifest is not valid JSON: {exc}") from exc
    if manifest.get("kind") == "sharded":
        raise SnapshotError(
            f"bundle at {bundle} is a sharded index root; open it with "
            "repro.core.shards.ShardedIndex (or "
            "repro.serve.ShardedQueryEngine) instead of the single-shard "
            "loader"
        )
    version = manifest.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot format version {version!r} "
            f"(this build reads version {SNAPSHOT_FORMAT_VERSION})"
        )
    payload_specs = manifest.get("payloads") or {}
    if set(payload_specs) != set(_PAYLOADS):
        raise SnapshotError(
            f"snapshot manifest names payloads {sorted(payload_specs)}, "
            f"expected {sorted(_PAYLOADS)}"
        )

    encoder_file = bundle / ENCODER_NAME
    if not encoder_file.is_file():
        raise SnapshotError(f"snapshot encoder sidecar missing at {encoder_file}")
    try:
        encoder_data = json.loads(encoder_file.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"snapshot encoder sidecar is not valid JSON: {exc}") from exc
    fingerprint = _dict_fingerprint(encoder_data)
    if fingerprint != manifest.get("encoder_sha256"):
        raise SnapshotError(
            "encoder fingerprint mismatch: the sidecar does not match the "
            "encoder this index was built with"
        )
    try:
        encoder = encoder_from_dict(encoder_data)
    except ValueError as exc:
        raise SnapshotError(f"snapshot encoder unreadable: {exc}") from exc

    arrays = {
        name: _load_payload(bundle, name, payload_specs[name], mmap_mode)
        for name in _PAYLOADS
    }
    n_bits = int(manifest.get("n_bits", 0))
    n_rows = int(manifest.get("n_rows", -1))
    k = int(manifest.get("k", 0))
    n_tables = int(manifest.get("n_tables", 0))
    if encoder.total_bits != n_bits:
        raise SnapshotError(
            f"encoder width {encoder.total_bits} does not match snapshot "
            f"width {n_bits}"
        )
    words = arrays["words.npy"]
    if words.ndim != 2 or words.shape[0] != n_rows or words.shape[1] != (n_bits + 63) // 64:
        raise SnapshotError(
            f"snapshot words have shape {words.shape}, inconsistent with "
            f"{n_rows} rows of {n_bits} bits"
        )
    raw_threshold = manifest.get("threshold")
    positions = manifest.get("positions") or []
    if len(positions) != n_tables:
        raise SnapshotError(
            f"snapshot manifest lists {len(positions)} position tuples for "
            f"{n_tables} tables"
        )
    try:
        lsh = HammingLSH.from_state(
            n_bits=n_bits,
            k=k,
            positions=positions,
            threshold=None if raw_threshold is None else int(raw_threshold),
            delta=float(manifest.get("delta", 0.1)),
        )
    except ValueError as exc:
        raise SnapshotError(f"snapshot index parameters invalid: {exc}") from exc

    keys = _keys_from_storage(arrays["keys.npy"])
    ids = arrays["ids.npy"]
    table_offsets = _offsets(manifest, "table_offsets", n_tables, int(keys.size))
    # Checked for consistency only: the run starts are derivable from the keys.
    _offsets(manifest, "bound_offsets", n_tables, int(arrays["bounds.npy"].size))
    lsh.adopt(keys, ids, table_offsets)
    matrix = BitMatrix(words, n_bits)
    return IndexSnapshot(
        encoder=encoder,
        matrix=matrix,
        lsh=lsh,
        threshold=None if raw_threshold is None else int(raw_threshold),
        path=bundle,
        manifest=manifest,
    )
