"""Hamming LSH blocking/matching — the HB mechanism (Section 4.2).

``HB`` maintains ``L`` independent blocking groups (hash tables ``T_l``).
Each group owns a composite hash function ``h_l`` made of ``K`` base hash
functions; a base hash function returns the value of one uniformly sampled
bit position of the input vector.  The concatenated ``K`` bits form the
blocking key, which addresses a bucket holding record identifiers.

Matching (Algorithm 2) scans, for each query vector, the buckets it hashes
to across all groups, de-duplicates the retrieved identifiers, and hands
each unique pair to a classification rule (here: a distance threshold or a
:mod:`repro.rules` AST).

The ``L`` tables are held as **one object** (:class:`TableRuns`): a whole
:class:`~repro.hamming.bitmatrix.BitMatrix` gets its blocking keys for all
groups in one pass over its bytes, and all tables' ids live in one array
sorted by ``(table, key)`` — a bulk run plus a small delta run for
streaming inserts, the layout a snapshot bundle has on disk — built by
one packed plain sort.  A query batch is sorted the same way once
(:class:`Probe`); each row's bucket is found with one binary search per
table segment for both of its ends, and all are expanded together with
gather arithmetic.

:meth:`HammingLSH.match` is Algorithm 2 and the one threshold-match
kernel.  It runs over row blocks of B (:func:`match_blocks`), sized from one
byte budget (:data:`MATCH_BLOCK_BYTES`) that covers a block's ``L x rows``
probe arrays and its raw pairs, so its memory does not grow with ``n_B``.
Per block: one probe, one join into one raw-pair buffer of encoded ids
``a * n_B + b``, de-duplicated in place by a sort (:func:`sorted_unique`,
the ``UniqueCollection``), then the blocked decode / XOR / popcount /
filter of :func:`repro.hamming.distance.verify_pairs`.  B blocks partition
the pairs, so the blocks' matches merged by code are exactly the matches
of one pass, in ``a * n_B + b`` order.  The record-level link, serving's
``batch_query`` (a one-record query is a one-row batch), K tuning and the
three-party protocol all call it; the rule-aware blocker runs its plan
over the same blocks.  :meth:`HammingLSH.candidate_pairs` is the join and
de-dup of all of B at once, without the verify (for linkers that classify
candidates otherwise).

The join runs on ``(L, n)`` ``uint64`` key arrays: :class:`TableRuns`
feeds it its matrices' keys, and :func:`join_keys` the keys the LSH
baselines hold (MinHash bands, p-stable floors; :func:`hash_keys`).

Records enter and are matched only as matrices: there is no per-vector
insert or query.  :meth:`CompositeHash.key_for` reads one packed row bit by
bit in Python: the scalar reference :class:`KeyTable` is tested against.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple, Protocol, TypeVar

import numpy as np

from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.distance import decode_pairs, verify_pairs
from repro.hamming.theory import hamming_lsh_parameters


#: Cells per pass: ``rows x groups`` keys of :meth:`KeyTable.keys`, and pairs
#: per bucket expansion — 512 kB of ``uint64`` per temporary, which stays cache-resident and is recycled by the
#: allocator instead of being mapped and page-faulted afresh per call.
_KEY_BLOCK_CELLS = 1 << 16

#: Rows up to which :meth:`KeyTable.keys` gathers every used byte's entries at
#: once.  One gather against the per-byte loop (2 vCPUs, numpy 2.4) at 1 / 64 /
#: 256 / 1 024 / 4 096 rows: 0.22x / 0.34x / 0.62x / 0.83x / 1.07x for NCVR PL
#: (K = 30, L = 6), 0.13x / 0.65x / 0.85x / 1.48x / 1.66x at 270 bits, K = 12,
#: L = 60; 256 wins in every configuration measured, in under 1 MB.
GATHER_KEY_ROWS = 256

#: Bytes one block of a match may hold: its ``L x rows`` probe and bucket
#: search arrays (``_PROBE_CELL_BYTES`` a cell) and, once located, its raw
#: pairs (8 bytes each).  :func:`match_blocks` cuts B into row blocks within
#: it, so a match holds no array the size of ``L x n_B`` or of the candidates.
#: At ``L = 6`` a block is 17 476 rows: a serving batch or the suite's
#: 2 000-row small link is one block, and a block stays dense enough for
#: :meth:`_Run.locate`'s sorted searches (docs/performance.md, "B-row blocks").
MATCH_BLOCK_BYTES = 8 << 20
#: Traced peak bytes per ``(table, row)`` cell of locating a block: the
#: probe's sorted keys (with their successors) and rows, and the bucket
#: search's bounds, matches and entry arrays (measured at 1 000-16 000 rows:
#: 72-73 for NCVR, K = 30, L = 6; 74 for DBLP's rule, 62 tables).
_PROBE_CELL_BYTES = 80

_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # odd: 2^64 / golden ratio

_L = TypeVar("_L", bound="SupportsPairCount")


class SupportsPairCount(Protocol):
    """A located block: knows how many raw pairs expanding it writes."""

    @property
    def n_pairs(self) -> int: ...


def match_blocks(
    matrix_b: BitMatrix,
    n_tables: int,
    locate: Callable[[BitMatrix], _L],
    match: Callable[[int, BitMatrix, _L], tuple[np.ndarray, ...]],
) -> tuple[np.ndarray, ...]:
    """Match ``matrix_b`` in consecutive row blocks within :data:`MATCH_BLOCK_BYTES`.

    Each block is located (``locate(block)``) and then matched
    (``match(first_row, block, located)``, which returns ``(rows_a,
    rows_b, ...)`` with ``rows_b`` in ``matrix_b``'s numbering, in
    ``a * n_B + b`` order).  Returns those arrays over all blocks, in that
    order: B blocks partition the pairs, so sorting by code is the merge.

    A block starts at the rows whose ``n_tables`` probe cells fit the
    budget.  One whose located raw pairs would not fit is split before it is
    expanded: located again at the rows that would fill three quarters of
    the budget at its density, which also sizes the next block (up to the
    probe's cap).  A one-row block is never split, and an empty matrix is
    still one block.  A block's bucket arrays are let go before the next
    block is located.
    """
    n_rows = matrix_b.n_rows
    cap = max(1, MATCH_BLOCK_BYTES // (_PROBE_CELL_BYTES * n_tables))
    kept = []
    lo, rows = 0, cap
    while True:
        hi = min(lo + rows, n_rows)
        block = matrix_b if hi - lo == n_rows else BitMatrix(matrix_b.words[lo:hi], matrix_b.n_bits)
        located = locate(block)
        raw = 8 * located.n_pairs
        fits = raw <= MATCH_BLOCK_BYTES or hi - lo == 1
        if fits:
            kept.append(match(lo, block, located))
            if hi == n_rows:
                break
        del located
        rows = max(1, min(cap, (hi - lo) * (3 * MATCH_BLOCK_BYTES // 4) // max(raw, 1)))
        if fits:
            lo = hi
        else:  # split before expansion
            rows = min(rows, hi - lo - 1)
    if len(kept) == 1:
        return kept[0]
    columns = [np.concatenate(column) for column in zip(*kept)]
    order = np.argsort(columns[0] * matrix_b.n_rows + columns[1])
    return tuple(column[order] for column in columns)


def sorted_unique(pairs: np.ndarray) -> np.ndarray:
    """Sort ``pairs`` in place and move its distinct values to the front, a block
    at a time (no second array the size of ``pairs``); returns that front, a
    view.  Steady, and ~30x faster than the hash-table path ``np.unique`` takes
    on int64 (numpy >= 2.3) at a million pairs."""
    pairs.sort()
    kept = 0
    for lo in range(0, pairs.size, _KEY_BLOCK_CELLS):
        block = pairs[lo : lo + _KEY_BLOCK_CELLS]
        new = np.empty(block.size, dtype=bool)
        new[0] = not kept or block[0] != pairs[kept - 1]
        np.not_equal(block[1:], block[:-1], out=new[1:])
        distinct = block[new]  # a copy: its place at the front may overlap the block
        pairs[kept : kept + distinct.size] = distinct
        kept += distinct.size
    return pairs[:kept]


def _generation_counters(generated: int, unique: int, largest: int) -> dict[str, float]:
    """Candidate-generation counters: raw pairs, distinct pairs, the repeats
    between them and the largest bucket product."""
    return {
        "pairs_generated": float(generated),
        "pairs_unique": float(unique),
        "pairs_duplicates": float(generated - unique),
        "max_bucket_product": float(largest),
    }


def _bucket_products(
    ids_a: np.ndarray,
    n_b: int,
    buckets: tuple[np.ndarray, np.ndarray, np.ndarray],
    edges: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write the cross-products ``a * n_B + b`` of matched buckets into ``out``.

    Entry ``i`` of ``buckets = (shift, rows_b, sizes)`` is one probing row
    ``rows_b[i]`` in a bucket of ``sizes[i]`` ids; its pairs are ``out``
    positions ``edges[i]..edges[i + 1]``, and the one at position ``j`` pairs
    ``ids_a[j + shift[i]]`` with that row.  The pairs are expanded by gather
    arithmetic in fixed-size blocks, cut wherever they fall, also inside an
    entry, so no temporary is larger than a block.  A block is entries
    ``s..e``; the next starts in the entry holding its last pair's successor.
    """
    shift, rows_b, sizes = buckets
    s = 0
    for lo in range(0, out.size, _KEY_BLOCK_CELLS):
        hi = min(lo + _KEY_BLOCK_CELLS, out.size)
        e = sizes.size if hi == out.size else int(edges.searchsorted(hi))
        p = sizes[s:e]
        if edges[s] < lo or edges[e] > hi:  # an entry cut at either end
            p = p.copy()
            p[0] -= lo - edges[s]
            p[-1] -= edges[e] - hi
        at = np.arange(lo, hi)
        at += shift[s:e].repeat(p)
        block = out[lo:hi]
        np.multiply(ids_a.take(at), n_b, out=block)
        block += rows_b[s:e].repeat(p)
        s = e if edges[e] == hi else e - 1


def _pack_keys(bit_columns: np.ndarray) -> np.ndarray:
    """Collapse an ``(n, K)`` 0/1 array, ``K > 64``, into one sortable key per row.

    Keys are the rows packed into bytes via ``numpy.packbits``, then viewed
    as a void dtype so sorting and searching treat each row as one scalar.
    (``K <= 64`` keys are plain integers, see :class:`KeyTable`.)
    """
    # packbits preserves the input's memory order; a column gather can be
    # F-ordered, and the void view below needs a contiguous last axis.
    packed = np.ascontiguousarray(np.packbits(bit_columns, axis=1))
    return packed.view([("", packed.dtype)] * packed.shape[1]).ravel()


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Flat start offsets of the distinct-key runs along the last axis of a
    sorted key array (a new row of a 2-D array always starts a run)."""
    change = np.ones(sorted_keys.shape, dtype=bool)
    change[..., 1:] = sorted_keys[..., 1:] != sorted_keys[..., :-1]
    return np.flatnonzero(change)


def _sort_tables(keys: np.ndarray, key_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Stably sort every row of the ``(L, n)`` key array: ``(sorted keys, order)``.

    Where ``key_bits + bits(n)`` fit one word, ``key << bits(n) | row`` is
    sorted in place as plain integers — the row number breaks ties exactly
    as a stable sort does, at a fifth of the cost of ``L`` stable
    ``argsort`` calls plus their gathers.  Wider keys (and the void keys of
    ``K > 64``) take the ``argsort``.  Consumes ``keys``.
    """
    row_bits = max(keys.shape[1] - 1, 0).bit_length()
    if key_bits + row_bits > 64:
        order = np.argsort(keys, axis=1, kind="stable")
        return np.take_along_axis(keys, order, axis=1), order
    keys <<= row_bits
    keys |= np.arange(keys.shape[1], dtype=np.uint64)
    keys.sort(axis=1)
    order = keys & ((1 << row_bits) - 1)
    keys >>= row_bits
    return keys, order.view(np.int64)


class _Run(NamedTuple):
    """All tables' buckets as one sorted run — the bundle layout of
    ``keys.npy`` / ``ids.npy`` / ``table_offsets``."""

    keys: np.ndarray  # every table's sorted blocking keys, table after table
    ids: np.ndarray  # parallel row ids; within one key, in insertion order
    offsets: list[int]  # table t is [offsets[t], offsets[t + 1])

    @classmethod
    def from_keys(cls, keys: np.ndarray, key_bits: int = 64) -> "_Run":
        """An ``(L, n)`` key array as one run; ids are row numbers (consumes ``keys``)."""
        n_tables, n_rows = keys.shape
        keys, order = _sort_tables(keys, key_bits)
        return cls(keys.reshape(-1), order.reshape(-1), [t * n_rows for t in range(n_tables + 1)])

    def locate(self, probe: "Probe") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The probe's ``(table, row)`` keys that have a bucket here (flat
        indices into ``probe.rows``), and each bucket's start in its table's
        segment of ``ids`` and size — one binary search per segment for both
        ends (two for keys of 64 bits or more)."""
        segments = [self.keys[first:stop] for first, stop in zip(self.offsets, self.offsets[1:])]
        if probe.paired:  # each key and its successor: both ends in one search
            found = [seg.searchsorted(keys) for seg, keys in zip(segments, probe.keys)]
            lo, size = np.concatenate(found).reshape(-1, 2).T
        else:
            lo = np.concatenate([seg.searchsorted(k, "left") for seg, k in zip(segments, probe.keys)])
            size = np.concatenate([seg.searchsorted(k, "right") for seg, k in zip(segments, probe.keys)])
        size -= lo
        matched = size.nonzero()[0]
        return matched, lo[matched], size[matched]


def _merge_runs(old: _Run | None, new: _Run) -> _Run:
    """Merge sorted run ``new`` into sorted run ``old`` without re-sorting.

    One binary search per table plus an ``O(len(old))`` copy; within one
    key, ``old``'s rows stay ahead of ``new``'s.
    """
    if old is None:
        return new
    spans = zip(old.offsets, old.offsets[1:], new.offsets, new.offsets[1:])
    at = np.concatenate(
        [old.keys[a:b].searchsorted(new.keys[c:d], side="right") + a for a, b, c, d in spans]
    )
    at += np.arange(at.size)  # where the new rows land in the merged run
    kept = np.ones(old.ids.size + at.size, dtype=bool)
    kept[at] = False
    keys, ids = np.empty(kept.size, dtype=old.keys.dtype), np.empty(kept.size, dtype=np.int64)
    keys[at], keys[kept] = new.keys, old.keys
    ids[at], ids[kept] = new.ids, old.ids
    return _Run(keys, ids, [a + c for a, c in zip(old.offsets, new.offsets)])


class KeyTable:
    """Byte lookup table giving every group's blocking key in one pass.

    ``lut[j][v, g]`` is what byte ``used[j]`` of a packed row, holding
    value ``v``, contributes to group ``g``'s key: sampled bit of rank
    ``r`` lands at key bit ``r``, the little-endian integer of
    :meth:`CompositeHash.key_for`.  All ``L`` keys of a matrix are then
    one row gather per used byte, OR-ed together (up to ``GATHER_KEY_ROWS``
    rows: one gather of them all and one OR-reduce).  ``K > 64`` does not
    fit the integer and keeps the per-group :func:`_pack_keys` layout.
    """

    def __init__(self, positions: Sequence[Sequence[int]]):
        self.positions = tuple(tuple(pos) for pos in positions)
        table = np.asarray(self.positions, dtype=np.int64)  # (L, K)
        self.lo, self.hi = int(table.min()), int(table.max())
        if table.shape[1] > 64:  # no integer key: keys() packs per group
            return
        self.used = np.unique(table >> 3)
        slot = np.searchsorted(self.used, table >> 3)
        groups = np.arange(table.shape[0])
        # The narrowest unsigned type holding K bits; keys() widens to uint64.
        key_type = np.min_scalar_type((1 << table.shape[1]) - 1).type
        byte_bits = (np.arange(256) >> np.arange(8)[:, None] & 1).astype(key_type)
        lut = np.zeros((self.used.size, table.shape[0], 256), dtype=key_type)
        for rank in range(table.shape[1]):  # one rank of every group at a time
            lut[slot[:, rank], groups] |= byte_bits[table[:, rank] & 7] << key_type(rank)
        self.lut = np.ascontiguousarray(lut.transpose(0, 2, 1))  # (used bytes, 256, L)
        self._flat = self.lut.reshape(-1, table.shape[0])  # used byte j's entries at j * 256
        self._slot_rows = np.arange(0, 256 * self.used.size, 256, dtype=np.intp)[:, None]

    def keys(self, matrix: BitMatrix) -> np.ndarray:
        """The ``(L, n)`` blocking keys: per group, one key per row of ``matrix``."""
        if self.lo < 0 or self.hi >= matrix.n_bits:
            raise IndexError(f"bit positions out of range for width {matrix.n_bits}")
        if len(self.positions[0]) > 64:
            return np.stack([_pack_keys(matrix.columns(pos)) for pos in self.positions])
        row_bytes = matrix.words.astype("<u8", copy=False).view(np.uint8)
        if matrix.n_rows <= GATHER_KEY_ROWS:  # every used byte's entry in one gather
            at = row_bytes.take(self.used, 1).T.astype(np.intp)
            at += self._slot_rows
            gathered = self._flat.take(at, 0, mode="clip")
            return np.bitwise_or.reduce(gathered, axis=0).T.astype(np.uint64, order="C")
        out = np.empty((len(self.positions), matrix.n_rows), dtype=np.uint64)
        block = max(1, _KEY_BLOCK_CELLS // len(self.positions))
        for lo in range(0, matrix.n_rows, block):
            used_bytes = iter(row_bytes[lo : lo + block][:, self.used].T)
            keys = self.lut[0][next(used_bytes)]
            part = np.empty_like(keys)
            for table, values in zip(self.lut[1:], used_bytes):
                # mode="clip" (a byte cannot overrun 256 rows) skips take's buffered copy
                table.take(values, 0, part, "clip")
                keys |= part
            out[:, lo : lo + block] = keys.T
        return out


@dataclass(frozen=True)
class CompositeHash:
    """A composite hash function ``h_l``: ``K`` sampled bit positions."""

    positions: tuple[int, ...]

    def key_for(self, row: np.ndarray) -> int:
        """Blocking key of one packed row (``matrix.words[i]``): the sampled
        bits packed low-endian."""
        key = 0
        for rank, pos in enumerate(self.positions):
            key |= (int(row[pos // 64]) >> pos % 64 & 1) << rank
        return key

    def keys_for(self, matrix: BitMatrix) -> np.ndarray:
        """Blocking keys for every row of ``matrix`` (a one-group key table)."""
        return KeyTable([self.positions]).keys(matrix)[0]


class Probe(NamedTuple):
    """A query batch's blocking keys, sorted once per table for whatever they
    are joined against: the bulk run and the delta run."""

    n_rows: int  # rows of the probing matrix
    keys: np.ndarray  # ``(L, n)``: each table's keys, ascending; ``(L, 2n)`` when paired
    paired: bool  # each key is followed by its successor (keys under 64 bits)
    rows: np.ndarray  # the row of each key, flat in (table, key, row) order

    @classmethod
    def from_keys(cls, keys: np.ndarray, key_bits: int = 64) -> "Probe":
        """Sort an ``(L, n)`` ``uint64`` key array once per table, for any
        number of joins (consumes ``keys``)."""
        n_rows = keys.shape[1]
        keys, rows = _sort_tables(keys, key_bits)
        paired = key_bits < 64
        if paired:  # the successor bounds a key's bucket from above: one search per table
            keys = keys.repeat(2, axis=1)
            keys[:, 1::2] += 1
        return cls(n_rows, keys, paired, rows.reshape(-1))


def _locate(runs: Sequence[_Run | None], probe: Probe, table: int | None = None) -> "Located":
    """Every table's (or ``table``'s) buckets that ``probe``'s keys match in
    ``runs``: per run, one or two binary searches per table segment.  A
    probing row is an entry of its own, so rows sharing a key repeat the
    bucket."""
    located, total, n = [], 0, probe.n_rows
    for run in runs:
        if run is None or not probe.rows.size:
            continue
        matched, start, size = run.locate(probe)
        if table is not None:
            own = slice(*matched.searchsorted((table * n, table * n + n)))
            matched, start, size = matched[own], start[own], size[own]
        if not matched.size:
            continue
        start += np.asarray(run.offsets).take(matched // n)  # segment -> run
        edges = np.zeros(matched.size + 1, dtype=np.int64)
        size.cumsum(out=edges[1:])
        total += edges.item(-1)
        start -= edges[:-1]  # the id of pair j of entry i is ids[j + start[i]]
        located.append((run.ids, (start, probe.rows.take(matched), size), edges))
    return Located(n, located, total)


def hash_keys(keys: np.ndarray) -> np.ndarray:
    """One ``uint64`` per ``(table, row)`` of an ``(L, n, K)`` ``int64`` key
    array: the ``K`` values as a polynomial in an odd multiplier, modulo
    ``2^64`` (equal keys hash equal; :func:`join_keys` drops collisions)."""
    hashed = np.zeros_like(keys[..., 0], dtype=np.uint64)  # in the keys' memory order
    for column in np.moveaxis(keys, 2, 0):
        hashed *= _HASH_MULTIPLIER
        hashed += column.view(np.uint64)
    return hashed


def join_keys(
    keys_a: np.ndarray, keys_b: np.ndarray, full_a: np.ndarray, full_b: np.ndarray
) -> np.ndarray:
    """The sort-merge join of two ``(L, n)`` ``uint64`` key arrays, one table
    at a time: raw cross-products ``a * n_B + b`` of the rows sharing a key,
    table after table (a pair once per table that formulates it).  ``full_a``
    / ``full_b`` are the ``(L, n, K)`` keys they hash (:func:`hash_keys`): a
    table's pairs whose full keys differ are dropped before the next table is
    joined, so a hash collision formulates no pair."""
    kept = [np.empty(0, dtype=np.int64)]
    for t in range(keys_b.shape[0]):
        run = _Run.from_keys(keys_a[t : t + 1].copy())
        pairs = _locate([run], Probe.from_keys(keys_b[t : t + 1].copy())).expand()
        rows_a, rows_b = decode_pairs(pairs, keys_b.shape[1])
        kept.append(pairs.compress((full_a[t].take(rows_a, 0) == full_b[t].take(rows_b, 0)).all(1)))
    return np.concatenate(kept)


class TableRuns:
    """The ``L`` bucket tables of one index, held as one object.

    An LSM-style pair of sorted runs (:class:`_Run`): the **bulk run**
    (:meth:`index`, or snapshot arrays adopted whole by :meth:`adopt`) and
    a small **delta run** for streaming inserts (:meth:`insert_rows`).
    Both are what the sort-merge join consumes, so :meth:`join` probes a
    freshly inserted row like a bulk-loaded one — no dict of buckets, no
    per-bucket or per-table loop beyond the segment binary searches.
    Within one key, ids keep bulk-then-insertion order (every sort and
    merge here is stable).  ``groups[t]`` is a view of table ``t``.
    Records enter only as matrices (:meth:`index`, :meth:`insert_rows`) and
    are matched only as matrices: a one-record query is a one-row probe.
    """

    #: Width every matrix must have; ``None`` accepts any that holds the positions.
    n_bits: int | None = None

    def __init__(self, composites: Sequence[CompositeHash]):
        self.composites = list(composites)
        self._bulk: _Run | None = None
        self._delta: _Run | None = None
        self._key_table: KeyTable | None = None

    @property
    def groups(self) -> list["BlockingGroup"]:
        """A view per table, made on demand (the tables hold no reference back)."""
        return [BlockingGroup(c, self, t) for t, c in enumerate(self.composites)]

    @property
    def n_tables(self) -> int:
        return len(self.composites)

    def _keys(self, matrix: BitMatrix) -> np.ndarray:
        """Every group's blocking keys of ``matrix``, from one shared key table:
        built on first use from the groups' sampled positions, dropped when a
        group's ``composite`` is reassigned."""
        if self.n_bits not in (None, matrix.n_bits):
            raise ValueError(f"width mismatch: matrix {matrix.n_bits} vs index {self.n_bits}")
        if self._key_table is None:
            self._key_table = KeyTable([composite.positions for composite in self.composites])
        return self._key_table.keys(matrix)

    def _sorted_run(self, matrix: BitMatrix) -> _Run:
        """``matrix``'s blocking keys of every table, stably sorted; ids are its row numbers."""
        return _Run.from_keys(self._keys(matrix), len(self.composites[0].positions))

    # -- building ------------------------------------------------------------------

    def index(self, matrix: BitMatrix) -> None:
        """Bulk-load every row of ``matrix``; ids continue from the rows held."""
        first = sum(run.offsets[1] for run in (self._bulk, self._delta) if run is not None)
        run = self._sorted_run(matrix)
        np.add(run.ids, first, out=run.ids)
        self._bulk = _merge_runs(self._bulk, run)

    def insert_rows(self, matrix: BitMatrix, ids: np.ndarray) -> None:
        """Streaming insert: merge ``matrix``'s rows into the delta run — one key
        pass, one binary search per table, one ``O(delta)`` copy; the (possibly
        memory-mapped) bulk run is never touched."""
        run = self._sorted_run(matrix)
        self._delta = _merge_runs(self._delta, run._replace(ids=np.asarray(ids, np.int64)[run.ids]))

    def adopt(self, keys: np.ndarray, ids: np.ndarray, offsets: Sequence[int]) -> None:
        """Take :meth:`export`'s arrays as the bulk run (snapshot load: no hashing,
        no sort).  They may be read-only memory maps: nothing here copies or
        mutates them (``asarray`` only sheds the slow ``memmap`` indexing)."""
        self._bulk, self._delta = _Run(np.asarray(keys), np.asarray(ids), list(offsets)), None

    def export(self) -> _Run:
        """Both runs as one, the delta merged in *here* — a snapshot loaded from
        these arrays never re-sorts.  Within one key, bulk ids precede delta ids."""
        if self._bulk is None and self._delta is None:  # empty arrays of the key dtype
            width = max(max(composite.positions) for composite in self.composites) + 1
            return self._sorted_run(BitMatrix.zeros(0, width))
        return self._bulk if self._delta is None else _merge_runs(self._bulk, self._delta)

    # -- the candidate join ----------------------------------------------------------

    def probe(self, matrix_b: BitMatrix) -> Probe:
        """Sort ``matrix_b``'s keys of every table once, for any number of joins."""
        return Probe.from_keys(self._keys(matrix_b), len(self.composites[0].positions))

    def locate(self, probe: Probe, table: int | None = None) -> "Located":
        """Every table's (or ``table``'s) buckets that ``probe``'s keys match, in
        both runs (:func:`_locate`)."""
        return _locate((self._bulk, self._delta), probe, table)

    def join(self, probe: Probe, table: int | None = None) -> np.ndarray:
        """Raw cross-products ``a * n_B + b`` of every table's (or ``table``'s)
        buckets, in one buffer: :meth:`locate`, then :meth:`Located.expand`."""
        return self.locate(probe, table).expand()


class Located(NamedTuple):
    """A probe's matched buckets in the runs of one index, not yet expanded."""

    n_rows: int  # rows of the probing matrix
    #: Per run with a match: its ids, the entries ``(shift, rows_b, sizes)``
    #: and the pair offsets ``edges`` of :func:`_bucket_products`.
    runs: list[tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]]
    n_pairs: int  # raw pairs :meth:`expand` writes

    def expand(self) -> np.ndarray:
        """Raw cross-products ``a * n_B + b`` of the buckets, in one buffer
        allocated once at its final size: bulk run first, then the delta run
        (:func:`_bucket_products`)."""
        out = np.empty(self.n_pairs, dtype=np.int64)
        at = 0
        for ids_a, buckets, edges in self.runs:
            stop = at + edges.item(-1)
            _bucket_products(ids_a, self.n_rows, buckets, edges, out[at:stop])
            at = stop
        return out

    @property
    def max_product(self) -> int:
        """The largest bucket's ``count_a * count_b`` (0 when none matched): the
        entries of one bucket are adjacent and share its start."""
        largest = 0
        for __, (shift, __, sizes), edges in self.runs:
            first = np.flatnonzero(np.diff(shift + edges[:-1], prepend=-1))
            rows = np.diff(first, append=sizes.size)
            largest = max(largest, int((sizes[first] * rows).max()))
        return largest


class BlockingGroup:
    """One blocking group ``T_l``: a composite hash plus its bucket table.

    A view of table ``table`` of a :class:`TableRuns` (a one-table one of
    its own when constructed standalone).  ``composite`` is assignable;
    the tables of one index always hold the same rows, so inserting
    through any group inserts into every table.
    """

    def __init__(self, composite: CompositeHash, tables: TableRuns | None = None, table: int = 0):
        self._tables = TableRuns([composite]) if tables is None else tables
        self._table = table

    @property
    def composite(self) -> CompositeHash:
        return self._tables.composites[self._table]

    @composite.setter
    def composite(self, composite: CompositeHash) -> None:
        self._tables.composites[self._table] = composite
        self._tables._key_table = None  # keys follow the new positions

    def _segments(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """This table's ``(keys, ids)`` slice of the runs held, bulk first."""
        for run in (self._tables._bulk, self._tables._delta):
            if run is not None:
                span = slice(run.offsets[self._table], run.offsets[self._table + 1])
                yield run.keys[span], run.ids[span]

    @property
    def n_rows(self) -> int:
        """Rows held across both runs."""
        return sum(int(ids.size) for __, ids in self._segments())

    def insert_matrix(self, matrix: BitMatrix) -> None:
        """Bulk-load every row of ``matrix``; ids continue from the rows held."""
        self._tables.index(matrix)

    def insert_rows(self, matrix: BitMatrix, ids: np.ndarray) -> None:
        """Streaming insert of ``matrix``'s rows into the delta run."""
        self._tables.insert_rows(matrix, ids)

    def join_products(self, matrix_b: BitMatrix) -> np.ndarray:
        """Raw cross-products ``a * n_B + b`` of this group against ``matrix_b``."""
        return self._tables.join(self._tables.probe(matrix_b), table=self._table)

    # -- snapshot state --------------------------------------------------------

    def export_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This table's ``(sorted_keys, ids, run_starts)`` with the delta folded in."""
        run = self._tables.export()
        span = slice(run.offsets[self._table], run.offsets[self._table + 1])
        return run.keys[span], run.ids[span], run_starts(run.keys[span])

    @classmethod
    def from_arrays(
        cls, composite: CompositeHash, keys: np.ndarray, ids: np.ndarray, bounds: np.ndarray
    ) -> "BlockingGroup":
        """A standalone group over :meth:`export_arrays`' output (no hashing, no
        sort, no copy; read-only maps are fine).  ``bounds`` is derivable from
        ``keys`` and is not kept."""
        group = cls(composite)
        group._tables.adopt(keys, ids, [0, int(ids.size)])
        return group

    @property
    def n_buckets(self) -> int:
        return int(self.export_arrays()[2].size)

    def bucket_sizes(self) -> np.ndarray:
        """Sizes of all buckets, in key order — selectivity diagnostics."""
        keys, __, bounds = self.export_arrays()
        return np.diff(bounds, append=keys.size).astype(np.int64)


class HammingLSH(TableRuns):
    """The HB blocking/matching mechanism over a compact Hamming space.

    Parameters
    ----------
    n_bits:
        Width of the embedded vectors.
    k:
        Number of base hash functions per composite hash (``K``).
    threshold:
        Hamming distance ``theta`` defining "similar".  Used to derive the
        optimal ``L`` via Equation (2) unless ``n_tables`` overrides it.
    delta:
        Allowed miss probability (``1 - delta`` recall guarantee).
    n_tables:
        Explicit ``L``; when ``None`` it is computed from Equation (2).
    seed:
        Seed for sampling the base hash positions.

    Examples
    --------
    >>> lsh = HammingLSH(n_bits=120, k=30, threshold=4, delta=0.1, seed=7)
    >>> lsh.n_tables
    6
    """

    def __init__(
        self,
        n_bits: int,
        k: int,
        threshold: int | None = None,
        delta: float = 0.1,
        n_tables: int | None = None,
        seed: int | None = None,
    ):
        if k < 1:
            raise ValueError(f"K must be >= 1, got {k}")
        if threshold is None and n_tables is None:
            raise ValueError("provide threshold (for Equation 2) or an explicit n_tables")
        self.n_bits = n_bits
        self.k = k
        self.threshold = threshold
        self.delta = delta
        if n_tables is None:
            __, n_tables = hamming_lsh_parameters(threshold, n_bits, k, delta)
        if n_tables < 1:
            raise ValueError(f"L must be >= 1, got {n_tables}")
        rng = np.random.default_rng(seed)
        sampled = [sample_positions(n_bits, k, rng) for __ in range(n_tables)]
        super().__init__([CompositeHash(positions) for positions in sampled])

    @classmethod
    def from_state(
        cls,
        n_bits: int,
        k: int,
        positions: Sequence[Sequence[int]],
        threshold: int | None = None,
        delta: float = 0.1,
    ) -> "HammingLSH":
        """Rebuild an LSH from explicit per-table sampled bit positions.

        The snapshot-load constructor: every table's ``K`` positions are
        adopted verbatim, so a persisted index keeps producing the exact
        blocking keys it was built with.  The tables come back empty;
        attach their arrays via :meth:`TableRuns.adopt`.
        """
        if not positions:
            raise ValueError("positions must name at least one table")
        for table, pos in enumerate(positions):
            if len(pos) != k:
                raise ValueError(f"table {table} has {len(pos)} positions, expected K={k}")
            if not all(0 <= int(p) < n_bits for p in pos):
                raise ValueError(f"table {table} samples a bit out of range for width {n_bits}")
        lsh = cls(n_bits, k, threshold, delta, len(positions), 0)
        TableRuns.__init__(lsh, [CompositeHash(tuple(int(p) for p in pos)) for pos in positions])
        return lsh

    # -- candidate generation ------------------------------------------------------

    def candidate_pairs(
        self, matrix_b: BitMatrix, counters: dict[str, float] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """De-duplicated candidate pairs ``(rows_a, rows_b)`` between the indexed
        dataset and ``matrix_b``, sorted by encoded pair id ``a * n_B + b``.

        Algorithm 2's ``UniqueCollection`` dataset-at-a-time: one probe, one
        join into one raw-pair buffer, de-duplicated in place
        (:func:`sorted_unique`), so the raw pairs are held once.  ``counters``
        receives ``pairs_generated`` (raw products), ``pairs_unique``,
        ``pairs_duplicates`` and ``max_bucket_product``.
        """
        located = self.locate(self.probe(matrix_b))
        pairs = sorted_unique(located.expand())
        if counters is not None:
            counters.update(_generation_counters(located.n_pairs, pairs.size, located.max_product))
        return decode_pairs(pairs, matrix_b.n_rows)

    # -- matching ------------------------------------------------------------------

    def match(
        self,
        words_a: "np.ndarray | BitMatrix",
        matrix_b: BitMatrix,
        threshold: int | None = None,
        counters: dict[str, float] | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Algorithm 2: block ``matrix_b`` against the index, keep ``d_H <= threshold``.

        The one threshold-match kernel, over the row blocks of
        :func:`match_blocks`: per block one probe, one join, in-place de-dup
        (:func:`sorted_unique`) and the blocked decode / XOR / popcount /
        filter of :func:`~repro.hamming.distance.verify_pairs`; the blocks'
        matches are then put in ``a * n_B + b`` order (one block is already
        in it).  ``words_a`` holds the indexed rows' packed words (a
        :class:`BitMatrix` is taken for its ``words``; a read-only memory
        map is fine — only candidate rows are gathered).  Returns ``(rows_a, rows_b, distances)`` of the accepted pairs;
        ``counters`` receives :meth:`candidate_pairs`' counters summed over
        the blocks — ``max_bucket_product`` is the largest product within
        one block — and ``pairs_verified``.
        """
        if threshold is None:
            threshold = self.threshold
        if threshold is None:
            raise ValueError("no matching threshold available")
        words_a = np.asarray(getattr(words_a, "words", words_a))
        generated = unique = largest = 0

        def verified(lo: int, block: BitMatrix, located: Located) -> tuple[np.ndarray, ...]:
            nonlocal generated, unique, largest
            generated += located.n_pairs
            if counters is not None:  # a reduction over the buckets: only when asked for
                largest = max(largest, located.max_product)
            pairs = sorted_unique(located.expand())
            unique += pairs.size
            rows_a, rows_b, dist = verify_pairs(
                words_a, block.words, (pairs, block.n_rows), threshold
            )
            if lo:
                rows_b += lo
            return rows_a, rows_b, dist

        out_a, out_b, dist = match_blocks(
            matrix_b, self.n_tables, lambda block: self.locate(self.probe(block)), verified
        )
        if counters is not None:
            counters.update(_generation_counters(generated, unique, largest))
            counters["pairs_verified"] = float(unique)
        return out_a, out_b, dist

    # -- diagnostics -----------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Bucket statistics across groups (selectivity diagnostics)."""
        sizes = np.concatenate([group.bucket_sizes() for group in self.groups])
        mean, largest = (float(sizes.mean()), float(sizes.max())) if sizes.size else (0.0, 0.0)
        counts = {"n_tables": float(self.n_tables), "n_buckets": float(sizes.size)}
        return {**counts, "mean_bucket": mean, "max_bucket": largest}


def sample_positions(n_bits: int, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Sample ``K`` base-hash bit positions uniformly (with replacement)."""
    return tuple(int(b) for b in rng.integers(0, n_bits, size=k))
