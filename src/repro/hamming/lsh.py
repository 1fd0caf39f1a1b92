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

The implementation is vectorised: blocking keys for a whole
:class:`~repro.hamming.bitmatrix.BitMatrix` are produced for all groups in
one pass over its bytes, every group stores its ids sorted by key — a bulk run
plus a small delta run for streaming inserts, no Python dict of buckets
— matching buckets are found with a sort-merge join (two binary
searches per distinct probe key and run) and expanded with gather
arithmetic, and the candidate-pair stream is de-duplicated over
encoded pair ids — semantically identical to Algorithm 2's
``UniqueCollection`` but dataset-at-a-time.

De-duplication is *memory-bounded*: instead of materialising every
bucket's cross-product before a single global ``numpy.unique`` (which
blows up on skewed buckets), :meth:`HammingLSH.candidate_chunks` buffers
raw products only up to a configurable ``max_chunk_pairs`` budget, then
flushes a chunk — de-duplicated against everything already emitted via a
vectorised sorted merge.  Peak transient memory is ``O(max_chunk_pairs +
n_unique_candidates)`` rather than ``O(sum of raw cross-products)``.

Within the stage pipeline (``repro.pipeline``), :meth:`HammingLSH.index`
backs the shared ``BlockerIndexStage`` and :meth:`candidate_chunks` /
:meth:`candidate_pairs` feed the ``ChunkedCandidateStage`` /
``MaterializedCandidateStage`` pair — the same blocker serves cBV-HB,
BfH and the streaming linker.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.bitvector import BitVector
from repro.hamming.theory import hamming_lsh_parameters


#: One sorted run of a blocking group: ``(sorted keys, parallel row ids)``.
_Run = tuple[np.ndarray, np.ndarray]

#: ``rows x groups`` keys computed per pass of :meth:`KeyTable.keys`: 512 kB of
#: ``uint64``, so the gathered rows stay cache-resident (half the wall of one pass).
_KEY_BLOCK_CELLS = 1 << 16


def _split_out_fresh(chunk: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """Elements of sorted ``chunk`` absent from sorted ``seen``."""
    if not seen.size:
        return chunk
    pos = np.searchsorted(seen, chunk)
    in_range = pos < seen.size
    dup = in_range.copy()
    dup[in_range] = seen[pos[in_range]] == chunk[in_range]
    return chunk[~dup]


def _sorted_merge(seen: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """Merge two sorted, disjoint int64 arrays in ``O(n)`` without re-sorting."""
    if not seen.size:
        return fresh
    if not fresh.size:
        return seen
    out = np.empty(seen.size + fresh.size, dtype=np.int64)
    at = np.searchsorted(seen, fresh) + np.arange(fresh.size, dtype=np.int64)
    mask = np.zeros(out.size, dtype=bool)
    mask[at] = True
    out[mask] = fresh
    out[~mask] = seen
    return out


def sorted_unique(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The distinct values of ``parts`` concatenated, ascending.

    Sort, then drop repeats: steady and ~30x faster than the hash-table
    path ``np.unique`` takes on int64 (numpy >= 2.3) at a million pairs.
    """
    merged = np.concatenate(parts)
    merged.sort()
    keep = np.ones(merged.size, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def _generation_stats() -> dict[str, float]:
    """Fresh zeroed candidate-generation counters."""
    return {
        "pairs_generated": 0.0,
        "pairs_unique": 0.0,
        "pairs_duplicates": 0.0,
        "n_chunks": 0.0,
        "peak_chunk_pairs": 0.0,
        "max_bucket_product": 0.0,
    }


def _sliced_product(
    rows_a: np.ndarray, rows_b: np.ndarray, n_b: int, budget: int
) -> Iterator[np.ndarray]:
    """Cross-product of one oversized bucket in slices of ``<= budget`` pairs."""
    a_step = min(int(rows_a.size), budget)
    for a_lo in range(0, int(rows_a.size), a_step):
        sub_a = rows_a[a_lo : a_lo + a_step]
        b_step = max(1, budget // int(sub_a.size))
        for b_lo in range(0, int(rows_b.size), b_step):
            sub_b = rows_b[b_lo : b_lo + b_step]
            yield np.repeat(sub_a, sub_b.size) * n_b + np.tile(sub_b, sub_a.size)


def _join_products(
    keys_a: np.ndarray,
    ids_a: np.ndarray,
    sorted_keys_b: np.ndarray,
    order_b: np.ndarray,
    boundaries_b: np.ndarray,
    n_b: int,
    budget: int | None,
    stats: dict[str, float],
) -> Iterator[np.ndarray]:
    """Sort-merge join of one group's bulk index against the ``B`` keys.

    Matching buckets are located with two binary searches per distinct
    ``B`` key, then their cross-products are expanded with pure gather
    arithmetic — no per-bucket Python loop.  Consecutive buckets are
    emitted together in segments whose total product fits the budget; a
    single bucket larger than the budget is emitted in slices.
    """
    if boundaries_b.size == 0:
        return
    unique_b = sorted_keys_b[boundaries_b]
    run_ends = np.r_[boundaries_b[1:], sorted_keys_b.size]
    lo = np.searchsorted(keys_a, unique_b, side="left")
    hi = np.searchsorted(keys_a, unique_b, side="right")
    matched = hi > lo
    if not bool(matched.any()):
        return
    count_a = (hi - lo)[matched]
    start_a = lo[matched]
    start_b = boundaries_b[matched]
    count_b = (run_ends - boundaries_b)[matched]
    products = count_a * count_b
    stats["pairs_generated"] += float(products.sum())
    stats["max_bucket_product"] = max(stats["max_bucket_product"], float(products.max()))

    def expand(s: int, e: int) -> np.ndarray:
        """Concatenated cross-products of buckets ``s..e`` (a-major order)."""
        p = products[s:e]
        total = int(p.sum())
        offsets = np.cumsum(p) - p
        within = np.arange(total, dtype=np.int64) - np.repeat(offsets, p)
        cb = np.repeat(count_b[s:e], p)
        a_off = within // cb
        b_off = within - a_off * cb
        rows_a = ids_a[np.repeat(start_a[s:e], p) + a_off]
        rows_b = order_b[np.repeat(start_b[s:e], p) + b_off]
        return rows_a * n_b + rows_b

    n_buckets = int(products.size)
    if budget is None:
        yield expand(0, n_buckets)
        return
    cumulative = np.cumsum(products)
    start = 0
    floor = 0
    while start < n_buckets:
        end = int(np.searchsorted(cumulative, floor + budget, side="right"))
        if end > start:
            yield expand(start, end)
        else:
            rows_a = ids_a[start_a[start] : start_a[start] + count_a[start]]
            rows_b = order_b[start_b[start] : start_b[start] + count_b[start]]
            yield from _sliced_product(rows_a, rows_b, n_b, budget)
            end = start + 1
        floor = int(cumulative[end - 1])
        start = end


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


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start offsets of the distinct-key runs of a sorted key array."""
    if not sorted_keys.size:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.r_[True, sorted_keys[1:] != sorted_keys[:-1]])


def _merge_runs(old: _Run | None, new: _Run) -> _Run:
    """Merge sorted run ``new`` into sorted run ``old`` without re-sorting.

    One binary search per new row plus an ``O(len(old))`` copy; within
    one key, ``old``'s rows stay ahead of ``new``'s.
    """
    if old is None:
        return new
    at = np.searchsorted(old[0], new[0], side="right")
    return np.insert(old[0], at, new[0]), np.insert(old[1], at, new[1])


class KeyTable:
    """Byte lookup table giving every group's blocking key in one pass.

    ``lut[j][v, g]`` is what byte ``used[j]`` of a packed row, holding
    value ``v``, contributes to group ``g``'s key: sampled bit of rank
    ``r`` lands at key bit ``r``, the little-endian integer of
    :meth:`CompositeHash.key_for`.  All ``L`` keys of a matrix are then
    one row gather per used byte, OR-ed together.  ``K > 64`` does not
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
        self.lut = np.ascontiguousarray(lut.transpose(0, 2, 1))

    def keys(self, matrix: BitMatrix) -> Sequence[np.ndarray]:
        """Per group, the blocking key of every row of ``matrix``."""
        if self.lo < 0 or self.hi >= matrix.n_bits:
            raise IndexError(f"bit positions out of range for width {matrix.n_bits}")
        if len(self.positions[0]) > 64:
            return [_pack_keys(matrix.columns(pos)) for pos in self.positions]
        row_bytes = matrix.words.astype("<u8", copy=False).view(np.uint8)
        out = np.empty((len(self.positions), matrix.n_rows), dtype=np.uint64)
        block = max(1, _KEY_BLOCK_CELLS // len(self.positions))
        for lo in range(0, matrix.n_rows, block):
            used_bytes = row_bytes[lo : lo + block][:, self.used]
            keys = self.lut[0][used_bytes[:, 0]]
            part = np.empty_like(keys)
            for j in range(1, self.used.size):
                # mode="clip" (a byte cannot overrun 256 rows) skips take's buffered copy
                keys |= np.take(self.lut[j], used_bytes[:, j], axis=0, out=part, mode="clip")
            out[:, lo : lo + block] = keys.T
        return out


@dataclass(frozen=True)
class CompositeHash:
    """A composite hash function ``h_l``: ``K`` sampled bit positions."""

    positions: tuple[int, ...]

    def key_for(self, vector: BitVector) -> int:
        """Blocking key of a single vector (low-endian packed sample bits)."""
        key = 0
        for rank, pos in enumerate(self.positions):
            key |= vector[pos] << rank
        return key

    def keys_for(self, matrix: BitMatrix) -> np.ndarray:
        """Blocking keys for every row of ``matrix`` (a one-group key table)."""
        return KeyTable([self.positions]).keys(matrix)[0]


class BlockingGroup:
    """One blocking group ``T_l``: a composite hash plus its bucket table.

    The table is an LSM-style pair of sorted runs, each a key array next
    to its parallel row-id array: the **bulk run** (:meth:`insert_matrix`,
    or memory-mapped snapshot arrays) and a small **delta run** that
    takes streaming inserts (:meth:`insert_rows`).  Both are exactly what
    the sort-merge candidate join consumes, so :meth:`join_products`
    probes a freshly inserted row the same way as a bulk-loaded one — no
    Python dict of buckets, no per-bucket loop.  Within one key, ids keep
    bulk-then-insertion order (every sort and merge here is stable).
    """

    def __init__(self, composite: CompositeHash):
        self.composite = composite
        self._bulk: _Run | None = None  # (sorted blocking keys, parallel row ids)
        self._bounds: np.ndarray | None = None  # cached run starts of the bulk keys
        self._delta: _Run | None = None  # streaming inserts, same layout

    def _runs(self) -> list[_Run]:
        """The runs held, bulk first."""
        return [run for run in (self._bulk, self._delta) if run is not None]

    @property
    def n_rows(self) -> int:
        """Rows held across both runs."""
        return sum(int(ids.size) for __, ids in self._runs())

    def _sorted_run(self, matrix: BitMatrix, ids: np.ndarray, keys: np.ndarray | None) -> _Run:
        """``matrix``'s blocking keys, stably sorted, with their ids.

        ``keys``, here and below, are this group's keys of ``matrix`` when
        the caller computed all groups' at once; ``None`` computes them.
        """
        if keys is None:
            keys = self.composite.keys_for(matrix)
        order = np.argsort(keys, kind="stable")
        return keys[order], np.asarray(ids, dtype=np.int64)[order]

    def insert_matrix(self, matrix: BitMatrix, keys: np.ndarray | None = None) -> None:
        """Bulk-load every row of ``matrix``; ids continue from the rows held."""
        first = self.n_rows
        ids = np.arange(first, first + matrix.n_rows, dtype=np.int64)
        self._bulk = _merge_runs(self._bulk, self._sorted_run(matrix, ids, keys))
        self._bounds = None

    def insert_rows(
        self, matrix: BitMatrix, ids: np.ndarray, keys: np.ndarray | None = None
    ) -> None:
        """Streaming insert: merge ``matrix``'s rows into the delta run.

        One ``searchsorted`` plus an ``O(delta)`` copy per batch; the
        (possibly memory-mapped) bulk run is never touched.
        """
        self._delta = _merge_runs(self._delta, self._sorted_run(matrix, ids, keys))

    def insert(self, vector: BitVector, record_id: int) -> None:
        """Insert a single vector — the 1-row case of :meth:`insert_rows`."""
        self.insert_rows(BitMatrix.from_vectors([vector]), np.asarray([record_id]))

    def join_products(
        self,
        matrix_b: BitMatrix,
        budget: int | None = None,
        stats: dict[str, float] | None = None,
        keys: np.ndarray | None = None,
    ) -> Iterator[np.ndarray]:
        """Raw cross-products ``a * n_B + b`` of this group against ``matrix_b``.

        The one candidate join: ``matrix_b``'s keys are sorted once and
        merge-joined (:func:`_join_products`) against the bulk run and
        the delta run in turn.  No materialised array exceeds ``budget``;
        ``stats`` accumulates the :func:`_generation_stats` counters.
        """
        if stats is None:
            stats = _generation_stats()
        sorted_keys, order = self._sorted_run(matrix_b, np.arange(matrix_b.n_rows), keys)
        boundaries = _run_starts(sorted_keys)
        for run_keys, ids in self._runs():
            yield from _join_products(
                run_keys, ids, sorted_keys, order, boundaries, matrix_b.n_rows, budget, stats
            )

    # -- snapshot state --------------------------------------------------------

    def export_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bulk state ``(sorted_keys, ids, run_starts)`` with the delta folded in.

        The delta run is merged into the sorted bulk representation
        *here*, at export time — a snapshot loaded from these arrays
        never needs to re-sort.  Within one key, bulk ids keep preceding
        delta ids (the :meth:`bucket` order).
        """
        run = self._bulk if self._delta is None else _merge_runs(self._bulk, self._delta)
        if run is None:  # nothing held: empty arrays of this composite's key dtype
            no_rows = BitMatrix.zeros(0, max(self.composite.positions) + 1)
            run = self._sorted_run(no_rows, np.empty(0, dtype=np.int64), None)
        keys, ids = run
        if self._delta is not None:
            return keys, ids, _run_starts(keys)
        if self._bounds is None:
            self._bounds = _run_starts(keys)
        return keys, ids, self._bounds

    @classmethod
    def from_arrays(
        cls,
        composite: CompositeHash,
        keys: np.ndarray,
        ids: np.ndarray,
        bounds: np.ndarray,
    ) -> "BlockingGroup":
        """Adopt pre-sorted bulk arrays (snapshot load: no hashing, no sort).

        ``keys``/``ids``/``bounds`` must be the output of
        :meth:`export_arrays`; they may be read-only memory-mapped views
        — nothing here copies or mutates them.
        """
        group = cls(composite)
        group._bulk = (keys, ids)
        group._bounds = bounds
        return group

    def bucket(self, key: int) -> list[int]:
        """The id list under ``key`` (:meth:`CompositeHash.key_for`'s integer).

        Bulk ids first, then delta ids in insertion order; empty when absent.
        """
        k = len(self.composite.positions)
        if k <= 64:
            probe = np.uint64(key)  # the low-endian integer is the packed key itself
        else:
            raw = np.frombuffer(int(key).to_bytes((k + 7) // 8, "little"), dtype=np.uint8)
            probe = _pack_keys(np.unpackbits(raw, bitorder="little")[None, :k])[0]
        out: list[int] = []
        for keys, ids in self._runs():
            lo, hi = keys.searchsorted(probe, "left"), keys.searchsorted(probe, "right")
            out += ids[lo:hi].tolist()
        return out

    def probe(self, vector: BitVector) -> list[int]:
        """Ids sharing this group's bucket with ``vector``."""
        return self.bucket(self.composite.key_for(vector))

    @property
    def n_buckets(self) -> int:
        return int(self.export_arrays()[2].size)

    def bucket_sizes(self) -> np.ndarray:
        """Sizes of all buckets, in key order — selectivity diagnostics."""
        keys, __, bounds = self.export_arrays()
        return np.diff(np.r_[bounds, keys.size]).astype(np.int64)


class HammingLSH:
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
    max_chunk_pairs:
        Candidate-generation memory budget: raw bucket cross-products are
        buffered up to this many encoded pairs before being de-duplicated
        and emitted as one chunk.  ``None`` (default) buffers everything
        and emits a single chunk.  The candidate *set* is identical for
        every budget; only peak memory and chunking change.

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
        max_chunk_pairs: int | None = None,
    ):
        if k < 1:
            raise ValueError(f"K must be >= 1, got {k}")
        if threshold is None and n_tables is None:
            raise ValueError("provide threshold (for Equation 2) or an explicit n_tables")
        if max_chunk_pairs is not None and max_chunk_pairs < 1:
            raise ValueError(f"max_chunk_pairs must be >= 1, got {max_chunk_pairs}")
        self.n_bits = n_bits
        self.k = k
        self.threshold = threshold
        self.delta = delta
        self.max_chunk_pairs = max_chunk_pairs
        if n_tables is None:
            __, n_tables = hamming_lsh_parameters(threshold, n_bits, k, delta)
        if n_tables < 1:
            raise ValueError(f"L must be >= 1, got {n_tables}")
        rng = np.random.default_rng(seed)
        self.groups = [
            BlockingGroup(
                CompositeHash(tuple(int(b) for b in rng.integers(0, n_bits, size=k)))
            )
            for __ in range(n_tables)
        ]
        self._key_table: KeyTable | None = None

    @property
    def n_tables(self) -> int:
        return len(self.groups)

    @classmethod
    def from_state(
        cls,
        n_bits: int,
        k: int,
        positions: Sequence[Sequence[int]],
        threshold: int | None = None,
        delta: float = 0.1,
        max_chunk_pairs: int | None = None,
    ) -> "HammingLSH":
        """Rebuild an LSH from explicit per-table sampled bit positions.

        This is the snapshot-load constructor: instead of drawing fresh
        base hash functions from a seed, every table's ``K`` positions
        are adopted verbatim, so a persisted index keeps producing the
        exact blocking keys it was built with.  The groups come back
        empty; attach their bulk arrays via
        :meth:`BlockingGroup.from_arrays`.
        """
        if not positions:
            raise ValueError("positions must name at least one table")
        for table, pos in enumerate(positions):
            if len(pos) != k:
                raise ValueError(
                    f"table {table} has {len(pos)} positions, expected K={k}"
                )
            for p in pos:
                if not 0 <= int(p) < n_bits:
                    raise ValueError(
                        f"table {table} samples bit {p}, out of range for width {n_bits}"
                    )
        lsh = cls(
            n_bits=n_bits,
            k=k,
            threshold=threshold,
            delta=delta,
            n_tables=len(positions),
            seed=0,
            max_chunk_pairs=max_chunk_pairs,
        )
        lsh.groups = [
            BlockingGroup(CompositeHash(tuple(int(p) for p in pos))) for pos in positions
        ]
        return lsh

    # -- indexing ---------------------------------------------------------------

    def index(self, matrix: BitMatrix) -> None:
        """Store every row of ``matrix`` (dataset A) in all blocking groups."""
        if matrix.n_bits != self.n_bits:
            raise ValueError(f"width mismatch: matrix {matrix.n_bits} vs LSH {self.n_bits}")
        for group, keys in zip(self.groups, self._keys(matrix)):
            group.insert_matrix(matrix, keys)

    def insert_rows(self, matrix: BitMatrix, ids: np.ndarray) -> None:
        """Streaming insert of ``matrix``'s rows under the given record ids."""
        if matrix.n_bits != self.n_bits:
            raise ValueError(f"width mismatch: matrix {matrix.n_bits} vs LSH {self.n_bits}")
        for group, keys in zip(self.groups, self._keys(matrix)):
            group.insert_rows(matrix, ids, keys)

    def _keys(self, matrix: BitMatrix) -> Sequence[np.ndarray]:
        """Every group's blocking keys of ``matrix``, from one shared key table:
        built on first use from the groups' sampled positions, rebuilt when
        those change (snapshot load and shard merge reassign ``groups``)."""
        positions = tuple(group.composite.positions for group in self.groups)
        if self._key_table is None or self._key_table.positions != positions:
            self._key_table = KeyTable(positions)
        return self._key_table.keys(matrix)

    def insert(self, vector: BitVector, record_id: int) -> None:
        """Streaming insert of a single record (the 1-row :meth:`insert_rows`)."""
        if vector.n_bits != self.n_bits:
            raise ValueError(f"width mismatch: vector {vector.n_bits} vs LSH {self.n_bits}")
        self.insert_rows(BitMatrix.from_vectors([vector]), np.asarray([record_id]))

    # -- candidate generation ------------------------------------------------------

    def query(self, vector: BitVector) -> list[int]:
        """Unique indexed ids co-bucketed with ``vector`` in any group.

        This is Algorithm 2's outer loop for one query record, including
        its ``UniqueCollection`` de-duplication.
        """
        seen: set[int] = set()
        out: list[int] = []
        for group in self.groups:
            for rid in group.probe(vector):
                if rid not in seen:
                    seen.add(rid)
                    out.append(rid)
        return out

    def candidate_pairs(
        self, matrix_b: BitMatrix, counters: dict[str, float] | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """De-duplicated candidate pairs between the indexed dataset and ``matrix_b``.

        Returns parallel arrays ``(rows_a, rows_b)``, sorted by encoded
        pair id.  Pairs co-bucketed in several groups appear once
        (Algorithm 2's de-duplication).  Generation runs through the
        memory-bounded chunk stream when ``max_chunk_pairs`` is set; the
        result is identical either way.
        """
        n_b = matrix_b.n_rows
        chunks = list(self._encoded_chunks(matrix_b, self.max_chunk_pairs, counters))
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        # Chunks are mutually disjoint and each is sorted; a final sort
        # restores the historical global np.unique order.
        encoded = np.sort(np.concatenate(chunks), kind="stable")
        return encoded // n_b, encoded % n_b

    def candidate_chunks(
        self,
        matrix_b: BitMatrix,
        max_chunk_pairs: int | None = None,
        counters: dict[str, float] | None = None,
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stream globally de-duplicated candidate chunks of bounded size.

        Each yielded ``(rows_a, rows_b)`` chunk holds at most
        ``max_chunk_pairs`` pairs (the instance's setting when the
        argument is ``None``), and no pair ever appears in two chunks:
        every flush is checked against all previously emitted pairs with a
        sorted merge.  ``counters``, when given, receives generation
        diagnostics (see :meth:`_encoded_chunks`).
        """
        budget = self.max_chunk_pairs if max_chunk_pairs is None else max_chunk_pairs
        n_b = matrix_b.n_rows
        for encoded in self._encoded_chunks(matrix_b, budget, counters):
            yield encoded // n_b, encoded % n_b

    def _encoded_chunks(
        self,
        matrix_b: BitMatrix,
        budget: int | None,
        counters: dict[str, float] | None = None,
    ) -> Iterator[np.ndarray]:
        """Sorted, mutually disjoint chunks of encoded pairs ``a * n_B + b``.

        The accumulator buffers raw bucket cross-products until the budget
        would overflow, then flushes: de-duplicate the buffer
        (:func:`sorted_unique`), drop pairs already emitted (binary search into
        the sorted ``seen`` array), emit the fresh remainder and merge it
        into ``seen``.  Counters recorded: ``pairs_generated`` (raw
        products), ``pairs_unique`` (emitted), ``pairs_duplicates``,
        ``n_chunks``, ``peak_chunk_pairs`` and ``max_bucket_product``.
        """
        if matrix_b.n_bits != self.n_bits:
            raise ValueError(f"width mismatch: matrix {matrix_b.n_bits} vs LSH {self.n_bits}")
        stats = _generation_stats()
        seen = np.empty(0, dtype=np.int64)
        buffer: list[np.ndarray] = []
        buffered = 0
        # The trailing None flushes what the last products left in the buffer.
        for part in chain(self._encoded_products(matrix_b, budget, stats), [None]):
            overflow = part is None or (budget is not None and buffered + part.size > budget)
            if buffer and overflow:
                fresh = _split_out_fresh(sorted_unique(buffer), seen)
                buffer, buffered = [], 0
                if fresh.size:
                    stats["pairs_unique"] += fresh.size
                    stats["n_chunks"] += 1
                    stats["peak_chunk_pairs"] = max(stats["peak_chunk_pairs"], fresh.size)
                    yield fresh
                    if part is not None:  # more to come: remember what went out
                        seen = _sorted_merge(seen, fresh)
            if part is not None:
                buffer.append(part)
                buffered += part.size
        stats["pairs_duplicates"] = stats["pairs_generated"] - stats["pairs_unique"]
        if counters is not None:
            counters.update(stats)

    def _encoded_products(
        self, matrix_b: BitMatrix, budget: int | None, stats: dict[str, float]
    ) -> Iterator[np.ndarray]:
        """Raw (un-deduplicated) bucket cross-products, each ``<= budget``."""
        for group, keys in zip(self.groups, self._keys(matrix_b)):
            yield from group.join_products(matrix_b, budget, stats, keys)

    def candidate_pairs_per_group(
        self, matrix_b: BitMatrix
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Per-group candidate pairs (no cross-group de-duplication).

        Used by iterative baselines (HARRA) that block and match one table
        at a time.
        """
        n_b = matrix_b.n_rows
        for pairs in self._pairs_per_group(matrix_b):
            yield pairs // n_b, pairs % n_b

    def _pairs_per_group(self, matrix_b: BitMatrix) -> Iterator[np.ndarray]:
        """Encoded pairs ``a * n_B + b`` for each blocking group in turn."""
        for group, keys in zip(self.groups, self._keys(matrix_b)):
            parts = list(group.join_products(matrix_b, keys=keys))
            yield np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    # -- matching ------------------------------------------------------------------

    def match(
        self,
        matrix_a: BitMatrix,
        matrix_b: BitMatrix,
        threshold: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Block ``matrix_b`` against the index and verify with ``d_H <= threshold``.

        ``matrix_a`` must be the matrix previously passed to :meth:`index`.
        Returns ``(rows_a, rows_b, distances)`` for the accepted pairs.
        """
        if threshold is None:
            threshold = self.threshold
        if threshold is None:
            raise ValueError("no matching threshold available")
        rows_a, rows_b = self.candidate_pairs(matrix_b)
        if rows_a.size == 0:
            return rows_a, rows_b, np.empty(0, dtype=np.int64)
        distances = matrix_a.hamming_rows(rows_a, matrix_b, rows_b)
        keep = distances <= threshold
        return rows_a[keep], rows_b[keep], distances[keep]

    # -- diagnostics -----------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Bucket statistics across groups (selectivity diagnostics)."""
        sizes = np.concatenate([g.bucket_sizes() for g in self.groups]) if self.groups else np.empty(0)
        if sizes.size == 0:
            return {"n_tables": float(self.n_tables), "n_buckets": 0.0, "mean_bucket": 0.0, "max_bucket": 0.0}
        return {
            "n_tables": float(self.n_tables),
            "n_buckets": float(sizes.size),
            "mean_bucket": float(sizes.mean()),
            "max_bucket": float(sizes.max()),
        }


def sample_positions(n_bits: int, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Sample ``K`` base-hash bit positions uniformly (with replacement)."""
    return tuple(int(b) for b in rng.integers(0, n_bits, size=k))
