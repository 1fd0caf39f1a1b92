"""Tests for repro.hamming.lsh — the HB blocking/matching mechanism."""

import numpy as np
import pytest

from repro.hamming.bitmatrix import BitMatrix, scatter_bits
from repro.hamming.lsh import (
    GATHER_KEY_ROWS,
    BlockingGroup,
    CompositeHash,
    HammingLSH,
)
from tests.bits import from_index_sets, row_int


def random_matrix(seed, n_rows, n_bits, density=0.3):
    rng = np.random.default_rng(seed)
    mask = rng.random((n_rows, n_bits)) < density
    rows, bits = np.nonzero(mask)
    return scatter_bits(n_rows, n_bits, rows, bits)


def one_row(matrix, i):
    return BitMatrix(matrix.words[i : i + 1], matrix.n_bits)


def buckets_of(group):
    """``{key: ids}`` of one table, from its exported arrays."""
    keys, ids, bounds = group.export_arrays()
    stops = np.r_[bounds[1:], keys.size]
    return {int(keys[lo]): ids[lo:hi].tolist() for lo, hi in zip(bounds, stops)}


def per_table_candidates(lsh, matrix_a, query):
    """The ids a per-table bucket lookup returns for ``query``: every indexed
    row sharing a table's :meth:`CompositeHash.key_for` key, first seen first."""
    found = []
    for composite in lsh.composites:
        key = composite.key_for(query)
        found += [i for i, row in enumerate(matrix_a.words) if composite.key_for(row) == key]
    return list(dict.fromkeys(found))


class _PositionsOnly:
    """A composite that is nothing but its sampled positions."""

    def __init__(self, positions):
        self.positions = positions


class TestCompositeHash:
    def test_key_packs_sampled_bits(self):
        row = np.asarray([0b1101], dtype=np.uint64)  # bits 0, 2 and 3 set
        h = CompositeHash(positions=(0, 1, 3))
        assert h.key_for(row) == 0b101  # bits 1, 0, 1 packed low-endian

    def test_keys_for_matches_scalar_path(self):
        matrix = random_matrix(0, 10, 50)
        h = CompositeHash(positions=(3, 17, 44, 44))
        keys = h.keys_for(matrix)
        for i in range(10):
            assert keys[i] == h.key_for(matrix.words[i])

    def test_repeated_positions_allowed(self):
        # Base hashes sample with replacement (uniformly at random).
        row = np.asarray([0b01], dtype=np.uint64)
        assert CompositeHash(positions=(0, 0)).key_for(row) == 0b11


class TestOnePassKeys:
    @pytest.mark.parametrize("n_bits", [60, 120, 270])
    @pytest.mark.parametrize("k", [1, 8, 30, 64, 70])
    def test_every_group_key_matches_scalar_path(self, k, n_bits):
        matrix = random_matrix(k, 25, n_bits, density=0.5)
        lsh = HammingLSH(n_bits, k, n_tables=4, seed=n_bits)
        all_keys = lsh._keys(matrix)
        assert len(all_keys) == 4
        for group, keys in zip(lsh.groups, all_keys):
            assert np.array_equal(keys, group.composite.keys_for(matrix))
            for i, row in enumerate(matrix.words):
                if k <= 64:
                    assert keys.dtype == np.uint64
                    assert int(keys[i]) == group.composite.key_for(row)
                else:  # void key: the sampled bits packed big-endian per byte
                    sampled = [row_int(row) >> pos & 1 for pos in group.composite.positions]
                    assert keys[i].tobytes() == np.packbits(sampled).tobytes()

    def test_single_row_and_empty_matrix(self):
        lsh = HammingLSH(120, 30, n_tables=3, seed=1)
        one = random_matrix(2, 1, 120)
        for group, keys in zip(lsh.groups, lsh._keys(one)):
            assert keys.tolist() == [group.composite.key_for(one.words[0])]
        assert np.asarray(lsh._keys(BitMatrix.zeros(0, 120))).shape == (3, 0)

    def test_row_blocks_do_not_change_the_keys(self, monkeypatch):
        matrix = random_matrix(5, 23, 120)
        lsh = HammingLSH(120, 30, n_tables=4, seed=1)
        whole = lsh._keys(matrix).copy()
        monkeypatch.setattr("repro.hamming.lsh.GATHER_KEY_ROWS", 0)  # the per-byte loop
        monkeypatch.setattr("repro.hamming.lsh._KEY_BLOCK_CELLS", 12)  # 3 rows a pass
        assert np.array_equal(lsh._keys(matrix), whole)

    @pytest.mark.parametrize("k", [8, 30, 64])
    @pytest.mark.parametrize("traced", [False, True])
    def test_one_gather_equals_the_per_byte_loop(self, monkeypatch, k, traced):
        """Both sides of the crossover, also for composites that only carry
        ``positions`` (the benchmark suite's tracing stand-in)."""
        lsh = HammingLSH(270, k, n_tables=5, seed=k)
        if traced:
            for group in lsh.groups:
                group.composite = _PositionsOnly(group.composite.positions)
        for n_rows in (1, GATHER_KEY_ROWS, GATHER_KEY_ROWS + 1):
            matrix = random_matrix(n_rows, n_rows, 270, density=0.5)
            keys = lsh._keys(matrix).copy()
            monkeypatch.setattr("repro.hamming.lsh.GATHER_KEY_ROWS", 0)
            assert np.array_equal(lsh._keys(matrix), keys)
            monkeypatch.undo()
            assert keys.dtype == np.uint64 and keys.shape == (5, n_rows)
            assert keys.flags.c_contiguous
            for group, group_keys in zip(lsh.groups, keys):
                positions = CompositeHash(tuple(group.composite.positions))
                assert int(group_keys[-1]) == positions.key_for(matrix.words[n_rows - 1])

    def test_wide_keys_keep_the_packed_layout_on_both_sides(self):
        lsh = HammingLSH(120, 70, n_tables=2, seed=3)
        for n_rows in (1, GATHER_KEY_ROWS + 1):
            keys = lsh._keys(random_matrix(n_rows, n_rows, 120))
            assert keys.dtype.kind == "V" and keys.shape == (2, n_rows)

    def test_key_table_follows_reassigned_groups(self):
        """A group's ``composite`` is assignable (the suite's tracing stand-in
        swaps it in); the key table follows the new positions."""
        matrix = random_matrix(3, 30, 120)
        lsh = HammingLSH(120, 30, n_tables=3, seed=1)
        other = HammingLSH(120, 30, n_tables=5, seed=2)
        lsh._keys(matrix)  # table built for the seed-1 positions
        for group, composite in zip(lsh.groups, other.composites):
            group.composite = composite
        assert np.array_equal(lsh._keys(matrix), other._keys(matrix)[:3])
        rebuilt = HammingLSH.from_state(120, 30, [g.composite.positions for g in other.groups])
        assert np.array_equal(rebuilt._keys(matrix), other._keys(matrix))

    def test_positions_outside_the_matrix_rejected(self):
        matrix = random_matrix(0, 4, 50)
        for positions in [(3, 50), (-1, 3), (3, 63)]:
            with pytest.raises(IndexError):
                CompositeHash(positions=positions).keys_for(matrix)


class TestBlockingGroup:
    def test_insert_matrix_groups_equal_keys(self):
        matrix = from_index_sets([[0], [0], [1]], 8)
        group = BlockingGroup(CompositeHash(positions=(0,)))
        group.insert_matrix(matrix)
        assert buckets_of(group) == {0: [2], 1: [0, 1]}

    def test_streaming_insert_agrees_with_bulk(self):
        matrix = random_matrix(1, 20, 40)
        bulk = BlockingGroup(CompositeHash(positions=(1, 5, 30)))
        bulk.insert_matrix(matrix)
        stream = BlockingGroup(CompositeHash(positions=(1, 5, 30)))
        for i in range(20):
            stream.insert_rows(one_row(matrix, i), [i])
        assert buckets_of(stream) == buckets_of(bulk)
        for got, want in zip(stream.export_arrays(), bulk.export_arrays()):
            assert np.array_equal(got, want)

    def test_bucket_sizes(self):
        matrix = from_index_sets([[0], [0], [1]], 8)
        group = BlockingGroup(CompositeHash(positions=(0,)))
        group.insert_matrix(matrix)
        assert sorted(group.bucket_sizes().tolist()) == [1, 2]


class TestHammingLSH:
    def test_l_from_equation_2(self):
        lsh = HammingLSH(n_bits=120, k=30, threshold=4, delta=0.1, seed=0)
        assert lsh.n_tables == 6

    def test_explicit_tables_override(self):
        lsh = HammingLSH(n_bits=120, k=5, n_tables=12, seed=0)
        assert lsh.n_tables == 12

    def test_requires_threshold_or_tables(self):
        with pytest.raises(ValueError):
            HammingLSH(n_bits=10, k=2)

    def test_identical_vectors_always_candidates(self):
        matrix = random_matrix(2, 30, 60)
        lsh = HammingLSH(n_bits=60, k=8, n_tables=4, seed=3)
        lsh.index(matrix)
        rows_a, rows_b = lsh.candidate_pairs(matrix)
        pairs = set(zip(rows_a.tolist(), rows_b.tolist()))
        for i in range(30):
            assert (i, i) in pairs  # identical vector collides in every table

    def test_candidates_deduplicated(self):
        matrix = random_matrix(3, 10, 40)
        lsh = HammingLSH(n_bits=40, k=4, n_tables=8, seed=4)
        lsh.index(matrix)
        rows_a, rows_b = lsh.candidate_pairs(matrix)
        encoded = rows_a * 10 + rows_b
        assert len(np.unique(encoded)) == len(encoded)

    @pytest.mark.parametrize("budget", [None, 1, 64])
    def test_chunks_equal_np_unique_flush_reference(self, budget):
        """The flush loop with ``np.unique`` as the de-dup (the pre-swap code), kept
        here over the per-table joins: whatever its flush budget, the fresh pairs
        it emits are exactly the one-buffer :meth:`HammingLSH.candidate_pairs`."""
        matrix_a, matrix_b = random_matrix(11, 60, 40, 0.2), random_matrix(12, 25, 40, 0.2)
        lsh = HammingLSH(n_bits=40, k=3, n_tables=8, seed=4)
        lsh.index(matrix_a)
        probe = lsh.probe(matrix_b)
        parts = [lsh.join(probe, table=table) for table in range(lsh.n_tables)]
        expected: list[np.ndarray] = []
        seen = np.empty(0, dtype=np.int64)
        buffer: list[np.ndarray] = []
        for part in parts + [None]:
            full = part is None or (
                budget is not None and buffer and sum(map(len, buffer)) + part.size > budget
            )
            if full and buffer:
                unique = np.unique(np.concatenate(buffer))
                fresh = unique[~np.isin(unique, seen)]
                seen = np.union1d(seen, fresh)
                buffer = []
                if fresh.size:
                    expected.append(fresh)
            if part is not None:
                buffer.append(part)
        raw = lsh.join(probe)
        assert raw.size == sum(part.size for part in parts)
        counters: dict[str, float] = {}
        rows_a, rows_b = lsh.candidate_pairs(matrix_b, counters)
        got = rows_a * 25 + rows_b
        assert expected and np.array_equal(got, np.sort(np.concatenate(expected)))
        assert np.array_equal(got, np.unique(raw))
        assert counters["pairs_unique"] == seen.size < counters["pairs_generated"] == raw.size
        assert counters["pairs_duplicates"] == raw.size - seen.size

    def test_match_filters_by_threshold(self):
        matrix = random_matrix(5, 20, 60)
        lsh = HammingLSH(n_bits=60, k=6, threshold=5, seed=5)
        lsh.index(matrix)
        rows_a, rows_b, dists = lsh.match(matrix, matrix)
        assert (dists <= 5).all()
        for a, b, d in zip(rows_a, rows_b, dists):
            assert (row_int(matrix.words[a]) ^ row_int(matrix.words[b])).bit_count() == d

    def test_query_unique_ids(self):
        """A one-row probe's candidates are each id once, the per-table lookup's."""
        matrix = random_matrix(6, 15, 40)
        lsh = HammingLSH(n_bits=40, k=3, n_tables=10, seed=6)
        lsh.index(matrix)
        ids, rows_b = lsh.candidate_pairs(one_row(matrix, 0))
        assert not rows_b.any()
        assert len(ids) == len(set(ids.tolist()))
        assert 0 in ids
        assert ids.tolist() == sorted(per_table_candidates(lsh, matrix, matrix.words[0]))

    def test_recall_guarantee_empirically(self):
        """Pairs within the threshold are found at rate >= 1 - delta."""
        rng = np.random.default_rng(7)
        n, n_bits, threshold = 300, 120, 4
        base = (rng.random((n, n_bits)) < 0.25).astype(np.uint8)
        # Perturb exactly `threshold` bits of each row.
        noisy = base.copy()
        for i in range(n):
            flips = rng.choice(n_bits, size=threshold, replace=False)
            noisy[i, flips] ^= 1
        def pack(arr):
            rows, bits = np.nonzero(arr)
            return scatter_bits(n, n_bits, rows, bits)
        ma, mb = pack(base), pack(noisy)
        lsh = HammingLSH(n_bits=n_bits, k=30, threshold=threshold, delta=0.1, seed=8)
        lsh.index(ma)
        rows_a, rows_b, __ = lsh.match(ma, mb)
        found = set(zip(rows_a.tolist(), rows_b.tolist()))
        recall = sum((i, i) in found for i in range(n)) / n
        assert recall >= 0.9  # 1 - delta

    def test_width_mismatch_rejected(self):
        lsh = HammingLSH(n_bits=40, k=3, n_tables=2, seed=0)
        with pytest.raises(ValueError):
            lsh.index(BitMatrix.zeros(2, 41))
        with pytest.raises(ValueError):
            lsh.insert_rows(BitMatrix.zeros(1, 41), [0])

    def test_stats(self):
        matrix = random_matrix(9, 25, 50)
        lsh = HammingLSH(n_bits=50, k=4, n_tables=3, seed=9)
        lsh.index(matrix)
        stats = lsh.stats()
        assert stats["n_tables"] == 3
        assert stats["n_buckets"] >= 3
        assert stats["max_bucket"] >= stats["mean_bucket"]

    def test_empty_candidates_before_index(self):
        lsh = HammingLSH(n_bits=40, k=3, n_tables=2, seed=1)
        rows_a, rows_b = lsh.candidate_pairs(BitMatrix.zeros(3, 40))
        # Nothing indexed: every probe misses except shared empty buckets
        # don't exist yet, so no pairs at all.
        assert rows_a.size == 0 and rows_b.size == 0
