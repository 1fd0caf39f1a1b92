"""The two-run blocking group: a bulk run plus a sorted delta run.

Whatever interleaving of ``index`` / one-row and many-row ``insert_rows``
built an index, it must answer exactly like an all-bulk index over the
same rows — the candidate join has one code path, and these tests pin it
to per-bucket references kept here, not in ``src/``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoder import RecordEncoder
from repro.data import EXPERIMENT_SCHEME, DBLPGenerator
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.lsh import (
    BlockingGroup,
    HammingLSH,
    _sort_tables,
)
from repro.rules.blocking import RuleAwareBlocker
from repro.rules.parser import parse_rule

N_BITS = 96
N_TABLES = 3


def clustered_matrix(seed: int, n_rows: int) -> BitMatrix:
    """Rows one bit-flip away from four prototypes, so buckets collide at any K."""
    rng = np.random.default_rng(seed)
    prototypes = rng.integers(0, 2, size=(4, N_BITS), dtype=np.uint8)
    bits = prototypes[rng.integers(0, 4, size=n_rows)]
    flip = rng.integers(0, 2 * N_BITS, size=n_rows)  # half the rows stay exact
    hit = flip < N_BITS
    bits[np.flatnonzero(hit), flip[hit]] ^= 1
    words = np.packbits(bits, axis=1, bitorder="little")
    words = np.pad(words, ((0, 0), (0, -words.shape[1] % 8)))
    return BitMatrix(words.view(np.uint64), N_BITS)


def take(matrix: BitMatrix, lo: int, hi: int) -> BitMatrix:
    return BitMatrix(matrix.words[lo:hi], matrix.n_bits)


def column_keys(matrix: BitMatrix, positions) -> np.ndarray:
    """Blocking keys the way every bundle on disk was written: gather the ``K``
    bit columns, then multiply-sum them (``K <= 64``) or pack them into void rows."""
    bits = matrix.columns(list(positions))
    if bits.shape[1] <= 64:
        weights = np.uint64(1) << np.arange(bits.shape[1], dtype=np.uint64)
        return (bits.astype(np.uint64) * weights[None, :]).sum(axis=1)
    packed = np.ascontiguousarray(np.packbits(bits, axis=1))
    return packed.view([("", packed.dtype)] * packed.shape[1]).ravel()


class PositionsOnly:
    """What ``benchmarks/suite/tracing.py`` swaps in for a group's composite
    after the LSH is built: ``positions``, ``key_for``, ``keys_for``, nothing else."""

    def __init__(self, inner):
        self.positions = inner.positions
        self.key_for = inner.key_for
        self.keys_for = inner.keys_for


#: One build step: how the next ``size`` rows enter the index.
STEPS = st.lists(
    st.tuples(st.sampled_from(["bulk", "rows", "single"]), st.integers(1, 9)),
    min_size=1,
    max_size=6,
)


@given(
    seed=st.integers(0, 10_000),
    k=st.sampled_from([8, 30, 70]),  # 70 > 64: void-dtype keys in both runs
    steps=STEPS,
)
@settings(max_examples=120, deadline=None)
def test_any_interleaving_equals_all_bulk(seed, k, steps):
    n_rows = sum(size for __, size in steps)
    matrix_a = clustered_matrix(seed, n_rows)
    matrix_b = clustered_matrix(seed, 12)  # same prototypes, so B collides with A

    def fresh() -> HammingLSH:
        return HammingLSH(N_BITS, k, n_tables=N_TABLES, seed=seed)

    reference = fresh()
    reference.index(matrix_a)
    mixed = fresh()
    bulk_ids: list[int] = []
    streamed_ids: list[int] = []
    at = 0
    for how, size in steps:
        ids = np.arange(at, at + size)
        part = take(matrix_a, at, at + size)
        if how == "bulk":
            mixed.index(part)  # numbers from the rows already held
            bulk_ids += ids.tolist()
        elif how == "rows":
            mixed.insert_rows(part, ids)
            streamed_ids += ids.tolist()
        else:
            for i in ids.tolist():
                mixed.insert_rows(take(matrix_a, i, i + 1), [i])
            streamed_ids += ids.tolist()
        at += size

    for got, want in zip(mixed.candidate_pairs(matrix_b), reference.candidate_pairs(matrix_b)):
        assert np.array_equal(got, want)
    for got, want in zip(mixed.match(matrix_a, matrix_b, 8), reference.match(matrix_a, matrix_b, 8)):
        assert np.array_equal(got, want)
    probe, reference_probe = mixed.probe(matrix_b), reference.probe(matrix_b)
    for table in range(reference.n_tables):
        got, want = mixed.join(probe, table=table), reference.join(reference_probe, table=table)
        assert sorted(got.tolist()) == sorted(want.tolist())

    for group, ref_group in zip(mixed.groups, reference.groups):
        assert group.n_rows == n_rows
        assert group.n_buckets == ref_group.n_buckets
        assert np.array_equal(group.bucket_sizes(), ref_group.bucket_sizes())
        key_of = [group.composite.key_for(row) for row in matrix_a.words]
        keys, ids, bounds = group.export_arrays()
        for lo, hi in zip(bounds, np.r_[bounds[1:], keys.size]):
            bucket = ids[lo:hi].tolist()
            # The ordering rule: bulk ids first, then streamed ids as inserted.
            key = key_of[bucket[0]]
            assert bucket == [i for i in bulk_ids + streamed_ids if key_of[i] == key]
        ref_keys, ref_ids, ref_bounds = ref_group.export_arrays()
        assert keys.dtype == ref_keys.dtype
        assert np.array_equal(keys, ref_keys)
        assert np.array_equal(bounds, ref_bounds)
        for lo, hi in zip(bounds, np.r_[bounds[1:], keys.size]):
            assert sorted(ids[lo:hi].tolist()) == ref_ids[lo:hi].tolist()
        reloaded = BlockingGroup.from_arrays(group.composite, keys, ids, bounds)
        assert reloaded.n_rows == n_rows
        assert sorted(reloaded.join_products(matrix_b)) == sorted(ref_group.join_products(matrix_b))


def sort_key(key) -> bytes | int:
    """Void keys (``K > 64``) order as their bytes, integer keys as integers."""
    return int(key) if key.dtype == np.uint64 else key.tobytes()


def reference_products(steps, matrix_a, matrix_b, positions):
    """The raw cross-products a per-table, per-bucket join emits, in order.

    One Python dict of buckets per (run, table): the bulk run's tables
    first, then the delta run's, each table's buckets in key order, ids
    within a bucket in insertion order, a bucket's pairs probing row by
    probing row (each row is its own entry).  Also returns the largest
    bucket product and each table's pairs (bulk buckets, then delta buckets).
    """
    n_b = matrix_b.n_rows
    keys_a = [column_keys(matrix_a, pos) for pos in positions]
    keys_b = [column_keys(matrix_b, pos) for pos in positions]
    runs = {"bulk": [], "delta": []}
    at = 0
    for how, size in steps:
        runs["bulk" if how == "bulk" else "delta"] += range(at, at + size)
        at += size
    raw, largest = [], 0
    per_table = [[] for __ in positions]
    for ids in runs.values():
        for table, (table_a, table_b) in enumerate(zip(keys_a, keys_b)):
            buckets: dict = {}
            for a in ids:
                buckets.setdefault(sort_key(table_a[a]), []).append(a)
            probes: dict = {}
            for b in range(n_b):
                probes.setdefault(sort_key(table_b[b]), []).append(b)
            for key in sorted(probes):
                product = [a * n_b + b for b in probes[key] for a in buckets.get(key, [])]
                largest = max(largest, len(product))
                per_table[table] += product
                raw += product
    return raw, largest, per_table


@given(
    seed=st.integers(0, 10_000),
    k=st.sampled_from([8, 30, 62, 70]),  # 62 + bits(n) > 64: the argsort fallback
    n_tables=st.sampled_from([1, 6, 9]),
    steps=STEPS,
)
@settings(max_examples=150, deadline=None)
def test_single_run_join_equals_per_table_reference(seed, k, n_tables, steps):
    n_rows = sum(size for __, size in steps)
    matrix_a = clustered_matrix(seed, n_rows)
    matrix_b = clustered_matrix(seed, 12)
    lsh = HammingLSH(N_BITS, k, n_tables=n_tables, seed=seed)
    at = 0
    for how, size in steps:
        ids = np.arange(at, at + size)
        if how == "bulk":
            lsh.index(take(matrix_a, at, at + size))
        elif how == "rows":
            lsh.insert_rows(take(matrix_a, at, at + size), ids)
        else:
            for i in ids.tolist():
                lsh.insert_rows(take(matrix_a, i, i + 1), [i])
        at += size
    positions = [group.composite.positions for group in lsh.groups]
    raw, largest, per_table = reference_products(steps, matrix_a, matrix_b, positions)
    assert lsh.join(lsh.probe(matrix_b)).tolist() == raw
    unique = np.unique(np.concatenate([np.asarray(p, dtype=np.int64) for p in per_table]))

    counters: dict[str, float] = {}
    rows_a, rows_b = lsh.candidate_pairs(matrix_b, counters)
    assert np.array_equal(rows_a * 12 + rows_b, unique)
    assert counters["pairs_generated"] == sum(map(len, per_table))
    assert counters["pairs_unique"] == unique.size
    assert counters["max_bucket_product"] == largest
    probe = lsh.probe(matrix_b)
    per_group = [lsh.join(probe, table=table) for table in range(lsh.n_tables)]
    assert [pairs.tolist() for pairs in per_group] == per_table


@pytest.mark.parametrize("n_rows", [0, 1, 2, 300])
def test_packed_sort_equals_stable_argsort(n_rows):
    """Forced onto either path, ``_sort_tables`` gives one answer."""
    keys = np.random.default_rng(n_rows).integers(0, 5, size=(4, n_rows)).astype(np.uint64)
    packed_keys, packed_order = _sort_tables(keys.copy(), key_bits=3)
    sorted_keys, order = _sort_tables(keys.copy(), key_bits=64 + (n_rows < 2))  # never fits
    assert np.array_equal(order, np.argsort(keys, axis=1, kind="stable"))
    assert np.array_equal(packed_order, order) and packed_order.dtype == order.dtype
    assert np.array_equal(packed_keys, sorted_keys) and packed_keys.dtype == np.uint64


@pytest.mark.parametrize("k", [1, 8, 30, 64, 70])
def test_arrays_written_with_column_keys_load_and_answer_identically(k):
    """Keys are persisted, so the one-pass key table must reproduce them byte for byte."""
    matrix_a, matrix_b = clustered_matrix(9, 80), clustered_matrix(9, 20)
    lsh = HammingLSH(N_BITS, k, n_tables=N_TABLES, seed=3)
    lsh.index(matrix_a)
    for group in lsh.groups:
        old_keys = column_keys(matrix_a, group.composite.positions)
        order = np.argsort(old_keys, kind="stable")
        keys, ids, bounds = group.export_arrays()
        assert keys.dtype == old_keys.dtype
        assert keys.tobytes() == old_keys[order].tobytes()
        assert np.array_equal(ids, order)
        adopted = BlockingGroup.from_arrays(group.composite, old_keys[order], order, bounds)
        assert np.array_equal(adopted.join_products(matrix_b), group.join_products(matrix_b))


def test_keys_survive_composites_swapped_for_position_proxies():
    matrix_a, matrix_b = clustered_matrix(4, 60), clustered_matrix(4, 15)
    plain = HammingLSH(N_BITS, 30, n_tables=N_TABLES, seed=6)
    proxied = HammingLSH(N_BITS, 30, n_tables=N_TABLES, seed=6)
    for group in proxied.groups:
        group.composite = PositionsOnly(group.composite)
    for lsh in (plain, proxied):
        lsh.index(matrix_a)
    for got, want in zip(proxied.candidate_pairs(matrix_b), plain.candidate_pairs(matrix_b)):
        assert np.array_equal(got, want)
    for group, ref_group in zip(proxied.groups, plain.groups):
        for got, want in zip(group.export_arrays(), ref_group.export_arrays()):
            assert np.array_equal(got, want)


def test_second_index_call_continues_the_ids():
    """Regression: a second ``index()`` used to renumber its rows from 0."""
    matrix = clustered_matrix(3, 40)
    once = HammingLSH(N_BITS, 8, n_tables=N_TABLES, seed=5)
    once.index(matrix)
    twice = HammingLSH(N_BITS, 8, n_tables=N_TABLES, seed=5)
    twice.index(take(matrix, 0, 25))
    twice.index(take(matrix, 25, 40))
    probe = clustered_matrix(3, 15)
    for got, want in zip(twice.candidate_pairs(probe), once.candidate_pairs(probe)):
        assert np.array_equal(got, want)
    for group, ref_group in zip(twice.groups, once.groups):
        for got, want in zip(group.export_arrays(), ref_group.export_arrays()):
            assert np.array_equal(got, want)


def _brute_members(structure, matrix_a: BitMatrix, matrix_b: BitMatrix) -> np.ndarray:
    """Per-bucket reference for ``_Structure.members``: a dict of id lists per table."""
    pairs: set[int] = set()
    for group in structure.groups:
        buckets: dict[bytes, list[int]] = {}
        for a, key in enumerate(group.composite.keys_for(matrix_a)):
            buckets.setdefault(key.tobytes(), []).append(a)
        for b, key in enumerate(group.composite.keys_for(matrix_b)):
            for a in buckets.get(key.tobytes(), ()):
                pairs.add(a * matrix_b.n_rows + b)
    return np.asarray(sorted(pairs), dtype=np.int64)


def test_structure_members_equal_per_bucket_reference():
    rows = DBLPGenerator().generate(260, seed=11).value_rows()
    encoder = RecordEncoder.calibrated(
        rows, names=["FirstName", "LastName", "Title", "Year"], scheme=EXPERIMENT_SCHEME, seed=2
    )
    matrix_a = encoder.encode_dataset(rows[:200])
    matrix_b = encoder.encode_dataset(rows[140:])  # 60 records of A come back in B
    blocker = RuleAwareBlocker(
        parse_rule("((FirstName<=4) & (LastName<=4)) | (Title<=8)"),
        encoder,
        k={"FirstName": 5, "LastName": 5, "Title": 12},
        n_tables=6,
        seed=4,
    )
    blocker.index(matrix_a)
    structures = blocker._plan.structures
    assert len(structures) == 2
    for structure in structures:
        want = _brute_members(structure, matrix_a, matrix_b)
        assert want.size > 60
        assert np.array_equal(structure.members(matrix_b), want)
        # A second index() appends rows 200.. — same join, ids continue.
        structure.index(matrix_b)
        both = BitMatrix(np.vstack([matrix_a.words, matrix_b.words]), matrix_a.n_bits)
        assert np.array_equal(
            structure.members(matrix_b), _brute_members(structure, both, matrix_b)
        )
