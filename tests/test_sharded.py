"""Tests for sharded bundles (repro.core.shards) and serving over them.

Five contracts:

* **Parity** — the engine over ``n_shards`` shards returns byte-identical
  threshold and top-k results to the plain one-shard index, in memory
  and from a persisted bundle (the full layout x mode x batch-size grid
  is ``test_serving.TestOneEngineParity``); the one global query view
  serves the committed golden matches.
* **One scan** — a query batch locates its buckets once per run (bulk,
  delta) whatever the shard count, and the shard bundles it writes are
  byte-identical to those of an index that streamed its inserts.
* **Durability** — an acknowledged ``ingest`` survives any crash: WAL
  replay on open restores exactly the acknowledged records, torn tails
  (kill between append and fsync) replay to the durable prefix, a crash
  inside a batch or after a compaction's manifest swap replays neither
  an unacknowledged nor an already compacted record, and compaction
  folds the log into new shard snapshots without changing a single
  result.
* **Atomicity** — a killed save never leaves a half-written bundle; a
  killed compaction leaves the previous generation authoritative.
* **Loud failure** — stale manifests, swapped encoders and corrupt
  sidecars raise :class:`SnapshotError`, never serve wrong candidates.
"""

import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.hamming.lsh as lsh_module
from repro.core.encoder import RecordEncoder
from repro.core.linker import CompactHammingLinker
from repro.core.persist import (
    SnapshotError,
    load_index_snapshot,
    save_index_snapshot,
    write_dir_atomic,
)
from repro.core.shards import (
    ROW_IDS_NAME,
    ShardedIndex,
    _wal_payload,
    shard_of_id,
    shards_of_ids,
    wal_name,
)
from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.data.generators import EXPERIMENT_SCHEME
from repro.data.io import write_dataset
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.lsh import HammingLSH
from repro.serve import QueryEngine, ShardedQueryEngine
from repro.wal import frame, replay_segment
from tests.golden_linkers import (
    GOLDEN_PATH,
    K,
    PROBLEM_SEED,
    THRESHOLD,
    incremental_engine,
    make_problem,
    query_each,
)

SEED = 11
N = 150


@pytest.fixture(scope="module")
def problem():
    return build_linkage_problem(NCVRGenerator(), N, scheme_pl(), seed=SEED)


@pytest.fixture(scope="module")
def encoder(problem):
    rows = list(problem.dataset_a.value_rows()) + list(problem.dataset_b.value_rows())
    return RecordEncoder.calibrated(rows, scheme=EXPERIMENT_SCHEME, seed=SEED)


@pytest.fixture(scope="module")
def rows_a(problem):
    return [tuple(r) for r in problem.dataset_a.value_rows()]


@pytest.fixture(scope="module")
def rows_b(problem):
    return [tuple(r) for r in problem.dataset_b.value_rows()]


@pytest.fixture(scope="module")
def reference(encoder, rows_a):
    return QueryEngine.build(rows_a, encoder, threshold=4, k=30, seed=SEED)


def _arrays(result):
    return result.queries, result.ids, result.distances


def _assert_identical(left, right):
    assert left.n_queries == right.n_queries
    for a, b in zip(_arrays(left), _arrays(right)):
        assert np.array_equal(a, b)


class TestShardAssignment:
    def test_scalar_and_vector_agree(self):
        ids = np.arange(500)
        for n_shards in (1, 2, 3, 8):
            vectorised = shards_of_ids(ids, n_shards)
            assert all(
                shard_of_id(int(i), n_shards) == vectorised[i] for i in ids
            )

    def test_assignment_is_spread_and_stable(self):
        counts = np.bincount(shards_of_ids(np.arange(2000), 8), minlength=8)
        assert counts.min() > 0
        assert shards_of_ids(np.arange(100), 8).tolist() == shards_of_ids(
            np.arange(100), 8
        ).tolist()

    def test_single_shard_owns_everything(self):
        assert shards_of_ids(np.arange(50), 1).tolist() == [0] * 50
        assert shard_of_id(123, 1) == 0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="n_shards"):
            shard_of_id(0, 0)
        with pytest.raises(ValueError, match="n_shards"):
            shards_of_ids(np.arange(3), 0)
        with pytest.raises(ValueError, match="record_id"):
            shard_of_id(-1, 4)


class TestShardedParity:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_in_memory_parity(self, reference, encoder, rows_a, rows_b, n_shards):
        sharded = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=n_shards, threshold=4, k=30, seed=SEED
        )
        _assert_identical(reference.query_batch(rows_b), sharded.query_batch(rows_b))
        _assert_identical(
            reference.query_batch(rows_b, top_k=2),
            sharded.query_batch(rows_b, top_k=2),
        )

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_persisted_and_parallel_parity(
        self, tmp_path, reference, encoder, rows_a, rows_b, n_shards
    ):
        sharded = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=n_shards, threshold=4, k=30, seed=SEED
        )
        bundle = sharded.save(tmp_path / "idx")
        _assert_identical(reference.query_batch(rows_b), sharded.query_batch(rows_b))
        reopened = ShardedQueryEngine.from_bundle(bundle)
        _assert_identical(reference.query_batch(rows_b), reopened.query_batch(rows_b))
        _assert_identical(
            reference.query_batch(rows_b, top_k=3),
            reopened.query_batch(rows_b, top_k=3),
        )

    def test_empty_batch_and_threshold_override(self, encoder, rows_a, rows_b):
        sharded = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=2, threshold=4, k=30, seed=SEED
        )
        assert sharded.query_batch([]).n_queries == 0
        strict = sharded.query_batch(rows_b, threshold=0)
        assert strict.n_matches <= sharded.query_batch(rows_b).n_matches

    def test_serves_golden_streaming_matches(self):
        golden = json.loads(GOLDEN_PATH.read_text())["streaming"]
        prob = make_problem()
        calibrator = CompactHammingLinker.record_level(
            threshold=THRESHOLD, k=K, seed=PROBLEM_SEED
        )
        enc = calibrator.calibrate(prob.dataset_a, prob.dataset_b)
        sharded = ShardedQueryEngine.build(
            [tuple(r) for r in prob.dataset_a.value_rows()],
            enc,
            n_shards=3,
            threshold=THRESHOLD,
            k=K,
            seed=PROBLEM_SEED,
        )
        result = sharded.query_batch([tuple(r) for r in prob.dataset_b.value_rows()])
        matches = sorted(
            [int(a), int(b)] for b, a in zip(result.queries, result.ids)
        )
        assert matches == golden["matches"]
        assert len(matches) == golden["n_matches"]


class TestOneScan:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_locate_runs_once_per_run_whatever_the_shard_count(
        self, tmp_path, encoder, rows_a, rows_b, n_shards, monkeypatch
    ):
        """A work count, not a clock: with an overlay a batch searches the
        bulk run and the delta run once each; after compaction, the bulk
        run alone."""
        engine = ShardedQueryEngine.build(
            rows_a[:100], encoder, n_shards=n_shards, threshold=4, k=30, seed=SEED
        )
        engine.save(tmp_path / "idx")
        engine.ingest(rows_a[100:])
        calls = []
        locate = lsh_module._Run.locate

        def counted(run, probe):
            calls.append(run)
            return locate(run, probe)

        monkeypatch.setattr(lsh_module._Run, "locate", counted)
        for top_k, runs in [(None, 2), (2, 2)]:
            calls.clear()
            engine.query_batch(rows_b, top_k=top_k)
            assert len(calls) == runs
        engine.compact()
        calls.clear()
        engine.query_batch(rows_b)
        assert len(calls) == 1
        engine.close()


def _digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def _npy_digest(array):
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    return hashlib.sha256(buffer.getvalue()).hexdigest()


class TestBundleBytes:
    @settings(max_examples=12, deadline=None)
    @given(
        n_shards=st.sampled_from([1, 2, 4]),
        base=st.integers(1, 30),
        steps=st.lists(st.integers(0, 12), max_size=6),  # 0: compact, n: append n rows
    )
    def test_shards_equal_the_streamed_route(self, encoder, rows_a, n_shards, base, steps):
        """Build / append / compact interleavings: every file save() and
        compact() write into a shard directory has the SHA-256 of
        ``save_index_snapshot`` over the route of an index that streamed
        its inserts — ``index(base)``, then ``insert_rows(overlay, local
        ids)``, re-attached from its bundle at each compaction — and the
        query view exports what one index over every row does."""
        bits = encoder.total_bits
        words = encoder.encode_dataset(rows_a).words
        owner = shards_of_ids(np.arange(len(rows_a)), n_shards)

        def fresh():
            return HammingLSH(n_bits=bits, k=30, threshold=4, seed=SEED)

        refs, members = [], []
        for shard in range(n_shards):
            ids = np.flatnonzero(owner[:base] == shard)
            lsh = fresh()
            lsh.index(BitMatrix(words[ids], bits))
            refs.append(lsh)
            members.append(ids.tolist())

        def check(index):
            for shard, (lsh, ids) in enumerate(zip(refs, members)):
                ids = np.asarray(ids, dtype=np.int64)
                with tempfile.TemporaryDirectory() as tmp:
                    ref = save_index_snapshot(
                        Path(tmp) / "ref", encoder, BitMatrix(words[ids], bits), lsh, threshold=4
                    )
                    want = {**_digests(ref), ROW_IDS_NAME: _npy_digest(ids)}
                assert _digests(index.path / index.shards[shard].dirname) == want
                lsh.adopt(*lsh.export())  # what re-attaching the shard bundle gives

        with tempfile.TemporaryDirectory() as root:
            index = ShardedIndex.build(
                rows_a[:base], encoder, n_shards, threshold=4, k=30, seed=SEED
            )
            index.save(Path(root) / "idx")
            check(index)
            n = base
            for step in steps:
                if not step:
                    index.compact()
                    check(index)
                    continue
                gids = index.append_batch(rows_a[n : n + step])
                assert gids == list(range(n, n + step))
                n += step
                for shard, lsh in enumerate(refs):
                    new = [gid for gid in gids if owner[gid] == shard]
                    if new:
                        local = np.arange(len(members[shard]), len(members[shard]) + len(new))
                        lsh.insert_rows(BitMatrix(words[new], bits), local)
                        members[shard] += new
            whole = fresh()
            whole.index(BitMatrix(words[:n], bits))
            got, want = index.lsh.export(), whole.export()
            assert got.offsets == want.offsets
            assert np.array_equal(got.keys, want.keys) and np.array_equal(got.ids, want.ids)
            assert np.array_equal(index.words, words[:n])
            index.close()


class TestDurableIngest:
    def test_acknowledged_records_survive_reopen(
        self, tmp_path, encoder, rows_a, rows_b
    ):
        """ingest -> crash (drop the object) -> open replays the WAL."""
        engine = ShardedQueryEngine.build(
            rows_a[:-5], encoder, n_shards=3, threshold=4, k=30, seed=SEED
        )
        bundle = engine.save(tmp_path / "idx")
        gids = engine.ingest(rows_a[-5:])
        assert gids == list(range(len(rows_a) - 5, len(rows_a)))
        engine.close()  # nothing flushed beyond what ingest already fsync'd

        reopened = ShardedQueryEngine.from_bundle(bundle)
        assert reopened.n_indexed == len(rows_a)
        assert reopened.index.counters["wal_replayed_records"] == 5.0
        rebuilt = QueryEngine.build(rows_a, encoder, threshold=4, k=30, seed=SEED)
        _assert_identical(rebuilt.query_batch(rows_b), reopened.query_batch(rows_b))
        _assert_identical(
            rebuilt.query_batch(rows_b, top_k=2),
            reopened.query_batch(rows_b, top_k=2),
        )

    def test_compaction_folds_wal_and_preserves_results(
        self, tmp_path, encoder, rows_a, rows_b
    ):
        engine = ShardedQueryEngine.build(
            rows_a[:-5], encoder, n_shards=3, threshold=4, k=30, seed=SEED
        )
        bundle = engine.save(tmp_path / "idx")
        engine.ingest(rows_a[-5:])
        before = engine.query_batch(rows_b)
        assert engine.index.overlay_rows == 5
        version = engine.compact()
        assert version == 2
        assert engine.index.overlay_rows == 0
        _assert_identical(before, engine.query_batch(rows_b))
        # the WAL is gone; a fresh open replays nothing and still agrees
        reopened = ShardedQueryEngine.from_bundle(bundle)
        assert reopened.index.counters["wal_replayed_records"] == 0.0
        assert reopened.index.version == 2
        _assert_identical(before, reopened.query_batch(rows_b))

    def test_ingest_on_in_memory_engine_skips_wal(self, encoder, rows_a, rows_b):
        engine = ShardedQueryEngine.build(
            rows_a[:-3], encoder, n_shards=2, threshold=4, k=30, seed=SEED
        )
        engine.ingest(rows_a[-3:])
        rebuilt = QueryEngine.build(rows_a, encoder, threshold=4, k=30, seed=SEED)
        _assert_identical(rebuilt.query_batch(rows_b), engine.query_batch(rows_b))

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_overlay_equals_compacted_equals_fresh_build(
        self, tmp_path, reference, encoder, rows_a, rows_b, n_shards
    ):
        """One join for both runs: overlay == replayed == compacted == fresh."""
        engine = ShardedQueryEngine.build(
            rows_a[:100], encoder, n_shards=n_shards, threshold=4, k=30, seed=SEED
        )
        bundle = engine.save(tmp_path / "idx")
        for lo, hi in [(100, 117), (117, 118), (118, len(rows_a))]:  # batch, 1 row, batch
            assert engine.ingest(rows_a[lo:hi]) == list(range(lo, hi))
        assert engine.index.overlay_rows == len(rows_a) - 100
        want = reference.query_batch(rows_b)
        want_top = reference.query_batch(rows_b, top_k=2)
        _assert_identical(want, engine.query_batch(rows_b))
        _assert_identical(want_top, engine.query_batch(rows_b, top_k=2))
        engine.close()
        replayed = ShardedQueryEngine.from_bundle(bundle)
        assert replayed.index.overlay_rows == len(rows_a) - 100
        _assert_identical(want, replayed.query_batch(rows_b))
        replayed.compact()
        assert replayed.index.overlay_rows == 0
        _assert_identical(want, replayed.query_batch(rows_b))
        _assert_identical(want_top, replayed.query_batch(rows_b, top_k=2))
        replayed.close()
        fresh = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=n_shards, threshold=4, k=30, seed=SEED
        )
        _assert_identical(want, fresh.query_batch(rows_b))

    def test_unencodable_batch_writes_no_wal_byte(self, tmp_path, encoder, rows_a):
        """The batch is encoded before the first WAL append: all or nothing."""
        engine = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=2, threshold=4, k=30, seed=SEED
        )
        bundle = engine.save(tmp_path / "idx")
        with pytest.raises(ValueError):
            engine.ingest([rows_a[0], rows_a[1][:-1]])  # second row is one value short
        assert engine.index.n_rows == len(rows_a)
        assert engine.index.next_id == len(rows_a)
        assert not any((bundle / "wal").iterdir())
        engine.close()


class TestCrashRecovery:
    def test_torn_wal_tail_replays_to_durable_prefix(
        self, tmp_path, encoder, rows_a
    ):
        """Kill between append and fsync: replay stops at the last durable record."""
        engine = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=2, threshold=4, k=30, seed=SEED
        )
        bundle = engine.save(tmp_path / "idx")
        index = engine.index
        durable_gid = index.next_id
        shard = shard_of_id(durable_gid, 2)
        torn_gid = next(
            gid for gid in range(durable_gid + 1, durable_gid + 50)
            if shard_of_id(gid, 2) == shard
        )
        segment = bundle / wal_name(shard)
        with open(segment, "ab") as handle:
            handle.write(frame(_wal_payload(durable_gid, rows_a[0])))
            handle.write(frame(_wal_payload(torn_gid, rows_a[1]))[:-4])

        with ShardedIndex.open(bundle) as reopened:
            assert reopened.n_rows == len(rows_a) + 1  # durable record only
            assert reopened.counters["wal_replayed_records"] == 1.0
            assert reopened.counters["wal_torn_bytes"] > 0
        # the torn tail was truncated away: the next open is clean
        assert replay_segment(segment).clean
        with ShardedIndex.open(bundle) as again:
            assert again.counters["wal_torn_bytes"] == 0.0
            assert again.n_rows == len(rows_a) + 1

    def test_crc_corrupt_wal_record_is_not_replayed(self, tmp_path, encoder, rows_a):
        engine = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=2, threshold=4, k=30, seed=SEED
        )
        bundle = engine.save(tmp_path / "idx")
        gid = engine.index.next_id
        segment = bundle / wal_name(shard_of_id(gid, 2))
        framed = bytearray(frame(_wal_payload(gid, rows_a[0])))
        framed[-1] ^= 0x01
        segment.write_bytes(bytes(framed))
        with ShardedIndex.open(bundle) as reopened:
            assert reopened.n_rows == len(rows_a)
            assert reopened.counters["wal_replayed_records"] == 0.0

    def test_unreadable_mid_segment_record_fails_with_nothing_inserted(
        self, tmp_path, encoder, rows_a
    ):
        """A CRC-valid but unparseable record after good ones, in the last
        segment: replay parses every segment before its one batched insert,
        so the open fails with the overlay still empty."""
        engine = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=2, threshold=4, k=30, seed=SEED
        )
        bundle = engine.save(tmp_path / "idx")
        engine.close()
        with ShardedIndex.open(bundle) as index:  # attached before the WAL exists
            first = index.next_id
            for shard in (0, 1):
                gids = [g for g in range(first, first + 50) if shard_of_id(g, 2) == shard][:2]
                records = [frame(_wal_payload(gids[0], rows_a[0]))]
                if shard == 1:
                    records.append(frame(b"{not json"))
                records.append(frame(_wal_payload(gids[1], rows_a[1])))
                (bundle / wal_name(shard)).write_bytes(b"".join(records))
            with pytest.raises(SnapshotError, match="unreadable WAL record"):
                index._replay_wal()
            assert index.overlay_rows == 0
            assert index.n_rows == len(rows_a)
            assert index.next_id == first
        with pytest.raises(SnapshotError, match="unreadable WAL record"):
            ShardedIndex.open(bundle).close()

    def test_wal_record_in_wrong_shard_fails_loudly(self, tmp_path, encoder, rows_a):
        engine = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=2, threshold=4, k=30, seed=SEED
        )
        bundle = engine.save(tmp_path / "idx")
        gid = engine.index.next_id
        wrong = 1 - shard_of_id(gid, 2)
        (bundle / wal_name(wrong)).write_bytes(frame(_wal_payload(gid, rows_a[0])))
        with pytest.raises(SnapshotError, match="hashes to shard"):
            ShardedIndex.open(bundle).close()

    def test_crash_after_manifest_swap_replays_nothing_twice(
        self, tmp_path, encoder, rows_a, rows_b, monkeypatch
    ):
        """compact() publishes the new generation, then dies before the WAL
        segments are deleted: their records are in the shard bundles now,
        so the next open cuts them instead of serving them twice."""
        base = len(rows_a) - 10
        engine = ShardedQueryEngine.build(
            rows_a[:base], encoder, n_shards=2, threshold=4, k=30, seed=SEED
        )
        bundle = engine.save(tmp_path / "idx")
        engine.ingest(rows_a[base:])
        unlink = Path.unlink

        def crash_on_wal(path, *args, **kwargs):
            if path.suffix == ".wal":
                raise OSError("killed before the WAL segments were deleted")
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", crash_on_wal)
        with pytest.raises(OSError, match="killed"):
            engine.compact()
        monkeypatch.undo()
        engine.close()

        reopened = ShardedQueryEngine.from_bundle(bundle)
        assert reopened.index.n_rows == reopened.index.next_id == len(rows_a)
        assert reopened.index.counters["wal_replayed_records"] == 0.0
        assert reopened.index.counters["wal_skipped_records"] == 10.0
        assert not any(replay_segment(bundle / wal_name(s)).records for s in (0, 1))
        rebuilt = QueryEngine.build(rows_a, encoder, threshold=4, k=30, seed=SEED)
        _assert_identical(rebuilt.query_batch(rows_b), reopened.query_batch(rows_b))
        assert reopened.ingest(rows_b[:3]) == list(range(len(rows_a), len(rows_a) + 3))
        reopened.compact()
        reopened.close()
        again = ShardedQueryEngine.from_bundle(bundle)
        rebuilt = QueryEngine.build(rows_a + rows_b[:3], encoder, threshold=4, k=30, seed=SEED)
        _assert_identical(rebuilt.query_batch(rows_b), again.query_batch(rows_b))
        again.close()

    def test_crash_between_two_shards_fsyncs_replays_a_prefix(
        self, tmp_path, encoder, rows_a, rows_b
    ):
        """append_batch dies after shard 0's frames are durable and before
        shard 1's: the batch was never acknowledged, so the open applies its
        dense prefix of ids and cuts shard 0's frames past the first gap."""
        base = len(rows_a) - 8
        engine = ShardedQueryEngine.build(
            rows_a[:base], encoder, n_shards=2, threshold=4, k=30, seed=SEED
        )
        bundle = engine.save(tmp_path / "idx")
        engine.close()
        batch = np.arange(base, len(rows_a))
        owners = shards_of_ids(batch, 2)
        durable = batch[owners == 0].tolist()
        (bundle / wal_name(0)).write_bytes(
            b"".join(frame(_wal_payload(gid, rows_a[gid])) for gid in durable)
        )
        assert (owners == 1).any()
        prefix = int(np.argmax(owners == 1))  # ids before the first of shard 1
        assert len(durable) > prefix  # some of shard 0's frames lie past the gap

        reopened = ShardedQueryEngine.from_bundle(bundle)
        index = reopened.index
        assert index.n_rows == index.next_id == base + prefix
        assert index.counters["wal_replayed_records"] == float(prefix)
        assert index.counters["wal_skipped_records"] == float(len(durable) - prefix)
        assert len(replay_segment(bundle / wal_name(0)).records) == prefix
        added = reopened.ingest(rows_b[:4])
        assert added == list(range(base + prefix, base + prefix + 4))
        reopened.compact()
        reopened.close()
        again = ShardedQueryEngine.from_bundle(bundle)
        rows = rows_a[: base + prefix] + rows_b[:4]
        rebuilt = QueryEngine.build(rows, encoder, threshold=4, k=30, seed=SEED)
        _assert_identical(rebuilt.query_batch(rows_b), again.query_batch(rows_b))
        _assert_identical(
            rebuilt.query_batch(rows_b, top_k=2), again.query_batch(rows_b, top_k=2)
        )
        again.close()


class TestAtomicPublish:
    def test_failed_write_leaves_no_target(self, tmp_path):
        def boom(tmp):
            (tmp / "partial.npy").write_bytes(b"half")
            raise RuntimeError("killed mid-save")

        with pytest.raises(RuntimeError):
            write_dir_atomic(tmp_path / "out", boom)
        assert not (tmp_path / "out").exists()
        assert not list(tmp_path.iterdir())  # temp dir cleaned up

    def test_failed_resave_keeps_previous_bundle(
        self, tmp_path, encoder, rows_a, monkeypatch
    ):
        """Satellite: a killed QueryEngine.save never corrupts the old bundle."""
        engine = QueryEngine.build(rows_a, encoder, threshold=4, k=30, seed=SEED)
        bundle = engine.save(tmp_path / "idx")
        assert load_index_snapshot(bundle).n_rows == len(rows_a)

        smaller = QueryEngine.build(rows_a[:10], encoder, threshold=4, k=30, seed=SEED)
        import repro.core.persist as persist

        real_save = persist.np.save
        calls = {"n": 0}

        def flaky_save(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise OSError("disk gone")
            return real_save(*args, **kwargs)

        monkeypatch.setattr(persist.np, "save", flaky_save)
        with pytest.raises(OSError):
            smaller.save(tmp_path / "idx")
        monkeypatch.setattr(persist.np, "save", real_save)
        assert load_index_snapshot(bundle).n_rows == len(rows_a)

    def test_sharded_save_is_atomic(self, tmp_path, encoder, rows_a, monkeypatch):
        engine = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=2, threshold=4, k=30, seed=SEED
        )
        bundle = engine.save(tmp_path / "idx")
        first = ShardedQueryEngine.from_bundle(bundle)
        assert first.n_indexed == len(rows_a)

        import repro.core.shards as shards

        def boom(*args, **kwargs):
            raise OSError("killed mid-compaction")

        # a compaction killed while writing shard bundles never swaps the
        # root manifest: the previous generation stays authoritative
        monkeypatch.setattr(shards, "save_index_snapshot", boom)
        engine.ingest(rows_a[:2])
        with pytest.raises(OSError):
            engine.compact()
        monkeypatch.undo()
        reopened = ShardedQueryEngine.from_bundle(bundle)
        assert reopened.index.version == 1
        assert reopened.n_indexed == len(rows_a) + 2  # WAL still replays


class TestStaleManifests:
    @pytest.fixture
    def bundle(self, tmp_path, encoder, rows_a):
        return ShardedQueryEngine.build(
            rows_a, encoder, n_shards=2, threshold=4, k=30, seed=SEED
        ).save(tmp_path / "idx")

    def test_kind_guards_both_loaders(self, tmp_path, bundle, encoder, rows_a, rows_b):
        """The single-index loader refuses a sharded root; ``ShardedIndex.open``
        reads the kind and serves a plain bundle as one read-only shard."""
        with pytest.raises(SnapshotError, match="sharded"):
            load_index_snapshot(bundle)
        single = QueryEngine.build(rows_a, encoder, threshold=4, k=30, seed=SEED)
        single_bundle = single.save(tmp_path / "single")
        with ShardedIndex.open(single_bundle) as plain:
            assert plain.n_shards == 1 and plain.shards[0].row_ids is None
            assert plain.n_rows == len(rows_a) and plain.overlay_rows == 0
            assert plain.path == single_bundle
            _assert_identical(
                single.query_batch(rows_b), QueryEngine(plain).query_batch(rows_b)
            )
        assert not (single_bundle / "wal").exists()
        with ShardedIndex.open(bundle) as sharded:
            assert sharded.n_shards == 2 and sharded.shards[0].row_ids is not None
        with pytest.raises(SnapshotError, match="manifest"):
            ShardedIndex.open(tmp_path / "absent").close()

    def test_stale_shard_row_count(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["shards"][0]["n_rows"] += 1
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="stale"):
            ShardedIndex.open(bundle).close()

    def test_swapped_root_encoder(self, bundle):
        sidecar = json.loads((bundle / "encoder.json").read_text())
        sidecar["attributes"][0]["hash_a"] += 1
        (bundle / "encoder.json").write_text(json.dumps(sidecar))
        with pytest.raises(SnapshotError, match="fingerprint"):
            ShardedIndex.open(bundle).close()

    def test_unsupported_format_version(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["format_version"] = 99
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="version"):
            ShardedIndex.open(bundle).close()

    def test_non_monotonic_row_ids(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        shard_dir = bundle / manifest["shards"][0]["dir"]
        row_ids = np.load(shard_dir / "row_ids.npy")
        np.save(shard_dir / "row_ids.npy", row_ids[::-1].copy(), allow_pickle=False)
        with pytest.raises(SnapshotError, match="increasing"):
            ShardedIndex.open(bundle).close()


class TestMergedView:
    """Every shard, overlay included, is served as one global-id view."""

    def test_query_batch_equals_full_linker(self, tmp_path, problem, encoder, rows_a, rows_b):
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=SEED)
        linker.encoder = encoder
        want = linker.link(problem.dataset_a, problem.dataset_b)
        bundle = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=3, threshold=4, k=30, seed=SEED
        ).save(tmp_path / "idx")
        engine = QueryEngine.from_bundle(bundle)
        try:
            got = engine.query_batch(rows_b)
            assert engine.n_shards == 3
            assert engine.index.counters.get("wal_replayed_records", 0.0) == 0.0
        finally:
            engine.close()
        assert set(zip(got.ids.tolist(), got.queries.tolist())) == want.matches
        assert want.n_matches > 0

    def test_streaming_linker_loads_sharded_bundle(
        self, tmp_path, encoder, rows_a, rows_b
    ):
        engine = ShardedQueryEngine.build(
            rows_a[:-2], encoder, n_shards=3, threshold=4, k=30, seed=SEED
        )
        bundle = engine.save(tmp_path / "idx")
        engine.ingest(rows_a[-2:])  # the reopened view must replay the overlay
        engine.close()
        loaded = QueryEngine.from_bundle(bundle)
        assert loaded.index.counters["wal_replayed_records"] == 2.0
        streaming = incremental_engine(encoder, rows_a, threshold=4, k=30, seed=SEED)
        assert loaded.query_batch(rows_b).matches() == query_each(streaming, rows_b)
        loaded.close()


class TestServingStats:
    def test_single_engine_accumulates_batch_timings(self, encoder, rows_a, rows_b):
        """Satellite: per-batch wall-clock survives _merge_stats."""
        engine = QueryEngine.build(rows_a, encoder, threshold=4, k=30, seed=SEED)
        engine.query_batch(rows_b)
        engine.query_batch(rows_b)
        assert engine.stats["n_batches"] == 2.0
        assert engine.stats["n_queries"] == float(2 * len(rows_b))
        assert engine.stats["time_embed_s"] > 0.0
        assert engine.stats["time_query_s"] > 0.0

    @pytest.mark.parametrize("n_shards", [None, 3], ids=["plain", "sharded"])
    @pytest.mark.parametrize("top_k", [None, 2], ids=["threshold", "topk"])
    def test_stats_keys_are_pinned(self, encoder, rows_a, rows_b, n_shards, top_k):
        """The keys the serving benchmarks read, and no others: a later
        stats registry must map these one to one."""
        engine = QueryEngine.build(
            rows_a, encoder, threshold=4, k=30, seed=SEED, n_shards=n_shards
        )
        engine.query_batch(rows_b, top_k=top_k)
        assert set(engine.stats) == {
            "n_batches",
            "n_queries",
            "time_embed_s",
            "time_query_s",
            "time_fanout_s",
            "time_merge_s",
        }
        assert len(engine.shard_stats) == engine.n_shards
        assert all(set(stats) == {"time_query_s"} for stats in engine.shard_stats)

    def test_sharded_engine_reports_fanout_and_shard_stats(
        self, encoder, rows_a, rows_b
    ):
        engine = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=3, threshold=4, k=30, seed=SEED
        )
        engine.query_batch(rows_b)
        for key in ("time_embed_s", "time_fanout_s", "time_merge_s"):
            assert engine.stats[key] >= 0.0
        assert engine.stats["n_batches"] == 1.0
        assert len(engine.shard_stats) == 3
        assert all(s["time_query_s"] >= 0.0 for s in engine.shard_stats)


class TestSerialSmallBatchPath:
    """Every batch, small or large, is one entry in the batch-time histogram."""

    def test_batch_time_histogram_records_every_batch(
        self, encoder, rows_a, rows_b
    ):
        engine = ShardedQueryEngine.build(
            rows_a, encoder, n_shards=2, threshold=4, k=30, seed=SEED
        )
        engine.query_batch(rows_b[:4])
        engine.query_batch(rows_b)
        assert engine.batch_time_hist.count == 2
        assert engine.batch_time_hist.percentile(0.99) > 0.0
        single = QueryEngine.build(rows_a, encoder, threshold=4, k=30, seed=SEED)
        single.query_batch(rows_b[:4])
        assert single.batch_time_hist.count == 1


class TestShardedCLI:
    @pytest.fixture(scope="class")
    def csv_pair(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cli")
        dataset = NCVRGenerator().generate(60, seed=5)
        ref, extra = root / "ref.csv", root / "extra.csv"
        write_dataset(dataset, ref)
        write_dataset(NCVRGenerator().generate(20, seed=6), extra)
        return ref, extra

    def test_build_query_parity_and_ingest_compact(self, tmp_path, csv_pair, capsys):
        from repro.cli import main

        ref, extra = csv_pair
        single, sharded = tmp_path / "single", tmp_path / "sharded"
        base = ["index", "build", str(ref), "--threshold", "4", "--seed", "7"]
        assert main(base + ["-o", str(single)]) == 0
        assert main(base + ["-o", str(sharded), "--shards", "3"]) == 0
        assert (sharded / "shards").is_dir() and (single / "words.npy").is_file()

        out_single, out_sharded = tmp_path / "m1.csv", tmp_path / "m2.csv"
        query = ["index", "query", "--top-k", "2"]
        assert main(query + [str(single), str(ref), "-o", str(out_single)]) == 0
        assert main(query + [str(sharded), str(ref), "-o", str(out_sharded)]) == 0
        assert out_single.read_text() == out_sharded.read_text()

        assert main(["index", "ingest", str(sharded), str(extra)]) == 0
        assert main(["index", "compact", str(sharded)]) == 0
        output = capsys.readouterr().out
        assert "ingested 20 records" in output
        assert "version 2" in output

    def test_ingest_rejects_single_bundle(self, tmp_path, csv_pair):
        from repro.cli import main

        ref, extra = csv_pair
        single = tmp_path / "single"
        assert (
            main(
                ["index", "build", str(ref), "-o", str(single), "--threshold", "4"]
            )
            == 0
        )
        with pytest.raises(SystemExit, match="not a sharded bundle"):
            main(["index", "ingest", str(single), str(extra)])
        with pytest.raises(SystemExit, match="not a sharded bundle"):
            main(["index", "compact", str(single)])
