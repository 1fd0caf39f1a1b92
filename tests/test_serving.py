"""Tests for index snapshots (repro.core.persist) and repro.serve.

Three layers of the serving story:

* the snapshot bundle round-trips **bit-identically** — loading must give
  the same candidates, matches and packed words as the in-memory index
  that produced it, with payloads still memory-mapped (zero-copy);
* corrupt or stale bundles fail loudly with :class:`SnapshotError`, never
  with silently wrong candidates;
* :class:`repro.serve.QueryEngine` answers batched threshold / top-k
  queries byte-identically for every bundle layout, shard count and
  batch size — an engine grown and queried record by record is the
  reference — including the golden-parity fixture.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.linker import CompactHammingLinker
from repro.core.persist import (
    IndexSnapshot,
    SnapshotError,
    encoder_fingerprint,
    load_index_snapshot,
    save_index_snapshot,
)
from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.core.encoder import RecordEncoder
from repro.data.generators import EXPERIMENT_SCHEME
from repro.core.shards import PlainBundleError, ShardedIndex
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.lsh import HammingLSH
from repro.hamming.query import group_matches
from repro.serve import QueryEngine
from repro.serve.engine import QueryResult
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


def _build_index(encoder, rows, k=30, seed=SEED, threshold=4):
    matrix = encoder.encode_dataset(rows)
    lsh = HammingLSH(
        n_bits=encoder.total_bits, k=k, threshold=threshold, seed=seed
    )
    lsh.index(matrix)
    return matrix, lsh


class TestSnapshotRoundTrip:
    def test_bit_identical_candidates_and_words(
        self, tmp_path, encoder, rows_a, rows_b
    ):
        matrix, lsh = _build_index(encoder, rows_a)
        bundle = save_index_snapshot(tmp_path / "idx", encoder, matrix, lsh, threshold=4)
        snap = load_index_snapshot(bundle)
        assert np.array_equal(np.asarray(snap.matrix.words), matrix.words)
        matrix_b = encoder.encode_dataset(rows_b)
        want = lsh.candidate_pairs(matrix_b)
        got = snap.lsh.candidate_pairs(matrix_b)
        assert np.array_equal(want[0], got[0]) and np.array_equal(want[1], got[1])
        assert snap.threshold == 4
        assert snap.path == bundle

    def test_payloads_stay_memory_mapped(self, tmp_path, encoder, rows_a):
        matrix, lsh = _build_index(encoder, rows_a)
        bundle = save_index_snapshot(tmp_path / "idx", encoder, matrix, lsh)
        snap = load_index_snapshot(bundle, mmap_mode="r")
        base = snap.matrix.words
        while getattr(base, "base", None) is not None:
            base = base.base
        assert type(base).__name__ == "mmap" or isinstance(base, np.memmap)

    def test_encoder_round_trips_bit_identically(self, tmp_path, encoder, rows_a):
        matrix, lsh = _build_index(encoder, rows_a)
        bundle = save_index_snapshot(tmp_path / "idx", encoder, matrix, lsh)
        snap = load_index_snapshot(bundle)
        assert encoder_fingerprint(snap.encoder) == encoder_fingerprint(encoder)
        assert snap.encoder.encode_dataset(rows_a[:10]) == encoder.encode_dataset(
            rows_a[:10]
        )

    def test_wide_composite_keys_round_trip(self, tmp_path, encoder, rows_a, rows_b):
        """K > 64 exercises the packed-bytes (void dtype) key representation."""
        matrix, lsh = _build_index(encoder, rows_a, k=70)
        bundle = save_index_snapshot(tmp_path / "idx", encoder, matrix, lsh)
        snap = load_index_snapshot(bundle)
        matrix_b = encoder.encode_dataset(rows_b)
        want = lsh.candidate_pairs(matrix_b)
        got = snap.lsh.candidate_pairs(matrix_b)
        assert np.array_equal(want[0], got[0]) and np.array_equal(want[1], got[1])

    def test_streaming_overlay_compacted_at_save(self, tmp_path, encoder, rows_a, rows_b):
        """Records ingested one by one (an unsaved engine, no WAL) are written
        into the shard bundle at save; the reloaded bundle answers alike."""
        streaming = incremental_engine(encoder, rows_a, threshold=4, k=30, seed=SEED)
        assert streaming.index.overlay_rows == len(rows_a)
        bundle = streaming.save(tmp_path / "idx")
        assert streaming.index.overlay_rows == 0
        loaded = QueryEngine.from_bundle(bundle)
        assert loaded.n_indexed == len(rows_a)
        assert loaded.index.counters.get("wal_replayed_records", 0.0) == 0.0
        _assert_identical(loaded.query_batch(rows_b), streaming.query_batch(rows_b))


class TestSnapshotErrors:
    @pytest.fixture
    def bundle(self, tmp_path, encoder, rows_a):
        matrix, lsh = _build_index(encoder, rows_a)
        return save_index_snapshot(tmp_path / "idx", encoder, matrix, lsh, threshold=4)

    def test_missing_bundle(self, tmp_path):
        with pytest.raises(SnapshotError, match="manifest"):
            load_index_snapshot(tmp_path / "nope")

    def test_version_mismatch(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        manifest["format_version"] = 99
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="version"):
            load_index_snapshot(bundle)

    def test_truncated_payload(self, bundle):
        payload = bundle / "words.npy"
        payload.write_bytes(payload.read_bytes()[:-64])
        with pytest.raises(SnapshotError):
            load_index_snapshot(bundle)

    def test_missing_payload(self, bundle):
        (bundle / "ids.npy").unlink()
        with pytest.raises(SnapshotError, match="ids.npy"):
            load_index_snapshot(bundle)

    def test_stale_encoder_sidecar(self, bundle):
        """An encoder swapped in after save must be rejected (fingerprint)."""
        sidecar = json.loads((bundle / "encoder.json").read_text())
        sidecar["attributes"][0]["hash_a"] += 1
        (bundle / "encoder.json").write_text(json.dumps(sidecar))
        with pytest.raises(SnapshotError, match="fingerprint"):
            load_index_snapshot(bundle)

    def test_corrupt_manifest_json(self, bundle):
        (bundle / "manifest.json").write_text("{not json")
        with pytest.raises(SnapshotError):
            load_index_snapshot(bundle)


def _arrays(result):
    return result.queries, result.ids, result.distances


def _tree_digests(root):
    """``{relative path: SHA-256}`` of every file under ``root``."""
    return {
        str(file.relative_to(root)): hashlib.sha256(file.read_bytes()).hexdigest()
        for file in sorted(root.rglob("*"))
        if file.is_file()
    }


def _assert_identical(left, right):
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(left), _arrays(right)))


class TestQueryEngine:
    @pytest.fixture(scope="class")
    def engine(self, encoder, rows_a):
        return QueryEngine.build(rows_a, encoder, threshold=4, k=30, seed=SEED)

    @pytest.fixture(scope="class")
    def streaming(self, encoder, rows_a):
        return incremental_engine(encoder, rows_a, threshold=4, k=30, seed=SEED)

    def test_matches_streaming_reference(self, engine, streaming, rows_b):
        assert engine.query_batch(rows_b).matches() == query_each(streaming, rows_b)

    def test_top_k_matches_streaming_reference(self, engine, streaming, rows_b):
        got = engine.query_batch(rows_b, top_k=2).matches()
        assert got == query_each(streaming, rows_b, top_k=2)

    def test_save_load_identical(self, tmp_path, engine, rows_b):
        reference = engine.query_batch(rows_b)
        bundle = engine.save(tmp_path / "idx")
        assert engine.index.path == bundle
        loaded = QueryEngine.from_snapshot(bundle)
        _assert_identical(reference, loaded.query_batch(rows_b))

    def test_manifest_chunk_budget_key_is_ignored(self, tmp_path, engine, rows_b):
        """A bundle built with a candidate budget carries ``max_chunk_pairs``
        in its manifest; it still loads (format_version 1) and answers alike."""
        bundle = engine.save(tmp_path / "idx")
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert "max_chunk_pairs" not in manifest
        manifest["max_chunk_pairs"] = 2048
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        loaded = QueryEngine.from_bundle(bundle)
        for top_k in (None, 2):
            want = _arrays(engine.query_batch(rows_b, top_k=top_k))
            got = _arrays(loaded.query_batch(rows_b, top_k=top_k))
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_save_writes_the_plain_snapshot_layout_byte_for_byte(
        self, tmp_path, encoder, rows_a
    ):
        """Same file names, same SHA-256s as save_index_snapshot (format_version 1)."""
        matrix, lsh = _build_index(encoder, rows_a)
        want = save_index_snapshot(tmp_path / "want", encoder, matrix, lsh, threshold=4)
        got = QueryEngine.build(rows_a, encoder, threshold=4, k=30, seed=SEED).save(
            tmp_path / "got"
        )
        assert _tree_digests(got) == _tree_digests(want)
        assert json.loads((got / "manifest.json").read_text())["format_version"] == 1

    def test_plain_bundle_refuses_ingest_and_compact_untouched(
        self, tmp_path, encoder, rows_a
    ):
        """No WAL, so nothing may be acknowledged: one typed error, no write."""
        built = QueryEngine.build(rows_a, encoder, threshold=4, k=30, seed=SEED)
        with pytest.raises(PlainBundleError, match="in-memory index is not a sharded bundle"):
            built.ingest([rows_a[0]])
        bundle = built.save(tmp_path / "idx")
        before = _tree_digests(bundle), sorted(bundle.iterdir())
        engine = QueryEngine.from_bundle(bundle)
        with pytest.raises(PlainBundleError, match="idx is not a sharded bundle; online ingest"):
            engine.ingest([rows_a[0]])
        with pytest.raises(PlainBundleError, match="idx is not a sharded bundle; nothing to compact"):
            engine.compact()
        engine.close()
        assert engine.n_indexed == len(rows_a)
        assert (_tree_digests(bundle), sorted(bundle.iterdir())) == before

    def test_threshold_override_and_empty_batch(self, engine, rows_b):
        assert engine.query_batch([]).n_queries == 0
        loose = engine.query_batch(rows_b, threshold=engine.index.n_bits)
        strict = engine.query_batch(rows_b, threshold=0)
        assert loose.n_matches >= engine.query_batch(rows_b).n_matches >= strict.n_matches

    def test_rejects_thresholdless_snapshot(self, engine):
        index = engine.index
        snapshot = IndexSnapshot(
            encoder=index.encoder,
            matrix=BitMatrix(index.words, index.n_bits),
            lsh=index.lsh,
            threshold=None,
        )
        with pytest.raises(ValueError, match="threshold"):
            QueryEngine(ShardedIndex.single(snapshot))

    def test_rejects_bad_top_k(self, engine, rows_b):
        with pytest.raises(ValueError, match="top_k"):
            engine.query_batch(rows_b, top_k=0)

    @pytest.mark.parametrize("batch", [0, 1])
    @pytest.mark.parametrize(
        "arguments, message",
        [({"top_k": 0}, "top_k"), ({"top_k": -1}, "top_k"), ({"threshold": -1}, "threshold")],
        ids=["top_k-0", "top_k-negative", "threshold-negative"],
    )
    def test_arguments_checked_for_every_batch_size(self, engine, rows_b, batch, arguments, message):
        """An empty batch is refused what a one-row batch is refused."""
        with pytest.raises(ValueError, match=message):
            engine.query_batch(rows_b[:batch], **arguments)


#: Every way the one engine can hold the same 150 records.
LAYOUTS = (
    "memory-plain",
    "saved-plain",
    "memory-1",
    "memory-2",
    "memory-4",
    "saved-1",
    "saved-2",
    "saved-4",
    "overlay-4",
    "replayed-4",
)


class TestGroupMatches:
    @staticmethod
    def _scalar_loop(queries, ids, distances, n_queries):
        """The per-element loop ``group_matches`` replaced."""
        out = [[] for __ in range(n_queries)]
        for query, rid, dist in zip(queries, ids, distances):
            out[int(query)].append((int(rid), int(dist)))
        return out

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_scalar_loop(self, seed):
        rng = np.random.default_rng(seed)
        n_queries = int(rng.integers(2, 64))
        n = int(rng.integers(0, 300))
        # Grouped by query, some queries with no match at all.
        asked = rng.choice(n_queries, size=max(1, n_queries // 2), replace=False)
        queries = np.sort(rng.choice(asked, size=n)).astype(np.int64)
        ids = rng.integers(0, 100_000, size=n, dtype=np.int64)
        distances = rng.integers(0, 40, size=n, dtype=np.int64)
        want = self._scalar_loop(queries, ids, distances, n_queries)
        got = group_matches(queries, ids, distances, n_queries)
        assert got == want
        assert QueryResult(queries, ids, distances, n_queries).matches() == want
        assert all(type(v) is int for answer in got for pair in answer for v in pair)
        assert len(got) == n_queries and [] in got


class TestOneEngineParity:
    """Layout x mode x batch size: an engine grown and queried record by
    record is the reference, and every layout returns the same arrays as
    the plain in-memory engine."""

    @pytest.fixture(scope="class")
    def stream(self, rows_b):
        return [rows_b[i % len(rows_b)] for i in range(1024)]

    @pytest.fixture(scope="class")
    def reference(self, encoder, rows_a, stream):
        streaming = incremental_engine(encoder, rows_a, threshold=4, k=30, seed=SEED)
        # Threshold mode is ordered by record id; the per-record query is not.
        answers = {None: [sorted(answer) for answer in query_each(streaming, stream)]}
        for top_k in (1, 5):
            answers[top_k] = query_each(streaming, stream, top_k=top_k)
        return answers

    @pytest.fixture(scope="class")
    def engines(self, tmp_path_factory, encoder, rows_a):
        root = tmp_path_factory.mktemp("layouts")

        def build(rows, n_shards=None):
            return QueryEngine.build(
                rows, encoder, threshold=4, k=30, seed=SEED, n_shards=n_shards
            )

        out = {"memory-plain": build(rows_a)}
        out["saved-plain"] = QueryEngine.from_snapshot(build(rows_a).save(root / "plain"))
        for n_shards in (1, 2, 4):
            out[f"memory-{n_shards}"] = build(rows_a, n_shards)
            out[f"saved-{n_shards}"] = QueryEngine.from_bundle(
                build(rows_a, n_shards).save(root / f"sharded{n_shards}")
            )
        overlay = build(rows_a[:100], 4)
        overlay.save(root / "overlay")
        overlay.ingest(rows_a[100:])
        assert overlay.index.overlay_rows == len(rows_a) - 100
        out["overlay-4"] = overlay
        logged = build(rows_a[:100], 4)
        bundle = logged.save(root / "replayed")
        logged.ingest(rows_a[100:])
        logged.close()
        out["replayed-4"] = QueryEngine.from_bundle(bundle)
        assert out["replayed-4"].index.counters["wal_replayed_records"] == len(rows_a) - 100
        yield out
        for engine in out.values():
            engine.close()

    @pytest.mark.parametrize("batch", [0, 1, 64, 1024])
    @pytest.mark.parametrize("top_k", [None, 1, 5])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_layout_mode_batch(self, engines, reference, stream, layout, top_k, batch):
        got = engines[layout].query_batch(stream[:batch], top_k=top_k)
        assert got.n_queries == batch
        assert got.matches() == reference[top_k][:batch]
        want = engines["memory-plain"].query_batch(stream[:batch], top_k=top_k)
        for a, b in zip(_arrays(got), _arrays(want)):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestFromBundle:
    def test_query_batch_equals_full_linker(self, tmp_path, problem, encoder, rows_a, rows_b):
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=SEED)
        linker.encoder = encoder
        want = linker.link(problem.dataset_a, problem.dataset_b)
        bundle = QueryEngine.build(rows_a, encoder, threshold=4, k=30, seed=SEED).save(
            tmp_path / "idx"
        )
        engine = QueryEngine.from_bundle(bundle)
        try:
            got = engine.query_batch(rows_b)
        finally:
            engine.close()
        assert set(zip(got.ids.tolist(), got.queries.tolist())) == want.matches
        assert want.n_matches > 0


class TestGoldenParity:
    """The snapshot path reproduces the committed golden streaming run."""

    def test_snapshot_serves_golden_streaming_matches(self, tmp_path):
        golden = json.loads(GOLDEN_PATH.read_text())["streaming"]
        prob = make_problem()
        calibrator = CompactHammingLinker.record_level(
            threshold=THRESHOLD, k=K, seed=PROBLEM_SEED
        )
        enc = calibrator.calibrate(prob.dataset_a, prob.dataset_b)
        streaming = incremental_engine(enc, prob.dataset_a.value_rows())
        bundle = streaming.save(tmp_path / "idx")
        engine = QueryEngine.from_snapshot(bundle)
        result = engine.query_batch(
            [tuple(r) for r in prob.dataset_b.value_rows()]
        )
        matches = sorted(
            [int(a), int(b)] for b, a in zip(result.queries, result.ids)
        )
        assert matches == golden["matches"]
        assert len(matches) == golden["n_matches"]
