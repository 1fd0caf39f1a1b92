"""Tests for the hot-path engine: interning, the one match kernel, memory.

Covers the layers of the performance engine plus the invariant the engine
must never break: every record-level link is ``HammingLSH.match`` byte for
byte.
"""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from repro.core.cvector import CVectorEncoder, intern_column
from repro.core.encoder import RecordEncoder
from repro.core.linker import CompactHammingLinker, StreamingLinker
from repro.core.qgram import (
    QGramScheme,
    clear_index_set_cache,
    index_set_cache_info,
    qgram_index_set,
)
from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.data.generators import EXPERIMENT_SCHEME
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.lsh import HammingLSH
from repro.perf import LogHistogram
from repro.pipeline.runner import LinkagePipeline


RECORDS = [
    ("JOHN", "SMITH"),
    ("JANE", "SMITH"),
    ("JOHN", "DOE"),
    ("JOHN", "SMITH"),
    ("", "SMITH"),
] * 8


class TestInternedEncoding:
    def test_interned_index_set_matches_uncached(self):
        scheme = QGramScheme()
        for value in ("JOHN", "SMITH", "", "A"):
            assert scheme.index_set(value) == qgram_index_set(value)

    def test_cache_hits_on_repeated_values(self):
        clear_index_set_cache()
        scheme = QGramScheme()
        scheme.index_set("REPEATED")
        before_hits = index_set_cache_info()[0]
        scheme.index_set("REPEATED")
        assert index_set_cache_info()[0] == before_hits + 1

    def test_intern_column_counts(self):
        column = intern_column(["JOHN", "JANE", "JOHN", "JOHN"], QGramScheme())
        assert column.n_values == 4
        assert column.n_unique == 2
        assert column.hit_rate == pytest.approx(0.5)

    def test_encode_all_matches_per_string_encode(self):
        enc = CVectorEncoder(64, seed=1)
        values = ["JOHN", "", "JOHN", "AB", "SMITH"]
        expected = BitMatrix.from_vectors([enc.encode(v) for v in values])
        assert enc.encode_all(values) == expected

    def test_encode_dataset_matches_per_record_encode(self):
        enc = RecordEncoder.calibrated(RECORDS, seed=3)
        expected = BitMatrix.from_vectors([enc.encode(r) for r in RECORDS])
        assert enc.encode_dataset(RECORDS) == expected

    def test_encode_dataset_reports_intern_stats(self):
        enc = RecordEncoder.calibrated(RECORDS, seed=3)
        stats = {}
        enc.encode_dataset(RECORDS, stats=stats)
        assert stats["intern_values"] == len(RECORDS) * 2
        assert 0.0 < stats["intern_hit_rate"] < 1.0

    def test_compact_indices_cached(self):
        enc = CVectorEncoder(64, seed=1)
        assert enc.compact_indices("JOHN") is enc.compact_indices("JOHN")


class TestLinkageInvariance:
    """Same seed => byte-identical results for every engine setting."""

    @pytest.fixture(scope="class")
    def problem(self):
        return build_linkage_problem(NCVRGenerator(), 250, scheme_pl(), seed=7)

    @pytest.fixture(scope="class")
    def reference(self, problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=7)
        return linker.link(problem.dataset_a, problem.dataset_b)

    def _assert_identical(self, result, reference):
        assert np.array_equal(result.rows_a, reference.rows_a)
        assert np.array_equal(result.rows_b, reference.rows_b)
        assert np.array_equal(result.record_distances, reference.record_distances)
        assert result.n_candidates == reference.n_candidates
        assert result.matches == reference.matches

    def test_link_equals_match_kernel(self, problem, reference):
        """The record-level link is one ``HammingLSH.match`` call, byte for byte."""
        a, b = problem.dataset_a, problem.dataset_b
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=7)
        encoder = linker.calibrate(a, b)
        matrix_a = encoder.encode_dataset(a.value_rows())
        lsh = linker._build_blocker(encoder)
        lsh.index(matrix_a)
        counters: dict[str, float] = {}
        want = lsh.match(matrix_a.words, encoder.encode_dataset(b.value_rows()), 4, counters)
        got = (reference.rows_a, reference.rows_b, reference.record_distances)
        for have, expected in zip(got, want):
            assert have.dtype == expected.dtype and have.tobytes() == expected.tobytes()
        assert reference.n_candidates == counters["pairs_unique"] > reference.n_matches
        assert {key: reference.counters[key] for key in counters} == counters
        assert counters["pairs_duplicates"] == counters["pairs_generated"] - counters["pairs_unique"]

    def test_streaming_link_equals_match_kernel(self, problem, reference):
        """``StreamingLinker.link`` runs the same kernel: same matches, order, counts."""
        a, b = problem.dataset_a, problem.dataset_b
        encoder = CompactHammingLinker.record_level(threshold=4, k=30, seed=7).calibrate(a, b)
        self._assert_identical(StreamingLinker(encoder, threshold=4, k=30, seed=7).link(a, b),
                               reference)

    def test_link_runs_each_layer_once(self, problem, monkeypatch):
        """The runner adds no work: one ``link()`` embeds each side once,
        indexes A once and runs the match kernel once (the count form of the
        suite's ``pipeline.overhead_s``).  The streaming link's index layer
        is its one batch ``insert_rows``."""
        a, b = problem.dataset_a, problem.dataset_b
        encoder = CompactHammingLinker.record_level(threshold=4, k=30, seed=7).calibrate(a, b)
        calls: dict[str, int] = {}
        for cls, name in (
            (RecordEncoder, "encode_dataset"),
            (HammingLSH, "index"),
            (HammingLSH, "insert_rows"),
            (HammingLSH, "match"),
        ):
            def counted(*args, _original=getattr(cls, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        CompactHammingLinker.record_level(threshold=4, k=30, seed=7).link(a, b)
        assert calls == {"encode_dataset": 2, "index": 1, "match": 1}
        calls.clear()
        StreamingLinker(encoder, threshold=4, k=30, seed=7).link(a, b)
        assert calls == {"encode_dataset": 2, "insert_rows": 1, "match": 1}

    def test_counters_populated(self, problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=7)
        result = linker.link(problem.dataset_a, problem.dataset_b)
        for key in (
            "intern_hit_rate",
            "pairs_generated",
            "pairs_unique",
            "pairs_verified",
            "max_bucket_product",
        ):
            assert key in result.counters
        assert result.counters["pairs_verified"] == result.n_candidates


class _MeteredStage:
    """A pipeline stage that notes the traced memory its inner stage starts from."""

    def __init__(self, stage, log):
        self.stage, self.timing, self.log = stage, stage.timing, log

    def run(self, ctx):
        entry = tracemalloc.get_traced_memory()[0]
        self.log.append([type(self.stage).__name__, entry, entry])
        self.stage.run(ctx)


def traced_link(linker, dataset_a, dataset_b):
    """``linker.link`` under ``tracemalloc`` (which sees numpy's allocations).

    Returns the result, the traced peak in bytes, each stage's
    ``[name, traced at entry, traced peak]`` and, per line of ``repro/``
    source, the most traced memory rose while that line ran — at least
    the size of any single allocation it made.
    """
    stages, lines = [], {}
    state = {"base": 0, "where": None, "peak": 0}

    def on_line(frame, event, arg):
        if event == "line":
            current, peak = tracemalloc.get_traced_memory()
            lines[state["where"]] = max(lines.get(state["where"], 0), peak - state["base"])
            state["peak"] = max(state["peak"], peak)
            if stages:
                stages[-1][2] = max(stages[-1][2], peak)
            tracemalloc.reset_peak()
            where = (frame.f_code.co_filename.rpartition("/repro/")[2], frame.f_lineno)
            state["base"], state["where"] = current, where
        return on_line

    def on_call(frame, event, arg):
        return on_line if "/repro/" in frame.f_code.co_filename else None

    metered = [_MeteredStage(stage, stages) for stage in linker._stages()]
    previous = sys.gettrace()
    tracemalloc.start()
    sys.settrace(on_call)
    try:
        result = LinkagePipeline(metered).run(dataset_a, dataset_b)
    finally:
        sys.settrace(previous)
        tracemalloc.stop()
    return result, state["peak"], stages, lines


class TestMemoryGate:
    """A cold ``link()`` holds its raw candidate pairs once and nothing else
    the size of the candidates — as traced bytes, which repeat exactly, so a
    reintroduced candidate-sized temporary fails here, not in a noisy
    benchmark.  20 000 generated NCVR records a side, the heaviest of
    linker seeds 7..12, at the paper's ``K = 30`` (131 k raw pairs: 1 MB,
    less than the index-sized arrays beside them, so what shows there is
    the embed's block size: ``17f9406`` peaks at 16.1 MB against 13.2) and
    at ``K = 18`` (887 k raw pairs: 7 MB, where ``17f9406`` peaks at
    43.7 MB against 14.2 and breaks all three bounds)."""

    MIB = 1 << 20
    #: Everything a link holds that is not the size of its candidates: value
    #: rows, columns, matrices, ``L x n`` key and probe arrays (11.1 MB at K = 30).
    FIXED = 12 * MIB
    #: What the match stage adds beside the pairs: the probe and the bucket
    #: search, ~9 arrays of ``L x n`` cells (8.8 MB at L = 6).
    STAGE = 10 * MIB
    #: Three 64 k-cell ``int64`` temporaries: a block's worth in one expression.
    BLOCK = 3 * MIB // 2

    @pytest.fixture(scope="class")
    def problem(self):
        return build_linkage_problem(NCVRGenerator(), 20_000, scheme_pl(), seed=7)

    @pytest.mark.parametrize("k", [30, 18])
    def test_link_holds_its_raw_pairs_once(self, problem, k):
        a, b = problem.dataset_a, problem.dataset_b

        def linker(seed):
            return CompactHammingLinker.record_level(threshold=4, k=k, seed=seed)

        def generated(seed):
            return linker(seed).link(a, b).counters["pairs_generated"]

        result, peak, stages, lines = traced_link(linker(max(range(7, 13), key=generated)), a, b)
        raw = 8 * int(result.counters["pairs_generated"])
        assert raw == {30: 8 * 130_639, 18: 8 * 887_074}[k]
        assert peak < 2 * raw + self.FIXED
        name, entry, top = stages[-1]  # the match stage: join, de-dup, verify
        assert top - entry < raw + self.STAGE, name
        worst = max(lines, key=lines.get)
        assert lines[worst] < raw + self.BLOCK, worst


class TestStreamingBatchedQuery:
    def test_query_matches_per_id_reference(self):
        rows = NCVRGenerator().generate(120, seed=11).value_rows()
        encoder = RecordEncoder.calibrated(rows, scheme=EXPERIMENT_SCHEME, seed=11)
        streaming = StreamingLinker(encoder, threshold=4, k=30, seed=11)
        for values in rows[:80]:
            streaming.insert(values)
        for values in rows[40:]:
            got = streaming.query(values)
            vector = encoder.encode(values)
            expected = []
            for rid in streaming._lsh.query(vector):
                distance = streaming.vector(rid).hamming(vector)
                if distance <= streaming.threshold:
                    expected.append((rid, distance))
            assert got == expected

    def test_growable_store_roundtrips_vectors(self):
        rows = NCVRGenerator().generate(40, seed=5).value_rows()
        encoder = RecordEncoder.calibrated(rows, scheme=EXPERIMENT_SCHEME, seed=5)
        streaming = StreamingLinker(encoder, threshold=4, k=30, seed=5)
        for values in rows:
            streaming.insert(values)
        assert len(streaming) == len(rows)
        for i, values in enumerate(rows):
            assert streaming.vector(i) == encoder.encode(values)
        with pytest.raises(IndexError):
            streaming.vector(len(rows))


class TestLogHistogram:
    def test_count_mean_and_sum_are_exact(self):
        hist = LogHistogram.latency()
        values = [0.001, 0.002, 0.004, 0.050]
        for value in values:
            hist.record(value)
        assert hist.count == len(values)
        assert hist.total == pytest.approx(sum(values))
        assert hist.mean == pytest.approx(sum(values) / len(values))

    def test_percentile_is_conservative_within_one_bucket(self):
        """The reported quantile is the bucket's upper edge: at or above
        the true value, and within one geometric bucket width of it."""
        hist = LogHistogram.latency()
        width = 10.0 ** (1.0 / hist.buckets_per_decade)
        for value in (0.001, 0.002, 0.003, 0.010, 0.200):
            hist.record(value)
            reported = hist.percentile(1.0)
            assert value <= reported <= value * width

    def test_a_value_on_an_edge_reports_that_edge(self):
        """Edges do not drift: exactly 10 ms is reported as 10 ms, not as the
        next edge up (13.3 ms when edges were products of many steps)."""
        hist = LogHistogram.latency()
        hist.record(0.010)
        assert hist.percentile(0.5) <= 0.010
        per = hist.buckets_per_decade
        decades = [edge for i, edge in enumerate(hist.bounds, 1) if i % per == 0]
        assert decades == [10.0**e for e in range(-5, 4)] and hist.bounds[-1] == hist.hi

    def test_percentiles_are_monotonic(self):
        rng = np.random.default_rng(3)
        hist = LogHistogram.latency()
        for value in rng.lognormal(mean=-6.0, sigma=1.5, size=500):
            hist.record(float(value))
        quantiles = [hist.percentile(q) for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0)]
        assert quantiles == sorted(quantiles)

    def test_underflow_and_overflow_clamp_to_grid_edges(self):
        hist = LogHistogram(lo=1e-3, hi=1e2)
        hist.record(1e-9)
        hist.record(1e9)
        assert hist.percentile(0.25) == hist.lo
        assert hist.percentile(1.0) == hist.hi
        assert hist.count == 2

    def test_merge_equals_recording_into_one(self):
        left, right, both = (LogHistogram.sizes() for __ in range(3))
        for value in (1, 4, 16, 64):
            left.record(value)
            both.record(value)
        for value in (2, 256, 4096):
            right.record(value)
            both.record(value)
        left.merge(right)
        assert left.counts == both.counts
        assert left.count == both.count
        assert left.total == pytest.approx(both.total)
        for q in (0.5, 0.95, 0.99):
            assert left.percentile(q) == both.percentile(q)

    def test_merge_rejects_different_grids(self):
        with pytest.raises(ValueError):
            LogHistogram.latency().merge(LogHistogram.sizes())

    def test_snapshot_roundtrips_the_distribution(self):
        hist = LogHistogram.sizes()
        for value in (1, 1, 8, 8, 8, 500):
            hist.record(value)
        snap = hist.snapshot()
        assert snap["count"] == 6
        assert snap["sum"] == pytest.approx(526.0)
        assert sum(snap["buckets"].values()) == snap["count"]
        assert all(n > 0 for n in snap["buckets"].values())  # sparse
        json.dumps(snap)

    def test_empty_histogram(self):
        hist = LogHistogram.latency()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.percentile(0.99) == 0.0
        assert hist.snapshot()["buckets"] == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            LogHistogram(lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            LogHistogram(lo=2.0, hi=1.0)
        with pytest.raises(ValueError):
            LogHistogram(lo=1.0, hi=10.0, buckets_per_decade=0)
        with pytest.raises(ValueError):
            LogHistogram.latency().percentile(1.5)
