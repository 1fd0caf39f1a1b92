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

from repro.core.cvector import CVectorEncoder, intern_column, value_bits
from repro.core.encoder import RecordEncoder
from repro.core.linker import CompactHammingLinker
from repro.core.qgram import (
    QGramScheme,
    clear_index_set_cache,
    index_set_cache_info,
    qgram_index_set,
)
from repro.data import (
    Dataset,
    DBLPGenerator,
    NCVRGenerator,
    build_linkage_problem,
    scheme_ph,
    scheme_pl,
)
from repro.data.generators import EXPERIMENT_SCHEME
from repro.hamming import lsh as lsh_module
from repro.hamming.lsh import CompositeHash, HammingLSH
from repro.perf import LogHistogram
from repro.rules import blocking as blocking_module
from repro.rules.parser import parse_rule
from tests.bits import reference_words, row_int
from tests.golden_linkers import incremental_engine, query_each


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
        words = enc.encode_all(values).words
        assert [row_int(row) for row in words] == [value_bits(enc, 0, v) for v in values]

    def test_encode_dataset_matches_per_record_encode(self):
        enc = RecordEncoder.calibrated(RECORDS, seed=3)
        assert np.array_equal(enc.encode_dataset(RECORDS).words, reference_words(enc, RECORDS))

    def test_encode_dataset_reports_intern_stats(self):
        enc = RecordEncoder.calibrated(RECORDS, seed=3)
        stats = {}
        enc.encode_dataset(RECORDS, stats=stats)
        assert stats["intern_values"] == len(RECORDS) * 2
        assert 0.0 < stats["intern_hit_rate"] < 1.0


class TestLinkageInvariance:
    """Same seed => byte-identical results for every engine setting."""

    @pytest.fixture(scope="class")
    def problem(self):
        return build_linkage_problem(NCVRGenerator(), 250, scheme_pl(), seed=7)

    @pytest.fixture(scope="class")
    def reference(self, problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=7)
        return linker.link(problem.dataset_a, problem.dataset_b)

    def test_link_equals_match_kernel(self, problem, reference):
        """The record-level link is one ``HammingLSH.match`` call, byte for byte."""
        a, b = problem.dataset_a, problem.dataset_b
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=7)
        encoder = linker.calibrate(a, b)
        matrix_a = encoder.encode_dataset(a.value_rows())
        lsh = HammingLSH(n_bits=encoder.total_bits, k=30, threshold=4, seed=7)
        lsh.index(matrix_a)
        counters: dict[str, float] = {}
        want = lsh.match(matrix_a.words, encoder.encode_dataset(b.value_rows()), 4, counters)
        got = (reference.rows_a, reference.rows_b, reference.record_distances)
        for have, expected in zip(got, want):
            assert have.dtype == expected.dtype and have.tobytes() == expected.tobytes()
        assert reference.n_candidates == counters["pairs_unique"] > reference.n_matches
        assert {key: reference.counters[key] for key in counters} == counters
        assert counters["pairs_duplicates"] == counters["pairs_generated"] - counters["pairs_unique"]

    def test_link_runs_each_layer_once(self, problem, monkeypatch):
        """``link()`` adds no work: it embeds each side once,
        indexes A once and runs the match kernel once (the count form of the
        suite's ``pipeline.overhead_s``)."""
        a, b = problem.dataset_a, problem.dataset_b
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


def force_block_rows(monkeypatch, rows):
    """Set the match byte budget to ``rows`` rows of whatever tables each match
    probes (``None``: all of B in one block); returns the rows of every block
    matched from then on."""
    seen = []
    original = lsh_module.match_blocks

    def blocks(matrix_b, n_tables, locate, match):
        budget = 1 << 62 if rows is None else rows * n_tables * lsh_module._PROBE_CELL_BYTES
        monkeypatch.setattr(lsh_module, "MATCH_BLOCK_BYTES", budget)

        def counted(lo, block, located):
            seen.append(block.n_rows)
            return match(lo, block, located)

        return original(matrix_b, n_tables, locate, counted)

    monkeypatch.setattr(lsh_module, "match_blocks", blocks)
    monkeypatch.setattr(blocking_module, "match_blocks", blocks)
    return seen


class TestBlockSizeInvariance:
    """B blocks partition the pairs, so the block size changes no output:
    with the budget forced to one-row, seven-row and one-block blocks, the
    record-level and rule-aware links return the same matches,
    distances, candidate count and counters as at the default budget —
    except ``max_bucket_product``, the largest product within one block."""

    NAMES = ["FirstName", "LastName", "Address", "Town"]
    K = {"FirstName": 5, "LastName": 5, "Address": 10, "Town": 4}
    RULES = [
        "(FirstName<=4) & (LastName<=4) & (Address<=8)",  # C1: one AND structure
        "(FirstName<=2) | (LastName<=2)",  # OR: a structure per arm
        "(FirstName<=4) & (Address<=8) & !(Town<=2)",  # NOT: an exclusion structure
        "[(FirstName<=4) & (LastName<=4)] | [(Address<=8) & (Town<=4)]",  # C1'
        "[(FirstName<=4) | (LastName<=4)] & [(Address<=8) | (Town<=4)]",  # C2'
        "(LastName<=4) & !((FirstName<=1) | (Town<=1))",  # NOT over a compound
    ]

    @pytest.fixture(scope="class")
    def problem(self):
        return build_linkage_problem(NCVRGenerator(), 300, scheme_pl(), seed=7)

    @pytest.fixture(scope="class")
    def encoder(self, problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=7)
        return linker.calibrate(problem.dataset_a, problem.dataset_b)

    def _links(self, problem, encoder):
        a, b = problem.dataset_a, problem.dataset_b
        yield "record", CompactHammingLinker.record_level(threshold=4, k=30, seed=7).link(a, b)
        for text in self.RULES:
            linker = CompactHammingLinker.rule_aware(
                parse_rule(text), k=self.K, attribute_names=self.NAMES, seed=7
            )
            yield text, linker.link(a, b)

    @staticmethod
    def _outcome(result):
        arrays = {"rows_a": result.rows_a, "rows_b": result.rows_b}
        if result.record_distances is not None:
            arrays["record"] = result.record_distances
        arrays.update(result.attribute_distances)
        counters = dict(result.counters)
        counters.pop("max_bucket_product", None)
        return {name: (a.dtype.str, a.tobytes()) for name, a in arrays.items()}, (
            result.n_candidates, counters
        )

    @pytest.fixture(scope="class")
    def reference(self, problem, encoder):
        return {name: self._outcome(result) for name, result in self._links(problem, encoder)}

    @pytest.mark.parametrize("rows", [1, 7, None], ids=["1-row", "7-rows", "all-of-B"])
    def test_links_equal_at_every_block_size(self, problem, encoder, reference, monkeypatch, rows):
        seen = force_block_rows(monkeypatch, rows)
        for name, result in self._links(problem, encoder):
            assert self._outcome(result) == reference[name], name
            if name == "record":
                assert 0 < result.n_matches < result.n_candidates
        if rows is None:
            assert set(seen) == {300}
        else:
            assert max(seen) <= rows and sum(seen) == 300 * (1 + len(self.RULES))
        for name, (arrays, (n_candidates, counters)) in reference.items():
            assert n_candidates > 0, name
            assert len(arrays["rows_a"][1]) > 0, name
            if name != "record":
                assert 0 < counters["classify_distance_rows"], name


def traced_link(linker, dataset_a, dataset_b):
    """``linker.link`` under ``tracemalloc`` (which sees numpy's allocations).

    Returns the result, the traced peak in bytes, each match call's
    ``[name, traced at entry, traced peak]`` (``HammingLSH.match`` or
    ``RuleAwareBlocker.match``) and, per line of ``repro/`` source, the most
    traced memory rose while that line ran — at least the size of any single
    allocation it made.
    """
    matches, lines = [], {}
    state = {"base": 0, "where": None, "peak": 0, "in_match": False}

    def on_line(frame, event, arg):
        if event == "line":
            current, peak = tracemalloc.get_traced_memory()
            lines[state["where"]] = max(lines.get(state["where"], 0), peak - state["base"])
            state["peak"] = max(state["peak"], peak)
            if state["in_match"]:
                matches[-1][2] = max(matches[-1][2], peak)
            tracemalloc.reset_peak()
            where = (frame.f_code.co_filename.rpartition("/repro/")[2], frame.f_lineno)
            state["base"], state["where"] = current, where
        return on_line

    def on_call(frame, event, arg):
        return on_line if "/repro/" in frame.f_code.co_filename else None

    def metered(cls):
        original = cls.match

        def match(*args, **kwargs):
            entry = tracemalloc.get_traced_memory()[0]
            matches.append([f"{cls.__name__}.match", entry, entry])
            state["in_match"] = True
            try:
                return original(*args, **kwargs)
            finally:
                state["in_match"] = False
                matches[-1][2] = max(matches[-1][2], tracemalloc.get_traced_memory()[1])

        return original, match

    patched = {cls: metered(cls) for cls in (HammingLSH, blocking_module.RuleAwareBlocker)}
    previous = sys.gettrace()
    for cls, (__, match) in patched.items():
        cls.match = match
    tracemalloc.start()
    sys.settrace(on_call)
    try:
        result = linker.link(dataset_a, dataset_b)
    finally:
        sys.settrace(previous)
        tracemalloc.stop()
        for cls, (original, __) in patched.items():
            cls.match = original
    return result, state["peak"], matches, lines


class TestMemoryGate:
    """Traced bytes of a cold ``link()``, which repeat exactly, so a
    reintroduced candidate-sized or ``L x n_B`` temporary fails here, not in
    a noisy benchmark.  The match runs over B blocks within one byte budget
    (``repro.hamming.lsh.MATCH_BLOCK_BYTES``), so its peak is the budget's,
    whatever ``n_B``.  Generated NCVR records, the heaviest of linker seeds
    7..12 at the paper's ``K = 30`` (131 k raw pairs at 20 000 a side: 1 MB,
    less than the index-sized arrays beside them, so what shows there is the
    embed's block size: ``17f9406`` peaks at 16.1 MB against 13.2) and at
    ``K = 18`` (887 k raw pairs: 7 MB, where ``17f9406`` peaks at 43.7 MB
    against 14.2 and breaks all three bounds); and the rule-aware link of
    ``link-dblp-ph``'s rule, which held every candidate before the blocks
    (357 MiB at 20 000 a side)."""

    MIB = 1 << 20
    #: Everything a link holds that is not the size of its candidates: value
    #: rows, columns, matrices, ``L x n`` key and probe arrays (11.1 MB at K = 30).
    FIXED = 12 * MIB
    #: What the match call adds beside the pairs: one block's probe and bucket
    #: search, within ``MATCH_BLOCK_BYTES`` (8 MiB; the match rises 7.3 MB at seed 7).
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

        result, peak, calls, lines = traced_link(linker(max(range(7, 13), key=generated)), a, b)
        raw = 8 * int(result.counters["pairs_generated"])
        assert raw == {30: 8 * 130_639, 18: 8 * 887_074}[k]
        assert peak < 2 * raw + self.FIXED
        name, entry, top = calls[-1]  # the match call: join, de-dup, verify
        assert top - entry < raw + self.STAGE, name
        worst = max(lines, key=lines.get)
        assert lines[worst] < raw + self.BLOCK, worst

    def test_match_stage_peak_does_not_grow_with_n_b(self):
        """20 000 records of A against 20 000 and 40 000 of B: a one-pass match
        holds ``L x n_B`` probe arrays (L = 6), and the match rises 8.8 MB
        and 12.5 MB.  In blocks the rise is 7.7 MB at both sizes.  A is fixed
        because bucket sizes, and with them each block's matched buckets and
        raw pairs, grow with ``n_A``."""
        problem = build_linkage_problem(NCVRGenerator(), 40_000, scheme_pl(), seed=7)
        a, b = problem.dataset_a, problem.dataset_b
        a = Dataset(a.schema, a.records[:20_000])
        encoder = CompactHammingLinker.record_level(threshold=4, k=30, seed=7).calibrate(a, b)
        rises = {}
        for n_b in (20_000, 40_000):
            linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=7)
            linker.encoder = encoder
            __, __, calls, __ = traced_link(linker, a, Dataset(b.schema, b.records[:n_b]))
            name, entry, top = calls[-1]
            assert name == "HammingLSH.match"
            rises[n_b] = top - entry
        assert rises[40_000] < rises[20_000] + self.MIB, rises

    def test_rule_aware_link_stays_under_budget(self):
        """``link-dblp-ph``'s rule and K at 20 000 a side: 14.1 M candidates.
        A link that holds them all peaks at 357 MiB; in blocks, at 64 MiB."""
        problem = build_linkage_problem(DBLPGenerator(), 20_000, scheme_ph(), seed=7)
        linker = CompactHammingLinker.rule_aware(
            parse_rule("(FirstName<=4) & (LastName<=4) & (Title<=8)"),
            k={"FirstName": 5, "LastName": 5, "Title": 12},
            attribute_names=["FirstName", "LastName", "Title", "Year"],
            seed=7,
        )
        result, peak, calls, __ = traced_link(linker, problem.dataset_a, problem.dataset_b)
        assert peak <= 100 * self.MIB, peak / self.MIB
        assert result.n_candidates == 14_134_246
        assert calls[-1][0] == "RuleAwareBlocker.match"


class TestStreamingBatchedQuery:
    """The real-time setting: an in-memory engine grown by one-record ingests
    and asked one record at a time."""

    def test_query_matches_per_id_reference(self):
        """Against a per-table reference kept here: every stored record that
        shares a table's :meth:`CompositeHash.key_for` key with the query,
        verified one by one, in id order."""
        rows = NCVRGenerator().generate(120, seed=11).value_rows()
        encoder = RecordEncoder.calibrated(rows, scheme=EXPERIMENT_SCHEME, seed=11)
        streaming = incremental_engine(encoder, rows[:80], threshold=4, k=30, seed=11)
        composites = streaming.index.lsh.composites
        stored = streaming.index.words
        stored_keys = [[c.key_for(row) for c in composites] for row in stored]
        for values in rows[40:]:
            vector = reference_words(encoder, [values])[0]
            keys = [c.key_for(vector) for c in composites]
            expected = []
            for rid, own in enumerate(stored_keys):
                distance = (row_int(stored[rid]) ^ row_int(vector)).bit_count()
                if any(x == y for x, y in zip(own, keys)) and distance <= streaming.threshold:
                    expected.append((rid, distance))
            assert query_each(streaming, [values]) == [expected]

    @pytest.fixture(scope="class")
    def stream(self):
        """100 NCVR PL records indexed one by one, and the other side's queries."""
        problem = build_linkage_problem(NCVRGenerator(), 100, scheme_pl(), seed=7)
        a, b = problem.dataset_a, problem.dataset_b
        encoder = CompactHammingLinker.record_level(threshold=4, k=30, seed=7).calibrate(a, b)
        return incremental_engine(encoder, a.value_rows(), threshold=4, k=30, seed=7), b.value_rows()

    @pytest.mark.parametrize("top_k", [None, 2])
    def test_query_equals_one_row_batch(self, stream, top_k):
        """One record is a one-row batch: the same list as in a whole batch,
        in id order (or ``(distance, id)`` order with ``top_k``), never
        first-seen order."""
        streaming, queries = stream
        answers = query_each(streaming, queries, top_k)
        assert sum(map(len, answers)) > len(queries) // 2
        assert answers == streaming.query_batch(queries, top_k=top_k).matches()
        if top_k is None:
            assert all(got == sorted(got) for got in answers)

    def test_one_row_query_and_insert_run_the_kernel_once(self, stream, monkeypatch):
        """A 1-row query is one embed and one match kernel call, with no
        per-table key; a 1-row ingest is one embed and one insert into the
        view's LSH."""
        streaming, queries = stream
        calls: dict[str, int] = {}
        for cls, name in (
            (RecordEncoder, "encode_dataset"),
            (HammingLSH, "match"),
            (HammingLSH, "insert_rows"),
            (CompositeHash, "key_for"),
        ):
            def counted(*args, _original=getattr(cls, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
        for top_k in (None, 2):
            calls.clear()
            streaming.query_batch([queries[0]], top_k=top_k)
            assert calls == {"encode_dataset": 1, "match": 1}
        calls.clear()
        streaming.ingest([queries[0]])
        assert calls == {"encode_dataset": 1, "insert_rows": 1}

    def test_growable_store_roundtrips_vectors(self):
        rows = NCVRGenerator().generate(40, seed=5).value_rows()
        encoder = RecordEncoder.calibrated(rows, scheme=EXPERIMENT_SCHEME, seed=5)
        streaming = incremental_engine(encoder, rows, threshold=4, k=30, seed=5)
        assert streaming.n_indexed == len(rows) == streaming.index.words.shape[0]
        assert np.array_equal(streaming.index.words, reference_words(encoder, rows))


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
