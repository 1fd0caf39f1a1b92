"""Tests for repro.pipeline — the registry and the linkers it names."""

import tracemalloc

import numpy as np
import pytest

from repro.core.config import NCVR_ATTRIBUTE_K
from repro.core.linker import CompactHammingLinker
from repro.data import Dataset, NCVRGenerator, build_linkage_problem, scheme_pl
from repro.pipeline import (
    available_linkers,
    create_linker,
    get_linker,
    linker_names,
)
from repro.pipeline.exhaustive import ExhaustiveLinker
from repro.baselines.minhash import MinHashLinker
from repro.hamming.distance import hamming_packed
from repro.rules.parser import parse_rule
from tests.golden_linkers import incremental_engine


@pytest.fixture(scope="module")
def problem():
    return build_linkage_problem(NCVRGenerator(), 120, scheme_pl(), seed=11)


class TestStreamingLink:
    def test_link_matches_batch_linker(self, problem):
        """A streamed A (one-record ingests) queried with all of B finds the
        batch link's matches; the streaming setting is not a registered linker."""
        batch = CompactHammingLinker.record_level(threshold=4, k=30, seed=3)
        encoder = batch.calibrate(problem.dataset_a, problem.dataset_b)
        batch_result = batch.link(problem.dataset_a, problem.dataset_b)

        streaming = incremental_engine(
            encoder, problem.dataset_a.value_rows(), threshold=4, k=30, seed=3
        )
        result = streaming.query_batch(problem.dataset_b.value_rows())
        assert set(zip(result.ids.tolist(), result.queries.tolist())) == batch_result.matches
        assert streaming.n_indexed == len(problem.dataset_a)
        assert "streaming" not in linker_names()


class TestExhaustiveLinker:
    def test_matches_brute_force(self, problem):
        from repro.core.encoder import RecordEncoder
        from repro.core.qgram import QGramScheme
        from repro.text.alphabet import TEXT_ALPHABET

        full = ExhaustiveLinker(threshold=4, seed=3).link(
            problem.dataset_a, problem.dataset_b
        )
        assert full.n_candidates == full.comparison_space

        # Same embedding, verified pair by pair without the pipeline.
        rows_a = problem.dataset_a.value_rows()
        rows_b = problem.dataset_b.value_rows()
        encoder = RecordEncoder.calibrated(
            rows_a[:1000], scheme=QGramScheme(alphabet=TEXT_ALPHABET), seed=3
        )
        matrix_a = encoder.encode_dataset(rows_a)
        matrix_b = encoder.encode_dataset(rows_b)
        expected = set()
        for i in range(len(rows_a)):
            dist = hamming_packed(matrix_a.words[i], matrix_b.words)
            expected |= {(i, int(j)) for j in np.flatnonzero(dist <= 4)}
        assert full.matches == expected

    def test_deterministic(self, problem):
        results = [
            ExhaustiveLinker(threshold=4, seed=3).link(problem.dataset_a, problem.dataset_b)
            for __ in range(2)
        ]
        assert results[0].matches == results[1].matches
        assert np.array_equal(results[0].rows_a, results[1].rows_a)
        assert np.array_equal(results[0].rows_b, results[1].rows_b)
        assert results[0].counters["pairs_verified"] == results[0].comparison_space

    def test_memory_stays_flat(self):
        """The all-pairs space is verified a block at a time: 1 000 a side is a
        million pairs, which a candidate list would hold at 16 B each (the
        list this replaced peaked at 23 MB traced; the blocks at 2 MB)."""
        big = build_linkage_problem(NCVRGenerator(), 1000, scheme_pl(), seed=11)
        tracemalloc.start()
        try:
            result = ExhaustiveLinker(threshold=4, seed=3).link(big.dataset_a, big.dataset_b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.n_candidates == 1000 * 1000
        assert result.n_matches > 0
        assert peak < 8 << 20


class TestMinHashLinker:
    def test_deterministic(self, problem):
        first = MinHashLinker(threshold=0.35, seed=5).link(
            problem.dataset_a, problem.dataset_b
        )
        second = MinHashLinker(threshold=0.35, seed=5).link(
            problem.dataset_a, problem.dataset_b
        )
        assert first.matches == second.matches
        assert first.n_candidates == second.n_candidates

    def test_exact_minhash_dominates_harra(self, problem):
        from repro.baselines import HarraLinker

        ideal = MinHashLinker(threshold=0.35, seed=5).link(
            problem.dataset_a, problem.dataset_b
        )
        harra = HarraLinker(threshold=0.35, seed=5).link(
            problem.dataset_a, problem.dataset_b
        )
        # The exact, non-pruning variant finds at least as many matches.
        assert ideal.n_matches >= harra.n_matches

    def test_threshold_validated(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            MinHashLinker(threshold=1.5)


class TestRegistry:
    def test_all_linkers_registered(self):
        assert linker_names() == (
            "cbv-record",
            "cbv-rule",
            "exhaustive",
            "bfh",
            "canopy",
            "harra",
            "minhash",
            "smeb",
            "sorted-neighborhood",
        )

    def test_specs_have_summaries(self):
        for spec in available_linkers():
            assert spec.summary
            assert callable(spec.factory)

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="cbv-record"):
            get_linker("no-such-linker")

    def test_create_linker(self, problem):
        linker = create_linker("exhaustive", threshold=4, seed=3)
        result = linker.link(problem.dataset_a, problem.dataset_b)
        assert result.n_candidates == result.comparison_space

    def test_every_factory_builds_a_pipeline_linker(self):
        from repro.rules.parser import parse_rule

        kwargs = {
            "cbv-record": {"threshold": 4},
            "cbv-rule": {"rule": parse_rule("(f1<=4)"), "k": {"f1": 5}},
            "exhaustive": {"threshold": 4},
            "bfh": {"attribute_thresholds": {"f1": 45}, "n_attributes": 2},
            "canopy": {"threshold": 4},
            "harra": {},
            "minhash": {},
            "smeb": {"attribute_thresholds": {"f1": 4.5}, "n_attributes": 2},
            "sorted-neighborhood": {"threshold": 4},
        }
        for spec in available_linkers():
            linker = spec.factory(**kwargs[spec.name])
            assert hasattr(linker, "link")


class TestEmptyInput:
    """A side with no records is a link with no matches, for every linker."""

    def _linkers(self):
        kwargs = {
            "cbv-record": {"threshold": 4},
            "cbv-rule": {"rule": parse_rule("(f1<=4) & (f2<=4) & (f3<=8)"), "k": NCVR_ATTRIBUTE_K},
            "exhaustive": {"threshold": 4},
            "bfh": {"attribute_thresholds": {"f1": 45, "f2": 45, "f3": 90}, "n_attributes": 4},
            "canopy": {"threshold": 4},
            "harra": {},
            "minhash": {},
            "smeb": {"attribute_thresholds": {"f1": 4.5, "f2": 4.5, "f3": 7.7}, "n_attributes": 4},
            "sorted-neighborhood": {"threshold": 4},
        }
        for spec in available_linkers():
            yield spec.name, lambda name=spec.name: create_linker(name, seed=3, **kwargs[name])

    def test_empty_b_links_to_an_empty_result(self, problem):
        a, b = problem.dataset_a, problem.dataset_b
        empty_b = Dataset(b.schema, [])
        for name, make in self._linkers():
            want = make().link(a, b)
            got = make().link(a, empty_b)
            assert got.n_matches == got.n_candidates == got.comparison_space == 0, name
            assert got.matches == set(), name
            assert list(got.timings) == list(want.timings), name
            assert sorted(got.counters) == sorted(want.counters), name

    def test_empty_a_links_to_an_empty_result(self, problem):
        a, b = problem.dataset_a, problem.dataset_b
        empty_a = Dataset(a.schema, [])
        for name, make in self._linkers():
            want = make().link(a, b)
            got = make().link(empty_a, b)
            assert got.n_matches == got.n_candidates == got.comparison_space == 0, name
            assert got.matches == set(), name
            assert list(got.timings) == list(want.timings), name
            assert sorted(got.counters) == sorted(want.counters), name


class TestCounters:
    def test_cbv_counters_present(self, problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=3)
        result = linker.link(problem.dataset_a, problem.dataset_b)
        for key in (
            "intern_values",
            "intern_unique",
            "intern_hit_rate",
            "pairs_generated",
            "pairs_unique",
            "pairs_verified",
        ):
            assert key in result.counters

    def test_summary_keys(self, problem):
        linker = CompactHammingLinker.record_level(threshold=4, k=30, seed=3)
        result = linker.link(problem.dataset_a, problem.dataset_b)
        summary = result.summary()
        assert summary["n_matches"] == result.n_matches
        assert summary["n_candidates"] == result.n_candidates
        assert summary["comparison_space"] == result.comparison_space
        assert 0.0 <= summary["reduction_ratio"] <= 1.0
        for key in result.timings:
            assert f"time_{key}_s" in summary
