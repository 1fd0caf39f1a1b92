"""Behavioural depth tests: statistical and structural properties that the
per-module suites don't cover."""

import numpy as np
import pytest

from repro.baselines.bloom import BloomFieldEncoder
from repro.core.cvector import UniversalHash
from repro.core.sizing import expected_set_positions
from repro.data.generators import DBLPGenerator, NCVRGenerator
from repro.data.schema import Dataset
from repro.protocol import DataCustodian
from repro.data.generators import EXPERIMENT_SCHEME
from tests.bits import row_int


class TestGeneratorRealismKnobs:
    def test_household_rate_zero_gives_unique_addresses(self):
        dataset = NCVRGenerator(household_rate=0.0).generate(300, seed=1)
        addresses = dataset.column("Address")
        # Random 4-digit numbers + street + unit: collisions are rare.
        assert len(set(addresses)) >= 0.98 * len(addresses)

    def test_household_rate_produces_shared_households(self):
        dataset = NCVRGenerator(household_rate=0.4).generate(300, seed=1)
        households = {
            (values[1], values[2], values[3]) for __, values in dataset
        }
        # ~40% of records join an existing household.
        assert len(households) <= 0.75 * len(dataset)

    def test_household_members_differ_in_first_name_distribution(self):
        dataset = NCVRGenerator(household_rate=0.5).generate(400, seed=2)
        by_household: dict[tuple, list[str]] = {}
        for __, values in dataset:
            by_household.setdefault(tuple(values[1:]), []).append(values[0])
        multi = [names for names in by_household.values() if len(names) > 1]
        assert multi  # households exist
        # Most multi-member households have at least two distinct first names.
        distinct = sum(1 for names in multi if len(set(names)) > 1)
        assert distinct / len(multi) > 0.8

    def test_coauthor_rate_produces_shared_titles(self):
        dataset = DBLPGenerator(coauthor_rate=0.4).generate(300, seed=3)
        titles = dataset.column("Title")
        assert len(set(titles)) <= 0.75 * len(titles)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            NCVRGenerator(household_rate=1.0)
        with pytest.raises(ValueError):
            DBLPGenerator(coauthor_rate=-0.1)


class TestUniversalHashStatistics:
    def test_pairwise_independence_collision_rate(self):
        """Across random hash draws, Pr[g(x) = g(y)] ~ 1/m for x != y."""
        rng = np.random.default_rng(4)
        m, trials = 15, 3000
        collisions = 0
        for __ in range(trials):
            g = UniversalHash.random(m, rng)
            if g(101) == g(577):
                collisions += 1
        assert collisions / trials == pytest.approx(1 / m, abs=0.02)

    def test_different_inputs_spread(self):
        g = UniversalHash(a=7919, b=104729, m=68)
        values = {g(x) for x in range(676)}
        assert len(values) == 68  # every slot reachable


class TestBloomFillRatio:
    def test_fill_tracks_balls_in_bins_expectation(self):
        """Bloom occupancy follows the same E[v] law as Lemma 1, with
        b = distinct bigrams * hashes per bigram."""
        encoder = BloomFieldEncoder(n_bits=500, n_hashes=15)
        value = "TWELVE MAIN STREET APT"  # ~21 distinct bigrams
        n_grams = len(set(encoder.scheme.grams(value)))
        expected = expected_set_positions(n_grams * 15, 500)
        observed = row_int(encoder.encode_all([value]).words[0]).bit_count()
        assert observed == pytest.approx(expected, rel=0.1)


class TestProtocolStatistics:
    def test_custodian_average_counts_match_generator(self):
        dataset = NCVRGenerator().generate(400, seed=5)
        custodian = DataCustodian("alice", dataset)
        counts = custodian.average_qgram_counts(EXPERIMENT_SCHEME)
        assert len(counts) == 4
        assert counts[0] == pytest.approx(5.1, rel=0.15)  # FirstName b
        assert counts[2] == pytest.approx(20.0, rel=0.15)  # Address b

    def test_custodian_requires_name(self):
        dataset = NCVRGenerator().generate(5, seed=6)
        with pytest.raises(ValueError):
            DataCustodian("", dataset)


class TestDatasetEdgeCases:
    def test_single_record_dataset(self):
        from repro.data.schema import Schema

        schema = Schema.of("a")
        dataset = Dataset(schema, [("r0", ("X",))])
        assert len(dataset) == 1
        assert dataset.column("a") == ["X"]

    def test_sample_is_without_replacement(self):
        dataset = NCVRGenerator().generate(50, seed=7)
        rng = np.random.default_rng(0)
        sample = dataset.sample(30, rng)
        ids = [record_id for record_id, __ in sample]
        assert len(set(ids)) == 30


class TestHammingLSHStatsSurface:
    def test_stats_before_indexing(self):
        from repro.hamming.lsh import HammingLSH

        lsh = HammingLSH(n_bits=32, k=4, n_tables=2, seed=8)
        stats = lsh.stats()
        assert stats["n_buckets"] == 0.0
        assert stats["mean_bucket"] == 0.0
