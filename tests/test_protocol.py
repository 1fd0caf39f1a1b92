"""Tests for repro.protocol — the three-party linkage workflow."""

import pytest

from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.protocol import (
    DataCustodian,
    EncodedDataset,
    EncodingAgreement,
    LinkageUnit,
)
from repro.rules.parser import parse_rule


@pytest.fixture(scope="module")
def problem():
    return build_linkage_problem(NCVRGenerator(), 300, scheme_pl(), seed=61)


@pytest.fixture(scope="module")
def agreement(problem):
    return EncodingAgreement.negotiate(
        [problem.dataset_a, problem.dataset_b], seed=61
    )


class TestAgreement:
    def test_widths_from_theorem_1(self, agreement):
        # NCVR-like statistics give approximately the Table 3 widths.
        assert 100 <= agreement.total_bits <= 140
        assert len(agreement.widths) == 4

    def test_same_agreement_same_encoder(self, agreement):
        e1 = agreement.build_encoder()
        e2 = agreement.build_encoder()
        values = ("JONES", "SMITH", "12 MAIN ST", "BOONE")
        assert e1.encode_dataset([values]) == e2.encode_dataset([values])

    def test_schema_mismatch_rejected(self, problem):
        from repro.data import DBLPGenerator

        other = DBLPGenerator().generate(20, seed=1)
        with pytest.raises(ValueError, match="disagree"):
            EncodingAgreement.negotiate([problem.dataset_a, other], seed=1)

    def test_arity_validated(self):
        with pytest.raises(ValueError):
            EncodingAgreement(("a", "b"), (5.0,), seed=1)
        with pytest.raises(ValueError):
            EncodingAgreement((), (), seed=1)


class TestCustodian:
    def test_encoding_exposes_no_strings(self, problem, agreement):
        alice = DataCustodian("alice", problem.dataset_a)
        encoded = alice.encode(agreement)
        assert isinstance(encoded, EncodedDataset)
        assert len(encoded) == len(problem.dataset_a)
        # The submission consists of ids and a packed bit matrix only.
        assert set(vars(encoded)) <= {"custodian", "record_ids", "matrix"}
        assert all(isinstance(rid, str) for rid in encoded.record_ids)

    def test_schema_must_match_agreement(self, agreement):
        from repro.data import DBLPGenerator

        bob = DataCustodian("bob", DBLPGenerator().generate(10, seed=2))
        with pytest.raises(ValueError, match="do not match"):
            bob.encode(agreement)

    def test_id_count_validated(self, problem, agreement):
        alice = DataCustodian("alice", problem.dataset_a)
        encoded = alice.encode(agreement)
        with pytest.raises(ValueError):
            EncodedDataset("x", encoded.record_ids[:-1], encoded.matrix)


class TestLinkageUnit:
    def test_end_to_end_by_ids(self, problem, agreement):
        alice = DataCustodian("alice", problem.dataset_a)
        bob = DataCustodian("bob", problem.dataset_b)
        charlie = LinkageUnit(agreement, threshold=4, k=30, seed=61)
        matched = charlie.link(alice.encode(agreement), bob.encode(agreement))
        truth_ids = {
            (problem.dataset_a.ids[a], problem.dataset_b.ids[b])
            for a, b in problem.true_matches
        }
        found = set(matched) & truth_ids
        assert len(found) / len(truth_ids) >= 0.9

    def test_rule_based_unit(self, problem, agreement):
        alice = DataCustodian("alice", problem.dataset_a)
        bob = DataCustodian("bob", problem.dataset_b)
        rule = parse_rule("(FirstName<=4) & (LastName<=4)")
        charlie = LinkageUnit(
            agreement, rule=rule, k={"FirstName": 5, "LastName": 5}, seed=61
        )
        matched = charlie.link(alice.encode(agreement), bob.encode(agreement))
        assert matched  # pairs surviving the rule exist

    def test_three_custodians(self, problem, agreement):
        parties = [
            DataCustodian("alice", problem.dataset_a),
            DataCustodian("bob", problem.dataset_b),
            DataCustodian("carol", problem.dataset_a),
        ]
        charlie = LinkageUnit(agreement, threshold=4, k=25, seed=61)
        encoded = [p.encode(agreement) for p in parties]
        results = charlie.link_all(encoded)
        assert set(results) == {("alice", "bob"), ("alice", "carol"), ("bob", "carol")}
        # alice and carol hold identical data: every record self-matches
        # (possibly alongside household duplicates).
        identical = set(results[("alice", "carol")])
        sample = problem.dataset_a.ids[0]
        assert (sample, sample) in identical

    def test_mode_validation(self, agreement):
        with pytest.raises(ValueError):
            LinkageUnit(agreement)
        with pytest.raises(ValueError):
            LinkageUnit(agreement, threshold=4, rule=parse_rule("(FirstName<=4)"))

    def test_layout_mismatch_rejected(self, problem, agreement):
        alice = DataCustodian("alice", problem.dataset_a)
        encoded = alice.encode(agreement)
        other = EncodingAgreement(
            agreement.attribute_names,
            tuple(b + 5 for b in agreement.qgram_counts),
            seed=99,
        )
        charlie = LinkageUnit(other, threshold=4, k=25)
        with pytest.raises(ValueError, match="layout"):
            charlie.link(encoded, encoded)
