"""Tests for repro.data.schema."""

import copy
import pickle

import numpy as np
import pytest

from repro.data import NCVRGenerator, build_linkage_problem, scheme_pl
from repro.data.perturb import AppliedOperation, Operation
from repro.data.schema import (
    AttributeSpec,
    Dataset,
    Schema,
    dataset_from_rows,
)


@pytest.fixture
def schema():
    return Schema.of("FirstName", "LastName")


@pytest.fixture
def dataset(schema):
    return Dataset(
        schema,
        [
            ("R0", ("JONES", "SMITH")),
            ("R1", ("MARIA", "GARCIA")),
            ("R2", ("PETER", "WALKER")),
        ],
    )


class TestSchema:
    def test_names(self, schema):
        assert schema.names == ("FirstName", "LastName")
        assert schema.n_attributes == 2

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema.of("a", "a")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Schema(())

    def test_attribute_lookup(self, schema):
        assert schema.attribute("LastName").name == "LastName"
        with pytest.raises(KeyError):
            schema.attribute("Town")

    def test_index_lookup(self, schema):
        assert schema.index("LastName") == 1
        with pytest.raises(KeyError, match="'Town'"):
            schema.index("Town")

    def test_iteration_and_indexing(self, schema):
        assert [a.name for a in schema] == list(schema.names)
        assert schema[0].name == "FirstName"

    def test_clean_normalises(self):
        spec = AttributeSpec("Name")
        assert spec.clean(" o'brien ") == "OBRIEN"


class TestRecord:
    """A record is an ``(id, values)`` pair held by its dataset."""

    def test_value_access(self, dataset):
        record_id, values = dataset[1]
        assert record_id == "R1"
        assert values[1] == "GARCIA"

    def test_empty_id_rejected(self, schema):
        with pytest.raises(ValueError, match="record_id must be non-empty.*row 1"):
            Dataset(schema, [("R0", ("A", "B")), ("", ("C", "D"))])


class TestSlottedRecords:
    """``AppliedOperation`` log records carry no per-instance ``__dict__``.

    A linkage problem holds one per perturbation; slots keep them small.
    Equality and hashing must survive every way a value is copied:
    pickling (process pools, saved problems), ``copy`` and ``deepcopy``.
    """

    VALUES = [AppliedOperation("Address", Operation.INSERT)]

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_no_instance_dict(self, value):
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    @pytest.mark.parametrize(
        "roundtrip",
        [
            lambda v: pickle.loads(pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL)),
            lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "pickle-0", "copy", "deepcopy"],
    )
    def test_equal_and_hash_survive(self, value, roundtrip):
        twin = roundtrip(value)
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)
        assert {value: 1}[twin] == 1

    def test_still_frozen(self):
        applied = AppliedOperation("Address", Operation.INSERT)
        with pytest.raises(AttributeError):
            applied.attribute = "Town"  # type: ignore[misc]


class TestDataset:
    def test_len_iter_getitem(self, dataset):
        assert len(dataset) == 3
        assert dataset[1] == ("R1", ("MARIA", "GARCIA"))
        assert [record_id for record_id, __ in dataset] == ["R0", "R1", "R2"]
        assert dataset.ids == ["R0", "R1", "R2"]
        assert dataset.records == list(dataset)

    def test_arity_validated(self, schema):
        with pytest.raises(ValueError):
            Dataset(schema, [("R0", ("only-one",))])

    def test_arity_error_names_first_bad_record(self, schema):
        records = [
            ("R0", ("A", "B")),
            ("R1", ("only-one",)),
            ("R2", ("x", "y", "z")),
        ]
        with pytest.raises(ValueError) as excinfo:
            Dataset(schema, records)
        assert str(excinfo.value) == "record 'R1' has 1 values, schema expects 2"

    def test_duplicate_ids_rejected(self, schema):
        with pytest.raises(ValueError, match="unique.*'R0' repeats"):
            Dataset(schema, [("R0", ("A", "B")), ("R0", ("C", "D"))])

    def test_ids_and_rows_must_pair_up(self, schema):
        with pytest.raises(ValueError, match="2 ids for 1 value rows"):
            Dataset.of(schema, ["R0", "R1"], [("A", "B")])

    def test_index_of(self, dataset):
        assert dataset.index_of("R2") == 2

    def test_index_of_every_id_and_unknown(self, schema):
        ds = dataset_from_rows(schema, [("A", "B")] * 50, id_prefix="X")
        assert [ds.index_of(f"X{i}") for i in range(50)] == list(range(50))
        with pytest.raises(KeyError):
            ds.index_of("X50")

    def test_duplicate_ids_rejected_without_index_lookup(self, schema):
        """Uniqueness is checked when the dataset is built, not on first lookup."""
        records = [(f"R{i}", ("A", "B")) for i in range(5)] + [("R3", ("C", "D"))]
        with pytest.raises(ValueError, match="unique"):
            Dataset(schema, records)

    def test_column(self, dataset):
        assert dataset.column("LastName") == ["SMITH", "GARCIA", "WALKER"]

    def test_column_of_unknown_attribute_names_it(self, dataset):
        with pytest.raises(KeyError, match="'nope'"):
            dataset.column("nope")

    def test_value_rows(self, dataset):
        assert dataset.value_rows()[0] == ("JONES", "SMITH")

    def test_value_rows_is_a_copy(self, dataset):
        dataset.value_rows().clear()
        assert len(dataset.value_rows()) == 3

    def test_value_rows_share_the_tuples(self, dataset):
        """No per-record copies: every view hands out the stored tuples."""
        rows = dataset.value_rows()
        assert all(rows[i] is dataset[i][1] for i in range(len(dataset)))
        assert all(a is b for a, (__, b) in zip(rows, dataset.records))

    def test_of_round_trips(self, dataset):
        again = Dataset.of(dataset.schema, dataset.ids, dataset.value_rows(), name="again")
        assert again.records == dataset.records and again.name == "again"

    def test_prefix_of_records_is_a_small_job(self):
        """``Dataset(schema, records[:m])`` (the suite's small-job build)
        holds exactly the first ``m`` ids and value rows."""
        problem = build_linkage_problem(NCVRGenerator(), 300, scheme_pl(), seed=4)
        for full in (problem.dataset_a, problem.dataset_b):
            small = Dataset(full.schema, full.records[:40])
            assert small.ids == full.ids[:40]
            assert small.value_rows() == full.value_rows()[:40]
            assert small.schema is full.schema

    def test_sample_bounds(self, dataset):
        rng = np.random.default_rng(0)
        assert len(dataset.sample(2, rng)) == 2
        assert len(dataset.sample(10, rng)) == 3

    def test_from_rows(self, schema):
        ds = dataset_from_rows(schema, [("A", "B"), ("C", "D")], id_prefix="X")
        assert ds.ids == ["X0", "X1"]
        assert ds[1] == ("X1", ("C", "D"))
        assert len(ds) == 2
