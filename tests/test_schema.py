"""Tests for repro.data.schema."""

import copy
import pickle

import numpy as np
import pytest

from repro.data.perturb import AppliedOperation, Operation
from repro.data.schema import (
    AttributeSpec,
    Dataset,
    Record,
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
            Record("R0", ("JONES", "SMITH")),
            Record("R1", ("MARIA", "GARCIA")),
            Record("R2", ("PETER", "WALKER")),
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

    def test_iteration_and_indexing(self, schema):
        assert [a.name for a in schema] == list(schema.names)
        assert schema[0].name == "FirstName"

    def test_clean_normalises(self):
        spec = AttributeSpec("Name")
        assert spec.clean(" o'brien ") == "OBRIEN"


class TestRecord:
    def test_value_access(self):
        record = Record("R1", ("A", "B"))
        assert record.value(1) == "B"

    def test_replace_value_copies(self):
        record = Record("R1", ("A", "B"))
        replaced = record.replace_value(0, "X")
        assert replaced.values == ("X", "B")
        assert record.values == ("A", "B")

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Record("", ("A",))


class TestSlottedRecords:
    """``Record`` and ``AppliedOperation`` carry no per-instance ``__dict__``.

    A linkage problem holds one of each per record and per perturbation;
    slots keep them small.  Equality and hashing must survive every way a
    value is copied: pickling (process pools, saved problems), ``copy``
    and ``deepcopy``.
    """

    VALUES = [
        Record("R1", ("JONES", "1218 HICKORY RD APT 31")),
        AppliedOperation("Address", Operation.INSERT),
    ]

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
        record = Record("R1", ("A",))
        with pytest.raises(AttributeError):
            record.record_id = "R2"  # type: ignore[misc]


class TestDataset:
    def test_len_iter_getitem(self, dataset):
        assert len(dataset) == 3
        assert dataset[1].record_id == "R1"
        assert [r.record_id for r in dataset] == ["R0", "R1", "R2"]

    def test_arity_validated(self, schema):
        with pytest.raises(ValueError):
            Dataset(schema, [Record("R0", ("only-one",))])

    def test_arity_error_names_first_bad_record(self, schema):
        records = [
            Record("R0", ("A", "B")),
            Record("R1", ("only-one",)),
            Record("R2", ("x", "y", "z")),
        ]
        with pytest.raises(ValueError) as excinfo:
            Dataset(schema, records)
        assert str(excinfo.value) == "record 'R1' has 1 values, schema expects 2"

    def test_duplicate_ids_rejected(self, schema):
        with pytest.raises(ValueError, match="unique"):
            Dataset(schema, [Record("R0", ("A", "B")), Record("R0", ("C", "D"))])

    def test_index_of(self, dataset):
        assert dataset.index_of("R2") == 2

    def test_index_of_every_id_and_unknown(self, schema):
        ds = dataset_from_rows(schema, [("A", "B")] * 50, id_prefix="X")
        assert [ds.index_of(f"X{i}") for i in range(50)] == list(range(50))
        with pytest.raises(KeyError):
            ds.index_of("X50")

    def test_duplicate_ids_rejected_without_index_lookup(self, schema):
        """Uniqueness is checked when the dataset is built, not on first lookup."""
        records = [Record(f"R{i}", ("A", "B")) for i in range(5)] + [Record("R3", ("C", "D"))]
        with pytest.raises(ValueError, match="unique"):
            Dataset(schema, records)

    def test_column(self, dataset):
        assert dataset.column("LastName") == ["SMITH", "GARCIA", "WALKER"]

    def test_value_rows(self, dataset):
        assert dataset.value_rows()[0] == ("JONES", "SMITH")

    def test_sample_bounds(self, dataset):
        rng = np.random.default_rng(0)
        assert len(dataset.sample(2, rng)) == 2
        assert len(dataset.sample(10, rng)) == 3

    def test_from_rows(self, schema):
        ds = dataset_from_rows(schema, [("A", "B"), ("C", "D")], id_prefix="X")
        assert ds[0].record_id == "X0"
        assert len(ds) == 2
