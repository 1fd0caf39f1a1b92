"""Records, attributes and datasets.

Two data custodians (Alice and Bob in the paper's Section 3) each own a
database of records sharing ``n_f`` common string attributes plus an ``Id``.
:class:`Dataset` is the in-memory representation handed to Charlie: an
ordered list of :class:`Record` values with a shared :class:`Schema`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.core.qgram import QGramScheme

if TYPE_CHECKING:  # keep numpy a typing-only dependency of this module
    import numpy as np
from repro.text.alphabet import TEXT_ALPHABET
from repro.text.normalize import normalize


@dataclass(frozen=True)
class AttributeSpec:
    """One linkage attribute: its name and q-gram scheme.

    The scheme's alphabet determines which characters survive
    normalisation; multi-word attributes (addresses, titles) need an
    alphabet containing the blank.
    """

    name: str
    scheme: QGramScheme = field(default_factory=lambda: QGramScheme(alphabet=TEXT_ALPHABET))

    def clean(self, raw: str) -> str:
        """Normalise a raw value into this attribute's alphabet."""
        return normalize(raw, alphabet=self.scheme.alphabet)


@dataclass(frozen=True)
class Schema:
    """The agreed set of common attributes ``f_1 .. f_nf``."""

    attributes: tuple[AttributeSpec, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("schema needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"attribute names must be unique: {names}")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    def __iter__(self) -> Iterator[AttributeSpec]:
        return iter(self.attributes)

    def __getitem__(self, index: int) -> AttributeSpec:
        return self.attributes[index]

    def attribute(self, name: str) -> AttributeSpec:
        for spec in self.attributes:
            if spec.name == name:
                return spec
        raise KeyError(f"unknown attribute {name!r}; have {self.names}")

    @classmethod
    def of(cls, *names: str, scheme: QGramScheme | None = None) -> "Schema":
        """Build a schema of named attributes sharing one q-gram scheme."""
        scheme = scheme or QGramScheme(alphabet=TEXT_ALPHABET)
        return cls(tuple(AttributeSpec(name, scheme) for name in names))


@dataclass(frozen=True, slots=True)
class Record:
    """A record: an identifier plus one string value per schema attribute."""

    record_id: str
    values: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.record_id:
            raise ValueError("record_id must be non-empty")

    def value(self, index: int) -> str:
        return self.values[index]

    def replace_value(self, index: int, new_value: str) -> "Record":
        """A copy with one attribute value replaced (perturbation helper)."""
        values = list(self.values)
        values[index] = new_value
        return Record(self.record_id, tuple(values))


_values = attrgetter("values")
_record_id = attrgetter("record_id")


class Dataset:
    """An ordered collection of records under a shared schema.

    Construction checks every record's arity and that the ids are
    unique; the id -> row index behind :meth:`index_of` is built on its
    first call (most datasets are only ever read by row).
    """

    def __init__(self, schema: Schema, records: Iterable[Record], name: str = "") -> None:
        self.schema = schema
        self.records: list[Record] = list(records)
        self.name = name
        n_attributes = schema.n_attributes
        if set(map(len, map(_values, self.records))) - {n_attributes}:
            bad = next(r for r in self.records if len(r.values) != n_attributes)
            raise ValueError(
                f"record {bad.record_id!r} has {len(bad.values)} values, "
                f"schema expects {n_attributes}"
            )
        if len(set(map(_record_id, self.records))) != len(self.records):
            raise ValueError("record ids must be unique within a dataset")
        self._by_id: dict[str, int] | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records)

    def __getitem__(self, index: int) -> Record:
        return self.records[index]

    def index_of(self, record_id: str) -> int:
        if self._by_id is None:
            self._by_id = {record.record_id: i for i, record in enumerate(self.records)}
        return self._by_id[record_id]

    def column(self, attribute: str) -> list[str]:
        """All values of a named attribute, in record order."""
        idx = self.schema.names.index(attribute)
        return [record.values[idx] for record in self.records]

    def value_rows(self) -> list[tuple[str, ...]]:
        """Attribute-value tuples in record order (encoder input)."""
        return [record.values for record in self.records]

    def sample(self, n: int, rng: "np.random.Generator") -> list[Record]:
        """Uniform sample without replacement (calibration input)."""
        if n >= len(self.records):
            return list(self.records)
        indices = rng.choice(len(self.records), size=n, replace=False)
        return [self.records[int(i)] for i in indices]

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Dataset({label} n={len(self.records)}, attributes={self.schema.names})"


def numbered_records(
    rows: Iterable[Sequence[str]], id_prefix: str, start: int = 0
) -> list[Record]:
    """``Record(f"{id_prefix}{start + i}", tuple(row))`` for each ``i``-th row."""
    return [Record(f"{id_prefix}{i}", tuple(row)) for i, row in enumerate(rows, start)]


def dataset_from_rows(
    schema: Schema, rows: Sequence[Sequence[str]], id_prefix: str = "R", name: str = ""
) -> Dataset:
    """Build a dataset from plain value rows, generating sequential ids."""
    return Dataset(schema, numbered_records(rows, id_prefix), name=name)
