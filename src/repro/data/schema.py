"""Attributes and datasets.

Two data custodians (Alice and Bob in the paper's Section 3) each own a
database of records sharing ``n_f`` common string attributes plus an ``Id``.
:class:`Dataset` is the in-memory representation handed to Charlie: the
record ids and, in the same order, one value tuple per record under a
shared :class:`Schema`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
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

    def index(self, name: str) -> int:
        """Position of the named attribute."""
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown attribute {name!r}; have {self.names}") from None

    def attribute(self, name: str) -> AttributeSpec:
        return self.attributes[self.index(name)]

    @classmethod
    def of(cls, *names: str, scheme: QGramScheme | None = None) -> "Schema":
        """Build a schema of named attributes sharing one q-gram scheme."""
        scheme = scheme or QGramScheme(alphabet=TEXT_ALPHABET)
        return cls(tuple(AttributeSpec(name, scheme) for name in names))


class Dataset:
    """An ordered collection of records under a shared schema.

    A record is an ``(id, values)`` pair; the dataset keeps them as two
    parallel lists, ``ids`` and the value tuples of :meth:`value_rows`.
    Iteration and indexing yield the pairs.  Construction checks every
    row's arity and that the ids are non-empty and unique; the id -> row
    index behind :meth:`index_of` is built on its first call (most
    datasets are only ever read by row).
    """

    def __init__(
        self, schema: Schema, records: Iterable[tuple[str, Sequence[str]]], name: str = ""
    ) -> None:
        pairs = list(records)
        self._init(schema, [pair[0] for pair in pairs], [tuple(pair[1]) for pair in pairs], name)

    @classmethod
    def of(
        cls, schema: Schema, ids: Iterable[str], rows: Iterable[Sequence[str]], name: str = ""
    ) -> "Dataset":
        """The dataset whose ``i``-th record is ``(ids[i], tuple(rows[i]))``."""
        dataset = cls.__new__(cls)
        dataset._init(schema, list(ids), list(map(tuple, rows)), name)
        return dataset

    def _init(
        self, schema: Schema, ids: list[str], rows: list[tuple[str, ...]], name: str
    ) -> None:
        if len(ids) != len(rows):
            raise ValueError(f"{len(ids)} ids for {len(rows)} value rows")
        n_attributes = schema.n_attributes
        if set(map(len, rows)) - {n_attributes}:
            at = next(i for i, row in enumerate(rows) if len(row) != n_attributes)
            raise ValueError(
                f"record {ids[at]!r} has {len(rows[at])} values, "
                f"schema expects {n_attributes}"
            )
        if not all(ids):
            at = next(i for i, record_id in enumerate(ids) if not record_id)
            raise ValueError(f"record_id must be non-empty; the record at row {at} has none")
        if len(set(ids)) != len(ids):
            repeated = next(rid for rid, count in Counter(ids).items() if count > 1)
            raise ValueError(f"record ids must be unique within a dataset; {repeated!r} repeats")
        self.schema = schema
        self.ids = ids
        self._rows = rows
        self.name = name
        self._by_id: dict[str, int] | None = None

    @property
    def records(self) -> list[tuple[str, tuple[str, ...]]]:
        """The ``(id, values)`` pairs, in record order."""
        return list(zip(self.ids, self._rows))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[tuple[str, tuple[str, ...]]]:
        return zip(self.ids, self._rows)

    def __getitem__(self, index: int) -> tuple[str, tuple[str, ...]]:
        return self.ids[index], self._rows[index]

    def index_of(self, record_id: str) -> int:
        if self._by_id is None:
            self._by_id = {record_id: i for i, record_id in enumerate(self.ids)}
        return self._by_id[record_id]

    def column(self, attribute: str) -> list[str]:
        """All values of a named attribute, in record order."""
        idx = self.schema.index(attribute)
        return [row[idx] for row in self._rows]

    def value_rows(self) -> list[tuple[str, ...]]:
        """Attribute-value tuples in record order (encoder input)."""
        return list(self._rows)

    def sample(self, n: int, rng: "np.random.Generator") -> list[tuple[str, tuple[str, ...]]]:
        """Uniform sample of ``(id, values)`` pairs without replacement."""
        if n >= len(self):
            return self.records
        indices = rng.choice(len(self), size=n, replace=False)
        return [self[int(i)] for i in indices]

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Dataset({label} n={len(self)}, attributes={self.schema.names})"


def dataset_from_rows(
    schema: Schema, rows: Sequence[Sequence[str]], id_prefix: str = "R", name: str = ""
) -> Dataset:
    """Build a dataset from plain value rows with ids ``f"{id_prefix}{i}"``."""
    return Dataset.of(schema, [f"{id_prefix}{i}" for i in range(len(rows))], rows, name)
