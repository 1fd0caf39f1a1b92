"""Record-level c-vector encoders (Section 5.2, last paragraph).

Charlie receives records of ``n_f`` string attributes, transforms each
attribute value into an attribute-level c-vector sized by Theorem 1, and
concatenates them into the record-level structure of size ``m̄_opt``.
:class:`RecordEncoder` performs exactly this, tracks the bit offset of each
attribute inside the concatenated vector (needed by the attribute-level
blocking of Section 5.4), and encodes whole datasets into packed matrices.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.cvector import (
    SMALL_BATCH_ROWS,
    ColumnEncoder,
    CVectorEncoder,
    GramStack,
    embed_columns,
    embed_values,
    record_errors,
)
from repro.core.qgram import QGramScheme
from repro.core.sizing import DEFAULT_CONFIDENCE_R, DEFAULT_RHO
from repro.hamming.bitmatrix import BitMatrix
from repro.hamming.distance import masked_hamming_rows


@dataclass(frozen=True)
class AttributeLayout:
    """Where one attribute's c-vector lives inside the record-level vector."""

    name: str
    offset: int
    width: int

    @property
    def stop(self) -> int:
        return self.offset + self.width


class RecordLayout:
    """One column encoder per attribute, in record order, their ``widths``
    side by side in one record-level vector; ``names`` default to ``f1,
    f2, ...``.  The base of :class:`RecordEncoder` and of BfH's Bloom
    record encoder."""

    def __init__(
        self,
        encoders: Sequence[ColumnEncoder],
        widths: Sequence[int],
        names: Sequence[str] | None = None,
    ):
        if not encoders:
            raise ValueError("encoders must be non-empty")
        if names is None:
            names = [f"f{i + 1}" for i in range(len(encoders))]
        if len(names) != len(encoders):
            raise ValueError(f"{len(names)} names for {len(encoders)} encoders")
        if len(set(names)) != len(names):
            raise ValueError(f"attribute names must be unique: {names}")
        self.encoders = list(encoders)
        self.names = list(names)
        self.layouts: list[AttributeLayout] = []
        offset = 0
        for name, width in zip(self.names, widths):
            self.layouts.append(AttributeLayout(name=name, offset=offset, width=width))
            offset += width
        self._by_name = {layout.name: i for i, layout in enumerate(self.layouts)}
        self._offsets = [layout.offset for layout in self.layouts]
        self._stacks: list[GramStack] = []  # embed_columns' cache of gram -> bit tables

    def __getstate__(self) -> dict[str, object]:
        return {**self.__dict__, "_stacks": []}  # derived from the encoders: rebuilt on use

    @property
    def n_attributes(self) -> int:
        return len(self.encoders)

    @property
    def total_bits(self) -> int:
        """The record-level vector width (``m̄_opt`` for c-vectors)."""
        return self.layouts[-1].stop

    def layout(self, attribute: str) -> AttributeLayout:
        """Bit layout of a named attribute."""
        try:
            return self.layouts[self._by_name[attribute]]
        except KeyError:
            raise KeyError(f"unknown attribute {attribute!r}; have {self.names}") from None

    def _embed_columns(self, records: Sequence[Sequence[str]]) -> tuple[BitMatrix, int | None]:
        """``(matrix, distinct values or None)`` of the records: :func:`embed_columns`."""
        with record_errors(records, self.names, self.encoders):
            columns = [[record[att] for record in records] for att in range(self.n_attributes)]
            return embed_columns(
                self.encoders, self._offsets, columns, self.total_bits, self._stacks
            )

    def attribute_distances(
        self, matrix_a: BitMatrix, rows_a: np.ndarray, matrix_b: BitMatrix, rows_b: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Per-attribute Hamming distances for candidate pairs.

        Both matrices must be record-level matrices from this encoder.  The
        distances are computed by slicing each attribute's bit range, which
        is what the matching step's classification rules consume.
        """
        return {
            layout.name: masked_hamming_rows(
                matrix_a.words, rows_a, matrix_b.words, rows_b, layout.offset, layout.stop
            )
            for layout in self.layouts
        }


class RecordEncoder(RecordLayout):
    """Encode multi-attribute string records into record-level c-vectors.

    Parameters
    ----------
    encoders:
        One :class:`CVectorEncoder` per attribute, in record order.
    names:
        Attribute names (``f_1 .. f_nf``); defaults to ``f1, f2, ...``.
    """

    encoders: list[CVectorEncoder]

    def __init__(self, encoders: Sequence[CVectorEncoder], names: Sequence[str] | None = None):
        super().__init__(encoders, [enc.m for enc in encoders], names)
        self._memos: list[dict[str, int]] = [{} for __ in self.encoders]

    def __getstate__(self) -> dict[str, object]:
        return {**super().__getstate__(), "_memos": [{} for __ in self.encoders]}  # arrives cold

    def clear_value_rows(self) -> None:
        """Empty the value memos (the next small batch starts cold)."""
        self._memos = [{} for __ in self.encoders]

    # -- dataset API --------------------------------------------------------------

    def encode_dataset(
        self,
        records: Sequence[Sequence[str]],
        stats: dict[str, float] | None = None,
    ) -> BitMatrix:
        """Encode many records into one packed record-level matrix.

        Three embeds, chosen by the batch's size alone, give the same bits:

        * at most ``SMALL_BATCH_ROWS`` records: value by value
          (:func:`repro.core.cvector.embed_values`), through the encoder's
          bounded per-attribute memos of value bits;
        * at most ``ONE_PASS_VALUES`` values (records x attributes): one
          pass over all attributes — one tokenise, one gather through the
          attributes' gram -> bit tables (kept on the encoder, never
          pickled) and one scatter, values not numbered;
        * larger batches: each attribute column is *interned* — every
          distinct value is tokenised, hashed and packed once into a
          record-width word row, and every record ORs in its value's row.

        The last two are :func:`repro.core.cvector.embed_columns`.
        ``stats``, when given, receives interning counters
        (``intern_values``, ``intern_unique`` — each column's distinct
        values, counted on every path — and ``intern_hit_rate``).  No
        records encode to a ``(0, total_bits)`` matrix.  Errors follow
        :func:`repro.core.cvector.record_errors`.
        """
        if len(records) <= SMALL_BATCH_ROWS:
            with record_errors(records, self.names, self.encoders):
                matrix = embed_values(
                    self.encoders, self._offsets, records, self.total_bits, self._memos
                )
            n_unique = None
        else:
            matrix, n_unique = self._embed_columns(records)
        if stats is not None:
            if n_unique is None:  # the values were not numbered: count them here
                n_unique = sum(
                    len({record[att] for record in records}) for att in range(self.n_attributes)
                )
            n_values = len(records) * self.n_attributes
            stats["intern_values"] = float(n_values)
            stats["intern_unique"] = float(n_unique)
            stats["intern_hit_rate"] = 1.0 - n_unique / n_values if n_values else 0.0
        return matrix

    # -- calibration ----------------------------------------------------------------

    @classmethod
    def calibrated(
        cls,
        sample_records: Sequence[Sequence[str]],
        names: Sequence[str] | None = None,
        scheme: QGramScheme | None = None,
        rho: float = DEFAULT_RHO,
        r: float = DEFAULT_CONFIDENCE_R,
        seed: int | None = None,
    ) -> "RecordEncoder":
        """Calibrate one encoder per attribute from sample records.

        Each attribute's ``b^(f_i)`` is measured on the sample and its
        ``m_opt`` derived via Theorem 1; hash functions are drawn from a
        seeded stream so the whole encoder is reproducible.
        """
        if not sample_records:
            raise ValueError("sample_records must be non-empty")
        n_attrs = len(sample_records[0])
        scheme = scheme or QGramScheme()
        seeds = np.random.SeedSequence(seed).spawn(n_attrs)
        encoders = []
        for att in range(n_attrs):
            column = [record[att] for record in sample_records]
            encoders.append(
                CVectorEncoder.calibrated(
                    column,
                    scheme=scheme,
                    rho=rho,
                    r=r,
                    seed=seeds[att],
                )
            )
        return cls(encoders, names=names)

    def __repr__(self) -> str:
        widths = ", ".join(f"{lay.name}={lay.width}" for lay in self.layouts)
        return f"RecordEncoder(total_bits={self.total_bits}, {widths})"


def sampled_embedding(
    rows_a: Sequence[Sequence[str]],
    rows_b: Sequence[Sequence[str]],
    scheme: QGramScheme | None = None,
    seed: int | None = None,
    sample_size: int = 1000,
) -> tuple[BitMatrix, BitMatrix]:
    """Calibrate a :class:`RecordEncoder` on the first ``sample_size`` rows
    of A and encode both sides: the embedding of the classic baselines
    (canopy, sorted neighbourhood) and the exhaustive reference.  An empty
    A has nothing to calibrate on and nothing to match: both sides come back
    as rows of one zero bit, so the link runs on to an empty result."""
    if not rows_a:
        return BitMatrix.zeros(0, 1), BitMatrix.zeros(len(rows_b), 1)
    encoder = RecordEncoder.calibrated(rows_a[:sample_size], scheme=scheme, seed=seed)
    return encoder.encode_dataset(rows_a), encoder.encode_dataset(rows_b)
