"""CSV input/output for datasets.

Real linkage jobs start from delimited files.  This module reads a CSV
into a :class:`~repro.data.schema.Dataset` (normalising values into each
attribute's alphabet) and writes datasets and match results back out, so
the library is usable on actual data rather than only on the synthetic
generators.
"""

from __future__ import annotations

import csv
from collections.abc import Iterable, Sequence
from pathlib import Path

from repro.core.qgram import QGramScheme
from repro.data.schema import AttributeSpec, Dataset, Schema
from repro.text.alphabet import TEXT_ALPHABET


def read_dataset(
    path: str | Path,
    attributes: Sequence[str] | None = None,
    id_column: str | None = None,
    scheme: QGramScheme | None = None,
    name: str = "",
    delimiter: str = ",",
    normalize_values: bool = True,
) -> Dataset:
    """Read a CSV file into a :class:`Dataset`.

    Parameters
    ----------
    path:
        CSV file with a header row.
    attributes:
        Which columns become linkage attributes (default: every column
        except ``id_column``), in the given order.
    id_column:
        Column holding record identifiers.  Defaults to ``'id'`` when the
        header contains it (the column :func:`write_dataset` emits);
        row numbers are used when no id column exists.
    scheme:
        q-gram scheme shared by all attributes (default: bigrams over
        letters + digits + blank).
    normalize_values:
        Upper-case, strip accents and drop characters outside the scheme's
        alphabet (recommended — the encoders are strict about alphabets).

    A row with more or fewer fields than the header (an unquoted comma in
    a value, a truncated line), a header naming a column twice and an
    empty id cell raise :class:`ValueError` naming the file and line.  An
    empty cell in a full-width row is a missing value and reads as ``""``.
    """
    path = Path(path)
    scheme = scheme or QGramScheme(alphabet=TEXT_ALPHABET)
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path} has no header row")
        repeated = sorted({col for col in header if header.count(col) > 1})
        if repeated:
            raise ValueError(f"{path}, line 1: header repeats columns {repeated}")
        if id_column is None and "id" in header:
            id_column = "id"
        if attributes is None:
            attributes = [col for col in header if col != id_column]
        missing = [col for col in attributes if col not in header]
        if missing:
            raise ValueError(f"{path} lacks columns {missing}; header is {header}")
        if id_column is not None and id_column not in header:
            raise ValueError(f"{path} lacks id column {id_column!r}")

        specs = tuple(AttributeSpec(col, scheme) for col in attributes)
        schema = Schema(specs)
        columns = [header.index(col) for col in attributes]
        id_index = header.index(id_column) if id_column else None
        ids: list[str] = []
        rows: list[tuple[str, ...]] = []
        for row in reader:
            if not row:
                continue  # a blank line is no record
            if len(row) != len(header):
                raise ValueError(
                    f"{path}, line {reader.line_num}: {len(row)} fields, "
                    f"the header has {len(header)}"
                )
            raw = [row[i] for i in columns]
            values = [spec.clean(v) for spec, v in zip(specs, raw)] if normalize_values else raw
            record_id = row[id_index] if id_index is not None else f"R{len(ids)}"
            if not record_id:
                raise ValueError(f"{path}, line {reader.line_num}: empty {id_column!r} cell")
            ids.append(record_id)
            rows.append(tuple(values))
    if not ids:
        raise ValueError(f"{path} contains no data rows")
    return Dataset.of(schema, ids, rows, name=name or path.stem)


def write_dataset(dataset: Dataset, path: str | Path, delimiter: str = ",") -> None:
    """Write a dataset to CSV with an ``id`` column plus the attributes."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(["id", *dataset.schema.names])
        for record_id, values in dataset:
            writer.writerow([record_id, *values])


def write_matches(
    matches: Iterable[tuple[int, int]],
    dataset_a: Dataset,
    dataset_b: Dataset,
    path: str | Path,
    delimiter: str = ",",
) -> int:
    """Write matched pairs as ``(id_a, id_b)`` rows; returns the count."""
    path = Path(path)
    count = 0
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(["id_a", "id_b"])
        for row_a, row_b in sorted(matches):
            writer.writerow([dataset_a.ids[row_a], dataset_b.ids[row_b]])
            count += 1
    return count
