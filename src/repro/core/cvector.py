"""Compact q-gram vectors — c-vectors (Section 5.2).

A c-vector re-embeds a string from the full q-gram space ``H`` (width
``|S|^q``) into a compact space ``H-hat`` of ``m_opt`` positions by hashing
every index in ``U_s`` with a randomly chosen pairwise-independent hash

    g(x) = ((a*x + b) mod P) mod m,      P = 2^31 - 1,  a, b in (0, P)

(one ``g`` per attribute, shared by all strings of that attribute so
distances remain comparable).  ``m_opt`` comes from Theorem 1 — see
:mod:`repro.core.sizing`.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import count
from typing import Protocol

import numpy as np

from repro.core.qgram import QGramScheme, batch_qgram_indices, qgram_index_set
from repro.core.sizing import DEFAULT_CONFIDENCE_R, DEFAULT_RHO, optimal_cvector_size
from repro.hamming.bitmatrix import BitMatrix, scatter_bits
from repro.hamming.distance import DEFAULT_BLOCK_ROWS
from repro.text.alphabet import AlphabetError

#: The large prime of the paper's hash family: 2^31 - 1 (a Mersenne prime).
HASH_PRIME = 2**31 - 1

#: Values per attribute a memo of :func:`embed_values` holds; a fill that
#: would overflow it starts that memo over.
VALUE_MEMO_SIZE = 4096

#: Batches of at most this many rows are embedded value by value
#: (:func:`embed_values`), larger ones by :func:`embed_columns`.  Value by
#: value against the one pass, p50 on an NCVR query stream (2 vCPUs, numpy
#: 2.4, paths alternated call by call): 0.42-0.53x at 1 row, 0.53-0.69x at
#: 2, 0.75-0.96x at 4, 1.4-1.7x at 8, 2.5-2.6x at 16 with the memos warm
#: (four rounds); emptied before every call, so no value was seen before
#: (three rounds), 0.62-0.66x at 1, 1.01-1.08x at 2, 1.67-1.80x at 4.  Two
#: keeps the memo path where it wins or ties on either stream.
SMALL_BATCH_ROWS = 2

_MEMO_FILL = threading.Lock()

#: q-gram spaces of at most this many ids are tabulated once per
#: :class:`CVectorEncoder` (``g`` of every id, 8 bytes each): 1 444 for
#: bigrams over the 38-letter text alphabet, 676 over the upper-case one.
#: Trigrams over the text alphabet (54 872 ids) keep applying ``g``.
GRAM_TABLE_IDS = 1 << 12

#: Batches of at most this many values (rows x attributes) are embedded by
#: :func:`embed_columns` in one pass with no value numbering; larger ones
#: number each column's distinct values first.  One pass against numbered,
#: p50 per call (2 vCPUs, numpy 2.4, alternated call by call): NCVR 0.45x at
#: 64 rows (256 values), 0.70-0.72x at 512, 0.82x at 768, 0.92x at 1 024;
#: DBLP 0.51x at 64, 0.81-0.93x at 500, 0.96x at 512, 1.03-1.04x at 640 and
#: 1 024.  The largest power of two that wins on both.
ONE_PASS_VALUES = 1 << 11

#: Distinct values tokenised, hashed and packed per pass of
#: :func:`embed_columns`.  Sized to keep every temporary under 1 MB (2 048
#: street addresses are ~45 000 q-grams), which the allocator recycles;
#: whole-column temporaries (10+ MB at 100 000 records) are mapped and
#: page-faulted afresh on every call, the least steady cost an embed can
#: have.  Embed time is flat from 2 048 to 8 192 values a pass.
VALUE_BLOCK = 1 << 11


@dataclass(frozen=True)
class InternedColumn:
    """One attribute column, interned: every *unique* value tokenised once.

    ``inverse[i]`` is the unique-value id of record ``i`` (ids follow
    first occurrence), ``counts[u]`` the q-gram count of unique value
    ``u`` and ``flat_indices`` the q-gram indices of the unique values,
    value by value (occurrence order, repeats kept — the bit scatter is
    idempotent).  The per-(record, emitted bit) expansion is derived on
    demand: ``rows[i]`` is the record bit ``i`` belongs to, ``gather[i]``
    its position in ``flat_indices``.
    """

    inverse: np.ndarray
    counts: np.ndarray
    flat_indices: np.ndarray

    @property
    def n_values(self) -> int:
        return int(self.inverse.size)

    @property
    def n_unique(self) -> int:
        return int(self.counts.size)

    @property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_values, dtype=np.int64), self.counts[self.inverse])

    @property
    def gather(self) -> np.ndarray:
        rec_counts = self.counts[self.inverse]
        starts = (np.cumsum(self.counts) - self.counts)[self.inverse]
        ends = np.cumsum(rec_counts)
        return np.arange(int(rec_counts.sum()), dtype=np.int64) + np.repeat(
            starts + rec_counts - ends, rec_counts
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of values served from the interning table."""
        if self.n_values == 0:
            return 0.0
        return 1.0 - self.n_unique / self.n_values


def _number_values(values: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct values in first-occurrence order, and every record's value id."""
    ids: dict[str, int] = {}  # value -> where it first occurs, in one pass
    first = np.fromiter(map(ids.setdefault, values, count()), dtype=np.int64, count=len(values))
    if len(ids) == first.size:  # all distinct (every one-record query): positions are the ids
        return list(ids), first
    rank = np.cumsum(first == np.arange(first.size))  # first occurrences up to and including here
    return list(ids), rank[first] - 1


def _tokenise(values: list[str], scheme: QGramScheme) -> tuple[np.ndarray, np.ndarray]:
    """``(flat q-gram indices, per-value counts)`` of ``values`` under ``scheme``."""
    return batch_qgram_indices(values, scheme.q, scheme.alphabet, scheme.padded, scheme.pad_char)


def intern_column(values: Sequence[str], scheme: QGramScheme) -> InternedColumn:
    """Intern an attribute column: number its distinct values, tokenise each once
    (one vectorised pass over the unique values, in first-occurrence order)."""
    unique, inverse = _number_values(values)
    flat, counts = _tokenise(unique, scheme)
    return InternedColumn(inverse=inverse, counts=counts, flat_indices=flat)


@dataclass(frozen=True)
class UniversalHash:
    """A pairwise-independent hash ``g(x) = ((a*x + b) mod P) mod m``."""

    a: int
    b: int
    m: int
    p: int = HASH_PRIME

    def __post_init__(self) -> None:
        if not 0 < self.a < self.p:
            raise ValueError(f"a must be in (0, P), got {self.a}")
        if not 0 < self.b < self.p:
            raise ValueError(f"b must be in (0, P), got {self.b}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")

    def __call__(self, x: int) -> int:
        return ((self.a * x + self.b) % self.p) % self.m

    def apply(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised evaluation over an integer array."""
        out = np.asarray(xs, dtype=np.int64) * self.a
        out += self.b
        out %= self.p
        out %= self.m
        return out

    @classmethod
    def random(cls, m: int, rng: np.random.Generator, p: int = HASH_PRIME) -> "UniversalHash":
        """Draw ``a, b`` uniformly from ``(0, P)``."""
        a = int(rng.integers(1, p))
        b = int(rng.integers(1, p))
        return cls(a=a, b=b, m=m, p=p)


class CVectorEncoder:
    """Attribute-level encoder from strings to c-vectors in ``{0,1}^m``.

    Parameters
    ----------
    m:
        Width of the compact space for this attribute (``m_opt^(f_i)``).
    scheme:
        The q-gram extraction scheme (q, alphabet, padding).
    hash_fn:
        The attribute's universal hash ``g``; drawn randomly when omitted.
    seed:
        Seed for drawing ``g`` when ``hash_fn`` is omitted.
    """

    def __init__(
        self,
        m: int,
        scheme: QGramScheme | None = None,
        hash_fn: UniversalHash | None = None,
        seed: int | None = None,
    ):
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.m = m
        self.scheme = scheme or QGramScheme()
        if hash_fn is None:
            hash_fn = UniversalHash.random(m, np.random.default_rng(seed))
        elif hash_fn.m != m:
            raise ValueError(f"hash modulus {hash_fn.m} differs from m={m}")
        self.hash_fn = hash_fn
        self._table: np.ndarray | None = None

    def __getstate__(self) -> dict[str, object]:
        return {**self.__dict__, "_table": None}  # derived from hash_fn: rebuilt on use

    # -- dataset API --------------------------------------------------------------

    def gram_bits(self, ids: np.ndarray) -> np.ndarray:
        """``g(x)`` of every q-gram id, one column: the c-vector's gram -> bit
        table, read from ``g`` tabulated over the q-gram space on first use
        when that space has at most ``GRAM_TABLE_IDS`` ids."""
        if self.scheme.space_size > GRAM_TABLE_IDS:
            return self.hash_fn.apply(ids)[:, None]
        if self._table is None:
            self._table = self.hash_fn.apply(np.arange(self.scheme.space_size))[:, None]
        return self._table.take(ids, 0)

    def encode_all(self, values: Sequence[str]) -> BitMatrix:
        """Encode a whole attribute column into one packed :class:`BitMatrix`."""
        if not values:
            raise ValueError("values must be non-empty")
        return embed_columns([self], [0], [values], self.m)[0]

    # -- calibration ---------------------------------------------------------------

    @classmethod
    def calibrated(
        cls,
        sample: Iterable[str],
        scheme: QGramScheme | None = None,
        rho: float = DEFAULT_RHO,
        r: float = DEFAULT_CONFIDENCE_R,
        seed: int | None = None,
    ) -> "CVectorEncoder":
        """Size the compact space from a data sample via Theorem 1.

        ``b^(f_i)`` is measured as the average q-gram count over the sample
        (the paper's Charlie samples strings "randomly and uniformly" to
        compute it), then ``m_opt`` follows from Theorem 1.
        """
        scheme = scheme or QGramScheme()
        lengths = np.fromiter(map(len, sample), dtype=np.int64)
        if not lengths.size:
            raise ValueError("calibration sample must be non-empty")
        if scheme.padded:  # QGramScheme.count: padding leaves an empty value empty
            lengths[lengths > 0] += 2 * (scheme.q - 1)
        b = int(np.maximum(lengths - scheme.q + 1, 0).sum()) / lengths.size
        if b <= 0:
            raise ValueError("calibration sample produced no q-grams")
        m_opt = optimal_cvector_size(b, rho, r)
        encoder = cls(m_opt, scheme=scheme, seed=seed)
        encoder.b = b  # type: ignore[attr-defined]  # diagnostic: measured b^(f_i)
        return encoder

    def __repr__(self) -> str:
        return f"CVectorEncoder(m={self.m}, q={self.scheme.q}, padded={self.scheme.padded})"


def value_bits(encoder: CVectorEncoder, offset: int, value: str) -> int:
    """The c-vector of ``value`` as an integer, its bits shifted by ``offset``:
    :func:`~repro.core.qgram.qgram_index_set` and ``g`` in plain Python, uncached."""
    scheme = encoder.scheme
    grams = qgram_index_set(value, scheme.q, scheme.alphabet, scheme.padded, scheme.pad_char)
    a, b, p, m = encoder.hash_fn.a, encoder.hash_fn.b, encoder.hash_fn.p, encoder.hash_fn.m
    bits = 0
    for x in grams:
        bits |= 1 << (a * x + b) % p % m
    return bits << offset


def embed_values(
    encoders: Sequence[CVectorEncoder],
    offsets: Sequence[int],
    records: Sequence[Sequence[str]],
    n_bits: int,
    memos: Sequence[dict[str, int]],
) -> BitMatrix:
    """Embed a few records value by value: a row is the OR of its values'
    :func:`value_bits`, from ``memos[i]`` (attribute ``i``'s value -> bits)
    or computed; the batch's new values join the memos once every record
    is embedded, so a failed batch leaves them as they were.
    """
    fresh: list[dict[str, int]] = [{} for __ in memos]
    rows = []
    for record in records:
        row = 0
        for enc, offset, memo, new, value in zip(encoders, offsets, memos, fresh, record):
            bits = memo.get(value)
            if bits is None:
                bits = new.get(value)
            if bits is None:
                bits = new[value] = value_bits(enc, offset, value)
            row |= bits
        rows.append(row)
    if any(fresh):
        with _MEMO_FILL:  # concurrent fills keep every memo within its size
            for memo, new in zip(memos, fresh):
                if len(memo) + len(new) > VALUE_MEMO_SIZE:
                    memo.clear()
                memo.update(new)
    n_bytes = 8 * ((n_bits + 63) // 64)
    packed = bytearray(b"".join(row.to_bytes(n_bytes, "little") for row in rows))
    return BitMatrix(np.frombuffer(packed, dtype="<u8").reshape(len(rows), n_bytes // 8), n_bits)


class ColumnEncoder(Protocol):
    """A column's encoder: its q-gram scheme and, per q-gram id, the ``w``
    bit positions the gram sets (``gram_bits``, shape ``(ids.size, w)``)."""

    scheme: QGramScheme

    def gram_bits(self, ids: np.ndarray) -> np.ndarray: ...


class record_errors:
    """The input policy of every record embed, for a ``with`` block: a ragged
    record raises ``ValueError`` up front, and an :class:`AlphabetError` from
    the block is raised again naming the first row (in batch order) and
    attribute whose value the attribute's scheme rejects.  A class like
    :class:`contextlib.suppress`, as a generator costs a one-row query ~2 us."""

    __slots__ = ("records", "names", "encoders")

    def __init__(
        self,
        records: Sequence[Sequence[str]],
        names: Sequence[str],
        encoders: Sequence[ColumnEncoder],
    ) -> None:
        arity = len(encoders)
        if set(map(len, records)) - {arity}:
            ragged = next(record for record in records if len(record) != arity)
            raise ValueError(f"record has {len(ragged)} values, encoder expects {arity}")
        self.records, self.names, self.encoders = records, names, encoders

    def __enter__(self) -> None:
        return None

    def __exit__(self, kind: type[BaseException] | None, *__: object) -> None:
        if kind is None or not issubclass(kind, AlphabetError):
            return
        for row, record in enumerate(self.records):
            for name, enc, value in zip(self.names, self.encoders, record):
                try:
                    enc.scheme.index_set(value)
                except AlphabetError as err:
                    raise AlphabetError(
                        f"{err} (value {value!r}) in row {row}, attribute {name!r}"
                    ) from None


#: One scheme's columns for :func:`embed_columns`'s one pass: their indices
#: and their ``gram_bits`` tables over the q-gram space, offsets folded in,
#: stacked (column ``columns[j]``'s q-gram ``x`` is row ``j * |S|^q + x``).
GramStack = tuple[QGramScheme, list[int], np.ndarray]


def _gram_stacks(encoders: Sequence[ColumnEncoder], offsets: Sequence[int]) -> list[GramStack]:
    """The columns' gram -> bit tables, one stack per scheme and ``w``."""
    groups: dict[tuple[QGramScheme, int], tuple[list[int], list[np.ndarray]]] = {}
    for i, (enc, offset) in enumerate(zip(encoders, offsets)):
        table = enc.gram_bits(np.arange(enc.scheme.space_size)) + offset
        members, tables = groups.setdefault((enc.scheme, table.shape[1]), ([], []))
        members.append(i)
        tables.append(table)
    return [
        (scheme, members, np.concatenate(tables))
        for (scheme, __), (members, tables) in groups.items()
    ]


def embed_columns(
    encoders: Sequence[ColumnEncoder],
    offsets: Sequence[int],
    columns: Sequence[Sequence[str]],
    n_bits: int,
    stacks: list[GramStack] | None = None,
) -> tuple[BitMatrix, int | None]:
    """Embed parallel attribute columns into one ``n_bits``-wide matrix.

    A batch of at most ``ONE_PASS_VALUES`` values whose q-gram spaces
    have at most ``GRAM_TABLE_IDS`` ids each is embedded in one pass
    (:func:`_embed_one_pass`): one tokenise per scheme, one gather
    through the columns' :func:`_gram_stacks` and one scatter for all its
    columns, and its values are not numbered, so the count returned is
    ``None``.  ``stacks``, when given, is the caller's cache of the
    stacks: empty until the first one-pass call fills it.

    Larger batches are value-granular: every *distinct* value of every
    column is tokenised, mapped to the ``w`` bits per q-gram of its
    encoder's ``gram_bits`` (tabulated over the q-gram space once a block
    is as large as that space) and packed once into a matrix-wide word
    row with its bits shifted by the column's bit offset, ``VALUE_BLOCK``
    values at a time; each record then ORs together the rows of its
    values — one blocked row gather per column.  Returns the matrix and
    the number of distinct values.
    """
    if len(columns) * len(columns[0]) <= ONE_PASS_VALUES and all(
        enc.scheme.space_size <= GRAM_TABLE_IDS for enc in encoders
    ):
        if not stacks:
            built = _gram_stacks(encoders, offsets)
            if stacks is not None:
                stacks[:] = built  # one assignment: a concurrent reader sees all or none
            stacks = built
        return _embed_one_pass(stacks, columns, n_bits), None
    numbered = [_number_values(values) for values in columns]
    distinct = [unique for unique, __ in numbered]
    blocks = [
        (enc, offset, values[lo : lo + VALUE_BLOCK])
        for enc, offset, values in zip(encoders, offsets, distinct)
        for lo in range(0, len(values), VALUE_BLOCK)
    ]
    fresh = np.empty((sum(map(len, distinct)), (n_bits + 63) // 64), dtype=np.uint64)
    counts: list[np.ndarray] = []
    bits: list[np.ndarray] = []
    tables: dict[tuple[ColumnEncoder, int], np.ndarray] = {}  # gram_bits + offset over the space
    done = 0
    for i, (enc, offset, block) in enumerate(blocks):
        flat, block_counts = _tokenise(block, enc.scheme)
        table = tables.get((enc, offset))
        if table is None and enc.scheme.space_size <= flat.size:  # costs no more than the block
            table = tables[enc, offset] = enc.gram_bits(np.arange(enc.scheme.space_size)) + offset
        if table is None:
            block_bits = enc.gram_bits(flat) + offset
        else:
            block_bits = table.take(flat, 0, mode="clip")
        counts.append(block_counts * block_bits.shape[1])  # a value's row, once per bit it sets
        bits.append(block_bits.ravel())
        pending = sum(map(len, counts))
        if pending >= VALUE_BLOCK or i == len(blocks) - 1:  # small columns share a scatter
            rows = np.repeat(np.arange(pending), np.concatenate(counts))
            fresh[done : done + pending] = scatter_bits(
                pending, n_bits, rows, np.concatenate(bits)
            ).words
            counts, bits, done = [], [], done + pending
    words = np.zeros((len(columns[0]), fresh.shape[1]), dtype=np.uint64)
    at = 0
    for unique, inverse in numbered:
        table = fresh[at : at + len(unique)]
        at += len(unique)
        for lo in range(0, inverse.size, DEFAULT_BLOCK_ROWS):  # each record ORs in its value's row
            hi = lo + DEFAULT_BLOCK_ROWS
            words[lo:hi] |= table.take(inverse[lo:hi], 0)
    return BitMatrix(words, n_bits), sum(map(len, distinct))


def _embed_one_pass(
    stacks: list[GramStack], columns: Sequence[Sequence[str]], n_bits: int
) -> BitMatrix:
    """The small batches of :func:`embed_columns`: per stack, its columns'
    values tokenised end to end in one call (column-major) and their q-gram
    ids mapped to bits by one ``take``; every (record, bit) goes to one
    :func:`scatter_bits`."""
    n_rows = len(columns[0])
    rows: list[np.ndarray] = []
    bits: list[np.ndarray] = []
    for scheme, members, table in stacks:
        flat, counts = _tokenise([value for i in members for value in columns[i]], scheme)
        value = np.arange(counts.size)  # column j's row r is value j * n_rows + r
        flat += np.repeat(value // n_rows * scheme.space_size, counts)
        rows.append(np.repeat(value % n_rows, counts * table.shape[1]))
        bits.append(table.take(flat, 0).ravel())
    return scatter_bits(n_rows, n_bits, np.concatenate(rows), np.concatenate(bits))
