"""Field-level Bloom filter encoding (Schnell, Bachteler & Reiher [27]).

The BfH baseline [17] embeds each attribute value into a Bloom filter: a
bitmap of ``n_bits`` positions where every bigram of the value is hashed by
``n_hash_functions`` independent composite cryptographic hash functions.
The paper's configuration is 500 bits and 15 hash functions per bigram.

The standard construction uses the *double hashing* scheme of [26, 27]:
``h_i(gram) = (H1(gram) + i * H2(gram)) mod n_bits`` with ``H1 = MD5`` and
``H2 = SHA1``, which is what real Bloom-filter PPRL implementations do.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.core.encoder import AttributeLayout
from repro.core.qgram import QGramScheme
from repro.hamming.bitmatrix import BitMatrix, scatter_bits
from repro.hamming.bitvector import BitVector
from repro.hamming.distance import masked_hamming_rows
from repro.text.alphabet import TEXT_ALPHABET

#: Paper configuration: "a size of 500 bits by using 15 cryptographic hash
#: functions for each bigram, as proposed in [27]".
DEFAULT_BLOOM_BITS = 500
DEFAULT_BLOOM_HASHES = 15


@lru_cache(maxsize=65536)
def _digest_pair(gram: str) -> tuple[int, int]:
    """(MD5, SHA1) digests of a q-gram as integers (cached: grams repeat)."""
    data = gram.encode("utf-8")
    h1 = int.from_bytes(hashlib.md5(data).digest()[:8], "big")
    h2 = int.from_bytes(hashlib.sha1(data).digest()[:8], "big")
    return h1, h2


def bloom_positions(gram: str, n_bits: int, n_hashes: int) -> list[int]:
    """Double-hashing positions of one q-gram: ``(H1 + i*H2) mod n_bits``."""
    h1, h2 = _digest_pair(gram)
    return [(h1 + i * h2) % n_bits for i in range(n_hashes)]


class BloomFieldEncoder:
    """Encode one attribute's values into fixed-size Bloom filters."""

    def __init__(
        self,
        n_bits: int = DEFAULT_BLOOM_BITS,
        n_hashes: int = DEFAULT_BLOOM_HASHES,
        scheme: QGramScheme | None = None,
    ) -> None:
        if n_bits < 1:
            raise ValueError(f"n_bits must be >= 1, got {n_bits}")
        if n_hashes < 1:
            raise ValueError(f"n_hashes must be >= 1, got {n_hashes}")
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.scheme = scheme or QGramScheme(alphabet=TEXT_ALPHABET)

    def positions(self, value: str) -> frozenset[int]:
        """All Bloom filter positions set by ``value``'s q-grams."""
        out: set[int] = set()
        for gram in set(self.scheme.grams(value)):
            out.update(bloom_positions(gram, self.n_bits, self.n_hashes))
        return frozenset(out)

    def encode(self, value: str) -> BitVector:
        return BitVector.from_indices(self.n_bits, self.positions(value))

    def encode_all(self, values: Sequence[str]) -> BitMatrix:
        rows: list[int] = []
        bits: list[int] = []
        for i, value in enumerate(values):
            positions = self.positions(value)
            rows.extend([i] * len(positions))
            bits.extend(positions)
        if not bits:
            return BitMatrix.zeros(len(values), self.n_bits)
        return scatter_bits(
            len(values),
            self.n_bits,
            np.asarray(rows, dtype=np.int64),
            np.asarray(bits, dtype=np.int64),
        )


class BloomRecordEncoder:
    """Record-level Bloom encoding: one field-level filter per attribute,
    concatenated — the structure BfH blocks and matches on."""

    def __init__(
        self,
        n_attributes: int,
        names: Sequence[str] | None = None,
        n_bits: int = DEFAULT_BLOOM_BITS,
        n_hashes: int = DEFAULT_BLOOM_HASHES,
        scheme: QGramScheme | None = None,
    ) -> None:
        if n_attributes < 1:
            raise ValueError(f"n_attributes must be >= 1, got {n_attributes}")
        if names is None:
            names = [f"f{i + 1}" for i in range(n_attributes)]
        if len(names) != n_attributes:
            raise ValueError(f"{len(names)} names for {n_attributes} attributes")
        self.field_encoder = BloomFieldEncoder(n_bits, n_hashes, scheme)
        self.names = list(names)
        self.layouts = [
            AttributeLayout(name=name, offset=i * n_bits, width=n_bits)
            for i, name in enumerate(names)
        ]

    @property
    def total_bits(self) -> int:
        return self.layouts[-1].stop

    def layout(self, attribute: str) -> AttributeLayout:
        for candidate in self.layouts:
            if candidate.name == attribute:
                return candidate
        raise KeyError(f"unknown attribute {attribute!r}; have {self.names}")

    def encode_dataset(self, records: Sequence[Sequence[str]]) -> BitMatrix:
        rows: list[int] = []
        bits: list[int] = []
        for i, record in enumerate(records):
            if len(record) != len(self.layouts):
                raise ValueError(
                    f"record has {len(record)} values, encoder expects {len(self.layouts)}"
                )
            for layout, value in zip(self.layouts, record):
                for bit in self.field_encoder.positions(value):
                    rows.append(i)
                    bits.append(bit + layout.offset)
        if not bits:
            return BitMatrix.zeros(len(records), self.total_bits)
        return scatter_bits(
            len(records),
            self.total_bits,
            np.asarray(rows, dtype=np.int64),
            np.asarray(bits, dtype=np.int64),
        )

    def attribute_distances(
        self,
        matrix_a: BitMatrix,
        rows_a: np.ndarray,
        matrix_b: BitMatrix,
        rows_b: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """Per-attribute Hamming distances for candidate pairs."""
        return {
            layout.name: masked_hamming_rows(
                matrix_a.words, rows_a, matrix_b.words, rows_b, layout.offset, layout.stop
            )
            for layout in self.layouts
        }
