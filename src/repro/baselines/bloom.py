"""Field-level Bloom filter encoding (Schnell, Bachteler & Reiher [27]).

The BfH baseline [17] embeds each attribute value into a Bloom filter: a
bitmap of ``n_bits`` positions where every bigram of the value is hashed by
``n_hash_functions`` independent composite cryptographic hash functions.
The paper's configuration is 500 bits and 15 hash functions per bigram.

The standard construction uses the *double hashing* scheme of [26, 27]:
``h_i(gram) = (H1(gram) + i * H2(gram)) mod n_bits`` with ``H1 = MD5`` and
``H2 = SHA1``, which is what real Bloom-filter PPRL implementations do.

The positions depend only on the q-gram, so a field encoder tabulates them
once over the q-gram space and is embedded like a c-vector
(:func:`~repro.core.cvector.embed_columns`), ``n_hashes`` bits per q-gram.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

from repro.core.cvector import embed_columns
from repro.core.encoder import RecordLayout
from repro.core.qgram import QGramScheme, qgram_from_index
from repro.hamming.bitmatrix import BitMatrix
from repro.text.alphabet import TEXT_ALPHABET

#: Paper configuration: "a size of 500 bits by using 15 cryptographic hash
#: functions for each bigram, as proposed in [27]".
DEFAULT_BLOOM_BITS = 500
DEFAULT_BLOOM_HASHES = 15


def _digest_pair(gram: str) -> tuple[int, int]:
    """(MD5, SHA1) digests of a q-gram as integers."""
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
        self._table: np.ndarray | None = None

    def gram_bits(self, ids: np.ndarray) -> np.ndarray:
        """The ``n_hashes`` :func:`bloom_positions` of every q-gram id: rows of
        a table over the whole q-gram space, built on first use."""
        if self._table is None:
            q, alphabet = self.scheme.q, self.scheme.alphabet
            grams = (qgram_from_index(x, q, alphabet) for x in range(self.scheme.space_size))
            positions = [bloom_positions(gram, self.n_bits, self.n_hashes) for gram in grams]
            self._table = np.array(positions, dtype=np.int64).reshape(-1, self.n_hashes)
        return self._table.take(ids, 0)

    def encode_all(self, values: Sequence[str]) -> BitMatrix:
        return embed_columns([self], [0], [values], self.n_bits)[0]


class BloomRecordEncoder(RecordLayout):
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
        self.field_encoder = BloomFieldEncoder(n_bits, n_hashes, scheme)
        super().__init__([self.field_encoder] * n_attributes, [n_bits] * n_attributes, names)

    def encode_dataset(self, records: Sequence[Sequence[str]]) -> BitMatrix:
        """The record-level filters of ``records``: the attributes' field-level
        filters, concatenated."""
        return self._embed_columns(records)[0]
