"""q-gram extraction and q-gram vectors (Section 4.1, Algorithm 1).

A *q-gram vector* represents a string deterministically in the Hamming
space ``{0,1}^(|S|^q)``: every position stands for one distinct q-gram, and
the positions of the q-grams occurring in the string are set to 1.  This
module computes those positions (:func:`qgram_index_set`,
:func:`batch_qgram_indices`); rows of q-gram vectors are packed like
c-vectors, by :func:`repro.core.cvector.embed_columns`.

Algorithm 1 gives the bijection ``F`` from a q-gram to its position: the
q-gram is read as a base-``|S|`` number using the zero-based order of each
character in the alphabet ``S``.  For the upper-case alphabet and bigrams,
``F('JO') = 9*26 + 14 = 248`` — exactly the paper's Figure 1.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.text.alphabet import Alphabet, AlphabetError, DEFAULT_ALPHABET
from repro.text.normalize import pad as pad_string

#: Capacity of the process-wide q-gram index-set cache.  Real datasets
#: (NCVR names, DBLP authors) repeat attribute values heavily, so most
#: ``index_set`` lookups after warm-up are cache hits.
INDEX_SET_CACHE_SIZE = 1 << 16


def qgrams(value: str, q: int = 2, padded: bool = False, pad_char: str = "_") -> list[str]:
    """The q-grams of ``value`` in order of occurrence (with repeats).

    With ``padded=True`` the string is first padded with ``q - 1`` pad
    characters on each side (footnote 4 of the paper), so the first and
    last characters participate in ``q`` q-grams each.

    >>> qgrams('JOHN')
    ['JO', 'OH', 'HN']
    >>> qgrams('JOHN', padded=True)
    ['_J', 'JO', 'OH', 'HN', 'N_']
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    text = pad_string(value, q, pad_char) if padded else value
    return [text[i : i + q] for i in range(len(text) - q + 1)]


def qgram_index(gram: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> int:
    """Algorithm 1: map a q-gram to its position in the q-gram vector.

    ``ind = sum_i ord(gr[i]) * |S|^(q - 1 - i)`` with zero-based ``ord``
    (a Horner evaluation of the q-gram as a base-``|S|`` numeral).

    >>> qgram_index('JO'), qgram_index('OH'), qgram_index('HN')
    (248, 371, 195)
    """
    if not gram:
        raise ValueError("q-gram must be non-empty")
    size = len(alphabet)
    ind = 0
    for ch in gram:
        ind = ind * size + alphabet.index(ch)
    return ind


def qgram_from_index(index: int, q: int, alphabet: Alphabet = DEFAULT_ALPHABET) -> str:
    """Invert Algorithm 1: reconstruct the q-gram at vector position ``index``.

    >>> qgram_from_index(248, 2)
    'JO'
    """
    size = len(alphabet)
    if not 0 <= index < size**q:
        raise ValueError(f"index {index} out of range for |S|^q = {size ** q}")
    chars = []
    for __ in range(q):
        index, rem = divmod(index, size)
        chars.append(alphabet.char(rem))
    return "".join(reversed(chars))


def qgram_index_set(
    value: str,
    q: int = 2,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    padded: bool = False,
    pad_char: str = "_",
) -> frozenset[int]:
    """The set ``U_s`` of q-gram vector positions set by string ``value``.

    Each character is looked up once; the windows are one Horner
    evaluation over ``q`` shifted lists of the characters' orders.

    >>> sorted(qgram_index_set('JOHN'))
    [195, 248, 371]
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    text = pad_string(value, q, pad_char) if padded else value
    if len(text) < q:
        return frozenset()
    codes = alphabet.codes(text)
    size = len(alphabet)
    grams = codes[: len(codes) - q + 1]
    for j in range(1, q):
        grams = [gram * size + code for gram, code in zip(grams, codes[j:])]
    return frozenset(grams)


@lru_cache(maxsize=32)
def _alphabet_lut(alphabet: Alphabet) -> np.ndarray:
    """Code-point lookup table: ``lut[ord(ch)]`` is Algorithm 1's ``ord(ch)``.

    Every other code point maps to ``-1``, and so does the table's last
    slot, where ``take(..., mode="clip")`` sends the code points beyond it.
    Cached per alphabet; tables are tiny for ASCII alphabets.
    """
    ords = np.fromiter(map(ord, alphabet.chars), dtype=np.int64)
    lut = np.full(int(ords.max()) + 2, -1, dtype=np.int64)
    lut[ords] = np.arange(ords.size)
    return lut


def batch_qgram_indices(
    values: Sequence[str],
    q: int = 2,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    padded: bool = False,
    pad_char: str = "_",
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Algorithm 1 over a whole column of strings at once.

    Returns ``(flat, counts)``: ``counts[i]`` is the number of q-grams of
    ``values[i]`` (with repeats, in occurrence order) and ``flat``
    concatenates their q-gram vector positions.  Equivalent to mapping
    :func:`qgram_index` over :func:`qgrams` per value, but evaluated over
    one code buffer: the values joined (on the padding, when padded) as
    bytes — UTF-32 when a character is not ASCII — go through the alphabet
    once, Algorithm 1 is a multiply-add over ``q`` shifted views of the
    result, and the windows that run over a value's end are dropped.
    This is the hot-path tokeniser behind value interning.

    >>> flat, counts = batch_qgram_indices(['JOHN', 'OH'])
    >>> flat.tolist(), counts.tolist()
    ([248, 371, 195, 371], [3, 1])
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    wings = pad_char * (q - 1) if padded else ""
    lengths = np.fromiter(map(len, values), dtype=np.int64, count=len(values))
    filled = np.flatnonzero(lengths)  # pad() leaves an empty value empty
    spans = lengths[filled] + 2 * len(wings)
    counts = np.zeros(lengths.size, dtype=np.int64)
    counts[filled] = np.maximum(spans - q + 1, 0)
    if not counts.any():
        return np.empty(0, dtype=np.int64), counts
    text = wings + (2 * wings).join(filter(None, values) if padded else values) + wings
    if text.isascii():
        codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    else:
        codes = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    mapped = _alphabet_lut(alphabet).take(codes, mode="clip")
    ends = np.cumsum(spans)  # where each non-empty value's span of the buffer stops
    if mapped.min() < 0:
        # A character counts when it is in a q-gram: a value shorter than q has none.
        at = np.flatnonzero(mapped < 0)
        owner = filled[np.searchsorted(ends, at, side="right")]
        hit = np.flatnonzero(counts[owner] > 0)
        if hit.size:
            bad, index = chr(codes[at[hit[0]]]), int(owner[hit[0]])
            raise AlphabetError(
                f"character {bad!r} of value {index} ({values[index]!r}) "
                f"is not in alphabet {alphabet.chars!r}"
            )
    n_windows = codes.size - q + 1
    flat = mapped[:n_windows]
    whole = np.ones(codes.size, dtype=bool)
    for j in range(1, q):
        flat = flat * len(alphabet)
        flat += mapped[j : j + n_windows]
        whole[np.maximum(ends - j, 0)] = False  # a window this close to a value's end runs over it
    return flat.compress(whole[:n_windows]), counts


@lru_cache(maxsize=INDEX_SET_CACHE_SIZE)
def interned_index_set(
    value: str,
    q: int = 2,
    alphabet: Alphabet = DEFAULT_ALPHABET,
    padded: bool = False,
    pad_char: str = "_",
) -> frozenset[int]:
    """Memoised :func:`qgram_index_set` — the hot-path interning cache.

    The returned frozenset is immutable, so sharing one object between all
    occurrences of a repeated value is safe.  Keyed on the full extraction
    scheme, so schemes with different alphabets or padding never alias.
    """
    return qgram_index_set(value, q, alphabet, padded, pad_char)


def index_set_cache_info() -> "tuple[int, int, int | None, int]":
    """``(hits, misses, maxsize, currsize)`` of the interning cache."""
    info = interned_index_set.cache_info()
    return (info.hits, info.misses, info.maxsize, info.currsize)


def clear_index_set_cache() -> None:
    """Drop every cached index set (mainly for tests and benchmarks)."""
    interned_index_set.cache_clear()


@dataclass(frozen=True)
class QGramScheme:
    """A fully specified q-gram extraction scheme.

    Bundles ``q``, the alphabet ``S`` and the padding policy so every
    component (q-gram vectors, c-vectors, Bloom filters, MinHash) tokenises
    strings identically.
    """

    q: int = 2
    alphabet: Alphabet = DEFAULT_ALPHABET
    padded: bool = False
    pad_char: str = "_"

    def __post_init__(self) -> None:
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")
        if self.padded and self.pad_char not in self.alphabet:
            raise ValueError(
                f"padding char {self.pad_char!r} must be in the alphabet when padded=True"
            )

    @property
    def space_size(self) -> int:
        """``m = |S|^q``, the width of the full q-gram vector space H."""
        return self.alphabet.qgram_space_size(self.q)

    def grams(self, value: str) -> list[str]:
        return qgrams(value, self.q, self.padded, self.pad_char)

    def index_set(self, value: str) -> frozenset[int]:
        """``U_s`` for ``value`` under this scheme (memoised per value)."""
        return interned_index_set(value, self.q, self.alphabet, self.padded, self.pad_char)

    def count(self, value: str) -> int:
        """Number of q-grams produced by ``value`` (with repeats).

        This is the quantity averaged into ``b^(f_i)`` in Table 3.  Padding
        leaves an empty value empty, so it has no q-gram in any scheme.
        """
        length = len(value) + (2 * (self.q - 1) if self.padded and value else 0)
        return max(0, length - self.q + 1)
