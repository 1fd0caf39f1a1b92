"""Alphabets for q-gram index computation.

The paper (Section 4.1) assumes the alphabet ``S`` of q-gram characters is
the set of upper-case letters, giving a q-gram vector of ``|S|^q = 26^q``
positions.  Footnote 4 additionally pads strings with ``'_'`` so that the
first and last character each participate in two bigrams; padded q-grams
need the padding character to be part of the alphabet.

An :class:`Alphabet` is an ordered set of characters with a zero-based
``ord``-style lookup, exactly the ``ord(.)`` function used by Algorithm 1.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field


class AlphabetError(ValueError):
    """Raised when a character is not part of an alphabet."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered character set with a zero-based index per character.

    Parameters
    ----------
    chars:
        The characters of the alphabet, in index order.  Must be unique.

    Examples
    --------
    >>> abc = Alphabet.uppercase()
    >>> abc.index('J'), abc.index('O')
    (9, 14)
    >>> len(abc)
    26
    """

    chars: str
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.chars)) != len(self.chars):
            raise AlphabetError(f"alphabet contains duplicate characters: {self.chars!r}")
        if not self.chars:
            raise AlphabetError("alphabet must not be empty")
        object.__setattr__(self, "_index", {ch: i for i, ch in enumerate(self.chars)})

    def __len__(self) -> int:
        return len(self.chars)

    def __contains__(self, ch: str) -> bool:
        return ch in self._index

    def index(self, ch: str) -> int:
        """Return the zero-based order of ``ch`` in this alphabet.

        This is the ``ord(.)`` function of the paper's Algorithm 1.
        """
        try:
            return self._index[ch]
        except KeyError:
            raise AlphabetError(f"character {ch!r} is not in alphabet {self.chars!r}") from None

    def codes(self, text: str) -> list[int]:
        """:meth:`index` of every character of ``text``, in order (one dict
        lookup a character; a character outside the alphabet raises the same
        :class:`AlphabetError`)."""
        lookup = self._index
        try:
            return [lookup[ch] for ch in text]
        except KeyError:
            return list(map(self.index, text))

    def char(self, index: int) -> str:
        """Return the character at ``index`` (inverse of :meth:`index`)."""
        if not 0 <= index < len(self.chars):
            raise AlphabetError(f"index {index} out of range for alphabet of size {len(self)}")
        return self.chars[index]

    def qgram_space_size(self, q: int) -> int:
        """Size ``|S|^q`` of the q-gram vector over this alphabet."""
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        return len(self) ** q

    @classmethod
    def uppercase(cls) -> "Alphabet":
        """The paper's default alphabet: the 26 upper-case letters."""
        return cls(string.ascii_uppercase)

    @classmethod
    def uppercase_padded(cls, pad: str = "_") -> "Alphabet":
        """Upper-case letters plus a padding character (for padded q-grams)."""
        return cls(string.ascii_uppercase + pad)

    @classmethod
    def alphanumeric(cls) -> "Alphabet":
        """Upper-case letters, digits, space and padding.

        Suitable for address / title attributes whose values contain digits
        and blanks (e.g. ``'12 MAIN ST'``).
        """
        return cls(string.ascii_uppercase + string.digits + " _")


#: Default alphabet used throughout the package (Section 4.1 of the paper).
DEFAULT_ALPHABET = Alphabet.uppercase()

#: Alphabet covering letters, digits, blanks and the padding character.
TEXT_ALPHABET = Alphabet.alphanumeric()

#: The padding character used by footnote 4 of the paper.
PAD_CHAR = "_"
