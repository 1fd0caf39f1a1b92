"""Scalar draws of a PCG64 Generator, decoded in Python from its raw words.

A scalar ``Generator.random()`` or ``Generator.integers(low, high)`` costs
0.5-1.7 us, nearly all of it numpy's per-call overhead; the generators'
per-record loops make close to a million of them for a 100 000-record
linkage problem.  :class:`RawDraws` fetches the same bit stream in
chunks (``bit_generator.random_raw(k).tolist()``) and turns each word
into the value numpy's C code would have returned, with numpy's own
algorithms for PCG64:

* ``random()`` is ``(w >> 11) * 2**-53`` of one 64-bit word;
* ``integers(low, high)`` with ``1 < high - low <= 2**32`` is Lemire's
  32-bit method on ``next_uint32`` with numpy's rejection threshold
  ``(2**32 - excl) % excl``; a width of exactly ``2**32`` is one
  ``next_uint32``, a width of 1 returns ``low`` and draws nothing;
* ``next_uint32`` hands out the low half of a word and keeps the high
  half for the next call (PCG64's ``has_uint32`` / ``uinteger`` buffer).

Used as a context manager, the decoder closes on exit (exceptions too):
the Generator is rewound to where numpy would have left it, so draws made
after the block (and the Generator's ``state``) are the same as without
the decoder.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import index, length_hint

import numpy as np

#: Raw 64-bit words fetched per refill (~90 kB as a list of Python ints).
CHUNK_WORDS = 2048

_DOUBLE_SCALE = 1.0 / 9007199254740992.0  # 2**-53
_MASK32 = 0xFFFFFFFF
_SPAN32 = 0x100000000  # 2**32


class RawDraws:
    """``random()`` and ``integers(low, high)`` of one PCG64 Generator.

    ``with RawDraws(rng) as draws: ...``; draws on the Generator itself
    while the decoder is open are lost when it closes.
    """

    __slots__ = ("_bit_generator", "_start", "_fetched", "_words", "_has_uint32", "_uinteger")

    def __init__(self, rng: np.random.Generator) -> None:
        bit_generator = rng.bit_generator
        if not isinstance(bit_generator, np.random.PCG64):
            raise TypeError(f"RawDraws decodes PCG64 only, got {type(bit_generator).__name__}")
        self._bit_generator = bit_generator
        self._start = bit_generator.state
        self._has_uint32 = bool(self._start["has_uint32"])
        self._uinteger = self._start["uinteger"]
        self._fetched = 0
        self._words: Iterator[int] = iter(())

    def _refill(self) -> int:
        words = self._bit_generator.random_raw(CHUNK_WORDS).tolist()
        self._fetched += len(words)
        self._words = iter(words)
        return next(self._words)

    def _next_uint32(self) -> int:
        if self._has_uint32:
            self._has_uint32 = False
            return self._uinteger
        try:
            word = next(self._words)
        except StopIteration:
            word = self._refill()
        self._has_uint32 = True
        self._uinteger = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """What ``Generator.random()`` returns: a double in [0, 1)."""
        try:
            word = next(self._words)
        except StopIteration:
            word = self._refill()
        return (word >> 11) * _DOUBLE_SCALE

    def integers(self, low: int, high: int) -> int:
        """What ``Generator.integers(low, high)`` returns, as a Python int."""
        excl = high - low
        if type(excl) is not int or not 1 < excl < _SPAN32:
            return self._integers_rare(low, high)
        # _next_uint32, inlined: this is the hottest call of generation.
        if self._has_uint32:
            self._has_uint32 = False
            product = self._uinteger * excl
        else:
            try:
                word = next(self._words)
            except StopIteration:
                word = self._refill()
            self._has_uint32 = True
            self._uinteger = word >> 32
            product = (word & _MASK32) * excl
        if product & _MASK32 < excl:
            threshold = (_SPAN32 - excl) % excl
            while product & _MASK32 < threshold:
                product = self._next_uint32() * excl
        return low + (product >> 32)

    def _integers_rare(self, low: int, high: int) -> int:
        """``integers`` on numpy ints, on a width of 1 or 2**32, or an error."""
        low, high = index(low), index(high)
        excl = high - low
        if excl == 1:
            return low
        if excl == _SPAN32:
            return low + self._next_uint32()
        if 1 < excl < _SPAN32:
            return self.integers(low, high)
        raise ValueError(f"integers: need 1 <= high - low <= 2**32, got {excl}")

    def __enter__(self) -> RawDraws:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Leave the Generator where numpy's own scalar draws would have."""
        consumed = self._fetched - length_hint(self._words)
        bit_generator = self._bit_generator
        bit_generator.state = self._start
        bit_generator.advance(consumed)
        state = bit_generator.state
        state["has_uint32"] = int(self._has_uint32)
        state["uinteger"] = self._uinteger
        bit_generator.state = state
        self._start = state
        self._fetched = 0
        self._words = iter(())
