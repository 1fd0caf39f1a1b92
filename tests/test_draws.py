"""Tests for repro.data.draws: the decoder must be numpy's scalar draws, exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.draws import CHUNK_WORDS, RawDraws

#: Widths with their own branch in numpy (1: no draw; 2**32: a bare
#: ``next_uint32``), the 32-bit extremes, and widths just above a power
#: of two, where Lemire's rejection fires on up to half the draws.
EDGE_WIDTHS = [1, 2, 3, 2**31, 2**31 + 1, 3 * 2**30 + 1, 2**32 - 1, 2**32]

WIDTHS = st.sampled_from(EDGE_WIDTHS) | st.integers(1, 2**32)
DRAW = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.integers(-(2**40), 2**40), WIDTHS),
)


def _apply(rng, draw):
    if draw[0] == "random":
        return rng.random()
    __, low, width = draw
    return int(rng.integers(low, low + width))


class TestMatchesNumpy:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        warmup=st.integers(0, 3),
        draws=st.lists(DRAW, max_size=300),
    )
    def test_interleaved_draws_and_final_state(self, seed, warmup, draws):
        numpy_rng = np.random.default_rng(seed)
        decoded_rng = np.random.default_rng(seed)
        for rng in (numpy_rng, decoded_rng):
            # An odd warm-up leaves half a word in PCG64's uint32 buffer.
            for __ in range(warmup):
                rng.integers(0, 7)
        expected = [_apply(numpy_rng, draw) for draw in draws]
        with RawDraws(decoded_rng) as decoder:
            got = [_apply(decoder, draw) for draw in draws]
        assert got == expected
        assert decoded_rng.bit_generator.state == numpy_rng.bit_generator.state
        assert decoded_rng.random() == numpy_rng.random()

    @pytest.mark.parametrize("width", EDGE_WIDTHS)
    def test_edge_width_across_chunks(self, width):
        """More draws than one chunk holds, at each edge width."""
        numpy_rng, decoded_rng = np.random.default_rng(5), np.random.default_rng(5)
        n = 2 * CHUNK_WORDS + 3
        expected = [int(numpy_rng.integers(7, 7 + width)) for __ in range(n)]
        with RawDraws(decoded_rng) as decoder:
            assert [decoder.integers(7, 7 + width) for __ in range(n)] == expected
        assert decoded_rng.bit_generator.state == numpy_rng.bit_generator.state

    def test_numpy_int_bounds(self):
        numpy_rng, decoded_rng = np.random.default_rng(9), np.random.default_rng(9)
        expected = [int(numpy_rng.integers(np.int64(3), np.int64(2**32))) for __ in range(50)]
        with RawDraws(decoded_rng) as decoder:
            got = [decoder.integers(np.int64(3), np.int64(2**32)) for __ in range(50)]
        assert got == expected
        assert all(type(value) is int for value in got)

    def test_width_one_draws_nothing(self):
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        with RawDraws(rng) as decoder:
            assert [decoder.integers(4, 5) for __ in range(10)] == [4] * 10
        assert rng.bit_generator.state == before


class TestContract:
    @pytest.mark.parametrize("width", [0, -3, 2**32 + 1, 2**40])
    def test_unimplemented_width_rejected(self, width):
        with RawDraws(np.random.default_rng(0)) as decoder, pytest.raises(ValueError):
            decoder.integers(10, 10 + width)

    def test_pcg64_only(self):
        with pytest.raises(TypeError, match="PCG64"):
            RawDraws(np.random.Generator(np.random.MT19937(0)))

    def test_exception_leaves_generator_where_numpy_would(self):
        numpy_rng, decoded_rng = np.random.default_rng(4), np.random.default_rng(4)
        for __ in range(5):
            numpy_rng.integers(0, 100)

        def draw_then_fail():
            with RawDraws(decoded_rng) as decoder:
                for __ in range(5):
                    decoder.integers(0, 100)
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError):
            draw_then_fail()
        assert decoded_rng.bit_generator.state == numpy_rng.bit_generator.state

    def test_close_twice_is_harmless(self):
        numpy_rng, decoded_rng = np.random.default_rng(8), np.random.default_rng(8)
        expected = [numpy_rng.random() for __ in range(3)]
        decoder = RawDraws(decoded_rng)
        assert [decoder.random() for __ in range(3)] == expected
        decoder.close()
        decoder.close()
        assert decoded_rng.bit_generator.state == numpy_rng.bit_generator.state
