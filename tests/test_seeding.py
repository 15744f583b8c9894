"""The vectorized Philox pass against one generator per stream."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qevents import substream
from qevents.seeding import _BLOCKS_PER_CHUNK, _stream_uniforms

# keys reduce modulo 2**64: zero, negatives, the largest key and beyond it
SEEDS = st.one_of(st.sampled_from([0, -1, -(2**63), 2**64 - 1, 2**64, 2**64 + 7, 3 * 2**64 - 2]),
                  st.integers(-(2**70), 2**70))


def per_stream(seed, rows, steps):
    return np.array([substream(seed, i).random(steps) for i in rows]).reshape(len(rows), steps)


class TestStreamUniforms:
    @given(seed=SEEDS, streams=st.integers(0, 40), steps=st.integers(0, 9))
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_substream_draws(self, seed, streams, steps):
        got = _stream_uniforms(seed, streams, steps)
        assert got.shape == (streams, steps) and got.dtype == np.float64
        assert np.array_equal(got, per_stream(seed, range(streams), steps))

    @given(seed=SEEDS, steps=st.integers(1, 9), chunks=st.integers(1, 2),
           extra=st.integers(1, 3), probe=st.integers(0, 2**32))
    @settings(max_examples=12, deadline=None)
    def test_rows_across_chunk_boundaries(self, seed, steps, chunks, extra, probe):
        per_chunk = _BLOCKS_PER_CHUNK // -(-steps // 4)
        streams = chunks * per_chunk + extra
        got = _stream_uniforms(seed, streams, steps)
        rows = sorted({0, per_chunk - 1, per_chunk, chunks * per_chunk - 1,
                       chunks * per_chunk, streams - 1, probe % streams})
        assert np.array_equal(got[rows], per_stream(seed, rows, steps))
        # a stream's row does not depend on how many streams were drawn
        assert np.array_equal(got[:per_chunk + 1],
                              _stream_uniforms(seed, per_chunk + 1, steps))

    def test_a_million_streams_keep_the_temporaries_small(self):
        tracemalloc.start()
        try:
            out = _stream_uniforms(5, 10**6, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 8 MB output plus a few chunk-sized temporaries; one unchunked
        # pass would hold about twenty 8 MB uint64 arrays
        assert peak - out.nbytes < 16 << 20
