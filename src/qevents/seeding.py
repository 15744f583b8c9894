"""Deterministic random streams.

All sampling in the package draws from counter-based Philox generators keyed
by (seed, stream).  Distinct streams are statistically independent, and a
given key always reproduces the same draws, which is what makes command-line
outputs byte-identical run to run.

Because Philox is counter-based (Salmon, Moraes, Dror & Shaw, "Parallel
random numbers: as easy as 1, 2, 3", SC'11), the first blocks of many
streams can also be formed directly, without building one generator per
stream: ``_stream_uniforms`` does so in one vectorized pass that reproduces
``substream(seed, i).random(steps)`` bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream"]

_MASK64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox4x64-10 multipliers and Weyl key increments (Random123, as in numpy)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10
_BLOCKS_PER_CHUNK = 1 << 14    # Philox blocks formed at once; bounds the temporaries


def substream(seed: int, stream: int = 0) -> np.random.Generator:
    key = np.array([int(seed) % (1 << 64), int(stream) % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product m * x, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _MASK32, x >> _SHIFT32
    lo_hi = m_lo * x_hi
    hi_lo = m_hi * x_lo
    carry = ((m_lo * x_lo) >> _SHIFT32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    hi = m_hi * x_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (carry >> _SHIFT32)
    return hi, np.uint64(m) * x


def _philox_blocks(ctr0: np.ndarray, key0: int, key1: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of the counters (ctr0, 0, 0, 0) under keys (key0, key1).

    ``ctr0`` and ``key1`` broadcast against each other (from the third round
    on every word has their joint shape); the result stacks the four output
    words on a trailing axis, in the order numpy buffers them.
    """
    zero = np.zeros_like(ctr0)
    c0, c1, c2, c3 = ctr0, zero, zero, zero
    for r in range(_ROUNDS):
        if r:
            key0 = (key0 + _W0) & _MASK64
            key1 = key1 + np.uint64(_W1)    # wraps modulo 2**64, as the key bump does
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(key0), lo1, hi0 ^ c3 ^ key1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1)


def _stream_uniforms(seed: int, streams: int, steps: int) -> np.ndarray:
    """``(streams, steps)`` uniforms whose row i is ``substream(seed, i).random(steps)``.

    numpy's Philox bumps its counter before generating, so a fresh stream's
    j-th block is Philox4x64-10 of the counter (j + 1, 0, 0, 0) under the key
    (seed, i); each 64-bit word x becomes the double (x >> 11) * 2**-53.
    Streams are formed in chunks of about ``_BLOCKS_PER_CHUNK`` blocks, so the
    uint64 temporaries stay bounded whatever the number of streams.
    """
    streams, steps = int(streams), int(steps)
    out = np.empty((streams, steps))
    blocks = -(-steps // 4)
    if blocks == 0:
        return out
    key0 = int(seed) % (1 << 64)
    ctr0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    rows = max(1, _BLOCKS_PER_CHUNK // blocks)
    for start in range(0, streams, rows):
        stop = min(start + rows, streams)
        key1 = np.arange(start, stop, dtype=np.uint64)[:, None]
        words = _philox_blocks(ctr0, key0, key1).reshape(stop - start, 4 * blocks)
        out[start:stop] = (words[:, :steps] >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    return out
