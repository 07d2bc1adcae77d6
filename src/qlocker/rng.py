"""Deterministic, splittable random streams.

Every sampled quantity in this package draws from a RandomStream.  A stream
is fully determined by its 64-bit seed plus a path of sub-stream indices, so
any shot, trajectory, or experiment can be replayed bit-for-bit, and derived
sub-streams may be consumed in any order (or in parallel) without changing
results.

A batch of shots keeps that contract by drawing each shot's uniforms up
front: :func:`shot_uniforms` gives shot ``i`` of stream ``g`` the first
``k`` draws of that stream's sub-stream ``i``, the same doubles ``k`` calls
of :meth:`RandomStream.random` on that sub-stream return, for G streams at
once (:meth:`RandomStream.shot_uniforms` is its one-stream call).  It
builds no per-shot generator.  It stacks each stream's own ``SeedSequence``
pool and hash constants on a stream axis, runs the spawn's last entropy
word, the shot index, and ``generate_state`` as one ``(4, G, S)`` uint32
pass, then Philox4x64-10 (Salmon et al., SC 2011) on stacked lane pairs:
counter words ``(c0, c2)`` in one ``(2, blocks, G * S)`` uint64 array and
``(c1, c3)`` in another, the stream and shot axes last, so that each of
its ufunc calls (18 a round) loops over every stream's shots and G streams
pay its fixed cost once.  The doubles keep those axes last too: the result
is a ``(G, S, k)`` view of a ``(k, G, S)`` array whose row ``c`` holds
every shot's draw ``c``, so a kernel step reads its draws as one
contiguous row, of one stream or of all of them.  Only its bit-equality
tests against numpy's own generators tie that arithmetic to numpy's
algorithms, so those tests pin it to the numpy version they run with.

:meth:`RandomStream.below` is ``randoms(size) < p`` without the doubles: a
Philox double is its 64-bit word's top 53 bits times ``2**-53``, an exact
function of the word, so the test runs on the raw words against one
integer threshold.  ``sweep``'s sampler draws through it.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

# numpy's SeedSequence: 4-word pool, hash and mix constants (uint32)
_POOL = 4
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64-10: the multipliers of the lane pair (c0, c2), their 32-bit
# halves, the Weyl increments of the key pair, and the rounds
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157],
                     dtype=np.uint64)[:, None, None]
_M_LO, _M_HI = _PHILOX_M & _M32, _PHILOX_M >> 32
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B],
                     dtype=np.uint64)[:, None, None]
_ROUNDS = 10


def _n_words(value: int) -> int:
    """How many uint32 entropy words SeedSequence makes of an int >= 0."""
    return max(1, -(-value.bit_length() // 32))


@functools.cache
def _hash_consts(init: int, mult: int, step: int) -> np.ndarray:
    """SeedSequence's hash constant at hashmix calls ``step`` to ``step +
    4``, a read-only (5,) uint32 array: call ``step + j`` xors with entry
    ``j`` and multiplies by entry ``j + 1``.  Cached: a stream's constants
    depend only on how many entropy words its seed and path make."""
    consts = np.array([init * pow(mult, step + j, 1 << 32) & _M32
                       for j in range(_POOL + 1)], dtype=np.uint32)
    consts.flags.writeable = False
    return consts


# generate_state's hash constants, the same for every pool, as a (5, 1, 1)
# column over the stream and shot axes
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 0)[:, None, None]


class RandomStream:
    """A Philox counter-based generator keyed by (seed, sub-stream path)."""

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def substream(self, index: int) -> RandomStream:
        """Child stream at ``index``; independent of the parent and siblings."""
        return RandomStream(self.seed, self.path + (int(index),))

    def shot_uniforms(self, shots: range, k: int) -> np.ndarray:
        """Row ``j``: the first ``k`` uniforms of sub-stream ``shots[j]``,
        bit for bit what ``substream(i).randoms(k)`` returns; this stream
        does not advance.  The one-stream case of :func:`shot_uniforms`:
        an ``(S, k)`` array whose column ``c`` is a contiguous row of
        draws."""
        return shot_uniforms((self,), shots, k)[0]

    def random(self) -> float:
        """Next uniform double in [0, 1)."""
        return float(self._gen.random())

    def randoms(self, size: int) -> np.ndarray:
        """Array of ``size`` uniform doubles in [0, 1)."""
        return self._gen.random(size)

    def below(self, p: float, size: int) -> np.ndarray:
        """``randoms(size) < p``, bit for bit, tested on the raw words.

        A double is ``(word >> 11) * 2**-53``, so it is below ``p`` exactly
        when ``word < ceil(p * 2**53) << 11``; the stream advances by
        ``size`` whatever ``p`` is."""
        words = self._gen.bit_generator.random_raw(size)
        if not 0.0 < p < 1.0:  # every draw or none; none at NaN, as < reads
            return np.full(size, p >= 1.0)
        return words < np.uint64(math.ceil(p * 2.0 ** 53) << 11)

    def uniform(self, low: float, high: float) -> float:
        """Next uniform double in [low, high)."""
        return self._gen.uniform(low, high)

    def spawn_seed(self) -> int:
        """Draw a fresh 63-bit integer, for seeding an independent run."""
        return int(self._gen.integers(0, 1 << 63))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path})"


def shot_uniforms(streams: Sequence[RandomStream], shots: range,
                  k: int) -> np.ndarray:
    """``[g]``: ``streams[g].shot_uniforms(shots, k)``, for every stream in
    one pass.

    Entry ``[g, j]`` holds the first ``k`` uniforms of
    ``streams[g].substream(shots[j])``, bit for bit what that sub-stream's
    ``randoms(k)`` returns; no stream advances.  The streams may differ in
    seed and path.  Shot indices must be in ``[0, 2**32)``, one spawn-key
    word each.  The result, of shape ``(G, S, k)``, is a view of the first
    ``k`` rows of the C-contiguous ``(4 * ceil(k / 4), G, S)`` doubles of
    whole Philox blocks, each lane written straight into its rows: column
    ``c`` of each ``[g]`` is a contiguous row of draws, and so is column
    ``c`` of its ``(G * S, k)`` reshape, stream-major.  A call's peak
    memory is about four and a half times the result.
    """
    ends = (shots[0], shots[-1]) if shots else (0,)
    if min(ends) < 0 or max(ends) > _M32:
        raise ValueError(f"shot indices of {shots} are not in [0, 2**32)")
    index = np.arange(shots.start, shots.stop, shots.step,
                      dtype=np.int64).astype(np.uint32)
    size = len(streams) * len(shots)

    # SeedSequence(seed, spawn_key=path + (i,)) is the stream's own
    # SeedSequence with one more entropy word, i: its pool, each word mixed
    # with one more hashmix of i (hashmix calls 4n to 4n + 3 for entropy
    # word n, the seed's words padded to the pool).  That and
    # generate_state(2, uint64) run as one (4, G, S) uint32 pass over the
    # buffers h and t, each stream's constants and pool a (G, 1) column;
    # the key words are state words 0|1 and 2|3.
    consts = np.array([_hash_consts(
        _INIT_A, _MULT_A,
        4 * (max(_n_words(s.seed), _POOL) + sum(map(_n_words, s.path))))
        for s in streams]).T[:, :, None]
    pool = np.array([s._gen.bit_generator.seed_seq.pool
                     for s in streams]).T[:, :, None]
    h, t = np.empty((2, _POOL, len(streams), len(shots)), np.uint32)
    np.bitwise_xor(index, consts[:-1], out=h)
    h *= consts[1:]
    h ^= np.right_shift(h, 16, out=t)
    h *= _MIX_R
    np.subtract(pool * _MIX_L, h, out=h)
    h ^= np.right_shift(h, 16, out=t)
    h ^= _STATE_CONSTS[:-1]
    h *= _STATE_CONSTS[1:]
    h ^= np.right_shift(h, 16, out=t)
    keys = (np.left_shift(h[1::2], 32, dtype=np.uint64)
            | h[0::2]).reshape(2, 1, size)

    # Philox4x64-10 on lane pairs, the stream and shot axes last as one:
    # a holds (c0, c2) and b holds (c1, c3), each (2, blocks, G * S).
    # numpy bumps the counter before its first block, so block b of a shot
    # starts at (b + 1, 0, 0, 0).  A round multiplies a by (M0, M1); the
    # next (c0, c2) is hi(M1 c2, M0 c0) ^ (c1, c3) ^ key and the next
    # (c1, c3) is lo(M1 c2, M0 c0), so each product crosses the pair
    # through a [::-1] view, and lo is written straight into the next b.
    blocks = -(-k // 4)
    a, b, lo, t1, t2, t3 = np.zeros((6, 2, blocks, size), np.uint64)
    a[0] = np.arange(1, blocks + 1, dtype=np.uint64)[:, None]
    for _ in range(_ROUNDS):
        np.multiply(a, _PHILOX_M, out=lo[::-1])
        # mulhi from 32-bit halves: t = hl + (ll >> 32),
        # w = (t & M32) + lh, hi = hh + (t >> 32) + (w >> 32)
        np.bitwise_and(a, _M32, out=t1)
        a >>= 32
        np.multiply(t1, _M_HI, out=t2)
        t1 *= _M_LO
        t1 >>= 32
        t2 += t1
        np.multiply(a, _M_LO, out=t1)
        a *= _M_HI
        np.bitwise_and(t2, _M32, out=t3)
        t3 += t1
        t2 >>= 32
        t3 >>= 32
        a += t2
        a += t3
        b ^= a[::-1]
        b ^= keys
        keys += _PHILOX_W
        a, b, lo = b, lo, a
    # each block's words c0, c1, c2, c3 go straight into rows 4b to
    # 4b + 3 of the doubles, the stream and shot axes last in both
    out = np.empty((blocks, 4, size))
    for lanes, words in ((a, out[:, 0::2]), (b, out[:, 1::2])):
        lanes >>= 11
        np.multiply(lanes.transpose(1, 0, 2), 2.0 ** -53, out=words)
    return out.reshape(4 * blocks, len(streams),
                       len(shots))[:k].transpose(1, 2, 0)
