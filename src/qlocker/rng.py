"""Deterministic, splittable random streams.

Every sampled quantity in this package draws from a RandomStream.  A stream
is fully determined by its 64-bit seed plus a path of sub-stream indices, so
any shot, trajectory, or experiment can be replayed bit-for-bit, and derived
sub-streams may be consumed in any order (or in parallel) without changing
results.

A batch of shots keeps that contract by drawing each shot's uniforms up
front: :meth:`RandomStream.shot_uniforms` gives shot ``i`` the first ``k``
draws of sub-stream ``(seed, i)``, the same doubles ``k`` calls of
:meth:`RandomStream.random` on that sub-stream return.  It builds no
per-shot generator: it evaluates numpy's ``SeedSequence`` spawn and
Philox4x64-10 (Salmon et al., SC 2011) as array arithmetic over the shot
axis.  Nothing but its bit-equality test against numpy's own generators
ties it to numpy's algorithms, so that test pins it to the numpy version
the tests run with.
"""

from __future__ import annotations

import numpy as np

# numpy's SeedSequence: 4-word pool, hash and mix constants (uint32)
_POOL = 4
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64: round multipliers, Weyl key increments, rounds
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10


def _words(value: int) -> list[int]:
    """uint32 words of a non-negative int, least significant first."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def _mix(x, y):
    """SeedSequence's ``mix``; ints or uint32 arrays (which wrap)."""
    result = ((_MIX_L * x & _M32) - (_MIX_R * y & _M32)) & _M32
    return result ^ (result >> 16)


def _mulhi(a: int, b: np.ndarray) -> np.ndarray:
    """High 64 bits of ``a * b``, from the 32-bit halves."""
    a_lo, a_hi = a & _M32, a >> 32
    b_lo, b_hi = b & _M32, b >> 32
    lo_hi, hi_lo = a_lo * b_hi, a_hi * b_lo
    carry = ((a_lo * b_lo) >> 32) + (lo_hi & _M32) + (hi_lo & _M32)
    return a_hi * b_hi + (lo_hi >> 32) + (hi_lo >> 32) + (carry >> 32)


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
        """Row ``j``: the first ``k`` uniforms of sub-stream ``shots[j]``.

        Computed for all shots at once, bit for bit what
        ``substream(i).randoms(k)`` returns; this stream does not advance.
        Shot indices must be in ``[0, 2**32)``, one spawn-key word each.
        """
        ends = (shots[0], shots[-1]) if shots else (0,)
        if min(ends) < 0 or max(ends) > _M32:
            raise ValueError(f"shot indices of {shots} are not in [0, 2**32)")
        index = np.arange(shots.start, shots.stop, shots.step,
                          dtype=np.int64).astype(np.uint32)

        # SeedSequence(seed, spawn_key=path + (i,)): the seed's words padded
        # to the pool, then the path's, then i.  The hash constant advances
        # the same way whatever the words, so only i's four mixing steps run
        # over the shot axis (uint32 arrays, which wrap as numpy's C does).
        seed_words = _words(self.seed)
        entropy = (seed_words + [0] * (_POOL - len(seed_words))
                   + [w for p in self.path for w in _words(p)] + [index])
        hash_const = _INIT_A

        def hashmix(value):
            nonlocal hash_const
            value = value ^ hash_const
            hash_const = hash_const * _MULT_A & _M32
            value = value * hash_const & _M32
            return value ^ (value >> 16)

        pool = [hashmix(w) for w in entropy[:_POOL]]
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL:]:
            pool = [_mix(p, hashmix(word)) for p in pool]

        # generate_state(2, uint64): four uint32 words, two Philox key words
        state = []
        hash_const = _INIT_B
        for p in pool:
            p = p ^ hash_const
            hash_const = hash_const * _MULT_B & _M32
            p = p * hash_const
            state.append((p ^ (p >> 16)).astype(np.uint64))
        key0 = (state[0] | state[1] << 32)[:, None]
        key1 = (state[2] | state[3] << 32)[:, None]

        # Philox4x64-10: numpy bumps the counter before its first block, so
        # block b of a shot has the counter (b + 1, 0, 0, 0)
        c0 = np.arange(1, -(-k // 4) + 1, dtype=np.uint64)[None, :]
        c1 = c2 = c3 = np.zeros_like(c0)
        for r in range(_ROUNDS):
            if r:
                key0 = key0 + np.uint64(_PHILOX_W[0])
                key1 = key1 + np.uint64(_PHILOX_W[1])
            c0, c1, c2, c3 = (_mulhi(_PHILOX_M[1], c2) ^ c1 ^ key0,
                              c2 * np.uint64(_PHILOX_M[1]),
                              _mulhi(_PHILOX_M[0], c0) ^ c3 ^ key1,
                              c0 * np.uint64(_PHILOX_M[0]))
        blocks = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1)
        raw = blocks.reshape(len(shots), 4 * c0.shape[1])[:, :k]
        return (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

    def random(self) -> float:
        """Next uniform double in [0, 1)."""
        return float(self._gen.random())

    def randoms(self, size: int) -> np.ndarray:
        """Array of ``size`` uniform doubles in [0, 1)."""
        return self._gen.random(size)

    def uniform(self, low: float, high: float) -> float:
        """Next uniform double in [low, high)."""
        return self._gen.uniform(low, high)

    def spawn_seed(self) -> int:
        """Draw a fresh 63-bit integer, for seeding an independent run."""
        return int(self._gen.integers(0, 1 << 63))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path})"
