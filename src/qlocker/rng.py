"""Deterministic, splittable random streams.

Every sampled quantity in this package draws from a RandomStream.  A stream
is fully determined by its 64-bit seed plus a path of sub-stream indices, so
any shot, trajectory, or experiment can be replayed bit-for-bit, and derived
sub-streams may be consumed in any order (or in parallel) without changing
results.  A stream builds its numpy ``SeedSequence`` at once and its Philox
generator on its first draw, so a stream that only hands out sub-streams,
or its pool to :func:`shot_uniforms`, never builds one.

A batch of shots keeps that contract by drawing each shot's uniforms up
front: :func:`shot_uniforms` gives shot ``i`` of stream ``g`` the first
``k`` draws of that stream's sub-stream ``i``, the same doubles ``k`` calls
of :meth:`RandomStream.random` on that sub-stream return, for G streams at
once (:meth:`RandomStream.shot_uniforms` is its one-stream call).  It
builds no per-shot generator.  It stacks each stream's own ``SeedSequence``
pool and hash constants on a stream axis, and runs the spawn's last entropy
word, the shot index, and ``generate_state`` as one ``(4, G, S)`` uint32
pass, which gives each of the G * S shots its Philox4x64-10 key (Salmon et
al., SC 2011).  The doubles then come from one of two Philox paths, chosen
by the call's number of keys alone.  A call of at most 64 keys runs
``_keyed_doubles``: one numpy ``Philox`` per call, set to each key in turn
through its ``state``, each key's draws one call, so a key costs a few
microseconds.  A call of more keys runs ``_philox_doubles``, the
vectorized pass, whose fixed cost of about 200 microseconds is paid once
for all keys: Philox on lane pairs, each a ``(2, blocks, G * S)`` uint64
array with the stream and shot axes last, so that each ufunc call loops
over every stream's shots and G streams pay its fixed cost once.  Every
Philox call takes numpy's trivial loop: each operand is a whole pair, one
lane of a pair, or a read-only 0-d uint64 constant, never a broadcast
column or a Python int, which cost numpy's iterator or a conversion on
every call.  A product by a word's own
multiplier is one call per lane, and instead of crossing, the two words of
each pair trade places every round.  Round 1 is computed in closed form
from counter ``(j + 1, 0, 0, 0)``.  The doubles keep the stream and shot
axes last too: on either path the result is a ``(G, S, k)`` view of a
``(k, G, S)`` array whose row ``c`` holds every shot's draw ``c``, so a
kernel step reads its draws as one contiguous row, of one stream or of all
of them.  Only its bit-equality tests against numpy's own generators tie
the key pass and the vectorized pass to numpy's algorithms, so those tests
pin them to the numpy version they run with.

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
# Philox4x64-10: the multipliers of words c0 and c2, the Weyl increments
# of key words k0 and k1, and the rounds
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
# a call with at most this many keys draws key by key from numpy's own
# Philox (_keyed_doubles); a call of more keys runs the vectorized pass
# (_philox_doubles).  Fitted from timings of both paths, on whose sides
# tools/layers.py's rng.shot_uniforms sizes lie: the vectorized pass costs
# about 200 us a call, and a key by key call about 3.5 us a key
_FEW_KEYS = 64


def _u64(value: int) -> np.ndarray:
    """``value`` as a read-only 0-d uint64 array, an operand that keeps a
    ufunc call on numpy's trivial loop."""
    const = np.array(value, dtype=np.uint64)
    const.flags.writeable = False
    return const


_LOW, _HALF, _MANTISSA_SHIFT = _u64(_M32), _u64(32), _u64(11)
# each multiplier with its low and high 32-bit halves, and each increment
_MULTS = tuple(tuple(map(_u64, (m, m & _M32, m >> 32))) for m in _PHILOX_M)
_WEYLS = tuple(map(_u64, _PHILOX_W))


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


def _require_int(name: str, value) -> None:
    """A :class:`TypeError` naming ``name`` unless ``value`` is an integer:
    a bool is an int to Python, and a float such as 10.0 would pass a range
    check and fail far away, without the argument's name."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


class RandomStream:
    """A Philox counter-based generator keyed by (seed, sub-stream path).

    The seed and every path entry are integers (numpy integers too), never
    a bool, a float or a string (a :class:`TypeError` that names the value,
    rather than a silent truncation to another stream).  Its
    ``SeedSequence`` is built with it: that checks their ranges, and holds
    the pool that :func:`shot_uniforms` reads.  The Philox bit
    generator and ``Generator`` are built on its first draw, so a stream
    that only hands out sub-streams or its pool never builds them; when
    they are built changes no draw."""

    __slots__ = ("seed", "path", "_seq", "_generator")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        _require_int("seed", seed)
        for index in path:
            _require_int("a sub-stream index", index)
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        self._seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._generator = None

    @property
    def _gen(self) -> np.random.Generator:
        """The stream's numpy generator, built on the first call."""
        if self._generator is None:
            self._generator = np.random.Generator(np.random.Philox(self._seq))
        return self._generator

    def substream(self, index: int) -> RandomStream:
        """Child stream at ``index``; independent of the parent and siblings."""
        return RandomStream(self.seed, self.path + (index,))

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


def _check_shots(shots: range) -> None:
    """A :class:`ValueError` unless every index of ``shots`` is in ``[0,
    2**32)``, one spawn-key word each: the bound of :func:`shot_uniforms`,
    which a caller that consumes anything before drawing checks first."""
    ends = (shots[0], shots[-1]) if shots else (0,)
    if min(ends) < 0 or max(ends) > _M32:
        raise ValueError(f"shot indices of {shots} are not in [0, 2**32)")


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
    memory is about four and a half times the result on the vectorized
    pass, and about twice the result key by key (see the module
    docstring for the choice).
    """
    _check_shots(shots)
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
    pool = np.array([s._seq.pool for s in streams]).T[:, :, None]
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
            | h[0::2]).reshape(2, size)
    blocks = -(-k // 4)
    draw = _keyed_doubles if size <= _FEW_KEYS else _philox_doubles
    return draw(keys, blocks).reshape(
        4 * blocks, len(streams), len(shots))[:k].transpose(1, 2, 0)


def _keyed_doubles(keys: np.ndarray, blocks: int) -> np.ndarray:
    """:func:`_philox_doubles`' doubles, drawn key by key from numpy's own
    Philox4x64-10, as a C-contiguous ``(4 * blocks, R)`` array whose row
    ``c`` holds every key's word ``c`` as a double.

    One bit generator serves the call.  For each key its state is set as a
    ``SeedSequence`` keys it, counter 0 and an empty buffer, and its
    ``Generator`` writes the key's ``4 * blocks`` doubles into one row of an
    ``(R, 4 * blocks)`` buffer, which is transposed once at the end.  A key
    costs a state set and a draw call, a few microseconds, and each double
    a few nanoseconds.
    """
    rows = np.empty((keys.shape[1], 4 * blocks))
    # keyed, not seeded, since every key replaces it: a seed would also run
    # a SeedSequence pass; built here, since importing numpy.random at
    # import would add 10-20 ms to every command's start-up
    gen = np.random.Generator(np.random.Philox(key=0))
    inner = {"counter": [0] * 4, "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": [0] * 4,
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key, row in zip(keys.T.tolist(), rows):
        inner["key"] = key
        gen.bit_generator.state = state
        gen.random(out=row)
    return np.ascontiguousarray(rows.T)


def _philox_doubles(keys: np.ndarray, blocks: int) -> np.ndarray:
    """The doubles of Philox4x64-10's first ``blocks`` blocks under each of
    the R keys ``keys``, a ``(2, R)`` uint64 array of words ``(k0, k1)``:
    a ``(blocks, 4, R)`` array whose ``[j, c, r]`` is word ``c`` of block
    ``j`` under key ``r`` as numpy's double, ``(word >> 11) * 2**-53``.

    numpy bumps the counter before its first block, so block ``j`` starts
    at ``(j + 1, 0, 0, 0)``.  A round maps ``(c0, c1, c2, c3)`` to
    ``(hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0))``
    and then adds the Weyl increments to the key.  Round 1 is closed form:
    ``(k0, 0, hi(M0 (j + 1)) ^ k1, lo(M0 (j + 1)))``.  The rounds after it
    run on six ``(2, blocks, R)`` lane pairs: ``x`` holds ``(c0, c2)``,
    ``y`` the words that each of ``x``'s highs is xored into, ``(c3, c1)``,
    and ``key`` the key word each then takes, ``(k1, k0)``; ``lo`` and two
    temporaries are free.  A round writes ``x``'s low products crossed into
    ``lo``, so ``lo`` holds ``(c1', c3')`` and is the next ``y``; it xors
    ``x``'s highs and ``key`` into ``y``, which then holds ``(c2', c0')``
    and is the next ``x``; and it writes the next key crossed into a
    temporary, ``(k0', k1')``.  So every pair's two words trade places each
    round, and no call reads a crossed view.  Every call's operands are
    whole pairs, lanes of one, or 0-d constants, each lane view built
    once.
    """
    size = keys.shape[1]
    x, y, lo, t1, t2, key = (
        (pair, pair[0], pair[1])
        for pair in np.empty((6, 2, blocks, size), np.uint64))
    high, low = np.array([divmod(j * _PHILOX_M[0], 1 << 64)
                          for j in range(1, blocks + 1)],
                         dtype=np.uint64).reshape(blocks, 2).T[:, :, None]
    np.copyto(x[1], keys[0])
    np.bitwise_xor(keys[1], high, x[2])
    np.copyto(y[1], low)
    y[2].fill(0)
    np.add(keys[1], _WEYLS[1], key[1])
    np.add(keys[0], _WEYLS[0], key[2])
    # the multipliers of x's words and the increments of key's, by place
    mults, weyls = _MULTS, _WEYLS[::-1]
    for r in range(1, _ROUNDS):
        (xs, x0, x1), (_, l0, l1), (us, u0, u1), (vs, v0, v1) = x, lo, t1, t2
        (m0, m0_lo, m0_hi), (m1, m1_lo, m1_hi) = mults
        np.multiply(x0, m0, l1)
        np.multiply(x1, m1, l0)
        # hi from the 32-bit halves' products ll, lh, hl and hh of x and
        # M: t = lh + (ll >> 32) and s = t + (hl & M32) are below 2**64,
        # and hi = hh + (hl >> 32) + (s >> 32), where s is summed mod
        # 2**64 as t + hl - ((hl >> 32) << 32)
        np.bitwise_and(xs, _LOW, us)
        xs >>= _HALF
        np.multiply(u0, m0_lo, v0)
        np.multiply(u1, m1_lo, v1)
        vs >>= _HALF
        u0 *= m0_hi
        u1 *= m1_hi
        us += vs
        np.multiply(x0, m0_lo, v0)
        np.multiply(x1, m1_lo, v1)
        x0 *= m0_hi
        x1 *= m1_hi
        us += vs
        vs >>= _HALF
        xs += vs
        vs <<= _HALF
        us -= vs
        us >>= _HALF
        xs += us
        ys = y[0]
        ys ^= xs
        ys ^= key[0]
        if r < _ROUNDS - 1:
            np.add(key[1], weyls[0], v1)
            np.add(key[2], weyls[1], v0)
            key, t2 = t2, key
        x, y, lo = y, lo, x
        mults, weyls = mults[::-1], weyls[::-1]
    # after an odd number of swaps x holds (c2, c0) and y (c1, c3)
    out = np.empty((blocks, 4, size))
    for (pair, _, _), words in ((x, out[:, 2::-2]), (y, out[:, 1::2])):
        pair >>= _MANTISSA_SHIFT
        np.multiply(pair.transpose(1, 0, 2), 2.0 ** -53, words)
    return out
