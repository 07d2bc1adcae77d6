"""``RandomStream.shot_uniforms`` against numpy's per-shot generators.

``shot_uniforms`` evaluates numpy's ``SeedSequence`` spawn and
Philox4x64-10 as array arithmetic, so only these tests tie it to numpy:
each shot's row must be bit for bit the first ``k`` doubles of
``Generator(Philox(SeedSequence(seed, spawn_key=path + (i,))))``.  The
pinned literals fail loudly if a numpy upgrade changes either algorithm.
``rng.shot_uniforms`` draws several streams in one pass, and each stream's
draws must be the ones it draws alone.  ``RandomStream.below`` tests draws
against a threshold on the raw words, and must give what ``randoms`` and
``<`` give, from the same stream position to the same one.  A stream
builds its generator on its first draw, and must then draw what numpy's
generator of its seed and path draws, whatever it handed out before.
A call of few keys draws key by key from numpy's own Philox and a call of
more keys by the vectorized pass, so the bit-equality tests take sizes on
each side of that choice, and both private paths must give the same bits
on the same keys.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlocker import RandomStream, rng, statevector

from oracles import reference_shot_uniforms

RNG_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                        database=None)

# seeds of 1 word, 63-bit spawn_seed values (2 words), and 5 or more words
seeds = st.one_of(st.integers(0, 2), st.integers(0, 2**63 - 1),
                  st.integers(2**128, 2**200))
# (), one small entry, and entries of one, two or three words
paths = st.one_of(
    st.just(()),
    st.tuples(st.integers(0, 7)),
    st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**80)),
             max_size=3).map(tuple))
# blocks of up to 12 shots anywhere in [0, 2**32), with any positive step
shot_ranges = st.builds(
    lambda start, length, step: range(start, start + length * step, step),
    st.one_of(st.integers(0, 50), st.integers(0, 2**32 - 40)),
    st.integers(0, 12), st.integers(1, 3))


# seeds of 1, 2 and 7 entropy words, and paths of length 0 to 2
stream_keys = st.tuples(
    st.one_of(st.integers(0, 2), st.integers(2**32, 2**63 - 1),
              st.integers(2**192, 2**224 - 1)),
    st.lists(st.one_of(st.integers(0, 7), st.integers(2**32, 2**40)),
             max_size=2).map(tuple))


def numpy_rows(seed, path, shots, k):
    """Each shot's first ``k`` doubles from numpy's own generators."""
    rows = [np.random.Generator(np.random.Philox(np.random.SeedSequence(
        seed, spawn_key=path + (i,)))).random(k) for i in shots]
    return np.array(rows, dtype=np.float64).reshape(len(shots), k)


def assert_bits_equal(got, want):
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@RNG_SETTINGS
@given(seed=seeds, path=paths, shots=shot_ranges, k=st.integers(0, 45))
def test_shot_uniforms_are_numpys_doubles_bit_for_bit(seed, path, shots, k):
    stream = RandomStream(seed, path)
    got = stream.shot_uniforms(shots, k)
    assert_bits_equal(got, reference_shot_uniforms(stream, shots, k))
    assert_bits_equal(got, numpy_rows(seed, path, shots, k))


@RNG_SETTINGS
@given(seed=seeds, path=paths, shots=st.integers(1, 120),
       k=st.integers(0, 9), cells=st.integers(1, 400))
def test_every_block_split_gives_the_same_rows(seed, path, shots, k, cells):
    stream = RandomStream(seed, path)
    want = reference_shot_uniforms(stream, range(shots), k)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statevector, "SHOT_BLOCK_CELLS", cells)
        blocks = statevector._shot_blocks(shots, 2 + k)
    got = np.concatenate([stream.shot_uniforms(b, k) for b in blocks])
    assert_bits_equal(got, want)


# a call of at most FEW keys is drawn key by key; a call of more keys by
# the vectorized pass
FEW = rng._FEW_KEYS


# the blocks the commands draw: tomography's 512 shots of 1 readout,
# converge's 39 draws, a two-qubit locker password's 78 (in blocks of 5 and
# of 1), two shots of two draws, the largest 39-draw block and a
# 1000-step box; 40 gives k one of each residue mod 4.  Then keys just
# below and just above FEW, with k not a multiple of 4 and with no draws,
# and no shots
@pytest.mark.parametrize("shots, k", [
    (512, 1), (128, 39), (5, 78), (1, 78), (2, 2), (1598, 39), (65, 1001),
    (33, 40), (FEW, 39), (FEW + 1, 39), (FEW, 0), (FEW + 1, 0), (0, 39)])
def test_command_sized_blocks_are_numpys_doubles(shots, k):
    seed, path, start = 2**63 - 25, (3,), 1000
    got = RandomStream(seed, path).shot_uniforms(range(start, start + shots),
                                                 k)
    assert_bits_equal(got, numpy_rows(seed, path,
                                      range(start, start + shots), k))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(keys=st.lists(stream_keys, min_size=1, max_size=4), shots=shot_ranges,
       k=st.sampled_from((0, 1, 5, 78)))
def test_many_streams_in_one_pass_are_each_streams_own(keys, shots, k):
    streams = [RandomStream(seed, path) for seed, path in keys]
    got = rng.shot_uniforms(streams, shots, k)
    assert got.shape == (len(streams), len(shots), k)
    for g, stream in enumerate(streams):
        assert_bits_equal(got[g], stream.shot_uniforms(shots, k))
        # a kernel step reads each stream's draw c as one contiguous row
        for c in range(k if shots else 0):
            assert got[g][:, c].flags.c_contiguous
    # and the (G * S, k) rows of one block, stream-major, as a view
    rows = got.reshape(len(streams) * len(shots), k)
    assert k == 0 or not shots or np.shares_memory(rows, got)
    for c in range(k if shots else 0):
        assert rows[:, c].flags.c_contiguous


def test_many_streams_are_numpys_doubles():
    streams = [RandomStream(2**200 + 3, (7, 2**33)), RandomStream(42),
               RandomStream(2**63 - 25, (3,))]
    # three streams of 3 shots, then of FEW // 3 and FEW // 3 + 1 shots
    # (keys just below and just above FEW), no draws and no shots
    for shots, k in ((range(2**32 - 7, 2**32, 3), 6), (range(FEW // 3), 6),
                     (range(FEW // 3 + 1), 6), (range(FEW // 3 + 1), 0),
                     (range(0), 5)):
        got = rng.shot_uniforms(streams, shots, k)
        for g, stream in enumerate(streams):
            assert_bits_equal(got[g], numpy_rows(stream.seed, stream.path,
                                                 shots, k))


@pytest.mark.parametrize("size", [0, 1, 2, 5, FEW, FEW + 1, 130])
@pytest.mark.parametrize("blocks", [0, 1, 2, 10, 70])
def test_both_philox_paths_give_the_same_bits(size, blocks):
    keys = np.random.default_rng(1000 * size + blocks).integers(
        0, 2**64, (2, size), dtype=np.uint64)
    # the extreme key words too
    keys[:, :2] = np.array([[0, 2**64 - 1], [2**64 - 1, 0]],
                           np.uint64)[:, :size]
    keyed = rng._keyed_doubles(keys, blocks)
    assert keyed.shape == (4 * blocks, size) and keyed.flags.c_contiguous
    assert_bits_equal(keyed, rng._philox_doubles(keys, blocks).reshape(
        4 * blocks, size))


@pytest.mark.parametrize("shots, k", [(1598, 39), (65, 1001), (6, 10001)])
def test_peak_memory_is_a_few_outputs(shots, k):
    stream = RandomStream(9001, (3,))
    tracemalloc.start()
    try:
        got = stream.shot_uniforms(range(shots), k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * got.nbytes


def test_pinned_doubles():
    rows = RandomStream(42).shot_uniforms(range(2), 5)
    assert [x.hex() for x in rows[0]] == [
        "0x1.c208e833d7a0cp-3", "0x1.d32461ea93e24p-2",
        "0x1.78ccc20390a98p-3", "0x1.c8ea9383e906cp-2",
        "0x1.8a0ccac29beb6p-2"]
    assert [x.hex() for x in rows[1]] == [
        "0x1.8bdaec636abfep-1", "0x1.b236a1d43f5fap-2",
        "0x1.d4b61cd7354c0p-7", "0x1.9365173ef6d16p-2",
        "0x1.f9c8d4e1baa46p-2"]
    # a 7-word seed, a two-word path entry and the largest one-word shot
    row, = RandomStream(2**200 + 3, (7, 2**33)).shot_uniforms(
        range(2**32 - 1, 2**32), 2)
    assert [x.hex() for x in row] == ["0x1.d723b57de84b8p-3",
                                      "0x1.3d5027b3d9a84p-3"]


def test_no_draws_and_no_shots_keep_their_shapes():
    stream = RandomStream(5)
    assert stream.shot_uniforms(range(3), 0).shape == (3, 0)
    assert stream.shot_uniforms(range(4, 4), 6).shape == (0, 6)


@pytest.mark.parametrize("shots", [
    range(2**32, 2**32 + 2),    # every index needs a second spawn-key word
    range(2**32 - 1, 2**32 + 1),
    range(-1, 1),
])
def test_shot_indices_outside_one_word_are_refused(shots):
    with pytest.raises(ValueError):
        RandomStream(5).shot_uniforms(shots, 3)


@pytest.mark.parametrize("seed", [1.5, 1.7, True, "7", np.float64(3)],
                         ids=["float", "float-up", "bool", "str",
                              "numpy-float"])
def test_a_seed_must_be_an_integer(seed):
    # truncated, 1.5, 1.7 and True would each draw seed 1's numbers
    with pytest.raises(TypeError, match=re.escape(
            f"seed must be an integer, got {seed!r}")):
        RandomStream(seed)


@pytest.mark.parametrize("index", [1.5, True, np.float64(1), "1"],
                         ids=["float", "bool", "numpy-float", "str"])
def test_a_substream_index_must_be_an_integer(index):
    for make in (lambda: RandomStream(5).substream(index),
                 lambda: RandomStream(5, (0, index))):
        with pytest.raises(TypeError, match=re.escape(
                f"a sub-stream index must be an integer, got {index!r}")):
            make()


def test_numpy_integer_seeds_and_indices_are_their_ints():
    stream = RandomStream(np.uint64(7), (np.int64(2),)).substream(np.int32(3))
    assert (stream.seed, stream.path) == (7, (2, 3))
    assert {type(v) for v in (stream.seed, *stream.path)} == {int}
    assert_bits_equal(stream.randoms(4),
                      RandomStream(7, (2, 3)).randoms(4))


def test_a_stream_builds_its_generator_on_its_first_draw():
    seed, path = 2**63 - 25, (3,)
    stream = RandomStream(seed, path)
    # neither a sub-stream nor a shot's draws advance the stream
    stream.substream(4).randoms(2)
    stream.shot_uniforms(range(5), 6)
    rng.shot_uniforms([RandomStream(1), stream], range(3), 2)
    assert stream._generator is None
    want = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        seed, spawn_key=path)))
    assert_bits_equal(stream.randoms(5), want.random(5))
    assert stream._generator is not None
    assert np.array_equal(stream.below(0.3, 7), want.random(7) < 0.3)
    assert stream.uniform(-1.0, 2.0).hex() == want.uniform(-1.0, 2.0).hex()
    assert stream.spawn_seed() == int(want.integers(0, 1 << 63))
    assert stream.random().hex() == float(want.random()).hex()


def assert_below_is_randoms_below(seed, path, p, size):
    """``below(p, size)`` gives ``randoms(size) < p`` bit for bit and leaves
    the stream where ``randoms`` leaves it."""
    got_stream, want_stream = RandomStream(seed, path), RandomStream(seed, path)
    got = got_stream.below(p, size)
    want = want_stream.randoms(size) < p
    assert got.dtype == bool and np.array_equal(got, want)
    assert got_stream.randoms(3).tolist() == want_stream.randoms(3).tolist()


@pytest.mark.parametrize("p", [
    -0.1, 0.0, 5e-324, 2.0**-53, 1.5 * 2.0**-53, 0.3,
    np.nextafter(1.0, 0.0), 1.0, 1.5])
@pytest.mark.parametrize("size", [0, 1, 7, 4096])
def test_below_is_randoms_below(p, size):
    assert_below_is_randoms_below(11, (2,), p, size)


def test_below_on_a_word_whose_double_is_p():
    # a raw word with its 11 low bits 0 sits exactly on the threshold of
    # its own double: that draw is not below p, and its word is not below
    # the threshold either
    words = RandomStream(11, (2,))._gen.bit_generator.random_raw(4096)
    on_threshold = words[words & 0x7FF == 0]
    assert len(on_threshold)
    for word in on_threshold:
        assert_below_is_randoms_below(11, (2,), int(word >> 11) * 2.0**-53,
                                      4096)


@RNG_SETTINGS
@given(seed=seeds, path=paths, size=st.integers(0, 300),
       p=st.one_of(st.floats(0.0, 1.0),
                   st.tuples(st.integers(0, 299), st.integers(-1, 1))))
def test_below_is_randoms_below_on_any_stream(seed, path, size, p):
    if isinstance(p, tuple):  # a stream's own draw, moved by -1 to 1 ulps
        (index, ulps), draws = p, RandomStream(seed, path).randoms(300)
        p = float(draws[index])
        if ulps:
            p = float(np.nextafter(p, ulps * np.inf))
    assert_below_is_randoms_below(seed, path, p, size)
