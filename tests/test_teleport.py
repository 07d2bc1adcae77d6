import math

import numpy as np
import pytest

import qlocker as q
from qlocker import ChannelConsumedError, Measurement, RandomStream
from conftest import random_qubit_state
from oracles import enumerate_teleport_branches, overlap


def test_bell_pair_amplitudes():
    pair = q.make_bell_pair()
    np.testing.assert_allclose(
        pair.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15)


def test_channels_share_one_read_only_pair():
    # every channel reads the pair built at import; make_bell_pair still
    # gives a fresh state that may be written
    first, second = q.open_channel(), q.open_channel()
    assert first.pair is second.pair
    with pytest.raises(ValueError, match="read-only"):
        first.pair.amplitudes[0] = 0.0
    fresh = q.make_bell_pair()
    assert fresh.amplitudes.tobytes() == first.pair.amplitudes.tobytes()
    fresh.amplitudes[0] = 0.0
    assert q.make_bell_pair().amplitudes[0] != 0.0
    # a teleport reads the pair and leaves it as it was
    q.teleport(q.basis_state("1"), first, RandomStream(5))
    assert second.pair.amplitudes.tobytes() == \
        q.make_bell_pair().amplitudes.tobytes()


def test_bell_pair_outcomes_always_agree():
    ops = [q.h(0), q.cnot(0, 1), Measurement(0), Measurement(1)]
    hist = q.sample_shots(2, ops, 8192, seed=21)
    assert set(hist.counts) <= {"00", "11"}
    sigma = math.sqrt(8192 * 0.25)
    assert abs(hist.counts.get("00", 0) - 4096) <= 3 * sigma


def test_teleport_computational_states():
    for bits in ("0", "1"):
        record, received = q.teleport(
            q.basis_state(bits), q.open_channel(), RandomStream(3))
        assert overlap(q.basis_state(bits), received) == pytest.approx(
            1.0, abs=1e-12)


def test_teleport_plus_state():
    plus = q.apply_gate(q.new_state(1), q.h(0))
    _, received = q.teleport(plus.copy(), q.open_channel(), RandomStream(4))
    assert overlap(plus, received) == pytest.approx(1.0, abs=1e-12)


def test_teleport_rotated_state_all_branches():
    params = q.OtpParams(((0.7, -1.2, 2.5),))
    psi = q.generate_otp(params)
    branches = enumerate_teleport_branches(psi)
    assert set(branches) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    for prob, received in branches.values():
        assert prob == pytest.approx(0.25, abs=1e-12)
        assert overlap(psi, received) == pytest.approx(1.0, abs=1e-12)


def test_random_states_fidelity_one(np_rng):
    root = RandomStream(31)
    for i in range(100):
        psi = random_qubit_state(np_rng)
        _, received = q.teleport(psi.copy(), q.open_channel(),
                                 root.substream(i))
        assert overlap(psi, received) == pytest.approx(1.0, abs=1e-12)


def test_branch_uniformity_sampled():
    plus = q.apply_gate(q.new_state(1), q.h(0))
    root = RandomStream(32)
    counts = {b: 0 for b in ((0, 0), (0, 1), (1, 0), (1, 1))}
    runs = 10_000
    for i in range(runs):
        record, _ = q.teleport(plus.copy(), q.open_channel(),
                               root.substream(i))
        counts[record.classical_bits] += 1
    band = 4 * math.sqrt(0.25 * 0.75 / runs)
    for tallied in counts.values():
        assert abs(tallied / runs - 0.25) < band


def test_channel_is_single_use():
    channel = q.open_channel()
    q.teleport(q.new_state(1), channel, RandomStream(5))
    # a second use raises before it draws, so the stream's next doubles
    # are still its first
    stream = RandomStream(6)
    with pytest.raises(ChannelConsumedError):
        q.teleport(q.new_state(1), channel, stream)
    assert stream.randoms(2).tobytes() == \
        RandomStream(6).randoms(2).tobytes()


def test_source_state_is_destroyed(np_rng):
    psi = random_qubit_state(np_rng)
    record, _ = q.teleport(psi, q.open_channel(), RandomStream(7))
    # the source register now holds the measured eigenstate
    m1 = record.classical_bits[0]
    np.testing.assert_array_equal(psi.amplitudes,
                                  q.basis_state(str(m1)).amplitudes)


def test_record_line_format():
    record = q.TeleportRecord("ch000009", (1, 0))
    assert record.record_line() == "ch000009,1,0"


def test_teleport_rejects_multi_qubit_payload():
    with pytest.raises(ValueError):
        q.teleport(q.new_state(2), q.open_channel(), RandomStream(8))
