import json
import math

import numpy as np
import pytest

import qlocker as q
from qlocker import CapacityError, Measurement, RandomStream, statevector
from qlocker.gates import HADAMARD, S_MATRIX
from conftest import random_qubit_state
from oracles import overlap, reference_sample_shots

ALPHA = math.cos(math.pi / 8)  # system preparation used across the suite
P0_SINGLE_ITERATION = 0.9663106718905499  # 1 - alpha^2 sin^2(0.2)


def single_iteration_ops(basis="z"):
    return [
        q.ry(math.pi / 4, 0),
        q.build_controlled0_rx(0.2, control=0, target=1),
        Measurement(1, basis),
    ]


class TestNewState:
    def test_one_qubit(self):
        np.testing.assert_array_equal(q.new_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        np.testing.assert_array_equal(q.new_state(2).amplitudes, [1, 0, 0, 0])

    def test_zero_qubits_rejected(self):
        with pytest.raises(CapacityError):
            q.new_state(0)

    def test_capacity_cap(self):
        # every check raises before it allocates a register of that width
        with pytest.raises(CapacityError):
            q.new_state(25)
        with pytest.raises(CapacityError):
            q.basis_state("0" * 25)
        with pytest.raises(CapacityError):
            q.StateVector(25, np.zeros(2))
        with pytest.raises(CapacityError):
            q.StateVector(0, np.zeros(1))


def test_malformed_states_are_rejected():
    with pytest.raises(ValueError, match=r"length \(2,\) does not match 2 "):
        q.StateVector(2, np.zeros(2))
    with pytest.raises(ValueError, match="bits must be 0/1, got '012'"):
        q.basis_state("012")
    with pytest.raises(ValueError,
                       match=r"factors of shape \(2, 3\) are not \(n, 2\)"):
        q.ProductState(np.zeros((2, 3)))


def test_basis_state_is_little_endian():
    state = q.basis_state("101")  # qubit0=1, qubit1=0, qubit2=1 -> index 5
    assert state.amplitudes[5] == 1.0
    assert np.vdot(state.amplitudes, state.amplitudes).real == 1.0


class TestApplyGate:
    def test_x_flips_zero(self):
        out = q.apply_gate(q.new_state(1), q.x(0))
        np.testing.assert_array_equal(out.amplitudes, [0, 1])

    def test_h_makes_plus(self):
        out = q.apply_gate(q.new_state(1), q.h(0))
        np.testing.assert_allclose(out.amplitudes,
                                   [1 / math.sqrt(2), 1 / math.sqrt(2)],
                                   atol=1e-15)

    def test_rx_on_zero(self):
        out = q.apply_gate(q.new_state(1), q.rx(0.4, 0))
        np.testing.assert_allclose(
            out.amplitudes,
            [0.9800665778412416, -0.19866933079506122j],
            atol=1e-12,
        )

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            q.apply_gate(q.new_state(1), q.x(1))
        with pytest.raises(IndexError):
            q.apply_gate(q.new_state(2), q.x(0, controls=((2, 1),)))

    def test_cnot_entangles(self):
        state = q.apply_gate(q.new_state(2), q.h(0))
        state = q.apply_gate(state, q.cnot(0, 1))
        np.testing.assert_allclose(
            state.amplitudes,
            np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15,
        )

    def test_multi_controlled_mixed_polarity(self):
        # fires only on control pattern q0=0, q1=1
        gate = q.x(2, controls=((0, 0), (1, 1)))
        fired = q.apply_gate(q.basis_state("010"), gate)
        np.testing.assert_array_equal(fired.amplitudes,
                                      q.basis_state("011").amplitudes)
        idle = q.apply_gate(q.basis_state("110"), gate)
        np.testing.assert_array_equal(idle.amplitudes,
                                      q.basis_state("110").amplitudes)


class TestMeasure:
    def test_one_eigenstate_in_z(self):
        outcome, prob, post = q.measure_qubit(
            q.basis_state("1"), 0, "z", RandomStream(0))
        assert outcome == 1 and prob == 1.0
        np.testing.assert_array_equal(post.amplitudes, [0, 1])

    def test_plus_eigenstate_in_x(self):
        plus = q.apply_gate(q.new_state(1), q.h(0))
        outcome, prob, post = q.measure_qubit(plus, 0, "x", RandomStream(1))
        assert outcome == 0
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert overlap(plus, post) == pytest.approx(1.0, abs=1e-12)

    def test_born_probability_value(self):
        state = q.StateVector(1, [ALPHA, math.sin(math.pi / 8)])
        outcome, prob, _ = q.measure_qubit(state, 0, "z", RandomStream(3))
        expected = ALPHA**2 if outcome == 0 else 1 - ALPHA**2
        assert prob == pytest.approx(expected, abs=1e-12)
        assert ALPHA**2 == pytest.approx(0.8535533905932737, abs=1e-15)

    def test_born_frequencies(self):
        state = q.StateVector(1, [ALPHA, math.sin(math.pi / 8)])
        root = RandomStream(11)
        ones = sum(
            q.measure_qubit(state, 0, "z", root.substream(i))[0]
            for i in range(4000)
        )
        p1 = 1 - ALPHA**2
        assert abs(ones / 4000 - p1) < 4 * math.sqrt(p1 * (1 - p1) / 4000)

    def test_y_basis_round_trip_preserves_eigenstate(self):
        plus_i = q.StateVector(1, np.array([1, 1j]) / math.sqrt(2))
        outcome, prob, post = q.measure_qubit(plus_i, 0, "y", RandomStream(5))
        assert outcome == 0 and prob == pytest.approx(1.0, abs=1e-12)
        assert overlap(plus_i, post) == pytest.approx(1.0, abs=1e-12)

    def test_y_readout_is_decided_in_one_place(self, monkeypatch):
        # reading y through S then H instead of S-dagger then H is one
        # edit of _ROTATIONS: the readout flips, the rotation back follows
        # it, and each eigenstate still comes back as it went in
        prepared = q.new_state(2)
        for gate in single_iteration_ops()[:2]:
            prepared = q.apply_gate(prepared, gate)

        def y_p0():
            outcome, prob, _ = q.measure_qubit(prepared, 1, "y",
                                               RandomStream(5))
            return 1 - prob if outcome else prob

        sin_2theta = ALPHA**2 * math.sin(0.4)
        assert y_p0() == pytest.approx((1 - sin_2theta) / 2, abs=1e-12)
        monkeypatch.setitem(statevector._ROTATIONS, "y", HADAMARD @ S_MATRIX)
        for bit, amps in ((1, [1, 1j]), (0, [1, -1j])):
            state = q.StateVector(1, np.array(amps) / math.sqrt(2))
            outcome, prob, post = q.measure_qubit(state, 0, "y",
                                                  RandomStream(5))
            assert outcome == bit and prob == pytest.approx(1.0, abs=1e-12)
            assert overlap(state, post) == pytest.approx(1.0, abs=1e-12)
        assert y_p0() == pytest.approx((1 + sin_2theta) / 2, abs=1e-12)
        assert y_p0() == pytest.approx(0.66619, abs=1e-5)

    def test_bad_basis(self):
        with pytest.raises(ValueError):
            q.measure_qubit(q.new_state(1), 0, "w", RandomStream(0))

    @pytest.mark.parametrize("basis", "xyz")
    def test_qubit_out_of_range_draws_nothing(self, basis):
        # the index is checked before the uniform is drawn, in every basis
        rng = RandomStream(6)
        with pytest.raises(IndexError, match="qubit 3 out of range"):
            q.measure_qubit(q.new_state(1), 3, basis, rng)
        assert rng.random() == RandomStream(6).random()

    @pytest.mark.parametrize("basis", "xyz")
    def test_all_zero_register_underflows(self, basis):
        empty = q.StateVector(2, np.zeros(4))
        with pytest.raises(FloatingPointError):
            q.measure_qubit(empty, 1, basis, RandomStream(0))

    def test_underflow_is_both_probabilities_below_1e_15(self):
        tiny = q.StateVector(1, np.sqrt([0.9e-15, 0.8e-15]))
        with pytest.raises(FloatingPointError):
            q.measure_qubit(tiny, 0, "z", RandomStream(0))
        small = q.StateVector(1, np.sqrt([1.1e-15, 0.8e-15]))
        outcome, prob, post = q.measure_qubit(small, 0, "z", RandomStream(0))
        assert np.vdot(post.amplitudes, post.amplitudes).real == pytest.approx(
            1.0)


def _random_gate(rng, n_qubits):
    kind = rng.integers(0, 8)
    target = int(rng.integers(0, n_qubits))
    others = [v for v in range(n_qubits) if v != target]
    controls = ()
    if kind >= 6 and others and rng.random() < 0.5:
        ctrl = int(rng.choice(others))
        controls = ((ctrl, int(rng.integers(0, 2))),)
    angle = float(rng.uniform(-math.pi, math.pi))
    builders = [
        lambda: q.x(target, controls),
        lambda: q.h(target, controls),
        lambda: q.s(target, controls),
        lambda: q.sdg(target, controls),
        lambda: q.rx(angle, target, controls),
        lambda: q.ry(angle, target, controls),
        lambda: q.rz(angle, target, controls),
        lambda: q.x(target, controls),
    ]
    return builders[kind]()


def test_norm_preserved_over_random_circuits():
    rng = np.random.default_rng(321)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        v /= np.linalg.norm(v)
        state = q.StateVector(n, v)
        for _ in range(30):
            state = q.apply_gate(state, _random_gate(rng, n))
        norm_sq = np.vdot(state.amplitudes, state.amplitudes).real
        assert abs(norm_sq - 1.0) < 1e-9


class TestSampleShots:
    def test_fair_coin(self):
        hist = q.sample_shots(1, [q.h(0), Measurement(0)], 8192, seed=7)
        sigma = math.sqrt(8192 * 0.25)
        assert abs(hist.counts.get("0", 0) - 4096) <= 3 * sigma

    def test_zero_state_always_zero(self):
        hist = q.sample_shots(1, [Measurement(0)], 500, seed=1)
        assert hist.counts == {"0": 500}

    def test_single_iteration_statistics(self):
        hist = q.sample_shots(2, single_iteration_ops("z"), 2048, seed=42)
        band = 3 * math.sqrt(P0_SINGLE_ITERATION * (1 - P0_SINGLE_ITERATION) / 2048)
        assert abs(hist.probability("0") - P0_SINGLE_ITERATION) <= band

    def test_deterministic_for_same_seed(self):
        ops = single_iteration_ops("y")
        a = q.sample_shots(2, ops, 400, seed=99)
        b = q.sample_shots(2, ops, 400, seed=99)
        assert a == b
        c = q.sample_shots(2, ops, 400, seed=100)
        assert a != c

    def test_shot_order_independence(self):
        # running the per-shot sub-streams one at a time, in reverse, must
        # give the same histogram sample_shots produced
        ops = single_iteration_ops("x")
        hist = q.sample_shots(2, ops, 128, seed=5)
        counts = reference_sample_shots(2, ops, 128, 5,
                                        order=reversed(range(128)))
        assert counts == hist.counts

    def test_interleaved_measurements(self):
        ops = [q.h(0), Measurement(0), q.cnot(0, 1), Measurement(1)]
        hist = q.sample_shots(2, ops, 600, seed=3)
        assert set(hist.counts) <= {"00", "11"}

    @pytest.mark.parametrize("ops", [
        [q.h(0), Measurement(0)],  # the first readout ends the circuit
        [q.h(0), Measurement(0), q.x(0), Measurement(0)],
    ])
    def test_counts_are_ints_on_either_path(self, ops):
        hist = q.sample_shots(1, ops, 100, seed=7)
        assert all(type(c) is int for c in hist.counts.values())
        assert type(hist.probability(next(iter(hist.counts)))) is float
        assert json.loads(json.dumps(hist.counts)) == hist.counts

    @pytest.mark.parametrize("shots", [10.0, True, np.float64(10), "10"],
                             ids=["float", "bool", "numpy-float", "str"])
    def test_shots_must_be_an_integer(self, shots):
        with pytest.raises(TypeError, match="shots must be an integer"):
            q.sample_shots(1, [q.h(0), Measurement(0)], shots, seed=7)

    @pytest.mark.parametrize("seed", [3.2, True, np.float64(3)],
                             ids=["float", "bool", "numpy-float"])
    def test_seed_must_be_an_integer(self, seed):
        # a truncated seed would sample seed 3's (or 1's) shots unasked
        with pytest.raises(TypeError, match="seed must be an integer"):
            q.sample_shots(1, [q.h(0), Measurement(0)], 100, seed)

    def test_numpy_integer_shots_sample(self):
        ops = [q.h(0), Measurement(0)]
        assert q.sample_shots(1, ops, np.int64(10), seed=7).counts == \
            q.sample_shots(1, ops, 10, seed=7).counts

    def test_rejects_bad_ops(self):
        with pytest.raises(TypeError):
            q.sample_shots(1, ["measure"], 10, seed=0)
        with pytest.raises(ValueError):
            q.sample_shots(1, [Measurement(0)], 0, seed=0)


def test_counts_histogram_checks_total():
    with pytest.raises(ValueError):
        q.CountsHistogram(shots=3, counts={"0": 1, "1": 1})


def test_random_stream_reproducibility():
    a = RandomStream(1234)
    b = RandomStream(1234)
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
    child_a = RandomStream(1234).substream(3)
    child_b = RandomStream(1234).substream(3)
    assert child_a.random() == child_b.random()
    assert RandomStream(1234).substream(4).random() != child_b.random()


def test_shot_uniforms_are_each_sub_streams_first_draws():
    root = RandomStream(77, (2,))
    rows = root.shot_uniforms(range(5, 9), 6)
    assert rows.shape == (4, 6)
    for row, shot in zip(rows, range(5, 9)):
        sub = root.substream(shot)
        assert row.tolist() == [sub.random() for _ in range(6)]
    # the stream itself does not advance
    assert root.random() == RandomStream(77, (2,)).random()


def test_overlap_and_combine(np_rng):
    a = random_qubit_state(np_rng)
    assert overlap(a, a) == pytest.approx(1.0, abs=1e-12)
    joint = q.combine(a, q.basis_state("1"))
    assert joint.n_qubits == 2
    np.testing.assert_allclose(joint.amplitudes[2:], a.amplitudes, atol=1e-15)
    np.testing.assert_allclose(joint.amplitudes[:2], 0, atol=1e-15)


def test_combine_enforces_the_cap_before_allocating():
    # 13 + 12 qubits are two small registers whose product would be 512 MiB
    with pytest.raises(CapacityError):
        q.combine(q.new_state(13), q.new_state(12))
    assert q.combine(q.new_state(2), q.new_state(3)).n_qubits == 5
