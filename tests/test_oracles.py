"""The Kraus verification box and the classical release against gate-level
oracles (``tests/oracles.py``) on the same sub-streams.

Outcomes, closing measurements, acceptance and retrieved bits must agree
exactly.  Each step of one box, run through the kernel on the state the
circuit holds before it, gives the circuit's click probability bit for bit.
The collapsed amplitudes agree to rounding: the closing z-measurement sums
the same probabilities over an n-qubit register instead of an (n+1)-qubit
one, which may group the additions differently.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qlocker as q
from qlocker import OtpParams, RandomStream, VerificationParams

from oracles import (ancilla_boxes, iterate_once, qubit_probabilities,
                     reference_unlock, weak_steps)

ORACLE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                           database=None)


def random_register(n: int, seed: int) -> q.StateVector:
    """Random n-qubit state; entangled for n >= 2 with probability 1."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return q.StateVector(n, v / np.linalg.norm(v))


def assert_same_trajectories(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.ancilla_outcomes == b.ancilla_outcomes
        assert a.final_system_outcome == b.final_system_outcome
        assert a.accepted == b.accepted


def assert_unlock_matches_oracle(bits, params, verification, password, seed):
    want = reference_unlock(bits, params, verification, password.copy(),
                            RandomStream(seed))
    locker = q.store_message(bits, params, verification)
    blanks = q.new_state(len(bits))
    got = q.attempt_unlock(locker, password, RandomStream(seed), blanks=blanks)
    accepted, retrieved, trajectories, finals = want
    assert got.accepted == accepted
    assert got.retrieved_bits == retrieved
    assert_same_trajectories(got.trajectories, trajectories)
    np.testing.assert_array_equal(password.amplitudes,
                                  q.basis_state(finals).amplitudes)
    np.testing.assert_array_equal(blanks.amplitudes,
                                  q.basis_state(retrieved).amplitudes)
    return accepted


messages = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, (1 << m) - 1).map(
        lambda v: format(v, f"0{m}b")))


@ORACLE_SETTINGS
@given(n=st.integers(1, 3), bits=messages,
       policy=st.sampled_from(q.verification.CLICK_POLICIES),
       theta=st.floats(0.05, 1.3), iterations=st.integers(0, 8),
       kind=st.sampled_from(("random", "correct")),
       seed=st.integers(0, 2**32 - 1))
def test_attempt_unlock_matches_gate_level_oracle(n, bits, policy, theta,
                                                  iterations, kind, seed):
    params = OtpParams.random(n, RandomStream(seed, (0,)))
    verification = VerificationParams(theta, iterations, policy)
    if kind == "correct":
        password = q.generate_otp(params)
    else:
        password = random_register(n, seed)
    assert_unlock_matches_oracle(bits, params, verification, password, seed)


def test_entangled_password_matches_oracle():
    # a Bell pair on the two password qubits: each box sees a qubit that is
    # maximally entangled with the other, so the boxes cannot be run apart
    bell = q.apply_gate(q.apply_gate(q.new_state(2), q.h(0)), q.cnot(0, 1))
    accepted = set()
    for policy in q.verification.CLICK_POLICIES:
        verification = VerificationParams(0.4, 6, policy)
        for i in range(60):
            params = OtpParams.random(2, RandomStream(90, (i,)))
            password = q.apply_rotation(bell.copy(), params)
            accepted.add(assert_unlock_matches_oracle(
                "1011", params, verification, password, 1000 + i))
    assert accepted == {True, False}


@ORACLE_SETTINGS
@given(n=st.integers(1, 3), data=st.data(), theta=st.floats(0.05, 1.3),
       iterations=st.integers(0, 8),
       policy=st.sampled_from(q.verification.CLICK_POLICIES),
       seed=st.integers(0, 2**32 - 1))
def test_run_box_matches_ancilla_circuit(n, data, theta, iterations, policy,
                                         seed):
    k = data.draw(st.integers(0, n - 1))
    state = random_register(n, seed)
    params = VerificationParams(theta, iterations, policy)
    traj, collapsed = q.run_box(state, k, params, RandomStream(seed))

    # the literal circuit: password qubits, one ancilla at index n, box on k
    reg = q.combine(state, q.new_state(1))
    (want,), ((inputs, want_p1),), _, reg = ancilla_boxes(
        reg, [k], params, RandomStream(seed))
    assert_same_trajectories([traj], [want])
    # every step of one box is the circuit's own arithmetic: the kernel's
    # step, on the state the circuit holds before each coupling and that
    # step's draw, gives the circuit's outcome and P(click) bit for bit
    # (across steps the two collapse to rounding, which may differ in the
    # last bit, so the box's own later P(click) need not be the circuit's)
    if len(inputs):  # a box of N = 0 has no step
        draws = RandomStream(seed).randoms(iterations + 1)
        clicks, p1, _ = weak_steps(inputs, k, theta,
                                   draws[:len(inputs), None])
        assert clicks[:, 0].tolist() == traj.ancilla_outcomes
        assert p1[:, 0].tolist() == want_p1
    np.testing.assert_allclose(collapsed.amplitudes,
                               reg.amplitudes[:1 << n], atol=1e-12)
    assert not np.any(reg.amplitudes[1 << n:])


@ORACLE_SETTINGS
@given(theta=st.floats(0.05, 1.3), seed=st.integers(0, 2**32 - 1))
def test_iterate_once_is_the_coupling_circuit_bit_for_bit(theta, seed):
    system = random_register(1, seed)
    outcome, state, p1 = iterate_once(
        system, VerificationParams(theta, 1), RandomStream(seed))

    joint = q.combine(system, q.new_state(1))
    joint = q.apply_gate(joint, q.build_controlled0_rx(theta, 0, 1))
    want_p1 = qubit_probabilities(joint, 1)[1]
    want, _, joint = q.measure_qubit(joint, 1, "z", RandomStream(seed))
    assert (outcome, p1) == (want, want_p1)
    np.testing.assert_array_equal(state.amplitudes,
                                  joint.amplitudes.reshape(2, 2)[want])
