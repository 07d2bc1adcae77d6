import gc
import itertools
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

import qlocker as q
from qlocker import (
    InvalidMessageError,
    OtpParams,
    PasswordConsumedError,
    RandomStream,
    VerificationParams,
)
from qlocker.statevector import _parts

from conftest import accepted_mass
from oracles import (otp_consumed_check, phase_aligned_distance,
                     qubit_probabilities, reference_rotation,
                     reference_unlocks)


def rotation_oracle(t1: float, t2: float, t3: float) -> np.ndarray:
    """Explicit 2x2 chain Rz(t3) Ry(t2) Rx(t1), independent of gate plumbing."""
    def rxm(a):
        c, s = math.cos(a / 2), math.sin(a / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])

    def rym(a):
        c, s = math.cos(a / 2), math.sin(a / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)

    def rzm(a):
        return np.diag([np.exp(-1j * a / 2), np.exp(1j * a / 2)])

    return rzm(t3) @ rym(t2) @ rxm(t1)


SMALL = VerificationParams(theta=0.15, iterations=4)


class TestOtpParams:
    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            OtpParams(((0.1, 4.0, 0.0),))
        with pytest.raises(ValueError):
            OtpParams(())

    def test_random_within_bounds(self):
        params = OtpParams.random(4, RandomStream(1))
        assert params.n_qubits == 4
        for triple in params.triples:
            assert all(-math.pi <= a <= math.pi for a in triple)

    def test_digest_is_stable_and_secretless(self):
        params = OtpParams(((0.25, -1.0, 3.0),))
        digest = params.digest()
        assert digest == OtpParams(((0.25, -1.0, 3.0),)).digest()
        assert digest != OtpParams(((0.26, -1.0, 3.0),)).digest()
        assert "0.25" not in digest


class TestStoreMessage:
    def test_all_zero_rejected(self):
        with pytest.raises(InvalidMessageError):
            q.store_message("000", OtpParams.random(1, RandomStream(2)))

    def test_single_bit_message(self):
        locker = q.store_message("1", OtpParams.random(1, RandomStream(2)))
        assert locker.m_bits == 1

    def test_non_binary_rejected(self):
        with pytest.raises(InvalidMessageError):
            q.store_message("10a", OtpParams.random(1, RandomStream(2)))
        with pytest.raises(InvalidMessageError):
            q.store_message("", OtpParams.random(1, RandomStream(2)))


class TestOtpGeneration:
    def test_zero_angles_give_zero_state(self):
        otp = q.generate_otp(OtpParams(((0.0, 0.0, 0.0),)))
        assert phase_aligned_distance(np.array([1, 0], dtype=complex),
                                        otp.amplitudes) < 1e-15

    def test_pi_y_rotation_gives_one_state(self):
        otp = q.generate_otp(OtpParams(((0.0, math.pi, 0.0),)))
        assert phase_aligned_distance(np.array([0, 1], dtype=complex),
                                        otp.amplitudes) < 1e-15

    def test_matches_matrix_chain_oracle(self):
        otp = q.generate_otp(OtpParams(((0.7, -1.2, 2.5),)))
        expected = rotation_oracle(0.7, -1.2, 2.5) @ np.array([1, 0])
        np.testing.assert_allclose(otp.amplitudes, expected, atol=1e-14)

    def test_multi_qubit_product(self):
        triples = ((0.7, -1.2, 2.5), (0.1, 0.2, -0.3))
        otp = q.generate_otp(OtpParams(triples))
        single0 = rotation_oracle(*triples[0]) @ np.array([1, 0])
        single1 = rotation_oracle(*triples[1]) @ np.array([1, 0])
        np.testing.assert_allclose(otp.amplitudes, np.kron(single1, single0),
                                   atol=1e-14)


class TestInverseRotation:
    def test_round_trip_restores_zero(self):
        root = RandomStream(44)
        for i in range(100):
            params = OtpParams.random(2, root.substream(i))
            state = q.apply_inverse_rotation(q.generate_otp(params), params)
            zero = np.zeros(4, dtype=complex)
            zero[0] = 1.0
            assert phase_aligned_distance(zero, state.amplitudes) < 1e-12

    def test_zero_params_are_identity(self):
        params = OtpParams(((0.0, 0.0, 0.0),))
        state = q.StateVector(1, np.array([0.6, 0.8j]))
        out = q.apply_inverse_rotation(state, params)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_dual_state_overlap_bookkeeping(self):
        params = OtpParams(((0.7, -1.2, 2.5),))
        dual = q.apply_inverse_rotation(q.new_state(1), params)
        forward = rotation_oracle(0.7, -1.2, 2.5) @ np.array([1, 0])
        assert qubit_probabilities(dual, 0)[0] == pytest.approx(
            abs(forward[0]) ** 2, abs=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            q.apply_inverse_rotation(q.new_state(2),
                                     OtpParams(((0.0, 0.1, 0.2),)))

    @pytest.mark.parametrize("form,n", [("product", n) for n in range(1, 25)]
                             + [("register", n) for n in range(1, 7)])
    def test_per_part_gates_are_the_per_qubit_loop(self, form, n):
        # bit for bit what one qubit at a time gives: a product's gates run
        # as three kernel calls with one entry per factor, a register's as
        # three per qubit
        rng = np.random.default_rng(3000 + n)
        params = OtpParams.random(n, RandomStream(3000 + n))
        if form == "product":
            factors = rng.normal(size=(n, 2, 2)) @ [1, 1j]
            state = q.ProductState(factors / np.linalg.norm(
                factors, axis=1)[:, None])
        else:
            amps = rng.normal(size=(1 << n, 2)) @ [1, 1j]
            state = q.StateVector(n, amps / np.linalg.norm(amps))
        before = _parts(state).tobytes()
        for inverse, rotate in ((False, q.apply_rotation),
                                (True, q.apply_inverse_rotation)):
            got = rotate(state, params)
            assert type(got) is type(state)
            assert _parts(got).tobytes() == _parts(
                reference_rotation(state, params, inverse)).tobytes()
        assert _parts(state).tobytes() == before


# every (theta1, theta2, theta3) of the edge angles, -0.0 among them for
# its signed zeros
EDGE_TRIPLES = list(itertools.product((0.0, -0.0, math.pi, -math.pi),
                                      repeat=3))


def rotation_params(n: int, angles: str) -> OtpParams:
    """n triples of edge angles spread over ``EDGE_TRIPLES``, or random."""
    if angles == "random":
        return OtpParams.random(n, RandomStream(4000 + n))
    return OtpParams(tuple(EDGE_TRIPLES[(q * 29) % len(EDGE_TRIPLES)]
                           for q in range(n)))


def random_password(form: str, n: int):
    rng = np.random.default_rng(5000 + n)
    if form == "product":
        factors = rng.normal(size=(n, 2, 2)) @ [1, 1j]
        return q.ProductState(factors / np.linalg.norm(factors, axis=1)[
            :, None])
    amps = rng.normal(size=(1 << n, 2)) @ [1, 1j]
    return q.StateVector(n, amps / np.linalg.norm(amps))


def constructor_matrices(triple, direction: int) -> list[bytes]:
    """Qubit's R (``direction`` 1) or R^-1 (-1) as the bytes of the gate
    constructors' own matrices, in the order they are applied."""
    return [gate(direction * angle, 0).matrix.tobytes() for gate, angle
            in zip((q.rx, q.ry, q.rz), triple)][::direction]


class TestRotationArray:
    """R and R^-1 read each qubit's matrices off one array: each entry is
    the matching constructor's matrix, bit for bit, a product runs three
    kernel calls and builds three gate objects, and a register one
    ``apply_gate`` per qubit and gate."""

    @staticmethod
    def spied_pass(state, params, direction, spied):
        """``direction``'s pass on ``state``, with every call of
        ``qlocker.locker``'s ``spied`` kernel recorded as ``(target,
        matrix, controls)``, and the number of gate objects built."""
        calls, built = [], []
        kernel = getattr(q.locker, spied)
        post_init = q.GateOp.__post_init__

        def spy(amps, gate):
            calls.append((gate.target, np.array(gate.matrix),
                          gate.controls))
            return kernel(amps, gate)

        def counting(gate):
            built.append(gate)
            post_init(gate)

        rotate = {1: q.apply_rotation, -1: q.apply_inverse_rotation}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(q.locker, spied, spy)
            mp.setattr(q.GateOp, "__post_init__", counting)
            got = rotate[direction](state, params)
        return got, calls, len(built)

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("angles", ["edge", "random"])
    @pytest.mark.parametrize("n", [1, 2, 24])
    def test_product_gates_are_the_constructor_matrices(self, n, angles,
                                                        direction):
        params = rotation_params(n, angles)
        state = random_password("product", n)
        got, calls, built = self.spied_pass(state, params, direction,
                                            "_gate_rows")
        # three kernel calls and three gate objects, whatever n is
        assert len(calls) == 3 and built == 3
        want = [constructor_matrices(t, direction) for t in params.triples]
        for g, (target, matrix, controls) in enumerate(calls):
            assert (target, controls, matrix.shape) == (0, (), (2, 2, n))
            assert matrix.dtype == np.complex128
            assert [matrix[:, :, part].tobytes() for part in range(n)] == \
                [qubit[g] for qubit in want]
        assert type(got) is q.ProductState
        assert _parts(got).tobytes() == _parts(
            reference_rotation(state, params, direction == -1)).tobytes()

    @pytest.mark.parametrize("direction", [1, -1])
    @pytest.mark.parametrize("angles", ["edge", "random"])
    def test_register_gates_are_the_constructor_matrices(self, angles,
                                                         direction):
        params = rotation_params(3, angles)
        state = random_password("register", 3)
        got, calls, built = self.spied_pass(state, params, direction,
                                            "apply_gate")
        # one apply_gate per qubit and gate, on qubit q of the one part
        assert built == len(calls) == 9
        want = [(k, matrix, ()) for k, triple in enumerate(params.triples)
                for matrix in constructor_matrices(triple, direction)]
        assert [(target, matrix.tobytes(), controls)
                for target, matrix, controls in calls] == want
        assert type(got) is q.StateVector
        assert got.amplitudes.tobytes() == reference_rotation(
            state, params, direction == -1).amplitudes.tobytes()

    def test_edge_triples_hold_signed_zeros(self):
        # the byte checks above see the sign of a zero entry: R^-1 at
        # angle 0 and R at angle -0.0 give Rx a -0.0 sine, which R at 0
        # does not
        plus, minus = (q.rx(a, 0).matrix.tobytes() for a in (0.0, -0.0))
        assert plus != minus
        params = rotation_params(24, "edge")
        assert {0.0, math.pi, -math.pi} <= {
            a for t in params.triples for a in t}
        assert any(math.copysign(1, a) < 0 for t in params.triples
                   for a in t if a == 0)


class TestUnlock:
    def test_correct_password_retrieves_message(self):
        root = RandomStream(50)
        for i in range(20):
            params = OtpParams.random(2, root.substream(2 * i))
            locker = q.store_message("1011", params, SMALL)
            result = q.attempt_unlock(locker, q.generate_otp(params),
                                      root.substream(2 * i + 1))
            assert result.accepted
            assert result.retrieved_bits == "1011"
            assert all(t.final_system_outcome == 0 for t in result.trajectories)

    def test_orthogonal_password_rejected(self):
        root = RandomStream(51)
        params = OtpParams.random(3, root.substream(0))
        locker = q.store_message("110", params, SMALL)
        # qubit 1 lands exactly on |1> after the inverse rotation
        probe = q.apply_rotation(q.basis_state("010"), params)
        result = q.attempt_unlock(locker, probe, root.substream(1))
        assert not result.accepted
        assert result.retrieved_bits == "000"
        assert result.trajectories[1].final_system_outcome == 1

    def test_width_mismatch(self):
        params = OtpParams.random(2, RandomStream(52))
        locker = q.store_message("10", params, SMALL)
        with pytest.raises(ValueError):
            q.attempt_unlock(locker, q.new_state(1), RandomStream(53))

    @pytest.mark.parametrize("policy", q.verification.CLICK_POLICIES)
    def test_all_zero_register_releases_nothing(self, policy):
        # every box step refuses a register whose outcome probabilities
        # both underflow, so an empty register cannot unlock the message
        params = OtpParams.random(2, RandomStream(56))
        locker = q.store_message("1011", params,
                                 VerificationParams(0.1, 38, policy))
        blanks = q.new_state(4)
        with pytest.raises(FloatingPointError):
            q.attempt_unlock(locker, q.StateVector(2, np.zeros(4)),
                             RandomStream(57), blanks=blanks)
        np.testing.assert_array_equal(blanks.amplitudes,
                                      q.new_state(4).amplitudes)

    @pytest.mark.parametrize("policy", q.verification.CLICK_POLICIES)
    def test_all_zero_probe_releases_nothing(self, policy):
        params = OtpParams.random(2, RandomStream(56))
        locker = q.store_message("1011", params,
                                 VerificationParams(0.1, 38, policy))
        with pytest.raises(FloatingPointError):
            q.attempt_unlocks(locker, q.StateVector(2, np.zeros(4)),
                              RandomStream(57), range(1, 20))

    def test_probe_copies_leave_the_probe_alone(self):
        params = OtpParams.random(2, RandomStream(71))
        locker = q.store_message("10", params, SMALL)
        probe = q.apply_rotation(q.apply_gate(q.new_state(2), q.h(0)),
                                 params)
        before = probe.amplitudes.copy()
        accepted, last, _ = q.attempt_unlocks(locker, probe,
                                              RandomStream(72), range(5))
        assert accepted.shape == (5,)
        np.testing.assert_array_equal(probe.amplitudes, before)
        assert len(locker.consumed_passwords) == 0
        # an unregistered probe may be presented again, with the same draws
        again, again_last, _ = q.attempt_unlocks(locker, probe,
                                                 RandomStream(72), range(5))
        assert again.tolist() == accepted.tolist() and again_last == last

    def test_consumed_probe_is_refused(self):
        params = OtpParams.random(1, RandomStream(73))
        locker = q.store_message("1", params, SMALL)
        otp = q.generate_otp(params)
        q.attempt_unlock(locker, otp, RandomStream(74))
        with pytest.raises(PasswordConsumedError):
            q.attempt_unlocks(locker, otp, RandomStream(75), range(3))
        with pytest.raises(ValueError):
            q.attempt_unlocks(locker, q.new_state(2), RandomStream(75),
                              range(3))

    def test_no_shots_is_refused(self):
        params = OtpParams.random(1, RandomStream(73))
        locker = q.store_message("1", params, SMALL)
        with pytest.raises(ValueError, match="shot"):
            q.attempt_unlocks(locker, q.generate_otp(params),
                              RandomStream(75), range(4, 4))

    @pytest.mark.parametrize("shots", [range(-1, 2),
                                       range(2**32, 2**32 + 1)])
    def test_bad_shots_leave_the_presented_password_alone(self, shots):
        # the shot range is checked before the password is presented: it
        # is not registered, its rng does not draw and it is not collapsed
        params = OtpParams.random(2, RandomStream(78))
        locker = q.store_message("1", params, SMALL)
        password = q.generate_otp(params)
        before = _parts(password).tobytes()
        rng = RandomStream(79)
        with pytest.raises(ValueError, match=r"2\*\*32"):
            q.attempt_unlocks(locker, q.generate_otp(params),
                              RandomStream(80), shots,
                              first=(password, rng))
        assert len(locker.consumed_passwords) == 0
        assert rng.random() == RandomStream(79).random()
        assert _parts(password).tobytes() == before
        q.attempt_unlock(locker, password, RandomStream(81))

    @pytest.mark.parametrize("copies", [1, 500])
    def test_many_copies_build_one_result(self, copies):
        # only the last copy's result is built: n trajectories whatever the
        # number of copies; every copy's acceptance is the accept array
        params = OtpParams.random(3, RandomStream(76))
        locker = q.store_message("101", params, SMALL)
        probe = q.apply_rotation(q.apply_gate(q.new_state(3), q.h(1)),
                                 params)
        want = reference_unlocks(locker, probe, RandomStream(77),
                                 range(copies))
        built = []

        class CountingTrajectory(q.Trajectory):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(q.verification, "Trajectory", CountingTrajectory)
            accepted, last, _ = q.attempt_unlocks(
                locker, probe, RandomStream(77), range(copies))
        assert len(built) == 3
        assert accepted.tolist() == [w.accepted for w in want]
        assert [vars(t) for t in last.trajectories] == \
            [vars(t) for t in want[-1].trajectories]
        assert (last.accepted, last.retrieved_bits) == \
            (want[-1].accepted, want[-1].retrieved_bits)
        assert 0 < np.count_nonzero(accepted) < copies or copies == 1

    def test_blanks_must_be_zero(self):
        params = OtpParams.random(1, RandomStream(54))
        locker = q.store_message("10", params, SMALL)
        dirty = q.basis_state("01")
        with pytest.raises(ValueError):
            q.attempt_unlock(locker, q.generate_otp(params), RandomStream(55),
                             blanks=dirty)
        with pytest.raises(ValueError):
            q.attempt_unlock(locker, q.generate_otp(params), RandomStream(55),
                             blanks=q.new_state(1))

    def test_blanks_receive_message(self):
        params = OtpParams.random(1, RandomStream(56))
        locker = q.store_message("11", params, SMALL)
        blanks = q.new_state(2)
        result = q.attempt_unlock(locker, q.generate_otp(params),
                                  RandomStream(57), blanks=blanks)
        assert result.retrieved_bits == "11"
        np.testing.assert_array_equal(blanks.amplitudes,
                                      q.basis_state("11").amplitudes)

    def test_register_reuse_rejected(self):
        params = OtpParams.random(1, RandomStream(58))
        locker = q.store_message("1", params, SMALL)
        otp = q.generate_otp(params)
        q.attempt_unlock(locker, otp, RandomStream(59))
        with pytest.raises(PasswordConsumedError):
            q.attempt_unlock(locker, otp, RandomStream(60))

    def test_consumed_registers_are_held_weakly(self):
        params = OtpParams.random(1, RandomStream(64))
        locker = q.store_message("1", params, SMALL)
        kept = q.generate_otp(params)
        dropped = q.generate_otp(params)
        q.attempt_unlock(locker, kept, RandomStream(65))
        q.attempt_unlock(locker, dropped, RandomStream(66))
        ref = weakref.ref(dropped)
        del dropped
        gc.collect()
        assert ref() is None
        assert len(locker.consumed_passwords) == 1
        # the live register is still refused
        with pytest.raises(PasswordConsumedError):
            q.attempt_unlock(locker, kept, RandomStream(67))

    def test_collapsed_copy_replays_per_eigenstate(self):
        params = OtpParams.random(1, RandomStream(61))
        locker = q.store_message("1", params, SMALL)
        otp = q.generate_otp(params)
        q.attempt_unlock(locker, otp, RandomStream(62))
        # fresh register carrying the collapsed state: behaves as |0> or |1>
        replay = otp.copy()
        bit = int(abs(replay.amplitudes[1]) > 0.5)
        expected_accept = q.acceptance_probability(
            1.0 - bit, VerificationParams(SMALL.theta, SMALL.iterations))
        result = q.attempt_unlock(locker, q.apply_rotation(replay, params),
                                  RandomStream(63))
        assert float(result.accepted) == expected_accept

    def test_wrong_password_acceptance_law(self):
        # per-qubit overlaps multiply; the record law fixes the per-qubit law
        overlap = 0.25
        angle = 2 * math.acos(math.sqrt(overlap))
        phi = q.apply_gate(q.new_state(1), q.ry(angle, 0))
        per_qubit = accepted_mass(abs(phi.amplitudes[0]) ** 2, SMALL)
        assert per_qubit == pytest.approx(overlap, abs=1e-12)

        params = OtpParams.random(2, RandomStream(64))
        locker = q.store_message("101", params, SMALL)
        probe_base = q.apply_gate(q.new_state(2), q.ry(angle, 0))
        probe_base = q.apply_gate(probe_base, q.ry(angle, 1))
        root = RandomStream(65)
        runs, hits = 3000, 0
        for i in range(runs):
            probe = q.apply_rotation(probe_base.copy(), params)
            result = q.attempt_unlock(locker, probe, root.substream(i))
            hits += result.accepted
            assert result.retrieved_bits in ("101", "000")
            assert result.accepted == (result.retrieved_bits == "101")
        law = overlap**2
        band = 4 * math.sqrt(law * (1 - law) / runs)
        assert abs(hits / runs - law) < band

    def test_consumed_check(self):
        params = OtpParams.random(2, RandomStream(66))
        locker = q.store_message("11", params, SMALL)
        otp = q.generate_otp(params)
        assert not otp_consumed_check(None, otp)
        result = q.attempt_unlock(locker, otp, RandomStream(67))
        assert otp_consumed_check(result, otp)
        with pytest.raises(ValueError):
            otp_consumed_check(result, q.new_state(3))

    def test_strict_policy_aborts_transfer(self):
        # big theta makes clicks likely; any click must suppress the transfer
        params = OtpParams.random(1, RandomStream(68))
        strict = VerificationParams(theta=1.2, iterations=6,
                                    click_policy=q.STRICT_ABORT)
        locker = q.store_message("111", params, strict)
        angle = 2 * math.acos(math.sqrt(0.5))
        root = RandomStream(69)
        saw_click = False
        for i in range(200):
            probe = q.apply_gate(q.new_state(1), q.ry(angle, 0))
            probe = q.apply_rotation(probe, params)
            result = q.attempt_unlock(locker, probe, root.substream(i))
            if any(any(t.ancilla_outcomes) for t in result.trajectories):
                saw_click = True
                assert not result.accepted
                assert result.retrieved_bits == "000"
        assert saw_click

    def test_strict_never_accepts_more_than_default(self):
        angle = 2 * math.acos(math.sqrt(0.5))
        probe1 = q.apply_gate(q.new_state(1), q.ry(angle, 0))
        alpha_sq = abs(probe1.amplitudes[0]) ** 2
        default_mass = accepted_mass(alpha_sq, SMALL)
        strict_mass = accepted_mass(alpha_sq, VerificationParams(
            SMALL.theta, SMALL.iterations, q.STRICT_ABORT))
        assert strict_mass <= default_mass + 1e-15


def test_session_log_shape():
    params = OtpParams.random(2, RandomStream(70))
    locker = q.store_message("10", params, SMALL)
    result = q.attempt_unlock(locker, q.generate_otp(params), RandomStream(71))
    lines = q.session_log(locker, result)
    assert lines[0].startswith("locker,m=2,n=2,theta_hash=")
    assert "policy=paper" in lines[0]
    assert len(lines) == 4  # header, two per-qubit lines, result
    assert lines[-1] == f"result,accepted=1,retrieved={result.retrieved_bits}"
    for token in lines[0].split(","):
        for angle in params.triples[0]:
            assert f"{angle}" not in token  # secrets never logged


def test_round_trip_many_random_lockers():
    root = RandomStream(72)
    rng = np.random.default_rng(73)
    for i in range(60):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 3))
        bits = "".join(str(b) for b in rng.integers(0, 2, size=m))
        if set(bits) == {"0"}:
            bits = "1" + bits[1:]
        params = OtpParams.random(n, root.substream(2 * i))
        locker = q.store_message(bits, params, SMALL)
        result = q.attempt_unlock(locker, q.generate_otp(params),
                                  root.substream(2 * i + 1))
        assert result.accepted and result.retrieved_bits == bits


def test_readme_protocol_runs_verbatim():
    # README's five-line protocol teleports a one-qubit ProductState straight
    # from generate_otp: the teleport collapses the password through
    # ProductState.amplitudes, which shares the factor when n = 1
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### The protocol in five lines", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    otp = namespace["otp"]
    assert isinstance(otp, q.ProductState) and otp.n_qubits == 1
    # the source qubit is left as the eigenstate of the sender's first bit
    assert sorted(np.abs(otp.factors[0]).tolist()) == [0.0, 1.0]
