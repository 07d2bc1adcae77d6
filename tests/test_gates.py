import math

import numpy as np
import pytest

import qlocker as q
from qlocker.gates import HADAMARD, PAULI_X
from oracles import (decompose_controlled0_rx, gate_matrix, is_unitary,
                     phase_aligned_distance, sequence_matrix, unitary)


def coupling_matrix(theta: float) -> np.ndarray:
    """Independent 4x4 oracle for the weak-coupling unitary.

    [Rz(theta) on system (x) I][cos(theta) I4 - i sin(theta) C0NOT], written
    in little-endian ordering (system = qubit 0, ancilla = qubit 1).
    """
    rzm = np.diag([np.exp(-1j * theta / 2), np.exp(1j * theta / 2)])
    c0not = np.zeros((4, 4), dtype=complex)
    for sysb in range(2):
        for anc in range(2):
            col = sysb + 2 * anc
            row = sysb + 2 * (anc ^ 1 if sysb == 0 else anc)
            c0not[row, col] = 1.0
    return np.kron(np.eye(2), rzm) @ (
        np.cos(theta) * np.eye(4) - 1j * np.sin(theta) * c0not
    )


class TestMatrices:
    def test_rotation_conventions(self):
        lam = 0.4
        c, s = math.cos(0.2), math.sin(0.2)
        np.testing.assert_allclose(
            q.rx(lam, 0).base_matrix(), [[c, -1j * s], [-1j * s, c]],
            atol=1e-15
        )
        np.testing.assert_allclose(
            q.ry(lam, 0).base_matrix(), [[c, -s], [s, c]], atol=1e-15
        )
        np.testing.assert_allclose(
            q.rz(lam, 0).base_matrix(),
            np.diag([np.exp(-0.2j), np.exp(0.2j)]), atol=1e-15
        )

    def test_every_kind_is_unitary(self):
        gates = [
            q.x(0), q.h(0), q.s(0), q.sdg(0),
            q.rx(1.3, 0), q.ry(-2.1, 0), q.rz(0.7, 0),
            unitary(HADAMARD @ PAULI_X, 0),
            q.cnot(0, 1),
            q.x(2, controls=((0, 0), (1, 1))),
        ]
        for gate in gates:
            n = max(gate.qubits()) + 1
            m = gate_matrix(gate, n)
            assert np.max(np.abs(m.conj().T @ m - np.eye(len(m)))) < 1e-10

    def test_matrix_is_built_once_and_read_only(self):
        for gate in (q.x(0), q.z(0), q.rx(0.3, 0), unitary(HADAMARD, 0)):
            assert gate.base_matrix() is gate.base_matrix()
            assert not gate.base_matrix().flags.writeable

    def test_is_unitary_rejects_nonunitary(self):
        assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


class TestGateOpValidation:
    def test_rotation_needs_finite_angle(self):
        for angle in (math.inf, -math.inf, math.nan):
            for rotation in (q.rx, q.ry, q.rz):
                with pytest.raises(ValueError):
                    rotation(angle, 0)
            with pytest.raises(ValueError):
                q.build_controlled0_rx(angle)
            with pytest.raises(ValueError):
                decompose_controlled0_rx(angle)

    def test_negative_target(self):
        with pytest.raises(IndexError):
            q.h(-1)

    def test_negative_control(self):
        with pytest.raises(IndexError, match="negative control index -1"):
            q.x(0, controls=((-1, 1),))

    def test_overlapping_control_and_target(self):
        with pytest.raises(IndexError):
            q.x(0, controls=((0, 1),))
        with pytest.raises(IndexError):
            q.x(1, controls=((0, 1), (0, 0)))

    def test_bad_control_value(self):
        with pytest.raises(ValueError):
            q.x(0, controls=((1, 2),))

    def test_nonunitary_matrix_rejected(self):
        with pytest.raises(ValueError):
            unitary([[1, 0], [0, 1.001]], 0)
        with pytest.raises(ValueError):
            unitary(np.eye(3), 0)


class TestCoupling:
    def test_matches_oracle_up_to_global_phase(self):
        for theta in (-3.0, -0.7, 0.0, 0.2, 1.1, math.pi / 2):
            direct = gate_matrix(q.build_controlled0_rx(theta), 2)
            assert phase_aligned_distance(coupling_matrix(theta), direct) < 1e-12

    def test_zero_angle_is_identity(self):
        direct = gate_matrix(q.build_controlled0_rx(0.0), 2)
        assert phase_aligned_distance(np.eye(4), direct) < 1e-15

    def test_control_on_one_leaves_target_alone(self):
        state = q.basis_state("10")  # system |1>, ancilla |0>
        out = q.apply_gate(state, q.build_controlled0_rx(0.2))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_control_on_zero_rotates_target(self):
        state = q.basis_state("00")
        out = q.apply_gate(state, q.build_controlled0_rx(0.2))
        expected = np.array([math.cos(0.2), 0.0, -1j * math.sin(0.2), 0.0])
        assert phase_aligned_distance(expected, out.amplitudes) < 1e-15


class TestDecomposition:
    def test_uses_only_single_qubit_gates_and_cnot(self):
        for gate in decompose_controlled0_rx(0.3):
            assert len(gate.controls) <= 1
            if gate.controls:
                assert gate.base_matrix() is PAULI_X
                assert gate.controls[0][1] == 1

    def test_zero_angle_composes_to_identity(self):
        seq = sequence_matrix(decompose_controlled0_rx(0.0), 2)
        assert phase_aligned_distance(np.eye(4), seq) < 1e-12

    def test_matches_direct_gate_at_0p2(self):
        direct = gate_matrix(q.build_controlled0_rx(0.2), 2)
        seq = sequence_matrix(decompose_controlled0_rx(0.2), 2)
        assert np.max(np.abs(direct - seq)) < 1e-12

    def test_grid_sweep_over_angle_range(self):
        for theta in np.linspace(-math.pi, math.pi, 100):
            direct = gate_matrix(q.build_controlled0_rx(theta), 2)
            seq = sequence_matrix(decompose_controlled0_rx(theta), 2)
            assert phase_aligned_distance(direct, seq) < 1e-12

    def test_respects_explicit_qubit_placement(self):
        direct = gate_matrix(q.build_controlled0_rx(0.9, control=2, target=0), 3)
        seq = sequence_matrix(decompose_controlled0_rx(0.9, control=2, target=0), 3)
        assert np.max(np.abs(direct - seq)) < 1e-12


class TestControlOnZeroDuality:
    def test_equals_x_conjugation_exactly(self, np_rng):
        for _ in range(25):
            v = np_rng.normal(size=8) + 1j * np_rng.normal(size=8)
            v /= np.linalg.norm(v)
            state = q.StateVector(3, v)
            gate0 = q.ry(0.77, 2, controls=((1, 0),))
            via_zero = q.apply_gate(state, gate0)
            gate1 = q.ry(0.77, 2, controls=((1, 1),))
            via_conj = q.apply_gate(state, q.x(1))
            via_conj = q.apply_gate(via_conj, gate1)
            via_conj = q.apply_gate(via_conj, q.x(1))
            assert np.array_equal(via_zero.amplitudes, via_conj.amplitudes)


def test_phase_aligned_distance_ignores_global_phase(np_rng):
    m = np_rng.normal(size=(4, 4)) + 1j * np_rng.normal(size=(4, 4))
    assert phase_aligned_distance(m, np.exp(0.7j) * m) < 1e-12


def format_matrix_dump(m: np.ndarray) -> str:
    """Row-major text dump: one row per line, 're im' pairs per entry."""
    m = np.asarray(m, dtype=complex)
    return "\n".join(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row)
                     for row in m)


def test_matrix_dump_round_trips():
    m = q.rx(1.1, 0).base_matrix()
    dump = format_matrix_dump(m)
    rows = []
    for line in dump.splitlines():
        vals = [float(tok) for tok in line.split()]
        rows.append([complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)])
    np.testing.assert_allclose(np.array(rows), m, atol=1e-16)
