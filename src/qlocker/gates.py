"""Gate descriptions, their matrices, and the weak-coupling gate.

A :class:`GateOp` is a 2x2 unitary on one target qubit dressed with any
number of controls.  Each control is a ``(qubit, value)`` pair: the gate
fires only on basis states where every control qubit holds its required
value, so ``(q, 0)`` is a control-on-zero and ``(q, 1)`` the usual
control-on-one.  Multi-controlled NOTs are plain ``x`` gates with several
controls.  The constructors (``x``, ``h``, ``s``, ``sdg``, ``z``, ``rx``,
``ry``, ``rz`` and ``unitary`` for any other matrix) build and check the
matrix once; the kernels read it back through :meth:`GateOp.base_matrix`.

Rotation conventions (angle ``a``):

    Rx(a) = cos(a/2) I  - i sin(a/2) X
    Ry(a) = cos(a/2) I  - i sin(a/2) Y
    Rz(a) = diag(exp(-i a/2), exp(+i a/2))

Matrix-equivalence helpers compare modulo global phase, since several
constructions here (notably the weak-coupling gate) are only defined up to
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNITARY_TOL = 1e-10


def _const(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.flags.writeable = False
    return m


PAULI_X = _const([[0, 1], [1, 0]])
PAULI_Z = _const([[1, 0], [0, -1]])
HADAMARD = _const(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
S_MATRIX = _const([[1, 0], [0, 1j]])
S_DAGGER_MATRIX = _const([[1, 0], [0, -1j]])


def is_unitary(m: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    if m.shape != (m.shape[0], m.shape[0]):
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < tol)


@dataclass(frozen=True, eq=False)
class GateOp:
    """One gate application: a 2x2 matrix on ``target`` plus optional
    controls.  Build it through a constructor, which checks the matrix."""

    target: int
    matrix: np.ndarray
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.target < 0:
            raise IndexError(f"negative target index {self.target}")
        controls = tuple((int(q), int(v)) for q, v in self.controls)
        object.__setattr__(self, "controls", controls)
        seen = {self.target}
        for q, v in controls:
            if q < 0:
                raise IndexError(f"negative control index {q}")
            if q in seen:
                raise IndexError(f"overlapping target/control index {q}")
            seen.add(q)
            if v not in (0, 1):
                raise ValueError(f"control value must be 0 or 1, got {v}")

    def base_matrix(self) -> np.ndarray:
        """The uncontrolled 2x2 matrix this gate applies to its target."""
        return self.matrix

    def qubits(self) -> tuple[int, ...]:
        return (self.target, *(q for q, _ in self.controls))


# -- constructors -------------------------------------------------------------

def x(target: int, controls=()) -> GateOp:
    return GateOp(target, PAULI_X, controls)


def h(target: int, controls=()) -> GateOp:
    return GateOp(target, HADAMARD, controls)


def s(target: int, controls=()) -> GateOp:
    return GateOp(target, S_MATRIX, controls)


def sdg(target: int, controls=()) -> GateOp:
    return GateOp(target, S_DAGGER_MATRIX, controls)


def z(target: int, controls=()) -> GateOp:
    return GateOp(target, PAULI_Z, controls)


def _finite(angle: float) -> float:
    angle = float(angle)
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle}")
    return angle


def rx(angle: float, target: int, controls=()) -> GateOp:
    angle = _finite(angle)
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return GateOp(target, _const([[c, -1j * s], [-1j * s, c]]), controls)


def ry(angle: float, target: int, controls=()) -> GateOp:
    angle = _finite(angle)
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return GateOp(target, _const([[c, -s], [s, c]]), controls)


def rz(angle: float, target: int, controls=()) -> GateOp:
    angle = _finite(angle)
    return GateOp(target, _const([[np.exp(-1j * angle / 2), 0],
                                  [0, np.exp(1j * angle / 2)]]), controls)


def unitary(matrix, target: int, controls=()) -> GateOp:
    m = _const(matrix)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not is_unitary(m):
        raise ValueError("matrix is not unitary within tolerance")
    return GateOp(target, m, controls)


def cnot(control: int, target: int) -> GateOp:
    return x(target, controls=((control, 1),))


# -- the weak-coupling gate ----------------------------------------------------

def build_controlled0_rx(theta: float, control: int = 0, target: int = 1) -> GateOp:
    """Rx(2*theta) on ``target``, fired when ``control`` is in state 0.

    This is the coupling step of the verification box: the system qubit
    controls (on zero) a rotation of the fresh ancilla.  It matches the
    two-qubit operator ``[Rz(theta) (x) I][cos(theta) I - i sin(theta) C0NOT]``
    up to the global phase exp(-i theta / 2).
    """
    return rx(2.0 * theta, target, controls=((control, 0),))


def decompose_controlled0_rx(theta: float, control: int = 0,
                             target: int = 1) -> list[GateOp]:
    """Same gate as :func:`build_controlled0_rx`, as single-qubit gates + CNOT.

    Uses the A/CNOT/B/CNOT/C controlled-rotation construction with
    ``A = Rz(-pi/2) Ry(theta)``, ``B = Ry(-theta)``, ``C = Rz(pi/2)``, and the
    control conjugated by X to flip its polarity.  The composed matrix equals
    the direct gate exactly (both live in SU(2), so no residual phase).
    """
    half_pi = math.pi / 2
    return [
        x(control),
        rz(half_pi, target),
        cnot(control, target),
        ry(-theta, target),
        cnot(control, target),
        ry(theta, target),
        rz(-half_pi, target),
        x(control),
    ]


# -- full matrices and phase-aware comparison ----------------------------------

def gate_matrix(gate: GateOp, n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix of ``gate`` acting on an n-qubit register.

    Built column by column from the gate's action on basis states; intended
    for verification and debugging at small n.
    """
    from .statevector import StateVector, apply_gate

    dim = 1 << n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        amps = np.zeros(dim, dtype=complex)
        amps[col] = 1.0
        out[:, col] = apply_gate(StateVector(n_qubits, amps), gate).amplitudes
    return out


def sequence_matrix(gates: list[GateOp], n_qubits: int) -> np.ndarray:
    """Matrix of a gate list applied in order (first gate acts first)."""
    dim = 1 << n_qubits
    out = np.eye(dim, dtype=complex)
    for g in gates:
        out = gate_matrix(g, n_qubits) @ out
    return out


def phase_aligned_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise |a - e^{i phi} b| with phi chosen to maximize overlap."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    overlap = np.vdot(b, a)
    if abs(overlap) > 1e-300:
        b = b * (overlap / abs(overlap))
    return float(np.max(np.abs(a - b)))
