"""Gate descriptions, their matrices, and the weak-coupling gate.

A :class:`GateOp` is a 2x2 unitary on one target qubit dressed with any
number of controls.  Each control is a ``(qubit, value)`` pair: the gate
fires only on basis states where every control qubit holds its required
value, so ``(q, 0)`` is a control-on-zero and ``(q, 1)`` the usual
control-on-one.  Multi-controlled NOTs are plain ``x`` gates with several
controls.  The constructors (``x``, ``h``, ``s``, ``sdg``, ``z``, ``rx``,
``ry``, ``rz``) build the matrix once; the kernels read it back through
:meth:`GateOp.base_matrix`.  Each rotation's entries are written once, in
a private matrix helper (``_rx``, ``_ry``, ``_rz``) that takes an angle and
returns the nested list, which ``rx``, ``ry`` and ``rz`` and the locker's
rotation array (``locker._per_qubit``) turn into matrices.  A gate on S
rows at once may carry one matrix per row, a ``(2, 2, S)`` stack of
matrices, row ``r`` getting ``[:, :, r]`` (see ``statevector._gate_rows``).

Rotation conventions (angle ``a``):

    Rx(a) = cos(a/2) I  - i sin(a/2) X
    Ry(a) = cos(a/2) I  - i sin(a/2) Y
    Rz(a) = diag(exp(-i a/2), exp(+i a/2))
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _const(rows) -> np.ndarray:
    m = np.array(rows, dtype=complex)
    m.flags.writeable = False
    return m


PAULI_X = _const([[0, 1], [1, 0]])
PAULI_Z = _const([[1, 0], [0, -1]])
HADAMARD = _const(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
S_MATRIX = _const([[1, 0], [0, 1j]])
S_DAGGER_MATRIX = _const([[1, 0], [0, -1j]])


@dataclass(frozen=True, eq=False)
class GateOp:
    """One gate application: a 2x2 matrix on ``target`` plus optional
    controls.  Build it through a constructor."""

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


def _rx(angle: float) -> list:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return [[c, -1j * s], [-1j * s, c]]


def _ry(angle: float) -> list:
    c, s = math.cos(angle / 2), math.sin(angle / 2)
    return [[c, -s], [s, c]]


def _rz(angle: float) -> list:
    # np.exp of one Python complex at a time: an array of angles may take
    # another exp loop, whose last bit can differ
    return [[np.exp(-1j * angle / 2), 0], [0, np.exp(1j * angle / 2)]]


def rx(angle: float, target: int, controls=()) -> GateOp:
    return GateOp(target, _const(_rx(_finite(angle))), controls)


def ry(angle: float, target: int, controls=()) -> GateOp:
    return GateOp(target, _const(_ry(_finite(angle))), controls)


def rz(angle: float, target: int, controls=()) -> GateOp:
    return GateOp(target, _const(_rz(_finite(angle))), controls)


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
