"""Exact complex statevector simulation.

Basis-index convention is little-endian: qubit ``k`` is bit ``k`` of the
basis index, so for two qubits the amplitude order is |00>, |10>, |01>, |11>
when kets are written qubit-0-first.  All public operations preserve the
norm to within 1e-10; measurement renormalizes explicitly.

The kernels work on a leading shot axis: an array of shape ``(S, 2**n)``
holds S registers of one circuit, one per row.  A gate is a strided
``reshape`` view with one length-2 axis per gate qubit, its controls fixed
as indices on their axes; a measurement takes one uniform per row.
:func:`apply_gate` and :func:`measure_qubit` are the S = 1 calls, and
:func:`sample_shots` runs a whole circuit once over every row of a block of
shots, shot ``i`` drawing its uniforms up front from sub-stream
``(seed, i)``.  A block holds at most :data:`SHOT_BLOCK_CELLS` amplitudes
and uniforms, so no shot count or register width allocates ``S * 2**n`` at
once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .gates import GateOp, h, s, sdg
from .rng import RandomStream

DEFAULT_MAX_QUBITS = 24

NORM_TOL = 1e-10
_UNDERFLOW = 1e-15

# cells (amplitudes, or per-shot uniforms and records) in one block of shots
SHOT_BLOCK_CELLS = 1 << 16


class CapacityError(ValueError):
    """Register size outside the supported range."""


@dataclass
class StateVector:
    """Complex amplitudes of an n-qubit register."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.n_qubits < 1:
            raise CapacityError("need at least one qubit")
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude vector of length {self.amplitudes.shape} does not "
                f"match {self.n_qubits} qubits"
            )

    def copy(self) -> StateVector:
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def new_state(n_qubits: int, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """All-zeros register |0...0>."""
    if n_qubits < 1 or n_qubits > max_qubits:
        raise CapacityError(
            f"n_qubits must be in [1, {max_qubits}], got {n_qubits}"
        )
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def basis_state(bits: Union[str, Sequence[int]],
                max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """Product basis state; entry/character ``k`` is the value of qubit ``k``."""
    values = [int(b) for b in bits]
    if not values:
        raise CapacityError("need at least one qubit")
    if any(v not in (0, 1) for v in values):
        raise ValueError(f"bits must be 0/1, got {bits!r}")
    state = new_state(len(values), max_qubits)
    index = sum(v << k for k, v in enumerate(values))
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    return state


def combine(low: StateVector, high: StateVector) -> StateVector:
    """Tensor product; ``low`` keeps qubits [0, low.n), ``high`` follows."""
    n = low.n_qubits + high.n_qubits
    if n > DEFAULT_MAX_QUBITS:  # checked before allocating
        raise CapacityError(f"{n} qubits exceed the {DEFAULT_MAX_QUBITS}-qubit cap")
    amps = (high.amplitudes[:, None] * low.amplitudes[None, :]).ravel()
    return StateVector(n, amps)


def _shot_blocks(shots: int, row_cells: int) -> list[range]:
    """Consecutive ranges of shot indices, each of at most
    :data:`SHOT_BLOCK_CELLS` cells for shots of ``row_cells`` cells each
    (and at least one shot)."""
    rows = max(1, SHOT_BLOCK_CELLS // row_cells)
    return [range(i, min(i + rows, shots)) for i in range(0, shots, rows)]


def _n_qubits(amps: np.ndarray) -> int:
    return amps.shape[1].bit_length() - 1


def _gate_rows(amps: np.ndarray, gate: GateOp) -> np.ndarray:
    """``gate`` applied to every row of ``amps`` (shape ``(S, 2**n)``)."""
    n = _n_qubits(amps)
    qubits = gate.qubits()
    for q in qubits:
        if q >= n:
            raise IndexError(f"qubit {q} out of range for {n}-qubit state")
    # one length-2 axis per gate qubit, the qubits between them merged;
    # higher qubits are the slower-varying bits, so they come first
    shape = [len(amps)]
    axis = {}
    top = n
    for q in sorted(qubits, reverse=True):
        shape += [1 << (top - q - 1), 2]
        axis[q] = len(shape) - 1
        top = q
    shape.append(1 << top)
    index = [slice(None)] * len(shape)
    for q, v in gate.controls:
        index[axis[q]] = v
    index[axis[gate.target]] = 0
    i0 = tuple(index)
    index[axis[gate.target]] = 1
    i1 = tuple(index)
    m = gate.base_matrix()
    src = amps.reshape(shape)
    a0 = src[i0]
    a1 = src[i1]
    out = amps.copy()
    view = out.reshape(shape)
    view[i0] = m[0, 0] * a0 + m[0, 1] * a1
    view[i1] = m[1, 0] * a0 + m[1, 1] * a1
    return out


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply ``gate`` (with its controls) and return the new state."""
    return StateVector(state.n_qubits,
                       _gate_rows(state.amplitudes[None], gate)[0])


def _probabilities_rows(amps: np.ndarray,
                        qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (P(qubit=0), P(qubit=1)) in the computational basis."""
    if not 0 <= qubit < _n_qubits(amps):
        raise IndexError(f"qubit {qubit} out of range")
    probs = (np.abs(amps) ** 2).reshape(len(amps), -1, 2, 1 << qubit)
    return (probs[:, :, 0, :].sum(axis=(1, 2)),
            probs[:, :, 1, :].sum(axis=(1, 2)))


def qubit_probabilities(state: StateVector, qubit: int) -> tuple[float, float]:
    """(P(qubit=0), P(qubit=1)) in the computational basis."""
    p0, p1 = _probabilities_rows(state.amplitudes[None], qubit)
    return float(p0[0]), float(p1[0])


_PRE_ROTATION = {"z": (), "x": (h,), "y": (sdg, h)}
_BITS = np.array([[0], [1]])  # the measured qubit's axis, for broadcasting
_POST_ROTATION = {"z": (), "x": (h,), "y": (h, s)}


def _measure_rows(amps: np.ndarray, qubit: int, basis: str,
                  uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """Measure ``qubit`` of every row of ``amps``, row ``i`` drawing
    ``uniforms[i]``; returns per row the outcome (as uint8), its
    probability, and the collapsed row.  See :func:`measure_qubit`."""
    if basis not in _PRE_ROTATION:
        raise ValueError(f"basis must be one of x, y, z; got {basis!r}")
    for g in _PRE_ROTATION[basis]:
        amps = _gate_rows(amps, g(qubit))
    p0, p1 = _probabilities_rows(amps, qubit)
    if np.maximum(p0, p1).min() < _UNDERFLOW:
        i = int(np.argmin(np.maximum(p0, p1)))
        raise FloatingPointError(
            f"both outcome probabilities underflow ({p0[i]:.3e}, {p1[i]:.3e})"
        )
    total = p0 + p1
    click = uniforms >= p0 / total
    prob = np.where(click, p1, p0) / total
    view = amps.reshape(len(amps), -1, 2, 1 << qubit)
    out = np.where(_BITS == click[:, None, None, None], view, 0.0)
    out = out.reshape(amps.shape)
    out /= np.sqrt(prob * total)[:, None]
    for g in _POST_ROTATION[basis]:
        out = _gate_rows(out, g(qubit))
    return click.view(np.uint8), prob, out


def measure_qubit(state: StateVector, qubit: int, basis: str,
                  rng: RandomStream) -> tuple[int, float, StateVector]:
    """Projectively measure one qubit in the x, y, or z basis.

    x and y are realized by rotating into the computational basis (H, or
    S-dagger then H), sampling a z outcome with the Born probability, and
    rotating back after the collapse.  Draws one uniform.  Returns (outcome,
    probability of that outcome, renormalized post-measurement state).
    """
    outcome, prob, amps = _measure_rows(state.amplitudes[None], qubit, basis,
                                        rng.randoms(1))
    return (int(outcome[0]), float(prob[0]),
            StateVector(state.n_qubits, amps[0]))


@dataclass(frozen=True)
class Measurement:
    """A mid- or end-of-circuit measurement instruction."""

    qubit: int
    basis: str = "z"


CircuitOp = Union[GateOp, Measurement]


@dataclass
class CountsHistogram:
    """Shot outcomes keyed by concatenated measurement bits, in order."""

    shots: int
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to shots")

    def probability(self, key: str) -> float:
        return self.counts.get(key, 0) / self.shots

    def csv_rows(self) -> list[tuple[str, int]]:
        return sorted(self.counts.items())


def sample_shots(n_qubits: int, ops: Sequence[CircuitOp], shots: int,
                 seed: int) -> CountsHistogram:
    """Run ``shots`` independent trajectories of a circuit and tally outcomes.

    Shot ``i`` draws its uniforms, one per measurement, up front from the
    sub-stream ``(seed, i)``, so the histogram is identical no matter how
    the shots are ordered or grouped.  The circuit runs once per block of
    shots, over all of the block's rows.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    for op in ops:
        if not isinstance(op, (GateOp, Measurement)):
            raise TypeError(f"unsupported circuit element {op!r}")
    start = new_state(n_qubits).amplitudes
    k = sum(isinstance(op, Measurement) for op in ops)
    root = RandomStream(seed)
    counts: Counter[str] = Counter()
    for block in _shot_blocks(shots, start.size + k):
        uniforms = root.shot_uniforms(block, k)
        amps = np.broadcast_to(start, (len(block), start.size))
        bits = np.empty((len(block), k), dtype=np.uint8)
        j = 0
        for op in ops:
            if isinstance(op, Measurement):
                bits[:, j], _, amps = _measure_rows(amps, op.qubit, op.basis,
                                                    uniforms[:, j])
                j += 1
            else:
                amps = _gate_rows(amps, op)
        counts.update(row.tobytes().decode() for row in bits + ord("0"))
    return CountsHistogram(shots=shots, counts=dict(counts))


def overlap(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states have different widths")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
