"""Exact complex statevector simulation.

Basis-index convention is little-endian: qubit ``k`` is bit ``k`` of the
basis index, so for two qubits the amplitude order is |00>, |10>, |01>, |11>
when kets are written qubit-0-first.  All public operations preserve the
norm to within 1e-10; measurement renormalizes explicitly.

The kernels work on a leading shot axis: an array of shape ``(S, 2**n)``
holds S registers of one circuit, one per row.  A gate is a strided
``reshape`` view with one length-2 axis per gate qubit, its controls fixed
as indices on their axes.  Every sampled outcome goes through one
two-outcome kernel, ``_measure_rows(amps, qubit, kraus, uniforms)``: two
Kraus operators, diagonal in z on one qubit's axis, and one uniform per
row.  A projective x/y/z readout is that kernel with the projectors,
between basis rotations (``_readout_rows``); the verification box
(:mod:`qlocker.verification`) runs it with its own K0 and K1.
:func:`apply_gate` and :func:`measure_qubit` are the S = 1 calls.  One
driver, ``_shot_rows``, turns shot indices into rows: fresh copies of a
register, block by block, shot ``i`` drawing its uniforms up front from
sub-stream ``(seed, i)``.  :func:`sample_shots` runs a circuit of gates and
readouts over every row of each block, and ``_row_keys`` reads each row's
outcome bits as its key.  A block holds at most :data:`SHOT_BLOCK_CELLS`
amplitudes and uniforms, so no shot count or register width allocates
``S * 2**n`` at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

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


def _check_width(n_qubits: int) -> None:
    if not 1 <= n_qubits <= DEFAULT_MAX_QUBITS:
        raise CapacityError(
            f"n_qubits must be in [1, {DEFAULT_MAX_QUBITS}], got {n_qubits}")


@dataclass
class StateVector:
    """Complex amplitudes of an n-qubit register."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_width(self.n_qubits)  # before touching the amplitudes
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude vector of length {self.amplitudes.shape} does not "
                f"match {self.n_qubits} qubits"
            )

    def copy(self) -> StateVector:
        return StateVector(self.n_qubits, self.amplitudes.copy())

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def new_state(n_qubits: int) -> StateVector:
    """All-zeros register |0...0>."""
    _check_width(n_qubits)  # before allocating
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def basis_state(bits: Union[str, Sequence[int]]) -> StateVector:
    """Product basis state; entry/character ``k`` is the value of qubit ``k``."""
    values = [int(b) for b in bits]
    if any(v not in (0, 1) for v in values):
        raise ValueError(f"bits must be 0/1, got {bits!r}")
    state = new_state(len(values))
    index = sum(v << k for k, v in enumerate(values))
    state.amplitudes[0] = 0.0
    state.amplitudes[index] = 1.0
    return state


def combine(low: StateVector, high: StateVector) -> StateVector:
    """Tensor product; ``low`` keeps qubits [0, low.n), ``high`` follows."""
    n = low.n_qubits + high.n_qubits
    _check_width(n)  # before allocating
    amps = (high.amplitudes[:, None] * low.amplitudes[None, :]).ravel()
    return StateVector(n, amps)


def _shot_blocks(shots: int, row_cells: int) -> list[range]:
    """Consecutive ranges of shot indices, each of at most
    :data:`SHOT_BLOCK_CELLS` cells for shots of ``row_cells`` cells each
    (and at least one shot)."""
    rows = max(1, SHOT_BLOCK_CELLS // row_cells)
    return [range(i, min(i + rows, shots)) for i in range(0, shots, rows)]


def _shot_rows(amps: np.ndarray, stream: RandomStream, shots: range,
               k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A fresh copy of the register ``amps`` per shot index in ``shots``,
    with its uniforms: yields ``(rows, uniforms)`` per block, in shot order,
    where ``rows`` is a read-only ``(B, 2**n)`` view and row ``j`` of
    ``uniforms`` holds the first ``k`` draws of
    ``stream.substream(shots[j])`` for the block's ``j``-th shot."""
    for block in _shot_blocks(len(shots), amps.size + k):
        yield (np.broadcast_to(amps, (len(block), amps.size)),
               stream.shot_uniforms(shots[block.start:block.stop], k))


def _row_keys(bits: np.ndarray, lengths) -> list[str]:
    """Row ``r`` of the uint8 outcome bits ``bits`` as a string of its first
    ``lengths[r]`` bits, the whole array decoded once."""
    text, width = (bits + ord("0")).tobytes().decode(), bits.shape[1]
    return [text[i * width:i * width + n] for i, n in enumerate(lengths)]


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


def qubit_probabilities(state: StateVector, qubit: int) -> tuple[float, float]:
    """(P(qubit=0), P(qubit=1)) in the computational basis."""
    if not 0 <= qubit < state.n_qubits:
        raise IndexError(f"qubit {qubit} out of range")
    probs = (np.abs(state.amplitudes) ** 2).reshape(1, -1, 2, 1 << qubit)
    return (float(probs[:, :, 0, :].sum(axis=(1, 2))[0]),
            float(probs[:, :, 1, :].sum(axis=(1, 2))[0]))


# gates into the computational basis before a readout, and back after it
_ROTATIONS = {"z": ((), ()), "x": ((h,), (h,)), "y": ((sdg, h), (h, s))}
_PROJECTORS = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class Measurement:
    """A projective x, y or z measurement of one qubit, mid- or
    end-of-circuit."""

    qubit: int
    basis: str = "z"

    def __post_init__(self):
        if self.basis not in _ROTATIONS:
            raise ValueError(
                f"basis must be one of x, y, z; got {self.basis!r}")


def _measure_rows(amps: np.ndarray, qubit: int, kraus: np.ndarray,
                  uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """The two-outcome measurement with Kraus operators diagonal in z on
    ``qubit``, on every row of ``amps``, row ``i`` drawing ``uniforms[i]``.

    Row ``b`` of ``kraus`` (shape ``(2, 2)``) holds ``K_b``'s diagonal
    entries for the qubit's values 0 and 1.  Each outcome ``b`` applies
    ``K_b`` with ``p_b = |K_b a|^2``; outcome 1 is picked when
    ``uniforms[i] >= p0 / (p0 + p1)``, and the picked branch is
    renormalized.  Returns per row the outcome (as bool), ``(p0, p1)``
    (shape ``(2, S)``) and the new row.
    """
    if not 0 <= qubit < _n_qubits(amps):
        raise IndexError(f"qubit {qubit} out of range")
    branches = kraus[:, None, :, None] * amps.reshape(-1, 2, 1 << qubit)
    branches = branches.reshape(2, *amps.shape)
    probs = np.add.reduce(np.abs(branches) ** 2, axis=2)
    p0, p1 = probs
    if np.minimum.reduce(np.maximum(p0, p1)) < _UNDERFLOW:
        i = int(np.argmin(np.maximum(p0, p1)))
        raise FloatingPointError(
            f"both outcome probabilities underflow ({p0[i]:.3e}, {p1[i]:.3e})"
        )
    total = p0 + p1
    click = uniforms >= p0 / total
    out = np.where(click[:, None], branches[1], branches[0])
    out /= np.sqrt(np.where(click, p1, p0) / total * total)[:, None]
    return click, probs, out


def _readout_rows(amps: np.ndarray, op: Measurement,
                  uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """The readout ``op`` on every row of ``amps``: the rows rotated into
    ``op.basis``, measured with the projectors, and rotated back; returns
    what :func:`_measure_rows` does."""
    to_z, back = _ROTATIONS[op.basis]
    for g in to_z:
        amps = _gate_rows(amps, g(op.qubit))
    click, probs, out = _measure_rows(amps, op.qubit, _PROJECTORS, uniforms)
    for g in back:
        out = _gate_rows(out, g(op.qubit))
    return click, probs, out


def measure_qubit(state: StateVector, qubit: int, basis: str,
                  rng: RandomStream) -> tuple[int, float, StateVector]:
    """Projectively measure one qubit in the x, y, or z basis.

    x and y are realized by rotating into the computational basis (H, or
    S-dagger then H), sampling a z outcome with the Born probability, and
    rotating back after the collapse.  Draws one uniform.  Returns (outcome,
    probability of that outcome, renormalized post-measurement state).
    """
    click, probs, amps = _readout_rows(state.amplitudes[None],
                                       Measurement(qubit, basis),
                                       rng.randoms(1))
    outcome = int(click[0])
    p0, p1 = probs[:, 0].tolist()
    return (outcome, (p1 if outcome else p0) / (p0 + p1),
            StateVector(state.n_qubits, amps[0]))


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


def sample_shots(n_qubits: int, ops: Sequence[CircuitOp], shots: int,
                 seed: int) -> CountsHistogram:
    """Run ``shots`` independent trajectories of a circuit and tally outcomes.

    The circuit's elements are gates and :class:`Measurement` readouts,
    each readout adding its outcome bit to the shot's key.  Shot ``i`` draws
    its uniforms, one per readout, up front from sub-stream ``(seed, i)``,
    so the histogram is identical however the shots are ordered or grouped.
    The circuit runs once per block of shots, over all of the block's rows.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    for op in ops:
        if not isinstance(op, (GateOp, Measurement)):
            raise TypeError(f"unsupported circuit element {op!r}")
    k = sum(isinstance(op, Measurement) for op in ops)
    counts: Counter[str] = Counter()
    for amps, uniforms in _shot_rows(new_state(n_qubits).amplitudes,
                                     RandomStream(seed), range(shots), k):
        bits = np.empty((len(amps), k), dtype=np.uint8)
        j = 0
        for op in ops:
            if isinstance(op, GateOp):
                amps = _gate_rows(amps, op)
            else:
                bits[:, j], _, amps = _readout_rows(amps, op, uniforms[:, j])
                j += 1
        counts.update(_row_keys(bits, [k] * len(bits)))
    return CountsHistogram(shots=shots, counts=dict(counts))


def overlap(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states have different widths")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
