"""Exact complex statevector simulation.

Basis-index convention is little-endian: qubit ``k`` is bit ``k`` of the
basis index, so for two qubits the amplitude order is |00>, |10>, |01>, |11>
when kets are written qubit-0-first.  All public operations preserve the
norm to within 1e-10; measurement renormalizes explicitly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

import numpy as np

from .gates import GateOp, h, s, sdg
from .rng import RandomStream

DEFAULT_MAX_QUBITS = 24

NORM_TOL = 1e-10
_UNDERFLOW = 1e-15


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

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


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


def _free_index_base(n_qubits: int, fixed: Iterable[int]) -> np.ndarray:
    """Basis indices spanning all qubits outside ``fixed``, those bits zero."""
    fixed = set(fixed)
    free = [q for q in range(n_qubits) if q not in fixed]
    counter = np.arange(1 << len(free), dtype=np.intp)
    base = np.zeros_like(counter)
    for j, q in enumerate(free):
        base |= ((counter >> j) & 1) << q
    return base


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply ``gate`` (with its controls) and return the new state."""
    n = state.n_qubits
    for q in gate.qubits():
        if q >= n:
            raise IndexError(f"qubit {q} out of range for {n}-qubit state")
    m = gate.base_matrix()
    base = _free_index_base(n, gate.qubits())
    offset = 0
    for q, v in gate.controls:
        if v == 1:
            offset += 1 << q
    i0 = base + offset
    i1 = i0 + (1 << gate.target)
    out = state.amplitudes.copy()
    a0 = state.amplitudes[i0]
    a1 = state.amplitudes[i1]
    out[i0] = m[0, 0] * a0 + m[0, 1] * a1
    out[i1] = m[1, 0] * a0 + m[1, 1] * a1
    return StateVector(n, out)


def qubit_probabilities(state: StateVector, qubit: int) -> tuple[float, float]:
    """(P(qubit=0), P(qubit=1)) in the computational basis."""
    if not 0 <= qubit < state.n_qubits:
        raise IndexError(f"qubit {qubit} out of range")
    probs = state.probabilities().reshape(-1, 2, 1 << qubit)
    return float(probs[:, 0, :].sum()), float(probs[:, 1, :].sum())


_PRE_ROTATION = {"z": (), "x": (h,), "y": (sdg, h)}
_POST_ROTATION = {"z": (), "x": (h,), "y": (h, s)}


def measure_qubit(state: StateVector, qubit: int, basis: str,
                  rng: RandomStream) -> tuple[int, float, StateVector]:
    """Projectively measure one qubit in the x, y, or z basis.

    x and y are realized by rotating into the computational basis (H, or
    S-dagger then H), sampling a z outcome with the Born probability, and
    rotating back after the collapse.  Returns (outcome, probability of that
    outcome, renormalized post-measurement state).
    """
    if basis not in _PRE_ROTATION:
        raise ValueError(f"basis must be one of x, y, z; got {basis!r}")
    work = state
    for g in _PRE_ROTATION[basis]:
        work = apply_gate(work, g(qubit))
    p0, p1 = qubit_probabilities(work, qubit)
    total = p0 + p1
    if p0 < _UNDERFLOW and p1 < _UNDERFLOW:
        raise FloatingPointError(
            f"both outcome probabilities underflow ({p0:.3e}, {p1:.3e})"
        )
    outcome = 0 if rng.random() < p0 / total else 1
    prob = (p0 if outcome == 0 else p1) / total
    amps = work.amplitudes.copy()
    view = amps.reshape(-1, 2, 1 << qubit)
    view[:, 1 - outcome, :] = 0.0
    amps /= np.sqrt(prob * total)
    collapsed = StateVector(state.n_qubits, amps)
    for g in _POST_ROTATION[basis]:
        collapsed = apply_gate(collapsed, g(qubit))
    return outcome, prob, collapsed


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

    Shot ``i`` draws from the sub-stream ``(seed, i)``, so the histogram is
    identical no matter how the shots are ordered or distributed.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    for op in ops:
        if not isinstance(op, (GateOp, Measurement)):
            raise TypeError(f"unsupported circuit element {op!r}")
    root = RandomStream(seed)
    counts: Counter[str] = Counter()
    for shot in range(shots):
        rng = root.substream(shot)
        state = new_state(n_qubits)
        bits = []
        for op in ops:
            if isinstance(op, Measurement):
                outcome, _, state = measure_qubit(state, op.qubit, op.basis, rng)
                bits.append("1" if outcome else "0")
            else:
                state = apply_gate(state, op)
        counts["".join(bits)] += 1
    return CountsHistogram(shots=shots, counts=dict(counts))


def overlap(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states have different widths")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
