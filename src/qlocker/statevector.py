"""Exact complex statevector simulation.

Basis-index convention is little-endian: qubit ``k`` is bit ``k`` of the
basis index, so for two qubits the amplitude order is |00>, |10>, |01>, |11>
when kets are written qubit-0-first.  All public operations preserve the
norm to within 1e-10; measurement renormalizes explicitly.

The kernels take S registers of one circuit as the rows of an array of
shape ``(S, 2**n)``, and hold them with the shot axis last: what they
return is the ``.T`` view of a C-contiguous ``(2**n, S)`` array, so each of
their ufuncs runs one contiguous loop over the shots, with the gate or
Kraus entries as scalars.  They take rows in any layout (a ``.T`` view, a
row-major array, or one register broadcast to every row) and give each row
the bits it gets alone.  A gate indexes a ``reshape`` view with one
length-2 axis per qubit before the shot axis, qubit ``q`` on axis
``n - 1 - q``: the target's axis at 0 and 1, each control's at its value.
Every sampled outcome's probabilities come from one two-outcome kernel,
``_measure_rows(amps, qubit, kraus, uniforms)``: two Kraus operators,
diagonal in z on one qubit's axis, and one uniform per row.  One rule,
``_clicks``, picks every outcome: 1 where a row's draw is at least
``p0 / (p0 + p1)``.  The kernel's outcome probabilities are summed in the
order numpy sums one contiguous row: in plain order for 2 and 4
amplitudes, as a reduce over the amplitude axis of the shot-last array
does, and pairwise from 8 up, where the kernel reduces a row-major copy
instead (a strided reduce would sum in plain order and move the last
bit).  A projective x/y/z readout is that kernel with the
projectors, between basis rotations (``_basis_rows``): each basis has one
2x2 matrix in ``_ROTATIONS`` (none for z) that rotates it into the
computational basis, and that matrix's adjoint rotates it back.  Unless
every readout is in z, the rotation is one gate over all rows whose
matrix is a ``(2, 2, S)`` stack of each row's matrix, the identity for
z.  The verification box (:mod:`qlocker.verification`) runs the kernel
with its own K0 and K1.
:func:`apply_gate` and :func:`measure_qubit` are the S = 1 calls.  One
rule, ``_shot_blocks``, cuts shot indices into blocks, and each sampler
reads it through this module: :func:`sample_circuits` here, and the
verification box's one block loop, ``verification._box_blocks``.
:func:`sample_circuits` runs circuits of one shape, gates and readouts at
the same positions, G circuits in blocks cut at ``G * (2**n + k)`` cells
per shot of k readouts; shot ``i`` of circuit ``g`` draws its uniforms
up front from that circuit's sub-stream ``i``, every circuit's in one
Philox pass per block (:func:`qlocker.rng.shot_uniforms`).  Every copy
of a circuit holds one register until the circuits' first readout, so
the ops before it run once, on one row per circuit.  Where that readout
ends the circuits, the kernel runs on those rows alone, ``_clicks``
compares every draw of a block with its circuit's one ``p0 / (p0 +
p1)``, and one ``np.count_nonzero`` per circuit tallies them; otherwise
each block's rows are built there from them, circuit-major, and the rest
runs over every row: an op object that every circuit holds once over all
rows, any other gate over its own circuit's rows, and each readout in
one kernel call, and ``_row_keys`` reads each row's outcome bits as its
key.  :func:`sample_shots` is its one-circuit call.  A block holds at
most :data:`SHOT_BLOCK_CELLS` amplitudes and uniforms, so no shot count,
circuit count or register width allocates ``S * 2**n`` at once.  A
:class:`ProductState` is held as its ``(n, 2)`` one-qubit factors; it
builds its ``2**n`` register only when one is asked for.  :func:`_parts`
is the one place that tells the two forms apart: it views any n-qubit
state as P parts of w qubits, a writable ``(P, 2**w)`` array, one part
of n qubits for a register and n parts of one qubit for a product.  The
locker rotates, verifies and collapses passwords through that view alone.

A probability of |0> computed from amplitudes may land a rounding error
outside [0, 1].  Every law that takes one (``acceptance_probability``,
``record_probability`` and ``sample_acceptance_runs`` in
:mod:`qlocker.verification`, ``theoretical_ancilla_density`` in
:mod:`qlocker.tomography`) reads it through ``_clamp_p0``, the one rule:
within :data:`NORM_TOL` of [0, 1] it is clamped to [0, 1], and further
out, or NaN, it is a ``ValueError``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .gates import HADAMARD, S_DAGGER_MATRIX, GateOp
from .rng import RandomStream, _require_int, shot_uniforms

DEFAULT_MAX_QUBITS = 24

NORM_TOL = 1e-10
_UNDERFLOW = 1e-15


def _clamp_p0(alpha_sq: float) -> float:
    """A P(|0>) that came out of a floating-point sum, clamped to [0, 1]; a
    value more than :data:`NORM_TOL` outside [0, 1], or NaN, is an error."""
    if not -NORM_TOL <= alpha_sq <= 1.0 + NORM_TOL:
        raise ValueError(f"alpha_sq must be in [0, 1], got {alpha_sq}")
    return float(min(max(alpha_sq, 0.0), 1.0))


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
    _write_basis(_parts(state), values)
    return state


def combine(low: StateVector, high: StateVector) -> StateVector:
    """Tensor product; ``low`` keeps qubits [0, low.n), ``high`` follows."""
    n = low.n_qubits + high.n_qubits
    _check_width(n)  # before allocating
    amps = (high.amplitudes[:, None] * low.amplitudes[None, :]).ravel()
    return StateVector(n, amps)


@dataclass
class ProductState:
    """An n-qubit product state held as its one-qubit factors: row ``k`` of
    ``factors`` (shape ``(n, 2)``) is qubit ``k``'s amplitudes.

    It takes O(n) memory whatever n is; only :attr:`amplitudes` and
    :meth:`register` build the ``2**n`` register, under the width cap.
    """

    factors: np.ndarray

    def __post_init__(self):
        self.factors = np.asarray(self.factors, dtype=complex)
        shape = self.factors.shape
        if len(shape) != 2 or shape[0] < 1 or shape[1] != 2:
            raise ValueError(f"factors of shape {shape} are not (n, 2)")

    @classmethod
    def zeros(cls, n_qubits: int) -> ProductState:
        """|0...0> as n factors."""
        factors = np.zeros((n_qubits, 2), dtype=complex)
        factors[:, 0] = 1.0
        return cls(factors)

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    def copy(self) -> ProductState:
        return ProductState(self.factors.copy())

    def qubit(self, k: int) -> StateVector:
        """Qubit ``k`` as a one-qubit register that shares its factor, so
        collapsing it collapses this state's qubit ``k``."""
        return StateVector(1, self.factors[k])

    def register(self) -> StateVector:
        """The factors combined into one register, qubit ``k`` from factor
        ``k``; for one qubit, the register shares the factor."""
        state = self.qubit(0)
        for k in range(1, self.n_qubits):
            state = combine(state, self.qubit(k))
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        """The register's ``2**n`` amplitudes; read-only when n > 1, since
        they are built anew on every read."""
        amps = self.register().amplitudes
        if self.n_qubits > 1:
            amps.flags.writeable = False
        return amps


def _parts(state: StateVector | ProductState) -> np.ndarray:
    """``state`` as P parts of w qubits: a writable ``(P, 2**w)`` view of
    its amplitudes in which qubit ``q`` is qubit ``q % w`` of part
    ``q // w``.  A register is one part of n qubits, a
    :class:`ProductState` n parts of one qubit (its factors)."""
    if isinstance(state, ProductState):
        return state.factors
    return state.amplitudes[None]


def _write_basis(parts: np.ndarray, bits) -> None:
    """Overwrite ``parts`` (a :func:`_parts` view) with the basis state
    whose qubit ``q`` has the value ``bits[q]`` (0/1 ints or characters)."""
    values = np.array([int(b) for b in bits]).reshape(len(parts), -1)
    parts[:] = 0.0
    parts[np.arange(len(parts)),
          values @ (1 << np.arange(values.shape[1]))] = 1.0


def _shot_blocks(shots: int, row_cells: int) -> list[range]:
    """Consecutive ranges of shot indices, each of at most
    :data:`SHOT_BLOCK_CELLS` cells for shots of ``row_cells`` cells each
    (and at least one shot)."""
    rows = max(1, SHOT_BLOCK_CELLS // row_cells)
    return [range(i, min(i + rows, shots)) for i in range(0, shots, rows)]


def _row_keys(bits: np.ndarray, lengths=None) -> list[str]:
    """Row ``r`` of the uint8 outcome bits ``bits`` as a string of its
    first ``lengths[r]`` bits (of all of them without ``lengths``), the
    whole array decoded once, as one UTF-32 string per row."""
    if not bits.shape[1]:
        return [""] * len(bits)
    rows = np.add(bits, ord("0"), dtype=np.uint32, order="C").view(
        f"<U{bits.shape[1]}")[:, 0].tolist()
    return rows if lengths is None else [
        row[:n] for row, n in zip(rows, lengths)]


def _n_qubits(amps: np.ndarray) -> int:
    return amps.shape[1].bit_length() - 1


def _check_qubit(qubit: int, n_qubits: int) -> None:
    """An :class:`IndexError` unless ``qubit`` is a qubit of an
    ``n_qubits``-qubit register; callers that draw check before drawing."""
    if not 0 <= qubit < n_qubits:
        raise IndexError(
            f"qubit {qubit} out of range for {n_qubits}-qubit state")


def _gate_rows(amps: np.ndarray, gate: GateOp) -> np.ndarray:
    """``gate`` applied to every row of ``amps`` (shape ``(S, 2**n)``), as
    the ``.T`` view of a shot-last array.  A matrix of shape ``(2, 2, S)``
    gives row ``r`` its own gate, ``[:, :, r]``: each entry is an ``(S,)``
    array that broadcasts over the shot axis as a scalar entry does."""
    n = _n_qubits(amps)
    for q in gate.qubits():
        _check_qubit(q, n)
    # one length-2 axis per qubit, then the shot axis; qubit q is bit q of
    # the basis index, so it is axis n - 1 - q
    shape = (2,) * n + (len(amps),)
    index = [slice(None)] * n
    for q, v in gate.controls:
        index[n - 1 - q] = v
    index[n - 1 - gate.target] = 0
    i0 = tuple(index)
    index[n - 1 - gate.target] = 1
    i1 = tuple(index)
    m = gate.base_matrix()
    src = amps.T.reshape(shape)
    a0 = src[i0]
    a1 = src[i1]
    out = np.array(amps.T, order="C")
    view = out.reshape(shape)
    view[i0] = m[0, 0] * a0 + m[0, 1] * a1
    view[i1] = m[1, 0] * a0 + m[1, 1] * a1
    return out.T


def apply_gate(state: StateVector, gate: GateOp) -> StateVector:
    """Apply ``gate`` (with its controls) and return the new state."""
    return StateVector(state.n_qubits,
                       _gate_rows(state.amplitudes[None], gate)[0])


# each basis's rotation into the computational basis before a readout (None
# for z); its adjoint rotates back after it.  y's is H S-dagger, S-dagger
# first, written as S-dagger's diagonal scaling H's columns: a matmul here
# would start BLAS, which adds 0.3-0.5 MiB to every command's peak memory
_ROTATIONS = dict(z=None, x=HADAMARD, y=HADAMARD * np.diag(S_DAGGER_MATRIX))
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


def _clicks(uniforms: np.ndarray, p0: np.ndarray,
            total: np.ndarray) -> np.ndarray:
    """The outcome rule of every sampled readout: outcome 1 (as True) where
    a draw is at least ``p0 / total``, ``total`` being ``p0 + p1``.  The
    arrays broadcast, so one row's probabilities may decide many draws."""
    return uniforms >= p0 / total


def _measure_rows(amps: np.ndarray, qubit: int, kraus: np.ndarray,
                  uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray]:
    """The two-outcome measurement with Kraus operators diagonal in z on
    ``qubit``, on every row of ``amps``, row ``i`` drawing ``uniforms[i]``.

    Row ``b`` of ``kraus`` (shape ``(2, 2)``) holds ``K_b``'s diagonal
    entries for the qubit's values 0 and 1.  Each outcome ``b`` applies
    ``K_b`` with ``p_b = |K_b a|^2``; :func:`_clicks` picks the outcome
    from ``uniforms[i]``, and the picked branch is renormalized.  Returns
    per row the outcome (as bool), ``(p0, p1)`` (shape ``(2, S)``) and the
    new row, the rows as the ``.T`` view of a shot-last array.
    """
    _check_qubit(qubit, _n_qubits(amps))
    branches = np.multiply(kraus.reshape(2, 1, 2, 1, 1),
                           amps.T.reshape(-1, 2, 1 << qubit, len(amps)),
                           order="C").reshape(2, -1, len(amps))
    # |K_b a|^2 per amplitude, freed once summed so that it is not held
    # beside the picked branch (holding both made every call on a wide
    # register fault in fresh pages).  numpy sums a contiguous row of 8 or
    # more amplitudes pairwise, and an axis it steps over in plain order:
    # from 8 up, a row-major copy (no copy for one row) keeps each row's
    # sum that of its own contiguous row (see the module docstring)
    probs = np.abs(branches) ** 2
    probs = (np.add.reduce(probs, axis=1) if amps.shape[1] < 8 else
             np.add.reduce(np.ascontiguousarray(probs.swapaxes(1, 2)),
                           axis=2))
    p0, p1 = probs[0], probs[1]
    total = p0 + p1
    # a row whose p0 and p1 both underflow has a total below twice the bound
    if (np.minimum.reduce(total) < 2 * _UNDERFLOW
            and np.minimum.reduce(np.maximum(p0, p1)) < _UNDERFLOW):
        i = int(np.argmin(np.maximum(p0, p1)))
        raise FloatingPointError(
            f"both outcome probabilities underflow ({p0[i]:.3e}, {p1[i]:.3e})"
        )
    click = _clicks(uniforms, p0, total)
    out = np.where(click, branches[1], branches[0])
    out /= np.sqrt(np.where(click, p1, p0) / total * total)
    return click, probs, out.T


def _circuit_rows(amps: np.ndarray, gates: Sequence[GateOp]) -> np.ndarray:
    """Each of the G equal row blocks of ``amps`` (circuit-major, as
    :func:`sample_circuits` builds them) through its own gate in ``gates``; a
    gate that every block holds runs once over all rows.  Returns the
    ``.T`` view of a shot-last array."""
    if all(gate is gates[0] for gate in gates):
        return _gate_rows(amps, gates[0])
    size = len(amps) // len(gates)
    return np.concatenate([_gate_rows(amps[g * size:(g + 1) * size], gate).T
                           for g, gate in enumerate(gates)], 1).T


def _basis_rows(amps: np.ndarray, ops: Sequence[Measurement],
                side: int) -> np.ndarray:
    """Each circuit's rows rotated into the basis of its readout in ``ops``
    by that basis's matrix in ``_ROTATIONS`` (``side`` 0), or back from it
    by the matrix's adjoint (``side`` 1): no gate when every readout is in
    z, and otherwise one gate over all rows whose matrix is a ``(2, 2, S)``
    stack of each circuit's matrix over its rows, the identity for z."""
    mats = [_ROTATIONS[op.basis] for op in ops]
    if all(m is None for m in mats):
        return amps
    m = np.repeat(np.stack([np.eye(2) if mat is None else mat
                            for mat in mats], -1), len(amps) // len(ops), -1)
    return _gate_rows(amps, GateOp(ops[0].qubit,
                                   m.conj().swapaxes(0, 1) if side else m))


def measure_qubit(state: StateVector, qubit: int, basis: str,
                  rng: RandomStream) -> tuple[int, float, StateVector]:
    """Projectively measure one qubit in the x, y, or z basis.

    x and y are realized by rotating into the computational basis by the
    basis's one matrix in ``_ROTATIONS`` (H for x; H S-dagger, S-dagger
    first, for y), sampling a z outcome with the Born probability, and
    rotating back by that matrix's adjoint after the collapse.  Draws one
    uniform.  Returns (outcome, probability of that outcome, renormalized
    post-measurement state).  A qubit outside the register is an
    :class:`IndexError` before ``rng`` draws.
    """
    op = Measurement(qubit, basis)
    _check_qubit(qubit, state.n_qubits)
    amps = _basis_rows(state.amplitudes[None], [op], 0)
    click, probs, amps = _measure_rows(amps, qubit, _PROJECTORS,
                                       rng.randoms(1))
    amps = _basis_rows(amps, [op], 1)
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
    It is :func:`sample_circuits` of one circuit: the ops before the first
    readout run once, on one row; a readout that ends the circuit is
    decided from that row's ``p0`` and ``p1`` for every shot, and
    otherwise the rest of the circuit runs once per block of shots, over
    all of the block's rows.
    """
    return sample_circuits(n_qubits, [(ops, seed)], shots)[0]


def _readout_qubits(ops: Sequence[CircuitOp]) -> list[int | None]:
    """Per op, the qubit it reads out, or None for a gate."""
    for op in ops:
        if not isinstance(op, (GateOp, Measurement)):
            raise TypeError(f"unsupported circuit element {op!r}")
    return [op.qubit if isinstance(op, Measurement) else None for op in ops]


def sample_circuits(n_qubits: int,
                    circuits: Sequence[tuple[Sequence[CircuitOp], int]],
                    shots: int) -> list[CountsHistogram]:
    """:func:`sample_shots` of each ``(ops, seed)`` in ``circuits``, sampled
    as one batch: histogram ``g`` is the ``sample_shots(n_qubits, ops,
    shots, seed)`` of ``circuits[g]``, its outcomes tallied in the same
    first-appearance order.

    The circuits must have one shape, the same number of ops with a readout
    at the same positions on the same qubits (each in its own basis);
    anything else is a ``ValueError``.  Each block of shots holds every
    circuit's rows, circuit-major, and draws them in one pass.  Until the
    circuits' first readout every copy of a circuit holds one register, so
    the ops before it run once, before the blocks, on one row per circuit.
    If that readout ends the circuits, the kernel runs once, on those
    rows, and each row's draw is compared with its circuit's ``p0 / (p0 +
    p1)`` by ``_clicks``, the kernel's own outcome rule; each circuit's
    outcomes in a block are tallied by one ``np.count_nonzero``, its keys
    ``"0"`` and ``"1"`` in first-appearance order (the first shot's outcome
    first).  Otherwise each block's rows are built from them at that
    readout, and the rest of the circuits runs over all of the block's
    rows.  An op object that every circuit holds at a position runs once
    over all rows, and any other gate over its own circuit's rows.  A
    readout rotates the rows into their bases in one gate, measures all
    rows in one kernel call, and rotates them back, except at the end of
    the circuits, where no later op reads them; ``_row_keys`` reads each
    row's outcome bits as its key.
    """
    _require_int("shots", shots)
    if shots < 1:
        raise ValueError("shots must be >= 1")
    shapes = {tuple(_readout_qubits(ops)) for ops, _ in circuits}
    if len(shapes) != 1:
        raise ValueError(f"need circuits of one shape, got {len(shapes)}")
    shape, = shapes
    k = len(shape) - shape.count(None)
    columns = list(zip(*(ops for ops, _ in circuits)))
    streams = [RandomStream(seed) for _, seed in circuits]
    counts: list[Counter[str]] = [Counter() for _ in circuits]
    # every copy of a circuit holds one register until its first readout:
    # the ops before it run once, on one row per circuit
    first = next((i for i, qubit in enumerate(shape) if qubit is not None),
                 len(shape))
    start = new_state(n_qubits).amplitudes
    heads = np.broadcast_to(start, (len(circuits), len(start)))
    for ops in columns[:first]:
        heads = _circuit_rows(heads, ops)
    ends = first == len(shape) - 1
    if ends:
        # the first readout ends the circuits: each circuit's one row gives
        # the p0 and p1 that decide all of its draws (the zeros drawn here
        # pick branches that nothing reads)
        _, (p0, p1), _ = _measure_rows(
            _basis_rows(heads, columns[first], 0), shape[first],
            _PROJECTORS, np.zeros(len(circuits)))
        p0, total = p0[:, None], (p0 + p1)[:, None]
    for block in _shot_blocks(shots, len(circuits) * (len(start) + k)):
        size = len(block)
        uniforms = shot_uniforms(streams, block, k).reshape(
            len(circuits) * size, k)
        if ends:
            clicks = _clicks(uniforms.reshape(len(circuits), size), p0,
                             total)
            for tally, row in zip(counts, clicks):
                if not tally:  # the first shot's outcome is the first key
                    tally.update(dict.fromkeys("10" if row[0] else "01", 0))
                ones = int(np.count_nonzero(row))
                tally["1"] += ones
                tally["0"] += size - ones
        else:
            bits = np.empty((len(uniforms), k), dtype=np.uint8)
            amps = np.repeat(heads, size, 0)
            j = 0
            for position in range(first, len(shape)):
                qubit, ops = shape[position], columns[position]
                if qubit is None:
                    amps = _circuit_rows(amps, ops)
                    continue
                amps = _basis_rows(amps, ops, 0)
                bits[:, j], _, amps = _measure_rows(
                    amps, qubit, _PROJECTORS, uniforms[:, j])
                j += 1
                if position < len(shape) - 1:
                    amps = _basis_rows(amps, ops, 1)
            keys = _row_keys(bits)
            for g, tally in enumerate(counts):
                tally.update(keys[g * size:(g + 1) * size])
    # + drops the keys that no shot gave
    return [CountsHistogram(shots=shots, counts=dict(+tally))
            for tally in counts]
