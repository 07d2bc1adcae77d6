"""The verification box: a repeated two-outcome weak measurement of one qubit.

Each iteration of the source paper's circuit couples the system qubit
``alpha|0> + beta|1>`` to a fresh ancilla in |0> through a control-on-zero
Rx(2 theta), then z-measures the ancilla.  Traced over the ancilla, that is
the measurement with Kraus operators

    K0 = diag(cos(theta), 1)          (ancilla reads 0)
    K1 = -i sin(theta) |0><0|         (ancilla reads 1, a "click")

so the per-iteration outcome probabilities are

    p0 = |alpha|^2 cos^2(theta) + |beta|^2
    p1 = |alpha|^2 sin^2(theta)

One iteration is the kernel of :mod:`qlocker.statevector`,
``_measure_rows``, run with K0 and K1 as its Kraus rows on qubit ``k`` of
any register, the same kernel a projective readout runs with the
projectors, so the same box verifies a lone qubit and each qubit of an
entangled password; no ancilla is simulated.  Outcome 0 renormalizes the
qubit toward |1>; a click projects it onto |0> exactly.  |0> and |1> are
fixed points of the whole loop, which is what lets the box discriminate
the zero state from superpositions over many iterations.  The explicit
ancilla circuit is kept where the ancilla itself is measured
(``verify-demo``).

:func:`_box_rows` is the one sampled box: the box on qubit ``k`` of every
row of an ``(R, 2**n)`` array, each row reading its own uniforms, drawn up
front, from its own column on (a strict row that clicked reads none until
its closing readout).  :func:`box_shots` runs it on each qubit of the rows
that ``statevector._shot_rows`` gives, a fresh copy of a register per
shot, for ``converge`` (:func:`box_records`) and the locker; :func:`run_box`
is its one-row call.  :func:`enumerate_trajectories` (the exact oracle) and
:func:`sample_acceptance_runs` (accept/reject only, for ``sweep``) give the
same law without the kernel.

Two click policies are supported.  The default keeps iterating after a click
(the run then accepts, since the system sits in |0>); the strict variant
aborts the run on any click.  Under the default policy the overall acceptance
probability telescopes to exactly |alpha|^2, independent of theta and of the
iteration count; under strict-abort it is |alpha|^2 cos(theta)^(2N).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .rng import RandomStream
from .statevector import (
    NORM_TOL,
    CapacityError,
    Measurement,
    StateVector,
    _measure_rows,
    _n_qubits,
    _readout_rows,
    _row_keys,
    _shot_rows,
)

PAPER_DEFAULT = "paper"
STRICT_ABORT = "strict"
CLICK_POLICIES = (PAPER_DEFAULT, STRICT_ABORT)

DEFAULT_THETA = 0.1
DEFAULT_ITERATIONS = 38

_ENUM_MAX_ITERATIONS = 16
# longest box: a row holds n * (N + 1) uniforms up front
MAX_ITERATIONS = 10_000


@dataclass(frozen=True)
class VerificationParams:
    """Coupling strength, iteration count, and click policy of one box.

    ``iterations`` may be 0, in which case a run degenerates to the closing
    z-measurement alone (used for edge-case reporting), and at most
    :data:`MAX_ITERATIONS`.
    """

    theta: float = DEFAULT_THETA
    iterations: int = DEFAULT_ITERATIONS
    click_policy: str = PAPER_DEFAULT

    def __post_init__(self):
        if not (0.0 < self.theta < math.pi / 2):
            raise ValueError(f"theta must be in (0, pi/2), got {self.theta}")
        if not 0 <= self.iterations <= MAX_ITERATIONS:
            raise ValueError(f"iterations must be in [0, {MAX_ITERATIONS}], "
                             f"got {self.iterations}")
        if self.click_policy not in CLICK_POLICIES:
            raise ValueError(f"unknown click policy {self.click_policy!r}")


@dataclass
class Trajectory:
    """Record of one verification run."""

    ancilla_outcomes: list[int]
    step_p1: list[float]
    final_system_outcome: int
    accepted: bool

    def outcomes_bitstring(self) -> str:
        return "".join("1" if o else "0" for o in self.ancilla_outcomes)

    def clicked(self) -> bool:
        return any(self.ancilla_outcomes)


def trajectory_record(traj: Trajectory, seed: int,
                      params: VerificationParams) -> str:
    """Line export: ``seed,N,theta,outcomes_bitstring,final_bit,accepted``."""
    return (
        f"{seed},{params.iterations},{params.theta:g},"
        f"{traj.outcomes_bitstring()},{traj.final_system_outcome},"
        f"{int(traj.accepted)}"
    )


def _require_single_qubit(system: StateVector):
    if system.n_qubits != 1:
        raise ValueError("the verification box acts on a single-qubit system")


def _weak_step(theta: float) -> np.ndarray:
    """K0 = diag(cos(theta), 1) and K1 = -i sin(theta) |0><0| as the
    kernel's Kraus rows: each one's diagonal entries on the qubit's axis."""
    # the coupling gate's own constants, so that the branch amplitudes and
    # their probabilities are bit for bit those of the ancilla circuit
    return np.array([[math.cos(theta), 1.0], [-1j * math.sin(theta), 0.0]])


# one box on R rows: row r recorded outcomes[r, :steps[r]], with click
# probabilities step_p1[r, :steps[r]], then its closing readout final[r]
BoxRows = namedtuple("BoxRows", "outcomes step_p1 steps final accepted")


def _box_rows(amps: np.ndarray, k: int, params: VerificationParams,
              uniforms: np.ndarray,
              col: np.ndarray) -> tuple[BoxRows, np.ndarray]:
    """The box on qubit ``k`` of every row of ``amps`` (shape ``(R, 2**n)``).

    Row ``r`` draws ``uniforms[r, col[r]]`` and moves ``col[r]`` on by one
    per draw (``col`` is updated in place).  Under the strict policy a row
    that clicks leaves the weak steps: its register is kept bit for bit as
    the click left it, it draws nothing until the closing z readout, which
    runs on every row, and its record ends at the click.  Returns the
    records and the collapsed rows.
    """
    strict = params.click_policy == STRICT_ABORT
    kraus = _weak_step(params.theta)
    rows = np.arange(len(amps))
    # draws[j]: each row's uniform for step j (a clicked row reads no more)
    draws = uniforms.ravel().take(rows * uniforms.shape[1] + col
                                  + np.arange(params.iterations)[:, None])
    # one contiguous row per step, transposed to one row per shot at the end
    outcomes = np.zeros((params.iterations, len(amps)), dtype=np.int8)
    step_p1 = np.empty((params.iterations, len(amps)))
    steps = np.full(len(amps), params.iterations)
    live = np.ones(len(amps), dtype=bool)  # rows still in the weak steps
    if strict:
        held = np.empty(amps.shape, dtype=complex)  # registers at a click
    for j in range(params.iterations):
        click, probs, amps = _measure_rows(amps, k, kraus, draws[j])
        outcomes[j] = click
        step_p1[j] = probs[1]
        if strict:
            stop = live & click
            held[stop] = amps[stop]
            steps[stop] = j + 1
            live &= ~click
            if not live.any():
                break
    if not live.all():  # rows that clicked read out as they clicked
        amps[~live] = held[~live]
    col += steps
    final, _, amps = _readout_rows(amps, Measurement(k), uniforms[rows, col])
    col += 1
    # a strict row that clicked stays live = False, so it is rejected
    return BoxRows(outcomes.T, step_p1.T, steps, final, live & ~final), amps


def _boxes(amps: np.ndarray, params: VerificationParams,
           uniforms: np.ndarray) -> list[BoxRows]:
    """The box on each qubit in turn, row ``r`` reading ``uniforms[r]``."""
    col = np.zeros(len(amps), dtype=np.intp)
    boxes = []
    for k in range(_n_qubits(amps)):
        box, amps = _box_rows(amps, k, params, uniforms, col)
        boxes.append(box)
    return boxes


def box_shots(state: StateVector, params: VerificationParams,
              stream: RandomStream, shots: range) -> Iterator[list[BoxRows]]:
    """The boxes on each qubit of a fresh copy of ``state`` per shot ``i``
    in ``shots``, copy ``i`` reading ``stream.substream(i)`` as
    :func:`run_box` on each qubit in turn does.  The copies are the rows of
    one array; each block of rows' boxes is yielded in shot order."""
    draws = state.n_qubits * (params.iterations + 1)
    for rows, uniforms in _shot_rows(state.amplitudes, stream, shots, draws):
        yield _boxes(rows, params, uniforms)


def box_records(box: BoxRows) -> list[str]:
    """Each row's record as one string: outcome bits, then closing readout."""
    chars = np.column_stack([box.outcomes, box.final]).astype(np.uint8)
    chars[np.arange(len(chars)), box.steps] = box.final  # after a cut
    return _row_keys(chars, (box.steps + 1).tolist())


def _trajectories(box: BoxRows) -> list[Trajectory]:
    """Each row's record as a :class:`Trajectory`."""
    return [Trajectory(o[:cut], p[:cut], f, a) for o, p, cut, f, a in zip(
        box.outcomes.tolist(), box.step_p1.tolist(), box.steps.tolist(),
        box.final.astype(int).tolist(), box.accepted.tolist())]


def run_box(state: StateVector, k: int, params: VerificationParams,
            rng: RandomStream) -> tuple[Trajectory, StateVector]:
    """Run the box on qubit ``k`` of ``state``: N iterations, then a closing
    z-measurement of that qubit.

    The one-row :func:`_box_rows`.  It draws ``N + 1`` uniforms from ``rng``
    up front, so ``rng`` advances by ``N + 1`` even when a strict click
    stops the iterations early; the closing measurement still executes (the
    clicked qubit sits in |0>) but the run is rejected.  Returns the
    trajectory and the collapsed register; ``state`` is left untouched.
    """
    box, amps = _box_rows(
        state.amplitudes[None], k, params,
        rng.randoms(params.iterations + 1)[None], np.zeros(1, dtype=np.intp))
    (trajectory,) = _trajectories(box)
    return trajectory, StateVector(state.n_qubits, amps[0])


def iterate_once(system: StateVector, params: VerificationParams,
                 rng: RandomStream) -> tuple[int, StateVector, float]:
    """One iteration of the box on a single-qubit system.

    Returns ``(outcome, new_system, p1)`` where ``p1`` is the pre-measurement
    click probability of this step.  On a click the system is projected onto
    |0> (up to a global phase).
    """
    _require_single_qubit(system)
    click, probs, amps = _measure_rows(system.amplitudes[None], 0,
                                       _weak_step(params.theta),
                                       rng.randoms(1))
    return int(click[0]), StateVector(1, amps[0]), float(probs[1, 0])


def acceptance_probability(alpha_sq: float,
                           params: VerificationParams) -> float:
    """Exact probability that a run accepts, given P(|0>) of the input.

    Default policy: exactly ``alpha_sq``.  Every clicking path ends in |0>
    and accepts, and the click mass plus the surviving |0> mass telescopes
    back to |alpha|^2.  Strict policy: ``alpha_sq * cos(theta)^(2N)``, the
    probability of surviving all N couplings in the |0> branch.
    """
    if not -NORM_TOL <= alpha_sq <= 1.0 + NORM_TOL:
        raise ValueError(f"alpha_sq must be in [0, 1], got {alpha_sq}")
    if params.click_policy == STRICT_ABORT:
        return alpha_sq * math.cos(params.theta) ** (2 * params.iterations)
    return alpha_sq


def enumerate_trajectories(
        system: StateVector,
        params: VerificationParams) -> list[tuple[Trajectory, float]]:
    """Exact probability of every outcome path and closing measurement.

    Walks the binary tree of ancilla outcomes with unnormalized branch
    amplitudes, so returned probabilities sum to 1 within 1e-12.  Branches of
    exactly zero probability are omitted.  Under the strict policy, paths are
    truncated at their first click, mirroring :func:`run_box`.
    """
    _require_single_qubit(system)
    if params.iterations > _ENUM_MAX_ITERATIONS:
        raise CapacityError(
            f"enumeration supports at most {_ENUM_MAX_ITERATIONS} iterations"
        )
    cos_t = math.cos(params.theta)
    sin_t = math.sin(params.theta)
    sin_sq = sin_t * sin_t
    strict = params.click_policy == STRICT_ABORT
    results: list[tuple[Trajectory, float]] = []

    def emit(outcomes, p1s, final, weight, clicked):
        if weight <= 0.0:
            return
        accepted = final == 0 and not (strict and clicked)
        results.append(
            (Trajectory(list(outcomes), list(p1s), final, accepted), weight)
        )

    def walk(a: complex, b: complex, step: int, outcomes, p1s, clicked):
        if step == params.iterations:
            emit(outcomes, p1s, 0, abs(a) ** 2, clicked)
            emit(outcomes, p1s, 1, abs(b) ** 2, clicked)
            return
        weight = abs(a) ** 2 + abs(b) ** 2
        p1 = sin_sq * abs(a) ** 2 / weight
        outcomes.append(0)
        p1s.append(p1)
        walk(a * cos_t, b, step + 1, outcomes, p1s, clicked)
        outcomes[-1] = 1
        click_amp = -1j * a * sin_t
        if abs(click_amp) > 0.0:
            if strict:
                # aborted run: closing measurement of the collapsed |0>
                emit(outcomes, p1s, 0, abs(click_amp) ** 2, True)
            else:
                walk(click_amp, 0.0, step + 1, outcomes, p1s, True)
        outcomes.pop()
        p1s.pop()

    alpha, beta = system.amplitudes
    walk(complex(alpha), complex(beta), 0, [], [], False)
    return results


def sample_acceptance_runs(alpha_sq: float, params: VerificationParams,
                           runs: int, rng: RandomStream) -> np.ndarray:
    """Boolean accept/reject outcome of ``runs`` independent verification runs.

    Vectorized over runs: each run tracks its current P(|0>), draws per-step
    click outcomes with the exact per-iteration probabilities, and finishes
    with the closing z-measurement.  Statistically identical to repeated
    :func:`run_box` on a single qubit, at array speed.
    """
    if not 0.0 <= alpha_sq <= 1.0:
        raise ValueError(f"alpha_sq must be in [0, 1], got {alpha_sq}")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    sin_sq = math.sin(params.theta) ** 2
    cos_sq = math.cos(params.theta) ** 2
    a2 = np.full(runs, float(alpha_sq))
    clicked = np.zeros(runs, dtype=bool)
    for _ in range(params.iterations):
        p1 = a2 * sin_sq
        click = rng.randoms(runs) < p1
        clicked |= click
        survive_a2 = a2 * cos_sq / (1.0 - p1)
        a2 = np.where(click, 1.0, survive_a2)
    final_zero = rng.randoms(runs) < a2
    if params.click_policy == STRICT_ABORT:
        return final_zero & ~clicked
    return final_zero
