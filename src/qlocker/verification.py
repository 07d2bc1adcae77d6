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

:func:`run_box` applies these operators to qubit ``k`` of any register, so
the same box verifies a lone qubit and each qubit of an entangled password;
no ancilla is simulated.  Outcome 0 renormalizes the qubit toward |1>;
a click projects it onto |0> exactly.  |0> and |1> are fixed points of the
whole loop, which is what lets the box discriminate the zero state from
superpositions over many iterations.  The explicit ancilla circuit is kept
where the ancilla itself is measured (``verify-demo``).

The step and the box work on a leading shot axis, like the kernels of
:mod:`qlocker.statevector`: rows of shape ``(S, 2**n)`` are S registers,
each step takes one uniform per row, and under the strict policy a row
that clicked records nothing more.  :func:`run_box` is the S = 1 call and
draws its uniforms lazily from one stream (the locker shares a stream
across its boxes, and a strict click stops the draws); :func:`run_box_shots`
runs many shots at once, shot ``i`` drawing its N+1 uniforms up front from
sub-stream ``(seed, i)``.

Two click policies are supported.  The default keeps iterating after a click
(the run then accepts, since the system sits in |0>); the strict variant
aborts the run on any click.  Under the default policy the overall acceptance
probability telescopes to exactly |alpha|^2, independent of theta and of the
iteration count; under strict-abort it is |alpha|^2 cos(theta)^(2N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .rng import RandomStream
from .statevector import (
    NORM_TOL,
    CapacityError,
    StateVector,
    _measure_rows,
    _shot_blocks,
)

PAPER_DEFAULT = "paper"
STRICT_ABORT = "strict"
CLICK_POLICIES = (PAPER_DEFAULT, STRICT_ABORT)

DEFAULT_THETA = 0.1
DEFAULT_ITERATIONS = 38

_ENUM_MAX_ITERATIONS = 16


@dataclass(frozen=True)
class VerificationParams:
    """Coupling strength, iteration count, and click policy of one box.

    ``iterations`` may be 0, in which case a run degenerates to the closing
    z-measurement alone (used for edge-case reporting).
    """

    theta: float = DEFAULT_THETA
    iterations: int = DEFAULT_ITERATIONS
    click_policy: str = PAPER_DEFAULT

    def __post_init__(self):
        if not (0.0 < self.theta < math.pi / 2):
            raise ValueError(f"theta must be in (0, pi/2), got {self.theta}")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
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


def _kraus_diagonals(n_qubits: int, k: int, theta: float) -> np.ndarray:
    """K0 and K1 on qubit ``k`` of an n-qubit register, as the rows of a
    ``(2, 2**n)`` array of their diagonals.

    The entries are the coupling gate's own constants, laid out as the
    coupled register's ancilla-0 and ancilla-1 halves, so that the branch
    amplitudes and their probabilities are bit for bit those of the ancilla
    circuit.
    """
    diagonals = np.zeros((2, 1 << n_qubits), dtype=complex)
    view = diagonals.reshape(2, -1, 2, 1 << k)
    view[0, :, 0, :] = complex(math.cos(theta))
    view[0, :, 1, :] = 1.0
    view[1, :, 0, :] = -1j * math.sin(theta)
    return diagonals


def _kraus_rows(amps: np.ndarray, kraus: np.ndarray, uniforms: np.ndarray,
                probs: np.ndarray, click: np.ndarray) -> np.ndarray:
    """One iteration of the box on every row of ``amps``, row ``i`` drawing
    ``uniforms[i]``; returns the renormalized new rows.

    ``kraus`` comes from :func:`_kraus_diagonals`.  Each row's p0 and p1 are
    written to ``probs[0]`` and ``probs[1]`` (shape ``(2, S, 1)``) and
    whether its ancilla clicked to ``click`` (shape ``(S, 1)``); they, and
    the sampled outcome, are those of the ancilla circuit followed by a
    z-measurement of the ancilla.
    """
    branches = kraus[:, None, :] * amps
    np.add.reduce(np.abs(branches) ** 2, axis=2, keepdims=True, out=probs)
    p0 = probs[0]
    p1 = probs[1]
    total = p0 + p1
    np.greater_equal(uniforms[:, None], p0 / total, out=click)
    prob = np.where(click, p1, p0) / total
    new = np.where(click, branches[1], branches[0])
    new /= np.sqrt(prob * total)
    return new


@dataclass
class BoxShots:
    """Runs of one box over a block of shots, one row per shot.

    ``outcomes`` and ``step_p1`` have one column per iteration; past a
    row's ``steps`` (a strict run stops at its first click) they hold 0.
    """

    shots: range
    outcomes: np.ndarray
    step_p1: np.ndarray
    steps: np.ndarray
    final: np.ndarray
    accepted: np.ndarray

    def clicked(self) -> np.ndarray:
        return self.outcomes.any(axis=1)

    def bitstrings(self) -> list[str]:
        """Each row's :meth:`Trajectory.outcomes_bitstring`."""
        chars = self.outcomes + ord("0")
        return [row[:n].tobytes().decode()
                for row, n in zip(chars, self.steps.tolist())]

    def trajectory(self, row: int) -> Trajectory:
        n = int(self.steps[row])
        return Trajectory(self.outcomes[row, :n].tolist(),
                          self.step_p1[row, :n].tolist(),
                          int(self.final[row]), bool(self.accepted[row]))


def _box_rows(amps: np.ndarray, k: int, params: VerificationParams,
              draw: Callable[[int | np.ndarray], np.ndarray],
              shots: range) -> tuple[BoxShots, np.ndarray]:
    """The box on qubit ``k`` of every row: N iterations, then a closing
    z-measurement of that qubit.

    ``draw(j)`` returns each row's uniform number ``j``, where ``j`` is an
    int or one index per row.  Returns the records and the collapsed rows.
    """
    rows, size = amps.shape
    n_qubits = size.bit_length() - 1
    if not 0 <= k < n_qubits:
        raise IndexError(f"qubit {k} out of range")
    n = params.iterations
    strict = params.click_policy == STRICT_ABORT
    kraus = _kraus_diagonals(n_qubits, k, params.theta)
    probs = np.zeros((n, 2, rows, 1))
    clicks = np.zeros((n, rows, 1), dtype=bool)
    live = np.ones((rows, 1), dtype=bool)
    for j in range(n):
        amps = _kraus_rows(amps, kraus, draw(j), probs[j], clicks[j])
        if strict and not live.all():
            # a row that clicked records nothing more.  Its qubit k is
            # exactly |0>, which both Kraus operators keep up to a phase, so
            # its closing measurement reads 0 however many steps it takes
            clicks[j] &= live
            probs[j][:, ~live[:, 0]] = 0.0
        if strict:
            live &= ~clicks[j]
            if not live.any():
                break
    outcomes = clicks[:, :, 0].T.view(np.uint8)
    step_p1 = probs[:, 1, :, 0].T
    clicked = outcomes.any(axis=1)
    taken = np.full(rows, n)
    if strict and clicked.any():  # a strict run stops at its first click
        taken[clicked] = outcomes[clicked].argmax(axis=1) + 1
    final, _, amps = _measure_rows(amps, k, "z", draw(taken))
    accepted = (final == 0) & ~(clicked & strict)
    return BoxShots(shots, outcomes, step_p1, taken, final, accepted), amps


def run_box(state: StateVector, k: int, params: VerificationParams,
            rng: RandomStream) -> tuple[Trajectory, StateVector]:
    """Run the box on qubit ``k`` of ``state``: N iterations, then a closing
    z-measurement of that qubit.

    Each iteration draws one uniform.  Under the strict policy a click stops
    the iteration loop; the closing measurement still executes (the clicked
    qubit sits in |0>, so it is deterministic) but the run is rejected.
    Returns the trajectory and the collapsed register; ``state`` itself is
    left untouched.
    """
    runs, amps = _box_rows(state.amplitudes[None], k, params,
                           lambda j: rng.randoms(1), range(1))
    return runs.trajectory(0), StateVector(state.n_qubits, amps[0])


def run_box_shots(state: StateVector, k: int, params: VerificationParams,
                  shots: int, root: RandomStream) -> Iterator[BoxShots]:
    """Run the box on qubit ``k`` of ``shots`` copies of ``state``.

    Shot ``i`` draws its N+1 uniforms up front from ``root.substream(i)``
    and matches :func:`run_box` on that sub-stream.  Yields the records of
    one block of shots at a time, in shot order.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    size = state.amplitudes.size
    draws = params.iterations + 1
    for block in _shot_blocks(shots, size + draws):
        uniforms = root.shot_uniforms(block, draws)
        index = np.arange(len(block))
        amps = np.broadcast_to(state.amplitudes, (len(block), size))
        runs, _ = _box_rows(amps, k, params, lambda j: uniforms[index, j],
                            block)
        yield runs


def iterate_once(system: StateVector, params: VerificationParams,
                 rng: RandomStream) -> tuple[int, StateVector, float]:
    """One iteration of the box on a single-qubit system.

    Returns ``(outcome, new_system, p1)`` where ``p1`` is the pre-measurement
    click probability of this step.  On a click the system is projected onto
    |0> (up to a global phase).
    """
    _require_single_qubit(system)
    probs = np.empty((2, 1, 1))
    click = np.empty((1, 1), dtype=bool)
    amps = _kraus_rows(system.amplitudes[None],
                       _kraus_diagonals(1, 0, params.theta), rng.randoms(1),
                       probs, click)
    return int(click[0, 0]), StateVector(1, amps[0]), float(probs[1, 0, 0])


def run_verification(system: StateVector, params: VerificationParams,
                     rng: RandomStream) -> Trajectory:
    """Full run of the box on a single-qubit system; see :func:`run_box`."""
    _require_single_qubit(system)
    return run_box(system, 0, params, rng)[0]


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
    truncated at their first click, mirroring :func:`run_verification`.
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


def perturbation_step(alpha: complex, beta: complex,
                      theta: float) -> tuple[complex, complex]:
    """Exact renormalized collapse after a no-click iteration.

    ``alpha' = alpha cos(theta)/sqrt(p0)``, ``beta' = beta/sqrt(p0)`` with
    ``p0 = |alpha cos(theta)|^2 + |beta|^2``.  |alpha'| <= |alpha| and
    |beta'| >= |beta|, strictly when both amplitudes are nonzero.
    """
    norm = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"input state not normalized (norm^2 = {norm})")
    a = alpha * math.cos(theta)
    p0 = abs(a) ** 2 + abs(beta) ** 2
    root = math.sqrt(p0)
    return a / root, beta / root


def sample_acceptance_runs(alpha_sq: float, params: VerificationParams,
                           runs: int, rng: RandomStream) -> np.ndarray:
    """Boolean accept/reject outcome of ``runs`` independent verification runs.

    Vectorized over runs: each run tracks its current P(|0>), draws per-step
    click outcomes with the exact per-iteration probabilities, and finishes
    with the closing z-measurement.  Statistically identical to repeated
    :func:`run_verification`, at array speed.
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
