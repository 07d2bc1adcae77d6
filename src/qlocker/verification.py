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

The box reads K0 and K1 off the coupling gate itself,
``gates.build_controlled0_rx``: column 0 of its matrix holds the ancilla's
amplitudes when the system is |0> (:func:`_weak_step`), so the coupling
is written once and a change to it moves the box and the ancilla circuit
together.  The exact laws below (:func:`acceptance_probability`,
:func:`record_probability`) stay written out, as references.

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
front.  Each step writes its rows' outcomes at that step (a strict step
only its clicks, into zeroed outcomes); under the strict policy a row that
clicks is written as it clicks, its register once into the box's collapsed
rows, and leaves the steps.  The draw layout is fixed:
box ``k`` reads its weak steps from columns ``k(N+1)`` to ``k(N+1) + N - 1``
and its closing readout from column ``k(N+1) + N``, whatever earlier boxes
did (a strict row that clicked leaves the rest of its box's window unread).
So the boxes of separate parts of a password are independent, and a shot
of an n-qubit password reads ``n(N + 1)`` uniforms, a count written once,
in :func:`_shot_draws`, which :func:`box_shots` and the locker read.
:func:`_boxes` takes every password, a register or a
:class:`~qlocker.statevector.ProductState`, in one layout: P parts of w
qubits (``statevector._parts``), one part of n qubits for a register, n
parts of one qubit for a product.  Box ``k`` runs on qubit ``k`` of all the
part rows at once, so a register's n boxes run one after another and a
product's as one :func:`_box_rows` call over one-qubit rows.
:func:`box_shots` runs :func:`_boxes` on the rows that
``statevector._shot_rows`` gives, a fresh copy of a password per shot, for
``converge`` (:func:`box_records`); the locker runs :func:`_boxes` on the
same rows, with a presented password as row 0 of the first block
(``locker.attempt_unlocks``), and :func:`run_box` is the one-row call.
The results stay arrays, one entry per row (``BoxRows``), up to the
report: a :class:`Trajectory` is built only for a row read out on its own
(:func:`run_box`, and the attempts a locker report prints).
:func:`record_probability` (the exact law of a whole record, in closed
form) and :func:`sample_acceptance_runs` (accept/reject only, for
``sweep``) give the same law without the kernel.  They and
:func:`acceptance_probability` read the input's P(|0>) through
``statevector._clamp_p0``, so a rounding error past [0, 1] reads as its
end.

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

from .gates import build_controlled0_rx
from .rng import RandomStream
from .statevector import (
    _PROJECTORS,
    ProductState,
    StateVector,
    _clamp_p0,
    _measure_rows,
    _parts,
    _row_keys,
    _shot_rows,
)

PAPER_DEFAULT = "paper"
STRICT_ABORT = "strict"
CLICK_POLICIES = (PAPER_DEFAULT, STRICT_ABORT)

DEFAULT_THETA = 0.1
DEFAULT_ITERATIONS = 38

# longest box: a shot of an n-qubit password holds its n * (N + 1)
# uniforms (``_shot_draws``) up front
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
    """Record of one verification run: its weak-step outcomes (cut at the
    click under the strict policy), its closing readout and whether it
    accepted."""

    ancilla_outcomes: list[int]
    final_system_outcome: int
    accepted: bool

    def outcomes_bitstring(self) -> str:
        return "".join("1" if o else "0" for o in self.ancilla_outcomes)


def trajectory_record(traj: Trajectory, seed: int,
                      params: VerificationParams) -> str:
    """Line export: ``seed,N,theta,outcomes_bitstring,final_bit,accepted``."""
    return (
        f"{seed},{params.iterations},{params.theta:g},"
        f"{traj.outcomes_bitstring()},{traj.final_system_outcome},"
        f"{int(traj.accepted)}"
    )


def _weak_step(theta: float) -> np.ndarray:
    """K0 = diag(m00, 1) and K1 = diag(m10, 0) as the kernel's Kraus rows,
    each one's diagonal entries on the qubit's axis, ``(m00, m10)`` being
    column 0 of the coupling gate's matrix: the ancilla's amplitudes when
    the system is |0>, ``(cos(theta), -i sin(theta))``.  When the system
    is |1> the gate leaves the ancilla in |0>, hence ``(1, 0)``."""
    # read off the gate itself, so that the coupling is written once and
    # the branch amplitudes and their probabilities are bit for bit those
    # of the ancilla circuit
    return np.stack([build_controlled0_rx(theta).matrix[:, 0], [1, 0]], -1)


# one box on R rows: row r recorded outcomes[r, :steps[r]], then its
# closing readout final[r]
BoxRows = namedtuple("BoxRows", "outcomes steps final accepted")


def _box_rows(amps: np.ndarray, k: int, params: VerificationParams,
              uniforms: np.ndarray) -> tuple[BoxRows, np.ndarray]:
    """The box on qubit ``k`` of every row of ``amps`` (shape ``(R, 2**n)``),
    row ``r`` reading its window ``uniforms[r]`` of ``N + 1`` draws.

    Weak step ``j`` reads column ``j`` and the closing z readout, which runs
    on every row, reads the last column.  Each step is one kernel call over
    the rows still in the weak steps, and it reads their draws from column
    ``j``, a contiguous row when ``uniforms`` is the ``.T`` view of a
    shot-last array.  Under the paper policy it writes every row's outcome
    at step ``j``; under the strict policy only the clicks, which write a 1
    into the zeroed outcomes.  A strict row that clicks leaves the weak
    steps: its register is written once, as the click left it, into the
    shot-last array of collapsed rows, the later steps run on the other
    rows only, the rest of its steps' columns go unread, and its record
    ends at the click; its entries of ``outcomes`` after the click stay 0.
    Returns the records, arrays with one entry per row, and the collapsed
    rows.
    """
    strict = params.click_policy == STRICT_ABORT
    kraus = _weak_step(params.theta)
    # one contiguous row per step, transposed to one row per shot at the end
    outcomes = np.zeros((params.iterations, len(amps)), dtype=np.int8)
    steps = np.full(len(amps), params.iterations)
    # the rows in the weak steps: all of them, or the strict box's indices.
    # Dropping clicked rows pays on long boxes: a 1000-step strict box on
    # 8192 |+> rows at theta 0.1 takes 151-213 ms, against 234-332 ms when
    # the clicked rows stay in the kernel on a draw of 0, a variant only
    # about 10% faster at 128 rows x 38 steps (shared 2-core Xeon)
    live = np.arange(len(amps)) if strict else slice(None)
    # the strict box's collapsed rows, shot axis last: each row written as
    # it clicks, the rows that never click after the steps
    held = np.empty((amps.shape[1], len(amps) if strict else 0), complex)
    for j in range(params.iterations):
        click, _, amps = _measure_rows(amps, k, kraus, uniforms[:, j][live])
        if not strict:
            outcomes[j] = click
        elif np.count_nonzero(click):
            hit, keep = np.flatnonzero(click), np.flatnonzero(~click)
            outcomes[j, live[hit]] = 1
            steps[live[hit]] = j + 1
            held[:, live[hit]] = amps.T[:, hit]
            live, amps = live[keep], np.take(amps.T, keep, axis=1).T
            if not len(live):
                break
    if strict:
        held[:, live] = amps.T
        amps = held.T
    final, _, amps = _measure_rows(amps, k, _PROJECTORS, uniforms[:, -1])
    # a strict row that clicked is rejected
    accepted = np.zeros(len(steps), dtype=bool)
    accepted[live] = ~final[live]
    return BoxRows(outcomes.T, steps, final, accepted), amps


def _boxes(amps: np.ndarray, params: VerificationParams,
           uniforms: np.ndarray) -> list[BoxRows]:
    """The box on each password qubit ``q``, row ``r`` of box ``q`` reading
    columns ``q(N+1)`` to ``q(N+1) + N`` of ``uniforms[r]``, whatever the
    other boxes did.

    ``amps`` (shape ``(R, P, 2**w)``) holds R passwords as P parts of w
    qubits, qubit ``q`` being qubit ``q % w`` of part ``q // w``
    (``statevector._parts``).  Box ``k`` runs on qubit ``k`` of all
    ``R * P`` part rows at once, one box after another: n boxes on a
    register's one part, one box on a product's n one-qubit parts.  Part
    row ``(r, p)`` reads window ``p * w + k`` of ``uniforms[r]``, and box
    ``(p, k)`` is its rows ``[p::P]``.  Each box's windows are gathered
    into one shot-last ``(N + 1, R * P)`` array, a view of ``uniforms.T``
    for a register, so that every step reads one contiguous row of draws.
    """
    count, parts, _ = amps.shape
    amps = amps.reshape(count * parts, -1)
    # window (p, k) of shot r, column j to row j, column r * P + p of box k
    windows = uniforms.T.reshape(parts, -1, params.iterations + 1, count)
    boxes = []
    for k, window in enumerate(windows.transpose(1, 2, 3, 0)):
        box, amps = _box_rows(amps, k, params, window.reshape(
            params.iterations + 1, -1).T)
        boxes.append(box)
    return [BoxRows(*(rows[p::parts] for rows in box))
            for p in range(parts) for box in boxes]


def _shot_draws(n_qubits: int, params: VerificationParams) -> int:
    """The uniforms a shot of an n-qubit password reads, ``n * (N + 1)``:
    one window of ``N + 1`` per box, as :func:`_boxes` lays them out."""
    return n_qubits * (params.iterations + 1)


def box_shots(state: StateVector | ProductState, params: VerificationParams,
              stream: RandomStream, shots: range) -> Iterator[list[BoxRows]]:
    """The boxes on each qubit of a fresh copy of ``state`` per shot ``i``
    in ``shots``, copy ``i`` reading ``stream.substream(i)`` as
    :func:`run_box` on each qubit in turn does.  The copies are the rows of
    one array, each held as its parts (see :func:`_boxes`); each block of
    rows' boxes is yielded in shot order."""
    for rows, uniforms in _shot_rows(_parts(state), [stream], shots,
                                     _shot_draws(state.n_qubits, params)):
        yield _boxes(rows, params, uniforms)


def box_records(box: BoxRows) -> list[str]:
    """Each row's record as one string: outcome bits, then closing readout."""
    chars = np.column_stack([box.outcomes, box.final]).astype(np.uint8)
    chars[np.arange(len(chars)), box.steps] = box.final  # after a cut
    return _row_keys(chars, (box.steps + 1).tolist())


def _trajectory(box: BoxRows, row: int) -> Trajectory:
    """Row ``row``'s record as a :class:`Trajectory`."""
    return Trajectory(box.outcomes[row, :box.steps[row]].tolist(),
                      int(box.final[row]), bool(box.accepted[row]))


def run_box(state: StateVector, k: int, params: VerificationParams,
            rng: RandomStream) -> tuple[Trajectory, StateVector]:
    """Run the box on qubit ``k`` of ``state``: N iterations, then a closing
    z-measurement of that qubit.

    The one-row :func:`_box_rows`.  It draws ``N + 1`` uniforms from ``rng``
    up front: step ``j`` reads the ``j``-th and the closing measurement the
    last, so ``rng`` advances by ``N + 1`` even when a strict click stops
    the iterations early; the closing measurement still executes (the
    clicked qubit sits in |0>) but the run is rejected.  Returns the
    trajectory and the collapsed register; ``state`` is left untouched.
    """
    box, amps = _box_rows(state.amplitudes[None], k, params,
                          rng.randoms(params.iterations + 1)[None])
    return _trajectory(box, 0), StateVector(state.n_qubits, amps[0])


def acceptance_probability(alpha_sq: float,
                           params: VerificationParams) -> float:
    """Exact probability that a run accepts, given P(|0>) of the input.

    Default policy: exactly ``alpha_sq``.  Every clicking path ends in |0>
    and accepts, and the click mass plus the surviving |0> mass telescopes
    back to |alpha|^2.  Strict policy: ``alpha_sq * cos(theta)^(2N)``, the
    probability of surviving all N couplings in the |0> branch.
    """
    alpha_sq = _clamp_p0(alpha_sq)
    if params.click_policy == STRICT_ABORT:
        return alpha_sq * math.cos(params.theta) ** (2 * params.iterations)
    return alpha_sq


def record_probability(record: str, alpha_sq: float,
                       params: VerificationParams) -> float:
    """Exact probability that the box on ``alpha|0> + beta|1>``, with
    ``|alpha|^2 = alpha_sq``, writes ``record`` as :func:`box_records` does:
    its weak-step bits, then its closing readout.

    The qubit stays ``(alpha cos^j(theta), beta)`` until its first click and
    sits in |0> after it, so in O(N):

    - no click: the readout gives 0 with ``alpha_sq * cos(theta)^(2N)``, the
      strict policy's :func:`acceptance_probability`, and 1 with
      ``1 - alpha_sq``;
    - a first click at step ``j``: ``alpha_sq cos^(2j)(theta) sin^2(theta)``,
      then each later step clicks with ``sin^2(theta)`` on its own and the
      readout gives 0.  The strict policy cuts the record at the click.

    A record no box writes, of the wrong length or with a 1 read out after a
    click, has probability 0.0.
    """
    if not record or record.strip("01"):
        raise ValueError(f"a record is a string of 0s and 1s, got {record!r}")
    alpha_sq = _clamp_p0(alpha_sq)
    steps, final = record[:-1], record[-1]
    first = steps.find("1")
    strict_click = first >= 0 and params.click_policy == STRICT_ABORT
    if len(steps) != (first + 1 if strict_click else params.iterations):
        return 0.0
    if final == "1":
        return 1.0 - alpha_sq if first < 0 else 0.0
    clicks = steps.count("1")
    # a quiet step weighs cos^2 and a click sin^2, on alpha's branch up to
    # the first click and on |0> after it
    return (alpha_sq * math.cos(params.theta) ** (2 * (len(steps) - clicks))
            * math.sin(params.theta) ** (2 * clicks))


def sample_acceptance_runs(alpha_sq: float, params: VerificationParams,
                           runs: int, rng: RandomStream) -> np.ndarray:
    """Boolean accept/reject outcome of ``runs`` independent verification runs.

    A run that has not clicked has P(|0>) ``a2``: it clicks at a step when
    its draw is below ``p1 = a2 * sin^2(theta)``, and otherwise moves to
    ``a2 * cos^2(theta) / (1 - p1)``.  Every such run has gone through the
    same steps from the same ``alpha_sq``, so all of them share one ``a2``
    chain, one float per step.  A run that clicked sits in |0>: the strict
    policy rejects it and the paper policy accepts it, whatever it draws
    next.  So the runs keep only a click mask, and the closing
    z-measurement accepts a run that never clicked when its last draw is
    below ``a2``.  Statistically identical to repeated :func:`run_box` on a
    single qubit, at array speed.  Each test is :meth:`RandomStream.below`,
    ``randoms(runs) < p`` read off the raw words.

    Draws are step-major: step ``j`` takes ``runs`` draws and the closing
    readout ``runs`` more, so ``rng`` advances by ``runs * (N + 1)`` under
    either policy.  This is the one exception to the per-shot draw contract:
    run ``i``'s draws come from one stream per call and depend on ``runs``,
    not from sub-stream ``i``.  Drawing each run's numbers from its own
    sub-stream with ``shot_uniforms`` takes about ten times as long.
    """
    a2 = _clamp_p0(alpha_sq)
    if runs < 1:
        raise ValueError("runs must be >= 1")
    sin_sq = math.sin(params.theta) ** 2
    cos_sq = math.cos(params.theta) ** 2
    clicked = np.zeros(runs, dtype=bool)
    for _ in range(params.iterations):
        p1 = a2 * sin_sq
        clicked |= rng.below(p1, runs)
        # at p1 >= 1 every run clicks (draws are below 1), so the chain
        # has no survivor to follow
        a2 = a2 * cos_sq / (1.0 - p1) if p1 < 1.0 else 1.0
    final = rng.below(a2, runs)
    if params.click_policy == STRICT_ABORT:
        return final & ~clicked
    return final | clicked
