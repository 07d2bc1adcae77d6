"""Reference implementations kept as test oracles.

``reference_shot_uniforms`` builds one numpy generator per shot, as
:meth:`qlocker.RandomStream.shot_uniforms` must reproduce without one.
``reference_sample_shots`` runs a circuit one shot at a time, each shot
drawing lazily from its own sub-stream, as the shot-batched
:func:`qlocker.sample_shots` must reproduce.

The library runs the verification box as a two-outcome Kraus step on the
password qubit and releases the message by the classical rule the transfer
computes.  These oracles do the same jobs the literal way, as the circuit
the protocol describes: one shared ancilla coupled to each password qubit
by a control-on-zero Rx(2 theta), measured, and reset after every click;
then an (n + 2m)-qubit transfer register in which m multi-controlled NOTs
copy the message to blank qubits only if every measured password qubit
reads 0.  Keep them small: the transfer register is exponential in m.

``reference_unlocks`` presents copies of one probe one ``attempt_unlock``
at a time, each on its own sub-stream, as the row-batched
:func:`qlocker.attempt_unlocks` must reproduce.

``reference_rotation`` rotates a password one qubit at a time, three
gates on one part each, as the per-part gates of
:func:`qlocker.apply_rotation` and :func:`qlocker.apply_inverse_rotation`
must reproduce.

``reference_acceptance_runs`` is ``sweep``'s accept/reject sampler under
one click policy, as one P(|0>) per run, every step a fresh set of
arrays; the row of that policy in
:func:`qlocker.verification.sample_acceptance_runs`, one pass on one
shared chain and a click mask, must reproduce it from the same draws.

``weak_steps`` replays the box's weak steps on qubit ``k`` of every row
of an n-qubit array, one kernel call per step on the box's own draws, and
returns each step's P(click): run on the state ``ancilla_boxes`` holds
before each coupling, it must give the P(1) that the coupling circuit
gives its ancilla, bit for bit.
``iterate_once`` is its one-row, one-step call on a single-qubit system.
``perturbation_step`` is the closed-form no-click collapse of one box
iteration, and ``otp_consumed_check`` tells whether a presented password
register has been measured out.

No command runs the helpers below, so they live here, beside the tests
that use them:

- ``unitary`` (with ``is_unitary`` and ``UNITARY_TOL``) makes a gate of any
  checked 2x2 unitary, for ``test_gates.TestMatrices`` and
  ``TestGateOpValidation::test_nonunitary_matrix_rejected``.
- ``decompose_controlled0_rx`` is the coupling gate as single-qubit gates
  and CNOTs, which acceptance criterion 1 and
  ``test_gates.TestDecomposition`` compare with the direct gate.
- ``gate_matrix`` and ``sequence_matrix`` build full matrices from
  ``np.kron`` of one-qubit factors, not from the gate kernel, and
  ``phase_aligned_distance`` compares matrices or states modulo global
  phase: ``test_gates``, acceptance criteria 1 and 8,
  ``test_locker`` and ``test_verification``.
- ``enumerate_teleport_branches`` forces all four measurement branches of
  the sender's circuit and applies the receiver's correction itself, for
  acceptance criterion 7 and
  ``test_teleport::test_teleport_rotated_state_all_branches``.
- ``qubit_probabilities`` and ``overlap`` probe a register's z
  populations and its fidelity with another: ``ancilla_boxes`` and
  ``otp_consumed_check`` here, ``test_teleport``, ``test_statevector``,
  ``test_locker``, ``test_verification``, ``test_oracles`` and criterion 7.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from qlocker import (
    STRICT_ABORT,
    GateOp,
    Measurement,
    RandomStream,
    StateVector,
    Trajectory,
    apply_gate,
    apply_inverse_rotation,
    attempt_unlock,
    basis_state,
    build_controlled0_rx,
    cnot,
    combine,
    make_bell_pair,
    measure_qubit,
    new_state,
    rx,
    ry,
    rz,
    x,
    z,
)
from qlocker.statevector import _measure_rows, _parts
from qlocker.teleport import _sender_circuit
from qlocker.verification import _weak_step

UNITARY_TOL = 1e-10


def is_unitary(m, tol=UNITARY_TOL):
    """Whether ``m`` is square and ``m^dagger m`` is the identity to within
    ``tol`` in every entry."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (m.shape[0], m.shape[0]):
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < tol)


def unitary(matrix, target, controls=()):
    """A :class:`qlocker.GateOp` of any 2x2 unitary ``matrix``, checked and
    stored read-only, as the shipped constructors store theirs."""
    m = np.array(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not is_unitary(m):
        raise ValueError("matrix is not unitary within tolerance")
    m.flags.writeable = False
    return GateOp(target, m, controls)


def decompose_controlled0_rx(theta, control=0, target=1):
    """The gate :func:`qlocker.build_controlled0_rx` makes, as single-qubit
    gates and CNOTs.

    Uses the A/CNOT/B/CNOT/C controlled-rotation construction with
    ``A = Rz(-pi/2) Ry(theta)``, ``B = Ry(-theta)``, ``C = Rz(pi/2)``, and
    the control conjugated by X to flip its polarity.  The composed matrix
    equals the direct gate exactly (both live in SU(2), so no residual
    phase).
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


def gate_matrix(gate, n_qubits):
    """Full 2^n x 2^n matrix of ``gate`` on an n-qubit register, built from
    ``np.kron`` of one-qubit factors without running the gate kernel.

    Qubit k is bit k of the basis index, so qubit n - 1 is the leftmost
    factor.  With P the product of the projectors onto each control's
    value, the gate is I - P + P (x) U, U acting on the target."""
    def kron(factors):  # factors[k] acts on qubit k, the identity elsewhere
        out = np.eye(1)
        for k in reversed(range(n_qubits)):
            out = np.kron(out, factors.get(k, np.eye(2)))
        return out

    on = {q: np.diag([1.0 - v, float(v)]) for q, v in gate.controls}
    return (np.eye(1 << n_qubits) - kron(on)
            + kron({**on, gate.target: gate.base_matrix()}))


def sequence_matrix(gates, n_qubits):
    """Matrix of a gate list applied in order (first gate acts first)."""
    out = np.eye(1 << n_qubits, dtype=complex)
    for g in gates:
        out = gate_matrix(g, n_qubits) @ out
    return out


def phase_aligned_distance(a, b):
    """Max entrywise |a - e^{i phi} b| with phi chosen to maximize overlap."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    inner = np.vdot(b, a)
    if abs(inner) > 1e-300:
        b = b * (inner / abs(inner))
    return float(np.max(np.abs(a - b)))


def qubit_probabilities(state, qubit):
    """(P(qubit=0), P(qubit=1)) in the computational basis."""
    if not 0 <= qubit < state.n_qubits:
        raise IndexError(f"qubit {qubit} out of range")
    probs = (np.abs(state.amplitudes) ** 2).reshape(1, -1, 2, 1 << qubit)
    return (float(probs[:, :, 0, :].sum(axis=(1, 2))[0]),
            float(probs[:, :, 1, :].sum(axis=(1, 2))[0]))


def overlap(a, b):
    """|<a|b>|^2 of two registers of one width."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("states have different widths")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def enumerate_teleport_branches(psi):
    """All four (m1, m2) branches of teleporting the one-qubit ``psi``,
    ``{(m1, m2): (probability, corrected received state)}``.

    Each branch is forced by projection instead of sampled, and no channel
    is consumed.  The receiver's two amplitudes in branch ``(m1, m2)`` sit
    at basis indices ``m1 + 2 m2`` and ``m1 + 2 m2 + 4`` of the sender's
    circuit; the correction is X if ``m2``, then Z if ``m1``.
    """
    joint = _sender_circuit(psi, make_bell_pair())
    branches = {}
    for m1 in (0, 1):
        for m2 in (0, 1):
            base = m1 + (m2 << 1)
            block = joint.amplitudes[[base, base + 4]]
            prob = float(np.vdot(block, block).real)
            received = StateVector(1, block / np.sqrt(prob))
            if m2:
                received = apply_gate(received, x(0))
            if m1:
                received = apply_gate(received, z(0))
            branches[(m1, m2)] = (prob, received)
    return branches


def reference_shot_uniforms(stream, shots, k):
    """Row ``j``: ``stream.substream(shots[j]).randoms(k)``, one sub-stream
    (``SeedSequence``, ``Philox``, ``Generator``) per shot."""
    rows = [stream.substream(i).randoms(k) for i in shots]
    return np.array(rows, dtype=np.float64).reshape(len(shots), k)


def reference_sample_shots(n_qubits, ops, shots, seed, order=None):
    """Counts of ``sample_shots``, one shot at a time in ``order`` (default
    ``range(shots)``), shot ``i`` drawing lazily from sub-stream
    ``(seed, i)``."""
    root = RandomStream(seed)
    counts = Counter()
    for shot in range(shots) if order is None else order:
        rng = root.substream(shot)
        state = new_state(n_qubits)
        bits = []
        for op in ops:
            if isinstance(op, Measurement):
                outcome, _, state = measure_qubit(state, op.qubit, op.basis,
                                                  rng)
                bits.append(str(outcome))
            else:
                state = apply_gate(state, op)
        counts["".join(bits)] += 1
    return dict(counts)


def reference_unlocks(locker, probe, stream, shots):
    """Results of ``attempt_unlocks``, one fresh copy of ``probe`` per shot
    index ``i``, each unlocked alone on sub-stream ``i`` of ``stream``."""
    return [attempt_unlock(locker, probe.copy(), stream.substream(i))
            for i in shots]


def reference_rotation(state, params, inverse=False):
    """R (or, with ``inverse``, R^-1) applied one password qubit at a time:
    three ``apply_gate`` calls on qubit ``q % w`` of part ``q // w`` of the
    ``(P, 2**w)`` layout (``statevector._parts``), as the per-part gates of
    ``apply_rotation`` and ``apply_inverse_rotation`` must reproduce."""
    state = state.copy()
    parts = _parts(state)
    width = parts.shape[1].bit_length() - 1
    for q, (t1, t2, t3) in enumerate(params.triples):
        k = q % width
        part = StateVector(width, parts[q // width])
        for gate in ((rz(-t3, k), ry(-t2, k), rx(-t1, k)) if inverse
                     else (rx(t1, k), ry(t2, k), rz(t3, k))):
            part = apply_gate(part, gate)
        parts[q // width] = part.amplitudes
    return state


def ancilla_boxes(reg, qubits, verification, rng):
    """One verification box per password qubit in ``qubits``, in order.

    ``reg`` holds the n password qubits plus one shared ancilla at index n,
    reset to |0> (conditional flip) after every readout.  Each box takes
    the next N + 1 draws of ``rng``, one per step and then its closing
    readout.  Returns the per-qubit trajectories, each box's steps as
    ``(inputs, p1s)``, the password qubits' amplitudes before each coupling
    (shape ``(steps, 2**n)``, the ancilla then in |0>) and the ancilla's
    P(1) after it, the final outcomes and the final register.
    """
    n = reg.n_qubits - 1
    theta = verification.theta
    strict = verification.click_policy == STRICT_ABORT
    trajectories, steps, finals = [], [], []
    for k in qubits:
        gate = build_controlled0_rx(theta, control=k, target=n)
        outcomes, inputs, p1s = [], [], []
        for _ in range(verification.iterations):
            inputs.append(reg.amplitudes[:1 << n])
            reg = apply_gate(reg, gate)
            p1s.append(qubit_probabilities(reg, n)[1])
            outcome, _, reg = measure_qubit(reg, n, "z", rng)
            outcomes.append(outcome)
            if outcome == 1:
                reg = apply_gate(reg, x(n))  # ancilla reset for reuse
                if strict:
                    break
        # an aborted strict box skips its unread draws: the closing
        # readout takes the box's last draw, whatever the steps did
        rng.randoms(verification.iterations - len(outcomes))
        final, _, reg = measure_qubit(reg, k, "z", rng)
        clicked = any(outcomes)
        accepted = final == 0 and not (strict and clicked)
        trajectories.append(Trajectory(outcomes, final, accepted))
        steps.append((np.reshape(inputs, (-1, 1 << n)), p1s))
        finals.append(final)
    return trajectories, steps, finals, reg


def gate_transfer(finals, message_bits, rng):
    """Copy the message to blanks through m multi-controlled NOTs, measure."""
    n, m = len(finals), len(message_bits)
    message = new_state(m)
    for i, c in enumerate(message_bits):
        if c == "1":
            message = apply_gate(message, x(i))
    # transfer register: password outcomes | message qubits | blanks
    transfer = combine(basis_state(finals), combine(message, new_state(m)))
    zero_controls = tuple((k, 0) for k in range(n))
    for i in range(m):
        controls = zero_controls + ((n + i, 1),)
        transfer = apply_gate(transfer, x(n + m + i, controls=controls))
    bits = []
    for i in range(m):
        outcome, _, transfer = measure_qubit(transfer, n + m + i, "z", rng)
        bits.append("1" if outcome else "0")
    return "".join(bits)


def reference_unlock(message_bits, params, verification, password, rng):
    """``(accepted, retrieved, trajectories, finals)`` of one unlock attempt.

    Leaves ``password`` untouched.  With the strict policy any click aborts
    before the transfer.
    """
    phi = apply_inverse_rotation(password, params)
    reg = combine(phi, new_state(1))
    trajectories, _, finals, _ = ancilla_boxes(reg, range(params.n_qubits),
                                               verification, rng)
    accepted = all(t.accepted for t in trajectories)
    strict = verification.click_policy == STRICT_ABORT
    if strict and any(any(t.ancilla_outcomes) for t in trajectories):
        retrieved = "0" * len(message_bits)
    else:
        retrieved = gate_transfer(finals, message_bits, rng)
    return accepted, retrieved, trajectories, finals


def reference_acceptance_runs(alpha_sq, params, runs, rng):
    """Accept array of ``runs`` verification runs of a qubit with P(|0>) =
    ``alpha_sq``, each run tracking its own P(|0>) ``a2``, which a click
    sets to 1 for good (the qubit sits in |0>); step ``j`` draws
    ``rng.randoms(runs)`` and the closing readout one more."""
    sin_sq = math.sin(params.theta) ** 2
    cos_sq = math.cos(params.theta) ** 2
    a2 = np.full(runs, float(alpha_sq))
    clicked = np.zeros(runs, dtype=bool)
    for _ in range(params.iterations):
        p1 = a2 * sin_sq
        clicked |= rng.randoms(runs) < p1
        # where sin^2(theta) rounds to 1 a run at a2 = 1 divides by 0; it
        # clicks for sure, so np.where drops its inf
        with np.errstate(divide="ignore"):
            survive_a2 = a2 * cos_sq / (1.0 - p1)
        a2 = np.where(clicked, 1.0, survive_a2)
    final_zero = rng.randoms(runs) < a2
    if params.click_policy == STRICT_ABORT:
        return final_zero & ~clicked
    return final_zero


def weak_steps(amps, k, theta, uniforms):
    """The box's weak steps on qubit ``k`` of every row of ``amps`` (shape
    ``(R, 2**n)``): step ``j`` is one ``_measure_rows`` call with
    ``_weak_step(theta)`` on column ``j`` of ``uniforms`` (shape ``(R, J)``),
    over every row, clicked or not.

    Returns ``(clicks, p1, amps)``: each row's outcome and P(click) at each
    step, shape ``(R, J)``, and the rows after the last step.  Up to and
    including its first click a row takes the steps that the box of either
    policy takes on the same draws, so a row's first ``len(record)``
    entries are those of the box that wrote ``record``.
    """
    kraus = _weak_step(theta)
    clicks = np.zeros(uniforms.shape, dtype=np.int8)
    p1 = np.zeros(uniforms.shape)
    for j in range(uniforms.shape[1]):
        clicks[:, j], probs, amps = _measure_rows(amps, k, kraus,
                                                  uniforms[:, j])
        p1[:, j] = probs[1]
    return clicks, p1, amps


def iterate_once(system, params, rng):
    """One iteration of the box on a single-qubit system.

    Returns ``(outcome, new_system, p1)`` where ``p1`` is the pre-measurement
    click probability of this step.  On a click the system is projected onto
    |0> (up to a global phase).
    """
    if system.n_qubits != 1:
        raise ValueError("the verification box acts on a single-qubit system")
    clicks, p1, amps = weak_steps(system.amplitudes[None], 0, params.theta,
                                  rng.randoms(1)[None])
    return int(clicks[0, 0]), StateVector(1, amps[0]), float(p1[0, 0])


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


_EIGENSTATE_TOL = 1e-12


def otp_consumed_check(result, password) -> bool:
    """True iff every qubit of the register sits in a z eigenstate.

    A consumed one-time password has been fully measured, so replaying it
    can only present |0> or |1> per qubit.  ``result`` (an
    ``UnlockResult``) is cross-checked for width when given.
    """
    if result is not None and len(result.trajectories) != password.n_qubits:
        raise ValueError("result does not match the password register width")
    for k in range(password.n_qubits):
        p0, p1 = qubit_probabilities(password, k)
        if min(p0, p1) > _EIGENSTATE_TOL:
            return False
    return True
