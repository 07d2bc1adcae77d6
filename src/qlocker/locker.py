"""The quantum locker protocol.

A locker stores an m-bit message and holds the secret rotation angles
(theta1, theta2, theta3) per password qubit.  The one-time password is the
n-qubit product state R|0...0> with R = Rz(theta3) Ry(theta2) Rx(theta1) per
qubit, and :func:`generate_otp` holds it as such: a
:class:`~qlocker.statevector.ProductState` of n one-qubit factors, never a
``2**n`` register.  An adversary may present any state, so a password is
either form, and the locker sees both through one layout: P parts of w
qubits (``statevector._parts``), one part of n qubits for a register, n
parts of one qubit for a product.  R is written once, as each qubit's
gate list (Rx(theta1), Ry(theta2), Rz(theta3)), and R^-1 is that list
reversed, each angle negated (``_per_qubit``).  Both run each of their
three gates as one kernel call over all of a product's factors, with one
matrix per factor, and a register's gates one after another: three kernel
calls for a product, three per qubit for a register.  An unlock attempt
undoes the rotation and runs the verification box on each password qubit,
ending in a z-measurement of that qubit.  The message is released only if
every run accepts.  Box ``k`` runs on qubit ``k`` of every part at once
(:func:`~qlocker.verification._boxes`): a register's boxes run one after
another, a product's as one box over its factors.  :func:`attempt_unlocks`
presents many fresh copies of one probe as the rows of blocks
(``statevector._shot_rows``) and keeps one accept bit per copy, with a full
result for the last copy only; it may present one more password first, as
row 0 of the first block, so that ``locker-demo`` runs the correct and the
wrong passwords through one box.  :func:`attempt_unlock` runs the same
boxes on one password, and both take a presented password through one
contract: checked, registered as consumed, inversely rotated once, and
collapsed.  In the protocol's circuit, NOTs controlled on the message
qubits and on every measured password qubit reading 0 copy the message to
blank qubits; all their inputs are basis states, so that copy is the
classical rule ``message if accepted else zeros``.  The verification
measurement collapses the password, so a password cannot be replayed: the
measured basis state is written into the password's parts, as the
retrieved bits are into the blanks.

Angle secrets live only in :class:`OtpParams`; logs carry a digest of the
angles, never their values.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from .gates import GateOp, rx, ry, rz
from .rng import RandomStream
from .statevector import (
    ProductState,
    StateVector,
    _gate_rows,
    _n_qubits,
    _parts,
    _shot_rows,
    _write_basis,
    apply_gate,
)
from .verification import (
    BoxRows,
    Trajectory,
    VerificationParams,
    _boxes,
    _shot_draws,
    _trajectory,
)

Password = StateVector | ProductState


class InvalidMessageError(ValueError):
    """The message bit string is empty, non-binary, or all zeros."""


class PasswordConsumedError(RuntimeError):
    """A password register was presented to the same locker twice."""


@dataclass(frozen=True)
class OtpParams:
    """Secret rotation angles, one (theta1, theta2, theta3) triple per qubit."""

    triples: tuple[tuple[float, float, float], ...]

    def __post_init__(self):
        triples = tuple(
            (float(a), float(b), float(c)) for a, b, c in self.triples
        )
        if not triples:
            raise ValueError("need at least one angle triple")
        for triple in triples:
            for angle in triple:
                if not -math.pi <= angle <= math.pi:
                    raise ValueError(
                        f"angle {angle} outside [-pi, pi]"
                    )
        object.__setattr__(self, "triples", triples)

    @property
    def n_qubits(self) -> int:
        return len(self.triples)

    @classmethod
    def random(cls, n_qubits: int, rng: RandomStream) -> OtpParams:
        """Fresh secret: every angle uniform over [-pi, pi]."""
        triples = tuple(
            tuple(float(rng.uniform(-math.pi, math.pi)) for _ in range(3))
            for _ in range(n_qubits)
        )
        return cls(triples)

    def digest(self) -> str:
        """Short stable hash of the angles, safe to log."""
        payload = ";".join(
            f"{a!r},{b!r},{c!r}" for a, b, c in self.triples
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class LockerState:
    """The stored message plus the registered verification secrets.

    ``consumed_passwords`` maps ``id(register)`` to every register presented
    so far; it holds them weakly, so a register the caller drops is freed.
    """

    message_bits: str
    params: OtpParams
    verification: VerificationParams
    consumed_passwords: weakref.WeakValueDictionary[int, Password] = field(
        default_factory=weakref.WeakValueDictionary)

    @property
    def m_bits(self) -> int:
        return len(self.message_bits)

    @property
    def n_password_qubits(self) -> int:
        return self.params.n_qubits


@dataclass
class UnlockResult:
    """One presentation's unlock: whether every box accepted, the retrieved
    bits, one trajectory per password qubit, and the password as its boxes
    took it, after the inverse rotation and before the collapse (left out
    of ``==``)."""

    accepted: bool
    retrieved_bits: str
    trajectories: tuple[Trajectory, ...]
    inverse_rotated: Password = field(compare=False, repr=False)


def store_message(bits: str, params: OtpParams,
                  verification: VerificationParams | None = None) -> LockerState:
    """Arm a locker: store the message and register the secrets.

    An all-zero message is rejected as carrying no information (a failed
    unlock also leaves all-zero blanks).
    """
    if not bits or any(c not in "01" for c in bits):
        raise InvalidMessageError(f"message must be a nonempty 0/1 string, got {bits!r}")
    if set(bits) == {"0"}:
        raise InvalidMessageError("all-zero message is not valid")
    if verification is None:
        verification = VerificationParams()
    return LockerState(bits, params, verification)


def _per_qubit(state: Password, params: OtpParams, direction: int) -> Password:
    """A copy of ``state`` with R (``direction`` 1) or R^-1 (``direction``
    -1) applied to each password qubit.  Qubit ``q``'s R is the gate list
    (Rx(theta1), Ry(theta2), Rz(theta3)) on qubit ``k``, its index in its
    part (see ``statevector._parts``), and R^-1 is that list reversed, each
    angle negated.

    Parts of one qubit (a product, or a one-qubit register) take each of
    the three gates as one kernel call over all P parts, its matrix a
    ``(2, 2, P)`` stack of the parts' own gate matrices, so a product is
    rotated in 3 kernel calls whatever n is.  A register of w > 1 qubits,
    the only form with wider parts, takes its ``3w`` gates one after
    another."""
    if state.n_qubits != params.n_qubits:
        raise ValueError(
            f"state has {state.n_qubits} qubits, params cover {params.n_qubits}"
        )
    width = _n_qubits(_parts(state))
    per_qubit = [[gate(direction * angle, q % width)
                  for gate, angle in zip((rx, ry, rz), triple)][::direction]
                 for q, triple in enumerate(params.triples)]
    if width > 1:
        # one gate at a time through apply_gate: perfbench's
        # test_every_patched_binding_is_put_back reads this module's
        # apply_gate, which one stacked path for both forms would not use
        for gate in itertools.chain.from_iterable(per_qubit):
            state = apply_gate(state, gate)
        return state
    state = state.copy()
    parts = _parts(state)
    for column in zip(*per_qubit):
        parts[:] = _gate_rows(parts, GateOp(0, np.stack(
            [gate.matrix for gate in column], axis=-1)))
    return state


def apply_rotation(state: Password, params: OtpParams) -> Password:
    """Per-qubit R = Rz(theta3) Ry(theta2) Rx(theta1)."""
    return _per_qubit(state, params, 1)


def apply_inverse_rotation(state: Password, params: OtpParams) -> Password:
    """Per-qubit R^-1 = Rx(-theta1) Ry(-theta2) Rz(-theta3)."""
    return _per_qubit(state, params, -1)


def generate_otp(params: OtpParams) -> ProductState:
    """The one-time password state: R applied qubit-wise to |0...0>, held
    as its n one-qubit factors (no ``2**n`` register is built)."""
    return apply_rotation(ProductState.zeros(params.n_qubits), params)


def _check_password(locker: LockerState, password: Password) -> None:
    n = locker.n_password_qubits
    if password.n_qubits != n:
        raise ValueError(
            f"password has {password.n_qubits} qubits, locker expects {n}"
        )
    if locker.consumed_passwords.get(id(password)) is password:
        raise PasswordConsumedError("password register already consumed")


def _result(locker: LockerState, phi: Password, boxes: list[BoxRows],
            row: int) -> UnlockResult:
    """Row ``row``'s unlock from its boxes, one per password qubit, run on
    the inversely rotated ``phi``: the trajectories, acceptance and
    release."""
    trajectories = tuple(_trajectory(box, row) for box in boxes)
    accepted = all(t.accepted for t in trajectories)
    retrieved = locker.message_bits if accepted else "0" * locker.m_bits
    return UnlockResult(accepted, retrieved, trajectories, phi)


def _present(locker: LockerState, password: Password, rng: RandomStream,
             blanks: StateVector | None = None
             ) -> tuple[Password, np.ndarray]:
    """Take ``password`` (and ``blanks``) as :func:`attempt_unlock` does:
    check them, register the password as consumed, and return it inversely
    rotated, with its ``n * (N + 1)`` draws from ``rng``."""
    _check_password(locker, password)
    m = locker.m_bits
    if blanks is not None:
        if blanks.n_qubits != m:
            raise ValueError(f"blank register must have {m} qubits")
        if abs(blanks.amplitudes[0] - 1.0) > 1e-12:
            raise ValueError("blank qubits must be supplied in the |0...0> state")
    locker.consumed_passwords[id(password)] = password
    draws = _shot_draws(locker.n_password_qubits, locker.verification)
    return apply_inverse_rotation(password, locker.params), rng.randoms(draws)


def _collapse(password: Password, result: UnlockResult,
              blanks: StateVector | None = None) -> None:
    """Write the basis state of ``result``'s closing readouts into the
    password's parts, and its retrieved bits into ``blanks``."""
    _write_basis(_parts(password),
                 [t.final_system_outcome for t in result.trajectories])
    if blanks is not None:
        _write_basis(_parts(blanks), result.retrieved_bits)


def attempt_unlock(locker: LockerState, password: Password,
                   rng: RandomStream,
                   blanks: StateVector | None = None) -> UnlockResult:
    """Present a password, a register or a product state, to the locker.

    The password is collapsed in place by the verification measurements
    (the one-time property) and may not be presented to this locker again.
    The message is retrieved only if every box accepts (with the strict
    click policy, any click rejects); otherwise the retrieved bits are all
    zero.  ``blanks``, if given, must be m qubits in |0...0> and is
    overwritten with the retrieved bits.  The boxes are
    :func:`~qlocker.verification.run_box` on each qubit in turn, each box
    reading the next ``N + 1`` uniforms of ``rng``, so ``rng`` advances by
    ``n * (N + 1)`` even when strict clicks leave some of them unread.
    The password runs as its parts (``statevector._parts``), so a
    :class:`~qlocker.statevector.ProductState` runs its n boxes at once,
    one one-qubit row per factor, and never builds its ``2**n`` register.
    The collapse is one rule for both forms: the basis state of the closing
    readouts, and the retrieved bits in ``blanks``, are written into the
    parts.  The result holds one :class:`~qlocker.verification.Trajectory`
    per password qubit: its outcomes, closing readout and acceptance.
    """
    phi, draws = _present(locker, password, rng, blanks)
    result = _result(locker, phi, _boxes(_parts(phi)[None],
                                         locker.verification, draws[None]), 0)
    _collapse(password, result, blanks)
    return result


def attempt_unlocks(locker: LockerState, probe: Password,
                    stream: RandomStream, shots: range,
                    first: tuple[Password, RandomStream] | None = None
                    ) -> tuple[np.ndarray, UnlockResult, UnlockResult | None]:
    """Present a fresh copy of ``probe`` once per shot index ``i`` in
    ``shots``, in order, copy ``i`` unlocking as ``attempt_unlock(locker,
    probe.copy(), stream.substream(i))`` does, run as one row of the
    blocks of ``statevector._shot_rows``.

    ``first``, if given, is a ``(password, rng)`` presented before the
    copies, as ``attempt_unlock(locker, password, rng)`` presents it: it is
    checked, registered as consumed and collapsed, and ``rng`` advances by
    ``n * (N + 1)``.  Its part rows run as row 0 of the first block, which
    stays within ``statevector.SHOT_BLOCK_CELLS``, so it must have the
    probe's layout.

    Returns ``(accepted, last, presented)``: a bool array with one entry
    per shot, whether every box of that copy accepted; the last shot's
    :class:`UnlockResult`; and ``first``'s, or None.  Those are the only
    results built.  The blocks are run one at a time, and only each
    block's accept bits are kept.  Each copy is held as its parts, P parts
    of w qubits, so a block of B rows runs each of the w boxes over ``B *
    P`` part rows (:func:`~qlocker.verification._boxes`): a product's n
    boxes as one box over ``(B * n, 2)`` one-qubit rows, a register's one
    after another.  The probe is inversely rotated once for all its
    copies, and ``probe`` itself is neither collapsed nor registered as
    consumed.  An empty ``shots`` is a :class:`ValueError`.
    """
    if not shots:
        raise ValueError("need at least one shot")
    _check_password(locker, probe)
    phi = apply_inverse_rotation(probe, locker.params)
    lead = None
    if first is not None:
        password, rng = first
        if _parts(password).shape != _parts(phi).shape:
            raise ValueError(
                f"the password's parts {_parts(password).shape} are not "
                f"laid out as the probe's {_parts(phi).shape}")
        password_phi, password_draws = _present(locker, password, rng)
        lead = (_parts(password_phi), password_draws)
    draws = _shot_draws(locker.n_password_qubits, locker.verification)
    accepted, presented = [], None
    for rows, uniforms in _shot_rows(_parts(phi), [stream], shots, draws,
                                     lead):
        boxes = _boxes(rows, locker.verification, uniforms)
        if lead is not None and presented is None:
            presented = _result(locker, password_phi, boxes, 0)
        accepted.append(np.all([box.accepted for box in boxes], axis=0))
    if presented is not None:
        _collapse(password, presented)
    return (np.concatenate(accepted)[lead is not None:],
            _result(locker, phi, boxes, -1), presented)


def session_log(locker: LockerState, result: UnlockResult) -> list[str]:
    """Line-oriented unlock log; carries an angle digest, never the angles."""
    lines = [
        f"locker,m={locker.m_bits},n={locker.n_password_qubits},"
        f"theta_hash={locker.params.digest()},"
        f"policy={locker.verification.click_policy}"
    ]
    for k, traj in enumerate(result.trajectories):
        lines.append(
            f"qubit={k},outcomes={traj.outcomes_bitstring()},"
            f"final={traj.final_system_outcome},accepted={int(traj.accepted)}"
        )
    lines.append(
        f"result,accepted={int(result.accepted)},retrieved={result.retrieved_bits}"
    )
    return lines
