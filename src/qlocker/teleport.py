"""Single-qubit teleportation over a simulated entangled pair.

The sender holds the payload qubit and one half of a shared Bell pair; a
joint measurement yields two classical bits, and the receiver recovers the
payload exactly by applying X (keyed by ``m2``, the parity-side bit) and
then Z (keyed by ``m1``, the sign-side bit).  Channels are strictly
single-use: teleporting measures the source qubit, destroying its state.
Every channel holds the same read-only pair, built once at import; the
sender's circuit combines it into a new register and never writes it.
The circuits' fixed gates (the CNOT, H and the X and Z corrections) are
module constants, also built once at import.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gates import cnot, h, x, z
from .rng import RandomStream
from .statevector import (StateVector, _parts, _write_basis, apply_gate,
                          combine, measure_qubit, new_state)


class ChannelConsumedError(RuntimeError):
    """A teleportation channel was used a second time."""


_CNOT = cnot(0, 1)
_H = h(0)
_X = x(0)
_Z = z(0)


def make_bell_pair() -> StateVector:
    """The shared pair (|00> + |11>)/sqrt(2), a fresh writable state."""
    state = new_state(2)
    state = apply_gate(state, _H)
    return apply_gate(state, _CNOT)


# every channel's pair: built once and read-only, since teleporting only
# combines it into a new register
_BELL_PAIR = make_bell_pair()
_BELL_PAIR.amplitudes.flags.writeable = False


@dataclass(frozen=True)
class TeleportRecord:
    """Classical residue of one teleportation."""

    channel_id: str
    classical_bits: tuple[int, int]

    def record_line(self) -> str:
        m1, m2 = self.classical_bits
        return f"{self.channel_id},{m1},{m2}"


_channel_counter = itertools.count()


class TeleportChannel:
    """One pre-shared Bell pair plus its single-use bookkeeping."""

    def __init__(self, channel_id: str | None = None):
        if channel_id is None:
            channel_id = f"ch{next(_channel_counter):06d}"
        self.channel_id = channel_id
        self.pair = _BELL_PAIR
        self.consumed = False


def open_channel(channel_id: str | None = None) -> TeleportChannel:
    return TeleportChannel(channel_id)


def _sender_circuit(psi: StateVector, pair: StateVector) -> StateVector:
    """Payload ``psi`` (qubit 0) beside ``pair`` (sender half qubit 1,
    receiver half qubit 2), after the sender's CNOT and H, as a new
    register; ``pair`` is only read."""
    if psi.n_qubits != 1:
        raise ValueError("teleport carries exactly one qubit")
    joint = combine(psi, pair)
    joint = apply_gate(joint, _CNOT)
    return apply_gate(joint, _H)


def teleport(psi: StateVector, channel: TeleportChannel,
             rng: RandomStream) -> tuple[TeleportRecord, StateVector]:
    """Teleport a one-qubit state through ``channel``.

    Returns the classical record and the corrected received state, which
    equals ``psi`` up to global phase.  The source register is overwritten
    with its measured eigenstate (its information is destroyed), and the
    channel is marked consumed; a second use raises.
    """
    joint = _sender_circuit(psi, channel.pair)
    if channel.consumed:
        raise ChannelConsumedError(
            f"channel {channel.channel_id} already consumed"
        )
    channel.consumed = True
    m1, _, joint = measure_qubit(joint, 0, "z", rng)
    m2, _, joint = measure_qubit(joint, 1, "z", rng)
    # the receiver's two amplitudes in branch (m1, m2)
    base = m1 + (m2 << 1)
    received = StateVector(1, joint.amplitudes[[base, base + 4]])
    if m2:
        received = apply_gate(received, _X)
    if m1:
        received = apply_gate(received, _Z)
    # the measured source is left as a z eigenstate, written as every
    # collapse is (into a product's shared factor, for one of its qubits)
    _write_basis(_parts(psi), [m1])
    record = TeleportRecord(channel.channel_id, (m1, m2))
    return record, received

