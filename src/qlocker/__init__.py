"""Seedable statevector simulation plus the quantum-locker / quantum-OTP protocol.

Every public name is importable from the package, the same object as in
the submodule that defines it.  Apart from the ``teleport`` names, each
is resolved on first access (PEP 562) through one name -> submodule
table, ``_LAZY``, and nothing is cached here: an access reads the
submodule's binding as it is at that time.  So ``import qlocker`` loads
only ``qlocker.teleport`` and the modules it imports (``gates``, ``rng``
and ``statevector``), and a command loads only the modules it runs.

The ``teleport`` names are imported at once: if the submodule
``qlocker.teleport`` were loaded later, the import system would bind it
as the package's ``teleport`` attribute, over the function of that name.
"""

import importlib

from .teleport import (
    ChannelConsumedError,
    TeleportChannel,
    TeleportRecord,
    make_bell_pair,
    open_channel,
    teleport,
)

# public name -> the submodule that defines it
_LAZY = {
    "GateOp": "gates", "build_controlled0_rx": "gates", "cnot": "gates",
    "h": "gates", "rx": "gates", "ry": "gates", "rz": "gates", "s": "gates",
    "sdg": "gates", "x": "gates", "z": "gates",
    "InvalidMessageError": "locker", "LockerState": "locker",
    "OtpParams": "locker", "PasswordConsumedError": "locker",
    "UnlockResult": "locker", "apply_inverse_rotation": "locker",
    "apply_rotation": "locker", "attempt_unlock": "locker",
    "attempt_unlocks": "locker", "generate_otp": "locker",
    "session_log": "locker", "store_message": "locker",
    "RandomStream": "rng",
    "CapacityError": "statevector", "CountsHistogram": "statevector",
    "Measurement": "statevector", "ProductState": "statevector",
    "StateVector": "statevector", "apply_gate": "statevector",
    "basis_state": "statevector", "combine": "statevector",
    "measure_qubit": "statevector", "new_state": "statevector",
    "sample_circuits": "statevector", "sample_shots": "statevector",
    "DensityMatrix": "tomography", "StokesVector": "tomography",
    "fidelity": "tomography", "reconstruct_density": "tomography",
    "stokes_from_counts": "tomography",
    "theoretical_ancilla_density": "tomography",
    "PAPER_DEFAULT": "verification", "STRICT_ABORT": "verification",
    "Trajectory": "verification", "VerificationParams": "verification",
    "acceptance_probability": "verification", "box_records": "verification",
    "box_shots": "verification", "record_probability": "verification",
    "run_box": "verification", "trajectory_record": "verification",
}

__all__ = ["ChannelConsumedError", "TeleportChannel", "TeleportRecord",
           "make_bell_pair", "open_channel", "teleport", *_LAZY]

__version__ = "0.1.0"


def __getattr__(name: str):
    """``name`` from the submodule that defines it, or, for a submodule
    that ``import qlocker`` has not loaded, that submodule."""
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__),
                       name)
    if name in _LAZY.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
