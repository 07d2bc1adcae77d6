"""Seedable statevector simulation plus the quantum-locker / quantum-OTP protocol."""

from .gates import (
    GateOp,
    build_controlled0_rx,
    cnot,
    h,
    rx,
    ry,
    rz,
    s,
    sdg,
    x,
    z,
)
from .locker import (
    InvalidMessageError,
    LockerState,
    OtpParams,
    PasswordConsumedError,
    UnlockResult,
    apply_inverse_rotation,
    apply_rotation,
    attempt_unlock,
    attempt_unlocks,
    generate_otp,
    session_log,
    store_message,
)
from .rng import RandomStream
from .statevector import (
    CapacityError,
    CountsHistogram,
    Measurement,
    ProductState,
    StateVector,
    apply_gate,
    basis_state,
    combine,
    measure_qubit,
    new_state,
    sample_circuits,
    sample_shots,
)
from .teleport import (
    ChannelConsumedError,
    TeleportChannel,
    TeleportRecord,
    make_bell_pair,
    open_channel,
    teleport,
)
from .tomography import (
    DensityMatrix,
    StokesVector,
    fidelity,
    reconstruct_density,
    stokes_from_counts,
    theoretical_ancilla_density,
)
from .verification import (
    PAPER_DEFAULT,
    STRICT_ABORT,
    Trajectory,
    VerificationParams,
    acceptance_probability,
    box_records,
    box_shots,
    record_probability,
    run_box,
    trajectory_record,
)

__version__ = "0.1.0"
