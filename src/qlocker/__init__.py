"""Seedable statevector simulation plus the quantum-locker / quantum-OTP protocol."""

from .gates import (
    GateOp,
    build_controlled0_rx,
    cnot,
    decompose_controlled0_rx,
    gate_matrix,
    h,
    phase_aligned_distance,
    rx,
    ry,
    rz,
    s,
    sdg,
    sequence_matrix,
    unitary,
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
    StateVector,
    apply_gate,
    basis_state,
    combine,
    measure_qubit,
    new_state,
    overlap,
    qubit_probabilities,
    sample_shots,
)
from .teleport import (
    ChannelConsumedError,
    TeleportChannel,
    TeleportRecord,
    enumerate_teleport_branches,
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
    enumerate_trajectories,
    iterate_once,
    run_box,
    trajectory_record,
)

__version__ = "0.1.0"
