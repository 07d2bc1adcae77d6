"""Single-qubit state tomography.

Stokes parameters come straight from basis-resolved counts,
``<j> = p(0_j) - p(1_j)``, and the density matrix is the affine Pauli
reconstruction ``rho = (I + <x> sx + <y> sy + <z> sz) / 2``.  Reconstructions
from noisy counts may land outside the physical set; they are flagged, not
silently projected (eigenvalue clipping is available behind a flag).  One
rule decides physicality, :attr:`DensityMatrix.is_physical`: the Bloch
vector has length at most ``1 + 1e-9``, which for a unit-trace Hermitian
2x2 matrix is "no negative eigenvalue" up to rounding.
:attr:`StokesVector.is_physical` and :func:`fidelity`'s guard read it.  A
non-finite Stokes component or matrix entry is a ``ValueError`` where the
object is built.

Two theoretical references for the verification-box ancilla are provided:
the diagonal model ``diag(p0, p1)`` used in the published analysis, and the
exact reduced state of the coupled pair, whose off-diagonal
``i |alpha|^2 sin(theta) cos(theta)`` the diagonal model discards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .statevector import CountsHistogram, _clamp_p0

PAPER_DIAGONAL = "paper-diagonal"
FULL_REDUCED = "full-reduced"
ANCILLA_MODELS = (PAPER_DIAGONAL, FULL_REDUCED)

_HERMITIAN_TOL = 1e-10
_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class StokesVector:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x, self.y, self.z))):
            raise ValueError(f"Stokes components must be finite, got {self}")

    @property
    def is_physical(self) -> bool:
        """Whether its reconstruction is physical."""
        return reconstruct_density(self).is_physical


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 Hermitian unit-trace matrix; positivity is checked, not enforced."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries must be finite")
        if np.max(np.abs(m - m.conj().T)) > _HERMITIAN_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        if abs(m.trace() - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace must be 1, got {m.trace()}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def is_physical(self) -> bool:
        """Bloch vectors ``(2 Re m01, -2 Im m01, m00 - m11)`` longer than 1
        cannot come from a quantum state."""
        m = self.matrix
        return math.hypot(2.0 * abs(m[0, 1]),
                          (m[0, 0] - m[1, 1]).real) <= 1.0 + 1e-9

    def tables(self) -> dict[str, list[list[float]]]:
        """Real/imaginary component tables for text or JSON emission."""
        return {
            "real": self.matrix.real.round(12).tolist(),
            "imag": self.matrix.imag.round(12).tolist(),
        }


def stokes_from_counts(
        histograms: Mapping[str, CountsHistogram]) -> StokesVector:
    """Stokes vector from one single-qubit histogram per basis (x, y, z)."""
    components = {}
    for axis in ("x", "y", "z"):
        if axis not in histograms:
            raise ValueError(f"missing histogram for basis {axis!r}")
        hist = histograms[axis]
        if any(len(key) != 1 for key in hist.counts):
            raise ValueError("tomography expects single-qubit outcome keys")
        components[axis] = hist.probability("0") - hist.probability("1")
    return StokesVector(**components)


def reconstruct_density(s: StokesVector, clip: bool = False) -> DensityMatrix:
    """Affine Pauli reconstruction from a Stokes vector.

    With ``clip=True`` negative eigenvalues are zeroed and the trace
    renormalized, forcing a physical state.
    """
    m = 0.5 * np.array(
        [[1.0 + s.z, s.x - 1j * s.y], [s.x + 1j * s.y, 1.0 - s.z]]
    )
    if clip:
        vals, vecs = np.linalg.eigh(m)
        vals = np.clip(vals, 0.0, None)
        vals /= vals.sum()
        m = (vecs * vals) @ vecs.conj().T
    return DensityMatrix(m)


def theoretical_ancilla_density(alpha: complex, theta: float,
                                model: str = PAPER_DIAGONAL) -> DensityMatrix:
    """Predicted ancilla state after one weak-coupling iteration.

    ``alpha`` is the |0> amplitude of the system, ``|alpha|^2`` read
    through ``statevector._clamp_p0`` (a rounding error past 1 reads as 1).
    The diagonal model keeps only the readout populations
    ``p0 = 1 - |alpha|^2 sin^2(theta)`` and ``p1 = |alpha|^2 sin^2(theta)``;
    the full reduced model adds the coherence ``i |alpha|^2 sin cos`` left
    after tracing out the system.
    """
    if model not in ANCILLA_MODELS:
        raise ValueError(f"unknown model {model!r}")
    a2 = _clamp_p0(abs(alpha) ** 2)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    p1 = a2 * sin_t**2
    p0 = 1.0 - p1
    if model == PAPER_DIAGONAL:
        return DensityMatrix(np.array([[p0, 0.0], [0.0, p1]]))
    coherence = 1j * a2 * sin_t * cos_t
    return DensityMatrix(
        np.array([[p0, coherence], [np.conj(coherence), p1]])
    )


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Uhlmann fidelity, via the closed form for qubit states.

    ``F = tr(a b) + 2 sqrt(det a det b)``, equal to
    ``(tr sqrt(sqrt(a) b sqrt(a)))^2`` for 2x2 states; 1 iff the states are
    identical, |<u|v>|^2 for pure states.
    """
    for name, rho in (("first", a), ("second", b)):
        if not rho.is_physical:
            raise ValueError(f"{name} argument is not a physical state")
    cross = float(np.trace(a.matrix @ b.matrix).real)
    det_a = max(float(np.linalg.det(a.matrix).real), 0.0)
    det_b = max(float(np.linalg.det(b.matrix).real), 0.0)
    value = cross + 2.0 * math.sqrt(det_a * det_b)
    return min(max(value, 0.0), 1.0)
