"""Dense matrix exponentials and distance-up-to-global-phase.

This is the brute-force oracle layer: a checked Hermitian eigendecomposition,
the Hermitian propagator built on it, and the exponential of a nilpotent
matrix as its terminating power series.  Everything operates on plain complex
square ndarrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EngineError",
    "NotHermitian",
    "EigenFailure",
    "NonFinite",
    "NotNilpotent",
    "DimensionMismatch",
    "PhaseAlignedDistance",
    "eigh_hermitian",
    "expm_hermitian",
    "expm_nilpotent",
    "phase_distance",
    "is_unitary",
]


class EngineError(ValueError):
    pass


class NotHermitian(EngineError):
    pass


class EigenFailure(EngineError):
    pass


class NonFinite(EngineError):
    pass


class NotNilpotent(EngineError):
    pass


class DimensionMismatch(EngineError):
    pass


HERMITIAN_TOL = 1e-10


def _as_square(a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")
    return a


def eigh_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, unitary V) with H = V diag(eigenvalues) V^dag.

    Refuses non-finite and non-Hermitian input; a LAPACK failure is raised as
    EigenFailure.
    """
    h = _as_square(h, "H")
    if not np.all(np.isfinite(h)):
        raise NonFinite("H contains non-finite entries")
    defect = float(np.linalg.norm(h - h.conj().T))
    if defect > HERMITIAN_TOL * max(1.0, float(np.linalg.norm(h))):
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {HERMITIAN_TOL}")
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H, by eigendecomposition.

    The result is unitary up to a few times machine epsilon.
    """
    evals, vecs = eigh_hermitian(h)
    return (vecs * np.exp(-1j * t * evals)) @ vecs.conj().T


def expm_nilpotent(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a nilpotent matrix, sum_k A^k / k!.

    The series is summed until a term is exactly zero.  When A is nilpotent
    through its zero pattern (strictly triangular up to a permutation, as an
    operator that moves quanta in one direction only is), products of exact
    zeros stay 0.0, so its powers vanish exactly in floating point too and the
    sum is a finite polynomial with no truncation error.  A nilpotent matrix
    has A^dim = 0; one with no zero power up to A^(dim+1) is refused as
    NotNilpotent.
    """
    a = _as_square(a, "A")
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains non-finite entries")
    n = a.shape[0]
    result = term = np.eye(n, dtype=complex)
    for k in range(1, n + 2):
        term = term @ a / k
        if not term.any():
            return result
        result = result + term
    raise NotNilpotent(
        f"A^{n + 1} is not zero; a nilpotent {n}x{n} matrix has A^{n} = 0"
    )


@dataclass(frozen=True)
class PhaseAlignedDistance:
    """Frobenius distance after removing the optimal global phase."""

    distance: float
    phase: float


def phase_distance(u: np.ndarray, v: np.ndarray) -> PhaseAlignedDistance:
    """min over phi of ||U - e^{i phi} V||_F together with the minimizing phi.

    The optimum is phi = arg tr(V^dag U).  When that trace (essentially)
    vanishes the minimizer is not unique; phi = 0 is reported and the distance
    is then just sqrt(||U||^2 + ||V||^2).
    """
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        raise DimensionMismatch(f"shape {u.shape} vs {v.shape}")
    overlap = complex(np.trace(v.conj().T @ u))
    scale = max(1.0, float(np.linalg.norm(u)) * float(np.linalg.norm(v)))
    if abs(overlap) <= 1e-14 * scale:
        phase = 0.0
    else:
        phase = float(np.angle(overlap))
    distance = float(np.linalg.norm(u - np.exp(1j * phase) * v))
    return PhaseAlignedDistance(distance=distance, phase=phase)


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    u = _as_square(u, "U")
    gram = u.conj().T @ u
    return float(np.linalg.norm(gram - np.eye(u.shape[0]))) <= tol
