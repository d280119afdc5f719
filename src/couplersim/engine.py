"""Dense matrix exponentials and the checks on their inputs and results.

This is the brute-force oracle layer: a checked Hermitian eigendecomposition,
the Hermitian propagator built on it, and the exponential of a nilpotent
matrix as its terminating power series.  Everything operates on plain complex
square ndarrays.  finite_max is the reduction every reported worst case goes
through, so a NaN or inf is refused rather than dropped or reported.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EngineError",
    "NotHermitian",
    "EigenFailure",
    "NonFinite",
    "NotNilpotent",
    "DimensionMismatch",
    "eigh_hermitian",
    "expm_hermitian",
    "expm_nilpotent",
    "finite_max",
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
    # Compared on H / max(1, largest |entry|), so the norms cannot overflow.
    scaled = h / max(1.0, float(np.abs(h).max()))
    defect = float(np.linalg.norm(scaled - scaled.conj().T))
    if defect > HERMITIAN_TOL * max(1.0, float(np.linalg.norm(scaled))):
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


def finite_max(values, what: str) -> float:
    """Largest of values, refused as NonFinite when any of them is NaN or infinite.

    Python's max alone would drop a NaN or keep it depending on where it sits.
    """
    values = [float(v) for v in values]
    for v in values:
        if not math.isfinite(v):
            raise NonFinite(f"{what} is not finite: {v}")
    return max(values)


def is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    u = _as_square(u, "U")
    gram = u.conj().T @ u
    return float(np.linalg.norm(gram - np.eye(u.shape[0]))) <= tol
