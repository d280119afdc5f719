"""Dense Hermitian eigendecomposition and the checks that package-built inputs can fail.

This is the internal oracle layer: a Hermitian eigendecomposition and the
Hermitian propagator built on it.  Its inputs are built square (fock.one_body
blocks, QubitGate matrices), and the blocks eigh takes, images of a Hermitian
mode matrix, are exactly Hermitian; so only non-finite entries are checked.
A LAPACK failure surfaces as numpy's LinAlgError, a ValueError, so the
command line exits 2 on it as on the refusal here.  finite_max is the
reduction every reported worst case goes through, so a NaN or inf is refused
rather than dropped or reported.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NonFinite",
    "eigh_hermitian",
    "expm_hermitian",
    "finite_max",
    "is_unitary",
]


class NonFinite(ValueError):
    pass


def eigh_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, unitary V) with H = V diag(eigenvalues) V^dag.

    H must be Hermitian; like numpy.linalg.eigh, only its lower triangle is
    read.  Non-finite input is refused as NonFinite; a LAPACK failure, a
    non-square H included, surfaces as numpy's LinAlgError, a ValueError.
    """
    if not np.all(np.isfinite(h)):
        raise NonFinite("H contains non-finite entries")
    return np.linalg.eigh(h)


def expm_hermitian(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i t H) for Hermitian H, by eigendecomposition.

    The result is unitary up to a few times machine epsilon.
    """
    evals, vecs = eigh_hermitian(h)
    return (vecs * np.exp(-1j * t * evals)) @ vecs.conj().T


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
    gram = u.conj().T @ u
    return float(np.linalg.norm(gram - np.eye(u.shape[0]))) <= tol
