"""Dense matrix exponentials and the checks that package-built inputs can fail.

This is the internal oracle layer: a Hermitian eigendecomposition, the
Hermitian propagator built on it, and the exponential of a nilpotent matrix
as its terminating power series.  Its inputs are built square (fock.one_body
blocks, QubitGate matrices), and the blocks eigh takes, images of a Hermitian
mode matrix, are exactly Hermitian; so only non-finite entries, a LAPACK
failure and a series that does not terminate are checked.  finite_max is
the reduction every reported worst case goes through, so a NaN or inf is
refused rather than dropped or reported.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "EngineError",
    "EigenFailure",
    "NonFinite",
    "NotNilpotent",
    "eigh_hermitian",
    "expm_hermitian",
    "expm_nilpotent",
    "finite_max",
    "is_unitary",
]


class EngineError(ValueError):
    pass


class EigenFailure(EngineError):
    pass


class NonFinite(EngineError):
    pass


class NotNilpotent(EngineError):
    pass


def eigh_hermitian(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, unitary V) with H = V diag(eigenvalues) V^dag.

    H must be Hermitian; like numpy.linalg.eigh, only its lower triangle is
    read.  Non-finite input is refused as NonFinite, and a LAPACK failure,
    a non-square H included, is raised as EigenFailure.
    """
    if not np.all(np.isfinite(h)):
        raise NonFinite("H contains non-finite entries")
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
    gram = u.conj().T @ u
    return float(np.linalg.norm(gram - np.eye(u.shape[0]))) <= tol
