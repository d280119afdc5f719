import itertools

import numpy as np


def random_unitary(rng, n: int) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (z + z.conj().T) / 2.0
    return scale * h / max(1.0, np.linalg.norm(h))


def block_states(mode_count: int, k: int) -> list[tuple[int, ...]]:
    """Occupation tuples of total k in lexicographic order, by brute force."""
    return [
        occ for occ in itertools.product(range(k + 1), repeat=mode_count) if sum(occ) == k
    ]


def expm_series(a: np.ndarray) -> np.ndarray:
    """exp(A) of a nilpotent A as its terminating series, sum_k A^k / k!.

    The sum stops at the first term that is exactly zero.  When A is
    nilpotent through its zero pattern (an operator that moves quanta in one
    direction only), products of exact zeros stay 0.0, so the series has no
    truncation error; A^dim = 0, so it ends within dim + 1 terms.
    """
    result = term = np.eye(len(a), dtype=complex)
    for k in range(1, len(a) + 2):
        term = term @ a / k
        if not term.any():
            return result
        result = result + term
    raise AssertionError(f"A^{len(a) + 1} is not zero; A is not nilpotent")


def tensor_one_body(m, d: int) -> np.ndarray:
    """sum_ij m[i, j] a_i^dag a_j on the tensor product of d levels per mode.

    Built with np.kron; mode 0 is the most significant factor, so occupations
    n sit at index sum(n_k d^(M-1-k)), and the states of one total, in
    ascending index, come in lexicographic order.
    """
    modes = len(m)
    single = np.diag(np.sqrt(np.arange(1.0, d)), 1)
    lower = [
        np.kron(np.kron(np.eye(d**mode), single), np.eye(d ** (modes - 1 - mode)))
        for mode in range(modes)
    ]
    return sum(m[i][j] * lower[i].T @ lower[j] for i in range(modes) for j in range(modes))


def tensor_totals(modes: int, d: int) -> np.ndarray:
    """Total occupation of every tensor-product index."""
    return np.indices((d,) * modes).reshape(modes, -1).sum(axis=0)
