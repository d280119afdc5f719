import itertools

import numpy as np

from couplersim import coupler, fock


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


def hamiltonian_blocks(params, n_max: int) -> list[np.ndarray]:
    """Blocks K = 0..n_max of H, the one-body images of coupler.mode_hamiltonian."""
    h = coupler.mode_hamiltonian(params)
    return [fock.one_body(h, k) for k in range(n_max + 1)]


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


def fock_algebra_residuals(params, n_max: int) -> np.ndarray:
    """The su(2) residuals of coupler.algebra_check, formed on the Fock blocks.

    The relations [J+, J-] = 2 J3 and [J3, J+] = kappa J+ on the blocks
    K = 0..n_max of the one-body images of coupler._su2_generators, at the
    unit couplings g / ||g||; each residual is the Frobenius norm over all
    blocks, sqrt(sum_K ||r_K||^2).  This is algebra_check as it was before it
    moved to the mode matrices, kept as the second oracle of the relations.
    """
    norm = params.coupling_norm
    unit = coupler.CouplerParams(params.w, tuple(g / norm for g in params.couplings))
    plus_modes, j3_modes = coupler._su2_generators(unit)
    kappa = sum(g * g for g in unit.couplings)

    def comm(x, y):
        return x @ y - y @ x

    squares = np.zeros(2)
    for k in range(n_max + 1):
        j_plus, j3 = fock.one_body(plus_modes, k), fock.one_body(j3_modes, k)
        squares += [
            np.linalg.norm(comm(j_plus, j_plus.conj().T) - 2.0 * j3) ** 2,
            np.linalg.norm(comm(j3, j_plus) - kappa * j_plus) ** 2,
        ]
    return np.sqrt(squares)


def image_reference(u, n_max: int) -> list[np.ndarray]:
    """Blocks K = 0..n_max of Gamma(u), by fock.image's loop with every index recomputed.

    The states come from fock.block_occupations, and up[q, i], the index of
    q + e_i, from a dictionary of the occupation tuples, so nothing is read
    from image's cached tables.  The arithmetic is image's, in the same
    order: u[i, j] * (root_i / root_qj) * lowered, summed over i from 0.
    """
    u = np.asarray(u, dtype=complex)
    modes = len(u)
    blocks = [np.ones((1, 1), dtype=complex)]
    for k in range(1, n_max + 1):
        below, table = fock.block_occupations(modes, k - 1), fock.block_occupations(modes, k)
        index = {tuple(row): n for n, row in enumerate(table.tolist())}
        shift = np.eye(modes, dtype=np.int64)
        up = np.array([[index[tuple(row + shift[i])] for i in range(modes)] for row in below])
        root = np.sqrt(below + 1.0)
        # (q, j) with modes < j empty in q: T = q + e_j has first occupied mode j
        q, j = np.nonzero(np.cumsum(below, axis=1) == below)
        lowered = blocks[-1][:, q]
        raised = np.zeros((len(table), len(q)), dtype=complex)
        for i in range(modes):
            raised[up[:, i]] += u[i, j] * (root[:, i, None] / root[q, j]) * lowered
        out = np.empty_like(raised)
        out[:, up[q, j]] = raised
        blocks.append(out)
    return blocks
