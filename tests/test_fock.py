import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from couplersim import fock
from couplersim.coupler import CouplerParams, build_hamiltonian
from couplersim.fock import LengthMismatch, ModeLayout, block_occupations, one_body

from helpers import block_states, tensor_one_body, tensor_totals


def test_layout_validation():
    with pytest.raises(fock.FockError):
        ModeLayout(mode_count=1, n_max=2)
    with pytest.raises(fock.FockError):
        ModeLayout(mode_count=2, n_max=0)


@pytest.mark.parametrize(
    "mode_count,k,occupations,index",
    [
        (2, 0, (0, 0), 0),
        (2, 1, (1, 0), 1),
        (3, 2, (0, 1, 1), 1),
        (2, 3, (1, 2), 1),
    ],
)
def test_block_position(mode_count, k, occupations, index):
    assert tuple(block_occupations(mode_count, k)[index]) == occupations


@pytest.mark.parametrize("mode_count,n_max", [(2, 1), (3, 2), (5, 3), (11, 2)])
def test_dimension_is_binomial(mode_count, n_max):
    layout = ModeLayout(mode_count, n_max)
    assert layout.dim == math.comb(n_max + mode_count, mode_count)
    sizes = []
    for k in range(n_max + 1):
        table = block_occupations(mode_count, k)
        assert table.shape == (math.comb(k + mode_count - 1, mode_count - 1), mode_count)
        assert one_body(np.eye(mode_count), k).shape == (len(table), len(table))
        sizes.append(len(table))
    assert sum(sizes) == layout.dim


def test_basis_state_errors():
    # a block of negative excitation holds no states
    with pytest.raises(fock.FockError):
        block_occupations(2, -1)
    with pytest.raises(fock.FockError):
        one_body(np.eye(2), -1)


def test_basis_states_orthonormal():
    # distinct occupation tuples are orthonormal basis states: each block is
    # every tuple of its total once, in lexicographic order
    for mode_count in (2, 3, 4):
        for k in range(4):
            table = block_occupations(mode_count, k)
            assert [tuple(row) for row in table.tolist()] == block_states(mode_count, k)
            assert np.all(table.sum(axis=1) == k)


def unit(mode_count, i, j):
    """Mode matrix E_ij, whose image is a_i^dag a_j."""
    m = np.zeros((mode_count, mode_count))
    m[i, j] = 1.0
    return m


def number_diagonal(mode_count, k, mode):
    return np.diag([occ[mode] for occ in block_states(mode_count, k)]).astype(complex)


def test_hopping_matrix_elements():
    for k in range(4):
        states = block_states(3, k)
        for i in range(3):
            for j in range(3):
                hop = one_body(unit(3, i, j), k)
                for col, n in enumerate(states):
                    for row, m in enumerate(states):
                        if i == j:
                            expected = n[i] if row == col else 0.0
                        else:
                            moved = list(n)
                            moved[j] -= 1
                            moved[i] += 1
                            hit = n[j] > 0 and tuple(moved) == m
                            expected = math.sqrt((n[i] + 1) * n[j]) if hit else 0.0
                        assert hop[row, col] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_hopping_diagonal_is_number_operator(mode):
    for k in range(4):
        assert_allclose(
            one_body(unit(3, mode, mode), k), number_diagonal(3, k, mode), atol=0
        )


def test_hopping_commutator_is_exact():
    # [a_0^dag a_1, a_1^dag a_0] = n_0 - n_1 on every block, the top one included
    for k in range(4):
        up, down = one_body(unit(2, 0, 1), k), one_body(unit(2, 1, 0), k)
        diff = number_diagonal(2, k, 0) - number_diagonal(2, k, 1)
        assert np.linalg.norm(up @ down - down @ up - diff) <= 1e-12


def test_number_operators():
    # blocks (0,0) | (0,1) (1,0) | (0,2) (1,1) (2,0)
    for k, diagonal in enumerate(([0], [0, 1], [0, 1, 2])):
        assert_allclose(one_body(unit(2, 0, 0), k), np.diag(diagonal))
        assert_allclose(one_body(np.eye(2), k), k * np.eye(k + 1, dtype=complex))


def test_excitation_blocks_examples():
    blocks = {k: [tuple(r) for r in block_occupations(2, k).tolist()] for k in range(3)}
    assert blocks == {0: [(0, 0)], 1: [(0, 1), (1, 0)], 2: [(0, 2), (1, 1), (2, 0)]}
    assert block_occupations(3, 1).tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    layout3 = ModeLayout(3, 2)
    assert sum(len(block_occupations(3, k)) for k in range(3)) == layout3.dim


def test_hopping_block_diagonal(rng):
    # On the tensor product of 4 levels per mode, built with np.kron outside
    # the package, the image of a mode matrix has no entry between different
    # totals, and its block of total K <= 3 is one_body(m, K).
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    oracle = tensor_one_body(m, 4)
    totals = tensor_totals(3, 4)
    assert np.abs(oracle[totals[:, None] != totals[None, :]]).max() == 0.0
    for k in range(4):
        idx = np.flatnonzero(totals == k)
        assert_allclose(one_body(m, k), oracle[np.ix_(idx, idx)], rtol=0, atol=1e-14)


def test_total_number_commutes_with_hopping():
    # On the np.kron tensor product every a_i^dag a_j commutes with the total
    # number, and its block of total K <= 2 is one_body(E_ij, K).
    totals = tensor_totals(3, 3)
    n_tot = np.diag(totals)
    for i in range(3):
        for j in range(3):
            hop = tensor_one_body(unit(3, i, j), 3)
            assert np.linalg.norm(n_tot @ hop - hop @ n_tot) <= 1e-12
            for k in range(3):
                idx = np.flatnonzero(totals == k)
                assert_allclose(
                    one_body(unit(3, i, j), k), hop[np.ix_(idx, idx)], rtol=0, atol=1e-15
                )


def test_mode_out_of_range():
    # the mode matrix must be a nonempty square
    for shape in ((2, 3), (2,), (2, 2, 2), (0, 0)):
        with pytest.raises(LengthMismatch):
            one_body(np.zeros(shape), 1)


def log_uniform_scale(rng):
    return 10.0 ** rng.uniform(-5.0, 5.0)


@pytest.mark.parametrize("kind", ["real symmetric", "complex Hermitian"])
def test_blocks_of_hermitian_mode_matrices_are_exactly_hermitian(rng, kind):
    # engine.eigh_hermitian trusts its input to be Hermitian; the blocks are,
    # to the bit: a move and its reverse put the same integer (n_i + 1) n_j
    # under the square root, and m[j, i] = conj(m[i, j]).
    for mode_count in range(1, 7):
        for _ in range(4):
            z = rng.normal(size=(mode_count, mode_count))
            if kind == "complex Hermitian":
                z = z + 1j * rng.normal(size=(mode_count, mode_count))
            m = log_uniform_scale(rng) * (z + z.conj().T)
            for k in range(6):
                b = one_body(m, k)
                assert np.array_equal(b, b.conj().T)


def test_hamiltonian_blocks_are_exactly_hermitian(rng):
    for n_outer in range(1, 6):
        for _ in range(4):
            scale = log_uniform_scale(rng)
            params = CouplerParams(
                w=scale * rng.normal(), couplings=tuple(scale * rng.normal(size=n_outer))
            )
            for h in build_hamiltonian(params, params.layout(5)):
                assert np.array_equal(h, h.conj().T)


def random_mode_matrix(rng, mode_count):
    return rng.normal(size=(mode_count, mode_count)) + 1j * rng.normal(
        size=(mode_count, mode_count)
    )


SIZES = [(m, n) for m in (2, 3, 4) for n in (1, 2, 3)]


class TestOneBodyOracle:
    """one_body is the Lie-algebra image of gl(M): checks that need no Fock matrix.

    Each check runs on every block K = 0..n_max.
    """

    @pytest.mark.parametrize("mode_count,n_max", SIZES)
    def test_commutator_of_images_is_image_of_commutator(self, rng, mode_count, n_max):
        a, b = random_mode_matrix(rng, mode_count), random_mode_matrix(rng, mode_count)
        for k in range(n_max + 1):
            ga, gb = one_body(a, k), one_body(b, k)
            assert np.linalg.norm(ga @ gb - gb @ ga - one_body(a @ b - b @ a, k)) <= 1e-12

    @pytest.mark.parametrize("mode_count,n_max", SIZES)
    def test_adjoint_of_image_is_image_of_adjoint(self, rng, mode_count, n_max):
        dense = random_mode_matrix(rng, mode_count)
        # the triangular part has pairs with only one of m[i, j], m[j, i] nonzero
        for a in (dense, np.triu(dense)):
            for k in range(n_max + 1):
                assert_allclose(one_body(a, k).conj().T, one_body(a.conj().T, k), atol=0)

    @pytest.mark.parametrize("mode_count,n_max", SIZES)
    def test_identity_maps_to_total_excitation(self, mode_count, n_max):
        for k in range(n_max + 1):
            size = math.comb(k + mode_count - 1, mode_count - 1)
            assert_allclose(one_body(np.eye(mode_count), k), k * np.eye(size), atol=0)
