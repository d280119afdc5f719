import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from couplersim import fock
from couplersim.fock import (
    LengthMismatch,
    ModeLayout,
    OccupationOutOfRange,
    excitation_blocks,
    one_body,
)


def test_layout_validation():
    with pytest.raises(fock.FockError):
        ModeLayout(mode_count=1, n_max=2)
    with pytest.raises(fock.FockError):
        ModeLayout(mode_count=2, n_max=0)


@pytest.mark.parametrize(
    "mode_count,n_max,occupations,index",
    [
        (2, 2, (0, 0), 0),
        (2, 2, (1, 0), 2),
        (3, 2, (0, 1, 1), 5),
        (2, 3, (1, 2), 7),
    ],
)
def test_flat_index(mode_count, n_max, occupations, index):
    layout = ModeLayout(mode_count, n_max)
    assert layout.flat_index(occupations) == index
    assert layout.occupations(index) == occupations


@pytest.mark.parametrize("mode_count,n_max", [(2, 1), (3, 2), (5, 3), (11, 2)])
def test_dimension_is_binomial(mode_count, n_max):
    layout = ModeLayout(mode_count, n_max)
    assert layout.dim == math.comb(n_max + mode_count, mode_count)
    assert layout.occupation_table().shape == (layout.dim, mode_count)


def test_basis_state_errors():
    layout = ModeLayout(2, 1)
    with pytest.raises(OccupationOutOfRange):
        layout.flat_index((1, 1))
    with pytest.raises(OccupationOutOfRange):
        layout.flat_index((-1, 0))
    with pytest.raises(LengthMismatch):
        layout.flat_index((0, 0, 0))
    with pytest.raises(fock.FockError):
        layout.occupations(layout.dim)


def test_basis_states_orthonormal():
    layout = ModeLayout(3, 3)
    index = [layout.flat_index(layout.occupations(i)) for i in range(layout.dim)]
    states = np.eye(layout.dim)[index]
    assert_allclose(states @ states.T, np.eye(layout.dim), atol=0)
    # ordered by total excitation
    assert np.all(np.diff(layout.occupation_table().sum(axis=1)) >= 0)


def unit(mode_count, i, j):
    """Mode matrix E_ij, whose image is a_i^dag a_j."""
    m = np.zeros((mode_count, mode_count))
    m[i, j] = 1.0
    return m


def number_diagonal(layout, mode):
    return np.diag(layout.occupation_table()[:, mode]).astype(complex)


def test_hopping_matrix_elements():
    layout = ModeLayout(3, 3)
    table = layout.occupation_table()
    for i in range(3):
        for j in range(3):
            hop = one_body(layout, unit(3, i, j))
            for col, n in enumerate(table):
                for row, m in enumerate(table):
                    if i == j:
                        expected = n[i] if row == col else 0.0
                    else:
                        moved = n.copy()
                        moved[j] -= 1
                        moved[i] += 1
                        hit = n[j] > 0 and np.array_equal(m, moved)
                        expected = math.sqrt((n[i] + 1) * n[j]) if hit else 0.0
                    assert hop[row, col] == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("mode", [0, 1, 2])
def test_hopping_diagonal_is_number_operator(mode):
    layout = ModeLayout(3, 3)
    assert_allclose(
        one_body(layout, unit(3, mode, mode)), number_diagonal(layout, mode), atol=0
    )


def test_hopping_commutator_is_exact():
    # [a_0^dag a_1, a_1^dag a_0] = n_0 - n_1 on every block, the top one included
    layout = ModeLayout(2, 3)
    up, down = one_body(layout, unit(2, 0, 1)), one_body(layout, unit(2, 1, 0))
    diff = number_diagonal(layout, 0) - number_diagonal(layout, 1)
    assert np.linalg.norm(up @ down - down @ up - diff) <= 1e-12


def test_number_operators():
    layout = ModeLayout(2, 2)
    # basis (0,0) | (0,1) (1,0) | (0,2) (1,1) (2,0)
    assert_allclose(one_body(layout, unit(2, 0, 0)), np.diag([0, 0, 1, 0, 1, 2]))
    small = ModeLayout(2, 1)
    assert_allclose(one_body(small, np.eye(2)), np.diag([0, 1, 1]).astype(complex))


def test_total_number_commutes_with_hopping():
    layout = ModeLayout(3, 3)
    n_tot = one_body(layout, np.eye(3))
    for i in range(layout.mode_count):
        for j in range(layout.mode_count):
            hop = one_body(layout, unit(3, i, j))
            assert np.linalg.norm(n_tot @ hop - hop @ n_tot) <= 1e-12


def test_excitation_blocks_examples():
    layout = ModeLayout(2, 2)
    blocks = dict((k, list(idx)) for k, idx in excitation_blocks(layout))
    assert blocks == {0: [0], 1: [1, 2], 2: [3, 4, 5]}
    layout3 = ModeLayout(3, 2)
    blocks3 = dict((k, list(idx)) for k, idx in excitation_blocks(layout3))
    assert blocks3[1] == [1, 2, 3]
    assert sum(len(v) for v in blocks3.values()) == layout3.dim


def test_hopping_block_diagonal(rng):
    layout = ModeLayout(3, 3)
    op = one_body(layout, rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    totals = layout.occupation_table().sum(axis=1)
    off_block = op[totals[:, None] != totals[None, :]]
    assert np.abs(off_block).max() == 0.0


def test_mode_out_of_range():
    # the mode matrix must be mode_count x mode_count
    layout = ModeLayout(2, 2)
    for shape in ((3, 3), (1, 1), (2, 3), (2,), (layout.dim, layout.dim)):
        with pytest.raises(LengthMismatch):
            one_body(layout, np.zeros(shape))


def random_mode_matrix(rng, mode_count):
    return rng.normal(size=(mode_count, mode_count)) + 1j * rng.normal(
        size=(mode_count, mode_count)
    )


SIZES = [(m, n) for m in (2, 3, 4) for n in (1, 2, 3)]


class TestOneBodyOracle:
    """one_body is the Lie-algebra image of gl(M): checks that need no Fock matrix."""

    @pytest.mark.parametrize("mode_count,n_max", SIZES)
    def test_commutator_of_images_is_image_of_commutator(self, rng, mode_count, n_max):
        layout = ModeLayout(mode_count, n_max)
        a, b = random_mode_matrix(rng, mode_count), random_mode_matrix(rng, mode_count)
        ga, gb = one_body(layout, a), one_body(layout, b)
        assert np.linalg.norm(ga @ gb - gb @ ga - one_body(layout, a @ b - b @ a)) <= 1e-12

    @pytest.mark.parametrize("mode_count,n_max", SIZES)
    def test_adjoint_of_image_is_image_of_adjoint(self, rng, mode_count, n_max):
        layout = ModeLayout(mode_count, n_max)
        dense = random_mode_matrix(rng, mode_count)
        # the triangular part has pairs with only one of m[i, j], m[j, i] nonzero
        for a in (dense, np.triu(dense)):
            image = one_body(layout, a)
            assert_allclose(image.conj().T, one_body(layout, a.conj().T), atol=0)

    @pytest.mark.parametrize("mode_count,n_max", SIZES)
    def test_identity_maps_to_total_excitation(self, mode_count, n_max):
        layout = ModeLayout(mode_count, n_max)
        totals = layout.occupation_table().sum(axis=1)
        assert_allclose(one_body(layout, np.eye(mode_count)), np.diag(totals), atol=0)
