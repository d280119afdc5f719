import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from couplersim import fock
from couplersim.fock import (
    DenseOperator,
    LengthMismatch,
    ModeLayout,
    ModeOutOfRange,
    OccupationOutOfRange,
    excitation_blocks,
    hopping,
    number_operator,
    total_number,
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


def test_hopping_matrix_elements():
    layout = ModeLayout(3, 3)
    table = layout.occupation_table()
    for i in range(3):
        for j in range(3):
            hop = hopping(layout, i, j).entries
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
        hopping(layout, mode, mode).entries, number_operator(layout, mode).entries, atol=0
    )


def test_hopping_commutator_is_exact():
    # [a_0^dag a_1, a_1^dag a_0] = n_0 - n_1 on every block, the top one included
    layout = ModeLayout(2, 3)
    up, down = hopping(layout, 0, 1).entries, hopping(layout, 1, 0).entries
    diff = number_operator(layout, 0).entries - number_operator(layout, 1).entries
    assert np.linalg.norm(up @ down - down @ up - diff) <= 1e-12


def test_number_operators():
    layout = ModeLayout(2, 2)
    # basis (0,0) | (0,1) (1,0) | (0,2) (1,1) (2,0)
    assert_allclose(number_operator(layout, 0).entries, np.diag([0, 0, 1, 0, 1, 2]))
    small = ModeLayout(2, 1)
    assert_allclose(total_number(small).entries, np.diag([0, 1, 1]).astype(complex))


def test_total_number_commutes_with_hopping():
    layout = ModeLayout(3, 3)
    n_tot = total_number(layout).entries
    for i in range(layout.mode_count):
        for j in range(layout.mode_count):
            hop = hopping(layout, i, j).entries
            assert np.linalg.norm(n_tot @ hop - hop @ n_tot) <= 1e-12


def test_excitation_blocks_examples():
    layout = ModeLayout(2, 2)
    blocks = dict((k, list(idx)) for k, idx in excitation_blocks(layout))
    assert blocks == {0: [0], 1: [1, 2], 2: [3, 4, 5]}
    layout3 = ModeLayout(3, 2)
    blocks3 = dict((k, list(idx)) for k, idx in excitation_blocks(layout3))
    assert blocks3[1] == [1, 2, 3]
    assert sum(len(v) for v in blocks3.values()) == layout3.dim


def test_hopping_block_diagonal():
    layout = ModeLayout(3, 3)
    hop = hopping(layout, 0, 2).entries
    totals = layout.occupation_table().sum(axis=1)
    off_block = hop[totals[:, None] != totals[None, :]]
    assert np.abs(off_block).max() == 0.0


def test_mode_out_of_range():
    layout = ModeLayout(2, 2)
    with pytest.raises(ModeOutOfRange):
        hopping(layout, 2, 0)
    with pytest.raises(ModeOutOfRange):
        hopping(layout, 0, -1)
    with pytest.raises(ModeOutOfRange):
        number_operator(layout, -1)


def test_dense_operator_shape_check():
    layout = ModeLayout(2, 1)
    with pytest.raises(LengthMismatch):
        DenseOperator(np.zeros((4, 3)), layout)
    with pytest.raises(LengthMismatch):
        DenseOperator(np.zeros((4, 4)), layout)
