import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from couplersim.engine import (
    NonFinite,
    eigh_hermitian,
    expm_hermitian,
    finite_max,
    is_unitary,
)

from helpers import random_hermitian


class TestExpmHermitian:
    def test_zero_hamiltonian(self):
        assert_allclose(expm_hermitian(np.zeros((3, 3)), 1.7), np.eye(3), atol=1e-15)

    def test_two_level_pi_pulse(self):
        g = 0.8
        h = np.array([[0, g], [g, 0]], dtype=complex)
        u = expm_hermitian(h, np.pi / g)
        assert_allclose(u, -np.eye(2), atol=1e-14)

    def test_diagonal_case(self):
        w, t = 1.3, 0.6
        u = expm_hermitian(np.diag([0.0, w]), t)
        assert_allclose(u, np.diag([1.0, np.exp(-1j * w * t)]), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_unitary_for_large_angles(self, rng, n):
        # ||t H|| up to 50
        h = random_hermitian(rng, n, scale=5.0)
        u = expm_hermitian(h, 10.0)
        assert is_unitary(u, 1e-10)


class TestEighHermitian:
    def test_reconstructs_matrix(self, rng):
        h = random_hermitian(rng, 6, scale=4.0)
        evals, vecs = eigh_hermitian(h)
        assert np.all(np.diff(evals) >= 0.0)
        assert_allclose((vecs * evals) @ vecs.conj().T, h, atol=1e-12)
        assert is_unitary(vecs, 1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e160, 1e300])
    def test_eigenvalues_at_any_scale(self, scale):
        # ||H||_F overflows for entries above ~1e154; eigh must not.
        h = scale * np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        evals, _ = eigh_hermitian(h)
        assert_allclose(evals, scale * np.sqrt(5.0) * np.array([-1.0, 1.0]), rtol=1e-14)

    def test_rejects_non_square(self):
        # LAPACK refuses it, and the refusal is numpy's typed error
        with pytest.raises(np.linalg.LinAlgError):
            eigh_hermitian(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFinite):
            eigh_hermitian(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonFinite):
            expm_hermitian(np.array([[bad, 0.0], [0.0, 1.0]]), 1.0)

    def test_lapack_failure_is_typed(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(np.linalg.LinAlgError, match="converge"):
            eigh_hermitian(np.eye(2))
        with pytest.raises(np.linalg.LinAlgError):
            expm_hermitian(np.eye(2), 1.0)


def test_is_unitary():
    assert is_unitary(np.eye(3))
    assert not is_unitary(np.diag([1.0, 0.5]), tol=1e-10)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_finite_max_refuses_nan_anywhere(position):
    values = [0.5, 0.25, 0.125]
    assert finite_max(values, "x") == 0.5
    values[position] = math.nan
    with pytest.raises(NonFinite, match="the check is not finite: nan"):
        finite_max(values, "the check")
    values[position] = math.inf
    with pytest.raises(NonFinite, match="inf"):
        finite_max(values, "the check")
