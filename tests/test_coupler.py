import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from couplersim import coupler, fock
from couplersim.coupler import (
    CouplerParams,
    _raising_modes,
    _su2_generators,
    NearSingularity,
    algebra_check,
    build_hamiltonian,
    exact_propagator,
    factor_coefficients,
    factorized_propagator,
    singularity_margin,
    verify_factorization,
)
from couplersim.engine import expm_nilpotent, is_unitary
from couplersim.fock import LayoutMismatch

from helpers import block_states, tensor_one_body, tensor_totals


def params_and_layout(n_outer, g, w, n_max):
    params = CouplerParams(w, (g,) * n_outer)
    return params, params.layout(n_max)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="nonzero coupling"):
            CouplerParams(w=1.0, couplings=())
        with pytest.raises(ValueError):
            CouplerParams(w=1.0, couplings=(0.0, 0.0))

    def test_coupler_is_frequency_and_couplings(self):
        # n_max is a choice of blocks, made by the layout, not a coupler field
        with pytest.raises(TypeError):
            CouplerParams(w=1.0, couplings=(1.0,), n_max=2)
        params = CouplerParams(w=1.0, couplings=(1.0, 0.5))
        assert params.layout(4) == fock.ModeLayout(3, 4)
        with pytest.raises(fock.FockError):
            params.layout(0)

    @pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_frequency(self, w):
        with pytest.raises(ValueError, match="finite"):
            CouplerParams(w=w, couplings=(1.0,))

    def test_gamma(self):
        params = CouplerParams(w=1.0, couplings=(0.3, 0.4))
        assert params.sqrt_gamma(2.0) == pytest.approx(1.0)
        assert params.coupling_norm == pytest.approx(0.5)
        assert params.n_outer == 2

    @pytest.mark.parametrize("scale", [1e-300, 1e-320, 1e160, 1e300])
    def test_coupling_norm_without_underflow_or_overflow(self, scale):
        # sum(g^2) underflows to 0 or overflows to inf at these scales
        params = CouplerParams(w=1.0, couplings=(3 * scale, -4 * scale))
        assert params.coupling_norm == pytest.approx(5 * scale, rel=1e-15, abs=0)


class TestHamiltonian:
    def test_interaction_only_n1(self):
        params, layout = params_and_layout(1, 1.0, 0.0, 1)
        h = build_hamiltonian(params, layout)
        assert len(h) == 2
        assert_allclose(h[0], [[0.0]], atol=1e-15)
        assert_allclose(h[1], [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_free_part_is_total_number(self):
        # a fully decoupled configuration is rejected, so use a negligible g
        params = CouplerParams(w=1.0, couplings=(1e-30,))
        h = build_hamiltonian(params, params.layout(1))
        assert_allclose(h[0], [[0.0]], atol=1e-25)
        assert_allclose(h[1], np.eye(2, dtype=complex), atol=1e-25)

    def test_single_excitation_spectrum_n2(self):
        g, w = 0.7, 1.1
        params, layout = params_and_layout(2, g, w, 2)
        got = np.linalg.eigvalsh(build_hamiltonian(params, layout)[1])
        # independent 3x3 oracle in the |100>,|010>,|001> basis
        oracle = np.linalg.eigvalsh(
            np.array([[w, g, g], [g, w, 0], [g, 0, w]], dtype=complex)
        )
        assert_allclose(np.sort(got), np.sort(oracle), atol=1e-12)
        assert_allclose(
            np.sort(oracle), np.sort([w, w - g * math.sqrt(2), w + g * math.sqrt(2)])
        )

    def test_hermitian_block_diagonal_resonant(self):
        params = CouplerParams(w=0.9, couplings=(0.5, -0.8))
        layout = params.layout(2)
        # On block K the free part is w K, the whole diagonal on resonance.
        for k, h in enumerate(build_hamiltonian(params, layout)):
            assert np.linalg.norm(h - h.conj().T) <= 1e-12
            assert_allclose(np.diag(h), params.w * k, rtol=0, atol=1e-15)

    def test_layout_mismatch(self):
        # Only the mode count must fit: any n_max is a valid choice of blocks.
        params, _ = params_and_layout(1, 1.0, 0.5, 2)
        with pytest.raises(LayoutMismatch):
            build_hamiltonian(params, fock.ModeLayout(3, 2))
        for n_max in (1, 3, 5):
            assert len(build_hamiltonian(params, fock.ModeLayout(2, n_max))) == n_max + 1


class TestExactPropagator:
    def test_identity_at_t0(self):
        params, layout = params_and_layout(2, 0.8, 1.0, 2)
        blocks = exact_propagator(params, layout, 0.0)
        assert [len(u) for u in blocks] == [1, 3, 6]
        for u in blocks:
            assert_allclose(u, np.eye(len(u)), atol=1e-14)

    def test_two_qubit_phase_rows(self):
        # at t = 2 pi with w = 1/2 the odd-weight inputs flip sign
        params, layout = params_and_layout(1, 1.0, 0.5, 3)
        u = exact_propagator(params, layout, 2.0 * math.pi)
        one_zero = np.eye(2)[block_states(2, 1).index((1, 0))]
        assert_allclose(u[1] @ one_zero, -one_zero, atol=1e-12)
        one_one = np.eye(3)[block_states(2, 2).index((1, 1))]
        assert_allclose(u[2] @ one_one, one_one, atol=1e-12)

    def test_unitary(self):
        params, layout = params_and_layout(2, 0.6, 0.9, 2)
        for u in exact_propagator(params, layout, 1.7):
            assert is_unitary(u, 1e-10)


class TestFactorCoefficients:
    def test_quarter_period(self):
        # sqrt(gamma) = pi/2 makes both coefficients 2/pi
        params, _ = params_and_layout(1, 1.0, 0.0, 1)
        f, h = factor_coefficients(params, math.pi / 2.0)
        assert f == pytest.approx(2.0 / math.pi, abs=1e-15)
        assert h == pytest.approx(2.0 / math.pi, abs=1e-15)

    def test_full_period_vanishes(self):
        params, _ = params_and_layout(1, 1.0, 0.0, 1)
        f, h = factor_coefficients(params, 2.0 * math.pi)
        assert f == pytest.approx(0.0, abs=1e-12)
        assert h == pytest.approx(0.0, abs=1e-12)

    def test_small_angle_limits(self):
        params, _ = params_and_layout(1, 1.0, 0.0, 1)
        f, h = factor_coefficients(params, 1e-9)
        assert f == pytest.approx(0.5, abs=1e-12)
        assert h == pytest.approx(1.0, abs=1e-12)

    def test_series_matches_closed_form_at_crossover(self):
        # the series branch engages just below 1e-4; compare it against the
        # closed forms evaluated at the same angle
        params, _ = params_and_layout(1, 1.0, 0.0, 1)
        x = 0.99e-4
        series = factor_coefficients(params, x)
        assert series.raising_coeff == pytest.approx(math.tan(x / 2.0) / x, abs=1e-14)
        assert series.lowering_coeff == pytest.approx(math.sin(x) / x, abs=1e-14)

    @pytest.mark.parametrize("sqrt_gamma", [math.pi, 3.0 * math.pi])
    def test_near_singularity(self, sqrt_gamma):
        params, _ = params_and_layout(1, 1.0, 0.0, 1)
        with pytest.raises(NearSingularity) as err:
            factor_coefficients(params, sqrt_gamma)
        assert err.value.margin <= 1e-6

    def test_unresolvable_distance_to_the_pole(self):
        # From sqrt(gamma) = 2^33 on the float spacing exceeds the 1e-6 limit,
        # so no margin from a pole can be told apart from zero.
        params, _ = params_and_layout(1, 1.0, 0.0, 1)
        assert all(map(math.isfinite, factor_coefficients(params, 8e9)))
        for sqrt_gamma in (2.0**33, 9e9, 1e160):
            with pytest.raises(NearSingularity, match="float spacing") as err:
                factor_coefficients(params, sqrt_gamma)
            assert err.value.sqrt_gamma == sqrt_gamma
            assert "within" not in str(err.value)

    def test_singularity_margin_values(self):
        assert singularity_margin(math.pi) == pytest.approx(0.0, abs=1e-15)
        assert singularity_margin(0.0) == pytest.approx(math.pi)
        assert singularity_margin(2.0 * math.pi) == pytest.approx(math.pi)
        assert singularity_margin(3.0 * math.pi - 0.1) == pytest.approx(0.1)


class TestFactorizedPropagator:
    def test_identity_at_t0(self):
        params, layout = params_and_layout(1, 1.0, 0.7, 2)
        blocks = factorized_propagator(params, layout, 0.0)
        assert [len(u) for u in blocks] == [1, 2, 3]
        for u in blocks:
            assert_allclose(u, np.eye(len(u)), atol=1e-14)

    def test_free_phase_only_at_full_period(self):
        # sqrt(gamma) = 2 pi kills both interaction coefficients
        params, layout = params_and_layout(1, 1.0, 0.37, 2)
        t = 2.0 * math.pi
        for k, u in enumerate(factorized_propagator(params, layout, t)):
            assert_allclose(u, np.exp(-1j * params.w * t * k) * np.eye(k + 1), atol=1e-12)

    def test_single_excitation_block_closed_form(self):
        # w = 0, g t = pi/2: the one-excitation block is [[0, -i], [-i, 0]]
        params, layout = params_and_layout(1, 1.0, 0.0, 2)
        u = factorized_propagator(params, layout, math.pi / 2.0)
        assert_allclose(u[1], np.array([[0, -1j], [-1j, 0]]), atol=1e-13)

    def test_factors_conserve_excitation(self):
        # The three factors formed on the tensor product of 3 levels per mode,
        # with np.kron outside the package, keep every total: their product
        # has no mass between different totals, and its block of total K is
        # the factorized block K.
        params, layout = params_and_layout(2, 0.9, 1.1, 2)
        t = 0.8
        f, h = factor_coefficients(params, t)
        raising = tensor_one_body(_raising_modes(params), 3)
        outer = expm_nilpotent(-1j * t * f * raising)
        middle = expm_nilpotent(-1j * t * h * raising.T)
        totals = tensor_totals(3, 3)
        product = np.exp(-1j * t * params.w * totals)[:, None] * (outer @ middle @ outer)
        assert np.abs(product[totals[:, None] != totals[None, :]]).max() <= 1e-14
        for k, u in enumerate(factorized_propagator(params, layout, t)):
            idx = np.flatnonzero(totals == k)
            assert np.abs(product[np.ix_(idx, idx)] - u).max() <= 1e-14


class TestVerifyFactorization:
    def test_reference_configurations(self):
        params, layout = params_and_layout(1, 1.0, 0.7, 3)
        report = verify_factorization(params, layout, 1.0)
        assert report.max_block_distance <= 1e-8

        params3, layout3 = params_and_layout(3, 0.5, 1.0, 2)
        report3 = verify_factorization(params3, layout3, 0.9)
        assert report3.max_block_distance <= 1e-8

    def test_reports_only_safe_blocks(self):
        params, layout = params_and_layout(2, 0.7, 1.0, 2)
        report = verify_factorization(params, layout, 0.5)
        assert [k for k, _ in report.block_distances] == [0, 1, 2]

    def test_zero_time(self):
        params, layout = params_and_layout(2, 0.7, 1.0, 2)
        report = verify_factorization(params, layout, 0.0)
        assert report.max_block_distance <= 1e-14

    def test_unequal_couplings(self):
        params = CouplerParams(w=0.4, couplings=(0.2, -0.9, 0.5))
        report = verify_factorization(params, params.layout(2), 1.3)
        assert report.max_block_distance <= 1e-8

    def test_six_outer_modes(self):
        # dim 330 over blocks of at most 210 states
        params = CouplerParams(w=0.8, couplings=(0.4, -0.7, 0.2, 0.9, -0.3, 0.5))
        layout = params.layout(4)
        report = verify_factorization(params, layout, 1.1)
        assert report.max_block_distance <= 1e-8
        assert [k for k, _ in report.block_distances] == [0, 1, 2, 3, 4]
        assert algebra_check(params, layout) <= 1e-12

    def test_interaction_periodicity(self):
        # sqrt(N) g t in 2 pi Z restores the free evolution on every block
        params, layout = params_and_layout(2, 0.8, 0.55, 3)
        t = 2.0 * math.pi / (0.8 * math.sqrt(2.0))
        for k, u in enumerate(exact_propagator(params, layout, t)):
            free = np.exp(-1j * t * params.w * k) * np.eye(len(u))
            assert np.linalg.norm(u - free) <= 1e-9

    def test_small_t_generator(self):
        # Central finite difference of both propagators at t = 0 agree, which
        # pins the small-angle limits of the disentangling coefficients.
        params, layout = params_and_layout(2, 0.9, 1.3, 2)
        delta = 1e-4
        fd = []
        for prop in (exact_propagator, factorized_propagator):
            plus = prop(params, layout, delta)
            minus = prop(params, layout, -delta)
            fd.append([(p - m) / (2.0 * delta) for p, m in zip(plus, minus)])
        h = build_hamiltonian(params, layout)

        def norm(blocks):
            # Frobenius norm over all blocks
            return math.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks))

        assert norm([e - f for e, f in zip(*fd)]) <= 1e-6
        # both differences carry O(delta^2) truncation against the generator itself
        assert norm([e - (-1j) * hk for e, hk in zip(fd[0], h)]) <= 1e-5


class TestAlgebraCheck:
    def test_equal_couplings(self):
        params, layout = params_and_layout(1, 1.0, 0.5, 4)
        assert algebra_check(params, layout) <= 1e-12

    def test_unequal_couplings(self):
        params = CouplerParams(w=0.5, couplings=(0.3, 0.9))
        assert algebra_check(params, layout=params.layout(3)) <= 1e-12

    @pytest.mark.parametrize("t", [0.5, 2.0, 10.0])
    def test_residual_scales_with_t(self, t):
        # The paper's scaled generators L+- = eps J+-, L3 = eps^2 J3 obey
        # [L+, L-] = 2 L3 and [L3, L+-] = +-kappa L+- with kappa = eps^2 sum g^2;
        # their residuals grow like the t^3 of the triple products.
        params = CouplerParams(w=0.5, couplings=(0.3, -0.9))
        layout = params.layout(3)
        eps = -1j * t
        plus_modes, j3_modes = _su2_generators(params)
        kappa = eps**2 * sum(g * g for g in params.couplings)

        def comm(x, y):
            return x @ y - y @ x

        # Frobenius norms over all blocks K = 0..n_max
        squares = np.zeros(3)
        for k in range(layout.n_max + 1):
            j_plus, j3 = fock.one_body(plus_modes, k), fock.one_body(j3_modes, k)
            l_plus, l_minus, l3 = eps * j_plus, eps * j_plus.conj().T, eps**2 * j3
            squares += [
                np.linalg.norm(comm(l_plus, l_minus) - 2.0 * l3) ** 2,
                np.linalg.norm(comm(l3, l_plus) - kappa * l_plus) ** 2,
                np.linalg.norm(comm(l3, l_minus) + kappa * l_minus) ** 2,
            ]
        residual = math.sqrt(squares.max())
        assert residual / max(1.0, t**3) <= 1e-12

    def test_huge_couplings_are_scale_free(self):
        # Checked on g / ||g||, so kappa ~ 1e320 and commutators of
        # 1e160-sized generators are never formed.
        params = CouplerParams(w=0.7, couplings=(1e160, -3e160))
        assert algebra_check(params, params.layout(3)) <= 1e-12

    def test_wrong_sign_fails(self, monkeypatch):
        # J3 with the opposite sign breaks every relation by O(1), so the
        # check can fail on the sign.
        params = CouplerParams(w=0.5, couplings=(0.3, 0.9))
        right = coupler._su2_generators

        def flipped(p):
            j_plus, j3 = right(p)
            return j_plus, -j3

        monkeypatch.setattr(coupler, "_su2_generators", flipped)
        assert algebra_check(params, params.layout(3)) >= 1.0

    def test_layout_mismatch(self):
        params, _ = params_and_layout(1, 1.0, 0.5, 2)
        with pytest.raises(LayoutMismatch):
            algebra_check(params, fock.ModeLayout(3, 2))
        assert algebra_check(params, fock.ModeLayout(2, 3)) <= 1e-12


def test_factorized_interaction_factor_is_block_diagonal():
    # exp(eps f A+) on the np.kron tensor product of 3 levels per mode: its
    # series keeps every entry between different totals exactly zero, and
    # its block of total K is the series of the block A+_K.
    params, layout = params_and_layout(2, 0.7, 1.0, 2)
    coefficient = -1j * 0.9 * 0.5
    factor = expm_nilpotent(coefficient * tensor_one_body(_raising_modes(params), 3))
    totals = tensor_totals(3, 3)
    assert np.abs(factor[totals[:, None] != totals[None, :]]).max() == 0.0
    for k in range(layout.n_max + 1):
        idx = np.flatnonzero(totals == k)
        block = expm_nilpotent(coefficient * fock.one_body(_raising_modes(params), k))
        assert np.abs(factor[np.ix_(idx, idx)] - block).max() <= 1e-15


def tensor_product_hamiltonian(params, n_max):
    """H on the truncated tensor product of n_max + 1 levels per mode.

    Built independently of the package with np.kron; mode 0 is the most
    significant factor, so occupations n sit at index sum(n_k d^(M-1-k)).
    """
    d, modes = n_max + 1, params.n_outer + 1
    single = np.diag(np.sqrt(np.arange(1.0, d)), 1)

    def lower(mode):
        return np.kron(np.kron(np.eye(d**mode), single), np.eye(d ** (modes - 1 - mode)))

    h = params.w * sum(lower(k).T @ lower(k) for k in range(modes))
    for j, g in enumerate(params.couplings, start=1):
        hop = lower(0).T @ lower(j)
        h = h + g * (hop + hop.T)
    return h


@pytest.mark.parametrize(
    "params, n_max",
    [
        (CouplerParams(w=0.7, couplings=(-1.3,)), 3),
        (CouplerParams(w=0.4, couplings=(0.3, -0.9)), 3),
        (CouplerParams(w=1.1, couplings=(-0.2, 0.9, 0.5)), 2),
    ],
    ids=["n1", "n2", "n3"],
)
def test_hamiltonian_blocks_match_tensor_product(params, n_max):
    layout = params.layout(n_max)
    h = build_hamiltonian(params, layout)
    oracle = tensor_product_hamiltonian(params, n_max)
    totals = tensor_totals(layout.mode_count, n_max + 1)
    # The oracle conserves excitation: no entry joins different totals.
    assert np.abs(oracle[totals[:, None] != totals[None, :]]).max() == 0.0
    assert len(h) == n_max + 1
    for k, block in enumerate(h):
        # States of total K in ascending tensor index are in lexicographic
        # order, the order of block K.
        idx = np.flatnonzero(totals == k)
        assert block.shape == (len(idx), len(idx))
        assert np.abs(oracle[np.ix_(idx, idx)] - block).max() <= 1e-15
