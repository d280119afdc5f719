import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from couplersim import analysis, coupler
from couplersim.analysis import (
    FreePhaseMismatch,
    NotNormalized,
    extract_gate,
    family_gates,
    gate_time,
    random_product_state,
    scan_times,
    schmidt,
    truth_table,
)
from couplersim.coupler import CouplerParams, exact_propagator
from couplersim.fock import OccupationOutOfRange, total_number
from couplersim.gates import control_c_phase, relative_phase_2, relative_phase_3


def equal_params(n_outer, g, w, n_max):
    return CouplerParams.equal_coupling(n_outer, g, w, n_max)


class TestGateTime:
    def test_two_qubit_configuration(self):
        spec = gate_time(equal_params(1, 1.0, 0.5, 2), k=1)
        assert spec.t == pytest.approx(2.0 * math.pi, abs=1e-12)
        assert spec.m == 0

    def test_three_qubit_configuration(self):
        spec = gate_time(equal_params(2, 1.0, math.sqrt(2) / 2.0, 3), k=1)
        assert spec.t == pytest.approx(math.pi * math.sqrt(2.0), abs=1e-12)

    def test_higher_winding(self):
        spec = gate_time(equal_params(1, 1.0, 0.25, 2), k=2)
        assert spec.t == pytest.approx(4.0 * math.pi, abs=1e-12)

    def test_interaction_and_phase_conditions_hold(self):
        params = equal_params(2, 0.7, 0.7 * math.sqrt(2.0) * 1.5, 2)  # m = 1
        spec = gate_time(params, k=1)
        assert params.coupling_norm * spec.t == pytest.approx(
            2.0 * math.pi * spec.k, abs=1e-12
        )
        assert params.w * spec.t == pytest.approx((2 * spec.m + 1) * math.pi, abs=1e-12)

    def test_negative_coupling_gives_forward_time(self):
        spec = gate_time(equal_params(1, -1.0, 0.5, 2), k=1)
        assert spec.t == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_free_phase_mismatch(self):
        with pytest.raises(FreePhaseMismatch):
            gate_time(equal_params(1, 1.0, 1.0 / 3.0, 2), k=1)

    def test_unequal_couplings(self):
        # G has eigenvalues +-||g|| and 0, so the interaction winds back at
        # t = 2 pi / ||g|| whatever the individual couplings are.
        gs = (0.3, 0.9, -0.5)
        norm = math.sqrt(sum(g * g for g in gs))
        params = CouplerParams(n_outer=3, w=norm / 2.0, couplings=gs, n_max=4)
        spec = gate_time(params)
        assert spec.t == pytest.approx(2.0 * math.pi / norm, abs=1e-12)
        assert spec.m == 0
        table = truth_table(params, params.layout(), spec.t)
        assert table.leakage <= 1e-9
        for row in table.rows:
            sign = -1.0 if sum(row.occupations) % 2 else 1.0
            assert abs(row.phase - sign) <= 1e-9

    def test_bad_winding(self):
        with pytest.raises(ValueError):
            gate_time(equal_params(1, 1.0, 0.5, 2), k=0)


class TestTruthTable:
    def test_two_qubit_table(self):
        params = equal_params(1, 1.0, 0.5, 2)
        table = truth_table(params, params.layout(), gate_time(params).t)
        assert table.leakage <= 1e-10
        by_input = {r.occupations: r for r in table.rows}
        assert set(by_input) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for occ, sign in (((0, 0), 1), ((1, 1), 1), ((1, 0), -1), ((0, 1), -1)):
            row = by_input[occ]
            assert row.fidelity >= 1.0 - 1e-10
            assert row.phase == pytest.approx(sign, abs=1e-10)

    def test_three_qubit_table_both_methods(self):
        params = equal_params(2, 1.0, math.sqrt(2) / 2.0, 3)
        t = gate_time(params).t
        for method in ("exact", "factorized"):
            table = truth_table(params, params.layout(), t, method=method)
            assert table.leakage <= 1e-9
            for row in table.rows:
                sign = -1.0 if sum(row.occupations) % 2 else 1.0
                assert row.fidelity >= 1.0 - 1e-9
                assert row.phase == pytest.approx(sign, abs=1e-9)

    def test_zero_time(self):
        params = equal_params(1, 1.0, 0.5, 2)
        table = truth_table(params, params.layout(), 0.0)
        assert table.leakage <= 1e-12
        for row in table.rows:
            assert row.phase == pytest.approx(1.0, abs=1e-12)

    def test_truncation_guard(self):
        # n_max = 1 holds no state with both modes excited
        params = equal_params(1, 1.0, 0.5, 1)
        with pytest.raises(OccupationOutOfRange):
            truth_table(params, params.layout(), 1.0)
        with pytest.raises(OccupationOutOfRange):
            scan_times(params, params.layout(), 0.1, 13.0, 100, tol=0.05)

    def test_serialization(self):
        params = equal_params(1, 1.0, 0.5, 2)
        table = truth_table(params, params.layout(), gate_time(params).t)
        blob = table.to_json_dict()
        assert [r["input"] for r in blob["rows"]] == ["00", "01", "10", "11"]
        csv_rows = table.to_csv_rows()
        assert csv_rows[0] == ["input", "phase_re", "phase_im", "fidelity"]
        assert len(csv_rows) == 5


class TestExtractGate:
    def test_two_qubit_gate(self):
        params = equal_params(1, 1.0, 0.5, 2)
        gate, leakage = extract_gate(params, params.layout(), gate_time(params).t)
        assert leakage <= 1e-9
        assert_allclose(gate.matrix, np.diag([1, -1, -1, 1]), atol=1e-9)
        assert np.linalg.norm(gate.matrix - relative_phase_2(math.pi).matrix) <= 1e-9

    def test_three_qubit_gate(self):
        params = equal_params(2, 1.0, math.sqrt(2) / 2.0, 3)
        gate, leakage = extract_gate(params, params.layout(), gate_time(params).t)
        assert leakage <= 1e-9
        assert np.linalg.norm(gate.matrix - relative_phase_3().matrix) <= 1e-9

    def test_generic_time_leaks_and_matches_nothing(self):
        params = equal_params(1, 1.0, 0.5, 2)
        gate, leakage = extract_gate(params, params.layout(), 0.3)
        assert leakage > 0.01
        for candidate in family_gates(2):
            assert np.linalg.norm(gate.matrix - candidate.matrix) > 0.1


class TestScanTimes:
    def test_two_qubit_hits(self):
        params = equal_params(1, 1.0, 0.5, 2)
        hits = scan_times(params, params.layout(), 0.1, 13.0, 5000, tol=0.05)
        assert hits == sorted(hits, key=lambda h: h.t)
        relative = [h for h in hits if h.label.startswith("relative_phase_2")]
        identity = [h for h in hits if h.label == "identity"]
        assert relative and identity
        assert min(abs(h.t - 2.0 * math.pi) for h in relative) < 0.05
        assert min(abs(h.t - 4.0 * math.pi) for h in identity) < 0.05

    def test_three_qubit_hit(self):
        params = equal_params(2, 1.0, math.sqrt(2) / 2.0, 3)
        hits = scan_times(params, params.layout(), 3.0, 6.0, 1500, tol=0.05)
        rel3 = [h for h in hits if h.label == "relative_phase_3"]
        assert rel3
        assert min(abs(h.t - math.pi * math.sqrt(2.0)) for h in rel3) < 0.05

    def test_tight_tolerance_gives_no_hits(self):
        params = equal_params(1, 1.0, 0.5, 2)
        assert scan_times(params, params.layout(), 0.1, 13.0, 5000, tol=1e-12) == []

    def test_grid_validation(self):
        params = equal_params(1, 1.0, 0.5, 2)
        with pytest.raises(ValueError):
            scan_times(params, params.layout(), 1.0, 0.5, 100, tol=0.1)
        with pytest.raises(ValueError):
            scan_times(params, params.layout(), 0.5, 1.0, 1, tol=0.1)


def reference_scan(params, t_min, t_max, steps, tol):
    """Per-point oracle: slice the full exact propagator at every grid point."""
    layout = params.layout()
    modes = layout.mode_count
    comp = [
        layout.flat_index([(code >> (modes - 1 - b)) & 1 for b in range(modes)])
        for code in range(2**modes)
    ]
    candidates = family_gates(modes)
    hits = []
    for t in np.linspace(t_min, t_max, steps):
        r = exact_propagator(params, layout, float(t)).entries[np.ix_(comp, comp)]
        if np.linalg.norm(r.conj().T @ r - np.eye(len(comp))) > tol:
            continue
        dist, label = min((np.linalg.norm(r - c.matrix), c.label) for c in candidates)
        if dist <= tol:
            hits.append((float(t), label, float(dist)))
    return hits


class TestScanOracle:
    """The batched scan against an independent per-point evaluation."""

    @pytest.mark.parametrize(
        "params, t_min, t_max, steps",
        [
            # N = 1, dim 9; 1001 points is not a multiple of the chunk size.
            (equal_params(1, 1.0, 0.5, 2), 0.1, 13.0, 1001),
            # N = 2, dim 64.
            (equal_params(2, 1.0, math.sqrt(2) / 2.0, 3), 3.0, 6.0, 300),
            # Unequal couplings: the interaction winds back at t = 2 pi / ||g||.
            (
                CouplerParams(
                    n_outer=2, w=math.sqrt(0.9) / 2.0, couplings=(0.3, 0.9), n_max=3
                ),
                5.5,
                7.5,
                257,
            ),
        ],
        ids=["n1", "n2", "n2-unequal"],
    )
    def test_matches_per_point_reference(self, params, t_min, t_max, steps):
        tol = 0.05
        expected = reference_scan(params, t_min, t_max, steps, tol)
        hits = scan_times(params, params.layout(), t_min, t_max, steps, tol)
        assert expected, "oracle found no hits; the comparison would be vacuous"
        assert [(h.t, h.label) for h in hits] == [(t, label) for t, label, _ in expected]
        for hit, (_, _, dist) in zip(hits, expected):
            assert abs(hit.distance - dist) <= 1e-12

    @pytest.mark.parametrize("chunks, extra", [(0, 2), (0, 7), (1, 0), (1, 1), (2, 2)])
    def test_grid_sizes_around_the_chunk(self, chunks, extra):
        steps = chunks * analysis._SCAN_CHUNK + extra
        params = equal_params(1, 1.0, 0.5, 2)
        expected = reference_scan(params, 6.0, 6.6, steps, 0.2)
        hits = scan_times(params, params.layout(), 6.0, 6.6, steps, 0.2)
        assert [(h.t, h.label) for h in hits] == [(t, label) for t, label, _ in expected]
        for hit, (_, _, dist) in zip(hits, expected):
            assert abs(hit.distance - dist) <= 1e-12

    def test_extract_gate_matches_propagator_slice(self):
        params = equal_params(2, 0.8, 0.9, 3)
        layout = params.layout()
        comp = [layout.flat_index(bits) for bits in np.ndindex(2, 2, 2)]
        for t in (0.0, 0.37, 2.9):
            gate, leakage = extract_gate(params, layout, t)
            r = exact_propagator(params, layout, t).entries[np.ix_(comp, comp)]
            assert np.linalg.norm(gate.matrix - r) <= 1e-12
            assert leakage == pytest.approx(
                np.linalg.norm(r.conj().T @ r - np.eye(8)), abs=1e-12
            )

    @pytest.mark.parametrize("steps", [2, 500, 3000])
    def test_hamiltonian_built_and_diagonalized_once(self, monkeypatch, steps):
        counts = {"build": 0, "eigh": 0}
        original_build, original_eigh = coupler.build_hamiltonian, np.linalg.eigh

        def counting_build(*args, **kwargs):
            counts["build"] += 1
            return original_build(*args, **kwargs)

        def counting_eigh(*args, **kwargs):
            counts["eigh"] += 1
            return original_eigh(*args, **kwargs)

        monkeypatch.setattr(coupler, "build_hamiltonian", counting_build)
        monkeypatch.setattr(analysis, "build_hamiltonian", counting_build)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        params = equal_params(1, 1.0, 0.5, 2)
        scan_times(params, params.layout(), 0.1, 13.0, steps, tol=0.05)
        assert counts == {"build": 1, "eigh": 1}

    @pytest.mark.parametrize(
        "t_min, t_max, tol",
        [(math.nan, 1.0, 0.1), (0.0, math.inf, 0.1), (0.0, 1.0, math.nan)],
    )
    def test_rejects_non_finite_inputs(self, t_min, t_max, tol):
        params = equal_params(1, 1.0, 0.5, 2)
        with pytest.raises(ValueError, match="finite"):
            scan_times(params, params.layout(), t_min, t_max, 100, tol)


class TestSchmidt:
    def test_control_c_on_plus_plus(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        state = control_c_phase().apply(np.kron(plus, plus))
        svals, entropy = schmidt(state, 1)
        assert_allclose(svals, [1.0 / math.sqrt(2.0)] * 2, atol=1e-12)
        assert entropy == pytest.approx(1.0, abs=1e-12)

    def test_relative_gate_output_stays_product(self, rng):
        gate = relative_phase_2(math.pi)
        for _ in range(20):
            out = gate.apply(random_product_state(rng, 2))
            svals, entropy = schmidt(out, 1)
            assert svals[1] <= 1e-12
            assert entropy <= 1e-10

    def test_basis_product_state(self):
        state = np.array([0, 1, 0, 0], dtype=complex)
        svals, entropy = schmidt(state, 1)
        assert_allclose(svals, [1.0, 0.0], atol=1e-15)
        assert entropy == pytest.approx(0.0, abs=1e-15)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            schmidt(np.array([1.0, 1.0, 0, 0]), 1)

    def test_cut_validation(self):
        state = np.array([1.0, 0, 0, 0])
        with pytest.raises(ValueError):
            schmidt(state, 0)
        with pytest.raises(ValueError):
            schmidt(state, 2)
        for not_a_register in (np.ones(3) / math.sqrt(3.0), np.eye(2) / math.sqrt(2.0)):
            with pytest.raises(ValueError):
                schmidt(not_a_register, 1)

    def test_works_on_fock_states_too(self):
        # Schmidt across the central/outer cut of a coupler state; one quantum
        # stays in the occupation-0/1 states, read out in register order
        params = equal_params(1, 1.0, 0.5, 2)
        layout = params.layout()
        u = exact_propagator(params, layout, 0.4).entries
        psi = u[:, layout.flat_index((1, 0))]
        register = psi[[layout.flat_index(bits) for bits in np.ndindex(2, 2)]]
        assert np.linalg.norm(register) == pytest.approx(1.0, abs=1e-12)
        svals, _ = schmidt(register, 1)
        # Rabi transfer entangles the two modes at a generic time
        assert svals[1] > 0.1


def test_propagator_conserves_total_number():
    params = equal_params(2, 0.8, 0.9, 2)
    layout = params.layout()
    n_tot = total_number(layout).entries
    for t in (0.3, 1.1, 2.7):
        u = exact_propagator(params, layout, t).entries
        assert np.linalg.norm(u @ n_tot - n_tot @ u) <= 1e-10


def test_random_product_state_respects_floor(rng):
    for _ in range(25):
        psi = random_product_state(rng, 3, 0.2)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        for cut in (1, 2):
            assert schmidt(psi, cut).singular_values[1] <= 1e-12
        # marginal probabilities of a product state are the factor magnitudes squared
        cube = np.abs(psi.reshape(2, 2, 2)) ** 2
        for axis in range(3):
            marginal = cube.sum(axis=tuple(a for a in range(3) if a != axis))
            assert marginal.min() >= 0.2**2 - 1e-12
