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
    random_product_states,
    scan_times,
    schmidt,
    truth_table,
)
from couplersim.coupler import CouplerParams, exact_propagator
from couplersim.fock import block_occupations
from couplersim.gates import (
    QubitGate,
    control_c_phase,
    relative_phase_2,
    relative_phase_n,
)

from helpers import block_states, random_unitary, tensor_one_body, tensor_totals


def parity(code):
    """(-1)^K of the computational input code, K its number of ones."""
    return -1.0 if bin(code).count("1") % 2 else 1.0


def equal_params(n_outer, g, w):
    return CouplerParams(w, (g,) * n_outer)


class TestGateTime:
    def test_two_qubit_configuration(self):
        params = equal_params(1, 1.0, 0.5)
        t = gate_time(params, k=1)
        assert t == pytest.approx(2.0 * math.pi, abs=1e-12)
        assert params.w * t == pytest.approx(math.pi, abs=1e-12)  # m = 0

    def test_three_qubit_configuration(self):
        t = gate_time(equal_params(2, 1.0, math.sqrt(2) / 2.0), k=1)
        assert t == pytest.approx(math.pi * math.sqrt(2.0), abs=1e-12)

    def test_higher_winding(self):
        t = gate_time(equal_params(1, 1.0, 0.25), k=2)
        assert t == pytest.approx(4.0 * math.pi, abs=1e-12)

    def test_interaction_and_phase_conditions_hold(self):
        params = equal_params(2, 0.7, 0.7 * math.sqrt(2.0) * 1.5)  # m = 1
        t = gate_time(params, k=1)
        assert params.coupling_norm * t == pytest.approx(2.0 * math.pi, abs=1e-12)
        assert params.w * t == pytest.approx(3.0 * math.pi, abs=1e-12)

    def test_negative_coupling_gives_forward_time(self):
        t = gate_time(equal_params(1, -1.0, 0.5), k=1)
        assert t == pytest.approx(2.0 * math.pi, abs=1e-12)

    def test_free_phase_mismatch(self):
        with pytest.raises(FreePhaseMismatch):
            gate_time(equal_params(1, 1.0, 1.0 / 3.0), k=1)

    def test_unequal_couplings(self):
        # G has eigenvalues +-||g|| and 0, so the interaction winds back at
        # t = 2 pi / ||g|| whatever the individual couplings are.
        gs = (0.3, 0.9, -0.5)
        norm = math.sqrt(sum(g * g for g in gs))
        params = CouplerParams(w=norm / 2.0, couplings=gs)
        t = gate_time(params)
        assert t == pytest.approx(2.0 * math.pi / norm, abs=1e-12)
        assert params.w * t == pytest.approx(math.pi, abs=1e-12)  # m = 0
        amplitudes, leakage = truth_table(params, t)
        assert leakage <= 1e-9
        assert_allclose(amplitudes, [parity(x) for x in range(16)], rtol=0, atol=1e-9)

    def test_bad_winding(self):
        with pytest.raises(ValueError):
            gate_time(equal_params(1, 1.0, 0.5), k=0)

    def test_overflowing_time_is_refused(self):
        # ||g|| = 1e-320 is subnormal, so 2 pi / ||g|| is inf
        with pytest.raises(ValueError, match="not finite"):
            gate_time(equal_params(1, 1e-320, 0.5))


class TestTruthTable:
    def test_two_qubit_table(self):
        params = equal_params(1, 1.0, 0.5)
        amplitudes, leakage = truth_table(params, gate_time(params))
        assert leakage <= 1e-10
        # Inputs 00, 01, 10, 11.
        assert_allclose(amplitudes, [1, -1, -1, 1], rtol=0, atol=1e-10)

    def test_three_qubit_table_both_methods(self):
        params = equal_params(2, 1.0, math.sqrt(2) / 2.0)
        t = gate_time(params)
        for method in ("exact", "factorized"):
            amplitudes, leakage = truth_table(params, t, method=method)
            assert leakage <= 1e-9
            assert_allclose(amplitudes, [parity(x) for x in range(8)], rtol=0, atol=1e-9)

    def test_zero_time(self):
        params = equal_params(1, 1.0, 0.5)
        amplitudes, leakage = truth_table(params, 0.0)
        assert leakage <= 1e-12
        assert_allclose(amplitudes, np.ones(4), rtol=0, atol=1e-12)

    def test_serialization(self):
        # cli labels the report rows by the binary code of each amplitude's
        # index (see test_cli's test_csv_format): input x = (n_0 ... n_N),
        # mode 0 most significant, is the diagonal entry of U's block sum(x).
        params = CouplerParams(w=0.4, couplings=(0.3, 0.9))
        t = 0.7
        amplitudes, leakage = truth_table(params, t)
        blocks = exact_propagator(params, params.layout(3), t)
        assert amplitudes.shape == (8,) and amplitudes.dtype == complex
        assert type(leakage) is float
        for code, amp in enumerate(amplitudes.tolist()):
            occupations = [int(b) for b in format(code, "03b")]
            k = sum(occupations)
            idx = block_occupations(3, k).tolist().index(occupations)
            assert amp == blocks[k][idx, idx]


class TestExtractGate:
    def test_two_qubit_gate(self):
        params = equal_params(1, 1.0, 0.5)
        gate, leakage = extract_gate(params, gate_time(params))
        assert leakage <= 1e-9
        assert_allclose(gate.matrix, np.diag([1, -1, -1, 1]), atol=1e-9)
        assert np.linalg.norm(gate.matrix - relative_phase_2(math.pi).matrix) <= 1e-9

    def test_three_qubit_gate(self):
        params = equal_params(2, 1.0, math.sqrt(2) / 2.0)
        gate, leakage = extract_gate(params, gate_time(params))
        assert leakage <= 1e-9
        assert np.linalg.norm(gate.matrix - relative_phase_n(3).matrix) <= 1e-9

    def test_generic_time_leaks_and_matches_nothing(self):
        params = equal_params(1, 1.0, 0.5)
        gate, leakage = extract_gate(params, 0.3)
        assert leakage > 0.01
        for candidate in family_gates(2):
            assert np.linalg.norm(gate.matrix - candidate.matrix) > 0.1


class TestScanTimes:
    def test_two_qubit_hits(self):
        params = equal_params(1, 1.0, 0.5)
        hits = scan_times(params, t_min=0.1, t_max=13.0, steps=5000, tol=0.05)
        assert hits == sorted(hits, key=lambda h: h.t)
        relative = [h for h in hits if h.label.startswith("relative_phase_2")]
        identity = [h for h in hits if h.label == "identity"]
        assert relative and identity
        assert min(abs(h.t - 2.0 * math.pi) for h in relative) < 0.05
        assert min(abs(h.t - 4.0 * math.pi) for h in identity) < 0.05

    def test_three_qubit_hit(self):
        params = equal_params(2, 1.0, math.sqrt(2) / 2.0)
        hits = scan_times(params, t_min=3.0, t_max=6.0, steps=1500, tol=0.05)
        rel3 = [h for h in hits if h.label == "relative_phase_3"]
        assert rel3
        assert min(abs(h.t - math.pi * math.sqrt(2.0)) for h in rel3) < 0.05

    def test_tight_tolerance_gives_no_hits(self):
        params = equal_params(1, 1.0, 0.5)
        assert scan_times(params, t_min=0.1, t_max=13.0, steps=5000, tol=1e-12) == []

    def test_grid_validation(self):
        params = equal_params(1, 1.0, 0.5)
        with pytest.raises(ValueError):
            scan_times(params, t_min=1.0, t_max=0.5, steps=100, tol=0.1)
        with pytest.raises(ValueError):
            scan_times(params, t_min=0.5, t_max=1.0, steps=1, tol=0.1)

    def test_range_is_keyword_only(self):
        params = equal_params(1, 1.0, 0.5)
        with pytest.raises(TypeError):
            scan_times(params, 0.1, 13.0, 100, 0.05)


def computational_restriction(params, t):
    """U(t) on the occupation-0/1 states in binary order, entry by entry from its blocks.

    Entries between inputs of different excitation are zero.
    """
    modes = params.n_outer + 1
    blocks = exact_propagator(params, params.layout(modes), t)
    codes = list(np.ndindex(*(2,) * modes))
    r = np.zeros((len(codes), len(codes)), dtype=complex)
    for a, out in enumerate(codes):
        for b, inp in enumerate(codes):
            k = sum(inp)
            if sum(out) == k:
                states = block_states(modes, k)
                r[a, b] = blocks[k][states.index(out), states.index(inp)]
    return r


def reference_scan(params, t_min, t_max, steps, tol):
    """Per-point oracle: read the exact propagator's blocks at every grid point."""
    modes = params.n_outer + 1
    candidates = family_gates(modes)
    comp = range(2**modes)
    hits = []
    for t in np.linspace(t_min, t_max, steps):
        r = computational_restriction(params, float(t))
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
            (equal_params(1, 1.0, 0.5), 0.1, 13.0, 1001),
            # N = 2, dim 64.
            (equal_params(2, 1.0, math.sqrt(2) / 2.0), 3.0, 6.0, 300),
            # Unequal couplings: the interaction winds back at t = 2 pi / ||g||.
            (
                CouplerParams(w=math.sqrt(0.9) / 2.0, couplings=(0.3, 0.9)),
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
        hits = scan_times(params, t_min=t_min, t_max=t_max, steps=steps, tol=tol)
        assert expected, "oracle found no hits; the comparison would be vacuous"
        assert [(h.t, h.label) for h in hits] == [(t, label) for t, label, _ in expected]
        for hit, (_, _, dist) in zip(hits, expected):
            assert abs(hit.distance - dist) <= 1e-12

    @pytest.mark.parametrize("chunks, extra", [(0, 2), (0, 7), (1, 0), (1, 1), (2, 2)])
    def test_grid_sizes_around_the_chunk(self, chunks, extra):
        steps = chunks * analysis._SCAN_CHUNK + extra
        params = equal_params(1, 1.0, 0.5)
        expected = reference_scan(params, 6.0, 6.6, steps, 0.2)
        hits = scan_times(params, t_min=6.0, t_max=6.6, steps=steps, tol=0.2)
        assert [(h.t, h.label) for h in hits] == [(t, label) for t, label, _ in expected]
        for hit, (_, _, dist) in zip(hits, expected):
            assert abs(hit.distance - dist) <= 1e-12

    def test_extract_gate_matches_propagator_slice(self):
        params = equal_params(2, 0.8, 0.9)
        for t in (0.0, 0.37, 2.9):
            gate, leakage = extract_gate(params, t)
            r = computational_restriction(params, t)
            assert np.linalg.norm(gate.matrix - r) <= 1e-12
            assert leakage == pytest.approx(
                np.linalg.norm(r.conj().T @ r - np.eye(8)), abs=1e-12
            )

    @pytest.mark.parametrize("steps", [2, 500, 3000])
    def test_hamiltonian_built_and_diagonalized_once(self, monkeypatch, steps):
        # one build, then one eigh per block K = 0..N+1
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
        params = equal_params(1, 1.0, 0.5)
        scan_times(params, t_min=0.1, t_max=13.0, steps=steps, tol=0.05)
        assert counts == {"build": 1, "eigh": 3}

    @pytest.mark.parametrize(
        "t_min, t_max, tol",
        [(math.nan, 1.0, 0.1), (0.0, math.inf, 0.1), (0.0, 1.0, math.nan)],
    )
    def test_rejects_non_finite_inputs(self, t_min, t_max, tol):
        params = equal_params(1, 1.0, 0.5)
        with pytest.raises(ValueError, match="finite"):
            scan_times(params, t_min=t_min, t_max=t_max, steps=100, tol=tol)


class TestSchmidt:
    def test_control_c_on_plus_plus(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        state = control_c_phase().apply(np.kron(plus, plus))
        svals = schmidt(state, 1)
        assert_allclose(svals, [1.0 / math.sqrt(2.0)] * 2, atol=1e-12)

    def test_relative_gate_output_stays_product(self, rng):
        gate = relative_phase_2(math.pi)
        for psi in random_product_states(rng, 2, 20):
            out = gate.apply(psi)
            svals = schmidt(out, 1)
            assert svals[1] <= 1e-12

    def test_basis_product_state(self):
        state = np.array([0, 1, 0, 0], dtype=complex)
        svals = schmidt(state, 1)
        assert_allclose(svals, [1.0, 0.0], atol=1e-15)

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
        params = equal_params(1, 1.0, 0.5)
        u = exact_propagator(params, params.layout(2), 0.4)[1]
        states = block_states(2, 1)
        psi = u[:, states.index((1, 0))]
        # |00> and |11> lie in the blocks K = 0 and 2, which one quantum never reaches
        register = np.array([0.0, psi[states.index((0, 1))], psi[states.index((1, 0))], 0.0])
        assert np.linalg.norm(register) == pytest.approx(1.0, abs=1e-12)
        svals = schmidt(register, 1)
        # Rabi transfer entangles the two modes at a generic time
        assert svals[1] > 0.1


def test_propagator_conserves_total_number():
    # exp(-i t H) on the tensor product of 3 levels per mode, built with
    # np.kron outside the package, commutes with the total number, and its
    # block of total K is the exact propagator's block K.
    params = equal_params(2, 0.8, 0.9)
    g = np.zeros((3, 3))
    g[0, 1:] = params.couplings
    evals, vecs = np.linalg.eigh(tensor_one_body(params.w * np.eye(3) + g + g.T, 3))
    totals = tensor_totals(3, 3)
    n_tot = np.diag(totals)
    for t in (0.3, 1.1, 2.7):
        u = (vecs * np.exp(-1j * t * evals)) @ vecs.conj().T
        assert np.linalg.norm(u @ n_tot - n_tot @ u) <= 1e-10
        for k, block in enumerate(exact_propagator(params, params.layout(2), t)):
            idx = np.flatnonzero(totals == k)
            assert np.linalg.norm(u[np.ix_(idx, idx)] - block) <= 1e-10


def test_random_product_state_respects_floor(rng):
    for psi in random_product_states(rng, 3, 25, 0.2):
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        for cut in (1, 2):
            assert schmidt(psi, cut)[1] <= 1e-12
        # marginal probabilities of a product state are the factor magnitudes squared
        cube = np.abs(psi.reshape(2, 2, 2)) ** 2
        for axis in range(3):
            marginal = cube.sum(axis=tuple(a for a in range(3) if a != axis))
            assert marginal.min() >= 0.2**2 - 1e-12


def product_state_by_loop(rng, n_qubits, min_magnitude):
    """Reference: one product state, one rejection loop per qubit, np.kron."""
    out = np.array([1.0 + 0.0j])
    for _ in range(n_qubits):
        while True:
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            if float(np.min(np.abs(v))) >= min_magnitude:
                break
        out = np.kron(out, v)
    return out


class TestRandomProductStates:
    @pytest.mark.parametrize("floor", [0.1, 0.45])
    @pytest.mark.parametrize("count", [1, 7, 100])
    @pytest.mark.parametrize("n_qubits", [1, 2, 3])
    def test_rows_are_the_loop_draws(self, n_qubits, count, floor):
        # Floor 0.45 rejects about 40% of attempts, so several top-ups run.
        batched, looped = np.random.default_rng(5), np.random.default_rng(5)
        states = random_product_states(batched, n_qubits, count, floor)
        reference = np.array(
            [product_state_by_loop(looped, n_qubits, floor) for _ in range(count)]
        )
        assert states.shape == (count, 2**n_qubits)
        assert np.array_equal(states, reference)
        assert batched.random() == looped.random()

    def test_stacked_apply_and_schmidt_match_per_state(self, rng):
        for n_qubits in (2, 3):
            states = random_product_states(rng, n_qubits, 300)
            gates = [
                QubitGate(n_qubits, random_unitary(rng, 2**n_qubits), "random"),
                relative_phase_2(math.pi) if n_qubits == 2 else relative_phase_n(3),
            ]
            if n_qubits == 2:
                gates.append(control_c_phase())
            for gate in gates:
                out = gate.apply(states)
                each = np.array([gate.apply(psi) for psi in states])
                assert_allclose(out, each, rtol=0.0, atol=1e-15)
                for cut in range(1, n_qubits):
                    svals = schmidt(out, cut)
                    assert svals.shape == (300, 2 ** min(cut, n_qubits - cut))
                    for i in (0, 1, 299):
                        one = schmidt(out[i], cut)
                        assert_allclose(svals[i], one, rtol=0.0, atol=1e-15)

    def test_diagonal_gates_stack_bitwise(self, rng):
        # The dichotomy gates are diagonal: each output amplitude is one
        # product, so stacked and per-state results agree bit for bit.
        for gate in (relative_phase_2(math.pi), control_c_phase(), relative_phase_n(3)):
            states = random_product_states(rng, gate.qubit_count, 100)
            out = gate.apply(states)
            assert np.array_equal(out, np.array([gate.apply(psi) for psi in states]))
            svals = schmidt(out, 1)
            assert np.array_equal(svals, np.array([schmidt(psi, 1) for psi in out]))

    def test_one_state_off_norm_refuses_the_stack(self, rng):
        states = random_product_states(rng, 2, 5)
        states[3] *= 1.01
        with pytest.raises(NotNormalized):
            schmidt(states, 1)
        states[3] = np.nan
        with pytest.raises(NotNormalized):
            schmidt(states, 1)
