import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from couplersim import analysis
from couplersim.analysis import (
    FreePhaseMismatch,
    NotNormalized,
    gate_time,
    random_product_states,
    scan_times,
    schmidt,
    truth_table,
)
from couplersim.coupler import (
    CouplerParams,
    UnresolvedPhase,
    exact_propagator,
    mode_hamiltonian,
)
from couplersim.fock import block_occupations, one_body
from couplersim.gates import (
    QubitGate,
    control_c_phase,
    control_phase_shift,
    identity_gate,
    relative_phase_2,
    relative_phase_n,
    swap_gate,
)

from helpers import block_states, random_unitary, tensor_one_body, tensor_totals


def parity(code):
    """(-1)^K of the computational input code, K its number of ones."""
    return -1.0 if bin(code).count("1") % 2 else 1.0


def equal_params(n_outer, g, w):
    return CouplerParams(w, (g,) * n_outer)


def restrictions(params, times):
    """The scan's blocks R_K(t), placed in the full (len(times), 2^(N+1), 2^(N+1)) R(t)."""
    blocks = analysis._computational_spectrum(params)
    modes = params.n_outer + 1
    r = np.zeros((len(times), 2**modes, 2**modes), dtype=complex)
    for r_k, (_, _, codes) in zip(analysis._restrictions(blocks, times), blocks):
        r[:, codes[:, None], codes] = r_k
    return r


def restriction(params, t):
    """The scan's restriction R(t) at one time, and its leakage ||R^dag R - I||_F."""
    r = restrictions(params, np.array([t]))[0]
    return r, float(np.linalg.norm(r.conj().T @ r - np.eye(len(r))))


def realizable_gates(modes):
    """The gates a leakage-free restriction can be, up to phases: scan's candidates."""
    if modes == 2:
        return [identity_gate(2), relative_phase_2(math.pi), swap_gate()]
    return [identity_gate(modes), relative_phase_n(modes)]


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

    def test_negative_free_phase(self):
        # w t = -pi is the odd multiple with m = -1.
        params = CouplerParams(w=-0.5, couplings=(1.0,))
        t = gate_time(params)
        assert t == pytest.approx(2.0 * math.pi, abs=1e-12)
        amplitudes, leakage = truth_table(params, t)
        assert leakage <= 1e-9
        assert_allclose(amplitudes, [parity(x) for x in range(4)], rtol=0, atol=1e-9)

    def test_free_phase_mismatch(self):
        with pytest.raises(FreePhaseMismatch):
            gate_time(equal_params(1, 1.0, 1.0 / 3.0), k=1)

    def test_unresolvable_free_phase_is_refused(self):
        # w t = 2e16 pi has float spacing 8: (2m + 1) pi rounds to 2m pi, so
        # an even multiple would pass as odd.  The phase rule refuses it first.
        with pytest.raises(UnresolvedPhase, match="t\\*lambda_max"):
            gate_time(CouplerParams(w=1e16, couplings=(1.0,)))
        # At N = 1 and t = 2 pi the rule reads t*lambda_max = 4 pi (w + 1):
        # 8388599 for w = 667542.5, 8388612 for w = 667543.5, and inf for
        # w = 1e308.  Below 2^23 its spacing is at most 2^-30, under 1e-9.
        below = gate_time(CouplerParams(w=667542.5, couplings=(1.0,)))
        assert below == pytest.approx(2.0 * math.pi, abs=1e-12)
        for w in (667543.5, 1e308):
            with pytest.raises(UnresolvedPhase, match="t\\*lambda_max"):
                gate_time(CouplerParams(w=w, couplings=(1.0,)))

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
        with pytest.raises(UnresolvedPhase, match="t = inf"):
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

    @pytest.mark.parametrize("method", ["exact", "factorized"])
    def test_unresolvable_explicit_time_is_refused(self, method):
        # An explicit t meets gate_time's rule: at t = 1e17, t*lambda_max =
        # 2 t (w + ||g||) = 3e17 has float spacing 64, so the phases
        # e^{-i t lambda} carry no correct digit.
        params = equal_params(1, 1.0, 0.5)
        with pytest.raises(UnresolvedPhase, match="t\\*lambda_max = 3e\\+17 "):
            truth_table(params, 1e17, method=method)
        # The gate times 2 pi k for k = 444999 and 445031 put t*lambda_max = 3 t
        # at 8388034 and 8388637, either side of 2^23.
        truth_table(params, 2796011.178509609, method=method)
        with pytest.raises(UnresolvedPhase):
            truth_table(params, 2796212.2404394383, method=method)

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


class TestRestriction:
    """The restriction R(t) that scan_times compares with its candidates."""

    def test_two_qubit_gate(self):
        params = equal_params(1, 1.0, 0.5)
        gate, leakage = restriction(params, gate_time(params))
        assert leakage <= 1e-9
        assert_allclose(gate, np.diag([1, -1, -1, 1]), atol=1e-9)
        assert np.linalg.norm(gate - relative_phase_2(math.pi).matrix) <= 1e-9

    def test_three_qubit_gate(self):
        params = equal_params(2, 1.0, math.sqrt(2) / 2.0)
        gate, leakage = restriction(params, gate_time(params))
        assert leakage <= 1e-9
        assert np.linalg.norm(gate - relative_phase_n(3).matrix) <= 1e-9

    def test_generic_time_leaks_and_matches_nothing(self):
        params = equal_params(1, 1.0, 0.5)
        gate, leakage = restriction(params, 0.3)
        assert leakage > 0.01
        two_qubit_family = (
            identity_gate(2),
            relative_phase_2(math.pi),
            control_c_phase(),
            control_phase_shift(),
            swap_gate(),
        )
        for candidate in two_qubit_family:
            assert np.linalg.norm(gate - candidate.matrix) > 0.1


@pytest.mark.parametrize("modes", [2, 3, 4])
def test_candidates_conserve_the_number_of_ones(modes):
    # scan_times sums each candidate's distance from R over the blocks K, so
    # every candidate must map each input only to inputs with as many ones.
    if modes == 2:
        gates = [identity_gate(2), relative_phase_2(math.pi), swap_gate()]
    else:
        gates = [identity_gate(modes), relative_phase_n(modes)]
    ones = np.array([bin(x).count("1") for x in range(2**modes)])
    for gate in gates:
        outputs, inputs = np.nonzero(gate.matrix)
        assert np.array_equal(ones[outputs], ones[inputs]), gate.label


@pytest.mark.parametrize("n_outer", [1, 2, 3, 4, 5])
def test_top_block_is_the_all_ones_input_alone(n_outer):
    # scan_times screens every point on R_{N+1} = <1...1|U(t)|1...1>, a
    # scalar whose P_{N+1} column holds the weights |v_j|^2 of that input on
    # the eigenvectors: real, >= 0 and summing to R_{N+1}(0) = 1.  From N = 2
    # one coupling is zero (at N = 1 the only one must not be).
    rng = np.random.default_rng(40 + n_outer)
    g = rng.uniform(0.3, 1.5, n_outer) * rng.choice([-1.0, 1.0], n_outer)
    if n_outer > 1:
        g[rng.integers(n_outer)] = 0.0
    params = CouplerParams(w=float(rng.uniform(-1.0, 1.0)), couplings=tuple(g.tolist()))
    _, terms, codes = analysis._computational_spectrum(params)[-1]
    assert codes.tolist() == [2 ** (n_outer + 1) - 1]
    assert terms.shape[1] == 1
    assert np.abs(terms.imag).max() <= 1e-15
    assert terms.real.min() >= 0.0
    assert abs(terms.sum() - 1.0) <= 1e-14


def signed_couplers(n_outer, seed, count):
    """count seeded couplers with random signs and sizes, one coupling zero from N = 2."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        g = rng.uniform(0.3, 1.5, n_outer) * rng.choice([-1.0, 1.0], n_outer)
        if n_outer > 1:
            g[rng.integers(n_outer)] = 0.0
        yield CouplerParams(w=float(rng.uniform(-2.0, 2.0)), couplings=tuple(g.tolist()))


@pytest.mark.parametrize("n_outer", [1, 2, 3, 4])
def test_mode_eigenvectors_diagonalize_every_block(monkeypatch, n_outer):
    # _computational_spectrum diagonalizes h = w I + G = V diag(mu) V^dag
    # alone and takes block K's eigenvectors from Gamma(V), recorded here
    # from its image call.  On every block K <= N+1, Gamma(V)_K is unitary
    # and H_K Gamma(V)_K = Gamma(V)_K diag(lambda_K) within 1e-13 of
    # K (|w| + ||g||), the bound on ||H_K||_2, and lambda_K is the spectrum
    # of the Fock block.
    images, original = [], analysis.image

    def recording_image(u, n_max):
        images.append(original(u, n_max))
        return images[-1]

    monkeypatch.setattr(analysis, "image", recording_image)
    for params in signed_couplers(n_outer, 60 + n_outer, 5):
        images.clear()
        blocks = analysis._computational_spectrum(params)
        (vecs,) = images
        h = mode_hamiltonian(params)
        assert len(vecs) == len(blocks) == n_outer + 2
        for k, (v, (lam, _, _)) in enumerate(zip(vecs, blocks)):
            h_k = one_body(h, k)
            scale = k * (abs(params.w) + params.coupling_norm)
            assert np.linalg.norm(v.conj().T @ v - np.eye(len(v))) <= 1e-12
            assert np.linalg.norm(h_k @ v - v * lam) <= 1e-13 * scale
            assert np.abs(np.sort(lam) - np.linalg.eigvalsh(h_k)).max() <= 1e-13 * scale


@pytest.mark.parametrize("n_outer", [1, 2, 3])
def test_leakage_is_at_most_twice_the_distance(n_outer):
    # scan_times decides a hit by distance alone: R is a block of a unitary
    # and each candidate C is unitary, so ||R^dag R - I||_F <= 2 ||R - C||_F.
    rng = np.random.default_rng(80 + n_outer)
    candidates = realizable_gates(n_outer + 1)
    leaks = []
    for params in signed_couplers(n_outer, 70 + n_outer, 3):
        for t in rng.uniform(0.0, 4.0 * math.pi / params.coupling_norm, 8):
            r = computational_restriction(params, float(t))
            leakage = np.linalg.norm(r.conj().T @ r - np.eye(len(r)))
            distance = min(np.linalg.norm(r - c.matrix) for c in candidates)
            assert leakage <= 2.0 * distance + 1e-12
            leaks.append(leakage)
    assert max(leaks) > 0.1


# sqrt(4 - 3 * 2^(-2/3)): the closest R(t) comes to control-C at N = 1.
CONTROL_C_APPROACH = math.sqrt(4.0 - 3.0 * 2.0 ** (-2.0 / 3.0))


class TestClosestApproach:
    """At N = 1 control-C and the control phase shift are out of the coupler's reach."""

    @staticmethod
    def closed_form(params, times):
        """diag(1, z [[c, -is], [-is, c]], z^2 cos 2 theta), theta = g t, z = e^{-iwt}."""
        z = np.exp(-1j * params.w * times)
        c, s = np.cos(params.couplings[0] * times), np.sin(params.couplings[0] * times)
        r = np.zeros((len(times), 4, 4), dtype=complex)
        r[:, 0, 0] = 1.0
        r[:, 1, 1] = r[:, 2, 2] = z * c
        r[:, 1, 2] = r[:, 2, 1] = -1j * z * s
        r[:, 3, 3] = z**2 * (2.0 * c**2 - 1.0)
        return r

    def test_bounds_hold_on_random_couplers(self):
        rng = np.random.default_rng(7)
        times = np.linspace(0.0, 40.0, 20001)
        for _ in range(20):
            g = float(rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0]))
            params = CouplerParams(w=float(rng.uniform(-3.0, 3.0)), couplings=(g,))
            r = restrictions(params, times)
            assert np.max(np.abs(r - self.closed_form(params, times))) <= 1e-12
            to_cz = np.linalg.norm(r - control_c_phase().matrix, axis=(1, 2))
            to_shift = np.linalg.norm(r - control_phase_shift().matrix, axis=(1, 2))
            assert to_cz.min() >= CONTROL_C_APPROACH - 1e-9
            assert to_shift.min() >= 2.0 - 1e-9

    @pytest.mark.parametrize("g", [1.0, -1.0])
    def test_control_c_bound_is_attained(self, g):
        # c = cos t0 = 2^(-2/3), and w t0 = 2 pi makes z = 1.
        t0 = math.acos(2.0 ** (-2.0 / 3.0))
        params = CouplerParams(w=2.0 * math.pi / t0, couplings=(g,))
        r, _ = restriction(params, t0)
        distance = np.linalg.norm(r - control_c_phase().matrix)
        assert distance == pytest.approx(CONTROL_C_APPROACH, rel=0, abs=1e-12)
        assert CONTROL_C_APPROACH == pytest.approx(1.4526247, rel=0, abs=1e-7)


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

    @pytest.mark.parametrize(
        "w, t_min, t_max",
        [
            (0.5, 1e17, 1.0000000000001e17),  # both ends
            (1e6, 0.1, 13.0),  # t_max only: t*lambda_max = 2.6e7 at 13
            (0.5, -1e17, 0.1),  # t_min only
        ],
    )
    def test_unresolvable_phase_is_refused(self, w, t_min, t_max):
        # The phases e^{-i t lambda} carry no digit where t*lambda_max has
        # float spacing above 1e-9; a scan there would report a miss, not refuse.
        params = equal_params(1, 1.0, w)
        with pytest.raises(UnresolvedPhase, match="t\\*lambda_max") as err:
            scan_times(params, t_min=t_min, t_max=t_max, steps=20, tol=0.05)
        assert "odd multiple" not in str(err.value)

    def test_phase_limit_is_at_the_ends(self):
        # At w = g = 1 and N + 1 = 2 blocks, t*lambda_max = 4 |t|: the range is
        # resolved up to |t| just below 2^21, where the spacing reaches
        # 2^-30 < 1e-9, and refused from 2^21 on, at either end.
        params = equal_params(1, 1.0, 1.0)
        below = 2.0**21 * (1.0 - 2.0**-53)
        scan_times(params, t_min=below - 1.0, t_max=below, steps=2, tol=0.05)
        scan_times(params, t_min=-below, t_max=1.0 - below, steps=2, tol=0.05)
        with pytest.raises(UnresolvedPhase, match="K <= 2"):
            scan_times(params, t_min=below, t_max=2.0**21, steps=2, tol=0.05)
        with pytest.raises(UnresolvedPhase, match="K <= 2"):
            scan_times(params, t_min=-(2.0**21), t_max=-below, steps=2, tol=0.05)


def computational_restriction(params, t):
    """U(t) on the occupation-0/1 states in binary order, entry by entry from its blocks.

    Entries between inputs of different excitation are zero.
    """
    modes = params.n_outer + 1
    blocks = exact_propagator(params, params.layout(modes), t)
    states = [block_states(modes, k) for k in range(modes + 1)]
    codes = list(np.ndindex(*(2,) * modes))
    r = np.zeros((len(codes), len(codes)), dtype=complex)
    for a, out in enumerate(codes):
        for b, inp in enumerate(codes):
            k = sum(inp)
            if sum(out) == k:
                r[a, b] = blocks[k][states[k].index(out), states[k].index(inp)]
    return r


def reference_scan(params, t_min, t_max, steps, tol):
    """Per-point oracle: read the exact propagator's blocks at every grid point."""
    candidates = realizable_gates(params.n_outer + 1)
    hits = []
    for t in np.linspace(t_min, t_max, steps):
        r = computational_restriction(params, float(t))
        dist, label = min((np.linalg.norm(r - c.matrix), c.label) for c in candidates)
        if dist <= tol:
            hits.append((float(t), label, float(dist)))
    return hits


def top_share(params, t):
    """min_C |<1...1|U(t)|1...1> - C_{N+1}|, the top block's least distance, from the oracle."""
    top = computational_restriction(params, t)[-1, -1]
    return min(abs(top - c.matrix[-1, -1]) for c in realizable_gates(params.n_outer + 1))


def record_restrictions(monkeypatch, params, points):
    """Size scan_times' chunks to `points` points; list each _restrictions call.

    The list holds (blocks, times) per call, in call order.
    """
    blocks = analysis._computational_spectrum(params)
    per_point = sum(len(lam) + len(codes) ** 2 for lam, _, codes in blocks)
    monkeypatch.setattr(analysis, "_SCAN_BUDGET", points * per_point)
    calls = []
    original = analysis._restrictions

    def recording_restrictions(blocks, times):
        calls.append((blocks, times))
        return original(blocks, times)

    monkeypatch.setattr(analysis, "_restrictions", recording_restrictions)
    return calls


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

    @pytest.mark.parametrize("chunks, extra", [(0, 2), (0, 7), (1, 0), (3, 0), (3, 1), (4, 5)])
    @pytest.mark.parametrize(
        "params, t_min, t_max",
        [
            (equal_params(1, 1.0, 0.5), 6.0, 6.6),
            (equal_params(2, 1.0, math.sqrt(2) / 2.0), 4.2, 4.7),
        ],
        ids=["n1", "n2"],
    )
    def test_grid_sizes_around_the_chunk(
        self, monkeypatch, params, t_min, t_max, chunks, extra
    ):
        # Each chunk screens all its points on the top block, then builds the
        # other blocks on the points whose top block is within tol of a
        # candidate's only.
        calls = record_restrictions(monkeypatch, params, 8)
        steps = chunks * 8 + extra
        expected = reference_scan(params, t_min, t_max, steps, 0.2)
        hits = scan_times(params, t_min=t_min, t_max=t_max, steps=steps, tol=0.2)
        assert len(calls) % 2 == 0
        top, rest = calls[::2], calls[1::2]
        assert [len(times) for _, times in top] == [8] * chunks + ([extra] if extra else [])
        assert all(len(blocks) == 1 for blocks, _ in top)
        assert all(len(blocks) == params.n_outer + 1 for blocks, _ in rest)
        for (_, screened), (_, built) in zip(top, rest):
            keep = [top_share(params, float(t)) <= 0.2 for t in screened]
            assert built.tolist() == screened[keep].tolist()
        assert [(h.t, h.label) for h in hits] == [(t, label) for t, label, _ in expected]
        for hit, (_, _, dist) in zip(hits, expected):
            assert abs(hit.distance - dist) <= 1e-12
        if chunks >= 3:
            assert expected, "oracle found no hits; the comparison would be vacuous"
            assert sum(len(times) for _, times in rest) < steps

    @pytest.mark.parametrize(
        "params, t_min, t_max, steps",
        [
            (CouplerParams(w=0.25, couplings=(1.0,)), 0.1, 13.0, 400),
            (equal_params(2, 1.0, math.sqrt(2) / 2.0), 3.0, 6.0, 300),
        ],
        ids=["n1", "n2"],
    )
    def test_prefilter_keeps_a_point_at_the_tolerance(self, params, t_min, t_max, steps):
        # Of the hits at tol 0.3, the one whose top-block share carries the
        # largest part of its distance is still reported when tol is its
        # distance to the bit: the scan's float distance^2 is a sum of
        # non-negative shares that includes the one the screen tests, so
        # the screen never drops a point the hit rule would keep.  The
        # oracle, which rounds differently, gets 1e-14 more.
        loose = scan_times(params, t_min=t_min, t_max=t_max, steps=steps, tol=0.3)
        ratio, t, tol = max((top_share(params, h.t) / h.distance, h.t, h.distance) for h in loose)
        assert ratio > 0.1
        expected = reference_scan(params, t_min, t_max, steps, tol + 1e-14)
        hits = scan_times(params, t_min=t_min, t_max=t_max, steps=steps, tol=tol)
        assert t in [h.t for h in hits]
        assert [(h.t, h.label) for h in hits] == [(t, label) for t, label, _ in expected]
        for hit, (_, _, dist) in zip(hits, expected):
            assert abs(hit.distance - dist) <= 1e-12

    def test_chunks_the_screen_empties(self, monkeypatch):
        # At w = g / 2, |R_2|^2 returns to 1 near every t = k pi, and the
        # hits are at even k, so the 8-point chunks between those windows
        # keep no point; the scan passes them over without error.
        params = equal_params(1, 1.0, 0.5)
        calls = record_restrictions(monkeypatch, params, 8)
        expected = reference_scan(params, 0.1, 13.0, 400, 0.05)
        hits = scan_times(params, t_min=0.1, t_max=13.0, steps=400, tol=0.05)
        gates = {identity_gate(2).label, relative_phase_2(math.pi).label}
        assert {label for _, label, _ in expected} == gates
        assert [(h.t, h.label) for h in hits] == [(t, label) for t, label, _ in expected]
        for hit, (_, _, dist) in zip(hits, expected):
            assert abs(hit.distance - dist) <= 1e-12
        screened = [times for _, times in calls[::2]]
        built = [times for _, times in calls[1::2]]
        assert any(
            hits[0].t < chunk[0] and chunk[-1] < hits[-1].t and not len(kept)
            for chunk, kept in zip(screened, built)
        )

    def test_survivors_near_no_candidate_are_not_hits(self, monkeypatch):
        # At w = g = 1 and t = pi / 2, R(t) = diag(1, -X, 1): its top block is
        # every candidate's, 1, but it is 2 from the identity and the parity
        # gate and 2 sqrt(2) from SWAP, so points around it survive the
        # screen and none is a hit.
        params = equal_params(1, 1.0, 1.0)
        calls = record_restrictions(monkeypatch, params, 8)
        assert reference_scan(params, 1.45, 1.7, 60, 0.05) == []
        assert scan_times(params, t_min=1.45, t_max=1.7, steps=60, tol=0.05) == []
        assert sum(len(times) for _, times in calls[1::2]) > 0

    @pytest.mark.parametrize("g, w", [(1.0, 3.0), (-1.0, 1.0)])
    def test_phased_swap_hits_match_per_point_reference(self, g, w):
        # At t = pi / 2, c = 0 and s = 1, and z = e^{-i w t} is i for
        # (g, w) = (1, 3) and -i for (-1, 1): either way R(t) is SWAP exactly.
        # A sign or transpose slip in the eigenvectors Gamma(V) turns the
        # middle block into -X, 2 sqrt(2) from SWAP, and loses these hits.
        params = CouplerParams(w=w, couplings=(g,))
        expected = reference_scan(params, 1.4, 1.75, 351, 0.05)
        hits = scan_times(params, t_min=1.4, t_max=1.75, steps=351, tol=0.05)
        assert {label for _, label, _ in expected} == {swap_gate().label}
        assert [(h.t, h.label) for h in hits] == [(t, label) for t, label, _ in expected]
        for hit, (_, _, dist) in zip(hits, expected):
            assert abs(hit.distance - dist) <= 1e-12

    def test_random_couplers_match_per_point_reference(self):
        # N = 1, 2 and 3 with random signs and sizes, the N = 2 one with a
        # zero coupling; w puts the first gate time T = 2 pi / ||g|| on the
        # identity or the parity gate, and the grid spans T +- 5%.
        rng = np.random.default_rng(22)
        for n_outer, steps in ((1, 300), (2, 200), (3, 80)):
            g = rng.uniform(0.3, 1.5, n_outer) * rng.choice([-1.0, 1.0], n_outer)
            if n_outer == 2:
                g[1] = 0.0
            norm = float(np.linalg.norm(g))
            w = norm * int(rng.integers(0, 4)) / 2.0
            params = CouplerParams(w=w, couplings=tuple(g.tolist()))
            t_gate = 2.0 * math.pi / norm
            t_min, t_max = 0.95 * t_gate, 1.05 * t_gate
            expected = reference_scan(params, t_min, t_max, steps, 0.1)
            hits = scan_times(params, t_min=t_min, t_max=t_max, steps=steps, tol=0.1)
            assert expected, f"no oracle hits for {params}"
            assert [(h.t, h.label) for h in hits] == [(t, label) for t, label, _ in expected]
            for hit, (_, _, dist) in zip(hits, expected):
                assert abs(hit.distance - dist) <= 1e-12

    def test_restriction_matches_propagator_slice(self):
        params = equal_params(2, 0.8, 0.9)
        for t in (0.0, 0.37, 2.9):
            gate, leakage = restriction(params, t)
            r = computational_restriction(params, t)
            assert np.linalg.norm(gate - r) <= 1e-12
            assert leakage == pytest.approx(
                np.linalg.norm(r.conj().T @ r - np.eye(8)), abs=1e-12
            )

    @pytest.mark.parametrize("steps", [2, 500, 3000])
    def test_hamiltonian_built_and_diagonalized_once(self, monkeypatch, steps):
        # one mode matrix built and one eigh, on that (N+1) x (N+1) matrix,
        # whatever the number of points
        shapes, builds = [], []
        original_build, original_eigh = analysis.mode_hamiltonian, np.linalg.eigh

        def counting_build(*args, **kwargs):
            builds.append(args)
            return original_build(*args, **kwargs)

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original_eigh(a, *args, **kwargs)

        monkeypatch.setattr(analysis, "mode_hamiltonian", counting_build)
        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        params = equal_params(2, 1.0, math.sqrt(2) / 2.0)
        scan_times(params, t_min=3.0, t_max=6.0, steps=steps, tol=0.05)
        assert len(builds) == 1
        assert shapes == [(3, 3)]

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
                QubitGate(random_unitary(rng, 2**n_qubits), "random"),
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
