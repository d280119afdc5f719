"""Acceptance suite.

Each test prints one `[acceptance] ... PASS/FAIL` line (visible with -s or
-rA) and enforces its stated tolerance.  Randomized criteria use fixed seeds
so the suite is deterministic.
"""

import math

import numpy as np
import pytest

from couplersim.analysis import (
    extract_gate,
    gate_time,
    random_product_states,
    schmidt,
    truth_table,
)
from couplersim.coupler import (
    CouplerParams,
    NearSingularity,
    algebra_check,
    exact_propagator,
    factor_coefficients,
    factorized_propagator,
    singularity_margin,
    verify_factorization,
)
from couplersim.gates import (
    compose,
    control_c_phase,
    control_phase_shift,
    relative_phase_2,
    relative_phase_n,
    swap_gate,
)

DRAWS_PER_CASE = 20
PRODUCT_STATES = 100


def report(criterion: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {verdict} ({detail})")


def draw_admissible(rng, n_outer: int) -> tuple[tuple[float, ...], float, float]:
    """Couplings, frequency and time with sqrt(gamma) >= 0.05 away from poles."""
    while True:
        gs = tuple(
            float(rng.uniform(0.2, 1.2) * rng.choice([-1.0, 1.0]))
            for _ in range(n_outer)
        )
        w = float(rng.uniform(0.0, 2.0))
        t = float(rng.uniform(0.1, 2.5))
        sg = abs(t) * math.sqrt(sum(g * g for g in gs))
        if singularity_margin(sg) >= 0.05:
            return gs, w, t


def test_criterion_1_factorization_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    cases = 0
    for n_outer in (1, 2, 3):
        for n_max in (2, 3):
            for _ in range(DRAWS_PER_CASE):
                gs, w, t = draw_admissible(rng, n_outer)
                params = CouplerParams(w=w, couplings=gs)
                result = verify_factorization(params, params.layout(n_max), t)
                worst = max(worst, result.max_block_distance)
                cases += 1
    passed = worst <= 1e-8
    report(
        "criterion 1 (factorization equivalence)",
        passed,
        f"max block distance {worst:.3e} over {cases} draws",
    )
    assert passed


def _check_phase_table(params, t, expected_by_input, tol):
    worst = 0.0
    for method in ("exact", "factorized"):
        amplitudes, leakage = truth_table(params, t, method=method)
        worst = max(worst, leakage)
        for code, amp in enumerate(amplitudes):
            bits = tuple(int(b) for b in format(code, f"0{params.n_outer + 1}b"))
            worst = max(worst, abs(amp - expected_by_input[bits]))
    return worst


def test_criterion_2_two_qubit_truth_table():
    params = CouplerParams(w=0.5, couplings=(1.0,))
    t = 2.0 * math.pi
    expected = {(0, 0): 1.0, (1, 1): 1.0, (1, 0): -1.0, (0, 1): -1.0}
    worst = _check_phase_table(params, t, expected, 1e-9)
    passed = worst <= 1e-9
    report(
        "criterion 2 (two-qubit truth table)",
        passed,
        f"worst deviation {worst:.3e} across exact and factorized",
    )
    assert passed


def test_criterion_3_three_qubit_truth_table():
    params = CouplerParams(w=math.sqrt(2.0) / 2.0, couplings=(1.0, 1.0))
    t = math.pi * math.sqrt(2.0)
    expected = {}
    for code in range(8):
        bits = ((code >> 2) & 1, (code >> 1) & 1, code & 1)
        expected[bits] = -1.0 if sum(bits) % 2 else 1.0
    worst = _check_phase_table(params, t, expected, 1e-9)
    gate, _ = extract_gate(params, t)
    gate_dist = float(np.linalg.norm(gate.matrix - relative_phase_n(3).matrix))
    passed = worst <= 1e-9 and gate_dist <= 1e-9
    report(
        "criterion 3 (three-qubit truth table)",
        passed,
        f"worst deviation {worst:.3e}, gate distance {gate_dist:.3e}",
    )
    assert passed


def test_criterion_4_shift_swap_identity():
    product = compose(
        [control_phase_shift(), swap_gate(), control_phase_shift(), swap_gate()]
    )
    dist = float(np.linalg.norm(product.matrix - relative_phase_2(math.pi).matrix))
    passed = dist <= 1e-12
    report("criterion 4 (shift/SWAP decomposition)", passed, f"distance {dist:.3e}")
    assert passed


def test_criterion_5_entanglement_dichotomy():
    rng2 = np.random.default_rng(1)
    states2 = random_product_states(rng2, 2, PRODUCT_STATES, 0.1)
    rng3 = np.random.default_rng(1)
    states3 = random_product_states(rng3, 3, PRODUCT_STATES, 0.1)

    rel2_second = 0.0
    cz_second_min = 1.0
    for psi in states2:
        out = relative_phase_2(math.pi).apply(psi)
        rel2_second = max(
            rel2_second, float(schmidt(out, 1)[1])
        )
        svals = schmidt(control_c_phase().apply(psi), 1)
        cz_second_min = min(cz_second_min, float(svals[1]))
    rel3_second = 0.0
    for psi in states3:
        out = relative_phase_n(3).apply(psi)
        for cut in (1, 2):
            rel3_second = max(
                rel3_second, float(schmidt(out, cut)[1])
            )
    passed = rel2_second <= 1e-10 and rel3_second <= 1e-10 and cz_second_min >= 0.05
    report(
        "criterion 5 (entanglement dichotomy)",
        passed,
        f"relative gates second coefficient <= {max(rel2_second, rel3_second):.3e}, "
        f"control-C minimum {cz_second_min:.3f}",
    )
    assert passed


def test_criterion_6_algebra_residual():
    configs = [
        (CouplerParams(w=0.5, couplings=(1.0,)), 4),
        (CouplerParams(w=1.0, couplings=(0.6,)), 3),
        (CouplerParams(w=0.9, couplings=(0.8, 0.8)), 3),
        (CouplerParams(w=0.5, couplings=(0.3, 0.9)), 3),
    ]
    worst = max(algebra_check(params, params.layout(n_max)) for params, n_max in configs)
    passed = worst <= 1e-12
    report(
        "criterion 6 (commutator algebra residual)",
        passed,
        f"max residual {worst:.3e}, fixed sign [J3, J+-] = +-(sum g^2) J+-",
    )
    assert passed


def test_criterion_7_small_t_generator():
    params = CouplerParams(w=1.3, couplings=(0.9, 0.4))
    layout = params.layout(2)
    delta = 1e-4
    derivatives = []
    for propagator in (exact_propagator, factorized_propagator):
        plus = propagator(params, layout, delta)
        minus = propagator(params, layout, -delta)
        derivatives.append([(p - m) / (2.0 * delta) for p, m in zip(plus, minus)])
    # Frobenius norm over all blocks K = 0..n_max
    deviation = math.sqrt(
        sum(np.linalg.norm(e - f) ** 2 for e, f in zip(*derivatives))
    )
    passed = deviation <= 1e-6
    report(
        "criterion 7 (small-time generator match)",
        passed,
        f"finite-difference deviation {deviation:.3e}",
    )
    assert passed


def test_criterion_8_singularity_refusal():
    params = CouplerParams(w=0.5, couplings=(1.0,))
    layout = params.layout(2)
    raised = False
    try:
        factorized_propagator(params, layout, math.pi)
    except NearSingularity:
        raised = True
    report(
        "criterion 8 (singularity refusal)",
        raised,
        "factorized propagator at sqrt(gamma) = pi raises NearSingularity",
    )
    assert raised
    with pytest.raises(NearSingularity):
        factor_coefficients(params, math.pi)
