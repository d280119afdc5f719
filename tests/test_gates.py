import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from couplersim.analysis import random_product_states, schmidt
from couplersim.engine import is_unitary
from couplersim.gates import (
    compose,
    control_c_phase,
    control_phase_shift,
    identity_gate,
    one_qubit_phase,
    relative_phase_2,
    relative_phase_n,
    swap_gate,
)


def kron_all(*vecs):
    out = np.array([1.0 + 0j])
    for v in vecs:
        out = np.kron(out, np.asarray(v, dtype=complex))
    return out


class TestConstructors:
    def test_one_qubit_phase(self):
        assert_allclose(one_qubit_phase(math.pi).matrix, np.diag([1, -1]), atol=1e-15)
        assert_allclose(one_qubit_phase(0.0).matrix, np.eye(2))
        alpha, beta = 0.6, 0.8j
        out = one_qubit_phase(math.pi).apply([alpha, beta])
        assert_allclose(out, [alpha, -beta], atol=1e-15)

    def test_control_c_phase(self):
        cz = control_c_phase()
        assert_allclose(cz.matrix, np.diag([1, 1, 1, -1]))
        assert_allclose(cz.apply(kron_all([0, 1], [0, 1])), -kron_all([0, 1], [0, 1]))
        assert_allclose(cz.apply(kron_all([1, 0], [0, 1])), kron_all([1, 0], [0, 1]))

    def test_control_phase_shift(self):
        shift = control_phase_shift()
        assert_allclose(shift.matrix, np.diag([1, 1, -1, -1]))
        assert_allclose(
            shift.apply(kron_all([0, 1], [1, 0])), -kron_all([0, 1], [1, 0])
        )
        for n in ([1, 0], [0, 1]):
            assert_allclose(shift.apply(kron_all([1, 0], n)), kron_all([1, 0], n))

    def test_control_phase_shift_on_products(self):
        # phases only the control qubit: (a|0>+b|1>)(c|0>+d|1>) -> (a|0>-b|1>)(...)
        a, b, c, d = 0.6, 0.8, 0.28, 0.96
        out = control_phase_shift().apply(kron_all([a, b], [c, d]))
        assert_allclose(out, kron_all([a, -b], [c, d]), atol=1e-15)

    def test_swap(self):
        assert_allclose(
            swap_gate().apply(kron_all([1, 0], [0, 1])), kron_all([0, 1], [1, 0])
        )
        assert_allclose(
            compose([swap_gate(), swap_gate()]).matrix, np.eye(4), atol=1e-15
        )
        symmetric = kron_all([0.6, 0.8], [0.6, 0.8])
        assert_allclose(swap_gate().apply(symmetric), symmetric, atol=1e-15)

    def test_relative_phase_2_matrix(self):
        theta = 0.77
        ph = np.exp(1j * theta)
        assert_allclose(relative_phase_2(theta).matrix, np.diag([1, ph, ph, 1]))
        assert_allclose(
            relative_phase_2(math.pi / 2).matrix, np.diag([1, 1j, 1j, 1]), atol=1e-15
        )

    def test_relative_phase_2_pi_action(self):
        gate = relative_phase_2(math.pi)
        for bits, sign in (((0, 0), 1), ((1, 1), 1), ((1, 0), -1), ((0, 1), -1)):
            basis = kron_all(*([(1, 0), (0, 1)][b] for b in bits))
            assert_allclose(gate.apply(basis), sign * basis, atol=1e-15)
        # product in, product out: (a|0>-b|1>)(c|0>-d|1>)
        a, b, c, d = 0.6, 0.8, 0.28, 0.96j
        out = gate.apply(kron_all([a, b], [c, d]))
        assert_allclose(out, kron_all([a, -b], [c, -d]), atol=1e-14)

    def test_relative_phase_2_general_theta_action(self):
        theta = 1.234
        ph = np.exp(1j * theta)
        a, b, c, d = 0.6, 0.8, 0.28, 0.96
        out = relative_phase_2(theta).apply(kron_all([a, b], [c, d]))
        expected = a * kron_all([1, 0], [c, d * ph]) + b * ph * kron_all(
            [0, 1], [c, d / ph]
        )
        assert_allclose(out, expected, atol=1e-14)

    def test_relative_phase_3(self):
        gate = relative_phase_n(3)
        diag = np.diag(gate.matrix)
        for code in range(8):
            bits = [(code >> 2) & 1, (code >> 1) & 1, code & 1]
            assert diag[code] == pytest.approx(-1.0 if sum(bits) % 2 else 1.0)
        a, b, c, d, e, f = 0.6, 0.8, 0.28, 0.96, 0.5, np.sqrt(0.75)
        out = gate.apply(kron_all([a, b], [c, d], [e, f]))
        assert_allclose(out, kron_all([a, -b], [c, -d], [e, -f]), atol=1e-14)

    @pytest.mark.parametrize("n", [3, 4, 6, 10])
    def test_relative_phase_n_is_the_parity_gate(self, n):
        gate = relative_phase_n(n)
        assert gate.label == f"relative_phase_{n}"
        parity = [-1.0 if bin(code).count("1") % 2 else 1.0 for code in range(2**n)]
        assert np.array_equal(gate.matrix, np.diag(parity).astype(complex))
        # The defining exponent form e^{i pi (j1 - j2 - ... - jn)}, j1 the top bit.
        bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
        exponent_form = np.exp(1j * math.pi * (bits[:, 0] - bits[:, 1:].sum(axis=1)))
        assert np.max(np.abs(np.diag(gate.matrix) - exponent_form)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2])
    def test_relative_phase_n_needs_three_qubits(self, n):
        with pytest.raises(ValueError, match="n >= 3"):
            relative_phase_n(n)

    @pytest.mark.parametrize(
        "build, qubits",
        [
            (lambda: one_qubit_phase(0.3), 1),
            (control_c_phase, 2),
            (control_phase_shift, 2),
            (swap_gate, 2),
            (lambda: relative_phase_2(math.pi), 2),
            *((lambda n=n: relative_phase_n(n), n) for n in range(3, 7)),
            *((lambda n=n: identity_gate(n), n) for n in range(3, 7)),
            (
                lambda: compose(
                    [control_phase_shift(), swap_gate(), control_phase_shift(), swap_gate()]
                ),
                2,
            ),
        ],
    )
    def test_constructors_build_complex_squares_of_their_register(self, build, qubits):
        # A gate's qubit count is read from its matrix, so every constructor
        # must build the complex 2^n x 2^n square its arguments imply.
        gate = build()
        assert gate.qubit_count == qubits
        assert gate.matrix.dtype == np.complex128
        assert gate.matrix.shape == (2**qubits, 2**qubits)


class TestAlgebra:
    def test_shift_swap_decomposition(self):
        shift, swap = control_phase_shift(), swap_gate()
        product = compose([shift, swap, shift, swap])
        assert np.linalg.norm(product.matrix - relative_phase_2(math.pi).matrix) <= 1e-12

    def test_involutions(self):
        for gate in (relative_phase_2(math.pi), control_c_phase(), relative_phase_n(3)):
            squared = compose([gate, gate])
            assert np.linalg.norm(squared.matrix - np.eye(2**gate.qubit_count)) <= 1e-14

    def test_family_diagonal_except_swap(self):
        for gate in (
            one_qubit_phase(0.3),
            control_c_phase(),
            control_phase_shift(),
            relative_phase_2(1.1),
            relative_phase_n(3),
        ):
            off = gate.matrix - np.diag(np.diag(gate.matrix))
            assert np.abs(off).max() == 0.0

    def test_unitarity(self):
        for gate in (
            one_qubit_phase(2.2),
            control_c_phase(),
            control_phase_shift(),
            swap_gate(),
            relative_phase_2(0.4),
            relative_phase_n(3),
            identity_gate(3),
        ):
            assert is_unitary(gate.matrix, 1e-12)

    def test_compose_rightmost_first(self):
        # shift then swap (reading right to left) sends |1,0> to -|0,1>
        out = compose([swap_gate(), control_phase_shift()]).apply(
            kron_all([0, 1], [1, 0])
        )
        assert_allclose(out, -kron_all([1, 0], [0, 1]), atol=1e-15)

    def test_compose_validation(self):
        with pytest.raises(ValueError):
            compose([])
        with pytest.raises(ValueError):
            compose([one_qubit_phase(0.1), swap_gate()])


class TestEntanglementDichotomy:
    def test_relative_gate_preserves_products(self, rng):
        gate = relative_phase_2(math.pi)
        for psi in random_product_states(rng, 2, 50):
            svals = schmidt(gate.apply(psi), 1)
            assert svals[1] <= 1e-12

    def test_control_c_entangles(self, rng):
        gate = control_c_phase()
        for psi in random_product_states(rng, 2, 50):
            svals = schmidt(gate.apply(psi), 1)
            assert svals[1] > 1e-3

    def test_control_shift_preserves_products(self, rng):
        gate = control_phase_shift()
        for psi in random_product_states(rng, 2, 50):
            svals = schmidt(gate.apply(psi), 1)
            assert svals[1] <= 1e-12


def test_json_matrix_round_trip():
    gate = relative_phase_2(math.pi / 2)
    packed = gate.to_json_matrix()
    unpacked = np.array([[complex(re, im) for re, im in row] for row in packed])
    assert_allclose(unpacked, gate.matrix)


def test_gates_compare_and_hash_by_identity():
    # A field-wise __eq__ would compare the matrices and raise on the array's
    # truth value; an ndarray field would make a generated __hash__ raise.
    gate = control_c_phase()
    assert gate == gate
    assert control_c_phase() != control_c_phase()
    assert hash(gate) == hash(gate)
    assert len({gate, control_c_phase()}) == 2
