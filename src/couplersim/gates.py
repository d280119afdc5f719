"""Conditional phase gates on small qubit registers.

Basis order is |j1 j2 ... jn> with j1 most significant, the order in which
the coupler's computational inputs are listed (j1 is the central mode).
Everything in the family is diagonal in the computational basis except SWAP;
the n-qubit relative phase gate is built directly as its parity diagonal,
-1 on odd-parity basis states.  A gate applies to one state vector or to
each row of a stack of states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QubitGate",
    "one_qubit_phase",
    "control_c_phase",
    "control_phase_shift",
    "swap_gate",
    "relative_phase_2",
    "relative_phase_n",
    "identity_gate",
    "compose",
]


@dataclass(frozen=True)
class QubitGate:
    """A matrix on an n-qubit register with a human-readable label.

    Family constructors produce exactly unitary matrices; gates extracted
    numerically from dynamics may carry a unitarity defect, which callers
    quantify separately as leakage.
    """

    qubit_count: int
    matrix: np.ndarray
    label: str

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        dim = 2**self.qubit_count
        if mat.shape != (dim, dim):
            raise ValueError(
                f"{self.label}: expected a {dim}x{dim} matrix, got {mat.shape}"
            )
        object.__setattr__(self, "matrix", mat)

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """The gate applied to one state (2^n,) or to each row of a stack (..., 2^n)."""
        return np.asarray(amplitudes, dtype=complex) @ self.matrix.T

    def to_json_matrix(self) -> list:
        """Row-major nested lists of [re, im] pairs."""
        return [[[float(z.real), float(z.imag)] for z in row] for row in self.matrix]


def one_qubit_phase(theta: float) -> QubitGate:
    """diag(1, e^{i theta}): phases |1>, leaves |0> alone."""
    return QubitGate(1, np.diag([1.0, np.exp(1j * theta)]), f"one_qubit_phase({theta:g})")


def control_c_phase() -> QubitGate:
    """diag(1, 1, 1, -1): |m,n> -> e^{i m n pi} |m,n>."""
    return QubitGate(2, np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex), "control_c_phase")


def control_phase_shift() -> QubitGate:
    """diag(1, 1, -1, -1): |m,n> -> e^{i m pi} |m,n>, phase set by the control bit."""
    return QubitGate(2, np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex), "control_phase_shift")


def swap_gate() -> QubitGate:
    """|m,n> -> |n,m>."""
    mat = np.zeros((4, 4), dtype=complex)
    for m in (0, 1):
        for n in (0, 1):
            mat[2 * n + m, 2 * m + n] = 1.0
    return QubitGate(2, mat, "swap")


def relative_phase_2(theta: float) -> QubitGate:
    """diag(1, e^{i theta}, e^{i theta}, 1): phases exactly the unequal basis states.

    At theta = pi this is |j1,j2> -> e^{i pi (j1 - j2)} |j1,j2>, the
    conditional gate realized by the coupler at its gate time.
    """
    ph = np.exp(1j * theta)
    return QubitGate(2, np.diag([1.0, ph, ph, 1.0]), f"relative_phase_2({theta:g})")


def relative_phase_n(n: int) -> QubitGate:
    """|j1,...,jn> -> e^{i pi (j1 - j2 - ... - jn)} |j1,...,jn>, for n >= 3 qubits.

    Every exponent is an integer multiple of pi, so the gate is -1 on
    odd-parity basis states and +1 on even-parity ones.  At n = 2 the same
    pattern is relative_phase_2(pi).
    """
    if n < 3:
        raise ValueError(f"relative_phase_n takes n >= 3 qubits, got {n}")
    odd = np.bitwise_count(np.arange(2**n)) % 2
    return QubitGate(n, np.diag(np.where(odd, -1.0, 1.0).astype(complex)), f"relative_phase_{n}")


def identity_gate(n: int) -> QubitGate:
    return QubitGate(n, np.eye(2**n, dtype=complex), "identity")


def compose(gates: list[QubitGate]) -> QubitGate:
    """Matrix product of the gates; the rightmost gate acts first."""
    if not gates:
        raise ValueError("compose needs at least one gate")
    n = gates[0].qubit_count
    if any(g.qubit_count != n for g in gates):
        raise ValueError("cannot compose gates on different register sizes")
    mat = np.eye(2**n, dtype=complex)
    for g in gates:
        mat = mat @ g.matrix
    return QubitGate(n, mat, "*".join(g.label for g in gates))
