"""Numerical laboratory for a bandgap quantum coupler and its phase gates.

A central bosonic mode exchanges quanta with N outer modes on resonance.  The
package builds the dynamics on the excitation blocks K <= n_max, verifies an
exact symmetric disentangling of the propagator against a brute-force
exponential oracle, and reproduces the conditional phase-gate action of the
coupler on two and three qubits.
"""

from .analysis import (
    ScanHit,
    extract_gate,
    family_gates,
    gate_time,
    random_product_states,
    scan_times,
    schmidt,
    truth_table,
)
from .coupler import (
    CouplerParams,
    FactorCoefficients,
    FactorizationReport,
    NearSingularity,
    algebra_check,
    build_hamiltonian,
    exact_propagator,
    factor_coefficients,
    factorized_propagator,
    verify_factorization,
)
from .fock import ModeLayout, one_body
from .gates import (
    QubitGate,
    compose,
    control_c_phase,
    control_phase_shift,
    identity_gate,
    one_qubit_phase,
    relative_phase_2,
    relative_phase_n,
    swap_gate,
)

__version__ = "0.1.0"
