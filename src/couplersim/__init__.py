"""Numerical laboratory for a bandgap quantum coupler and its phase gates.

A central bosonic mode exchanges quanta with N outer modes on resonance.  The
package builds the dynamics on the excitation blocks K <= n_max, verifies an
exact symmetric disentangling of the propagator against a brute-force
exponential oracle, and reproduces the conditional phase-gate action of the
coupler on two and three qubits.  Each public name is imported from the
module that defines it (analysis, coupler, engine, fock, gates, cli); the
package root holds only __version__.
"""

__version__ = "0.1.0"
