"""Computational-basis diagnostics of the coupler dynamics.

Bridges the Fock-space propagator and the qubit gate family: finds the
interaction times at which the coupler acts as a pure phase pattern, tabulates
that pattern, extracts the effective gate, and quantifies entanglement via
Schmidt spectra.  The gate times have a closed form for any couplings: the
one-mode coupling matrix has eigenvalues +-||g|| and 0, so the interaction is
the identity at t = 2 pi k / ||g||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coupler import (
    CouplerParams,
    build_hamiltonian,
    exact_propagator,
    factorized_propagator,
)
from .engine import eigh_hermitian
from .fock import ModeLayout
from .gates import (
    QubitGate,
    control_c_phase,
    control_phase_shift,
    identity_gate,
    relative_phase_2,
    relative_phase_3,
    swap_gate,
)

__all__ = [
    "FreePhaseMismatch",
    "NotNormalized",
    "GateTimeSpec",
    "TruthTableRow",
    "TruthTable",
    "ScanHit",
    "SchmidtSpectrum",
    "gate_time",
    "truth_table",
    "extract_gate",
    "scan_times",
    "schmidt",
    "family_gates",
    "random_product_state",
]

FREE_PHASE_TOL = 1e-9

# Grid points per batched restriction in scan_times; bounds the working set to
# a few (chunk, 2^(N+1), dim) complex arrays.
_SCAN_CHUNK = 64


class FreePhaseMismatch(ValueError):
    pass


class NotNormalized(ValueError):
    pass


@dataclass(frozen=True)
class GateTimeSpec:
    """An interaction time at which the coupler is a pure phase gate.

    t satisfies ||g|| t = 2 pi k (the interaction winds back to the identity)
    and w t = (2m + 1) pi (odd free phase per excitation).  t is positive for
    any signs of the couplings.
    """

    t: float
    k: int
    m: int


def gate_time(params: CouplerParams, k: int = 1) -> GateTimeSpec:
    """Gate time of winding k, t = 2 pi k / ||g||, for any couplings.

    Raises FreePhaseMismatch when w t misses every odd multiple of pi by more
    than 1e-9.
    """
    if k < 1:
        raise ValueError(f"winding number k must be positive, got {k}")
    t = 2.0 * math.pi * k / params.coupling_norm
    wt = params.w * t
    m = round((wt / math.pi - 1.0) / 2.0)
    if m < 0 or abs(wt - (2 * m + 1) * math.pi) > FREE_PHASE_TOL:
        raise FreePhaseMismatch(
            f"w*t = {wt:.12g} is not an odd multiple of pi (k={k}, w={params.w})"
        )
    return GateTimeSpec(t=t, k=k, m=m)


@dataclass(frozen=True)
class TruthTableRow:
    occupations: tuple[int, ...]
    phase: complex
    fidelity: float


@dataclass(frozen=True)
class TruthTable:
    """Diagonal survival of every computational input under the propagator.

    leakage is the worst case over inputs of sqrt(mass outside the
    computational subspace) plus the off-diagonal mass inside it.
    """

    rows: tuple[TruthTableRow, ...]
    leakage: float

    def to_json_dict(self) -> dict:
        return {
            "rows": [
                {
                    "input": "".join(str(n) for n in r.occupations),
                    "phase_re": float(r.phase.real),
                    "phase_im": float(r.phase.imag),
                    "fidelity": float(r.fidelity),
                }
                for r in self.rows
            ],
            "leakage": float(self.leakage),
        }

    def to_csv_rows(self) -> list[list]:
        out = [["input", "phase_re", "phase_im", "fidelity"]]
        for r in self.rows:
            out.append(
                [
                    "".join(str(n) for n in r.occupations),
                    repr(float(r.phase.real)),
                    repr(float(r.phase.imag)),
                    repr(float(r.fidelity)),
                ]
            )
        return out


def _computational_indices(layout: ModeLayout) -> np.ndarray:
    """Flat indices of the occupation-0/1 states, in binary order of the bits.

    Raises OccupationOutOfRange when n_max is below the mode count, because the
    all-ones input then lies outside the basis.
    """
    modes = layout.mode_count
    idx = []
    for code in range(2**modes):
        bits = [(code >> (modes - 1 - b)) & 1 for b in range(modes)]
        idx.append(layout.flat_index(bits))
    return np.asarray(idx)


def _propagator_matrix(params, layout, t, method) -> np.ndarray:
    if method == "exact":
        return exact_propagator(params, layout, t).entries
    if method == "factorized":
        return factorized_propagator(params, layout, t).entries
    raise ValueError(f"unknown propagator method {method!r}")


def truth_table(
    params: CouplerParams, layout: ModeLayout, t: float, method: str = "exact"
) -> TruthTable:
    """Evolve each computational basis state and record its diagonal phase."""
    comp = _computational_indices(layout)
    u = _propagator_matrix(params, layout, t, method)
    outside = np.setdiff1d(np.arange(layout.dim), comp)
    rows = []
    leakage = 0.0
    for idx in comp:
        col = u[:, idx]
        amp = complex(col[idx])
        fid = min(1.0, abs(amp))  # roundoff can push |amp| epsilon past 1
        phase = amp / abs(amp) if fid > 1e-12 else 1.0 + 0.0j
        # Complement of the computational mass; for unitary u this equals
        # 1 - sum over computational outputs, without the cancellation.
        escaped = math.sqrt(float(np.sum(np.abs(col[outside]) ** 2)))
        off_diag = float(np.sum(np.abs(col[comp]) ** 2) - abs(amp) ** 2)
        leakage = max(leakage, escaped + max(0.0, off_diag))
        rows.append(
            TruthTableRow(
                occupations=layout.occupations(int(idx)), phase=phase, fidelity=fid
            )
        )
    return TruthTable(rows=tuple(rows), leakage=leakage)


def _computational_spectrum(
    params: CouplerParams, layout: ModeLayout
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of H and the computational rows V_c of its eigenvectors.

    U(t)[comp, comp] = V_c diag(exp(-i t lambda)) V_c^dag for every t, so one
    decomposition serves any number of interaction times.
    """
    comp = _computational_indices(layout)
    evals, vecs = eigh_hermitian(build_hamiltonian(params, layout).entries)
    return evals, vecs[comp, :]


def _restrictions(
    evals: np.ndarray, v_comp: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Computational restrictions R(t) and their leakage ||R^dag R - I||_F.

    Returns arrays of shape (len(times), c, c) and (len(times),), where
    c = 2^(N+1) is the number of computational states.
    """
    phases = np.exp(-1j * np.multiply.outer(times, evals))
    restrictions = (v_comp * phases[:, None, :]) @ v_comp.conj().T
    gram = np.conj(np.swapaxes(restrictions, 1, 2)) @ restrictions
    leakage = np.linalg.norm(gram - np.eye(v_comp.shape[0]), axis=(1, 2))
    return restrictions, leakage


def extract_gate(
    params: CouplerParams, layout: ModeLayout, t: float
) -> tuple[QubitGate, float]:
    """Restriction of the exact propagator to the computational subspace.

    Returns the restriction as a QubitGate (one qubit per mode) together with
    its unitarity defect ||R^dag R - I||_F as the leakage figure.
    """
    evals, v_comp = _computational_spectrum(params, layout)
    restrictions, leakage = _restrictions(evals, v_comp, np.array([t], dtype=float))
    gate = QubitGate(layout.mode_count, restrictions[0], f"extracted(t={t:.6g})")
    return gate, float(leakage[0])


def family_gates(qubit_count: int) -> list[QubitGate]:
    """Candidate gates the scanner matches against, per register size."""
    candidates = [identity_gate(qubit_count)]
    if qubit_count == 2:
        candidates += [
            relative_phase_2(math.pi),
            control_c_phase(),
            control_phase_shift(),
            swap_gate(),
        ]
    elif qubit_count == 3:
        candidates.append(relative_phase_3())
    return candidates


class ScanHit(NamedTuple):
    t: float
    label: str
    distance: float


def scan_times(
    params: CouplerParams,
    layout: ModeLayout,
    t_min: float,
    t_max: float,
    steps: int,
    tol: float,
) -> list[ScanHit]:
    """Grid search for times where the coupler realizes a family gate.

    A grid point is a hit when the extracted gate has leakage <= tol and sits
    within Frobenius distance tol of one of the family gates.  Results are
    ordered by t.  H is built and diagonalized once; every grid point is then
    evaluated from that spectrum, a chunk of points at a time.
    """
    if steps < 2:
        raise ValueError(f"need at least 2 grid points, got {steps}")
    if not (math.isfinite(t_min) and math.isfinite(t_max) and math.isfinite(tol)):
        raise ValueError(
            f"t_min, t_max and tol must be finite, got {t_min}, {t_max}, {tol}"
        )
    if not t_min < t_max:
        raise ValueError(f"need t_min < t_max, got [{t_min}, {t_max}]")
    candidates = family_gates(layout.mode_count)
    labels = [c.label for c in candidates]
    family = np.stack([c.matrix for c in candidates])
    evals, v_comp = _computational_spectrum(params, layout)
    grid = np.linspace(t_min, t_max, steps)
    hits = []
    for start in range(0, steps, _SCAN_CHUNK):
        times = grid[start : start + _SCAN_CHUNK]
        restrictions, leakage = _restrictions(evals, v_comp, times)
        distances = np.linalg.norm(
            restrictions[:, None] - family[None], axis=(2, 3)
        )
        close = (leakage <= tol) & (distances.min(axis=1) <= tol)
        for i in np.flatnonzero(close):
            best_dist, best_label = min(zip(distances[i].tolist(), labels))
            hits.append(ScanHit(t=float(times[i]), label=best_label, distance=best_dist))
    return hits


class SchmidtSpectrum(NamedTuple):
    singular_values: np.ndarray
    entropy_bits: float


def schmidt(amplitudes: np.ndarray, cut: int) -> SchmidtSpectrum:
    """Schmidt spectrum of a normalized n-qubit pure state across qubits [0, cut).

    amplitudes has length 2^n in the register order |j1 ... jn>, j1 most
    significant.  Singular values come back descending; the entropy is
    -sum sigma^2 log2 sigma^2 in bits.
    """
    amp = np.asarray(amplitudes, dtype=complex)
    n_qubits = amp.size.bit_length() - 1
    if amp.ndim != 1 or amp.size != 2**n_qubits:
        raise ValueError(f"expected a vector of 2^n amplitudes, got shape {amp.shape}")
    if not 1 <= cut < n_qubits:
        raise ValueError(f"cut must satisfy 1 <= cut < {n_qubits}, got {cut}")
    nrm = float(np.linalg.norm(amp))
    if abs(nrm - 1.0) > 1e-9:
        raise NotNormalized(f"state norm {nrm:.12g} is not 1")
    svals = np.linalg.svd(amp.reshape(2**cut, -1), compute_uv=False)
    probs = svals**2
    positive = probs[probs > 0.0]
    entropy = float(-np.sum(positive * np.log2(positive)))
    return SchmidtSpectrum(singular_values=svals, entropy_bits=entropy)


def random_product_state(
    rng: np.random.Generator, n_qubits: int, min_magnitude: float = 0.1
) -> np.ndarray:
    """Random product state whose single-qubit amplitudes all clear a floor.

    Each qubit is drawn Haar-like (normalized complex Gaussian pair) and
    redrawn until both amplitude magnitudes are at least min_magnitude.
    """
    out = np.array([1.0 + 0.0j])
    for _ in range(n_qubits):
        while True:
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            if float(np.min(np.abs(v))) >= min_magnitude:
                break
        out = np.kron(out, v)
    return out
