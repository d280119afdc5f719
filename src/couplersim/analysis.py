"""Computational-basis diagnostics of the coupler dynamics.

Bridges the Fock-space propagator and the qubit gate family: finds the
interaction times at which the coupler acts as a pure phase pattern, measures
the diagonal amplitudes of the computational inputs, extracts the effective
gate, and measures entanglement by Schmidt coefficients; no verdict is made
here.  truth_table, extract_gate and scan_times take the coupler alone and
no layout: they build the excitation blocks K <= N+1 that hold the
occupation-0/1 inputs from N, so they have no truncation to choose.  The
gate times have a closed form for any couplings: the one-mode coupling
matrix has eigenvalues +-||g|| and 0, so the interaction is the identity at
t = 2 pi k / ||g||, the float gate_time returns.  Qubit states travel as
rows: random product states are drawn as a (count, 2^n) stack and schmidt
returns the singular values of a whole stack from one SVD.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .coupler import (
    CouplerParams,
    build_hamiltonian,
    exact_propagator,
    factorized_propagator,
)
from .engine import eigh_hermitian, finite_max
from .fock import ModeLayout, block_occupations
from .gates import (
    QubitGate,
    control_c_phase,
    control_phase_shift,
    identity_gate,
    relative_phase_2,
    relative_phase_n,
    swap_gate,
)

__all__ = [
    "FreePhaseMismatch",
    "NotNormalized",
    "ScanHit",
    "gate_time",
    "truth_table",
    "extract_gate",
    "scan_times",
    "schmidt",
    "family_gates",
    "random_product_states",
]

FREE_PHASE_TOL = 1e-9

# Floor on every amplitude magnitude of the qubits random_product_states draws.
MIN_MAGNITUDE = 0.1

# Grid points per batched restriction in scan_times; bounds the working set to
# a few (chunk, 2^(N+1), dim) complex arrays, dim that of the blocks K <= N+1.
_SCAN_CHUNK = 64


class FreePhaseMismatch(ValueError):
    pass


class NotNormalized(ValueError):
    pass


def gate_time(params: CouplerParams, k: int = 1) -> float:
    """Gate time of winding k, t = 2 pi k / ||g||, for any couplings.

    t satisfies ||g|| t = 2 pi k (the interaction winds back to the identity)
    and w t = (2m + 1) pi for some m >= 0 (odd free phase per excitation).
    t is positive for any signs of the couplings.  Raises ValueError when t
    overflows (||g|| is subnormal) and FreePhaseMismatch when w t misses
    every odd multiple of pi by more than 1e-9.
    """
    if k < 1:
        raise ValueError(f"winding number k must be positive, got {k}")
    t = 2.0 * math.pi * k / params.coupling_norm
    if not math.isfinite(t):
        raise ValueError(
            f"gate time 2 pi k / ||g|| is not finite (||g|| = {params.coupling_norm})"
        )
    wt = params.w * t
    m = round((wt / math.pi - 1.0) / 2.0)
    if m < 0 or abs(wt - (2 * m + 1) * math.pi) > FREE_PHASE_TOL:
        raise FreePhaseMismatch(
            f"w*t = {wt:.12g} is not an odd multiple of pi (k={k}, w={params.w})"
        )
    return t


def _computational_space(
    params: CouplerParams,
) -> tuple[ModeLayout, np.ndarray, np.ndarray, np.ndarray]:
    """The blocks K <= M, the occupation-0/1 states, their K and places.

    The (2^M, M) states come in binary order, mode 0 most significant; each
    state's position is inside its block K, K its number of ones.
    """
    modes = params.n_outer + 1
    shifts = np.arange(modes - 1, -1, -1)
    bits = (np.arange(2**modes)[:, None] >> shifts) & 1
    position = np.empty(2**modes, dtype=np.intp)
    for k in range(modes + 1):
        table = block_occupations(modes, k)
        binary = np.flatnonzero(table.max(axis=1) <= 1)
        position[table[binary] @ (1 << shifts)] = binary
    return params.layout(modes), bits, bits.sum(axis=1), position


def truth_table(
    params: CouplerParams, t: float, method: str = "exact"
) -> tuple[np.ndarray, float]:
    """Diagonal amplitudes <x|U(t)|x> of the computational inputs, and the leakage.

    The 2^(N+1) amplitudes come in binary order of x, mode 0 most significant.
    leakage is the worst case over inputs of the norm of the input's column
    without its diagonal entry: the amplitude that left the input, whether to
    another computational state or out of the computational subspace.
    """
    layout, _, totals, position = _computational_space(params)
    if method not in ("exact", "factorized"):
        raise ValueError(f"unknown propagator method {method!r}")
    propagator = exact_propagator if method == "exact" else factorized_propagator
    u = propagator(params, layout, t)
    amplitudes = np.empty(len(totals), dtype=complex)
    leakages = []
    for x, (k, idx) in enumerate(zip(totals, position)):
        col = u[k][:, idx]
        amplitudes[x] = col[idx]
        # Summed from the other outputs; for unitary u this is
        # sqrt(1 - |col[idx]|^2), without the cancellation.
        leakages.append(math.sqrt(float(np.sum(np.abs(np.delete(col, idx)) ** 2))))
    return amplitudes, finite_max(leakages, "truth-table leakage")


def _computational_spectrum(params: CouplerParams) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of H and the computational rows V_c of its eigenvectors.

    Each block K <= M is diagonalized on its own, so V_c is zero between a
    row and an eigenvector of different K.  For every t,
    U(t)[comp, comp] = V_c diag(exp(-i t lambda)) V_c^dag, so one
    decomposition serves any number of interaction times.
    """
    layout, bits, totals, position = _computational_space(params)
    spectra = [eigh_hermitian(h) for h in build_hamiltonian(params, layout)]
    evals = np.concatenate([lam for lam, _ in spectra])
    v_comp = np.zeros((len(bits), len(evals)), dtype=complex)
    start = 0
    for k, (lam, vecs) in enumerate(spectra):
        rows = totals == k
        v_comp[rows, start : start + len(lam)] = vecs[position[rows]]
        start += len(lam)
    return evals, v_comp


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


def extract_gate(params: CouplerParams, t: float) -> tuple[QubitGate, float]:
    """Restriction of the exact propagator to the computational subspace.

    Returns the restriction as a QubitGate (one qubit per mode) together with
    its unitarity defect ||R^dag R - I||_F as the leakage figure.
    """
    evals, v_comp = _computational_spectrum(params)
    restrictions, leakage = _restrictions(evals, v_comp, np.array([t], dtype=float))
    gate = QubitGate(params.n_outer + 1, restrictions[0], f"extracted(t={t:.6g})")
    return gate, float(leakage[0])


def family_gates(qubit_count: int) -> list[QubitGate]:
    """Candidate gates the scanner matches against, for 2 or more qubits.

    Every size offers the identity and the parity gate the coupler applies at
    its gate times; two qubits add the rest of the two-qubit family.
    """
    candidates = [identity_gate(qubit_count)]
    if qubit_count == 2:
        candidates += [
            relative_phase_2(math.pi),
            control_c_phase(),
            control_phase_shift(),
            swap_gate(),
        ]
    else:
        candidates.append(relative_phase_n(qubit_count))
    return candidates


class ScanHit(NamedTuple):
    t: float
    label: str
    distance: float


def scan_times(
    params: CouplerParams, *, t_min: float, t_max: float, steps: int, tol: float
) -> list[ScanHit]:
    """Grid search for times where the coupler realizes a family gate.

    A grid point is a hit when the extracted gate has leakage <= tol and sits
    within Frobenius distance tol of one of the family gates.  Results are
    ordered by t.  H is built once and diagonalized once per block; every
    grid point is then evaluated from that spectrum, a chunk of points at a
    time.
    """
    if steps < 2:
        raise ValueError(f"need at least 2 grid points, got {steps}")
    if not (math.isfinite(t_min) and math.isfinite(t_max) and math.isfinite(tol)):
        raise ValueError(
            f"t_min, t_max and tol must be finite, got {t_min}, {t_max}, {tol}"
        )
    if not t_min < t_max:
        raise ValueError(f"need t_min < t_max, got [{t_min}, {t_max}]")
    candidates = family_gates(params.n_outer + 1)
    labels = [c.label for c in candidates]
    family = np.stack([c.matrix for c in candidates])
    evals, v_comp = _computational_spectrum(params)
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


def schmidt(amplitudes: np.ndarray, cut: int) -> np.ndarray:
    """Schmidt coefficients of normalized n-qubit pure states across qubits [0, cut).

    amplitudes holds one state (2^n,) or a stack (..., 2^n), each in the
    register order |j1 ... jn>, j1 most significant.  The singular values come
    back descending, shape (..., 2^min(cut, n - cut)), from one SVD of the
    whole stack.  Every state must have norm 1 within 1e-9.
    """
    amp = np.asarray(amplitudes, dtype=complex)
    size = amp.shape[-1] if amp.ndim else 0
    n_qubits = size.bit_length() - 1
    if size != 2**n_qubits:
        raise ValueError(f"expected states of 2^n amplitudes, got shape {amp.shape}")
    if not 1 <= cut < n_qubits:
        raise ValueError(f"cut must satisfy 1 <= cut < {n_qubits}, got {cut}")
    nrm = np.linalg.norm(amp, axis=-1)
    worst = float(np.max(np.abs(nrm - 1.0)))
    if not worst <= 1e-9:
        raise NotNormalized(f"state norm off 1 by {worst:.12g}")
    return np.linalg.svd(amp.reshape(*amp.shape[:-1], 2**cut, -1), compute_uv=False)


def random_product_states(
    rng: np.random.Generator, n_qubits: int, count: int, min_magnitude: float = MIN_MAGNITUDE
) -> np.ndarray:
    """count random product states, shape (count, 2^n), from one stream of draws.

    Each qubit is drawn Haar-like, a complex Gaussian pair normalized to 1,
    and redrawn until both amplitude magnitudes are at least min_magnitude.
    Draws are taken state by state, qubit by qubit, one attempt as the four
    normals (re0, re1, im0, im1), so row i is the i-th state of the same
    sequence of draws one at a time.  Rejected attempts are topped up by
    drawing exactly the shortfall, so rng ends where the last accepted
    attempt left it.
    """
    needed = count * n_qubits
    accepted = []
    while needed:
        draws = rng.normal(size=(needed, 4))
        re, im = draws[:, :2], draws[:, 2:]
        v = re + 1j * im
        # The norm as np.linalg.norm(v) forms it for one vector, bit for bit.
        v /= np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))[:, None]
        v = v[np.abs(v).min(axis=1) >= min_magnitude]
        accepted.append(v)
        needed -= len(v)
    qubits = np.concatenate(accepted).reshape(count, n_qubits, 2)
    states = np.ones((count, 1), dtype=complex)
    for q in range(n_qubits):
        states = (states[:, :, None] * qubits[:, q, None, :]).reshape(count, -1)
    return states
