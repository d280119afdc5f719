"""Computational-basis diagnostics of the coupler dynamics.

Bridges the Fock-space propagator and the qubit gate family: finds the
interaction times at which the coupler acts as a pure phase pattern, measures
the diagonal amplitudes of the computational inputs, and measures
entanglement by Schmidt coefficients; no verdict is made here.  truth_table
and scan_times take the coupler alone and no layout: they build the
excitation blocks K <= N+1 that hold the occupation-0/1 inputs from N, so
they have no truncation to choose.  scan_times diagonalizes the mode
matrix of H once, and its hits are the grid points within tol of a
candidate gate, which leak at most 2 tol; the block K = N+1 screens every
point.  The gate times have a closed form for any couplings: the one-mode
coupling matrix has eigenvalues +-||g|| and 0, so the interaction is the
identity at t = 2 pi k / ||g||, the float gate_time returns.  Qubit states
travel as rows: random product states are drawn as a (count, 2^n) stack and
schmidt returns the singular values of a whole stack from one SVD.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .coupler import (
    CouplerParams,
    exact_propagator,
    factorized_propagator,
    mode_hamiltonian,
)
from .engine import eigh_hermitian, finite_max
from .fock import block_occupations, image
from .gates import identity_gate, relative_phase_2, relative_phase_n, swap_gate

__all__ = [
    "FreePhaseMismatch",
    "NotNormalized",
    "ScanHit",
    "gate_time",
    "truth_table",
    "scan_times",
    "schmidt",
    "random_product_states",
]

# How far gate_time's w t may miss an odd multiple of pi.  The test tells an
# odd multiple from an even one only where the float spacing of w t is at
# most this, which the phase rule ensures while coupler.PHASE_LIMIT is no
# larger.
FREE_PHASE_TOL = 1e-9

# Floor on every amplitude magnitude of the qubits random_product_states draws.
MIN_MAGNITUDE = 0.1

# Complex elements (each point's phases and blocks R_K) per chunk of
# scan_times' grid.
_SCAN_BUDGET = 2**16

# lambda_K, P_K and input codes of one block; see _computational_spectrum.
_Block = tuple[np.ndarray, np.ndarray, np.ndarray]


class FreePhaseMismatch(ValueError):
    pass


class NotNormalized(ValueError):
    pass


def gate_time(params: CouplerParams, k: int = 1) -> float:
    """Gate time of winding k, t = 2 pi k / ||g||, for any couplings.

    t satisfies ||g|| t = 2 pi k (the interaction winds back to the identity)
    and w t = (2m + 1) pi for some integer m (odd free phase per excitation).
    t is positive for any signs of the couplings.  Raises UnresolvedPhase
    when t fails the phase rule on the blocks K <= N+1 that truth_table
    evaluates (t*lambda_max = t (N+1) (|w| + ||g||) from 2^23 on, and an
    infinite t, where ||g|| is subnormal), and FreePhaseMismatch when w t
    misses every odd multiple of pi by more than 1e-9.
    """
    if k < 1:
        raise ValueError(f"winding number k must be positive, got {k}")
    t = 2.0 * math.pi * k / params.coupling_norm
    params.check_phases(t, params.n_outer + 1)
    wt = params.w * t
    m = round((wt / math.pi - 1.0) / 2.0)
    if abs(wt - (2 * m + 1) * math.pi) > FREE_PHASE_TOL:
        raise FreePhaseMismatch(
            f"w*t = {wt:.12g} is not an odd multiple of pi (k={k}, w={params.w})"
        )
    return t


def _computational_space(params: CouplerParams) -> tuple[np.ndarray, np.ndarray]:
    """The K and place of each occupation-0/1 state of the M = N + 1 modes.

    The 2^M states come in binary order, mode 0 most significant; each
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
    return bits.sum(axis=1), position


def truth_table(
    params: CouplerParams, t: float, method: str = "exact"
) -> tuple[np.ndarray, float]:
    """Diagonal amplitudes <x|U(t)|x> of the computational inputs, and the leakage.

    The 2^(N+1) amplitudes come in binary order of x, mode 0 most significant.
    leakage is the worst case over inputs of the norm of the input's column
    without its diagonal entry: the amplitude that left the input, whether to
    another computational state or out of the computational subspace.  The
    propagator refuses t by the phase rule on the blocks K <= N+1, as
    gate_time does.
    """
    totals, position = _computational_space(params)
    if method not in ("exact", "factorized"):
        raise ValueError(f"unknown propagator method {method!r}")
    propagator = exact_propagator if method == "exact" else factorized_propagator
    u = propagator(params, params.layout(params.n_outer + 1), t)
    amplitudes = np.empty(len(totals), dtype=complex)
    leakages = []
    for x, (k, idx) in enumerate(zip(totals, position)):
        col = u[k][:, idx]
        amplitudes[x] = col[idx]
        # Summed from the other outputs; for unitary u this is
        # sqrt(1 - |col[idx]|^2), without the cancellation.
        leakages.append(math.sqrt(float(np.sum(np.abs(np.delete(col, idx)) ** 2))))
    return amplitudes, finite_max(leakages, "truth-table leakage")


def _computational_spectrum(params: CouplerParams) -> list[_Block]:
    """Per block K <= M: lambda_K, P_K and the binary codes x of the inputs with K ones.

    P_K is the (dim_K, c_K^2) table of the terms v v^dag, v the c_K = C(M, K)
    computational rows of an eigenvector, so that one decomposition gives
    U(t) on those inputs, R_K(t) = exp(-i t lambda_K) @ P_K, at any t.  Only
    the mode matrix h = V diag(mu) V^dag is diagonalized: Gamma is a
    homomorphism, so Gamma(V)_K diagonalizes H_K, column n to n . mu.
    """
    totals, position = _computational_space(params)
    modes = params.n_outer + 1
    mu, v = eigh_hermitian(mode_hamiltonian(params))
    blocks = []
    for k, vecs in enumerate(image(v, modes)):
        evals = block_occupations(modes, k) @ mu
        codes = np.flatnonzero(totals == k)
        rows = vecs[position[codes]]
        terms = np.einsum("aj,bj->jab", rows, rows.conj()).reshape(len(evals), -1)
        blocks.append((evals, terms, codes))
    return blocks


def _restrictions(blocks: list[_Block], times: np.ndarray) -> list[np.ndarray]:
    """The blocks R_K(t) of the computational restriction, (len(times), c_K, c_K) each."""
    return [
        (np.exp(-1j * np.multiply.outer(times, lam)) @ terms).reshape(-1, len(x), len(x))
        for lam, terms, x in blocks
    ]


def _frobenius(parts) -> np.ndarray:
    """Frobenius norm over the last two axes, the parts' squares summed."""
    return np.sqrt(sum(np.sum(np.abs(part) ** 2, axis=(-2, -1)) for part in parts))


class ScanHit(NamedTuple):
    t: float
    label: str
    distance: float


def scan_times(
    params: CouplerParams, *, t_min: float, t_max: float, steps: int, tol: float
) -> list[ScanHit]:
    """Grid search for times where the coupler realizes a gate it can realize.

    A grid point is a hit when the restriction R(t) of U(t) to the
    computational states lies within Frobenius distance tol of a candidate;
    the hit names the nearest, ties broken on the label.  Results are ordered
    by t.  A hit leaks at most 2 tol: R is a block of the unitary U(t), so
    ||R||_2 <= 1, and for a unitary C, R^dag R - I = R^dag (R - C) +
    (R - C)^dag C gives ||R^dag R - I||_F <= 2 ||R - C||_F.  A leakage-free
    R(t) is, up to a phase e^{-i phi K} per excitation K, the identity or the
    parity gate, or with one nonzero coupling a phased SWAP; those (SWAP at
    N = 1) are the candidates.  Control-C and the control phase shift are
    never within 1.45: at N = 1, with z = e^{-i w t}, c = cos ||g|| t and
    s = sin ||g|| t, R(t) = diag(1, z [[c, -+is], [-+is, c]], z^2 (2c^2 - 1)), so
        ||R - diag(1, 1, 1, -1)||^2 = 2|zc - 1|^2 + 2s^2 + |z^2 (2c^2 - 1) + 1|^2
    is least, 4 - 3 * 2^(-2/3) = 1.4526247^2, at c = 2^(-2/3) and z = 1, and
        ||R - diag(1, 1, -1, -1)||^2 = 4 + |z^2 (2c^2 - 1) + 1|^2 >= 2^2.
    H is diagonalized once, on its (N+1) x (N+1) mode matrix.  R and every
    candidate C conserve K, so a grid point is evaluated a block at a time,
    R_K(t) = exp(-i t lambda_K) @ P_K, and distance^2 is a float sum over K
    of non-negative shares.  Block N+1 holds the one input 1...1: only
    points whose scalar share |R_{N+1} - C_{N+1}|^2 is within tol^2 for some
    C get their other blocks, and as the sum includes that share exactly,
    no hit is dropped.  Chunks of points hold at most 2^16 complex elements,
    5461 points at N = 1 and 1638 at N = 2.  The range is refused by the
    phase rule on the blocks K <= N+1 at its largest |t|.
    """
    if steps < 2:
        raise ValueError(f"need at least 2 grid points, got {steps}")
    if not (math.isfinite(t_min) and math.isfinite(t_max) and math.isfinite(tol)):
        raise ValueError(
            f"t_min, t_max and tol must be finite, got {t_min}, {t_max}, {tol}"
        )
    if not t_min < t_max:
        raise ValueError(f"need t_min < t_max, got [{t_min}, {t_max}]")
    params.check_phases(max(abs(t_min), abs(t_max)), params.n_outer + 1)
    modes = params.n_outer + 1
    if modes == 2:
        candidates = [identity_gate(2), relative_phase_2(math.pi), swap_gate()]
    else:
        candidates = [identity_gate(modes), relative_phase_n(modes)]
    labels = [c.label for c in candidates]
    family = np.stack([c.matrix for c in candidates])
    blocks = _computational_spectrum(params)
    families = [family[:, codes[:, None], codes] for _, _, codes in blocks]
    chunk = max(1, _SCAN_BUDGET // sum(len(lam) + len(x) ** 2 for lam, _, x in blocks))
    grid = np.linspace(t_min, t_max, steps)
    hits = []
    for start in range(0, steps, chunk):
        times = grid[start : start + chunk]
        (top,) = _restrictions(blocks[-1:], times)
        kept = _frobenius([top[:, None] - families[-1]]).min(axis=1) <= tol
        times, top = times[kept], top[kept]
        rs = [*_restrictions(blocks[:-1], times), top]
        distances = _frobenius(r[:, None] - f for r, f in zip(rs, families))
        for i in np.flatnonzero(distances.min(axis=1) <= tol):
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
