"""Physics core of the bandgap quantum coupler.

A central mode a is linearly coupled, on resonance, to N mutually isolated
outer modes b_j:

    H = w a^dag a + w sum_j b_j^dag b_j + sum_j g_j (a^dag b_j + a b_j^dag)

Because the free part is w times the total number operator and the exchange
interaction conserves excitation, the two parts commute and the propagator
splits into a free phase times a pure interaction factor.  The interaction
factor admits an exact symmetric disentangling into three one-generator
exponentials,

    exp(eps (A+ + A-)) = exp(eps f A+) exp(eps h A-) exp(eps f A+),

with A+ = sum_j g_j a^dag b_j, A- = A+^dag, eps = -i t, and coefficients

    f = tan(sqrt(gamma)/2) / sqrt(gamma),   h = sin(sqrt(gamma)) / sqrt(gamma),

where gamma = t^2 sum_j g_j^2.  Every operator here is the one-body image
sum_kl m[k, l] c_k^dag c_l (fock.one_body, with c_0 = a and c_j = b_j) of an
(N+1) x (N+1) mode matrix m: w I + G with G[0, j] = G[j, 0] = g_j for H, row
0 equal to (0, g_1, ..., g_N) for A+, and (sum_j g_j^2 e_00 - g g^T) / 2 for
the su(2) generator J3.  The coupler is (w, couplings) alone.  Its operators
conserve excitation, so each is passed as the list of its dense blocks
K = 0..n_max of a layout, built exactly, and the identity is checked block by
block; n_max only chooses how many blocks, so any n_max >= 1 fits the
params.  f diverges when sqrt(gamma) hits an odd multiple of pi, and
evaluation is refused near those points rather than clamped.  Each factor
has a closed form: A+ and A- are nilpotent, so their exponentials are finite
series, and the free phase exp(-i t w K) is one scalar per block.  The
checks here measure; the caller decides pass or fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import fock
from .engine import expm_hermitian, expm_nilpotent, finite_max
from .fock import LayoutMismatch, ModeLayout

__all__ = [
    "NearSingularity",
    "CouplerParams",
    "FactorCoefficients",
    "FactorizationReport",
    "singularity_margin",
    "build_hamiltonian",
    "exact_propagator",
    "factor_coefficients",
    "factorized_propagator",
    "verify_factorization",
    "algebra_check",
]

# Refuse to evaluate tan-based coefficients closer than this to a pole.
DELTA_SINGULARITY = 1e-6

# Below this angle the closed forms are 0/0-prone; use their power series.
_SERIES_CROSSOVER = 1e-4


class NearSingularity(ValueError):
    """sqrt(gamma) is too close to an odd multiple of pi, or too coarse to tell."""

    def __init__(self, sqrt_gamma: float, margin: float, limit: float):
        self.sqrt_gamma = sqrt_gamma
        self.margin = margin
        self.limit = limit
        spacing = math.ulp(sqrt_gamma)
        detail = (
            f"has float spacing {spacing:.3e}, too coarse to resolve an odd multiple of pi"
            if spacing > limit
            else f"is within {margin:.3e} of an odd multiple of pi"
        )
        super().__init__(f"sqrt(gamma)={sqrt_gamma:.12g} {detail} (limit {limit:.1e})")


@dataclass(frozen=True)
class CouplerParams:
    """Coupler configuration: frequency w and couplings g_1..g_N.

    N is the number of couplings.  w and the couplings are finite reals, at
    least one coupling nonzero; hbar = 1 throughout.
    """

    w: float
    couplings: tuple[float, ...]

    def __post_init__(self) -> None:
        gs = tuple(float(g) for g in self.couplings)
        if not all(math.isfinite(g) for g in gs):
            raise ValueError("couplings must be finite and real")
        if not math.isfinite(self.w):
            raise ValueError(f"w must be finite, got {self.w}")
        if not any(gs):
            raise ValueError(f"need at least one nonzero coupling, got {gs}")
        object.__setattr__(self, "couplings", gs)
        object.__setattr__(self, "w", float(self.w))

    @property
    def n_outer(self) -> int:
        return len(self.couplings)

    def layout(self, n_max: int) -> ModeLayout:
        """The blocks K = 0..n_max of the N + 1 modes."""
        return ModeLayout(mode_count=self.n_outer + 1, n_max=n_max)

    @property
    def coupling_norm(self) -> float:
        """||g||, computed without underflow or overflow of the squares."""
        return math.hypot(*self.couplings)

    def sqrt_gamma(self, t: float) -> float:
        return abs(t) * self.coupling_norm


def singularity_margin(sqrt_gamma: float) -> float:
    """Distance from sqrt_gamma >= 0 to the nearest odd multiple of pi."""
    return abs(sqrt_gamma % (2.0 * math.pi) - math.pi)


def _check_layout(params: CouplerParams, layout: ModeLayout) -> None:
    """Any n_max is a valid choice of blocks; the mode count must be N + 1."""
    if layout.mode_count != params.n_outer + 1:
        raise LayoutMismatch(
            f"layout has {layout.mode_count} modes, params N={params.n_outer} need "
            f"{params.n_outer + 1}"
        )


def _raising_modes(params: CouplerParams) -> np.ndarray:
    """Mode matrix of A+ = sum_j g_j a^dag b_j: row 0 holds (0, g_1, ..., g_N)."""
    c = np.zeros((params.n_outer + 1, params.n_outer + 1))
    c[0, 1:] = params.couplings
    return c


def build_hamiltonian(params: CouplerParams, layout: ModeLayout) -> list[np.ndarray]:
    """Blocks K = 0..n_max of w N_tot + sum_j g_j (a^dag b_j + a b_j^dag), modes w I + G."""
    _check_layout(params, layout)
    c = _raising_modes(params)
    m = params.w * np.eye(layout.mode_count) + c + c.T
    return [fock.one_body(m, k) for k in range(layout.n_max + 1)]


def exact_propagator(params: CouplerParams, layout: ModeLayout, t: float) -> list[np.ndarray]:
    """Blocks of exp(-i t H), the brute-force reference propagator."""
    return [expm_hermitian(h, t) for h in build_hamiltonian(params, layout)]


class FactorCoefficients(NamedTuple):
    """Coefficients of the symmetric three-factor disentangling.

    raising_coeff multiplies the two outer exp(eps . sum g_j a^dag b_j)
    factors, lowering_coeff the middle exp(eps . sum g_j a b_j^dag) one.
    """

    raising_coeff: float
    lowering_coeff: float


def factor_coefficients(params: CouplerParams, t: float) -> FactorCoefficients:
    """tan- and sinc-type coefficients at interaction angle sqrt(gamma).

    Raises NearSingularity when sqrt(gamma) is within DELTA_SINGULARITY of an
    odd multiple of pi, where the tan coefficient diverges, and when the float
    spacing at sqrt(gamma) exceeds DELTA_SINGULARITY (from sqrt(gamma) = 2^33
    on), where that distance cannot be resolved.
    """
    sg = params.sqrt_gamma(t)
    margin = singularity_margin(sg)
    if margin <= DELTA_SINGULARITY or math.ulp(sg) > DELTA_SINGULARITY:
        raise NearSingularity(sg, margin, DELTA_SINGULARITY)
    if sg < _SERIES_CROSSOVER:
        f = 0.5 + sg**2 / 24.0 + sg**4 / 240.0
        h = 1.0 - sg**2 / 6.0 + sg**4 / 120.0
    else:
        f = math.tan(sg / 2.0) / sg
        h = math.sin(sg) / sg
    return FactorCoefficients(raising_coeff=f, lowering_coeff=h)


def factorized_propagator(
    params: CouplerParams, layout: ModeLayout, t: float
) -> list[np.ndarray]:
    """Blocks of the disentangled propagator: free phase times the three factors.

    On block K the free phase exp(-i t w K) is a scalar.
    """
    _check_layout(params, layout)
    coeffs = factor_coefficients(params, t)
    c = _raising_modes(params)
    eps = -1j * t
    blocks = []
    for k in range(layout.n_max + 1):
        raising = fock.one_body(c, k)
        outer = expm_nilpotent(eps * coeffs.raising_coeff * raising)
        middle = expm_nilpotent(eps * coeffs.lowering_coeff * raising.conj().T)
        blocks.append(np.exp(-1j * t * (params.w * k)) * (outer @ middle @ outer))
    return blocks


@dataclass(frozen=True)
class FactorizationReport:
    """Per-block distances between the exact and disentangled propagators.

    One entry per excitation block K = 0..n_max of the layout.  Distances are
    plain Frobenius norms, with no global-phase allowance: the identity
    asserts operator equality.  The caller judges them against its tolerance.
    """

    block_distances: tuple[tuple[int, float], ...]
    max_block_distance: float
    sqrt_gamma: float
    singularity_margin: float


def verify_factorization(
    params: CouplerParams, layout: ModeLayout, t: float
) -> FactorizationReport:
    """Compare the disentangled product against the eigendecomposition oracle."""
    exact = exact_propagator(params, layout, t)
    fact = factorized_propagator(params, layout, t)
    distances = tuple(
        (k, float(np.linalg.norm(e - f))) for k, (e, f) in enumerate(zip(exact, fact))
    )
    sg = params.sqrt_gamma(t)
    return FactorizationReport(
        block_distances=distances,
        max_block_distance=finite_max([d for _, d in distances], "factorization block distance"),
        sqrt_gamma=sg,
        singularity_margin=singularity_margin(sg),
    )


def _su2_generators(params: CouplerParams) -> tuple[np.ndarray, np.ndarray]:
    """Mode matrices of J+ = sum_j g_j a^dag b_j and J3 = (sum_j g_j^2 a^dag a - B^dag B)/2.

    B^dag B = sum_ij g_i g_j b_i^dag b_j is the occupation of the outer-mode
    combination the central mode couples to, so J3 has the mode matrix
    (kappa e_00 - g g^T)/2 with g = (0, g_1, ..., g_N).
    """
    c = _raising_modes(params)
    m = -np.outer(c[0], c[0])
    m[0, 0] = sum(g * g for g in params.couplings)
    return c, 0.5 * m


def algebra_check(params: CouplerParams, layout: ModeLayout) -> float:
    """Worst residual of the su(2)-type relations among the interaction generators.

    With J- = J+^dag and kappa = sum_j g_j^2 the relations are [J+, J-] = 2 J3
    and [J3, J+-] = +-kappa J+-.  They are the relations of the paper's scaled
    generators L+- = eps J+-, L3 = eps^2 J3 with the powers of eps = -i t
    divided out, so the residual carries no t-dependent scale and the sign is
    fixed.  Both sides are homogeneous in g (degree 2 in the first relation,
    3 in the others), so they are checked on the unit couplings g / ||g||:
    the residual is scale free, and no coupling large enough to overflow
    kappa or a commutator reaches them.  Each relation is checked on every
    block K = 0..n_max; its residual is the Frobenius norm over all blocks,
    sqrt(sum_K ||r_K||^2), and the largest of the three is returned.
    """
    _check_layout(params, layout)
    norm = params.coupling_norm
    unit = replace(params, couplings=tuple(g / norm for g in params.couplings))
    plus_modes, j3_modes = _su2_generators(unit)
    kappa = sum(g * g for g in unit.couplings)

    def comm(x, y):
        return x @ y - y @ x

    squares = np.zeros(3)
    for k in range(layout.n_max + 1):
        j_plus, j3 = fock.one_body(plus_modes, k), fock.one_body(j3_modes, k)
        j_minus = j_plus.conj().T
        residuals = (
            comm(j_plus, j_minus) - 2.0 * j3,
            comm(j3, j_plus) - kappa * j_plus,
            comm(j3, j_minus) + kappa * j_minus,
        )
        squares += [np.linalg.norm(r) ** 2 for r in residuals]
    return finite_max(np.sqrt(squares), "algebra residual")
