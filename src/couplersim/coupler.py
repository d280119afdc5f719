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

where gamma = t^2 sum_j g_j^2.  Every operator here conserves excitation, so
it is built exactly on the blocks K = 0..n_max of the layout and the identity
holds on each of them; f diverges when sqrt(gamma) hits an odd multiple of pi,
and evaluation is refused near those points rather than clamped.  Each factor
has a closed form: A+ and A- are nilpotent, so their exponentials are finite
series, and the free phase exp(-i t w K) is diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fock
from .engine import expm_hermitian, expm_nilpotent
from .fock import DenseOperator, LayoutMismatch, ModeLayout

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
    """sqrt(gamma) is too close to an odd multiple of pi for the tan coefficient."""

    def __init__(self, sqrt_gamma: float, margin: float, limit: float):
        self.sqrt_gamma = sqrt_gamma
        self.margin = margin
        self.limit = limit
        super().__init__(
            f"sqrt(gamma)={sqrt_gamma:.12g} is within {margin:.3e} of an odd "
            f"multiple of pi (limit {limit:.1e})"
        )


@dataclass(frozen=True)
class CouplerParams:
    """Coupler configuration: N outer modes, frequency w, couplings g_1..g_N.

    w and the couplings are finite reals, at least one coupling nonzero;
    hbar = 1 throughout.
    """

    n_outer: int
    w: float
    couplings: tuple[float, ...]
    n_max: int

    def __post_init__(self) -> None:
        if self.n_outer < 1:
            raise ValueError(f"need at least one outer mode, got {self.n_outer}")
        gs = tuple(float(g) for g in self.couplings)
        if len(gs) != self.n_outer:
            raise ValueError(
                f"expected {self.n_outer} couplings, got {len(gs)}"
            )
        if not all(math.isfinite(g) for g in gs):
            raise ValueError("couplings must be finite and real")
        if not math.isfinite(self.w):
            raise ValueError(f"w must be finite, got {self.w}")
        if all(g == 0.0 for g in gs):
            raise ValueError("at least one coupling must be nonzero")
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        object.__setattr__(self, "couplings", gs)
        object.__setattr__(self, "w", float(self.w))

    @classmethod
    def equal_coupling(cls, n_outer: int, g: float, w: float, n_max: int) -> "CouplerParams":
        """Convenience constructor for the g_j = g (for all j) case."""
        return cls(n_outer=n_outer, w=w, couplings=(g,) * n_outer, n_max=n_max)

    def layout(self) -> ModeLayout:
        return ModeLayout(mode_count=self.n_outer + 1, n_max=self.n_max)

    @property
    def coupling_norm(self) -> float:
        return math.sqrt(sum(g * g for g in self.couplings))

    def sqrt_gamma(self, t: float) -> float:
        return abs(t) * self.coupling_norm


def singularity_margin(sqrt_gamma: float) -> float:
    """Distance from sqrt_gamma >= 0 to the nearest odd multiple of pi."""
    return abs(sqrt_gamma % (2.0 * math.pi) - math.pi)


def _check_layout(params: CouplerParams, layout: ModeLayout) -> None:
    if layout != params.layout():
        raise LayoutMismatch(
            f"layout ({layout.mode_count} modes, n_max {layout.n_max}) does not "
            f"match params (N={params.n_outer}, n_max={params.n_max})"
        )


def _raising_part(params: CouplerParams, layout: ModeLayout) -> np.ndarray:
    """sum_j g_j a^dag b_j as a dense matrix."""
    out = np.zeros((layout.dim, layout.dim), dtype=complex)
    for j, g in enumerate(params.couplings, start=1):
        if g != 0.0:
            out += g * fock.hopping(layout, 0, j).entries
    return out


def build_hamiltonian(params: CouplerParams, layout: ModeLayout) -> DenseOperator:
    """w * (total number) + sum_j g_j (a^dag b_j + a b_j^dag)."""
    _check_layout(params, layout)
    raising = _raising_part(params, layout)
    h = params.w * fock.total_number(layout).entries + raising + raising.conj().T
    return DenseOperator(h, layout)


def exact_propagator(params: CouplerParams, layout: ModeLayout, t: float) -> DenseOperator:
    """exp(-i t H), the brute-force reference propagator."""
    h = build_hamiltonian(params, layout)
    return DenseOperator(expm_hermitian(h.entries, t), layout)


class FactorCoefficients(NamedTuple):
    """Coefficients of the symmetric three-factor disentangling.

    raising_coeff multiplies the two outer exp(eps . sum g_j a^dag b_j)
    factors, lowering_coeff the middle exp(eps . sum g_j a b_j^dag) one.
    """

    raising_coeff: float
    lowering_coeff: float
    sqrt_gamma: float


def factor_coefficients(
    params: CouplerParams, t: float, delta_sing: float = DELTA_SINGULARITY
) -> FactorCoefficients:
    """tan- and sinc-type coefficients at interaction angle sqrt(gamma).

    Raises NearSingularity when sqrt(gamma) is within delta_sing of an odd
    multiple of pi, where the tan coefficient diverges.
    """
    sg = params.sqrt_gamma(t)
    margin = singularity_margin(sg)
    if margin <= delta_sing:
        raise NearSingularity(sg, margin, delta_sing)
    if sg < _SERIES_CROSSOVER:
        f = 0.5 + sg**2 / 24.0 + sg**4 / 240.0
        h = 1.0 - sg**2 / 6.0 + sg**4 / 120.0
    else:
        f = math.tan(sg / 2.0) / sg
        h = math.sin(sg) / sg
    return FactorCoefficients(raising_coeff=f, lowering_coeff=h, sqrt_gamma=sg)


def factorized_propagator(
    params: CouplerParams, layout: ModeLayout, t: float
) -> DenseOperator:
    """Disentangled propagator: free phase times the three interaction factors.

    The free phase exp(-i t w K) is diagonal: it scales each row of the
    interaction product by the phase of that state's excitation K.
    """
    _check_layout(params, layout)
    coeffs = factor_coefficients(params, t)
    raising = _raising_part(params, layout)
    lowering = raising.conj().T
    eps = -1j * t
    outer = expm_nilpotent(eps * coeffs.raising_coeff * raising)
    middle = expm_nilpotent(eps * coeffs.lowering_coeff * lowering)
    totals = layout.occupation_table().sum(axis=1)
    free = np.exp(-1j * t * (params.w * totals))
    return DenseOperator(free[:, None] * (outer @ middle @ outer), layout)


@dataclass(frozen=True)
class FactorizationReport:
    """Per-block distances between the exact and disentangled propagators.

    One entry per excitation block K = 0..n_max of the layout.  Distances are
    plain Frobenius norms, with no global-phase allowance: the identity
    asserts operator equality.
    """

    block_distances: tuple[tuple[int, float], ...]
    max_block_distance: float
    sqrt_gamma: float
    singularity_margin: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_block_distance <= self.tolerance


def verify_factorization(
    params: CouplerParams, layout: ModeLayout, t: float, tol: float = 1e-8
) -> FactorizationReport:
    """Compare the disentangled product against the eigendecomposition oracle."""
    exact = exact_propagator(params, layout, t).entries
    fact = factorized_propagator(params, layout, t).entries
    distances = []
    for k, idx in fock.excitation_blocks(layout):
        sub = np.ix_(idx, idx)
        distances.append((k, float(np.linalg.norm(exact[sub] - fact[sub]))))
    sg = params.sqrt_gamma(t)
    return FactorizationReport(
        block_distances=tuple(distances),
        max_block_distance=max(d for _, d in distances),
        sqrt_gamma=sg,
        singularity_margin=singularity_margin(sg),
        tolerance=tol,
    )


def _su2_generators(
    params: CouplerParams, layout: ModeLayout
) -> tuple[np.ndarray, np.ndarray]:
    """J+ = sum_j g_j a^dag b_j and J3 = (sum_j g_j^2 a^dag a - B^dag B)/2.

    B^dag B = sum_ij g_i g_j b_i^dag b_j is the occupation of the outer-mode
    combination the central mode couples to.
    """
    gs = params.couplings
    cross = np.zeros((layout.dim, layout.dim), dtype=complex)
    for i, gi in enumerate(gs, start=1):
        for j, gj in enumerate(gs, start=1):
            if gi * gj != 0.0:
                cross += gi * gj * fock.hopping(layout, i, j).entries
    g_sq = sum(g * g for g in gs)
    j3 = 0.5 * (g_sq * fock.number_operator(layout, 0).entries - cross)
    return _raising_part(params, layout), j3


def algebra_check(params: CouplerParams, layout: ModeLayout) -> float:
    """Worst residual of the su(2)-type relations among the interaction generators.

    With J- = J+^dag and kappa = sum_j g_j^2 the relations are [J+, J-] = 2 J3
    and [J3, J+-] = +-kappa J+-.  They are the relations of the paper's scaled
    generators L+- = eps J+-, L3 = eps^2 J3 with the powers of eps = -i t
    divided out, so the residual carries no t-dependent scale and the sign is
    fixed.  Returns the largest Frobenius norm of the three residuals; each
    residual is block diagonal, so the norm covers every block K = 0..n_max.
    """
    _check_layout(params, layout)
    j_plus, j3 = _su2_generators(params, layout)
    j_minus = j_plus.conj().T
    kappa = sum(g * g for g in params.couplings)

    def comm(x, y):
        return x @ y - y @ x

    residuals = (
        comm(j_plus, j_minus) - 2.0 * j3,
        comm(j3, j_plus) - kappa * j_plus,
        comm(j3, j_minus) + kappa * j_minus,
    )
    return max(float(np.linalg.norm(r)) for r in residuals)
