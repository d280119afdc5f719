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
(N+1) x (N+1) mode matrix m: w I + G with G[0, j] = G[j, 0] = g_j for H
(mode_hamiltonian), row 0 equal to (0, g_1, ..., g_N) for A+, and
(sum_j g_j^2 e_00 - g g^T) / 2 for the su(2) generator J3.  The coupler is
(w, couplings) alone.  Its operators conserve excitation, so each is passed
as the list of its dense blocks K = 0..n_max, and the identity is checked
block by block.  N comes from params; the layout supplies only n_max, how many
blocks.  f diverges when sqrt(gamma) hits an odd multiple of pi, and
evaluation is refused near those points rather than clamped.  Both
propagators refuse a t whose phases exp(-i t lambda) floating point cannot
resolve, by one rule on t*lambda_max (CouplerParams.check_phases).  Each
factor is the Fock image (fock.image) of a mode matrix: the mode matrix c of
A+ has c^2 = 0, so exp(eps f A+) is the image of I + eps f c, and the free
phase is the image of exp(-i t w) I.  The image is a homomorphism, so the
disentangled propagator is the image of the product of three (N+1) x (N+1)
matrices; only the oracle, exact_propagator, builds Fock blocks of H and
diagonalizes them.  one_body maps commutators to commutators, so the su(2)
relations among J+, J- and J3 hold on every block iff they hold on the mode
matrices, and algebra_check checks them there, with no n_max.  The checks
here measure; the caller decides pass or fail.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import fock
from .engine import expm_hermitian, finite_max
from .fock import ModeLayout

__all__ = [
    "NearSingularity",
    "UnresolvedPhase",
    "CouplerParams",
    "FactorizationReport",
    "singularity_margin",
    "mode_hamiltonian",
    "exact_propagator",
    "factor_coefficients",
    "factorized_propagator",
    "verify_factorization",
    "algebra_check",
]

# Refuse to evaluate tan-based coefficients closer than this to a pole.
DELTA_SINGULARITY = 1e-6

# Refuse a time whose largest phase t*lambda has a float spacing above this.
# It bounds the spacing of sqrt(gamma) and of w t too, so the pole margin
# and gate_time's odd-multiple test never measure coarser than their limits.
PHASE_LIMIT = 1e-9


class NearSingularity(ValueError):
    """sqrt(gamma) is too close to an odd multiple of pi."""

    def __init__(self, sqrt_gamma: float, margin: float, limit: float):
        self.sqrt_gamma = sqrt_gamma
        self.margin = margin
        self.limit = limit
        super().__init__(
            f"sqrt(gamma)={sqrt_gamma:.12g} is within {margin:.3e} of an odd multiple "
            f"of pi (limit {limit:.1e})"
        )


class UnresolvedPhase(ValueError):
    """The phases exp(-i t lambda) at t are too coarse in floating point to resolve."""


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

    def check_phases(self, t: float, k_max: int) -> None:
        """Refuse t where the phases exp(-i t lambda) of the blocks K <= k_max are unresolved.

        On block K the eigenvalues of H are w K plus sums of K eigenvalues
        +-||g||, 0 of the coupling matrix, so t*lambda_max = |t| k_max
        (|w| + ||g||) bounds every |t lambda|, sqrt(gamma) = |t| ||g|| and
        |w t|.  Raises UnresolvedPhase when the float spacing there exceeds
        PHASE_LIMIT: from t*lambda_max = 2^23 on, and when it is inf or NaN.
        """
        bound = abs(t) * k_max * (abs(self.w) + self.coupling_norm)
        spacing = math.ulp(bound)
        if not spacing <= PHASE_LIMIT:
            raise UnresolvedPhase(
                f"t*lambda_max = {bound:.12g} (t = {t:.12g}, K <= {k_max}) has float "
                f"spacing {spacing:.3e}, too coarse to resolve the phases "
                f"exp(-i t lambda) (limit {PHASE_LIMIT:.1e})"
            )


def singularity_margin(sqrt_gamma: float) -> float:
    """Distance from sqrt_gamma >= 0 to the nearest odd multiple of pi."""
    return abs(sqrt_gamma % (2.0 * math.pi) - math.pi)


def _raising_modes(params: CouplerParams) -> np.ndarray:
    """Mode matrix of A+ = sum_j g_j a^dag b_j: row 0 holds (0, g_1, ..., g_N)."""
    c = np.zeros((params.n_outer + 1, params.n_outer + 1))
    c[0, 1:] = params.couplings
    return c


def mode_hamiltonian(params: CouplerParams) -> np.ndarray:
    """Mode matrix w I + G of H, G[0, j] = G[j, 0] = g_j: block K of H is one_body of it."""
    c = _raising_modes(params)
    return params.w * np.eye(len(c)) + c + c.T


def exact_propagator(params: CouplerParams, layout: ModeLayout, t: float) -> list[np.ndarray]:
    """Blocks of exp(-i t H), the brute-force reference propagator."""
    params.check_phases(t, layout.n_max)
    h = mode_hamiltonian(params)
    return [expm_hermitian(fock.one_body(h, k), t) for k in range(layout.n_max + 1)]


def factor_coefficients(params: CouplerParams, t: float) -> tuple[float, float]:
    """tan- and sinc-type coefficients (f, h) at interaction angle sqrt(gamma).

    f multiplies the two outer exp(eps . sum g_j a^dag b_j) factors, h the
    middle exp(eps . sum g_j a b_j^dag) one.

    Raises NearSingularity when sqrt(gamma) is within DELTA_SINGULARITY of an
    odd multiple of pi, where the tan coefficient diverges.  The propagators
    call check_phases first, so sqrt(gamma) is resolved far finer than that.
    """
    sg = params.sqrt_gamma(t)
    margin = singularity_margin(sg)
    if margin <= DELTA_SINGULARITY:
        raise NearSingularity(sg, margin, DELTA_SINGULARITY)
    if sg < sys.float_info.min:  # 0, or subnormal, where halving loses bits
        return 0.5, 1.0
    return math.tan(sg / 2.0) / sg, math.sin(sg) / sg


def factorized_propagator(
    params: CouplerParams, layout: ModeLayout, t: float
) -> list[np.ndarray]:
    """Blocks of the disentangled propagator: free phase times the three factors.

    The factors are formed on the mode matrices, exp(-i t w) (I - i t f c)
    (I - i t h c^T) (I - i t f c) with c the mode matrix of A+, and the
    product is mapped to the blocks by one Fock image.
    """
    params.check_phases(t, layout.n_max)
    f, h = factor_coefficients(params, t)
    c = _raising_modes(params)
    outer = np.eye(len(c)) - 1j * (t * f) * c
    middle = np.eye(len(c)) - 1j * (t * h) * c.T
    return fock.image(np.exp(-1j * t * params.w) * (outer @ middle @ outer), layout.n_max)


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


def algebra_check(params: CouplerParams) -> float:
    """Worst residual of the su(2)-type relations among the interaction generators.

    With J- = J+^dag and kappa = sum_j g_j^2 the relations are [J+, J-] = 2 J3
    and [J3, J+-] = +-kappa J+-.  They are the relations of the paper's scaled
    generators L+- = eps J+-, L3 = eps^2 J3 with the powers of eps = -i t
    divided out, so the residual carries no t-dependent scale and the sign is
    fixed.  J3 is Hermitian (its mode matrix is real symmetric), so the J-
    residual is minus the adjoint of the J+ one and is not formed.  Both
    sides are homogeneous in g (degree 2 in the first relation, 3 in the
    second), so they are checked on the unit couplings g / ||g||: the
    residual is scale free, and no coupling large enough to overflow kappa or
    a commutator reaches them.  The relations are checked on the
    (N+1) x (N+1) mode matrices.  fock.one_body is linear and maps
    commutators to commutators, [one_body(a), one_body(b)] = one_body([a, b]),
    so a relation's residual on block K is one_body of its mode residual r;
    that is 0 on every block iff r = 0, and block 1 is r itself, up to the
    order of the modes.  The residual of a relation is the Frobenius norm of
    r, which does not depend on n_max; the larger of the two is returned.
    """
    norm = params.coupling_norm
    unit = replace(params, couplings=tuple(g / norm for g in params.couplings))
    j_plus, j3 = _su2_generators(unit)
    kappa = sum(g * g for g in unit.couplings)
    j_minus = j_plus.conj().T
    residuals = [
        np.linalg.norm(j_plus @ j_minus - j_minus @ j_plus - 2.0 * j3),
        np.linalg.norm(j3 @ j_plus - j_plus @ j3 - kappa * j_plus),
    ]
    return finite_max(residuals, "algebra residual")
