"""Property tests over random couplers on the excitation-bounded basis."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from couplersim.analysis import FREE_PHASE_TOL
from couplersim.coupler import (
    DELTA_SINGULARITY,
    CouplerParams,
    UnresolvedPhase,
    algebra_check,
    exact_propagator,
    singularity_margin,
    verify_factorization,
)
from couplersim.engine import is_unitary

POLE_MARGIN = 0.05
couplings = st.floats(0.1, 1.5).flatmap(lambda g: st.sampled_from((g, -g)))


@st.composite
def couplers(draw):
    n_outer = draw(st.integers(1, 4))
    params = CouplerParams(
        w=draw(st.floats(-2.0, 2.0)),
        couplings=tuple(draw(st.lists(couplings, min_size=n_outer, max_size=n_outer))),
    )
    layout = params.layout(draw(st.integers(1, 3)))
    sqrt_gamma = draw(
        st.floats(0.0, 3.0 * math.pi).filter(lambda x: singularity_margin(x) >= POLE_MARGIN)
    )
    return params, layout, sqrt_gamma / params.coupling_norm


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(couplers())
def test_random_coupler(case):
    params, layout, t = case
    report = verify_factorization(params, layout, t)
    assert report.max_block_distance <= 1e-8
    assert [k for k, _ in report.block_distances] == list(range(layout.n_max + 1))
    for u in exact_propagator(params, layout, t):
        assert is_unitary(u, 1e-10)
    assert algebra_check(params) <= 1e-12


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def phase_draws(draw):
    """(params, t, k_max) over all finite floats, t often near the phase limit.

    Half the times are drawn as a multiple s in [-2, 2] of 2^23 / (k_max
    (|w| + ||g||)), where the rule's verdict turns at |s| = 1.
    """
    params = CouplerParams(
        w=draw(finite),
        couplings=tuple(draw(st.lists(finite, min_size=1, max_size=4).filter(any))),
    )
    k_max = draw(st.integers(1, 8))
    rate = k_max * (abs(params.w) + params.coupling_norm)
    t = draw(st.one_of(finite, st.floats(-2.0, 2.0).map(lambda s: s * 2.0**23 / rate)))
    return params, t, k_max


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(phase_draws())
def test_phase_rule_subsumes_the_spacing_of_sqrt_gamma_and_w_t(case):
    # Wherever check_phases admits t, sqrt(gamma) = |t| ||g|| and w t are
    # resolved to the pole margin and to gate_time's odd-multiple tolerance:
    # a spacing check on either of them could never refuse an admitted t.
    params, t, k_max = case
    try:
        params.check_phases(t, k_max)
    except UnresolvedPhase:
        return
    assert math.ulp(params.sqrt_gamma(t)) <= DELTA_SINGULARITY
    assert math.ulp(params.w * t) <= FREE_PHASE_TOL
