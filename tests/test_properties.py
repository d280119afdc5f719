"""Property tests over random couplers on the excitation-bounded basis."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from couplersim.coupler import (
    CouplerParams,
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
    report = verify_factorization(params, layout, t, tol=1e-8)
    assert report.passed
    assert [k for k, _ in report.block_distances] == list(range(layout.n_max + 1))
    for u in exact_propagator(params, layout, t):
        assert is_unitary(u, 1e-10)
    assert algebra_check(params, layout) <= 1e-12
