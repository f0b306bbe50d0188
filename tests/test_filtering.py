import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmon.filtering import gaussian_flow, sensitivity_closed, var_p_closed
from magmon.model import ModelParams, TimeGrid

PARAMS = st.builds(
    ModelParams,
    J=st.floats(min_value=1.0, max_value=1e8),
    kappa=st.floats(min_value=1e-3, max_value=1e3),
    gamma=st.just(1.0),
    eta=st.floats(min_value=0.0, max_value=1.0),
    B=st.just(0.0),
)


@given(PARAMS, st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_var_bounded_and_positive(p, kt):
    v = var_p_closed(p, kt / p.kappa)
    assert 0.0 < v <= 0.5


@given(PARAMS, st.floats(min_value=1e-6, max_value=5.0),
       st.floats(min_value=1.01, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_var_strictly_decreasing_when_monitored(p, kt, factor):
    v1 = var_p_closed(p, kt / p.kappa)
    v2 = var_p_closed(p, factor * kt / p.kappa)
    # exact drop v1 - v2 = 8 eta J (x2 - x1) v1 v2, with x = 1 - e^{-kappa t/2}
    x1, x2 = -np.expm1(-kt / 2.0), -np.expm1(-factor * kt / 2.0)
    gap = 8.0 * p.eta * p.J * (x2 - x1) * v1 * v2
    if p.eta == 0.0:
        assert v2 == v1 == 0.5
    elif gap > 4.0 * np.spacing(v1):
        assert v2 < v1
    else:
        # a drop within a few ulps of v1 may round away entirely
        assert v2 <= v1


def test_var_limits():
    p = ModelParams(J=1e4, kappa=1.0, gamma=1.0, eta=1.0)
    assert var_p_closed(p, 0.0) == 0.5
    # long-time plateau 1/(8 eta J + 2)
    assert var_p_closed(p, 50.0) == pytest.approx(1.0 / (8e4 + 2.0), rel=1e-9)


def test_var_ode_matches_closed():
    p = ModelParams(J=1e3, kappa=1.0, gamma=1.0, eta=0.7)
    grid = TimeGrid(t_final=1.0, n_steps=300)
    v = gaussian_flow(p, grid)[0]
    np.testing.assert_allclose(v, var_p_closed(p, grid.times()), rtol=1e-6)


def test_sensitivity_ode_matches_closed():
    for eta in (0.1, 1.0):
        p = ModelParams(J=1e4, kappa=1.0, gamma=1.0, eta=eta)
        grid = TimeGrid(t_final=1.0, n_steps=300)
        s = gaussian_flow(p, grid)[1]
        np.testing.assert_allclose(s, sensitivity_closed(p, grid.times()),
                                   rtol=1e-6, atol=1e-12)


def test_sensitivity_sign_and_zero_coupling():
    p = ModelParams(J=1e4, kappa=1.0, gamma=1.0, eta=1.0)
    assert sensitivity_closed(p, 0.0) == 0.0
    assert sensitivity_closed(p, 0.5) < 0.0  # field pushes <P> down
    p0 = p.replace(gamma=0.0)
    assert sensitivity_closed(p0, 0.5) == 0.0
