import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmon import checks, filtering, information
from magmon.filtering import (gaussian_flow, rk4, sensitivity_closed,
                              var_p_closed)
from magmon.information import fisher_record_closed, qfi_conditional
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


@pytest.mark.parametrize("closed", [var_p_closed, sensitivity_closed])
def test_closed_forms_reject_nan_time(closed):
    p = ModelParams(J=100.0, kappa=1.0, gamma=1.0, eta=1.0)
    with pytest.raises(ValueError):
        closed(p, math.nan)
    with pytest.raises(ValueError):
        closed(p, np.array([0.5, math.nan]))


# -- the RK4 step rule, re-read after every step ---------------------------------

def _counting(monkeypatch, module):
    """Wrap module.rk4 so that every RK4 step (four calls of f) is counted."""
    calls = [0]

    def rk4_counted(f, *args):
        def g(t, y):
            calls[0] += 1
            return f(t, y)
        return rk4(g, *args)

    monkeypatch.setattr(module, "rk4", rk4_counted)
    return lambda: calls[0] // 4


def test_verify_flows_take_few_steps(monkeypatch):
    steps = _counting(monkeypatch, filtering)
    worst_f, worst_q = checks.closed_vs_integrated(
        (0.1, 0.5, 1.0), (10.0, 1e3, 1e6), (0.01, 0.1, 1.0))
    assert steps() <= 15_000
    assert max(worst_f, worst_q) <= 1e-6


def test_flow_cost_does_not_grow_with_j(monkeypatch):
    steps = _counting(monkeypatch, filtering)
    p = ModelParams(J=1e12, kappa=1.0, gamma=1.0, eta=1.0)
    grid = TimeGrid(t_final=1.0, n_steps=400)
    V, s, F = gaussian_flow(p, grid)
    assert steps() <= 2000
    assert F[-1] == pytest.approx(fisher_record_closed(p, 1.0), rel=1e-6)
    assert s[-1] ** 2 / V[-1] == pytest.approx(qfi_conditional(p, 1.0), rel=1e-6)


def test_rk4_ends_each_cell_on_its_node_and_integrates_cubics_exactly():
    times = [0.0, 0.013, 0.1, 0.35, 0.36, 0.8, 1.0]
    seen = []

    def f(t, y):
        seen.append(t)
        return [4.0 * t ** 3]

    out = rk4(f, [0.0], times, lambda t, y: 0.07 + 0.1 * t)
    assert len(out) == len(times)
    np.testing.assert_allclose([y[0] for y in out], np.power(times, 4),
                               rtol=0, atol=1e-15)
    # stages run forward; a cell's last stage lands exactly on its node,
    # where the next cell's first stage starts
    assert seen == sorted(seen) and seen[0] == 0.0 and seen[-1] == 1.0
    for node in times[1:-1]:
        assert any(a == b == node for a, b in zip(seen, seen[1:]))


def test_ultimate_ode_takes_exactly_4000_steps(monkeypatch):
    steps = _counting(monkeypatch, information)
    p = ModelParams(J=1e4, kappa=1.0, gamma=1.0, eta=1.0)
    information.ultimate_qfi_ode(p, 1.0)
    assert steps() == 4000
