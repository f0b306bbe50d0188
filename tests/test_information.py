"""Checks for the closed-form information quantities.

The reference values frozen here were produced by integrating the moment and
sensitivity flows with an independent high-order adaptive integrator at tight
tolerance, not by evaluating the closed forms being tested.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magmon.filtering import gaussian_flow, sensitivity_closed, var_p_closed
from magmon.information import (REPORT_COLUMNS, effective_qfi,
                                fisher_record_closed, k_coefficients,
                                qfi_conditional, scaling_slope,
                                ultimate_qfi_closed, ultimate_qfi_ode)
from magmon.model import ModelParams, TimeGrid


def P(J=1e4, eta=1.0, kappa=1.0, gamma=1.0):
    return ModelParams(J=J, kappa=kappa, gamma=gamma, eta=eta, B=0.0)


# -- frozen cross-integrator references ------------------------------------------

# (J, eta, kappa*t) -> F from the adaptive integration of the sensitivity
# flow and dF = 4 eta kappa Jbar s^2 dt (rtol 1e-12).
FROZEN_F = [
    (10.0, 1.0, 1.0, 23.811403804728208),
    (1e3, 0.5, 0.1, 163.3419247479882),
    (1e6, 1.0, 1.0, 204297555845.64),
    (1e6, 0.1, 0.01, 33216.925850305226),
]


@pytest.mark.parametrize("J,eta,kt,ref", FROZEN_F)
def test_fisher_closed_frozen_values(J, eta, kt, ref):
    assert fisher_record_closed(P(J=J, eta=eta), kt) == pytest.approx(ref, rel=1e-9)


def test_fisher_zero_limits():
    p = P()
    assert fisher_record_closed(p, 0.0) == 0.0
    assert fisher_record_closed(p.replace(eta=0.0), 1.0) == 0.0
    assert fisher_record_closed(p.replace(gamma=0.0), 1.0) == 0.0


def test_fisher_monotone_in_time():
    p = P(J=1e5, eta=0.5)
    t = np.linspace(0.01, 3.0, 60)
    f = fisher_record_closed(p, t)
    assert np.all(np.diff(f) > 0)


def test_fisher_vs_integrated_flow():
    p = P(J=1e3, eta=0.7)
    grid = TimeGrid(t_final=1.0, n_steps=300)
    f = gaussian_flow(p, grid)[2][-1]
    assert f == pytest.approx(fisher_record_closed(p, 1.0), rel=1e-6)


def test_small_time_law():
    p = P(J=10.0, eta=1.0)
    t = 1e-4
    law = (4.0 / 3.0) * p.eta * p.gamma**2 * p.J**2 * p.kappa * t**3
    assert fisher_record_closed(p, t) == pytest.approx(law, rel=1e-3)
    # the eta factor is real: halving eta halves the leading law
    p2 = P(J=10.0, eta=0.5)
    assert fisher_record_closed(p2, t) == pytest.approx(0.5 * law, rel=1e-3)


def _fisher_large_j(p, t):
    """Leading J -> infinity term of the record FI (quadratic in J)."""
    g, kt = p.gamma / p.kappa, p.kappa * t
    u = math.expm1(kt / 4.0)
    return (64.0 * g * g * p.eta * p.J * p.J / 9.0) * math.exp(-kt) * u ** 3 \
        * (4.0 * (u + 1.0) + (u + 1.0) ** 2 + 1.0) / (u + 2.0)


def test_large_j_limit():
    t = 1.0
    ratios = [fisher_record_closed(P(J=J), t) / _fisher_large_j(P(J=J), t)
              for J in (1e4, 1e6, 1e8)]
    # approaches 1 from below as J grows
    assert abs(ratios[-1] - 1.0) < 1e-6
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)


def test_qfi_conditional_routes_agree():
    # the one closed expression equals s^2/Var from the filtering closed forms
    for eta in (0.1, 1.0):
        for kt in (0.01, 1.0):
            p = P(J=1e5, eta=eta)
            s = sensitivity_closed(p, kt)
            assert qfi_conditional(p, kt) == pytest.approx(
                s * s / var_p_closed(p, kt), rel=1e-12)


def test_qfi_conditional_vs_integrated():
    p = P(J=1e3, eta=0.5)
    grid = TimeGrid(t_final=1.0, n_steps=300)
    V, s, _ = gaussian_flow(p, grid)
    got = s[-1] ** 2 / V[-1]
    assert got == pytest.approx(qfi_conditional(p, 1.0), rel=1e-6)


@given(st.floats(min_value=1.0, max_value=1e8),
       st.floats(min_value=1e-4, max_value=1.0),
       st.floats(min_value=1e-3, max_value=3.0))
@settings(max_examples=300, deadline=None)
def test_additivity_identity(J, eta, kt):
    """F + Q collapses to K1*J + eta*K2*J^2 identically."""
    p = P(J=J, eta=eta)
    rep = effective_qfi(p, kt)
    k_form = rep.K1 * J + eta * rep.K2 * J * J
    assert rep.Q_tilde == pytest.approx(k_form, rel=1e-10)


@given(st.floats(min_value=1.0, max_value=1e8),
       st.floats(min_value=1e-3, max_value=3.0))
@settings(max_examples=300, deadline=None)
def test_eta_one_reaches_ultimate(J, kt):
    p = P(J=J, eta=1.0)
    rep = effective_qfi(p, kt)
    assert rep.Q_tilde == pytest.approx(rep.Q_bar, rel=1e-10)


@given(st.floats(min_value=1.0, max_value=1e8),
       st.floats(min_value=0.01, max_value=0.99),
       st.floats(min_value=1e-3, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_partial_detection_loses_information(J, eta, kt):
    rep = effective_qfi(P(J=J, eta=eta), kt)
    assert rep.Q_tilde < rep.Q_bar
    assert rep.F_record <= rep.Q_tilde


def test_information_ratio_reference_point():
    # the record carries roughly a quarter of the conditional total here
    rep = effective_qfi(P(J=1e6, eta=1.0), 1.0)
    assert rep.F_record / rep.Q_tilde == pytest.approx(0.2342, abs=5e-4)


def test_ultimate_ode_route():
    for J in (10.0, 1e6):
        for kt in (0.01, 1.0, 3.0):
            p = P(J=J)
            assert ultimate_qfi_ode(p, kt) == pytest.approx(
                ultimate_qfi_closed(p, kt), rel=1e-12)


def test_ultimate_ode_route_is_field_free_and_starts_at_zero():
    p = P(J=1e4)
    assert ultimate_qfi_ode(p.replace(B=0.37), 0.1) == ultimate_qfi_ode(p, 0.1)
    assert ultimate_qfi_ode(p, 0.0) == 0.0
    with pytest.raises(ValueError):
        ultimate_qfi_ode(p, -0.1)


@pytest.mark.parametrize("closed", [fisher_record_closed, qfi_conditional,
                                    ultimate_qfi_closed])
def test_closed_forms_reject_nan_time(closed):
    with pytest.raises(ValueError):
        closed(P(J=100.0), math.nan)
    with pytest.raises(ValueError):
        closed(P(J=100.0), np.array([0.5, math.nan]))


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_ultimate_ode_route_rejects_non_finite_time(t):
    with pytest.raises(ValueError):
        ultimate_qfi_ode(P(J=100.0), t)


# -- the whole parameter domain: J in [0.5, 1e12], kappa t in [1e-8, 1e4] --------

LOG_J = st.floats(min_value=math.log10(0.5), max_value=12.0)
LOG_KT = st.floats(min_value=-8.0, max_value=4.0)
ETA = st.floats(min_value=0.0, max_value=1.0)


@given(LOG_J, LOG_KT, ETA)
@settings(max_examples=300, deadline=None)
def test_closed_forms_hold_on_the_whole_domain(log_j, log_kt, eta):
    J, kt = 10.0 ** log_j, 10.0 ** log_kt
    rep = effective_qfi(P(J=J, eta=eta), kt)
    forms = (rep.F_record, rep.Q_cond, rep.Q_tilde, rep.Q_bar, rep.K1, rep.K2)
    assert all(math.isfinite(f) for f in forms)
    assert rep.F_record >= 0.0 and min(forms[1:]) > 0.0
    assert rep.Q_tilde == pytest.approx(rep.K1 * J + eta * rep.K2 * J * J,
                                        rel=1e-9)
    assert rep.Q_tilde <= rep.Q_bar * (1.0 + 1e-9)
    full = effective_qfi(P(J=J, eta=1.0), kt)
    assert full.Q_tilde == pytest.approx(full.Q_bar, rel=1e-9)


@given(LOG_J, LOG_KT, LOG_KT, ETA)
@settings(max_examples=300, deadline=None)
def test_fisher_never_decreases_in_time(log_j, log_a, log_b, eta):
    # saturated values may round down by ~1e-15, hence the 1e-12 allowance
    p = P(J=10.0 ** log_j, eta=eta)
    t1, t2 = sorted((10.0 ** log_a, 10.0 ** log_b))
    assert fisher_record_closed(p, t2) >= fisher_record_closed(p, t1) * (1.0 - 1e-12)


@pytest.mark.parametrize("J", [0.5, 1e4, 1e12])
@pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
def test_closed_forms_saturate_at_long_times(J, eta):
    p = P(J=J, eta=eta)
    late, settled = effective_qfi(p, 1e4).row(), effective_qfi(p, 300.0).row()
    assert late[4:] == pytest.approx(settled[4:], rel=1e-12)


def test_k_coefficients_positive_and_growing():
    p = P()
    K1a, K2a = k_coefficients(p, 0.1)
    K1b, K2b = k_coefficients(p, 1.0)
    assert 0 < K1a < K1b
    assert 0 < K2a < K2b


def test_scaling_slopes():
    p = P()
    assert scaling_slope(p, 1.0, "Q_tilde", "J", (1e6, 1e8)) == pytest.approx(2.0, abs=0.02)
    assert scaling_slope(p, 0.01, "Q_tilde", "J", (1.0, 10.0)) == pytest.approx(1.0, abs=0.05)
    assert scaling_slope(P(J=1e6), 1.0, "F_record", "t", (1e-3, 1e-2)) == pytest.approx(3.0, abs=0.05)
    with pytest.raises(ValueError):
        scaling_slope(p, 1.0, "nonsense", "J", (1.0, 10.0))
    with pytest.raises(ValueError):
        scaling_slope(p, 1.0, "Q_tilde", "J", (10.0, 1.0))


def test_report_row_order():
    rep = effective_qfi(P(), 1.0)
    row = rep.row()
    assert len(row) == len(REPORT_COLUMNS)
    assert row[0] == 1e4 and row[1] == 1.0  # J, kappa_t lead the row
    assert REPORT_COLUMNS[:4] == ("J", "kappa_t", "eta", "gamma_over_kappa")
