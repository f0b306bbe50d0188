"""Acceptance gate: ten headline checks, one printed PASS/FAIL line each.

Run with `pytest -rA tests/test_acceptance.py` to see every line.  Each check
is a separate test so a single regression shows up as a single red line; the
Monte-Carlo checks pin their seeds so reruns are deterministic.
"""

import math
import time

import numpy as np
import pytest

from magmon.bayes import estimate, posterior, saturation_curve
from magmon.checks import closed_vs_integrated
from magmon.filtering import var_p_closed
from magmon.information import (fisher_record_closed, qfi_conditional,
                                scaling_slope, ultimate_qfi_closed,
                                ultimate_qfi_ode)
from magmon.model import ModelParams, TimeGrid
from magmon.records import batch_simulate, simulate_record
from magmon.spin import (build_spin_operators, fisher_tau, tau_information,
                         ultimate_qfi_finiteJ)

ETA_GRID = (0.1, 0.5, 1.0)
J_GRID = (10.0, 1e3, 1e6)
KT_GRID = (0.01, 0.1, 1.0)


def P(J, eta=1.0, kappa=1.0, gamma=1.0, B=0.0):
    return ModelParams(J=J, kappa=kappa, gamma=gamma, eta=eta, B=B)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_closed_forms_match_ode_routes():
    t0 = time.monotonic()
    worst_f, worst_q = closed_vs_integrated(ETA_GRID, J_GRID, KT_GRID)
    elapsed = time.monotonic() - t0
    ok = worst_f <= 1e-6 and worst_q <= 1e-6 and elapsed < 60.0
    _line(1, ok, f"27-point closed-vs-ODE residuals: F {worst_f:.2e}, "
                 f"Q_cond {worst_q:.2e} (tol 1e-6), {elapsed:.1f} s")


def test_criterion_02_perfect_detection_reaches_the_ultimate_bound():
    worst_closed = worst_ode = 0.0
    for J in J_GRID:
        for kt in KT_GRID:
            p = P(J, eta=1.0)
            q_tilde = fisher_record_closed(p, kt) + qfi_conditional(p, kt)
            q_bar = ultimate_qfi_closed(p, kt)
            worst_closed = max(worst_closed, abs(q_tilde / q_bar - 1.0))
            worst_ode = max(worst_ode, abs(ultimate_qfi_ode(p, kt) / q_bar - 1.0))
    ok = worst_closed <= 1e-10 and worst_ode <= 1e-6
    _line(2, ok, f"Q_tilde(eta=1) vs Q_bar: closed {worst_closed:.2e} "
                 f"(tol 1e-10), ODE route {worst_ode:.2e} (tol 1e-6)")


def test_criterion_03_short_time_cubic_law():
    J, kt = 10.0, 1e-4
    p = P(J, eta=1.0)
    ratio = fisher_record_closed(p, kt) / ((4.0 / 3.0) * J * J * kt ** 3)
    ok = 0.99 <= ratio <= 1.01
    _line(3, ok, f"F / ((4/3) J^2 gamma^2 kappa^3 t^3) = {ratio:.6f} at "
                 f"J=10, kappa t = 1e-4")


def test_criterion_04_scaling_slopes():
    s_j2 = scaling_slope(P(1e6), 1.0, "Q_tilde", axis="J", window=(1e6, 1e8))
    s_j1 = scaling_slope(P(1.0), 0.01, "Q_tilde", axis="J", window=(1.0, 10.0))
    s_t3 = scaling_slope(P(1e6), 1.0, "Q_tilde", axis="t", window=(1e-3, 1e-2))
    s_t2 = scaling_slope(P(1.0), 1.0, "Q_tilde", axis="t", window=(1e-3, 1e-2))
    ok = (abs(s_j2 - 2.0) <= 0.05 and abs(s_j1 - 1.0) <= 0.05
          and abs(s_t3 - 3.0) <= 0.1 and abs(s_t2 - 2.0) <= 0.1)
    _line(4, ok, f"log-log slopes: J-window high {s_j2:.3f} (2.00), low "
                 f"{s_j1:.3f} (1.00); t-window J=1e6 {s_t3:.3f} (3.0), "
                 f"J=1 {s_t2:.3f} (2.0)")


def test_criterion_05_quadratic_scaling_survives_losses():
    slopes = [scaling_slope(P(1e8, eta=eta), 1.0, "Q_tilde", axis="J",
                            window=(1e7, 1e9)) for eta in (0.1, 0.5)]
    ok = all(abs(s - 2.0) <= 0.05 for s in slopes)
    _line(5, ok, f"J-slope at eta=0.1: {slopes[0]:.3f}, eta=0.5: "
                 f"{slopes[1]:.3f} (target 2.00 +- 0.05)")


def test_criterion_06_record_carries_a_quarter_of_the_information():
    p = P(1e6, eta=1.0)
    frac = fisher_record_closed(p, 1.0) / (fisher_record_closed(p, 1.0)
                                           + qfi_conditional(p, 1.0))
    ok = abs(frac - 0.25) <= 0.10
    _line(6, ok, f"F_record / Q_tilde = {frac:.4f} at J=1e6, kappa t = 1 "
                 "(target 0.25 +- 0.10)")


def test_criterion_07_bayesian_estimator_saturates_the_bound():
    p = P(1e4, eta=1.0)
    grid = TimeGrid(t_final=1.0, n_steps=40000)
    prior = (-0.01, 0.01)

    # (a) mean sd_est/sd_CRB over 24 records across the back half of the run
    recs = batch_simulate(p, grid, n_records=24, seed_base=2024)
    steps = [20000, 25000, 30000, 35000, 40000]
    _, summaries = saturation_curve(recs, steps, prior)
    mean_ratios = [float(np.mean([s.ratio for s in row])) for row in summaries]
    ok_a = all(0.8 <= r <= 1.2 for r in mean_ratios)

    # (b) spread of the posterior-mean estimator over 300 records vs 1/F
    recs_b = batch_simulate(p, grid, n_records=300, seed_base=515)
    means = np.array([estimate(posterior([r], prior, n_grid=801)).mean
                      for r in recs_b])
    var_ref = 1.0 / fisher_record_closed(p, grid.t_final)
    var_ratio = means.var(ddof=1) / var_ref
    ok_b = abs(var_ratio - 1.0) <= 0.20

    _line(7, ok_a and ok_b,
          f"mean sd/sd_CRB per checkpoint {np.array2string(np.array(mean_ratios), precision=3)}"
          f" in [0.8, 1.2]; posterior-mean variance / (1/F) = {var_ratio:.3f}"
          " (tol 0.20)")


def test_criterion_08_finite_spin_convergence():
    # (a) ultimate information: finite-J gap closes monotonically in J
    kt = 0.1
    gaps = []
    for J in (2.0, 5.0, 10.0, 20.0):
        p = P(J)
        gaps.append(abs(ultimate_qfi_finiteJ(p, kt) / ultimate_qfi_closed(p, kt) - 1.0))
    ok_a = all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:])) and gaps[-1] <= 0.10

    # (b) Monte-Carlo record information at J=20 vs the Gaussian closed form
    p20 = P(20.0)
    grid = TimeGrid(t_final=0.2, n_steps=500)
    f_mc, f_err = fisher_tau(p20, grid, n_trajectories=10000, seed=606,
                             chunk_size=2500)
    f_ref = fisher_record_closed(p20, grid.t_final)
    ok_b = abs(f_mc / f_ref - 1.0) <= 0.15
    _line(8, ok_a and ok_b,
          f"ultimate-information gaps {np.array2string(np.array(gaps), precision=4)} "
          f"monotone, last <= 0.10; fisher_tau/F = {f_mc / f_ref:.4f} "
          f"+- {f_err / f_ref:.4f} (tol 0.15, 1e4 trajectories)")


def test_criterion_09_information_split_respects_the_total():
    p = P(10.0)
    grid = TimeGrid(t_final=0.2, n_steps=600)
    info = tau_information(p, grid, n_trajectories=4000, seed=909,
                           chunk_size=2000, want_qfi=True)
    total = info.fisher + info.qfi_cond
    sigma = info.fisher_stderr + info.qfi_cond_stderr
    q_bar = ultimate_qfi_finiteJ(p, grid.t_final)
    ok = total <= q_bar + 2.0 * sigma
    _line(9, ok, f"F_tau + E[Q_cond] = {total:.4f} (+- {sigma:.4f}) vs "
                 f"Q_bar(finite J) = {q_bar:.4f}; bound holds within 2 sigma")


def test_criterion_10_invariant_suites():
    msgs = []

    # spin-operator algebra residuals
    worst = 0.0
    for J in (0.5, 5.0, 20.0):
        ops = build_spin_operators(J)
        for a, b, c in [(ops.jx, ops.jy, ops.jz), (ops.jy, ops.jz, ops.jx),
                        (ops.jz, ops.jx, ops.jy)]:
            worst = max(worst, float(np.max(np.abs(a @ b - b @ a - 1j * c))))
    ok = worst <= 1e-10
    msgs.append(f"algebra {worst:.1e}")

    # conditional variance window and strict squeezing
    ts = np.linspace(0.01, 3.0, 40)
    for eta in (0.0, 0.3, 1.0):
        p = P(1e3, eta=eta)
        v = var_p_closed(p, ts)
        ok &= bool(np.all(v > 0.0) and np.all(v <= 0.5))
        if eta > 0:
            ok &= bool(np.all(np.diff(v) < 0.0))
        else:
            ok &= bool(np.all(v == 0.5))
    msgs.append("squeezing window")

    # information quantities grow with the horizon
    p = P(1e3, eta=0.7)
    f_vals = [fisher_record_closed(p, t) for t in ts]
    q_vals = [qfi_conditional(p, t) for t in ts]
    ok &= all(b > a for a, b in zip(f_vals, f_vals[1:]))
    ok &= all(b > a for a, b in zip(q_vals, q_vals[1:]))
    msgs.append("monotone in t")

    # record determinism
    p = P(100.0)
    grid = TimeGrid(t_final=1.0, n_steps=1000)
    same = (simulate_record(p, grid, seed=5).increments.tobytes()
            == simulate_record(p, grid, seed=5).increments.tobytes())
    ok &= same
    msgs.append("record determinism")

    # posterior normalization and permutation invariance
    batch = batch_simulate(p, grid, 5, seed_base=3)
    post = posterior(batch, (-0.2, 0.2))
    perm = posterior(batch[::-1], (-0.2, 0.2))
    mass = float(np.dot(post.weights(), post.posterior))
    ok &= abs(mass - 1.0) <= 1e-12
    ok &= post.posterior.tobytes() == perm.posterior.tobytes()
    msgs.append("posterior norm+perm")

    _line(10, ok, "; ".join(msgs))
