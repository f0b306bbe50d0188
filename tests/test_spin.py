"""Finite-spin reference dynamics and the Monte-Carlo information estimators.

These tests pin the brute-force spin machinery against (a) exact algebraic
facts, (b) the Gaussian-limit closed forms it is meant to validate, and (c)
its own internal consistency (replay determinism, chunking invariance).
"""

import math

import numpy as np
import pytest

from magmon.filtering import var_p_closed
from magmon.information import fisher_record_closed, ultimate_qfi_closed
from magmon.model import ModelParams, TimeGrid, jbar
from magmon.records import (PhotocurrentRecord, filter_coefficients, filter_split,
                            record_residuals)
from magmon.spin import (MAX_DIM, SpinOperators,
                         average_conditional, build_spin_operators,
                         evolve_conditional, evolve_unconditional, fisher_tau,
                         spin_coherent_x, tau_information, two_field_trace,
                         ultimate_qfi_finiteJ)


def comm(a, b):
    return a @ b - b @ a


@pytest.mark.parametrize("J", [0.5, 1.0, 3.5, 10.0, 20.0])
def test_su2_algebra(J):
    ops = build_spin_operators(J)
    i = 1j
    for a, b, c in [(ops.jx, ops.jy, ops.jz), (ops.jy, ops.jz, ops.jx),
                    (ops.jz, ops.jx, ops.jy)]:
        assert np.max(np.abs(comm(a, b) - i * c)) < 1e-12 * max(J, 1.0)
    casimir = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
    expected = J * (J + 1.0) * np.eye(len(ops.jz))
    assert np.max(np.abs(casimir - expected)) < 1e-10 * max(J * J, 1.0)


def test_spin_validation():
    with pytest.raises(ValueError):
        build_spin_operators(0.3)          # not a half-integer
    with pytest.raises(ValueError):
        build_spin_operators(-1.0)
    with pytest.raises(ValueError):
        build_spin_operators((MAX_DIM + 1) / 2.0)  # dimension cap


def test_coherent_state_moments():
    J = 7.0
    ops = build_spin_operators(J)
    rho = spin_coherent_x(J).density()
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rho @ rho - rho)) < 1e-10       # pure
    assert np.trace(ops.jx @ rho).real == pytest.approx(J, rel=1e-10)
    assert np.trace(ops.jz @ rho).real == pytest.approx(0.0, abs=1e-10)
    # projection noise of the x-polarized state
    jz2 = np.trace(ops.jz @ ops.jz @ rho).real
    assert jz2 == pytest.approx(J / 2.0, rel=1e-10)


def test_unconditional_transverse_decay_exact():
    J = 8.0
    p = ModelParams(J=J, kappa=0.7, gamma=1.0, eta=1.0, B=0.0)
    grid = TimeGrid(t_final=1.5, n_steps=300)
    ops = build_spin_operators(J)
    nodes = evolve_unconditional(spin_coherent_x(J).density(), p, grid)
    t = grid.times()
    jx = np.einsum("kij,ji->k", nodes, ops.jx).real
    np.testing.assert_allclose(jx, jbar(p, t) * 1.0, rtol=1e-12, atol=1e-12)


def test_larmor_rotation_sign():
    # Weak damping: the field about y carries +x onto -z.
    J = 6.0
    p = ModelParams(J=J, kappa=1e-6, gamma=1.0, eta=1.0, B=0.5)
    grid = TimeGrid(t_final=0.8, n_steps=400)
    ops = build_spin_operators(J)
    nodes = evolve_unconditional(spin_coherent_x(J).density(), p, grid)
    jz = np.einsum("kij,ji->k", nodes, ops.jz).real
    t = grid.times()
    np.testing.assert_allclose(jz, -J * np.sin(p.gamma * p.B * t),
                               rtol=0.0, atol=J * 2e-5)


def test_conditional_without_detection_is_unconditional():
    J = 4.0
    p = ModelParams(J=J, kappa=1.0, gamma=1.0, eta=0.0, B=1e-3)
    grid = TimeGrid(t_final=0.5, n_steps=200)
    rho0 = spin_coherent_x(J).density()
    nodes_c, _ = evolve_conditional(rho0, p, grid, seed=1)
    nodes_u = evolve_unconditional(rho0, p, grid)
    np.testing.assert_allclose(nodes_c, nodes_u, rtol=0.0, atol=1e-12)


def test_conditional_replay_determinism():
    J = 4.0
    p = ModelParams(J=J, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
    grid = TimeGrid(t_final=0.3, n_steps=150)
    rho0 = spin_coherent_x(J).density()
    nodes_a, inc = evolve_conditional(rho0, p, grid, seed=3)
    nodes_b, inc_b = evolve_conditional(rho0, p, grid, seed=3)
    assert nodes_a.tobytes() == nodes_b.tobytes()
    assert inc.tobytes() == inc_b.tobytes()
    _, inc_c = evolve_conditional(rho0, p, grid, seed=4)
    assert not np.array_equal(inc, inc_c)


def test_conditional_variance_approaches_gaussian():
    # At J = 50 the conditional spin-squeezing should sit within a few
    # percent of the Gaussian-limit conditional variance.
    J = 50.0
    p = ModelParams(J=J, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
    grid = TimeGrid(t_final=0.2, n_steps=2000)
    ops = build_spin_operators(J)
    nodes, _ = evolve_conditional(spin_coherent_x(J).density(), p, grid, seed=5)
    rho_T = nodes[-1]
    mz = np.trace(ops.jz @ rho_T).real
    mz2 = np.trace(ops.jz @ ops.jz @ rho_T).real
    var_jz = mz2 - mz * mz
    gauss = jbar(p, grid.t_final) * var_p_closed(p, grid.t_final)
    assert var_jz / gauss == pytest.approx(1.0, abs=0.10)


def test_spin_record_filters_white_in_gaussian_limit():
    # A record generated by the spin dynamics, re-filtered by the Gaussian
    # conditional filter, should leave near-white residuals at large J.
    J = 50.0
    p = ModelParams(J=J, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
    grid = TimeGrid(t_final=0.2, n_steps=2000)
    _, inc = evolve_conditional(spin_coherent_x(J).density(), p, grid, seed=8)
    rec = PhotocurrentRecord(increments=inc, dt=grid.dt, t_final=grid.t_final,
                             params=p, seed=8, spawn_key=())
    z = record_residuals(rec)
    n = len(z)
    assert abs(z.mean()) < 5.0 / math.sqrt(n)
    assert z.var() == pytest.approx(1.0, abs=0.12)


def test_spin_conditional_mean_tracks_gaussian_filter():
    # Drive the Gaussian filter with the spin-generated record and compare
    # the conditional means; they should agree to O(1/J).
    J = 50.0
    p = ModelParams(J=J, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
    grid = TimeGrid(t_final=0.2, n_steps=2000)
    ops = build_spin_operators(J)
    nodes, inc = evolve_conditional(spin_coherent_x(J).density(), p, grid, seed=21)
    _, K, _ = filter_coefficients(p, grid)
    _, residual = filter_split(p, grid)
    mean_p = np.cumsum(K * residual(inc))  # <P> at nodes 1..n
    mz = np.einsum("kij,ji->k", nodes[1:], ops.jz).real
    scaled = mz / np.sqrt(jbar(p, grid.times()[1:]))
    worst = float(np.abs(scaled - mean_p).max())
    assert worst < 0.10


def test_fisher_tau_zero_without_field_coupling():
    p = ModelParams(J=4.0, kappa=1.0, gamma=0.0, eta=1.0, B=0.0)
    grid = TimeGrid(t_final=0.2, n_steps=100)
    f, err = fisher_tau(p, grid, n_trajectories=40, seed=1)
    assert f == 0.0 and err == 0.0


def test_fisher_tau_requires_zero_working_point():
    p = ModelParams(J=4.0, kappa=1.0, gamma=1.0, eta=1.0, B=1e-3)
    grid = TimeGrid(t_final=0.2, n_steps=100)
    with pytest.raises(ValueError, match="B = 0"):
        fisher_tau(p, grid, n_trajectories=10, seed=1)
    with pytest.raises(ValueError):
        fisher_tau(p.replace(B=0.0, eta=0.0), grid, n_trajectories=10, seed=1)


def test_fisher_tau_deterministic_and_chunk_invariant():
    p = ModelParams(J=4.0, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
    grid = TimeGrid(t_final=0.2, n_steps=120)
    a = fisher_tau(p, grid, n_trajectories=300, seed=11, chunk_size=300)
    b = fisher_tau(p, grid, n_trajectories=300, seed=11, chunk_size=300)
    assert a == b
    c = fisher_tau(p, grid, n_trajectories=300, seed=11, chunk_size=64)
    assert c[0] == pytest.approx(a[0], rel=1e-12)


def _stepped_tau_batch(p, grid, n_traj, seed):
    """Step-by-step (rho, tau) filter on the score sampler's own draws:
    returns per-trajectory scores, conditional QFIs and final states."""
    jy = build_spin_operators(p.J).jy
    d = len(jy)
    m = p.J - np.arange(d)
    n, dt = grid.n_steps, grid.dt
    sqk = math.sqrt(p.eta * p.kappa)
    gram = np.exp(-0.5 * p.kappa * dt * ((m[:, None] - m[None, :]) ** 2
                                         + p.eta * (m[:, None] + m[None, :]) ** 2))
    scores, qs, rhos = [], [], []
    for j in range(n_traj):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
        m_star = p.J - rng.binomial(int(round(2 * p.J)), 0.5)
        dy = 2.0 * sqk * m_star * dt + rng.normal(0.0, math.sqrt(dt), size=n)
        rho, tau = spin_coherent_x(p.J).density(), np.zeros((d, d), dtype=complex)
        for k in range(n):
            tau += -1j * p.gamma * dt * comm(jy, rho)
            e = np.exp(sqk * dy[k] * m)
            factor = gram * np.outer(e, e)
            tr = np.trace(factor * rho).real
            rho, tau = factor * rho / tr, factor * tau / tr
        score = np.trace(tau).real
        lam, V = np.linalg.eigh(rho)
        th = V.conj().T @ (tau - score * rho) @ V
        lam = np.clip(lam, 1e-12, None)
        qs.append(2.0 * np.sum(np.abs(th) ** 2 / (lam[:, None] + lam[None, :])))
        scores.append(score)
        rhos.append(rho)
    return np.array(scores), np.array(qs), np.mean(rhos, axis=0)


@pytest.mark.parametrize("J,eta,t_final", [(2.0, 1.0, 0.3), (3.5, 0.6, 1.0)])
def test_score_batches_match_stepped_filter(J, eta, t_final):
    p = ModelParams(J=J, kappa=1.0, gamma=1.3, eta=eta, B=0.0)
    grid = TimeGrid(t_final=t_final, n_steps=80)
    scores, qs, mean_rho = _stepped_tau_batch(p, grid, 12, seed=17)
    info = tau_information(p, grid, n_trajectories=12, seed=17, chunk_size=5)
    assert info.fisher == pytest.approx(np.mean(scores ** 2), rel=1e-12)
    assert info.qfi_cond == pytest.approx(np.mean(qs), rel=1e-12)
    avg = average_conditional(p, grid, n_trajectories=12, seed=17, chunk_size=5)
    assert np.max(np.abs(avg - mean_rho)) <= 1e-12 * np.max(np.abs(mean_rho))


def test_fisher_tau_matches_closed_form_smallJ():
    p = ModelParams(J=4.0, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
    grid = TimeGrid(t_final=0.2, n_steps=300)
    f, err = fisher_tau(p, grid, n_trajectories=1500, seed=2)
    ref = fisher_record_closed(p, grid.t_final)
    # finite-J and discretization effects are within a few percent here;
    # the tolerance is dominated by the Monte-Carlo error (~3.7% at 1500)
    assert f == pytest.approx(ref, rel=0.12)
    assert err < 0.06 * ref


def test_tau_information_summary():
    p = ModelParams(J=4.0, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
    grid = TimeGrid(t_final=0.2, n_steps=200)
    info = tau_information(p, grid, n_trajectories=400, seed=9)
    assert info.n_trajectories == 400
    assert info.fisher > 0.0 and info.fisher_stderr > 0.0
    assert info.qfi_cond is not None and info.qfi_cond > info.fisher
    lean = tau_information(p, grid, n_trajectories=50, seed=9, want_qfi=False)
    assert lean.qfi_cond is None and lean.qfi_cond_stderr is None


def test_average_conditional_recovers_unconditional():
    J = 4.0
    p = ModelParams(J=J, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
    grid = TimeGrid(t_final=0.2, n_steps=200)
    mean_rho = average_conditional(p, grid, n_trajectories=1200, seed=4)
    rho_u = evolve_unconditional(spin_coherent_x(J).density(), p, grid)[-1]
    delta = mean_rho - rho_u
    tdist = 0.5 * np.abs(np.linalg.eigvalsh(0.5 * (delta + delta.conj().T))).sum()
    assert tdist < 0.08


def test_two_field_trace_properties():
    p = ModelParams(J=5.0, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
    equal = two_field_trace(p, 0.3, 2e-3, 2e-3, n_steps=400)
    assert abs(equal - 1.0) < 1e-9
    pm = two_field_trace(p, 0.3, 2e-3, -2e-3, n_steps=400)
    mp = two_field_trace(p, 0.3, -2e-3, 2e-3, n_steps=400)
    assert pm == pytest.approx(mp.conjugate(), rel=1e-9)
    assert abs(pm) <= 1.0 + 1e-12


def test_two_field_swapped_fields_are_conjugate():
    # ultimate_qfi_finiteJ reads one off-diagonal corner; this relies on the
    # swapped pair being its complex conjugate to rounding
    p = ModelParams(J=2.0, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
    for t in (0.1, 1.0):
        pm = two_field_trace(p, t, 0.05, -0.05)
        mp = two_field_trace(p, t, -0.05, 0.05)
        assert abs(mp - pm.conjugate()) <= 1e-13 * abs(pm)
        assert abs(pm) < 1.0


def test_ultimate_finiteJ_converges_to_closed():
    kt = 0.1
    gaps = []
    for J in (2.0, 10.0, 20.0):
        p = ModelParams(J=J, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
        q = ultimate_qfi_finiteJ(p, kt)
        q_ref = ultimate_qfi_closed(p, kt)
        gaps.append(abs(q / q_ref - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.04
