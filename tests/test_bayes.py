"""Grid-posterior inference on simulated records.

The discrete model is linear-Gaussian, so the log-likelihood is exactly
quadratic in the candidate field and the maximum-likelihood estimator is
exactly normal with variance 1/S_AA.  Several tests below lean on those two
facts as oracles.
"""

import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from magmon.bayes import (DEFAULT_GRID_POINTS, coefficient_table, estimate,
                          posterior, saturation_curve)
from magmon.information import fisher_record_closed
from magmon.model import ModelParams, TimeGrid
from magmon.records import batch_simulate, simulate_record

P = ModelParams(J=1e4, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
GRID = TimeGrid(t_final=1.0, n_steps=40000)
PRIOR = (-0.01, 0.01)


def test_discrete_fisher_tracks_closed_form():
    # S_AA is the discrete-model Fisher information; on a fine grid it should
    # land within a fraction of a percent of the continuum value.
    rec = simulate_record(P, GRID, seed=2)
    S_AA = coefficient_table([rec], [GRID.n_steps]).S_AA[0]
    assert S_AA == pytest.approx(fisher_record_closed(P, GRID.t_final), rel=5e-3)


def test_ml_estimator_calibration():
    # B_hat = S_rA/S_AA is exactly N(B_true, 1/S_AA) in the discrete model.
    B_true = 2e-3
    records = batch_simulate(P.replace(B=B_true), GRID, n_records=150,
                             seed_base=31)
    table = coefficient_table(records, [GRID.n_steps])
    bhat = table.S_rA[:, 0] / table.S_AA[0]
    sigma = math.sqrt(1.0 / table.S_AA[0])
    n = len(bhat)
    assert abs(bhat.mean() - B_true) < 4.0 * sigma / math.sqrt(n)
    # variance of the variance estimator: relative sd ~ sqrt(2/(n-1))
    assert bhat.var(ddof=1) == pytest.approx(sigma ** 2,
                                             rel=5.0 * math.sqrt(2.0 / (n - 1)))


def test_posterior_normalized():
    post = posterior(batch_simulate(P, GRID, 3, seed_base=6), PRIOR)
    assert float(np.dot(post.weights(), post.posterior)) == pytest.approx(1.0, abs=1e-12)


def test_posterior_permutation_bitwise():
    records = batch_simulate(P, GRID, n_records=5, seed_base=17)
    a = posterior(records, PRIOR)
    b = posterior(records[::-1], PRIOR)
    assert a.posterior.tobytes() == b.posterior.tobytes()
    assert a.coefficients == b.coefficients


def test_more_records_narrow_the_posterior():
    records = batch_simulate(P, GRID, n_records=8, seed_base=40)
    sd2 = estimate(posterior(records[:2], PRIOR)).sd
    sd8 = estimate(posterior(records, PRIOR)).sd
    assert sd8 < sd2
    # 4x the data should shrink sd by about 2 (within statistical slack)
    assert sd2 / sd8 == pytest.approx(2.0, rel=0.35)


def test_zero_records_returns_prior():
    post = posterior([], PRIOR)
    assert post.n_records == 0
    np.testing.assert_allclose(post.posterior, post.posterior[0])
    summ = estimate(post)
    assert summ.mean == pytest.approx(0.0, abs=1e-15)
    width = PRIOR[1] - PRIOR[0]
    assert summ.sd == pytest.approx(width / math.sqrt(12.0), rel=1e-3)
    assert math.isnan(summ.ratio) and math.isnan(summ.sd_crb)


def test_boundary_guard():
    # True field far outside the prior: the posterior piles onto the edge.
    rec = simulate_record(P.replace(B=0.05), GRID, seed=1)
    with pytest.raises(RuntimeError, match="boundary"):
        posterior([rec], PRIOR)
    post = posterior([rec], PRIOR, boundary="allow")
    assert post.posterior.argmax() in (0, len(post.posterior) - 1)


def test_single_record_saturates_the_bound():
    rec = simulate_record(P, GRID, seed=12)
    summ = estimate(posterior([rec], PRIOR))
    assert 0.8 < summ.ratio < 1.2


def _cut(rec, k):
    """The record of the same run stopped after its first k increments."""
    return dataclasses.replace(rec, increments=rec.increments[:k],
                               t_final=k * rec.dt)


def test_prefix_matches_truncation():
    rec = simulate_record(P, GRID, seed=9)
    steps = [0, 1, 1000, 20000, GRID.n_steps]
    table = coefficient_table([rec], steps)
    assert (table.S_rA[0, 0], table.S_AA[0]) == (0.0, 0.0)
    for i, k in enumerate(steps[1:], start=1):
        cut = coefficient_table([_cut(rec, k)], [k])
        assert (table.S_rA[0, i], table.S_AA[i]) == \
            pytest.approx((cut.S_rA[0, 0], cut.S_AA[0]), rel=1e-12, abs=1e-15)


def test_prefix_rejects_bad_steps():
    rec = simulate_record(P, GRID, seed=9)
    with pytest.raises(ValueError):
        coefficient_table([rec], [GRID.n_steps + 1])
    with pytest.raises(ValueError):
        coefficient_table([rec], [-1])


def test_incompatible_records_rejected():
    rec_a = simulate_record(P, GRID, seed=1)
    rec_b = simulate_record(P.replace(J=5e3), GRID, seed=1)
    with pytest.raises(ValueError, match="parameters"):
        posterior([rec_a, rec_b], PRIOR)


def test_saturation_curve_shape():
    records = batch_simulate(P, GRID, n_records=3, seed_base=55)
    steps = [4000, 20000, 40000]
    times, summaries = saturation_curve(records, steps, PRIOR)
    np.testing.assert_allclose(times, np.asarray(steps) * GRID.dt)
    assert len(summaries) == len(steps)
    assert all(len(row) == 3 for row in summaries)
    # posterior spread shrinks along the record for every trajectory
    for j in range(3):
        sds = [summaries[i][j].sd for i in range(len(steps))]
        assert sds[0] > sds[-1]


def test_sub_cell_posterior_moments_are_exact():
    # Four J = 1e4 records on a 41-point grid: the pooled posterior is under a
    # quarter of a cell wide, where grid quadrature misplaces mean and sd.
    records = batch_simulate(P.replace(B=2e-3), GRID, n_records=4, seed_base=5)
    table = coefficient_table(records, [GRID.n_steps])
    S_rA = math.fsum(table.S_rA[:, 0])
    S_AA = len(records) * table.S_AA[0]
    cell = (PRIOR[1] - PRIOR[0]) / 40
    assert 1.0 / math.sqrt(S_AA) < 0.25 * cell
    summ = estimate(posterior(records, PRIOR, n_grid=41))
    assert summ.sd == pytest.approx(1.0 / math.sqrt(S_AA), rel=1e-9)
    assert summ.mean == pytest.approx(S_rA / S_AA, rel=1e-9)


def _mp_moments(S_rA, S_AA, lo, hi):
    """Mean and sd of exp(S_rA B - S_AA B^2 / 2) on [lo, hi] from the
    textbook truncated-normal formulas, in 50-digit arithmetic."""
    with mp.workdps(50):
        S_rA, S_AA, lo, hi = (mp.mpf(x) for x in (S_rA, S_AA, lo, hi))
        mu, s = S_rA / S_AA, 1 / mp.sqrt(S_AA)
        a, b = (lo - mu) / s, (hi - mu) / s
        r2 = mp.sqrt(2)
        if a >= 0:      # take the mass from the tail that does not cancel
            Z = (mp.erfc(a / r2) - mp.erfc(b / r2)) / 2
        elif b <= 0:
            Z = (mp.erfc(-b / r2) - mp.erfc(-a / r2)) / 2
        else:
            Z = (mp.erf(b / r2) - mp.erf(a / r2)) / 2
        m = (mp.npdf(a) - mp.npdf(b)) / Z
        v = 1 + (a * mp.npdf(a) - b * mp.npdf(b)) / Z - m * m
        return float(mu + s * m), float(s * mp.sqrt(v))


def _regime(name):
    rec = simulate_record(P.replace(B=2e-3), GRID, seed=3)
    if name == "S_AA = 0":           # beta_0 = 0: one step carries nothing
        return coefficient_table([rec], [1]).posterior(
            0, PRIOR, DEFAULT_GRID_POINTS, "raise")
    if name == "far wider than the prior":
        return coefficient_table([rec], [10]).posterior(
            0, PRIOR, DEFAULT_GRID_POINTS, "allow")
    if name == "narrower than a cell":
        records = batch_simulate(P.replace(B=2e-3), GRID, 4, seed_base=5)
        return posterior(records, PRIOR, n_grid=41)
    far = simulate_record(P.replace(B=0.05), GRID, seed=1)
    return posterior([far], PRIOR, boundary="allow")


@pytest.mark.parametrize("name", ["S_AA = 0", "far wider than the prior",
                                  "narrower than a cell",
                                  "centre far outside the prior"])
def test_estimate_matches_mpmath(name):
    post = _regime(name)
    S_rA, S_AA = post.coefficients
    summ = estimate(post)
    lo, hi = PRIOR
    if name == "S_AA = 0":
        assert S_AA == 0.0
        assert (summ.mean, summ.sd) == ((lo + hi) / 2, (hi - lo) / math.sqrt(12.0))
        return
    sd_prior = (hi - lo) / math.sqrt(12.0)
    width = 1.0 / math.sqrt(S_AA)
    if name == "far wider than the prior":
        assert width > 1e3 * (hi - lo)
    elif name == "narrower than a cell":
        assert width < (hi - lo) / 40
    else:
        assert S_rA / S_AA > hi + 100 * width
    mean, sd = _mp_moments(S_rA, S_AA, lo, hi)
    assert sd <= sd_prior
    assert abs(summ.mean - mean) <= 1e-9 * sd
    assert summ.sd == pytest.approx(sd, rel=1e-9)
