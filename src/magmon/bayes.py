"""Bayesian field inference from photocurrent records.

Filtered at a candidate field B, a record's innovations are r_i - beta_i B
with beta the same for every record (records.filter_split), so
log L(B) = -(S_rr - 2 B S_rA + B^2 S_AA)/2 and three numbers fix a
posterior.  S_AA is the discrete Fisher information; the maximum-likelihood
point S_rA/S_AA is exactly Normal(B_true, 1/S_AA).  coefficient_table does
the record-independent work once and one pass per record; records are
pooled with math.fsum, so posteriors ignore record order to the last bit.

The prior is flat on an interval, and estimate returns the exact mean and sd
of the Gaussian cut to it.  The grid only renders the density for the CSV
outputs and guards against a posterior piled onto the prior boundary.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from .information import fisher_record_closed
from .model import ModelParams
from .records import filter_split

__all__ = [
    "PosteriorGrid",
    "EstimateSummary",
    "CoefficientTable",
    "coefficient_table",
    "posterior",
    "estimate",
    "saturation_curve",
]

DEFAULT_PRIOR = (-0.01, 0.01)
DEFAULT_GRID_POINTS = 401


@dataclass(frozen=True)
class PosteriorGrid:
    """Posterior over the field for a set of records up to time t: fixed by
    its coefficients (S_rr, S_rA, S_AA), rendered on the grid."""

    b_values: np.ndarray
    posterior: np.ndarray        # density values; trapezoid-normalized
    prior_interval: tuple
    params: ModelParams | None
    n_records: int
    t: float
    coefficients: tuple

    def weights(self) -> np.ndarray:
        w = np.full(len(self.b_values), self.b_values[1] - self.b_values[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


@dataclass(frozen=True)
class EstimateSummary:
    """Posterior point summary against the information-bound scale."""

    mean: float
    sd: float
    sd_crb: float
    ratio: float


@dataclass(frozen=True)
class CoefficientTable:
    """S_rr and S_rA of every record (rows, in record order) at every
    checkpoint (columns, at the given times); S_AA is the same for all
    records."""

    S_rr: np.ndarray
    S_rA: np.ndarray
    S_AA: np.ndarray
    params: ModelParams
    times: np.ndarray

    def posterior(self, i: int, prior_interval, n_grid: int,
                  boundary: str) -> PosteriorGrid:
        """Posterior of all records together at checkpoint i."""
        pooled = (math.fsum(self.S_rr[:, i]), math.fsum(self.S_rA[:, i]),
                  float(len(self.S_rr) * self.S_AA[i]))
        return _grid_posterior(pooled, prior_interval, n_grid, self.params,
                               len(self.S_rr), float(self.times[i]), boundary)

    def summaries(self, i: int, prior_interval) -> list[EstimateSummary]:
        """Single-record summaries at checkpoint i, without a grid."""
        lo, hi = _check_prior(prior_interval)
        S_AA = float(self.S_AA[i])
        sd_crb = _sd_crb(self.params, 1, float(self.times[i]))
        return [_summary(_moments(S_rA, S_AA, lo, hi), sd_crb)
                for S_rA in self.S_rA[:, i].tolist()]


def coefficient_table(records, steps) -> CoefficientTable:
    """Quadratic coefficients of each record on its first k increments, for
    each k in the increasing array steps.  records may be any iterable; one
    record is held at a time."""
    records = iter(records)
    first = next(records, None)
    if first is None:
        raise ValueError("no records given")
    steps = np.asarray(steps, dtype=int)
    if np.any(steps < 0) or np.any(steps > first.n_steps):
        raise ValueError("checkpoint steps outside record length")
    beta, residual = filter_split(first.params, first.grid())
    dt = first.grid().dt

    def prefix(x):
        return np.concatenate(([0.0], np.cumsum(x)))[steps] / dt

    S_rr, S_rA = [], []
    for rec in itertools.chain([first], records):
        if rec.params != first.params:
            raise ValueError("records mix different model parameters")
        if rec.n_steps != first.n_steps or rec.dt != first.dt:
            raise ValueError("records mix different time grids")
        if rec.convention_tag != first.convention_tag:
            raise ValueError("records mix different current conventions")
        r = residual(rec.as_main_convention())
        S_rr.append(prefix(r * r))
        S_rA.append(prefix(r * beta))
    return CoefficientTable(S_rr=np.array(S_rr),
                            S_rA=np.array(S_rA), S_AA=prefix(beta * beta),
                            params=first.params, times=steps * first.dt)


def _check_prior(prior_interval) -> tuple:
    lo, hi = prior_interval
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"invalid prior interval {prior_interval}")
    return float(lo), float(hi)


def _grid_posterior(coefficients, prior_interval, n_grid, params, n_records,
                    t, boundary) -> PosteriorGrid:
    if n_grid < 3:
        raise ValueError("n_grid must be at least 3")
    if boundary not in ("raise", "allow"):
        raise ValueError(f"unknown boundary policy {boundary!r}")
    lo, hi = _check_prior(prior_interval)
    S_rr, S_rA, S_AA = coefficients
    b = np.linspace(lo, hi, n_grid)
    logl = -0.5 * (S_rr - 2.0 * b * S_rA + b * b * S_AA)
    shifted = logl - logl.max()
    p = np.exp(shifted)
    w = np.full(n_grid, (hi - lo) / (n_grid - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    mass = float(np.dot(p, w))
    p = p / mass
    pmax = p.max()
    peaked = pmax > 2.0 * p.min()
    if (boundary == "raise" and n_records > 0 and peaked
            and (p[0] == pmax or p[-1] == pmax)):
        raise RuntimeError(
            "posterior mass concentrates at the prior boundary; widen the "
            f"prior interval {prior_interval}")
    return PosteriorGrid(b_values=b, posterior=p,
                         prior_interval=(lo, hi), params=params,
                         n_records=n_records, t=t, coefficients=coefficients)


def posterior(records, prior_interval=DEFAULT_PRIOR,
              n_grid: int = DEFAULT_GRID_POINTS,
              boundary: str = "raise") -> PosteriorGrid:
    """Grid posterior over B given zero or more records.

    With no records the flat prior is returned unchanged.  Record
    contributions are combined with math.fsum, so any reordering of the same
    multiset of records yields a bit-identical posterior.  A posterior that
    peaks on the edge of the prior interval raises (the prior is too narrow);
    pass boundary="allow" to skip that guard for diagnostic sweeps.
    """
    records = list(records)
    if not records:
        return _grid_posterior((0.0, 0.0, 0.0), prior_interval, n_grid, None,
                               0, 0.0, boundary)
    return coefficient_table(records, [records[0].n_steps]).posterior(
        0, prior_interval, n_grid, boundary)


def _tail_moments(x: float):
    """m_k = int_0^inf y^k exp(-x y - y^2/2) dy, k = 0, 1, 2, for x >= 0.

    Integration by parts gives m_1 = 1 - x m_0 and m_2 = m_0 - x m_1; above
    x = 4 these cancel, and the ratios r_k = m_k/m_{k-1} come from their
    continued fraction r_k = k/(x + r_{k+1}) instead (60 terms reach
    rounding there).
    """
    m0 = math.sqrt(0.5 * math.pi) * float(erfcx(x / math.sqrt(2.0)))
    if x < 4.0:
        m1 = 1.0 - x * m0
        return m0, m1, m0 - x * m1
    r = 0.0
    for k in range(60, 1, -1):
        r = k / (x + r)
    m1 = m0 / (x + r)
    return m0, m1, r * m1


def _cut_moments(lam: float, w: float):
    """Mass, mean and variance of y on [0, w] under exp(-lam y - y^2/2),
    lam >= 0.  The density falls with y, so its variance is at least a
    quarter of E[y^2]: forming it as E[y^2] - E[y]^2 loses two bits at most.
    """
    p, q = lam * w, 0.5 * w * w
    if p + q <= 1.0:
        # Taylor series of exp(-p z - q z^2) on z = y/w in [0, 1]; its
        # coefficients obey (n+1) d_{n+1} = -p d_n - 2q d_{n-1}.
        s0 = s1 = s2 = d_prev = 0.0
        d, n = 1.0, 0
        while n < 3 or abs(d) + abs(d_prev) > 1e-17 * s0:
            s0 += d / (n + 1)
            s1 += d / (n + 2)
            s2 += d / (n + 3)
            d_prev, d = d, -(p * d + 2.0 * q * d_prev) / (n + 1)
            n += 1
        m = s1 / s0
        return w * s0, w * m, w * w * (s2 / s0 - m * m)
    # The tail from 0 less the tail from w, which has the same form at
    # x = lam + w and weight E < 1/e, so the difference keeps its digits.
    M0, M1, M2 = _tail_moments(lam)
    E = math.exp(-(p + q))
    if E > 0.0:
        n0, n1, n2 = _tail_moments(lam + w)
        M0 -= E * n0
        M1 -= E * (n1 + w * n0)
        M2 -= E * (n2 + 2.0 * w * n1 + w * w * n0)
    m = M1 / M0
    return M0, m, M2 / M0 - m * m


def _moments(S_rA: float, S_AA: float, lo: float, hi: float) -> tuple:
    """Exact mean and sd of the density exp(S_rA B - S_AA B^2/2) on [lo, hi]."""
    if S_AA == 0.0:      # beta = 0 so far, and S_rA = sum r beta / dt = 0 too
        return 0.5 * (lo + hi), (hi - lo) / math.sqrt(12.0)
    root = math.sqrt(S_AA)
    if lo * S_AA > S_rA:                 # centre S_rA/S_AA below the interval
        _, m, v = _cut_moments((lo * S_AA - S_rA) / root, (hi - lo) * root)
        return lo + m / root, math.sqrt(v) / root
    if hi * S_AA < S_rA:                 # centre above the interval
        _, m, v = _cut_moments((S_rA - hi * S_AA) / root, (hi - lo) * root)
        return hi - m / root, math.sqrt(v) / root
    mu = S_rA / S_AA                     # centre inside: mix its two sides
    z1, m1, v1 = _cut_moments(0.0, (mu - lo) * root)
    z2, m2, v2 = _cut_moments(0.0, (hi - mu) * root)
    p1, p2 = z1 / (z1 + z2), z2 / (z1 + z2)
    return (mu + (p2 * m2 - p1 * m1) / root,
            math.sqrt(p1 * v1 + p2 * v2 + p1 * p2 * (m1 + m2) ** 2) / root)


def _sd_crb(params, n_records: int, t: float) -> float:
    """1/sqrt(n F(t)): nan without records or horizon, inf when F = 0."""
    if n_records == 0 or params is None or t <= 0.0:
        return math.nan
    F = fisher_record_closed(params, t)
    return math.inf if F <= 0.0 else 1.0 / math.sqrt(n_records * F)


def _summary(moments, sd_crb: float) -> EstimateSummary:
    mean, sd = moments
    return EstimateSummary(mean=mean, sd=sd, sd_crb=sd_crb, ratio=sd / sd_crb)


def estimate(post: PosteriorGrid) -> EstimateSummary:
    """Exact posterior mean and spread, with the closed-form information
    bound 1/sqrt(n F(t)) attached for the same parameters and horizon."""
    _, S_rA, S_AA = post.coefficients
    return _summary(_moments(S_rA, S_AA, *post.prior_interval),
                    _sd_crb(post.params, post.n_records, post.t))


def saturation_curve(records, checkpoint_steps, prior_interval=DEFAULT_PRIOR):
    """Single-record posterior spread against the information bound over time.

    For each checkpoint step k and each record, the posterior of that record
    alone truncated to its first k increments is summarized.  Returns
    (times, summaries) where summaries[i][j] is the EstimateSummary of record
    j at checkpoint i.  Boundary-grazing posteriors are kept (truncated at
    the prior edge) rather than raised: a barely informative early checkpoint
    may legitimately lean on the prior.
    """
    table = coefficient_table(records, checkpoint_steps)
    return table.times, [table.summaries(i, prior_interval)
                         for i in range(len(table.times))]
