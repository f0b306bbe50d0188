"""Brute-force finite-spin benchmarks for the Gaussian closed forms.

Everything here works with the full (2J+1)-dimensional collective-spin
Hilbert space, with matrices written in the Jz eigenbasis ordered
m = J, J-1, ..., -J.  The point of the module is independence: none of the
Gaussian-limit formulas enter the dynamics, so systematic gaps between these
and the closed forms quantify the quality of the Gaussian reduction rather
than re-deriving it.

Structure exploited throughout: with the measured operator diagonal, the
deterministic dephasing and the measurement nonlinearity act elementwise on
matrix entries.  Over one step of length dt the unnormalized conditional
update driven by an observed increment dy is exactly

    rho_ij <- rho_ij * exp[ -(kappa dt/2) (m_i - m_j)^2
                            -(eta kappa dt/2) (m_i + m_j)^2
                            + sqrt(eta kappa) (m_i + m_j) dy ],

an elementwise multiply by a positive-semidefinite Gram factor (Schur
product theorem), so conditional states stay positive by construction and
only the field-rotation part of a step needs a matrix product at all.

The field-sensitivity trick: alongside rho we integrate the completed
derivative tau (the field derivative of the unnormalized state, divided by
the running likelihood).  Its trace is the score of the record, so the
record Fisher information is the Monte-Carlo mean of (Tr tau)^2, and
tau - rho Tr[tau] is the derivative of the *normalized* state, feeding the
conditional quantum Fisher information without any extra integration.

At zero field the measured populations are frozen, so the exact record law
is a binomial mixture of tilted Wiener paths: sample m* from the initial
populations and emit dy = 2 sqrt(eta kappa) m* dt + dW.  The score batches
below use that exact sampler; only the Riemann sum of the source term
-i gamma [Jy, rho] dt retains time-discretization error.

No step loop is needed for them either.  At zero field only the elementwise
update acts on rho, so after k steps the unnormalized state is

    R_k,ij = psi_i psi_j G_ij^k exp[ sqrt(eta kappa) (m_i + m_j) Y_k ],

with G the deterministic Gram factor and Y_k the summed increments.  The
same update multiplies tau, so tau / rho (entrywise) just accumulates the
source term divided by R_k.  Jy couples only neighbouring m, so that ratio
is a sum over k of exp(k rate_ij) exp(-+sqrt(eta kappa) Y_k): one matrix
product over the whole batch of trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .information import ultimate_qfi_closed
from .model import ModelParams, TimeGrid
from .records import PhotocurrentRecord

__all__ = [
    "SpinOperators",
    "SpinCoherentState",
    "TauInformation",
    "build_spin_operators",
    "spin_coherent_x",
    "evolve_unconditional",
    "evolve_conditional",
    "fisher_tau",
    "tau_information",
    "average_conditional",
    "two_field_trace",
    "ultimate_qfi_finiteJ",
]

MAX_DIM = 201
# Time steps per matrix product in the score sums of _tau_engine.
_K_BLOCK = 256


@dataclass(frozen=True)
class SpinOperators:
    """Collective spin-J operators in the Jz eigenbasis (m descending)."""

    J: float
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    @property
    def dim(self) -> int:
        return int(round(2 * self.J)) + 1


@dataclass(frozen=True)
class SpinCoherentState:
    """|J, J>_x expanded over Jz eigenstates; amplitudes are all positive."""

    J: float
    amplitudes: np.ndarray

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes).astype(complex)


def _check_spin(J: float) -> int:
    two_j = 2.0 * J
    if J <= 0 or abs(two_j - round(two_j)) > 1e-9:
        raise ValueError(f"J must be a positive integer or half-integer, got {J}")
    d = int(round(two_j)) + 1
    if d > MAX_DIM:
        raise ValueError(f"dimension {d} exceeds the supported cap {MAX_DIM}")
    return d


def _m_values(J: float, d: int) -> np.ndarray:
    return J - np.arange(d)


def _ladder_coefficients(J: float, m: np.ndarray) -> np.ndarray:
    # alpha_i = <m_i| J+ |m_{i+1}>
    mlow = m[1:]
    return np.sqrt(J * (J + 1.0) - mlow * (mlow + 1.0))


def build_spin_operators(J: float) -> SpinOperators:
    """Jx, Jy, Jz for total spin J; raises for invalid or oversized J."""
    d = _check_spin(J)
    m = _m_values(J, d)
    alpha = _ladder_coefficients(J, m)
    jp = np.zeros((d, d), dtype=complex)
    jp[np.arange(d - 1), np.arange(1, d)] = alpha
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = -0.5j * (jp - jm)
    jz = np.diag(m.astype(complex))
    return SpinOperators(J=J, jx=jx, jy=jy, jz=jz)


def spin_coherent_x(J: float) -> SpinCoherentState:
    """Fully x-polarized coherent state; binomial populations over m."""
    d = _check_spin(J)
    m = _m_values(J, d)
    logc = (-J * math.log(2.0)
            + 0.5 * (gammaln(2 * J + 1) - gammaln(J + m + 1) - gammaln(J - m + 1)))
    amps = np.exp(logc)
    amps /= math.sqrt(float(np.dot(amps, amps)))
    return SpinCoherentState(J=J, amplitudes=amps)


def _as_density(rho0, d: int) -> np.ndarray:
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"initial state has shape {rho.shape}, expected {(d, d)}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > 1e-9:
        raise ValueError("initial state must have unit trace")
    return rho.copy()


def _jy_rotation(J: float, angle_per_step: float):
    """One-step rotation exp(-i angle Jy) via the Jy eigenbasis; None if inert."""
    if angle_per_step == 0.0:
        return None
    ops = build_spin_operators(J)
    lam, V = np.linalg.eigh(ops.jy)
    phases = np.exp(-1j * angle_per_step * lam)
    return (V * phases) @ V.conj().T


def evolve_unconditional(rho0, params: ModelParams, grid: TimeGrid) -> np.ndarray:
    """Deterministic dephasing dynamics under the field; returns all nodes.

    Each step is a symmetric split: half dephasing, exact field rotation,
    half dephasing.  At B = 0 the step is exact, which pins the transverse
    decay <Jx>(t) = J exp(-kappa t / 2) to machine precision.
    """
    d = _check_spin(params.J)
    m = _m_values(params.J, d)
    rho = _as_density(rho0, d)
    dt = grid.dt
    half = np.exp(-0.25 * params.kappa * dt * (m[:, None] - m[None, :]) ** 2)
    U = _jy_rotation(params.J, params.gamma * params.B * dt)
    out = np.empty((grid.n_steps + 1, d, d), dtype=complex)
    out[0] = rho
    for k in range(grid.n_steps):
        rho = half * rho
        if U is not None:
            rho = U @ rho @ U.conj().T
        rho = half * rho
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-9:
            raise RuntimeError(f"trace drifted to {tr} at step {k + 1}")
        out[k + 1] = rho
    return out


def _half_step_factors(params: ModelParams, dt: float, m: np.ndarray):
    """Deterministic half-step Gram factor of the conditional update."""
    mdiff2 = (m[:, None] - m[None, :]) ** 2
    mplus2 = (m[:, None] + m[None, :]) ** 2
    return np.exp(-0.25 * params.kappa * dt * (mdiff2 + params.eta * mplus2))


def evolve_conditional(rho0, params: ModelParams, grid: TimeGrid,
                       seed: int | None = None,
                       noise: np.ndarray | None = None,
                       record=None):
    """Single conditional trajectory; returns (nodes, increments).

    Exactly one noise source must be given: a seed (innovations are drawn),
    an explicit innovation array dW, or an observed record to filter along
    (a PhotocurrentRecord or a plain increment vector; records are rescaled
    to the main current convention first).  When generating, increments obey
    dy = 2 sqrt(eta kappa) <Jz> dt + dW.  With eta = 0 the measurement factor
    collapses to the deterministic dephasing and the trajectory coincides
    with evolve_unconditional.  Positivity is checked every max(1, n // 20)
    steps and at the last one.
    """
    sources = sum(x is not None for x in (seed, noise, record))
    if sources != 1:
        raise ValueError("pass exactly one of seed, noise, record")
    d = _check_spin(params.J)
    m = _m_values(params.J, d)
    rho = _as_density(rho0, d)
    n, dt = grid.n_steps, grid.dt

    observed = None
    if record is not None:
        if isinstance(record, PhotocurrentRecord):
            if record.n_steps != n or not math.isclose(record.dt, dt, rel_tol=1e-9):
                raise ValueError("record grid does not match the requested grid")
            observed = record.as_main_convention()
        else:
            observed = np.asarray(record, dtype=float)
            if observed.shape != (n,):
                raise ValueError(f"record has shape {observed.shape}, expected {(n,)}")
    elif noise is not None:
        noise = np.asarray(noise, dtype=float)
        if noise.shape != (n,):
            raise ValueError(f"noise has shape {noise.shape}, expected {(n,)}")
    else:
        noise = np.random.default_rng(np.random.SeedSequence(seed)).normal(
            0.0, math.sqrt(dt), size=n)

    sqk = math.sqrt(params.eta * params.kappa)
    half = _half_step_factors(params, dt, m)
    U = _jy_rotation(params.J, params.gamma * params.B * dt)
    check_every = max(1, n // 20)

    out = np.empty((n + 1, d, d), dtype=complex)
    out[0] = rho
    increments = np.empty(n)
    for k in range(n):
        jz_mean = float(np.einsum("ii,i->", rho, m).real)
        if observed is not None:
            dy = float(observed[k])
        else:
            dy = 2.0 * sqk * jz_mean * dt + noise[k]
        increments[k] = dy
        eh = np.exp((0.5 * sqk * dy) * m)
        gram_half = half * np.outer(eh, eh)
        rho = gram_half * rho
        if U is not None:
            rho = U @ rho @ U.conj().T
        rho = gram_half * rho
        tr = np.trace(rho).real
        if tr <= 0.0 or not math.isfinite(tr):
            raise RuntimeError(f"conditional state lost its trace at step {k + 1}")
        rho = rho / tr
        if (k + 1) % check_every == 0 or k == n - 1:
            rho = 0.5 * (rho + rho.conj().T)
            lam_min = float(np.linalg.eigvalsh(rho).min())
            if lam_min < -1e-8:
                raise RuntimeError(
                    f"positivity violated ({lam_min:.3g}) at step {k + 1}")
        out[k + 1] = rho
    return out, increments


# -- Monte-Carlo score machinery -----------------------------------------------

@dataclass(frozen=True)
class TauInformation:
    """Monte-Carlo information summary from co-evolved (rho, tau) pairs."""

    fisher: float
    fisher_stderr: float
    qfi_cond: float | None
    qfi_cond_stderr: float | None
    n_trajectories: int


def _conditional_qfi_samples(rho, tau, scores, floor: float = 1e-12) -> np.ndarray:
    """Batched SLD quadratic form of the normalized-state derivative."""
    theta = tau - rho * scores[:, None, None]
    rho_h = 0.5 * (rho + rho.conj().transpose(0, 2, 1))
    lam, V = np.linalg.eigh(rho_h)
    lam = np.clip(lam, floor, None)
    Vh = V.conj().transpose(0, 2, 1)
    th = Vh @ theta @ V
    denom = lam[:, :, None] + lam[:, None, :]
    return 2.0 * np.sum(np.abs(th) ** 2 / denom, axis=(1, 2))


def _tau_engine(params: ModelParams, grid: TimeGrid, n_traj: int, seed: int,
                chunk_size: int, want_qfi: bool, want_mean: bool):
    if params.B != 0.0:
        raise ValueError("score batches evaluate at the working point B = 0; "
                         "set params.B = 0")
    if params.eta <= 0.0:
        raise ValueError("a record with eta = 0 carries no information; "
                         "fisher_tau needs eta > 0")
    if n_traj < 2:
        raise ValueError("need at least two trajectories")
    d = _check_spin(params.J)
    m = _m_values(params.J, d)
    log_psi = np.log(spin_coherent_x(params.J).amplitudes)
    n, dt = grid.n_steps, grid.dt
    sqk = math.sqrt(params.eta * params.kappa)
    log_gram = -0.5 * params.kappa * dt * ((m[:, None] - m[None, :]) ** 2
                                           + params.eta * (m[:, None] + m[None, :]) ** 2)
    coef = -0.5 * params.gamma * dt
    two_j = int(round(2 * params.J))

    # Entries (rows, cols) of tau to build: all of them, or only the diagonal
    # when the score alone is wanted.
    if want_qfi or want_mean:
        rows, cols = np.indices((d, d)).reshape(2, -1)
    else:
        rows = cols = np.arange(d)
    diag = np.flatnonzero(rows == cols)
    log_r_fixed = log_psi[rows] + log_psi[cols] + n * log_gram[rows, cols]
    m_sum = m[rows] + m[cols]
    # Source terms from the neighbouring rows i-1 and i+1 of R_k: weight
    # alpha psi_nb / psi_i, growth rate per step of R_k[nb, j] / R_k[i, j],
    # and the sign of m_nb - m_i that multiplies sqrt(eta kappa) Y_k.
    a_pad = np.concatenate(([0.0], _ladder_coefficients(params.J, m), [0.0]))
    sources = []
    for step, weight, m_step in ((1, a_pad[rows + 1], -1.0), (-1, -a_pad[rows], 1.0)):
        nb = np.clip(rows + step, 0, d - 1)
        rate = log_gram[nb, cols] - log_gram[rows, cols]
        sources.append((weight * np.exp(log_psi[nb] - log_psi[rows]), rate,
                        np.maximum(0.0, (n - 1) * rate), m_step))

    scores_all = np.empty(n_traj)
    q_all = np.empty(n_traj) if want_qfi else None
    mean_rho = np.zeros((d, d)) if want_mean else None

    for start in range(0, n_traj, chunk_size):
        stop = min(start + chunk_size, n_traj)
        c = stop - start
        # Per-trajectory substreams keyed by global index: results do not
        # depend on the chunking.
        dy = np.empty((c, n))
        for j in range(c):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(start + j,)))
            m_star = params.J - rng.binomial(two_j, 0.5)
            dy[j] = 2.0 * sqk * m_star * dt + rng.normal(0.0, math.sqrt(dt), size=n)

        y = np.cumsum(dy, axis=1)
        y_before = np.hstack((np.zeros((c, 1)), y[:, :-1]))
        log_r = log_r_fixed + (sqk * y[:, -1])[:, None] * m_sum
        top = log_r[:, diag].max(axis=1)
        log_z = top + np.log(np.exp(log_r[:, diag] - top[:, None]).sum(axis=1))
        log_rho = log_r - log_z[:, None]

        # N = coef rho_n * sum_k (L R_k) / R_k entrywise; tau = N + N^T.  Each
        # sum_k exp(k rate) exp(+-sqrt(eta kappa) Y_k) is a matrix product,
        # with both factors scaled to at most 1 and the scales restored in
        # log space.
        n_mat = np.zeros((c, rows.size))
        if coef != 0.0:
            for weight, rate, rate_top, m_step in sources:
                a = m_step * sqk * y_before
                a_top = a.max(axis=1)
                u = np.exp(a - a_top[:, None])
                acc = np.zeros((c, rows.size))
                for k0 in range(0, n, _K_BLOCK):
                    ks = np.arange(k0, min(k0 + _K_BLOCK, n))[:, None]
                    acc += u[:, k0:k0 + _K_BLOCK] @ np.exp(ks * rate - rate_top)
                n_mat += weight * acc * np.exp(log_rho + a_top[:, None] + rate_top)
            n_mat *= coef
        if not np.all(np.isfinite(n_mat)):
            raise RuntimeError("score terms overflow: the Gram factors span more "
                               "than double precision at this J and horizon")
        scores = 2.0 * n_mat[:, diag].sum(axis=1)
        scores_all[start:stop] = scores
        if want_qfi or want_mean:
            rho = np.exp(log_rho).reshape(c, d, d)
        if want_qfi:
            n_mat = n_mat.reshape(c, d, d)
            tau = n_mat + n_mat.transpose(0, 2, 1)
            q_all[start:stop] = _conditional_qfi_samples(rho, tau, scores)
        if want_mean:
            mean_rho += rho.sum(axis=0)

    if want_mean:
        mean_rho /= n_traj
    return scores_all, q_all, mean_rho


def tau_information(params: ModelParams, grid: TimeGrid, n_trajectories: int,
                    seed: int, chunk_size: int = 1250,
                    want_qfi: bool = True) -> TauInformation:
    """Record information and conditional quantum information from one shared
    Monte-Carlo batch (F = mean of squared scores, Q = mean SLD form)."""
    scores, q, _ = _tau_engine(params, grid, n_trajectories, seed, chunk_size,
                               want_qfi=want_qfi, want_mean=False)
    n = n_trajectories
    f2 = scores ** 2
    fisher = float(f2.mean())
    fisher_err = float(f2.std(ddof=1) / math.sqrt(n))
    if want_qfi:
        q_mean = float(q.mean())
        q_err = float(q.std(ddof=1) / math.sqrt(n))
    else:
        q_mean = q_err = None
    return TauInformation(fisher=fisher, fisher_stderr=fisher_err,
                          qfi_cond=q_mean, qfi_cond_stderr=q_err,
                          n_trajectories=n)


def fisher_tau(params: ModelParams, grid: TimeGrid, n_trajectories: int,
               seed: int, chunk_size: int = 1250):
    """Monte-Carlo record Fisher information at B = 0; returns (F, stderr)."""
    info = tau_information(params, grid, n_trajectories, seed, chunk_size,
                           want_qfi=False)
    return info.fisher, info.fisher_stderr


def average_conditional(params: ModelParams, grid: TimeGrid, n_trajectories: int,
                        seed: int, chunk_size: int = 1250) -> np.ndarray:
    """Trajectory-averaged conditional state at the final time (should match
    the unconditional evolution up to Monte-Carlo error)."""
    _, _, mean_rho = _tau_engine(params, grid, n_trajectories, seed, chunk_size,
                                 want_qfi=False, want_mean=True)
    return mean_rho


# -- two-field generalized evolution --------------------------------------------

def two_field_trace(params: ModelParams, t: float, b1: float, b2: float,
                    n_steps: int = 2000) -> complex:
    """Trace of the generalized state evolved with field b1 on the left and
    b2 on the right of the commutator; equals 1 exactly when b1 == b2."""
    d = _check_spin(params.J)
    m = _m_values(params.J, d)
    if t < 0:
        raise ValueError("t must be nonnegative")
    psi = spin_coherent_x(params.J).amplitudes
    rho = np.outer(psi, psi).astype(complex)
    dt = t / n_steps
    half = np.exp(-0.25 * params.kappa * dt * (m[:, None] - m[None, :]) ** 2)
    ops = build_spin_operators(params.J)
    lam, V = np.linalg.eigh(ops.jy)
    Vh = V.conj().T
    U1 = (V * np.exp(-1j * params.gamma * b1 * dt * lam)) @ Vh
    U2h = ((V * np.exp(-1j * params.gamma * b2 * dt * lam)) @ Vh).conj().T
    for _ in range(n_steps):
        rho = half * rho
        rho = U1 @ rho @ U2h
        rho = half * rho
    tr = complex(np.trace(rho))
    if not (math.isfinite(tr.real) and math.isfinite(tr.imag)):
        raise RuntimeError("generalized trace lost significance")
    return tr


def ultimate_qfi_finiteJ(params: ModelParams, t: float,
                         n_steps: int = 2000) -> float:
    """Measurement-optimized information by central differencing the
    log-trace of the two-field evolution around the working field.

    The field step delta_b makes the off-diagonal log-trace about -1e-4,
    using the closed-form large-J value as a scale hint.
    """
    q_hint = max(ultimate_qfi_closed(params, t) / 8.0, 1e-12)
    delta_b = 0.5 * math.sqrt(1e-4 / q_hint)
    B = params.B
    tr_diag = two_field_trace(params, t, B + delta_b, B + delta_b, n_steps)
    if abs(tr_diag - 1.0) > 1e-9:
        raise RuntimeError(
            f"diagonal trace deviates from 1 by {abs(tr_diag - 1.0):.3g}")
    mag = abs(two_field_trace(params, t, B + delta_b, B - delta_b, n_steps))
    if mag < 1e-12:
        raise RuntimeError("off-diagonal trace underflow")
    # Four corners of the mixed second difference of log|Tr|: the diagonal
    # ones are log 1 = 0, and the swapped pair (-, +) is the complex
    # conjugate of (+, -), because the dephasing factor is real and
    # symmetric and rho stays Hermitian.  So Q = -2 log|Tr(+, -)| / delta^2.
    return -2.0 * math.log(mag) / (delta_b ** 2)
