"""Reference computations made apart from the program under test.

Nothing here imports magmon.  Each function re-derives a quantity from the
model's defining equations with general-purpose scipy machinery:

* ``gaussian_flows`` integrates the conditional variance, the field
  sensitivity and the record Fisher-information rate with ``solve_ivp``
  (DOP853, rtol 1e-12), giving F_record and Q_cond = s^2 / Var.
* ``ultimate_flow`` integrates the two-field phase-space flow whose trace is
  C = exp(-q (B1 - B2)^2), giving Q_bar = 8 q.
* ``two_field_qfi`` exponentiates the vectorised finite-spin two-field
  generator with ``scipy.sparse.linalg.expm_multiply`` and differences the
  log-trace exactly as the finite-J route does.
* ``dephased_state`` is the closed-form unconditional state at zero field,
  rho0 * exp(-kappa t (m_i - m_j)^2 / 2) elementwise.

Units follow the program: kappa = gamma = 1 unless given, times as kappa*t.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply

RTOL = 1e-12
ATOL = 1e-30


def gaussian_flows(J: float, eta: float, kappa_t, kappa: float = 1.0,
                   gamma: float = 1.0):
    """(F_record, Q_cond) at each kappa*t in ``kappa_t`` (any order).

    dVar/dt = -4 eta kappa Jbar Var^2,          Var(0) = 1/2
    ds/dt   = -gamma sqrt(Jbar) - 4 Var eta kappa Jbar s,   s(0) = 0
    dF/dt   = 4 eta kappa Jbar s^2,             F(0) = 0
    with Jbar = J exp(-kappa t / 2).
    """
    kt = np.asarray(kappa_t, dtype=float)
    order = np.argsort(kt)
    t_eval = kt[order] / kappa

    def rhs(t, y):
        V, s, _ = y
        jb = J * math.exp(-kappa * t / 2.0)
        return (-4.0 * eta * kappa * jb * V * V,
                -gamma * math.sqrt(jb) - 4.0 * V * eta * kappa * jb * s,
                4.0 * eta * kappa * jb * s * s)

    sol = solve_ivp(rhs, (0.0, float(t_eval[-1])), (0.5, 0.0, 0.0),
                    method="DOP853", t_eval=t_eval, rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"Gaussian flow failed: {sol.message}")
    V, s, F = sol.y
    out_f = np.empty_like(kt)
    out_q = np.empty_like(kt)
    out_f[order] = F
    out_q[order] = s * s / V
    return out_f, out_q


def ultimate_flow(J: float, kappa_t, kappa: float = 1.0, gamma: float = 1.0):
    """Q_bar = 8 q at each kappa*t, from the two-field flow

    dsigma11/dt = 2 kappa Jbar,  dX/dt = (gamma/2) sqrt(Jbar) sigma11,
    dq/dt = gamma sqrt(Jbar) X,  with x_m = -i (B1 - B2) X and
    log C = -q (B1 - B2)^2.
    """
    kt = np.asarray(kappa_t, dtype=float)
    order = np.argsort(kt)
    t_eval = kt[order] / kappa

    def rhs(t, y):
        sig, X, _ = y
        rj = math.sqrt(J) * math.exp(-kappa * t / 4.0)
        return (2.0 * kappa * rj * rj, 0.5 * gamma * rj * sig, gamma * rj * X)

    sol = solve_ivp(rhs, (0.0, float(t_eval[-1])), (1.0, 0.0, 0.0),
                    method="DOP853", t_eval=t_eval, rtol=RTOL, atol=ATOL)
    if not sol.success:
        raise RuntimeError(f"two-field flow failed: {sol.message}")
    out = np.empty_like(kt)
    out[order] = 8.0 * sol.y[2]
    return out


def _spin(J: float):
    """m values (descending) and the real matrix -i Jy in the Jz basis."""
    d = int(round(2 * J)) + 1
    m = J - np.arange(d)
    # <m+1| J+ |m> = sqrt(J(J+1) - m(m+1)); -i Jy = -(J+ - J-)/2
    up = np.sqrt(J * (J + 1.0) - m[1:] * (m[1:] + 1.0))
    jp = np.zeros((d, d))
    jp[np.arange(d - 1), np.arange(1, d)] = up
    return m, -0.5 * (jp - jp.T)


def coherent_x(J: float) -> np.ndarray:
    """Amplitudes of |J, J>_x over Jz eigenstates, m descending."""
    n = int(round(2 * J))
    amps = np.array([math.sqrt(math.comb(n, k)) for k in range(n + 1)])
    return amps / math.sqrt(2.0 ** n)


def two_field_trace(J: float, kappa_t: float, b1: float, b2: float,
                    kappa: float = 1.0, gamma: float = 1.0) -> float:
    """Tr rho(t) for drho/dt = -i gamma (b1 Jy rho - b2 rho Jy)
    - (kappa/2) (m_i - m_j)^2 rho_ij, from the coherent x state."""
    m, mjy = _spin(J)
    d = len(m)
    eye = sp.identity(d, format="csr")
    a = sp.csr_matrix(mjy)
    # Row-major vec: vec(A rho) = (A kron I) vec, vec(rho B) = (I kron B^T) vec.
    gen = gamma * (b1 * sp.kron(a, eye) - b2 * sp.kron(eye, a.T)) \
        - sp.diags((0.5 * kappa * (m[:, None] - m[None, :]) ** 2).ravel())
    psi = coherent_x(J)
    rho = expm_multiply(gen.tocsr() * (kappa_t / kappa), np.outer(psi, psi).ravel())
    return float(np.trace(rho.reshape(d, d)))


def two_field_qfi(J: float, kappa_t: float, kappa: float = 1.0,
                  gamma: float = 1.0) -> float:
    """Finite-J ultimate information by the mixed difference of log Tr at the
    finite-J route's default step, which makes the log-trace about -1e-4."""
    q_hint = ultimate_flow(J, [kappa_t], kappa, gamma)[0] / 8.0
    delta = 0.5 * math.sqrt(1e-4 / max(q_hint, 1e-12))
    diag = two_field_trace(J, kappa_t, delta, delta, kappa, gamma)
    if abs(diag - 1.0) > 1e-9:
        raise RuntimeError(f"reference diagonal trace off by {diag - 1.0:.3g}")
    pm = two_field_trace(J, kappa_t, delta, -delta, kappa, gamma)
    mp = two_field_trace(J, kappa_t, -delta, delta, kappa, gamma)
    return -(math.log(abs(pm)) + math.log(abs(mp))) / delta ** 2


def dephased_state(J: float, kappa_t: float) -> np.ndarray:
    """Unconditional zero-field state rho0 * exp(-kappa t (m_i - m_j)^2 / 2)."""
    m, _ = _spin(J)
    psi = coherent_x(J)
    return np.outer(psi, psi) * np.exp(-0.5 * kappa_t * (m[:, None] - m[None, :]) ** 2)
