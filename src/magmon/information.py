"""Fisher-information quantities for the monitored ensemble, in closed form,
plus the integrated two-field route to Q_bar.

Quantities (all in 1/Gauss^2, evaluated at interrogation time t):

  F_record  classical Fisher information of the homodyne photocurrent,
            F = int_0^t 4 eta kappa Jbar(s') s(s')^2 ds'  with s = d<P>_c/dB
  Q_cond    quantum Fisher information of the conditional Gaussian state,
            Q = s^2 / Var_c[P]  (parameter enters first moments only)
  Q_tilde   effective information F_record + Q_cond, the record + final strong
            measurement budget; identically equal to K1*J + eta*K2*J^2
  Q_bar     information of the joint system-environment pure state, from the
            two-field trace C = exp(-q (B1-B2)^2); Q_bar = 8 q = Q_tilde(eta=1),
            integrated as one real flow by ultimate_qfi_ode

with the coefficients (g = gamma/kappa, v = 1 - e^{-kappa t/4})

  K1 = 32 g^2 v^2,        K2 = (64/3) g^2 v^3 (4 - v).

All closed forms are written in v = -expm1(-kappa t/4) and x = 1 - v, which
both lie in [0, 1]: they neither cancel at small kappa*t (the textbook
expressions subtract nearly equal exponentials and lose up to eight digits
below kappa*t ~ 1e-2) nor overflow at large kappa*t, where they saturate.
The algebraic equivalence is covered by tests.

F_record and Q_cond are checked against the integrated (Var, s, F) flow
filtering.gaussian_flow by checks.closed_vs_integrated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtering import rk4
from .model import ModelParams

__all__ = [
    "InformationReport",
    "fisher_record_closed",
    "qfi_conditional",
    "k_coefficients",
    "effective_qfi",
    "ultimate_qfi_closed",
    "ultimate_qfi_ode",
    "scaling_slope",
    "REPORT_COLUMNS",
]


REPORT_COLUMNS = ("J", "kappa_t", "eta", "gamma_over_kappa",
                  "F_record", "Q_cond", "Q_tilde", "Q_bar", "K1", "K2")


@dataclass(frozen=True)
class InformationReport:
    """One parameter point's worth of information quantities (units 1/G^2)."""

    J: float
    kappa_t: float
    eta: float
    gamma_over_kappa: float
    F_record: float
    Q_cond: float
    Q_tilde: float
    Q_bar: float
    K1: float
    K2: float

    def row(self) -> list:
        return [getattr(self, c) for c in REPORT_COLUMNS]


def _reduced(params: ModelParams, t):
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("time must be non-negative")
    return params.gamma / params.kappa, params.eta, params.J, params.kappa * t


def fisher_record_closed(params: ModelParams, t):
    """Classical FI of the record up to time t, closed form.

    F = (64 g^2 eta J^2 / 9) v^3 [a v (6x^2+6vx+v^2) + 12x^3+27vx^2+18v^2x+3v^3]
        / (x^2 + (a+1) v (1+x)),   a = 4 eta J, v = 1-e^{-kt/4}, x = 1-v.

    Monotone increasing in t; zero at t=0 and for eta=0.
    """
    g, eta, J, kt = _reduced(params, t)
    a = 4.0 * eta * J
    v = -np.expm1(-kt / 4.0)
    x = 1.0 - v
    brack = a * v * (6.0 * x * x + 6.0 * v * x + v * v) \
        + x * (x * (12.0 * x + 27.0 * v) + 18.0 * v * v) + 3.0 * v ** 3
    out = (64.0 * g * g * eta * J * J / 9.0) * v ** 3 \
        * brack / (x * x + (a + 1.0) * v * (1.0 + x))
    return out if out.ndim else float(out)


def qfi_conditional(params: ModelParams, t):
    """Conditional-state QFI Q = s(t)^2 / Var_c[P](t), as one closed expression

        Q = 32 g^2 J v^2 (3 + 4 eta J v (3-v))^2 / (9 (4 eta J v (2-v) + 1)),
        v = 1 - e^{-kt/4}.
    """
    g, eta, J, kt = _reduced(params, t)
    v = -np.expm1(-kt / 4.0)
    out = 32.0 * g * g * J * v * v * (3.0 + 4.0 * eta * J * v * (3.0 - v)) ** 2 \
        / (9.0 * (4.0 * eta * J * v * (2.0 - v) + 1.0))
    return out if out.ndim else float(out)


def k_coefficients(params: ModelParams, t):
    """Scaling coefficients (K1, K2) of Q_tilde = K1*J + eta*K2*J^2."""
    g, _, _, kt = _reduced(params, t)
    v = -np.expm1(-kt / 4.0)
    K1 = 32.0 * g * g * v * v
    K2 = (64.0 / 3.0) * g * g * v ** 3 * (4.0 - v)
    if K1.ndim:
        return K1, K2
    return float(K1), float(K2)


def effective_qfi(params: ModelParams, t: float) -> InformationReport:
    """Assemble the full information report at one parameter point.

    Q_tilde is stored as the sum F_record + Q_cond; the identity
    Q_tilde == K1*J + eta*K2*J^2 holds exactly and is enforced by the
    verification suite rather than re-derived here.
    """
    F = fisher_record_closed(params, t)
    Q = qfi_conditional(params, t)
    K1, K2 = k_coefficients(params, t)
    return InformationReport(
        J=params.J, kappa_t=params.kappa * t, eta=params.eta,
        gamma_over_kappa=params.g,
        F_record=F, Q_cond=Q, Q_tilde=F + Q,
        Q_bar=ultimate_qfi_closed(params, t), K1=K1, K2=K2)


def ultimate_qfi_closed(params: ModelParams, t):
    """Ultimate information Q_bar = 8 q(t), from the two-field trace
    C = exp(-q (B1-B2)^2) with

        q = (4 g^2 / 3) J v^2 (3x^2 + (8J+6) v x + (6J+3) v^2),
        v = 1 - e^{-kt/4},  x = 1 - v.

    Independent of eta; equals Q_tilde at eta = 1.
    """
    g, _, J, kt = _reduced(params, t)
    v = -np.expm1(-kt / 4.0)
    x = 1.0 - v
    out = (32.0 * g * g / 3.0) * J * v * v \
        * (3.0 * x * x + (8.0 * J + 6.0) * v * x + (6.0 * J + 3.0) * v * v)
    return out if out.ndim else float(out)


def ultimate_qfi_ode(params: ModelParams, t: float) -> float:
    """Ultimate information Q_bar by integrating the two-field system.

    The trace's off-diagonal moment is x_m = -i (gamma/2) (B1-B2) Y, so
    log C = -(gamma^2/2) (B1-B2)^2 int sqrt(Jbar) Y exactly, and
    Q_bar = 8 q is the end value Q(t) of the real flow

        dsigma11/dt = 2 kappa Jbar
        dY/dt       = sqrt(Jbar) sigma11
        dQ/dt       = 4 gamma^2 sqrt(Jbar) Y

    from (1, 0, 0), in 4000 equal RK4 steps (the system is smooth and
    non-stiff).  No field enters, so no field difference is taken.
    """
    _reduced(params, t)                 # rejects t < 0 and nan
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    ek, J, gam2 = params.kappa, params.J, params.gamma ** 2

    def f(tt, y):
        s11, Y, _ = y
        rj = math.sqrt(J) * math.exp(-ek * tt / 4.0)
        return [2.0 * ek * rj * rj, rj * s11, 4.0 * gam2 * rj * Y]

    return rk4(f, [1.0, 0.0, 0.0], np.linspace(0.0, t, 4001),
               lambda tt, y: math.inf)[-1][2]


def scaling_slope(params: ModelParams, t: float, quantity: str = "Q_tilde",
                  axis: str = "J", window: tuple = (1e6, 1e8),
                  n_points: int = 9) -> float:
    """Least-squares log-log slope of an information quantity over a window.

    axis="J" sweeps J in logspace(window) at fixed t; axis="t" sweeps t at
    fixed J.  quantity is one of F_record, Q_cond, Q_tilde, Q_bar.
    """
    if n_points < 3:
        raise ValueError("need at least 3 points for a slope")
    lo, hi = window
    if not 0 < lo < hi:
        raise ValueError(f"bad window {window}")
    xs = np.logspace(math.log10(lo), math.log10(hi), n_points)
    funcs = {
        "F_record": fisher_record_closed,
        "Q_cond": qfi_conditional,
        "Q_tilde": lambda p, tt: fisher_record_closed(p, tt) + qfi_conditional(p, tt),
        "Q_bar": ultimate_qfi_closed,
    }
    try:
        fn = funcs[quantity]
    except KeyError:
        raise ValueError(f"unknown quantity {quantity!r}") from None
    if axis == "J":
        ys = np.array([fn(params.replace(J=x), t) for x in xs])
    elif axis == "t":
        ys = np.array([fn(params, x) for x in xs])
    else:
        raise ValueError(f"axis must be 'J' or 't', got {axis!r}")
    coeffs = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(coeffs[0])
