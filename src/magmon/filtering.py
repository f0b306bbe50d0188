"""Conditional Gaussian dynamics: the closed forms of the conditional variance
and the field sensitivity, and the one integrated flow that checks them.

The conditional state of the effective mode stays Gaussian, with a
deterministic covariance (the Riccati flow does not depend on the measurement
record) and a stochastic mean driven by the homodyne innovations:

    d<P>_c  = -gamma*B*sqrt(Jbar) dt + 2 Var_c[P] sqrt(eta*kappa*Jbar) dw
    dVar/dt = -4 eta kappa Jbar Var^2          (closed form below)
    ds/dt   = -gamma*sqrt(Jbar) - 4 Var eta kappa Jbar s,   s = d<P>_c/dB

From the vacuum, Var_c[P](t) = 1 / (8 eta J (1 - e^{-kappa t/2}) + 2), and the
sensitivity also closes:

    s(t) = -(8 gamma sqrt(J) / (3 kappa)) * Var(t) * v*(3 + 4 eta J v (3 - v)),
    v = 1 - e^{-kappa t/4}.

gaussian_flow deliberately *re-integrates* these equations, together with
the record information dF/dt = 4 eta kappa Jbar s^2, as one joint flow for
(Var, s, F) from (1/2, 0, 0), so the closed forms can be checked against an
independent route; checks.closed_vs_integrated makes that comparison.  It uses the one substepped classical RK4 of this module,
rk4, with this stability rule for every Gaussian flow:

    substeps per cell = ceil(dt * (8 eta kappa Jbar(t) Var(t) + kappa) / 0.1)

evaluated at the cell start, where the rates are largest.  The closed-form
variance only sizes the substeps; it never enters the right-hand side.

The mean <P>_c along a given record is filtered by records.filter_split.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, TimeGrid, jbar

__all__ = [
    "var_p_closed",
    "sensitivity_closed",
    "rk4",
    "gaussian_flow",
]


def var_p_closed(params: ModelParams, t):
    """Conditional variance Var_c[P](t) = 1/(8 eta J (1-e^{-kappa t/2}) + 2)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be non-negative")
    denom = 8.0 * params.eta * params.J * (-np.expm1(-params.kappa * t / 2.0)) + 2.0
    out = 1.0 / denom
    return out if out.ndim else float(out)


def sensitivity_closed(params: ModelParams, t):
    """Closed-form s(t) = d<P(t)>_c/dB (1/Gauss); deterministic, record-free."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be non-negative")
    v = -np.expm1(-params.kappa * t / 4.0)
    gain = v * (3.0 + 4.0 * params.eta * params.J * v * (3.0 - v))
    out = -(8.0 * params.gamma * np.sqrt(params.J) / (3.0 * params.kappa)) \
        * var_p_closed(params, t) * gain
    return out if out.ndim else float(out)


def rk4(f, y0, times, substeps) -> list:
    """Classical RK4 through the nodes of times; returns the state at each node.

    The state is a list of real floats and f(t, y) returns its derivative as
    a list.  Each cell [t0, t1] is crossed in substeps(t0, t1-t0) equal steps.
    """
    times = np.asarray(times, dtype=float).tolist()
    y = list(y0)
    out = [y]
    for t0, t1 in zip(times[:-1], times[1:]):
        n = substeps(t0, t1 - t0)
        h = (t1 - t0) / n
        h2, h6 = h / 2, h / 6
        for k in range(n):
            t = t0 + k * h
            k1 = f(t, y)
            k2 = f(t + h2, [a + h2 * b for a, b in zip(y, k1)])
            k3 = f(t + h2, [a + h2 * b for a, b in zip(y, k2)])
            k4 = f(t + h, [a + h * b for a, b in zip(y, k3)])
            y = [a + h6 * (b1 + 2 * (b2 + b3) + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        out.append(y)
    return out


def _substeps(params: ModelParams, t: float, dt: float) -> int:
    """Stability rule: keep |fastest rate| * h <= 0.1 within the cell."""
    rate = 8.0 * params.eta * params.kappa * jbar(params, t) \
        * var_p_closed(params, t) + params.kappa
    return max(1, math.ceil(dt * rate / 0.1))


def gaussian_flow(params: ModelParams, grid: TimeGrid):
    """Integrate Var_c[P], s = d<P>_c/dB and F_record jointly on the grid.

        dVar/dt = -4 eta kappa Jbar Var^2
        ds/dt   = -gamma sqrt(Jbar) - 4 Var eta kappa Jbar s
        dF/dt   = 4 eta kappa Jbar s^2

    from (1/2, 0, 0).  Returns three arrays (Var, s, F) over all grid nodes.
    """
    ek, J, eta, gam = params.kappa, params.J, params.eta, params.gamma

    def f(t, y):
        V, s, _ = y
        jb = J * math.exp(-ek * t / 2.0)
        rate = 4.0 * eta * ek * jb
        return [-rate * V * V, -gam * math.sqrt(jb) - rate * V * s, rate * s * s]

    flow = rk4(f, [0.5, 0.0, 0.0], grid.times(),
               lambda t0, dt: _substeps(params, t0, dt))
    return tuple(np.array(flow).T)

