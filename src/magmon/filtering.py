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
independent route; checks.closed_vs_integrated makes that comparison.  It uses
the one classical RK4 of this module, rk4, with this stability rule:

    max_step(t, y) = 0.1 / (8 eta kappa Jbar(t) Var + kappa)

re-read after every step, with Var the flow's own state y[0].  Jbar and Var
only fall along the flow, so the steps lengthen as the stiffness decays, and
no closed form enters the integrated route.

The mean <P>_c along a given record is filtered by records.filter_split.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, TimeGrid

__all__ = [
    "var_p_closed",
    "sensitivity_closed",
    "rk4",
    "gaussian_flow",
]


def var_p_closed(params: ModelParams, t):
    """Conditional variance Var_c[P](t) = 1/(8 eta J (1-e^{-kappa t/2}) + 2)."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("time must be non-negative")
    denom = 8.0 * params.eta * params.J * (-np.expm1(-params.kappa * t / 2.0)) + 2.0
    out = 1.0 / denom
    return out if out.ndim else float(out)


def sensitivity_closed(params: ModelParams, t):
    """Closed-form s(t) = d<P(t)>_c/dB (1/Gauss); deterministic, record-free."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("time must be non-negative")
    v = -np.expm1(-params.kappa * t / 4.0)
    gain = v * (3.0 + 4.0 * params.eta * params.J * v * (3.0 - v))
    out = -(8.0 * params.gamma * np.sqrt(params.J) / (3.0 * params.kappa)) \
        * var_p_closed(params, t) * gain
    return out if out.ndim else float(out)


def rk4(f, y0, times, max_step) -> list:
    """Classical RK4 through the nodes of times; returns the state at each node.

    The state is a list of real floats and f(t, y) returns its derivative as
    a list.  The step rule is re-read after every step: at (t, y) inside the
    cell [t0, t1], n = max(1, ceil((t1 - t) / max_step(t, y))) and one step
    of h = (t1 - t)/n is taken.  The cell ends exactly on t1 with the step
    taken at n = 1.  If max_step does not fall along the flow, n drops by at
    least one per step, so every cell ends; max_step = inf gives one step
    per cell.
    """
    times = np.asarray(times, dtype=float).tolist()
    y = list(y0)
    out = [y]
    for t, t1 in zip(times[:-1], times[1:]):
        n = 2
        while n > 1:
            n = max(1, math.ceil((t1 - t) / max_step(t, y)))
            h = (t1 - t) / n
            h2, h6 = h / 2, h / 6
            t_next = t1 if n == 1 else t + h
            k1 = f(t, y)
            k2 = f(t + h2, [a + h2 * b for a, b in zip(y, k1)])
            k3 = f(t + h2, [a + h2 * b for a, b in zip(y, k2)])
            k4 = f(t_next, [a + h * b for a, b in zip(y, k3)])
            y = [a + h6 * (b1 + 2 * (b2 + b3) + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            t = t_next
        out.append(y)
    return out


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

    def max_step(t, y):
        return 0.1 / (8.0 * eta * ek * J * math.exp(-ek * t / 2.0) * y[0] + ek)

    flow = rk4(f, [0.5, 0.0, 0.0], grid.times(), max_step)
    return tuple(np.array(flow).T)

