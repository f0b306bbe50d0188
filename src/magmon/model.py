"""Physical parameters and shared coefficients for the monitored-ensemble model.

Conventions used throughout the package
---------------------------------------
A collective spin J = N/2 (dimensionless, stored as a float) starts polarized
along x and is exposed to a magnetic field B (Gauss) along the Larmor axis
while the z component is continuously monitored with efficiency eta.
The mean spin decays as

    Jbar(t) = J * exp(-kappa*t/2)

and the problem is reduced to a single bosonic mode with quadratures
X = Jy/sqrt(Jbar), P = Jz/sqrt(Jbar), [X, P] = i.  Covariances use the
sigma = 2*Cov convention, so the vacuum has sigma = identity and
sigma_22 = 2*Var[P].

In matrix form the conditional moments obey

    d<r> = u dt + sigma M dw / sqrt(2),      dsigma/dt = D - sigma M M^T sigma

with, for this model,

    D = diag(2*kappa*Jbar, 0)
    M = (0, sqrt(2*eta*kappa*Jbar))^T
    u = (0, -gamma*B*sqrt(Jbar))^T

Internally most formulas are expressed in the reduced variables
kt = kappa*t and g = gamma/kappa (units 1/Gauss); the public functions take
physical (params, t) and convert.  kappa has units 1/time, gamma units
1/(time*Gauss), so every Fisher-information quantity comes out in 1/Gauss^2.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "TimeGrid",
    "jbar",
    "as_int",
    "as_real",
    "load_config",
]


@dataclass(frozen=True)
class ModelParams:
    """Immutable physical configuration: J, kappa, gamma, eta, B."""

    J: float
    kappa: float
    gamma: float
    eta: float = 1.0
    B: float = 0.0

    def __post_init__(self):
        if not self.J > 0:
            raise ValueError(f"total spin J must be positive, got {self.J}")
        if not self.kappa > 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        for name in ("J", "kappa", "gamma", "eta", "B"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def g(self) -> float:
        """Reduced coupling gamma/kappa (1/Gauss)."""
        return self.gamma / self.kappa

    def replace(self, **kw) -> "ModelParams":
        d = self.as_dict()
        d.update(kw)
        return ModelParams(**d)

    def as_dict(self) -> dict:
        return {"J": self.J, "kappa": self.kappa, "gamma": self.gamma,
                "eta": self.eta, "B": self.B}


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid on [0, t_final] with n_steps steps (n_steps+1 nodes)."""

    t_final: float
    n_steps: int

    def __post_init__(self):
        if not self.t_final > 0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        object.__setattr__(self, "n_steps", as_int("n_steps", self.n_steps))
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.t_final / self.n_steps

    def times(self) -> np.ndarray:
        """All n_steps+1 node times, including both endpoints."""
        return np.linspace(0.0, self.t_final, self.n_steps + 1)


def as_int(name: str, value) -> int:
    """value as an int.  An integral float such as JSON's 1e4 is accepted;
    2.5, nan, true and "3" raise ValueError rather than being truncated."""
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(name: str, value) -> float:
    """value as a float.  Ints and floats are accepted; true, "1e4", nan and
    inf raise ValueError rather than being converted."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not np.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def jbar(params: ModelParams, t):
    """Damped mean spin Jbar(t) = J exp(-kappa t / 2).

    Accepts scalar or array t; rejects negative times.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be non-negative")
    out = params.J * np.exp(-params.kappa * t / 2.0)
    return out if out.ndim else float(out)


# -- configuration files ------------------------------------------------------

REQUIRED_KEYS = ("J", "kappa", "gamma", "eta", "B",     # the ModelParams fields
                 "t_final", "n_steps", "seed")


def load_config(path) -> tuple[ModelParams, TimeGrid, int]:
    """Read a flat JSON config file -> (ModelParams, TimeGrid, seed)."""
    with open(path) as fh:
        raw = json.load(fh)
    missing = [k for k in REQUIRED_KEYS if k not in raw]
    if missing:
        raise KeyError(f"config {path} missing keys: {', '.join(missing)}")
    params = ModelParams(**{k: as_real(k, raw[k]) for k in REQUIRED_KEYS[:5]})
    grid = TimeGrid(t_final=as_real("t_final", raw["t_final"]),
                    n_steps=raw["n_steps"])
    return params, grid, as_int("seed", raw["seed"])
