"""Simulated homodyne photocurrent records.

A record is the discretized measurement current of one experimental run:
increments

    dy_i = m_i(B_true) * dt + dW_i,        dW_i ~ Normal(0, dt) i.i.d.

with the mean current m_i = 2 sqrt(eta kappa Jbar_i) <P>_i, where <P>
follows the conditional filter evolved at the true field.  Rescaling the
current leaves the Fisher information it carries unchanged, so this one
scaling is the only one: record files carry the tag "main" for it, and
load_record refuses any other tag rather than read rescaled data.

Reproducibility: record k of a batch uses
numpy's default_rng(SeedSequence(seed_base, spawn_key=(k,))) (PCG64); the
root seed, spawn key and algorithm tag are stored in the record and in the
file header.  Files are .npz archives holding the increment vector plus all
metadata as typed arrays; round-trips are bit-exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filtering import var_p_closed
from .model import ModelParams, TimeGrid, jbar

__all__ = [
    "PhotocurrentRecord",
    "FORMAT_VERSION",
    "RNG_ALGORITHM",
    "simulate_record",
    "batch_simulate",
    "record_residuals",
    "filter_coefficients",
    "filter_split",
    "save_record",
    "load_record",
]

FORMAT_VERSION = 1
CONVENTION_TAG = "main"     # the current scaling named in every record file
RNG_ALGORITHM = "pcg64-seedseq-spawn"


@dataclass(frozen=True)
class PhotocurrentRecord:
    """One run's increment vector plus everything needed to reuse it."""

    increments: np.ndarray
    dt: float
    t_final: float
    params: ModelParams          # with B = B_true used for generation
    seed: int                    # root seed
    spawn_key: tuple             # () for a directly seeded record, (k,) in a batch
    rng_algorithm: str = RNG_ALGORITHM
    format_version: int = FORMAT_VERSION

    def __post_init__(self):
        if len(self.increments) < 1:
            raise ValueError("record must contain at least one increment")
        if not np.all(np.isfinite(self.increments)):
            raise ValueError("record contains non-finite increments")

    @property
    def n_steps(self) -> int:
        return len(self.increments)

    def grid(self) -> TimeGrid:
        return TimeGrid(t_final=self.t_final, n_steps=self.n_steps)


def filter_coefficients(params: ModelParams, grid: TimeGrid):
    """Per-step filter coefficients on the left endpoints of the grid cells.

    Returns (c, K, drift) with
      c_i     = 2 sqrt(eta kappa Jbar_i)     mean-current coefficient
      K_i     = 2 Var_i sqrt(eta kappa Jbar_i)    innovation gain
      drift_i = gamma * sqrt(Jbar_i) * dt         per-step field drift of -<P>/B

    Raises when the grid is too coarse for the filter recursion (the damping
    factor 1 - K_i c_i dt must stay positive; it equals
    1 - 4 eta kappa Jbar_i Var_i dt, worst at t=0 where it needs
    2 eta kappa J dt < 1).
    """
    t_left = grid.times()[:-1]
    jb = jbar(params, t_left)
    V = var_p_closed(params, t_left)
    root = np.sqrt(params.eta * params.kappa * jb)
    c = 2.0 * root
    K = 2.0 * V * root
    if np.any(1.0 - K * c * grid.dt <= 0.0):
        raise ValueError(
            "time grid too coarse for the conditional filter: need "
            f"2*eta*kappa*J*dt < 1, got {2*params.eta*params.kappa*params.J*grid.dt:.3g}; "
            "increase n_steps")
    drift = params.gamma * np.sqrt(jb) * grid.dt
    return c, K, drift


def filter_split(params: ModelParams, grid: TimeGrid):
    """Record-independent half of the filter run at a candidate field B.

    Returns (beta, residual): the innovations of a record dy at field B are
    residual(dy) - beta B.  The filter's mean <P>_i(B) = A_i B + Psi_i, with
    A driven by the field drift and Psi by the record through the same
    recursion, damped by phi_i = 1 - c_i K_i dt.
    With Pi the running product of phi (at least 1/(1 + 4 eta J)), A_i and
    Psi_i are Pi_i times prefix sums of -drift_j / Pi_{j+1} and
    K_j dy_j / Pi_{j+1}; r_i = dy_i - c_i Psi_i dt and beta_i = c_i A_i dt.
    """
    c, K, drift = filter_coefficients(params, grid)
    Pi = np.cumprod(1.0 - c * K * grid.dt)              # Pi_1 .. Pi_n
    pull = c * np.concatenate(([1.0], Pi[:-1])) * grid.dt
    gain = K / Pi

    def residual(dy: np.ndarray) -> np.ndarray:
        r = dy.copy()
        r[1:] -= pull[1:] * np.cumsum(gain[:-1] * dy[:-1])
        return r

    beta = pull * np.concatenate(([0.0], np.cumsum(-drift / Pi)[:-1]))
    return beta, residual


def _draw(params: ModelParams, grid: TimeGrid, coefficients, seed: int,
          seedseq: np.random.SeedSequence, spawn_key: tuple) -> PhotocurrentRecord:
    """Vectorized generation of one record under B_true = params.B."""
    c, K, drift = coefficients
    rng = np.random.default_rng(seedseq)
    dW = rng.normal(0.0, math.sqrt(grid.dt), size=grid.n_steps)
    # Under the true field the innovations are the Wiener increments
    # themselves, so <P> accumulates by a plain prefix sum.
    steps = -params.B * drift + K * dW
    mean_p = np.concatenate(([0.0], np.cumsum(steps[:-1])))
    dy = c * mean_p * grid.dt + dW
    return PhotocurrentRecord(increments=dy, dt=grid.dt, t_final=grid.t_final,
                              params=params, seed=int(seed),
                              spawn_key=tuple(spawn_key))


def simulate_record(params: ModelParams, grid: TimeGrid, seed: int,
                    _seedseq: np.random.SeedSequence | None = None,
                    _spawn_key: tuple = ()) -> PhotocurrentRecord:
    """Simulate one photocurrent record; deterministic in (params, grid, seed)."""
    ss = _seedseq if _seedseq is not None else np.random.SeedSequence(seed)
    return _draw(params, grid, filter_coefficients(params, grid), seed, ss,
                 _spawn_key)


_POOL_CHUNK = 16   # records drawn ahead by a thread pool


def _batch_stream(params: ModelParams, grid: TimeGrid, n_records: int,
                  seed_base: int, threads: int):
    """The records of batch_simulate in order, drawn as they are consumed:
    at most _POOL_CHUNK of them exist at once with a pool, one without."""
    if n_records < 1:
        raise ValueError("n_records must be >= 1")
    coefficients = filter_coefficients(params, grid)

    def make(k: int) -> PhotocurrentRecord:
        ss = np.random.SeedSequence(entropy=seed_base, spawn_key=(k,))
        return _draw(params, grid, coefficients, seed_base, ss, (k,))

    def pooled():
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for start in range(0, n_records, _POOL_CHUNK):
                yield from pool.map(make, range(start, min(start + _POOL_CHUNK,
                                                           n_records)))

    return pooled() if threads > 1 else map(make, range(n_records))


def batch_simulate(params: ModelParams, grid: TimeGrid, n_records: int,
                   seed_base: int, threads: int = 1) -> list[PhotocurrentRecord]:
    """Independent records with per-record substreams spawned from seed_base.

    Record k uses SeedSequence(seed_base, spawn_key=(k,)), so the collection
    is reproducible as a whole and each record is reproducible on its own:
    it is byte-identical to simulate_record with that seed sequence.  The
    filter coefficients are computed once for the whole batch.
    """
    return list(_batch_stream(params, grid, n_records, seed_base, threads))


def record_residuals(record: PhotocurrentRecord) -> np.ndarray:
    """Normalized innovations (dy_i - m_i dt)/sqrt(dt) under the generating
    parameters; i.i.d. standard normal when the record is self-consistent."""
    beta, residual = filter_split(record.params, record.grid())
    r = residual(record.increments)
    return (r - beta * record.params.B) / math.sqrt(record.grid().dt)


# -- persistence ---------------------------------------------------------------

def save_record(record: PhotocurrentRecord, path) -> None:
    """Write a record to an .npz archive (bit-exact round-trip)."""
    p = record.params
    np.savez(path,
             increments=record.increments,
             J=np.float64(p.J), kappa=np.float64(p.kappa),
             gamma=np.float64(p.gamma), eta=np.float64(p.eta),
             B=np.float64(p.B),
             dt=np.float64(record.dt), t_final=np.float64(record.t_final),
             seed=np.int64(record.seed),
             spawn_key=np.asarray(record.spawn_key, dtype=np.int64),
             convention_tag=np.str_(CONVENTION_TAG),
             rng_algorithm=np.str_(record.rng_algorithm),
             format_version=np.int64(record.format_version))


def load_record(path) -> PhotocurrentRecord:
    """Read an .npz archive written by save_record."""
    with np.load(path, allow_pickle=False) as z:
        version = int(z["format_version"])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported record format version {version}")
        tag = str(z["convention_tag"])
        if tag != CONVENTION_TAG:
            raise ValueError(f"record {path} uses current convention {tag!r}; "
                             f"only {CONVENTION_TAG!r} is supported")
        params = ModelParams(J=float(z["J"]), kappa=float(z["kappa"]),
                             gamma=float(z["gamma"]), eta=float(z["eta"]),
                             B=float(z["B"]))
        return PhotocurrentRecord(
            increments=z["increments"].copy(),
            dt=float(z["dt"]), t_final=float(z["t_final"]),
            params=params, seed=int(z["seed"]),
            spawn_key=tuple(int(k) for k in z["spawn_key"]),
            rng_algorithm=str(z["rng_algorithm"]),
            format_version=version)
