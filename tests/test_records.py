"""Simulated-record behaviour: determinism, seeding, serialization, statistics."""

import math

import numpy as np
import pytest

from magmon.model import ModelParams, TimeGrid
from magmon.records import (PhotocurrentRecord, batch_simulate,
                            filter_coefficients, load_record,
                            record_residuals, save_record, simulate_record)

# 2*eta*kappa*J*dt = 0.5 on this grid, inside the filter's stability window
P = ModelParams(J=1e4, kappa=1.0, gamma=1.0, eta=1.0, B=0.0)
GRID = TimeGrid(t_final=1.0, n_steps=40000)


def test_same_seed_identical_bytes():
    a = simulate_record(P, GRID, seed=42)
    b = simulate_record(P, GRID, seed=42)
    assert a.increments.tobytes() == b.increments.tobytes()


def test_different_seeds_differ():
    a = simulate_record(P, GRID, seed=1)
    b = simulate_record(P, GRID, seed=2)
    assert not np.array_equal(a.increments, b.increments)


def test_batch_thread_invariance():
    serial = batch_simulate(P, GRID, n_records=6, seed_base=9)
    pooled = batch_simulate(P, GRID, n_records=6, seed_base=9, threads=3)
    for r1, r2 in zip(serial, pooled):
        assert r1.increments.tobytes() == r2.increments.tobytes()
        assert r1.spawn_key == r2.spawn_key


def test_batch_records_are_independent_streams():
    records = batch_simulate(P, GRID, n_records=4, seed_base=123)
    seen = {r.increments.tobytes() for r in records}
    assert len(seen) == 4
    assert [r.spawn_key for r in records] == [(0,), (1,), (2,), (3,)]


def test_roundtrip_exact(tmp_path):
    rec = simulate_record(P.replace(B=2e-3), GRID, seed=5, convention_tag="appc")
    path = tmp_path / "rec.npz"
    save_record(rec, path)
    back = load_record(path)
    assert back.increments.tobytes() == rec.increments.tobytes()
    assert back.params == rec.params
    assert back.seed == rec.seed
    assert back.spawn_key == rec.spawn_key
    assert back.convention_tag == "appc"
    assert back.dt == rec.dt and back.t_final == rec.t_final


def test_load_rejects_future_format(tmp_path):
    rec = simulate_record(P, GRID, seed=5)
    path = tmp_path / "rec.npz"
    save_record(rec, path)
    with np.load(path) as data:
        payload = dict(data)
    payload["format_version"] = np.int64(99)
    np.savez(path, **payload)
    with pytest.raises(ValueError):
        load_record(path)


def test_residuals_are_standard_normal():
    rec = simulate_record(P, GRID, seed=77)
    z = record_residuals(rec)
    n = len(z)
    assert abs(z.mean()) < 4.0 / math.sqrt(n)
    assert abs(z.var() - 1.0) < 6.0 / math.sqrt(n)


def test_residuals_respect_true_field():
    # Residuals stay white only when re-filtered at the generating B.
    rec = simulate_record(P.replace(B=5e-3), GRID, seed=3)
    z = record_residuals(rec)
    assert abs(z.mean()) < 4.0 / math.sqrt(len(z))


def test_eta_zero_record_is_pure_noise():
    p0 = P.replace(eta=0.0)
    rec = simulate_record(p0, GRID, seed=11)
    # dy = dW exactly: no signal term survives at eta = 0
    assert abs(rec.increments.var() - GRID.dt) < 5.0 * GRID.dt / math.sqrt(GRID.n_steps)
    c, K, drift = filter_coefficients(p0, GRID)
    assert np.all(c == 0.0) and np.all(K == 0.0)


def test_appc_is_exact_rescale_of_main():
    main = simulate_record(P, GRID, seed=8, convention_tag="main")
    appc = simulate_record(P, GRID, seed=8, convention_tag="appc")
    # generated from the same draws, then divided once
    assert np.array_equal(appc.increments, main.increments / math.sqrt(2.0))
    np.testing.assert_allclose(appc.as_main_convention(), main.increments,
                               rtol=1e-14, atol=0.0)
    assert main.as_main_convention() is main.increments


def test_coarse_grid_rejected():
    coarse = TimeGrid(t_final=1.0, n_steps=100)  # 2*eta*kappa*J*dt = 200
    with pytest.raises(ValueError, match="too coarse"):
        simulate_record(P, coarse, seed=1)


def test_record_validation():
    with pytest.raises(ValueError, match="convention_tag"):
        PhotocurrentRecord(increments=np.zeros(4), dt=0.1, t_final=0.4,
                           params=P, seed=0, spawn_key=(), convention_tag="odd")
    with pytest.raises(ValueError, match="non-finite"):
        PhotocurrentRecord(increments=np.array([0.0, np.nan]), dt=0.1,
                           t_final=0.2, params=P, seed=0, spawn_key=())
    with pytest.raises(ValueError):
        PhotocurrentRecord(increments=np.zeros(0), dt=0.1, t_final=0.0,
                           params=P, seed=0, spawn_key=())


def test_grid_reconstruction():
    rec = simulate_record(P, GRID, seed=4)
    g = rec.grid()
    assert g.n_steps == GRID.n_steps
    assert g.t_final == GRID.t_final
    assert g.dt == pytest.approx(GRID.dt, rel=1e-15)


@pytest.mark.parametrize("convention", ["main", "appc"])
def test_residuals_recover_the_generating_draws(convention):
    # Re-filtered at the generating field, the innovations are the Wiener
    # increments that made the record, draw for draw.
    rec = simulate_record(P.replace(B=5e-3), GRID, seed=77,
                          convention_tag=convention)
    draws = np.random.default_rng(np.random.SeedSequence(77)).normal(
        0.0, math.sqrt(GRID.dt), GRID.n_steps)
    np.testing.assert_allclose(record_residuals(rec) * math.sqrt(GRID.dt),
                               draws, rtol=1e-9)


@pytest.mark.parametrize("threads", [1, 2])
def test_batch_record_is_the_single_record_of_its_stream(threads):
    # 17 records: a thread pool draws them in more than one chunk
    batch = batch_simulate(P, GRID, n_records=17, seed_base=21, threads=threads)
    for k, rec in enumerate(batch):
        alone = simulate_record(P, GRID, 21,
                                _seedseq=np.random.SeedSequence(21, spawn_key=(k,)),
                                _spawn_key=(k,))
        assert rec.increments.tobytes() == alone.increments.tobytes()
        assert rec.spawn_key == alone.spawn_key == (k,)
