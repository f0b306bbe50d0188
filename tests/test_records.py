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
    rec = simulate_record(P.replace(B=2e-3), GRID, seed=5)
    path = tmp_path / "rec.npz"
    save_record(rec, path)
    back = load_record(path)
    assert back.increments.tobytes() == rec.increments.tobytes()
    assert back.params == rec.params
    assert back.seed == rec.seed
    assert back.spawn_key == rec.spawn_key
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


def _savez_as_format_1(path, rec, tag):
    """A record file with the members and types format 1 has always had."""
    p = rec.params
    np.savez(path, increments=rec.increments, J=np.float64(p.J),
             kappa=np.float64(p.kappa), gamma=np.float64(p.gamma),
             eta=np.float64(p.eta), B=np.float64(p.B), dt=np.float64(rec.dt),
             t_final=np.float64(rec.t_final), seed=np.int64(rec.seed),
             spawn_key=np.asarray(rec.spawn_key, dtype=np.int64),
             convention_tag=np.str_(tag), rng_algorithm=np.str_(rec.rng_algorithm),
             format_version=np.int64(1))


def test_format_1_files_load_and_write_unchanged(tmp_path):
    rec = batch_simulate(P.replace(B=2e-3), GRID, n_records=2, seed_base=5)[1]
    old, new = tmp_path / "old.npz", tmp_path / "new.npz"
    _savez_as_format_1(old, rec, "main")
    back = load_record(old)
    assert back.increments.tobytes() == rec.increments.tobytes()
    assert back.params == rec.params and back.spawn_key == (1,)
    save_record(back, new)
    with np.load(old) as a, np.load(new) as b:
        assert sorted(a.files) == sorted(b.files)
        for name in a.files:
            assert a[name].dtype == b[name].dtype, name
            assert a[name].tobytes() == b[name].tobytes(), name


def test_load_rejects_other_current_conventions(tmp_path):
    # "appc" files held the current divided by sqrt(2); reading one as
    # "main" data would silently shrink the signal.
    path = tmp_path / "appc.npz"
    _savez_as_format_1(path, simulate_record(P, GRID, seed=5), "appc")
    with pytest.raises(ValueError, match="appc"):
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


def test_coarse_grid_rejected():
    coarse = TimeGrid(t_final=1.0, n_steps=100)  # 2*eta*kappa*J*dt = 200
    with pytest.raises(ValueError, match="too coarse"):
        simulate_record(P, coarse, seed=1)


def test_record_validation():
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


def test_residuals_recover_the_generating_draws():
    # Re-filtered at the generating field, the innovations are the Wiener
    # increments that made the record, draw for draw.
    rec = simulate_record(P.replace(B=5e-3), GRID, seed=77)
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
