import json
import math

import numpy as np
import pytest

from magmon.model import ModelParams, TimeGrid, jbar, load_config


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(J=0.0, kappa=1.0, gamma=1.0)
    with pytest.raises(ValueError):
        ModelParams(J=10.0, kappa=-1.0, gamma=1.0)
    with pytest.raises(ValueError):
        ModelParams(J=10.0, kappa=1.0, gamma=1.0, eta=1.5)
    with pytest.raises(ValueError):
        ModelParams(J=math.inf, kappa=1.0, gamma=1.0)


def test_params_replace_and_g():
    p = ModelParams(J=100.0, kappa=2.0, gamma=3.0, eta=0.5, B=0.1)
    assert p.g == 1.5
    q = p.replace(J=200.0)
    assert q.J == 200.0 and q.kappa == 2.0 and p.J == 100.0


def test_jbar_decay():
    p = ModelParams(J=50.0, kappa=2.0, gamma=1.0)
    assert jbar(p, 0.0) == 50.0
    t = np.array([0.0, 0.5, 1.0])
    np.testing.assert_allclose(jbar(p, t), 50.0 * np.exp(-t), rtol=1e-15)
    with pytest.raises(ValueError):
        jbar(p, -0.1)


def test_time_grid():
    g = TimeGrid(t_final=2.0, n_steps=4)
    assert g.dt == 0.5
    np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid(t_final=0.0, n_steps=4)
    with pytest.raises(ValueError):
        TimeGrid(t_final=1.0, n_steps=0)


def test_time_grid_integral_float_steps_become_int():
    g = TimeGrid(t_final=1.0, n_steps=10.0)
    assert type(g.n_steps) is int and g == TimeGrid(t_final=1.0, n_steps=10)
    assert len(g.times()) == 11
    for bad in (10.5, math.nan, math.inf, True, "10"):
        with pytest.raises(ValueError, match="n_steps"):
            TimeGrid(t_final=1.0, n_steps=bad)


def test_config_round_trip(tmp_path):
    p = ModelParams(J=1e4, kappa=1.0, gamma=0.7, eta=0.8, B=1e-3)
    g = TimeGrid(t_final=1.0, n_steps=1000)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(p.as_dict(), t_final=g.t_final,
                                    n_steps=g.n_steps, seed=99)))
    p2, g2, seed = load_config(path)
    assert p2 == p and g2 == g and seed == 99


def test_config_integer_keys_are_not_truncated(tmp_path):
    base = {"J": 10.0, "kappa": 1.0, "gamma": 1.0, "eta": 1.0, "B": 0.0,
            "t_final": 1.0, "n_steps": 1e4, "seed": 3}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(base))
    _, grid, _ = load_config(path)
    assert type(grid.n_steps) is int and grid.n_steps == 10000
    for key, bad in (("n_steps", 1000.7), ("seed", 3.9)):
        path.write_text(json.dumps(dict(base, **{key: bad})))
        with pytest.raises(ValueError, match=key):
            load_config(path)


def test_config_real_keys_are_not_coerced(tmp_path):
    base = {"J": 10.0, "kappa": 1, "gamma": 1.0, "eta": 1.0, "B": 0.0,
            "t_final": 1.0, "n_steps": 10, "seed": 3}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(base))
    params, _, _ = load_config(path)
    assert type(params.kappa) is float and params.kappa == 1.0
    for key, bad in (("J", "1e4"), ("eta", True), ("B", None),
                     ("t_final", math.inf), ("gamma", math.nan)):
        path.write_text(json.dumps(dict(base, **{key: bad})))
        with pytest.raises(ValueError, match=key):
            load_config(path)


def test_config_missing_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"J": 10.0, "kappa": 1.0}))
    with pytest.raises(KeyError) as err:
        load_config(path)
    assert "gamma" in str(err.value) and "n_steps" in str(err.value)
