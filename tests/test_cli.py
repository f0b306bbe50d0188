"""End-to-end command-line checks.

Everything runs in-process through magmon.cli.main so coverage and debuggers
see it, and so the exit-code contract (0 ok / 1 usage / 2 broken invariant)
is pinned down exactly.
"""

import json

import numpy as np
import pytest

from magmon import cli
from magmon.records import load_record

# small but informative: 2*eta*kappa*J*dt = 0.2
CONFIG = {
    "J": 100.0, "kappa": 1.0, "gamma": 1.0, "eta": 1.0, "B": 0.0,
    "t_final": 1.0, "n_steps": 1000, "seed": 7,
    "n_records": 3, "prior_lo": -0.2, "prior_hi": 0.2,
    "n_grid": 201, "n_checkpoints": 5,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def read_csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines]


def test_usage_errors_exit_1(capsys):
    assert cli.main([]) == 1
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["simulate"]) == 1          # --config/--out required
    assert cli.main(["info-sweep"]) == 1        # --out required
    capsys.readouterr()


def test_missing_config_file_exit_1(tmp_path, capsys):
    rc = cli.main(["simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    capsys.readouterr()


def test_incomplete_config_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"J": 10.0}))
    rc = cli.main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "missing keys" in err


def test_info_sweep_default_grid(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert cli.main(["info-sweep", "--out", str(out)]) == 0
    rows = read_csv_rows(out / "info_sweep.csv")
    assert len(rows) == 1 + 27  # header + 3x3x3 grid
    capsys.readouterr()


def test_info_sweep_reruns_byte_identical(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["info-sweep", "--out", str(out_a)]) == 0
    assert cli.main(["info-sweep", "--out", str(out_b)]) == 0
    assert (out_a / "info_sweep.csv").read_bytes() == \
        (out_b / "info_sweep.csv").read_bytes()
    capsys.readouterr()


def test_info_sweep_empty_axis_exit_1(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"J_values": []}))
    rc = cli.main(["info-sweep", "--config", str(cfg),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "non-empty" in capsys.readouterr().err


def test_info_sweep_custom_grid(tmp_path, capsys):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"J_values": [10.0, 100.0],
                               "kappa_t_values": [0.5],
                               "eta_values": [1.0]}))
    out = tmp_path / "sweep"
    assert cli.main(["info-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = read_csv_rows(out / "info_sweep.csv")
    assert len(rows) == 1 + 2
    capsys.readouterr()


def test_simulate_writes_records_and_manifest(config_path, tmp_path, capsys):
    out = tmp_path / "records"
    assert cli.main(["simulate", "--config", config_path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_records"] == 3
    assert manifest["seed"] == 7
    assert len(manifest["files"]) == 3
    for name in manifest["files"]:
        rec = load_record(out / name)
        assert rec.n_steps == CONFIG["n_steps"]
        assert rec.params.J == CONFIG["J"]
    capsys.readouterr()


def test_simulate_seed_override_and_determinism(config_path, tmp_path, capsys):
    out1, out2, out3 = (tmp_path / n for n in ("r1", "r2", "r3"))
    for out in (out1, out2):
        assert cli.main(["simulate", "--config", config_path,
                         "--out", str(out), "--seed", "99"]) == 0
    assert cli.main(["simulate", "--config", config_path, "--out", str(out3),
                     "--seed", "99", "--threads", "2"]) == 0
    name = "record_s99_k0000.npz"
    a = load_record(out1 / name).increments
    b = load_record(out2 / name).increments
    c = load_record(out3 / name).increments
    assert a.tobytes() == b.tobytes() == c.tobytes()
    capsys.readouterr()


def test_estimate_end_to_end(config_path, tmp_path, capsys):
    rec_dir = tmp_path / "records"
    assert cli.main(["simulate", "--config", config_path,
                     "--out", str(rec_dir)]) == 0
    manifest = json.loads((rec_dir / "manifest.json").read_text())
    rec_paths = [str(rec_dir / name) for name in manifest["files"]]

    est_dir = tmp_path / "estimates"
    assert cli.main(["estimate", "--config", config_path,
                     "--out", str(est_dir)] + rec_paths) == 0

    summary = read_csv_rows(est_dir / "estimate_summary.csv")
    assert summary[0] == ["kappa_t", "mean", "sd", "sd_crb", "ratio"]
    assert len(summary) == 1 + CONFIG["n_checkpoints"]
    # pooled posterior mean should be consistent with B_true = 0
    final = [float(x) for x in summary[-1]]
    assert abs(final[1]) < 6.0 * final[2]
    # posterior sd tracks the information bound at the full horizon
    assert 0.5 < final[4] < 1.5

    final_rows = read_csv_rows(est_dir / "posterior_final.csv")
    dens = np.array([float(r[1]) for r in final_rows[1:]])
    b = np.array([float(r[0]) for r in final_rows[1:]])
    w = np.gradient(b)
    assert np.dot(w, dens) == pytest.approx(1.0, abs=1e-6)

    ratio = read_csv_rows(est_dir / "ratio_curve.csv")
    assert ratio[0] == ["kappa_t", "mean_ratio", "sd_ratio", "n_records"]
    assert len(ratio) == 1 + CONFIG["n_checkpoints"]
    capsys.readouterr()


def test_estimate_rejects_mismatched_records(config_path, tmp_path, capsys):
    rec_dir = tmp_path / "records"
    assert cli.main(["simulate", "--config", config_path,
                     "--out", str(rec_dir)]) == 0
    other = dict(CONFIG, J=50.0)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    rc = cli.main(["estimate", "--config", str(other_path),
                   "--out", str(tmp_path / "e"),
                   str(rec_dir / "record_s7_k0000.npz")])
    assert rc == 1
    assert "does not match" in capsys.readouterr().err


def test_estimate_without_records_echoes_prior(config_path, tmp_path, capsys):
    out = tmp_path / "empty"
    assert cli.main(["estimate", "--config", config_path, "--out", str(out)]) == 0
    summary = read_csv_rows(out / "estimate_summary.csv")
    row = summary[1]
    assert float(row[1]) == pytest.approx(0.0, abs=1e-12)
    assert row[4] == "nan"
    capsys.readouterr()


# The report's check list, in order: the benchmark counts on all twelve.
VERIFY_INVARIANTS = [
    "fisher_record closed vs integrated",
    "qfi_conditional closed vs integrated",
    "Q_tilde additivity identity",
    "Q_tilde(eta=1) equals Q_bar",
    "ultimate closed vs two-field flow",
    "spin commutator algebra",
    "coherent state <Jx> = J",
    "unconditional <Jx> decay law",
    "two-field diagonal trace",
    "finite-spin ultimate information gap (J=20)",
    "record determinism",
    "posterior normalization and permutation invariance",
]


def test_verify_passes(tmp_path, capsys):
    out = tmp_path / "verify"
    assert cli.main(["verify", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured and "FAIL" not in captured
    report = json.loads((out / "verify_report.json").read_text())
    assert report["all_passed"] is True
    assert all(chk["verdict"] == "pass" for chk in report["checks"])
    assert [chk["invariant"] for chk in report["checks"]] == VERIFY_INVARIANTS


def test_verify_inject_error_fails(capsys):
    assert cli.main(["verify", "--inject-error"]) == 2
    assert "FAIL" in capsys.readouterr().out


def _simulate(config, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rec_dir = tmp_path / "records"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(rec_dir)]) == 0
    return str(cfg), sorted(str(p) for p in rec_dir.glob("*.npz"))


def test_estimate_single_checkpoint_is_the_final_step(tmp_path, capsys):
    cfg, recs = _simulate(dict(CONFIG, n_checkpoints=1), tmp_path)
    out = tmp_path / "est"
    assert cli.main(["estimate", "--config", cfg, "--out", str(out)] + recs) == 0
    summary = read_csv_rows(out / "estimate_summary.csv")
    assert len(summary) == 2
    assert float(summary[1][0]) == pytest.approx(CONFIG["t_final"], rel=1e-12)
    header = (out / "posterior_final.csv").read_text().splitlines()[0]
    kt = float(header.split("kappa_t=")[1])
    assert kt == pytest.approx(CONFIG["t_final"], rel=1e-12)
    capsys.readouterr()


def test_estimate_rejects_zero_checkpoints(tmp_path, capsys):
    cfg, recs = _simulate(dict(CONFIG, n_checkpoints=0), tmp_path)
    rc = cli.main(["estimate", "--config", cfg, "--out", str(tmp_path / "e")] + recs)
    assert rc == 1
    assert "magmon: error:" in capsys.readouterr().err


def test_verify_rejects_seed_option(capsys):
    assert cli.main(["verify", "--seed", "1"]) == 1
    assert "magmon: error:" in capsys.readouterr().err


def test_estimate_csvs_ignore_record_order(config_path, tmp_path, capsys):
    rec_dir = tmp_path / "records"
    assert cli.main(["simulate", "--config", config_path,
                     "--out", str(rec_dir)]) == 0
    paths = sorted(str(p) for p in rec_dir.glob("*.npz"))
    outs = [tmp_path / name for name in ("a", "again", "reversed")]
    for out, order in zip(outs, (paths, paths, paths[::-1])):
        assert cli.main(["estimate", "--config", config_path,
                         "--out", str(out)] + order) == 0
    for name in ("estimate_summary.csv", "posterior_checkpoints.csv",
                 "posterior_final.csv", "ratio_curve.csv"):
        first = (outs[0] / name).read_bytes()
        assert all((out / name).read_bytes() == first for out in outs[1:]), name
    capsys.readouterr()


def test_estimate_rejects_threads_option(config_path, tmp_path, capsys):
    rc = cli.main(["estimate", "--config", config_path,
                   "--out", str(tmp_path / "e"), "--threads", "2"])
    assert rc == 1
    assert "magmon: error:" in capsys.readouterr().err


def test_info_sweep_rejects_threads_option(tmp_path, capsys):
    rc = cli.main(["info-sweep", "--out", str(tmp_path / "s"), "--threads", "2"])
    assert rc == 1
    assert "magmon: error:" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_simulate_rejects_threads_below_one(config_path, tmp_path, capsys,
                                            threads):
    out = tmp_path / "r"
    rc = cli.main(["simulate", "--config", config_path, "--out", str(out),
                   "--threads", threads])
    assert rc == 1
    assert "magmon: error:" in capsys.readouterr().err
    assert not out.exists()


def _bad_config_exits_1(tmp_path, capsys, command, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(CONFIG, **{key: value})))
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "magmon: error:" in err and key in err
    assert not out.exists()


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "n_steps", 1000.7), ("simulate", "seed", 3.9),
    ("simulate", "n_records", 2.5), ("estimate", "n_grid", 201.5),
    ("estimate", "n_checkpoints", 4.2)])
def test_non_integral_config_values_exit_1(tmp_path, capsys, command, key,
                                           value):
    _bad_config_exits_1(tmp_path, capsys, command, key, value)


@pytest.mark.parametrize("command,key,value", [
    ("simulate", "J", "100"), ("simulate", "eta", True),
    ("simulate", "t_final", float("inf")), ("estimate", "prior_lo", "-0.2"),
    ("estimate", "prior_hi", None), ("info-sweep", "kappa", True),
    ("info-sweep", "gamma", "1"), ("info-sweep", "J_values", ["1e2"])])
def test_non_real_config_values_exit_1(tmp_path, capsys, command, key, value):
    _bad_config_exits_1(tmp_path, capsys, command, key, value)


@pytest.mark.parametrize("command,key", [
    ("simulate", "convention"), ("simulate", "n_record"),
    ("estimate", "convention"), ("info-sweep", "eta_value")])
def test_unknown_config_keys_exit_1(tmp_path, capsys, command, key):
    _bad_config_exits_1(tmp_path, capsys, command, key, "main")
