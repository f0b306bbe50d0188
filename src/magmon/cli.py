"""Command-line front end.

Four subcommands cover the workflow end to end:

    magmon info-sweep  --out DIR [--config FILE]
    magmon simulate    --config FILE --out DIR [--seed N]
    magmon estimate    --config FILE --out DIR RECORD.npz [RECORD.npz ...]
    magmon verify      [--out DIR]

Exit codes: 0 on success, 1 on usage or configuration errors, 2 when the
verification suite finds a broken invariant.  All CSV output is deterministic
for a fixed config and seed (headers carry the config echo, never wall-clock
time), so identical invocations produce byte-identical files.

Config files are the flat JSON documents of model.load_config; the commands
additionally understand optional keys n_records, prior_lo, prior_hi, n_grid,
n_checkpoints, J_values, kappa_t_values, eta_values.  Any other key is a
configuration error, so a misspelt key is never silently ignored.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bayes, checks, information, model, records

SWEEP_J = (1e2, 1e4, 1e6)
SWEEP_KAPPA_T = (0.01, 0.1, 1.0)
SWEEP_ETA = (0.1, 0.5, 1.0)
CONFIG_KEYS = frozenset(model.REQUIRED_KEYS + (
    "n_records", "prior_lo", "prior_hi", "n_grid", "n_checkpoints",
    "J_values", "kappa_t_values", "eta_values"))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to exit(1)
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="magmon",
                description="Field-estimation toolkit for a continuously "
                            "monitored atomic ensemble")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_config):
        sp.add_argument("--config", required=need_config, default=None,
                        help="flat JSON config file")
        sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("info-sweep", help="closed-form information sweep")
    common(sp, need_config=False)

    sp = sub.add_parser("simulate", help="generate photocurrent records")
    common(sp, need_config=True)
    sp.add_argument("--seed", type=int, default=None,
                    help="override the config seed")

    sp = sub.add_parser("estimate", help="posterior inference from records")
    common(sp, need_config=True)
    sp.add_argument("records", nargs="*", metavar="RECORD",
                    help="record .npz files (zero records echoes the prior)")

    sp = sub.add_parser("verify", help="run the cross-validation suite")
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--inject-error", action="store_true",
                    help=argparse.SUPPRESS)  # negative control for the suite
    return p


def _read_extras(config_path) -> dict:
    if config_path is None:
        return {}
    with open(config_path) as fh:
        extras = json.load(fh)
    unknown = sorted(set(extras) - CONFIG_KEYS)
    if unknown:
        raise UsageError(f"config {config_path} has unknown keys: "
                         f"{', '.join(unknown)}")
    return extras


def _write_csv(path: Path, header_lines, columns, rows) -> None:
    with open(path, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- info-sweep -----------------------------------------------------------------

def cmd_info_sweep(args) -> int:
    extras = _read_extras(args.config)
    kappa = model.as_real("kappa", extras.get("kappa", 1.0))
    gamma = model.as_real("gamma", extras.get("gamma", 1.0))
    template = model.ModelParams(J=1.0, kappa=kappa, gamma=gamma, eta=1.0, B=0.0)
    axes = []
    for key, default in (("J_values", SWEEP_J), ("kappa_t_values", SWEEP_KAPPA_T),
                         ("eta_values", SWEEP_ETA)):
        values = extras.get(key, default)
        if not isinstance(values, (list, tuple)):
            raise UsageError(f"{key} must be a list, got {values!r}")
        axes.append(tuple(model.as_real(key, x) for x in values))
    if not all(axes):
        raise UsageError("sweep lists must be non-empty")
    j_values, kappa_t_values, eta_values = axes
    rows = [information.effective_qfi(template.replace(J=J, eta=eta),
                                      kt / kappa).row()
            for J in j_values for kt in kappa_t_values for eta in eta_values]

    out = _outdir(args)
    _write_csv(out / "info_sweep.csv",
               [f"info-sweep kappa={kappa!r} gamma={gamma!r}",
                f"J_values={list(j_values)} "
                f"kappa_t_values={list(kappa_t_values)} "
                f"eta_values={list(eta_values)}"],
               information.REPORT_COLUMNS, rows)
    print(f"info-sweep: wrote {len(rows)} rows to {out / 'info_sweep.csv'}")
    return 0


# -- simulate -------------------------------------------------------------------

def cmd_simulate(args) -> int:
    params, grid, seed = model.load_config(args.config)
    if args.seed is not None:
        seed = args.seed
    extras = _read_extras(args.config)
    n_records = model.as_int("n_records", extras.get("n_records", 4))
    # Each record is written as it is drawn, so the batch is never held whole.
    batch = records._batch_stream(params, grid, n_records, seed)
    out = _outdir(args)
    files = []
    for k, rec in enumerate(batch):
        name = f"record_s{seed}_k{k:04d}.npz"
        records.save_record(rec, out / name)
        files.append(name)
    manifest = {
        "files": files,
        "seed": seed,
        "n_records": n_records,
        "uninformative": params.eta == 0.0,
        "params": params.as_dict(),
        "t_final": grid.t_final,
        "n_steps": grid.n_steps,
        "rng_algorithm": records.RNG_ALGORITHM,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True,
                                                  indent=2) + "\n")
    note = " (uninformative: eta = 0)" if params.eta == 0.0 else ""
    print(f"simulate: wrote {n_records} records to {out}{note}")
    return 0


# -- estimate -------------------------------------------------------------------

def _checkpoint_steps(n_steps: int, n_checkpoints: int) -> np.ndarray:
    if n_checkpoints == 1:
        return np.array([n_steps])
    return np.unique(np.linspace(1, n_steps, n_checkpoints).round().astype(int))


def _load_matching(path, params, grid) -> records.PhotocurrentRecord:
    rec = records.load_record(path)
    same_model = rec.params.replace(B=params.B) == params
    same_grid = (rec.n_steps == grid.n_steps
                 and math.isclose(rec.t_final, grid.t_final, rel_tol=1e-9))
    if not (same_model and same_grid):
        raise ValueError(f"record {path} does not match the config "
                         "(parameters or grid differ)")
    return rec


def cmd_estimate(args) -> int:
    params, grid, _seed = model.load_config(args.config)
    extras = _read_extras(args.config)
    prior = (model.as_real("prior_lo", extras.get("prior_lo", bayes.DEFAULT_PRIOR[0])),
             model.as_real("prior_hi", extras.get("prior_hi", bayes.DEFAULT_PRIOR[1])))
    n_grid = model.as_int("n_grid", extras.get("n_grid", bayes.DEFAULT_GRID_POINTS))
    n_checkpoints = model.as_int("n_checkpoints", extras.get("n_checkpoints", 20))
    if n_checkpoints < 1:
        raise ValueError(f"n_checkpoints must be at least 1, got {n_checkpoints}")
    out = _outdir(args)

    if not args.records:
        post = bayes.posterior([], prior, n_grid)
        est = bayes.estimate(post)
        _write_csv(out / "posterior_final.csv",
                   ["estimate: no records; prior echoed"],
                   ("B", "posterior"),
                   list(zip(post.b_values.tolist(), post.posterior.tolist())))
        _write_csv(out / "estimate_summary.csv",
                   ["estimate: no records; ratio undefined"],
                   ("kappa_t", "mean", "sd", "sd_crb", "ratio"),
                   [[0.0, est.mean, est.sd, est.sd_crb, est.ratio]])
        print("estimate: no records given; wrote the prior")
        return 0

    steps = _checkpoint_steps(grid.n_steps, n_checkpoints)
    # records are loaded, checked and reduced one at a time
    table = bayes.coefficient_table(
        (_load_matching(p, params, grid) for p in args.records), steps)
    kappa = table.params.kappa
    n = len(args.records)
    summary_rows, heatmap_rows, ratio_rows = [], [], []
    for i, t in enumerate(table.times.tolist()):
        kt = kappa * t
        # Intermediate checkpoints may legitimately lean on the prior; only
        # the full-horizon posterior enforces the narrow-prior guard.
        post = table.posterior(i, prior, n_grid,
                               "raise" if i == len(steps) - 1 else "allow")
        est = bayes.estimate(post)
        summary_rows.append([kt, est.mean, est.sd, est.sd_crb, est.ratio])
        heatmap_rows.extend([kt, bval, dens] for bval, dens in
                            zip(post.b_values.tolist(), post.posterior.tolist()))
        # record-order independent: fsum is exactly rounded
        ratios = [s.ratio for s in table.summaries(i, prior)]
        mean = math.fsum(ratios) / n
        spread = math.sqrt(math.fsum((r - mean) ** 2 for r in ratios) / n)
        ratio_rows.append([kt, mean, spread, n])

    _write_csv(out / "estimate_summary.csv",
               [f"pooled posterior over {n} records; prior {prior}"],
               ("kappa_t", "mean", "sd", "sd_crb", "ratio"), summary_rows)
    _write_csv(out / "posterior_checkpoints.csv",
               [f"pooled posterior density over {n} records"],
               ("kappa_t", "B", "posterior"), heatmap_rows)
    _write_csv(out / "posterior_final.csv",
               [f"pooled posterior at kappa_t={kappa * post.t!r}"],
               ("B", "posterior"),
               list(zip(post.b_values.tolist(), post.posterior.tolist())))
    _write_csv(out / "ratio_curve.csv",
               ["per-record sd over the information bound, averaged"],
               ("kappa_t", "mean_ratio", "sd_ratio", "n_records"), ratio_rows)

    print(f"estimate: wrote posterior and ratio curves for {n} "
          f"records to {out}")
    return 0


# -- verify ---------------------------------------------------------------------

def cmd_verify(args) -> int:
    results = []
    all_ok = True
    start = time.perf_counter()
    for name, residual, threshold in checks.invariants(args.inject_error):
        seconds = time.perf_counter() - start
        ok = residual <= threshold
        all_ok &= ok
        results.append({"invariant": name, "residual": float(residual),
                        "threshold": float(threshold), "seconds": seconds,
                        "verdict": "pass" if ok else "FAIL"})
        print(f"{'PASS' if ok else 'FAIL'}  {name}: residual {residual:.3e} "
              f"(threshold {threshold:.1e})")
        start = time.perf_counter()
    report = {"all_passed": bool(all_ok), "checks": results}
    if args.out is not None:
        out = _outdir(args)
        (out / "verify_report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"verify: {'all checks passed' if all_ok else 'FAILURES detected'}")
    return 0 if all_ok else 2


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"magmon: error: {err}", file=sys.stderr)
        return 1
    dispatch = {"info-sweep": cmd_info_sweep, "simulate": cmd_simulate,
                "estimate": cmd_estimate, "verify": cmd_verify}
    try:
        return dispatch[args.command](args)
    except (UsageError, KeyError, ValueError, OSError, RuntimeError) as err:
        print(f"magmon: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
