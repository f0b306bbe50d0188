"""Command-line front end.

Four subcommands cover the workflow end to end:

    magmon info-sweep  --out DIR [--config FILE] [--threads N]
    magmon simulate    --config FILE --out DIR [--seed N] [--threads N]
    magmon estimate    --config FILE --out DIR RECORD.npz [RECORD.npz ...]
    magmon verify      [--out DIR]

Exit codes: 0 on success, 1 on usage or configuration errors, 2 when the
verification suite finds a broken invariant.  All CSV output is deterministic
for a fixed config and seed (headers carry the config echo, never wall-clock
time), so identical invocations produce byte-identical files.

Config files are the flat JSON documents of model.load_config; the commands
additionally understand optional keys n_records, convention, prior_lo,
prior_hi, n_grid, n_checkpoints, J_values, kappa_t_values, eta_values.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import bayes, filtering, information, model, records, spin

SWEEP_J = (1e2, 1e4, 1e6)
SWEEP_KAPPA_T = (0.01, 0.1, 1.0)
SWEEP_ETA = (0.1, 0.5, 1.0)


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
        sp.add_argument("--threads", type=int, default=1,
                        help="worker threads (output order is independent)")

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
        return json.load(fh)


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
    kappa = float(extras.get("kappa", 1.0))
    gamma = float(extras.get("gamma", 1.0))
    template = model.ModelParams(J=1.0, kappa=kappa, gamma=gamma, eta=1.0, B=0.0)
    axes = [tuple(float(x) for x in extras.get(key, default))
            for key, default in (("J_values", SWEEP_J),
                                 ("kappa_t_values", SWEEP_KAPPA_T),
                                 ("eta_values", SWEEP_ETA))]
    if not all(axes):
        raise UsageError("sweep lists must be non-empty")
    j_values, kappa_t_values, eta_values = axes
    # --threads is accepted but unused: a serial sweep of closed forms is
    # faster than a thread pool, and the output does not depend on it.
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
    n_records = int(extras.get("n_records", 4))
    convention = str(extras.get("convention", "main"))
    batch = records.batch_simulate(params, grid, n_records, seed,
                                   convention_tag=convention,
                                   threads=args.threads)
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
        "convention": convention,
        "uninformative": batch[0].uninformative,
        "params": params.as_dict(),
        "t_final": grid.t_final,
        "n_steps": grid.n_steps,
        "rng_algorithm": records.RNG_ALGORITHM,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True,
                                                  indent=2) + "\n")
    note = " (uninformative: eta = 0)" if batch[0].uninformative else ""
    print(f"simulate: wrote {n_records} records to {out}{note}")
    return 0


# -- estimate -------------------------------------------------------------------

def _checkpoint_steps(n_steps: int, n_checkpoints: int) -> np.ndarray:
    if n_checkpoints == 1:
        return np.array([n_steps])
    return np.unique(np.linspace(1, n_steps, n_checkpoints).round().astype(int))


def cmd_estimate(args) -> int:
    params, grid, _seed = model.load_config(args.config)
    extras = _read_extras(args.config)
    prior = (float(extras.get("prior_lo", bayes.DEFAULT_PRIOR[0])),
             float(extras.get("prior_hi", bayes.DEFAULT_PRIOR[1])))
    n_grid = int(extras.get("n_grid", bayes.DEFAULT_GRID_POINTS))
    n_checkpoints = int(extras.get("n_checkpoints", 20))
    if n_checkpoints < 1:
        raise ValueError(f"n_checkpoints must be at least 1, got {n_checkpoints}")
    out = _outdir(args)

    recs = [records.load_record(p) for p in args.records]
    for p, rec in zip(args.records, recs):
        same_model = rec.params.replace(B=params.B) == params
        same_grid = (rec.n_steps == grid.n_steps
                     and math.isclose(rec.t_final, grid.t_final, rel_tol=1e-9))
        if not (same_model and same_grid):
            raise ValueError(f"record {p} does not match the config "
                             "(parameters or grid differ)")

    if not recs:
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

    kappa = recs[0].params.kappa
    steps = _checkpoint_steps(grid.n_steps, n_checkpoints)

    final_step = int(steps[-1])

    def pooled(k: int):
        # Intermediate checkpoints may legitimately lean on the prior; only
        # the full-horizon posterior enforces the narrow-prior guard.
        policy = "raise" if k == final_step else "allow"
        post = bayes.posterior(recs, prior, n_grid, upto_step=int(k),
                               boundary=policy)
        return post, bayes.estimate(post)

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            pooled_results = list(pool.map(pooled, steps))
    else:
        pooled_results = [pooled(k) for k in steps]

    summary_rows = []
    heatmap_rows = []
    for k, (post, est) in zip(steps, pooled_results):
        kt = kappa * post.t
        summary_rows.append([kt, est.mean, est.sd, est.sd_crb, est.ratio])
        for bval, dens in zip(post.b_values.tolist(), post.posterior.tolist()):
            heatmap_rows.append([kt, bval, dens])
    _write_csv(out / "estimate_summary.csv",
               [f"pooled posterior over {len(recs)} records; prior {prior}"],
               ("kappa_t", "mean", "sd", "sd_crb", "ratio"), summary_rows)
    _write_csv(out / "posterior_checkpoints.csv",
               [f"pooled posterior density over {len(recs)} records"],
               ("kappa_t", "B", "posterior"), heatmap_rows)

    final_post, _ = pooled_results[-1]
    _write_csv(out / "posterior_final.csv",
               [f"pooled posterior at kappa_t={kappa * final_post.t!r}"],
               ("B", "posterior"),
               list(zip(final_post.b_values.tolist(),
                        final_post.posterior.tolist())))

    times, summaries = bayes.saturation_curve(recs, steps, prior, n_grid)
    ratio_rows = []
    for t, row in zip(times, summaries):
        ratios = [s.ratio for s in row]
        ratio_rows.append([kappa * float(t), float(np.mean(ratios)),
                           float(np.std(ratios)), len(row)])
    _write_csv(out / "ratio_curve.csv",
               ["per-record sd over the information bound, averaged"],
               ("kappa_t", "mean_ratio", "sd_ratio", "n_records"), ratio_rows)

    print(f"estimate: wrote posterior and ratio curves for {len(recs)} "
          f"records to {out}")
    return 0


# -- verify ---------------------------------------------------------------------

def _verify_checks(inject_error: bool):
    """Yield (name, residual, threshold) triples for the oracle suite."""
    kappa = 1.0
    base = model.ModelParams(J=100.0, kappa=kappa, gamma=1.0, eta=1.0, B=0.0)

    # 1-2: closed forms against their integrated flows
    worst_f = worst_q = 0.0
    for eta in (0.1, 0.5, 1.0):
        for J in (10.0, 1e3, 1e6):
            for kt in (0.01, 0.1, 1.0):
                p = base.replace(J=J, eta=eta)
                grid = model.TimeGrid(t_final=kt / kappa, n_steps=400)
                var, s, F = filtering.gaussian_flow(p, grid)
                f_ref = information.fisher_record_closed(p, grid.t_final)
                worst_f = max(worst_f, abs(F[-1] - f_ref) / f_ref)
                q_num = s[-1] ** 2 / var[-1]
                q_ref = information.qfi_conditional(p, grid.t_final)
                worst_q = max(worst_q, abs(q_num - q_ref) / q_ref)
    yield "fisher_record closed vs integrated", worst_f, 1e-6
    yield "qfi_conditional closed vs integrated", worst_q, 1e-6

    # 3: additivity identity
    worst = 0.0
    k2_fudge = 1.0 + 1e-6 if inject_error else 1.0
    for eta in (0.1, 0.5, 1.0):
        for J in (10.0, 1e3, 1e6):
            for kt in (0.01, 0.1, 1.0):
                p = base.replace(J=J, eta=eta)
                rep = information.effective_qfi(p, kt / kappa)
                k_form = rep.K1 * J + eta * (rep.K2 * k2_fudge) * J * J
                worst = max(worst, abs(rep.Q_tilde - k_form) / rep.Q_tilde)
    yield "Q_tilde additivity identity", worst, 1e-10

    # 4: eta = 1 collapse onto the ultimate value
    worst = 0.0
    for J in (10.0, 1e3, 1e6):
        for kt in (0.01, 0.1, 1.0):
            p = base.replace(J=J, eta=1.0)
            rep = information.effective_qfi(p, kt / kappa)
            worst = max(worst, abs(rep.Q_tilde - rep.Q_bar) / rep.Q_bar)
    yield "Q_tilde(eta=1) equals Q_bar", worst, 1e-10

    # 5: ultimate closed vs two-field integration
    worst = 0.0
    for kt in (0.01, 0.1, 1.0):
        p = base.replace(J=1e4)
        got = information.ultimate_qfi_ode(p, kt / kappa)
        ref = information.ultimate_qfi_closed(p, kt / kappa)
        worst = max(worst, abs(got - ref) / ref)
    yield "ultimate closed vs two-field flow", worst, 1e-6

    # 6: spin algebra
    worst = 0.0
    for J in (0.5, 1.0, 5.0, 10.0, 20.0):
        ops = spin.build_spin_operators(J)
        for a, b, c in ((ops.jx, ops.jy, ops.jz), (ops.jy, ops.jz, ops.jx),
                        (ops.jz, ops.jx, ops.jy)):
            res = a @ b - b @ a - 1j * c
            worst = max(worst, float(np.abs(res).max()))
    yield "spin commutator algebra", worst, 1e-10

    # 7: coherent state polarization
    worst = 0.0
    for J in (10.0, 50.0):
        ops = spin.build_spin_operators(J)
        psi = spin.spin_coherent_x(J).amplitudes
        worst = max(worst, abs(float((psi @ ops.jx @ psi).real) - J))
    yield "coherent state <Jx> = J", worst, 1e-9

    # 8: unconditional transverse decay
    p = base.replace(J=10.0)
    grid = model.TimeGrid(t_final=1.0, n_steps=400)
    ops = spin.build_spin_operators(10.0)
    traj = spin.evolve_unconditional(spin.spin_coherent_x(10.0).density(),
                                     p, grid)
    jx_t = np.einsum("kij,ji->k", traj, ops.jx).real
    ref = 10.0 * np.exp(-kappa * grid.times() / 2.0)
    yield "unconditional <Jx> decay law", float(np.abs(jx_t - ref).max()), 1e-9

    # 9: two-field trace preservation on the diagonal
    p = base.replace(J=10.0)
    tr = spin.two_field_trace(p, 0.1 / kappa, 0.003, 0.003, n_steps=500)
    yield "two-field diagonal trace", abs(tr - 1.0), 1e-9

    # 10: finite-spin ultimate value against the closed form
    p = base.replace(J=20.0)
    got = spin.ultimate_qfi_finiteJ(p, 0.1 / kappa, n_steps=1000)
    ref = information.ultimate_qfi_closed(p, 0.1 / kappa)
    yield "finite-spin ultimate information gap (J=20)", abs(got - ref) / ref, 0.10

    # 11: record determinism
    p = base.replace(J=100.0)
    grid = model.TimeGrid(t_final=0.5, n_steps=2000)
    r1 = records.simulate_record(p, grid, seed=77)
    r2 = records.simulate_record(p, grid, seed=77)
    yield "record determinism", float(np.abs(r1.increments -
                                             r2.increments).max()), 0.0

    # 12: posterior normalization and permutation invariance
    batch = records.batch_simulate(p, grid, 6, seed_base=11)
    post = bayes.posterior(batch, (-0.01, 0.01), 201, boundary="allow")
    mass = float(np.dot(post.weights(), post.posterior))
    perm = bayes.posterior(batch[::-1], (-0.01, 0.01), 201, boundary="allow")
    resid = max(abs(mass - 1.0),
                float(np.abs(post.posterior - perm.posterior).max()))
    yield "posterior normalization and permutation invariance", resid, 1e-12


def cmd_verify(args) -> int:
    results = []
    all_ok = True
    for name, residual, threshold in _verify_checks(args.inject_error):
        ok = residual <= threshold
        all_ok &= ok
        results.append({"invariant": name, "residual": float(residual),
                        "threshold": float(threshold),
                        "verdict": "pass" if ok else "FAIL"})
        print(f"{'PASS' if ok else 'FAIL'}  {name}: residual {residual:.3e} "
              f"(threshold {threshold:.1e})")
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
