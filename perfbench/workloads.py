"""The three benchmark workloads.

Each workload has four steps, called by worker.py:

* ``setup()``: write the workload's configs (counted in setup_s);
* ``prepare()``: reference computations (excluded from every metric);
* ``run_round(i)``: the timed calls into the program, returning a Round with
  their seconds;
* ``check(rnd)``: check the outputs of that round and append one outcome per
  operation to ``rnd.ops``.

An outcome is "ok", "fault" (the named posterior-grid fault, see
Inference) or "wrong" (any other failed check; the run is then incorrect).
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

OK, FAULT, WRONG = "ok", "fault", "wrong"
PARTS = ("wall", "stage", "units")
_KERNEL_DATA = np.random.default_rng(0).random(100_000)


def kernel_s() -> float:
    """Seconds taken by one fixed numpy computation.  Timed figures are
    reported in multiples of its median over the run, which cancels most of
    the host's drift in speed (see README); it must never change."""
    start = time.perf_counter()
    for _ in range(16):
        b = np.exp(-_KERNEL_DATA) * _KERNEL_DATA
        np.cumsum(b)
        np.sort(b)
    return time.perf_counter() - start


@dataclass
class Round:
    """One round's timed calls: seconds per part ("wall" = every call,
    "stage" and "units" as in the README), and reference-kernel times
    measured just before and just after each call."""

    seconds: dict = field(default_factory=lambda: dict.fromkeys(PARTS, 0.0))
    kernel_samples: list = field(default_factory=list)
    units: float = 0.0           # work units of the rate metric
    ops: list = field(default_factory=list)
    faults: list = field(default_factory=list)   # what each FAULT op saw
    notes: list = field(default_factory=list)    # what each WRONG op saw
    extra: dict = field(default_factory=dict)

    def call(self, part, fn, *args, **kwargs):
        """Time one call into the program as part "stage" or "units"."""
        self.kernel_samples.append(kernel_s())
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - start
        self.kernel_samples.append(kernel_s())
        for p in ("wall", part):
            self.seconds[p] += dt
        return out


def _read_csv(path: Path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    return path


def _ref():
    # Imported on first use: scipy.integrate and scipy.sparse are the
    # benchmark's own imports and must not count in setup_s.
    import reference
    return reference


def _rel(a, b):
    return np.abs(np.asarray(a) / np.asarray(b) - 1.0)


# -- crosscheck -----------------------------------------------------------------

class Crosscheck:
    """`magmon verify` plus two identical `magmon info-sweep` runs over a
    seed-drawn grid of 16 J x 60 kappa*t x 6 eta = 5760 points."""

    name = "crosscheck"
    stage_name, rate_name = "verify_s", "sweep_points_per_s"

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self):
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 1]))
        self.j_values = np.sort(10.0 ** rng.uniform(1.0, 6.0, 16)).tolist()
        self.kt_values = np.sort(10.0 ** rng.uniform(-2.0, 0.0, 60)).tolist()
        self.eta_values = np.sort(rng.uniform(0.05, 1.0, 5)).tolist() + [1.0]
        self.n_points = 16 * 60 * 6
        self.config = self.work / "sweep.json"
        self.config.write_text(json.dumps({
            "kappa": 1.0, "gamma": 1.0, "J_values": self.j_values,
            "kappa_t_values": self.kt_values, "eta_values": self.eta_values}))

    def prepare(self):
        ref = _ref()
        self.f_ref, self.q_ref, self.qbar_ref = {}, {}, {}
        for J in self.j_values:
            self.qbar_ref[J] = dict(zip(self.kt_values,
                                        ref.ultimate_flow(J, self.kt_values)))
            for eta in self.eta_values:
                F, Q = ref.gaussian_flows(J, eta, self.kt_values)
                self.f_ref[J, eta] = dict(zip(self.kt_values, F))
                self.q_ref[J, eta] = dict(zip(self.kt_values, Q))

    def run_round(self, i):
        from magmon import cli
        rnd = Round(units=2 * self.n_points)
        out = _fresh(self.work / "round")
        rnd.extra["verify_rc"] = rnd.call("stage", cli.main,
                                          ["verify", "--out", str(out / "verify")])
        for tag in ("a", "b"):
            rnd.extra[f"sweep_rc_{tag}"] = rnd.call(
                "units", cli.main, ["info-sweep", "--config", str(self.config),
                                    "--out", str(out / f"sweep_{tag}")])
        return rnd

    def check(self, rnd):
        out = self.work / "round"
        # verify: one operation per invariant of the report
        try:
            report = json.loads((out / "verify" / "verify_report.json").read_text())
            checks = report["checks"]
        except (OSError, ValueError, KeyError) as err:
            rnd.notes.append(f"verify report unreadable: {err}")
            checks = []
        if len(checks) != 12:
            rnd.notes.append(f"verify reported {len(checks)} checks, expected 12")
        for c in checks[:12]:
            good = (rnd.extra["verify_rc"] == 0 and c["verdict"] == "pass"
                    and c["residual"] <= c["threshold"])
            if not good:
                rnd.notes.append(f"verify: {c}")
            rnd.ops.append(OK if good else WRONG)
        rnd.ops.extend([WRONG] * (12 - min(len(checks), 12)))

        # info-sweep: one operation per row, one for byte-identical reruns
        cols, rows = _read_csv(out / "sweep_a" / "info_sweep.csv")
        good_rows = 0
        if rnd.extra["sweep_rc_a"] == 0 and rows:
            a = dict(zip(cols, np.array(rows).T))
            keys = list(zip(a["J"], a["eta"], a["kappa_t"]))
            # A point outside the requested grid gets NaN references and fails.
            seen = len(set(keys)) == self.n_points
            f_ref = np.array([self.f_ref.get((J, e), {}).get(kt, math.nan)
                              for J, e, kt in keys])
            q_ref = np.array([self.q_ref.get((J, e), {}).get(kt, math.nan)
                              for J, e, kt in keys])
            qb_ref = np.array([self.qbar_ref.get(J, {}).get(kt, math.nan)
                               for J, _, kt in keys])
            J, eta = a["J"], a["eta"]
            ok = ((_rel(a["F_record"], f_ref) <= 1e-6)
                  & (_rel(a["Q_cond"], q_ref) <= 1e-6)
                  & (_rel(a["Q_tilde"], f_ref + q_ref) <= 1e-6)
                  & (_rel(a["Q_bar"], qb_ref) <= 1e-6)
                  & (_rel(a["K1"] * J + eta * a["K2"] * J * J, a["Q_tilde"]) <= 1e-10)
                  & ((eta != 1.0) | (_rel(a["Q_tilde"], a["Q_bar"]) <= 1e-10))
                  & (a["gamma_over_kappa"] == 1.0))
            good_rows = int(ok.sum()) if seen else 0
            rnd.extra["sweep_worst_rel"] = float(max(
                _rel(a["F_record"], f_ref).max(), _rel(a["Q_cond"], q_ref).max(),
                _rel(a["Q_bar"], qb_ref).max()))
        if good_rows != self.n_points:
            rnd.notes.append(f"info-sweep: {self.n_points - good_rows} rows wrong "
                             f"of {self.n_points} ({len(rows)} written)")
        rnd.ops.extend([OK] * good_rows + [WRONG] * (self.n_points - good_rows))
        same = ((out / "sweep_a" / "info_sweep.csv").read_bytes()
                == (out / "sweep_b" / "info_sweep.csv").read_bytes())
        if not same:
            rnd.notes.append("info-sweep reruns differ")
        rnd.ops.append(OK if same else WRONG)


# -- inference ------------------------------------------------------------------

B_TRUE = 2e-3
FAULT_SEED = 7


class Inference:
    """`magmon simulate` then `magmon estimate` (default grid, 20 checkpoints)
    on two batches at J = 1e4, kappa t = 1, 40000 steps, B = 2e-3:

    * batch "seeded": 30 records drawn from the benchmark seed.  Its pooled
      posterior stays wider than 0.8 grid cells, so every check holds on
      every seed.
    * batch "fixed": 300 records at magmon seed 7, whatever the benchmark
      seed.  Its late pooled posteriors are narrower than one grid cell,
      where the grid-quadrature sd is wrong: those checkpoints fail every run
      (outcome "fault").  The inputs are fixed so that the count is the same
      on every seed.
    """

    name = "inference"
    stage_name, rate_name = "estimate_s", "simulate_records_per_s"
    TOL_SD = 1e-2        # pooled sd against 1/sqrt(R F)
    TOL_RATIO = 5e-3     # per-record mean sd/sd_CRB against 1

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self):
        base = {"J": 1e4, "kappa": 1.0, "gamma": 1.0, "eta": 1.0, "B": B_TRUE,
                "t_final": 1.0, "n_steps": 40000, "n_checkpoints": 20}
        seeded = int(np.random.SeedSequence([self.seed, 2]).generate_state(1)[0])
        self.batches = []
        for tag, seed, n in (("seeded", seeded, 30), ("fixed", FAULT_SEED, 300)):
            cfg = self.work / f"{tag}.json"
            cfg.write_text(json.dumps(dict(base, seed=seed, n_records=n)))
            self.batches.append((tag, cfg, seed, n))

    def prepare(self):
        pass   # the reference flows run at the checkpoint times in check()

    def run_round(self, i):
        from magmon import cli
        rnd = Round(units=sum(b[3] for b in self.batches))
        out = _fresh(self.work / "round")
        for tag, cfg, seed, n in self.batches:
            rec_dir, est_dir = out / f"{tag}_records", out / f"{tag}_estimate"
            rnd.extra[f"{tag}_simulate_rc"] = rnd.call(
                "units", cli.main, ["simulate", "--config", str(cfg),
                                    "--out", str(rec_dir), "--seed", str(seed)])
            files = sorted(str(p) for p in rec_dir.glob("*.npz"))
            rnd.extra[f"{tag}_estimate_rc"] = rnd.call(
                "stage", cli.main, ["estimate", "--config", str(cfg),
                                    "--out", str(est_dir)] + files)
        return rnd

    def check(self, rnd):
        for tag, cfg, seed, n in self.batches:
            self._check_records(rnd, tag, cfg, seed, n)
            self._check_estimate(rnd, tag, n)

    def _check_records(self, rnd, tag, cfg, seed, n):
        """One operation per record: the file round-trips bit-exactly and the
        same seed reproduces it."""
        from magmon import records
        from magmon.model import load_config
        params, grid, _ = load_config(cfg)
        rec_dir = self.work / "round" / f"{tag}_records"
        ok_sim = rnd.extra[f"{tag}_simulate_rc"] == 0
        try:
            manifest = json.loads((rec_dir / "manifest.json").read_text())
            names = manifest["files"]
        except (OSError, ValueError, KeyError):
            names = []
        for k in range(n):
            name = f"record_s{seed}_k{k:04d}.npz"
            good = ok_sim and k < len(names) and names[k] == name
            if good:
                path = rec_dir / name
                with np.load(path, allow_pickle=False) as z:
                    raw = z["increments"].copy()
                    raw_key = tuple(int(x) for x in z["spawn_key"])
                loaded = records.load_record(path)
                again = records.simulate_record(
                    params, grid, seed,
                    _seedseq=np.random.SeedSequence(entropy=seed, spawn_key=(k,)),
                    _spawn_key=(k,))
                good = (raw.tobytes() == again.increments.tobytes()
                        == loaded.increments.tobytes()
                        and raw_key == (k,) and loaded.spawn_key == (k,)
                        and loaded.params == params and loaded.seed == seed
                        and loaded.n_steps == grid.n_steps
                        and loaded.dt == grid.dt)
            if not good:
                rnd.notes.append(f"{tag}: record {k} does not round-trip/reproduce")
            rnd.ops.append(OK if good else WRONG)

    def _check_estimate(self, rnd, tag, n):
        """One operation per row of estimate_summary.csv and of
        ratio_curve.csv (20 each)."""
        est_dir = self.work / "round" / f"{tag}_estimate"
        expected = 20
        if rnd.extra[f"{tag}_estimate_rc"] != 0:
            rnd.notes.append(f"{tag}: estimate exited {rnd.extra[f'{tag}_estimate_rc']}")
            rnd.ops.extend([WRONG] * (2 * expected))
            return
        _, summary = _read_csv(est_dir / "estimate_summary.csv")
        _, ratio = _read_csv(est_dir / "ratio_curve.csv")
        _, final = _read_csv(est_dir / "posterior_final.csv")
        grid_b = np.array([r[0] for r in final])
        lo, hi = float(grid_b[0]), float(grid_b[-1])
        cell = float(grid_b[1] - grid_b[0])
        # sd of the flat prior on the trapezoid grid: a posterior truncated
        # by the prior is never wider (log-concave on an interval)
        w = np.full(len(grid_b), cell)
        w[[0, -1]] *= 0.5
        prior_sd = math.sqrt(np.dot(w, (grid_b - np.dot(w, grid_b) / w.sum()) ** 2)
                             / w.sum())
        kts = np.array([r[0] for r in summary])
        F, _ = _ref().gaussian_flows(1e4, 1.0, kts)
        sigma_pool = 1.0 / np.sqrt(n * F)
        sigma_one = 1.0 / np.sqrt(F)
        for i, (kt, mean, sd, sd_crb, _) in enumerate(summary[:expected]):
            s = sigma_pool[i]
            good = lo <= mean <= hi and abs(sd_crb / s - 1.0) <= 1e-6
            sd_good = True
            if abs(B_TRUE) + 10.0 * s <= min(-lo, hi):     # prior does not truncate
                sd_good = abs(sd / s - 1.0) <= self.TOL_SD
                if i == len(summary) - 1:
                    good &= kt == 1.0 and abs(mean - B_TRUE) <= 4.0 * s
            else:                                          # truncation only narrows
                good &= 0.0 < sd <= prior_sd * (1.0 + 1e-9)
            if good and not sd_good and tag == "fixed" and s < cell:
                rnd.ops.append(FAULT)
                rnd.faults.append(f"kt={kt:.4g}: sd/sd_exact={sd / s:.4f} "
                                  f"(posterior {s / cell:.2f} cells wide)")
            else:
                if not (good and sd_good):
                    rnd.notes.append(f"{tag}: summary row kt={kt!r} mean={mean!r} "
                                     f"sd={sd!r} expected sd {s!r}")
                rnd.ops.append(OK if good and sd_good else WRONG)
        rnd.ops.extend([WRONG] * (expected - min(len(summary), expected)))

        for i, (kt, mean_ratio, _, n_rec) in enumerate(ratio[:expected]):
            s = sigma_one[i] if i < len(kts) and kts[i] == kt else math.nan
            good = n_rec == n and mean_ratio > 0.0
            if abs(B_TRUE) + 10.0 * s <= min(-lo, hi):
                good &= abs(mean_ratio - 1.0) <= self.TOL_RATIO
            else:
                good &= mean_ratio <= 1.0 + self.TOL_RATIO and not math.isnan(s)
            if not good:
                rnd.notes.append(f"{tag}: ratio row kt={kt!r} mean_ratio={mean_ratio!r}")
            rnd.ops.append(OK if good else WRONG)
        rnd.ops.extend([WRONG] * (expected - min(len(ratio), expected)))


# -- finite-spin ----------------------------------------------------------------

ULT_J = (2.0, 5.0, 10.0, 20.0)
ULT_KT = 0.1


class FiniteSpin:
    """Library-level finite-spin Monte Carlo and the two-field trace:
    tau_information (J = 10, eta = 0.5, 300 steps, 100 trajectories, with
    Q_cond), fisher_tau (J = 20, 200 steps, 200 trajectories),
    average_conditional (J = 10, 200 steps, 100 trajectories), all at
    kappa t = 0.2, and ultimate_qfi_finiteJ at kappa t = 0.1 for J in
    {2, 5, 10, 20}.  Monte-Carlo seeds come from the benchmark seed and the
    round number."""

    name = "finite-spin"
    stage_name, rate_name = "ultimate_finiteJ_s", "mc_trajectories_per_s"
    N_TAU, N_FISHER, N_AVG = 100, 200, 100

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def setup(self):
        from magmon.model import ModelParams, TimeGrid
        p = lambda J, eta=1.0: ModelParams(J=J, kappa=1.0, gamma=1.0, eta=eta, B=0.0)
        self.tau_args = (p(10.0, 0.5), TimeGrid(t_final=0.2, n_steps=300), self.N_TAU)
        self.fisher_args = (p(20.0), TimeGrid(t_final=0.2, n_steps=200), self.N_FISHER)
        self.avg_args = (p(10.0), TimeGrid(t_final=0.2, n_steps=200), self.N_AVG)
        self.ult_params = [p(J) for J in ULT_J]

    def prepare(self):
        ref = _ref()
        self.q_ult = [ref.two_field_qfi(J, ULT_KT) for J in ULT_J]
        self.q_gauss = [ref.ultimate_flow(J, [ULT_KT])[0] for J in ULT_J]
        self.qbar_j10 = ref.two_field_qfi(10.0, 0.2)
        self.f_gauss_j20 = ref.gaussian_flows(20.0, 1.0, [0.2])[0][0]
        self.rho_avg = ref.dephased_state(10.0, 0.2)

    def run_round(self, i):
        from magmon import spin
        rnd = Round(units=self.N_TAU + self.N_FISHER + self.N_AVG)
        s1, s2, s3 = (int(x) for x in
                      np.random.SeedSequence([self.seed, 3, i]).generate_state(3))
        rnd.extra["tau"] = rnd.call("units", spin.tau_information, *self.tau_args,
                                    s1, want_qfi=True)
        rnd.extra["fisher"] = rnd.call("units", spin.fisher_tau, *self.fisher_args, s2)
        rnd.extra["avg"] = rnd.call("units", spin.average_conditional, *self.avg_args, s3)
        rnd.extra["ult"] = rnd.call("stage", lambda: [
            spin.ultimate_qfi_finiteJ(p, ULT_KT) for p in self.ult_params])
        return rnd

    def check(self, rnd):
        info = rnd.extra["tau"]
        total = info.fisher + info.qfi_cond
        sigma = info.fisher_stderr + info.qfi_cond_stderr
        good = (info.fisher > 0 and info.qfi_cond > 0
                and total <= self.qbar_j10 + 3.0 * sigma)
        self._op(rnd, good, f"F_tau + E[Q_cond] = {total:.5g} +- {sigma:.2g} vs "
                            f"Q_bar(J=10) = {self.qbar_j10:.5g}")

        f, err = rnd.extra["fisher"]
        dev = abs(f / self.f_gauss_j20 - 1.0)
        good = dev <= 0.15 + 3.0 * err / self.f_gauss_j20
        self._op(rnd, good, f"fisher_tau(J=20)/F_gauss = {f / self.f_gauss_j20:.4f} "
                            f"+- {err / self.f_gauss_j20:.4f}")

        rho = rnd.extra["avg"]
        worst = float(np.abs(rho - self.rho_avg).max())
        # Entries of a conditional state lie in [-1, 1]; Hoeffding puts the
        # chance that any of the d^2 means strays by 6/sqrt(N) below 1e-5.
        self._op(rnd, worst <= 6.0 / math.sqrt(self.N_AVG),
                 f"average_conditional max deviation {worst:.3g}")

        ult = rnd.extra["ult"]
        gaps = [abs(q / g - 1.0) for q, g in zip(ult, self.q_gauss)]
        for k, (q, q_ref) in enumerate(zip(ult, self.q_ult)):
            good = abs(q / q_ref - 1.0) <= 1e-6
            if k == len(ult) - 1:
                good &= all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] <= 0.10
            self._op(rnd, good, f"ultimate_qfi_finiteJ(J={ULT_J[k]:g}) = {q!r}, "
                                f"reference {q_ref!r}, gaps {gaps}")

    @staticmethod
    def _op(rnd, good, detail):
        if not good:
            rnd.notes.append(detail)
        rnd.ops.append(OK if good else WRONG)


WORKLOADS = {w.name: w for w in (Crosscheck, Inference, FiniteSpin)}
