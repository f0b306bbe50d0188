"""Benchmark entry point.

    python3 perfbench/run.py --workload {crosscheck,inference,finite-spin}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the program is imported from
./src).  Set-up is measured in four probe processes plus the measuring
process; all of them start fresh, with BLAS and OpenMP capped at
min(2, available cores) threads.  Scratch output goes to .perfbench/work
and is deleted at the end; a traced run leaves its spans in
.perfbench/trace.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
PROBES = 4
CHILD_TIMEOUT = 150.0
E2E_UNITS = {"setup_s": "s", "wall_cost": "kernels", "stage_cost": "kernels",
             "rate_per_kernel": "1/kernel", "peak_rss_mb": "MB"}


def _child(args, work: Path, env, probe: bool) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), "--t0", repr(t0)]
    if probe:
        cmd.append("--probe")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("crosscheck", "inference", "finite-spin"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "magmon" / "__init__.py").is_file():
        print("perfbench: run from a checkout that holds src/magmon", file=sys.stderr)
        return 2

    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    env.pop("PYTHONPATH", None)
    work = ROOT / ".perfbench" / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = [_child(args, work, env, probe=True)["setup_s"] for _ in range(PROBES)]
        res = _child(args, work, env, probe=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(res["setup_s"])

    rounds = res["rounds"]

    def median_s(part):
        return statistics.median(r["seconds"][part] for r in rounds)

    units_per_s = (sum(r["units"] for r in rounds)
                   / sum(r["seconds"]["units"] for r in rounds))
    # Time figures are in kernels: seconds over the median time of the
    # reference kernel (workloads.kernel_s) run around every timed call.
    # The seconds are printed on the summary line.
    kernel = res["kernel_s"]
    e2e = {"setup_s": statistics.median(setups),
           "wall_cost": median_s("wall") / kernel,
           "stage_cost": median_s("stage") / kernel,
           "rate_per_kernel": units_per_s * kernel,
           "peak_rss_mb": res["peak_rss_mb"]}
    for note in res["notes"]:
        print(f"perfbench: {note}", file=sys.stderr)
    faults = [f for r in rounds for f in r["faults"]]
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds; "
          f"{res['stage_name']}={median_s('stage'):.4f} {res['rate_name']}="
          f"{units_per_s:.2f} wall_s={median_s('wall'):.4f} kernel_s={kernel:.5f}; "
          + " ".join(f"{k}={v:.5g}" for k, v in e2e.items())
          + f"; setup samples {[round(s, 4) for s in setups]}; "
          f"named-fault operations: {len(faults)}")
    print("  seconds per round: " + " ".join(
        f"{p} {[round(r['seconds'][p], 4) for r in rounds]}" for p in ("wall", "stage", "units")))
    for f in faults[:len(faults) // max(len(rounds), 1)]:
        print(f"  fault: {f}")

    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
