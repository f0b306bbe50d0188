"""One workload in one fresh Python process; started by run.py.

    worker.py --workload NAME --seed N --seconds S --trace 0|1
              --work DIR --t0 MONOTONIC [--probe]

--t0 is the parent's time.monotonic() just before it started this process
(the clock is system-wide on Linux), so setup_s covers interpreter start,
``import magmon`` and writing the workload's configs.  With --probe the
worker stops there.  Otherwise it computes the references, then runs whole
rounds of the workload until the timed calls add up to --seconds, checking
each round's outputs after its timed calls.  The last stdout line is one
JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import magmon.cli  # noqa: F401  (the import is part of set-up)
    from workloads import FAULT, OK, WORKLOADS

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](work, args.seed)
    wl.setup()
    setup_s = time.monotonic() - args.t0
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl.prepare()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.active = False

    rounds, timed, correct, notes = [], 0.0, True, []
    # Whole rounds until --seconds of timed calls; a round that would end
    # well past that is not started.
    while not rounds or (timed < args.seconds
                         and timed + rounds[-1].seconds["wall"] <= 1.2 * args.seconds):
        if tracer:
            tracer.round, tracer.active = len(rounds), True
        rnd = wl.run_round(len(rounds))
        if tracer:
            tracer.active = False
        timed += rnd.seconds["wall"]
        try:
            wl.check(rnd)
        except Exception:   # a malformed output must not hide as a crash
            correct = False
            notes.append(traceback.format_exc())
        rounds.append(rnd)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ops = [o for r in rounds for o in r.ops]
    wrong = [o for o in ops if o not in (OK, FAULT)]
    correct = correct and not wrong and len({len(r.ops) for r in rounds}) == 1
    for r in rounds:
        notes.extend(r.notes)
    result = {
        "setup_s": setup_s,
        "rounds": [{"seconds": r.seconds, "units": r.units, "faults": r.faults}
                   for r in rounds],
        "kernel_s": statistics.median(k for r in rounds for k in r.kernel_samples),
        "attempted": len(ops),
        "failed": len(ops) - ops.count(OK),
        "correct": correct,
        "notes": notes[:50],
        "peak_rss_mb": peak_rss_mb,
        "stage_name": wl.stage_name,
        "rate_name": wl.rate_name,
    }
    if tracer:
        from tracer import per_layer_metrics
        tracer.uninstall()
        result["per_layer"] = per_layer_metrics(tracer, len(rounds))
        tracer.dump(str(work.parent.parent / "trace"
                        / f"{args.workload}-seed{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
