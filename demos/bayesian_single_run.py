"""Simulate photocurrent records and recover the field from their posterior.

A complete inference pass at J = 1e4:
  1. draw a batch of records at a nonzero true field,
  2. pool them into a posterior and compare the estimate with the truth,
  3. track the single-record posterior spread against the Cramér–Rao bound
     along the record (it should saturate once kappa*t is order one).
"""

import numpy as np

from magmon import (ModelParams, TimeGrid, batch_simulate, estimate,
                    fisher_record_closed, posterior, saturation_curve)

B_TRUE = 2e-3
N_RECORDS = 12
SEED = 42

params = ModelParams(J=1e4, kappa=1.0, gamma=1.0, eta=1.0, B=B_TRUE)
grid = TimeGrid(t_final=1.0, n_steps=40000)
prior = (-0.01, 0.01)


def main():
    records = batch_simulate(params, grid, N_RECORDS, seed_base=SEED)
    post = posterior(records, prior)
    summ = estimate(post)
    pull = (summ.mean - B_TRUE) / summ.sd
    print(f"true field      : {B_TRUE:+.4e}")
    print(f"posterior mean  : {summ.mean:+.4e}  (pull {pull:+.2f} sigma)")
    print(f"posterior sd    : {summ.sd:.3e}")
    print(f"CRB sd          : {summ.sd_crb:.3e}  "
          f"(n = {N_RECORDS}, F = {fisher_record_closed(params, 1.0):.3e})")
    print(f"sd / CRB        : {summ.ratio:.4f}")
    print()

    steps = np.linspace(0.1, 1.0, 10)
    checkpoints = (steps * grid.n_steps).astype(int)
    times, summaries = saturation_curve(records, checkpoints, prior)
    print("single-record saturation (averaged over the batch):")
    print(f"{'kappa*t':>8} {'mean sd/CRB':>12}")
    for t, row in zip(times, summaries):
        ratios = [s.ratio for s in row]
        print(f"{t:>8.2f} {np.mean(ratios):>12.4f}")


if __name__ == "__main__":
    main()
