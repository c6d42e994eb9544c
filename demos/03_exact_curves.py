"""Exact record-probability curves against a quick Monte Carlo check.

p_record(n, d) comes from one positive-term recurrence,
p(n, d) = mean_records(n, d - 1) / n, from n = 1: a table up to
PREFIX_LIMIT and a single integral beyond. mean_records accumulates it.
The Monte Carlo check counts records with the simulation engine (run_trial)
and is only here to make the agreement visible; the package's own tests pin
these values far more tightly.
"""

import numpy as np

from paretorecords import ExperimentConfig, mean_records, p_record, run_trial

d = 2
print(f"d = {d}")
print(f"{'n':>8s} {'p_record':>12s} {'mean_records':>14s}")
for n in (2, 10, 100, 1000, 10**4, 10**5, 10**6):
    print(f"{n:8d} {p_record(n, d):12.6g} {mean_records(n, d):14.6f}")

trials, n = 400, 1000
cfg = ExperimentConfig(d=d, n_max=n, trials=trials, master_seed=11, checkpoints=(n,))
counts = np.array([run_trial(cfg, t)[-1].m for t in range(trials)], dtype=float)

exact = mean_records(n, d)
se = counts.std(ddof=1) / np.sqrt(trials)
print(f"\nMC mean records at n={n} over {trials} trials: "
      f"{counts.mean():.3f} +- {se:.3f}")
print(f"exact value: {exact:.3f}  (|diff| = {abs(counts.mean() - exact):.3f})")
