"""Frontier extremes of a simulated record set, plus an SVG picture.

F+ is the largest coordinate sum among current records. F- is the smallest
total budget a set of axis-aligned caps needs in order to touch every
current record: assign each record to one dimension, pay the per-dimension
maximum, minimize over assignments. The two dashed diagonals in the SVG
mark those two sums; the record staircase sits between them.
"""

import subprocess
import sys

from paretorecords import ExperimentConfig, f_plus, trajectory

# the simulation engine, run to one checkpoint at n = 10^4: the same book as
# feeding the 10^4 observations to RecordBook.observe one at a time
cfg = ExperimentConfig(d=2, n_max=10_000, master_seed=7, checkpoints=(10_000,))
(_, book, corners), = trajectory(cfg, trial=0)

fm, fp = corners.value, f_plus(book)
print(f"after n={book.n}: r={book.r} current records")
print(f"F- = {fm:.6f}")
print(f"F+ = {fp:.6f}")
print(f"width = {fp - fm:.6f}")
print(f"per-dimension maxima: {book.dim_max}")
print(f"three largest sums seen: {tuple(book.top_sums[:3].tolist())}")

print(f"\ncheapest covering point: {corners.witness()} (sum {corners.value:.6f})")

# same picture the CLI draws; drop it next to this script
out = "frontier_demo.svg"
subprocess.run(
    [sys.executable, "-m", "paretorecords.cli", "render",
     "--n", "10000", "--seed", "7", "--out", out],
    check=True)
print(f"staircase drawing written to {out}")
