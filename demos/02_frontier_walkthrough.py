"""Frontier extremes of a simulated record set, plus an SVG picture.

F+ is the largest coordinate sum among current records. F- is the smallest
total budget a set of axis-aligned caps needs in order to touch every
current record: assign each record to one dimension, pay the per-dimension
maximum, minimize over assignments. The two dashed diagonals in the SVG
mark those two sums; the record staircase sits between them.
"""

import subprocess
import sys

import numpy as np

from paretorecords import ObservationStream, RecordBook, f_minus, f_plus
from paretorecords.frontier import RegionCorners

book = RecordBook(d=2)
stream = ObservationStream(master_seed=7, trial=0, dim=2)
for row in stream.take(10_000):
    book.observe(row)

fm, fp = f_minus(book), f_plus(book)
print(f"after n={book.n}: r={book.r} current records")
print(f"F- = {fm:.6f}")
print(f"F+ = {fp:.6f}")
print(f"width = {fp - fm:.6f}")
print(f"per-dimension maxima: {book.dim_max}")
print(f"three largest sums seen: {tuple(book.top_sums[:3].tolist())}")

corners = RegionCorners.of(book)
print(f"\ncheapest covering point: {corners.witness()} (sum {corners.value:.6f})")

# same picture the CLI draws; drop it next to this script
out = "frontier_demo.svg"
subprocess.run(
    [sys.executable, "-m", "paretorecords.cli", "render",
     "--n", "10000", "--seed", "7", "--out", out],
    check=True)
print(f"staircase drawing written to {out}")
