"""Reproducible trials, ensembles, and the statistical comparisons.

A trial feeds ``n_max`` observations through a RecordBook.  ``trajectory``
is the engine: it yields the live book and region corners at each point of
the observation clock (fixed n grid) and, optionally, of the records-time
clock (one state per record epoch).  ``_simulate`` (behind ``run_trial``)
turns those states into checkpoint rows; ``render --n`` and the frontier
demo take the final book from the same engine.  Trials are addressed by
(master_seed, trial) through counter-based streams, so every row is a pure
function of the config: ensembles can run across any number of workers and
still produce byte-identical output files.  The CSV columns, writer, reader
and aggregated columns all follow ``CheckpointRow``'s fields in order; each
file is renamed into place once complete, and ``summary.json`` comes last.
The rows writer formats each line with one %-format string built from that
schema (17 significant digits per float, ``csv``'s CRLF line ends); a trial's
rows share most of their top sums, so it makes one text per distinct bit
pattern of the top sums of a run of whole trials and joins the stored
texts.  The aggregate writer takes each (column, key) pair as a lane of
finite values and reduces all lanes of one length together, along the last
axis of one contiguous array, which gives bitwise the values of reducing
each lane alone.

The engine filters each block of observations before touching the book.
Stage 1 runs on the stream's raw Philox words, before any float: words,
then a gate, then a product test, then the map.  The block's floor is the
smaller of the smallest frontier sum (minus a safety margin much larger
than any rounding error) and the smallest kept top sum (no floor while the
top sums are still filling).  In exact arithmetic a point's coordinate sum
is at least ``T`` when and only when ``prod_j (1 - u_j) <= exp(-T)``, and
that needs some ``u_j >= 1 - exp(-T/d)``: so the word gate
(``_word_bound``) keeps a row only when some used word is at least ``K <<
11``, an integer test on the words, and ``_word_bound`` proves that it
passes every row the product test keeps.  Only the rows it passes are
turned into uniforms (``rng._uniform``), and one product per row
(``_uniform_survivors``, whose proof shows that no point whose computed
sum reaches the floor is dropped; every ``1 - u_j`` is exact) keeps the
points whose sum can reach the floor.  Where there is no floor, and where
the gate may pass more than a ``_WORD_GATE_PASS`` share of the rows, the
block is read as uniforms whole and goes straight to the product test.  Only
survivors are mapped to coordinates and summed; the maps are elementwise
and the sums are row-wise, so they get bitwise the values a full-block
transform gives.  Of them,
points whose sum is below the smallest frontier sum minus the margin are
strictly dominated, because the smallest frontier sum only grows.  Stage 2
drops points some block-start record strictly dominates; domination
survives record replacement, since a record's killer dominates everything
the record dominated.  One comparison of every pair of the rest, the
candidates (``_first_dominators``), flags them: a candidate is a record iff
no earlier candidate strictly dominates it.  An earlier point that does
lies in the block, since every point before the block is a block-start
record or dominated by one, and stage 2 tested those; and it is a
candidate: its computed sum is at least the candidate's (float addition is
monotone), so the sum filter kept it, and a block-start record dominating
it would dominate the candidate too.  The block then reaches the book in
segments, one ``RecordBook._extend`` step each.  A segment ends at each
stop, a point where a state follows: each record on the records clock,
each grid point inside the block, and the block's end.  A grid point is a
stop like a record, counted by its position in the block (the records,
candidates and stage-1 survivors at or before it), so the grid never
splits a block; where a record and a grid point share an ``n``, the
record's state comes first.  A step takes the segment's observation
count, its surviving sums (which hold every sum that can enter the top
sums), the epochs of its records and those of them that no later
candidate of the segment beats, which are the records still current at
its end; the per-coordinate maxima are read off the records, which hold
them.  Blocks hold at most three times as many observations as were seen
before them (at least 64), so they end at 64 * 4**k until they reach
``_CHUNK``, whatever the grid: each block costs one corner step, so few
blocks pay, while the filters still work against recent records early on,
when records are frequent.
Net effect: identical books and rows at any ``_CHUNK``, with the
exponential map and the sums paid only by the few points that can
matter, and most words never converted.

The smallest frontier sum comes from the corners of the record-setting
region (``frontier.RegionCorners``), where a new record replaces only the
corners it strictly dominates.  Each segment adds its records still current
at its end, in one batch step: a record killed later defines no live
corner, so the corner set and its smallest sum are those of adding every
record one at a time.  Within a step, each corner dies at the first of the
segment's records that strictly dominates it, and the corners the step
makes follow the old ones, ordered by the record that made them.
"""

from __future__ import annotations

import csv
import json
import math
import os
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from itertools import groupby, islice
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .analytics import (
    fplus_centering,
    gumbel_cdf,
    normal_cdf,
    records_time_fplus_centering,
)
from .frontier import RegionCorners, f_plus
from .records import RecordBook, _as_int, _as_real, _first_beaters, _shown, coord_sums
from .rng import ObservationStream, _exponential, _uniform

__all__ = [
    "ExperimentConfig",
    "CheckpointRow",
    "EnsembleResult",
    "LilReport",
    "trajectory",
    "run_trial",
    "run_ensemble",
    "ks_statistic",
    "strip_coverage",
    "lil_diagnostics",
    "load_rows",
    "geometric_grid",
]

_CHUNK = 1 << 16
_FIRST_BLOCK = 64  # blocks start this small and grow fourfold up to _CHUNK
_SUM_FILTER_MARGIN = 1e-9  # dwarfs rounding error in any realistic sum
_UNIFORM_FILTER_LIMIT = 700.0  # exp(-700) is a normal double; see _uniform_survivors
# The word gate pays on blocks it thins to at most a _WORD_GATE_PASS share;
# above that, mapping what it passes outweighs the conversions it saves
# (BENCH_word_gate.json, pass_sweep).  Under about 1500 rows its fixed cost
# exceeds its saving, by at most some 10 us a block, but a floor that high
# seldom meets a block that small (BENCH_engine_inputs.json, per_block).
_WORD_GATE_PASS = 0.05
_MAX_GRID_STEPS = 10**5  # far more checkpoints than any grid needs
# the rows writer keys a run of whole trials' top sums at once; a run closes
# at this many cells, where np.unique alone takes about 30 us, as long as
# the fixed cost of a block (the block, the call and its text table)
_ROWS_BLOCK_CELLS = 1024


def geometric_grid(n_max: int, ratio: float = 1.2) -> tuple:
    """Log-spaced checkpoint grid from 10 to n_max (always includes n_max).

    The grid multiplies by ``ratio`` about ln(n_max/10)/ln(ratio) times, so a
    ratio too close to 1 for that to stay under ``_MAX_GRID_STEPS`` is refused
    before the loop starts (at 1 + 2**-52 and n_max = 100 it would be 10**16).
    A ratio so large that the product overflows to inf ends the grid there:
    ``geometric_grid(100, 1e308)`` is ``(10, 100)``.
    """
    n_max = _as_int(n_max, "n_max", 1)
    ratio = _as_real(ratio, "checkpoint_ratio")
    if ratio <= 1.0:
        raise ValueError(f"checkpoint_ratio must be a finite real exceeding 1, got {ratio!r}")
    if math.log(max(n_max, 10) / 10) > _MAX_GRID_STEPS * math.log(ratio):
        raise ValueError(
            f"checkpoint_ratio {ratio!r} is too close to 1: the grid to "
            f"n_max={n_max} would take more than {_MAX_GRID_STEPS} steps"
        )
    grid = []
    x = 10.0
    while math.isfinite(x) and round(x) < n_max:
        v = int(round(x))
        if not grid or v > grid[-1]:
            grid.append(v)
        x *= ratio
    grid.append(n_max)
    return tuple(v for v in grid if v <= n_max)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one ensemble; everything downstream derives from it."""

    d: int
    n_max: int
    trials: int = 1
    master_seed: int = 0
    checkpoints: tuple | None = None  # explicit grid; None = geometric
    checkpoint_ratio: float = 1.2
    top_m: int = 64
    records_time: bool = False
    strip_check: bool = False

    def __post_init__(self):
        for name in ("d", "n_max", "trials", "top_m"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name, 1))
        object.__setattr__(self, "master_seed",
                           _as_int(self.master_seed, "master_seed", 0, 2**64 - 1))
        for name in ("records_time", "strip_check"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {_shown(getattr(self, name))}")
        # a bad ratio fails here, not when the grid is first used
        geometric_grid(self.n_max, self.checkpoint_ratio)
        object.__setattr__(self, "checkpoint_ratio", float(self.checkpoint_ratio))
        if self.checkpoints is not None:
            pts = sorted(set(_as_int(c, "checkpoints", 1, self.n_max) for c in self.checkpoints))
            if not pts:
                raise ValueError("empty checkpoint grid")
            object.__setattr__(self, "checkpoints", tuple(pts))

    @property
    def grid(self) -> tuple:
        if self.checkpoints is not None:
            return self.checkpoints
        return geometric_grid(self.n_max, self.checkpoint_ratio)


@dataclass(frozen=True)
class CheckpointRow:
    """One emitted trajectory state, on either clock."""

    trial: int
    clock: str  # "obs" or "rec"
    n: int
    m: int  # records set so far
    r: int  # current records
    beta: int
    f_minus: float
    f_plus: float
    width: float
    dim_max_min: float
    bhat: tuple
    norm_fplus: float
    norm_width: float
    norm_r: float
    strip_cov: float = math.nan


def _make_row(cfg: ExperimentConfig, trial: int, clock: str, book: RecordBook, fmin: float) -> CheckpointRow:
    fp = f_plus(book)
    width = fp - fmin
    n, m, d = book.n, book.R, cfg.d
    norm_fplus = norm_width = norm_r = math.nan
    if n >= 3:
        log_n = math.log(n)
        loglog_n = math.log(log_n)
        norm_r = book.r * d * loglog_n / log_n
        if clock == "obs":
            norm_fplus = fp - fplus_centering(n, d)
            norm_width = width / loglog_n
    if clock == "rec" and m >= 2:
        norm_width = width / math.log(m)
        if d >= 3:
            norm_fplus = fp - records_time_fplus_centering(m, d)
    strip = strip_coverage(book) if cfg.strip_check and d >= 2 and n >= 16 else math.nan
    return CheckpointRow(
        trial=trial,
        clock=clock,
        n=n,
        m=m,
        r=book.r,
        beta=book.beta,
        f_minus=fmin,
        f_plus=fp,
        width=width,
        dim_max_min=float(book.dim_max.min()),
        bhat=tuple(book.top_sums.tolist()) + (math.nan,) * (cfg.top_m - book.top_sums.size),
        norm_fplus=norm_fplus,
        norm_width=norm_width,
        norm_r=norm_r,
        strip_cov=strip,
    )


def _uniform_survivors(u: np.ndarray, floor: float) -> np.ndarray:
    """Indices of the rows of ``u`` whose coordinate sum can reach ``floor``.

    ``u`` is a ``(k, d)`` block of stream uniforms, each a multiple of
    2**-53 in [0, 1).  A row is kept when its product ``q = (1 - u_1)...(1
    - u_d)``, multiplied column by column, is at most ``exp(slack - floor)``
    with ``slack = (d + 2) * 2**-44 * (1 + |floor|)``.  Every row is kept
    when ``floor`` is -inf or at least ``_UNIFORM_FILTER_LIMIT``.

    No row whose computed sum ``s`` (``coord_sums`` of ``_exponential``) is
    at least ``floor`` is dropped.  Take every rounding, in ``log1p``,
    ``exp``, a sum, a product or a difference, to be within ``eta = 2**-48``
    relative (libm's are within a few ulp, 2**-52 each; the basic
    operations are correctly rounded, within 2**-53).  For ``floor <= 0``
    the threshold is ``exp`` of a positive number, so at least 1, and ``q``
    is at most 1, every factor being so.  For ``0 < floor < 700``, let
    ``A = sum_j -ln(1 - u_j)`` be the exact sum and ``P = exp(-A)`` the exact
    product; each ``1 - u_j`` is exact.  The computed coordinates are within
    ``eta`` of the exact ones and nonnegative, and summing ``d`` of them
    adds at most ``d - 1`` roundings, so ``s <= A (1 + eta)**d``, and
    ``s >= floor`` gives ``A >= floor (1 - d eta)``.  While the running
    product stays normal, ``q <= P (1 + 2**-53)**(d - 1)``, so ``ln q <=
    -floor + d eta floor + d 2**-53``.  The threshold is at least
    ``exp(slack - floor) (1 - eta)`` after the rounding of ``slack -
    floor`` (within ``2**-53 (1 + floor)``), so its log is at least
    ``-floor + slack - 2**-53 (1 + floor) - 2 eta``.  The first bound is below the second
    when ``slack >= (d + 2) eta (1 + floor)``, which the slack exceeds
    sixteen times over.  If the running product falls below the smallest
    normal, 2**-1022, rounding is monotone and every factor is at most 1,
    so ``q <= 2**-1022 < exp(-700) (1 - eta)``, and the row is kept.  The
    slack is below 5e-10 for ``d <= 10`` and any floor under the limit, so
    it keeps almost nothing the exact test would not.

    Above the limit ``exp`` of ``-floor`` nears the subnormal range, where
    relative error bounds fail; no sum comes near it on this clock (a
    stream coordinate is at most ``53 ln 2 < 37``), but the guard keeps the
    test exact anyway.
    """
    k, d = u.shape
    if not -math.inf < floor < _UNIFORM_FILTER_LIMIT:
        return np.arange(k)
    q = 1.0 - u[:, 0]
    for j in range(1, d):
        q *= 1.0 - u[:, j]
    slack = (d + 2) * 2.0**-44 * (1.0 + abs(floor))
    return np.nonzero(q <= math.exp(slack - floor))[0]


def _word_bound(floor: float, d: int) -> int:
    """The word gate's bound ``K << 11`` for ``floor`` in ``d`` dimensions,
    or 0 where the gate would keep every row.

    A row of stream words passes the gate when some used word is at least
    ``K << 11``, that is when some uniform ``u_j = (w_j >> 11) 2**-53`` is
    at least ``K 2**-53``.  ``K = 2**53 - G`` with ``G = ceil(2**53 exp(-b))``
    and ``b = (floor - 2 slack) / d``, all computed in floats, where
    ``slack`` is ``_uniform_survivors``' slack: ``K`` is ``(1 - t**(1/d))
    2**53``, rounded down, for the twice-slackened threshold ``t = exp(2
    slack - floor)``.  There is no bound (0 is returned) unless ``0 <
    floor < _UNIFORM_FILTER_LIMIT`` and ``K > 0``.

    No row that ``_uniform_survivors`` keeps fails the gate.  Use the
    rounding bound ``eta = 2**-48`` and the notation of that proof, with
    ``s`` the computed slack, at least ``16 (d + 2) eta (1 + floor) (1 -
    eta)``.  A row fails the gate when every ``u_j <= (K - 1) 2**-53``, so
    every (exact) factor ``1 - u_j`` exceeds ``1 - K 2**-53 = G 2**-53 >=
    exp(-b_c) (1 - eta)``, ``b_c`` being the computed ``b``.  The computed
    product of ``d`` factors, each at least ``m``, is at least ``m**d (1 -
    2**-53)**(d - 1)`` while the running product stays normal (each
    product is rounded to nearest), so the row's ``ln q`` exceeds ``-d b_c
    - 1.01 d eta - d 2**-52``.  The two roundings in ``b_c`` give ``d b_c
    <= floor - 2 s + floor 2**-51``, so ``ln q > -floor + 2 s - floor
    2**-51 - (1.01 d + d/16) eta``.  The threshold rounds ``exp`` of the
    rounded ``s - floor``, so its log is at most ``s - floor + 2**-53 (1 +
    floor) + 2 eta``.  The first bound is above the second when ``s >=
    (1 + floor) (1.1 d + 2.3) eta``, which ``s`` exceeds more than
    fourteen times over, so ``q`` exceeds the threshold and the row is
    dropped there too.  Every prefix of the product has the same lower
    bound or a larger one, and the threshold exceeds ``exp(-701) >
    2**-1022``, so the running product does stay normal: no row the gate
    drops has an underflowed product.  Where ``floor <= 2 slack``, ``b_c <=
    0`` and ``K <= 0``, so there is no gate.
    """
    if not 0.0 < floor < _UNIFORM_FILTER_LIMIT:
        return 0
    slack = (d + 2) * 2.0**-44 * (1.0 + floor)
    b = (floor - 2.0 * slack) / d
    k = (1 << 53) - math.ceil(math.ldexp(math.exp(-b), 53))
    return k << 11 if k > 0 else 0


def _word_survivors(words: np.ndarray, bound: int) -> np.ndarray:
    """Indices of the rows of ``words`` whose largest used word is at least
    ``bound`` (``_word_bound``)."""
    top = words[:, 0]
    for j in range(1, words.shape[1]):
        top = np.maximum(top, words[:, j])
    return np.flatnonzero(top >= np.uint64(bound))


def _stage1(stream: ObservationStream, take: int, floor: float) -> tuple:
    """Read the next ``take`` observations of ``stream`` and return the
    block indices of the rows whose sum can reach ``floor``, and their
    uniforms: the word gate, then ``_uniform_survivors`` on the rows it
    passes, or on the whole block where the gate does not pay."""
    bound = _word_bound(floor, stream.dim)
    # a row passes the gate with probability at most dim * (1 - bound / 2**64)
    if stream.dim * (2.0**64 - bound) > _WORD_GATE_PASS * 2.0**64:
        u = stream.take_uniforms(take)
        kept = _uniform_survivors(u, floor)
        return kept, u[kept]
    words = stream.take_words(take)
    gated = _word_survivors(words, bound)
    u = _uniform(words[gated])
    kept = _uniform_survivors(u, floor)
    return gated[kept], u[kept]


def _first_dominators(pts: np.ndarray) -> list:
    """For each row k of the (c, d) array ``pts``, the index of the first
    row that strictly dominates it, or c if none does, compared in bounded
    blocks (``records._first_beaters``)."""
    c = len(pts)
    if c < 2:  # one row beats none
        return [c] * c
    return _first_beaters(pts, pts).tolist()


def trajectory(cfg: ExperimentConfig, trial: int):
    """Run one trial through the filtered engine, yielding its states.

    Yields ``(clock, book, corners)``: ``("rec", ...)`` after each record
    when ``cfg.records_time`` is set, and ``("obs", ...)`` at each point of
    ``cfg.grid``, in order of ``n``; where a record and a grid point share
    an ``n``, the ``"rec"`` state comes first.  A grid point is a stop
    inside an engine block, like a record, so blocks follow the stream's
    fourfold schedule whatever the grid.  ``book`` is the trial's
    RecordBook and ``corners`` its RegionCorners (``corners.value`` is F-).
    Both are live: the generator
    advances them in place when it resumes, so read or copy what you need
    before asking for the next state.  At any ``_CHUNK``, each book is
    identical to a plain book fed the trial's stream one point at a time,
    and ``corners`` holds the corners of that book's records, with a
    bitwise-equal ``value``.  Their order depends on how the records were
    added: a segment adds its records still current at its end, as one
    batch (the module docstring, and ``RegionCorners`` for the order in a
    batch), so it can differ from adding every record as it is set: in
    ``corners.points`` and ``corners.sums``, and in ``witness()`` when two
    corners tie for the smallest sum.  Once the generator is
    exhausted, the book stands at ``cfg.n_max`` observations when
    ``cfg.records_time`` is set and at the last grid point otherwise, since
    no state comes after that point.  Like any generator, it checks
    ``trial`` only when first advanced.
    """
    trial = _as_int(trial, "trial", 0)
    stream = ObservationStream(cfg.master_seed, trial, cfg.d)
    book = RecordBook(cfg.d, top_capacity=cfg.top_m)
    grid = cfg.grid
    corners = RegionCorners(cfg.d)
    end = cfg.n_max if cfg.records_time else grid[-1]
    pos = 0
    while pos < end:
        take = min(_CHUNK, end - pos, max(3 * pos, _FIRST_BLOCK))
        fmin = corners.value - _SUM_FILTER_MARGIN
        top = book.top_sums
        floor = min(fmin, top[-1] if top.size == cfg.top_m else -math.inf)
        kept, u = _stage1(stream, take, floor)
        pts = _exponential(u)
        sums = coord_sums(pts)
        cand = np.nonzero(sums >= fmin)[0]
        if cand.size:
            cand = cand[~book.dominated_by_current(pts[cand])]
        cpts = pts.take(cand, axis=0)
        first = _first_dominators(cpts)
        at, cand = kept.take(cand).tolist(), cand.tolist()
        recs = [k for k, f in enumerate(first) if f > k]  # no earlier candidate beats them
        epochs = [pos + at[k] + 1 for k in recs]
        # One book step per segment, which ends after each record on the
        # records clock, at each grid point and at the block's end; each
        # stop counts, from the block's start, the segment's records,
        # candidates, stage-1 survivors and observations, and names the
        # state that follows it
        stops = [(j + 1, k + 1, cand[k] + 1, at[k] + 1, "rec")
                 for j, k in enumerate(recs)] if cfg.records_time else []
        # the block's grid points, as counts of its observations
        marks = [g - pos for g in grid[bisect_right(grid, pos):bisect_right(grid, pos + take)]]
        stops += [(bisect_right(epochs, pos + o), bisect_left(at, o), hi, o, "obs")
                  for o, hi in zip(marks, kept.searchsorted(marks).tolist())]
        stops.sort(key=itemgetter(3))  # stable: at a shared n the record's state first
        stops.append((len(recs), len(cand), sums.size, take, None))
        a = prev = done = 0
        for b, stop, hi, upto, clock in stops:
            # the segment's records that no later candidate of it beats: current at its end
            current = cpts.take([k for k in recs[a:b] if first[k] >= stop], axis=0)
            book._extend(upto - done, sums[prev:hi], current, epochs[a:b])
            corners._add_rows(current)
            if clock:
                yield clock, book, corners
            a, prev, done = b, hi, upto
        pos += take


def _simulate(cfg: ExperimentConfig, trial: int) -> list:
    # trajectory has checked trial before the first row, so int() only
    # turns a numpy integer into the plain int the rows hold
    return [_make_row(cfg, int(trial), clock, book, corners.value)
            for clock, book, corners in trajectory(cfg, trial)]


def run_trial(cfg: ExperimentConfig, trial: int) -> list:
    """All checkpoint rows of one trial; deterministic in (cfg, trial)."""
    return _simulate(cfg, trial)


# -- serialization -------------------------------------------------------------

# The rows CSV holds CheckpointRow's fields, (name, type) here, in order: bhat
# spans bhat_1..bhat_K, and strip_cov is a column only with the strip check.
_TYPES = get_type_hints(CheckpointRow)
_CSV_FIELDS = {strip: tuple((f.name, _TYPES[f.name]) for f in fields(CheckpointRow)
                            if f.name != "strip_cov" or strip) for strip in (False, True)}
# "%.17g" % x is format(float(x), ".17g"), which re-parses bit-identically,
# for every float including nan, inf and -0.0
_CELL = {int: "%d", str: "%s", float: "%.17g"}
_EOL = "\r\n"  # the line terminator of the csv module's writer


def _header(top_m: int, strip_check: bool) -> list:
    cols = []
    for name, kind in _CSV_FIELDS[strip_check]:
        cols += [f"bhat_{k}" for k in range(1, top_m + 1)] if kind is tuple else [name]
    return cols


# A row's line, in schema order: its %-format, with one %s for the joined bhat
# texts, and the getters of the fields before bhat, of bhat and of those after
# it.  No cell needs quoting: the clock is "obs" or "rec", and every other
# cell is a number.
def _row_parts(strip_check: bool) -> tuple:
    schema = _CSV_FIELDS[strip_check]
    cut = next(i for i, (_, kind) in enumerate(schema) if kind is tuple)
    head, tail = schema[:cut], schema[cut + 1:]
    return (",".join(_CELL[kind] for _, kind in head) + ",%s,"
            + ",".join(_CELL[kind] for _, kind in tail) + _EOL,
            attrgetter(*(name for name, _ in head)), attrgetter(schema[cut][0]),
            attrgetter(*(name for name, _ in tail)))


_ROW_PARTS = {strip: _row_parts(strip) for strip in (False, True)}


@contextmanager
def _atomic_open(path: Path):
    """A file beside ``path`` that replaces it once the block completes."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_rows(path: Path, rows: list, cfg: ExperimentConfig) -> None:
    """Write the rows CSV.  A trial's rows are contiguous and share most of
    their top sums, and share none with another trial's.  So the bhat cells
    of a run of whole trials are taken as one (rows, top_m) float block,
    each distinct bit pattern in it is formatted once, and each row joins
    the stored texts.  A run closes once it holds ``_ROWS_BLOCK_CELLS``
    cells: short trials share one ``np.unique`` call and its fixed cost,
    and a long trial keeps a block of its own.  Bit patterns keep 0.0 and
    -0.0 apart and merge equal NaNs."""
    fmt, head, bhat, tail = _ROW_PARTS[cfg.strip_check]
    runs = [[]]
    for _, trial_rows in groupby(rows, attrgetter("trial")):
        if len(runs[-1]) * cfg.top_m >= _ROWS_BLOCK_CELLS:
            runs.append([])
        runs[-1] += trial_rows
    with _atomic_open(path) as fh:
        fh.write(",".join(_header(cfg.top_m, cfg.strip_check)) + _EOL)
        for run in filter(None, runs):
            block = np.array(list(map(bhat, run)), dtype=np.float64)
            bits, index = np.unique(block.view(np.uint64), return_inverse=True)
            text = list(map("%.17g".__mod__, bits.view(np.float64).tolist())).__getitem__
            fh.writelines(fmt % (*head(row), ",".join(map(text, at)), *tail(row))
                          for row, at in zip(run, index.reshape(block.shape).tolist()))


# aggregated: every number a row holds but its trial index, n and the bhat tuple
_AGG_COLS = [name for name, kind in _CSV_FIELDS[True] if kind in (int, float)
             and name not in ("trial", "n")]
# each statistic reduces a (lanes x values) array of finite values along its
# last axis, one result per lane; the writer gives NaN for all but the
# count when there are no values, and sd needs two
_AGG_STATS = {
    "mean": lambda x: np.mean(x, axis=-1),
    "sd": lambda x: x.std(ddof=1, axis=-1) if x.shape[-1] > 1 else math.nan,
    "median": lambda x: np.median(x, axis=-1),
    "q10": lambda x: np.quantile(x, 0.10, axis=-1),
    "q90": lambda x: np.quantile(x, 0.90, axis=-1),
    "min": lambda x: np.min(x, axis=-1),
    "max": lambda x: np.max(x, axis=-1),
    "count": lambda x: x.shape[-1],
}


def _write_aggregates(path: Path, rows: list, key_attr: str) -> None:
    """One output row per (key value, statistic), keys ascending; each
    column is reduced over its finite values in the key's rows, in trial
    order.

    Each (column, key) pair is a lane.  The lanes of one length, of every
    key, are stacked into one contiguous (lanes x length) array and reduced
    together along its last axis: numpy then sums each lane in the order it
    uses on that lane alone, so every cell is bitwise the per-column value."""
    keys = np.array([getattr(r, key_attr) for r in rows], dtype=np.int64)
    agg_values = attrgetter(*_AGG_COLS)
    table = np.array([agg_values(r) for r in rows],
                     dtype=np.float64).reshape(len(rows), len(_AGG_COLS))
    order = np.argsort(keys, kind="stable")
    uniq, key_index = np.unique(keys[order], return_inverse=True)
    # the cells column by column, each column's by key, then in trial order,
    # so lane c * len(uniq) + k, column c over key k's rows, is one run
    values = table[order].T.ravel()
    lanes = (np.arange(len(_AGG_COLS))[:, None] * len(uniq) + key_index).ravel()
    finite = np.isfinite(values)
    values, lanes = values[finite], lanes[finite]
    length = np.bincount(lanes, minlength=len(_AGG_COLS) * len(uniq))
    start = np.cumsum(length) - length
    cells = np.empty((len(_AGG_STATS), length.size))
    line = "%d,%s" + ",%.17g" * len(_AGG_COLS) + _EOL
    with _atomic_open(path) as fh:
        fh.write(",".join([key_attr, "statistic"] + _AGG_COLS) + _EOL)
        for size in np.unique(length).tolist():
            members = np.flatnonzero(length == size)
            x = values[start[members, None] + np.arange(size)]
            for s, (stat, reduce) in enumerate(_AGG_STATS.items()):
                cells[s, members] = reduce(x) if size or stat == "count" else math.nan
        per_key = cells.reshape(len(_AGG_STATS), len(_AGG_COLS), len(uniq)).transpose(2, 0, 1)
        fh.writelines(line % (key, stat, *stat_cells)
                      for key, key_cells in zip(uniq.tolist(), per_key.tolist())
                      for stat, stat_cells in zip(_AGG_STATS, key_cells))


def load_rows(path) -> list:
    """Read a rows CSV back into CheckpointRow objects (17g round-trips).

    Raises ``ValueError`` naming the file if it is empty, if its header is
    not the schema's with at least one bhat column, or if a row does not
    parse, has the wrong length or a clock other than "obs" or "rec".
    """
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        strip_check = header[-1:] == ["strip_cov"]
        schema = _CSV_FIELDS[strip_check]
        top_m = len(header) - len(schema) + 1
        if top_m < 1 or header != _header(top_m, strip_check):
            raise ValueError(f"rows file {path} is empty or lacks the CheckpointRow header")
        for rec in reader:
            try:
                if len(rec) != len(header):
                    raise ValueError(f"{len(rec)} fields, expected {len(header)}")
                cells = iter(rec)
                values = [tuple(map(float, islice(cells, top_m))) if kind is tuple
                          else kind(next(cells)) for _, kind in schema]
                row = CheckpointRow(*values)
                if row.clock not in ("obs", "rec"):
                    raise ValueError(f"clock {row.clock!r} is neither obs nor rec")
            except ValueError as exc:
                raise ValueError(f"rows file {path}, line {reader.line_num}: {exc}") from None
            out.append(row)
    return out


@dataclass(frozen=True)
class EnsembleResult:
    """In-memory handle on a finished ensemble plus its on-disk artifacts."""

    config: ExperimentConfig
    out_dir: Path
    obs_rows: list
    rec_rows: list
    files: dict
    summary: dict


def run_ensemble(cfg: ExperimentConfig, out_dir, threads: int = 1) -> EnsembleResult:
    """Run all trials, write row and aggregate CSVs plus a summary JSON.

    ``threads`` caps the worker count (processes under the hood): at most
    one worker per trial starts, and a single worker runs in this process.
    Any value yields byte-identical outputs because trials are reduced in
    trial order and each trial's randomness is addressed, not shared.

    A directory holding ``summary.json`` holds one complete run: the summary
    is removed first and written last, each file is renamed into place once
    complete, and outputs this config does not write are removed.
    """
    out = Path(out_dir)
    threads = _as_int(threads, "threads", 1)
    try:
        out.mkdir(exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc

    trials = range(cfg.trials)
    workers = min(threads, cfg.trials)
    if workers == 1:
        per_trial = [run_trial(cfg, t) for t in trials]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays for it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, cfg.trials // (workers * 8))
            per_trial = list(pool.map(run_trial, [cfg] * cfg.trials, trials, chunksize=chunksize))

    rows = {clock: [row for trial_rows in per_trial for row in trial_rows if row.clock == clock]
            for clock in ("obs", "rec")}
    summary_path = out / "summary.json"
    summary_path.unlink(missing_ok=True)
    files = {}
    for clock, key in (("obs", "n"), ("rec", "m")):
        paths = {f"{kind}_{clock}": out / f"{kind}_{clock}.csv" for kind in ("rows", "aggregate")}
        if clock == "rec" and not cfg.records_time:
            for path in paths.values():
                path.unlink(missing_ok=True)  # an earlier run's records-time files
            continue
        _write_rows(paths[f"rows_{clock}"], rows[clock], cfg)
        _write_aggregates(paths[f"aggregate_{clock}"], rows[clock], key)
        files.update((name, str(path)) for name, path in paths.items())

    summary = {
        "config": asdict(cfg),
        "grid": list(cfg.grid),
        "rows_obs": len(rows["obs"]),
        "rows_rec": len(rows["rec"]),
        "files": {key: Path(p).name for key, p in files.items()},
    }
    with _atomic_open(summary_path) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files["summary"] = str(summary_path)
    return EnsembleResult(cfg, out, rows["obs"], rows["rec"], files, summary)


# -- statistics ------------------------------------------------------------------

_CDF_TAGS = {
    "uniform": lambda x: np.clip(x, 0.0, 1.0),
    "exponential": lambda x: -np.expm1(-np.maximum(x, 0.0)),
    "gumbel": gumbel_cdf,
    "normal": normal_cdf,
}


def ks_statistic(samples, cdf) -> float:
    """Two-sided Kolmogorov-Smirnov distance to a reference distribution.

    ``cdf`` is a tag ("uniform", "exponential", "gumbel", "normal") or any
    vectorizable CDF callable, evaluated at the samples as given; to compare
    against a shifted or scaled law, standardize the samples first.
    """
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    if xs.size == 0:
        raise ValueError("ks_statistic needs at least one sample")
    if not np.all(np.isfinite(xs)):
        raise ValueError("samples must be finite")
    if callable(cdf):
        ref = cdf
    else:
        try:
            ref = _CDF_TAGS[cdf]
        except KeyError:
            raise ValueError(f"unknown reference distribution {cdf!r}") from None
    fvals = np.asarray(ref(xs), dtype=np.float64)
    n = xs.size
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(hi - fvals), np.max(fvals - lo)))


def strip_coverage(book: RecordBook) -> float:
    """Fraction of current records whose sum lies in the thin log strip
    [ln n - ln ln ln n - ln(4(d-1)), ln n + 4(d-1) ln ln n]."""
    if book.d < 2:
        raise ValueError("strip coverage requires d >= 2")
    if book.n < 16:
        raise ValueError("strip coverage requires n >= 16")
    log_n = math.log(book.n)
    lo = log_n - math.log(math.log(log_n)) - math.log(4 * (book.d - 1))
    hi = log_n + 4 * (book.d - 1) * math.log(log_n)
    sums = book.record_sums
    return float(np.count_nonzero((sums >= lo) & (sums <= hi)) / sums.size)


# -- logged diagnostics ------------------------------------------------------------

@dataclass(frozen=True)
class LilReport:
    """Dyadic-window extremes of the boundary ratios; inspection output only.

    Almost-sure and infinitely-often boundary statements cannot be falsified
    from finitely many trajectories, so nothing here is pass/fail.
    """

    obs_windows: list = field(default_factory=list)
    rec_windows: list = field(default_factory=list)

    def to_text(self) -> str:
        lines = []
        if self.obs_windows:
            lines.append(
                "obs windows: n-range, count, fplus_dev[min,max,run_max], "
                "fminus_dev[min,max,run_min]  (dev = (F - ln n)/ln ln n)"
            )
            for w in self.obs_windows:
                lines.append(
                    "  [{lo}, {hi}) k={count}  f+ [{fplus_min:+.4f}, {fplus_max:+.4f}, "
                    "run {run_fplus_max:+.4f}]  f- [{fminus_min:+.4f}, {fminus_max:+.4f}, "
                    "run {run_fminus_min:+.4f}]".format(**w)
                )
        if self.rec_windows:
            lines.append("rec windows: m-range, count, width/ln m [min,max,run_max]")
            for w in self.rec_windows:
                lines.append(
                    "  [{lo}, {hi}) k={count}  [{ratio_min:.4f}, {ratio_max:.4f}, "
                    "run {run_ratio_max:.4f}]".format(**w)
                )
        return "\n".join(lines) if lines else "(empty trajectory: no report)"


def _dyadic_windows(rows, clock: str, size: str, least: int, series: dict) -> list:
    """Windows of the ``clock`` rows whose ``size`` field (n or m) is at
    least ``least``, by that field; ``series`` maps each name to its value
    on a row and its running extreme (``max`` or ``min``).  Each window
    holds the least and greatest value of each series and its extreme over
    this and every earlier window."""
    # window k holds [2**k, 2**(k+1)); bit_length is exact where log2 rounds
    picked = sorted((r for r in rows if r.clock == clock and getattr(r, size) >= least),
                    key=attrgetter(size))
    windows, run = [], {}
    for k, group in groupby(picked, key=lambda r: getattr(r, size).bit_length() - 1):
        group = list(group)
        window = {"lo": 2**k, "hi": 2 ** (k + 1), "count": len(group)}
        for name, (value, extreme) in series.items():
            vals = [value(r) for r in group]
            run[name] = extreme(run.get(name, vals[0]), *vals)
            window.update({f"{name}_min": min(vals), f"{name}_max": max(vals),
                           f"run_{name}_{extreme.__name__}": run[name]})
        windows.append(window)
    return windows


def lil_diagnostics(rows) -> LilReport:
    """Boundary-law diagnostics over dyadic windows of a trajectory."""
    def dev(r, f):  # (F - ln n) / ln ln n
        return (f - math.log(r.n)) / math.log(math.log(r.n))

    return LilReport(
        obs_windows=_dyadic_windows(rows, "obs", "n", 3, {
            "fplus": (lambda r: dev(r, r.f_plus), max),
            "fminus": (lambda r: dev(r, r.f_minus), min)}),
        rec_windows=_dyadic_windows(rows, "rec", "m", 2, {
            "ratio": (lambda r: r.width / math.log(r.m), max)}),
    )
