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
schema (17 significant digits per float, ``csv``'s CRLF line ends), and the
aggregate writer reduces the columns of a group that are finite in the same
trials together, along the last axis of one contiguous array, which gives
bitwise the values of reducing each column alone.

The engine filters each block of observations before touching the book.
Stage 1 runs on the uniforms, before the exponential map: in exact
arithmetic a point's coordinate sum is at least ``T`` when and only when
``prod_j (1 - u_j) <= exp(-T)``, and every ``1 - u_j`` is exact, so one
product per point keeps the points whose sum can reach the block's floor:
the smaller of the smallest frontier sum (minus a safety margin much larger
than any rounding error) and the smallest kept top sum (no floor while the
top sums are still filling).  ``_uniform_survivors`` proves that no point whose computed
sum reaches the floor is dropped.  Only survivors are mapped to
coordinates and summed; the map is elementwise and the sums are row-wise,
so they get bitwise the values a full-block transform gives.  Of them,
points whose sum is below the smallest frontier sum minus the margin are
strictly dominated, because the smallest frontier sum only grows.  Stage 2
drops points some block-start record strictly dominates; domination
survives record replacement, since a record's killer dominates everything
the record dominated.  The rest go through the exact sequential path one
by one, and the skipped runs are absorbed in bulk (their count and their
surviving sums, which hold every sum that can enter the top sums; the
per-coordinate maxima are read off the records, which hold them).  Blocks
hold at most as many observations as were seen before them (at least 64),
so they double up to the chunk size and the filters work against recent
records early on, when records are frequent.  Net effect: identical books
and rows at any block size, with the exponential map and the sums paid
only by the few points that can matter.

The smallest frontier sum comes from the corners of the record-setting
region (``frontier.RegionCorners``), which each trial updates record by
record: a new record replaces only the corners it strictly dominates.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from itertools import groupby, islice
from operator import attrgetter
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
from .records import RecordBook, _as_int, _as_real, coord_sums
from .rng import ObservationStream, _exponential

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
_FIRST_BLOCK = 64  # blocks start this small and double up to the chunk size
_SUM_FILTER_MARGIN = 1e-9  # dwarfs rounding error in any realistic sum
_UNIFORM_FILTER_LIMIT = 700.0  # exp(-700) is a normal double; see _uniform_survivors
_MAX_GRID_STEPS = 10**5  # far more checkpoints than any grid needs


def geometric_grid(n_max: int, ratio: float = 1.2) -> tuple:
    """Log-spaced checkpoint grid from 10 to n_max (always includes n_max).

    The grid multiplies by ``ratio`` about ln(n_max/10)/ln(ratio) times, so a
    ratio too close to 1 for that to stay under ``_MAX_GRID_STEPS`` is refused
    before the loop starts (at 1 + 2**-52 and n_max = 100 it would be 10**16).
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
    while round(x) < n_max:
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
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
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


def _uniform_survivors(u: np.ndarray, floor: float, buf: np.ndarray) -> np.ndarray:
    """Indices of the rows of ``u`` whose coordinate sum can reach ``floor``.

    ``u`` is a ``(k, d)`` block of stream uniforms, each a multiple of
    2**-53 in [0, 1), and ``buf`` a ``(2, >= k)`` buffer.  A row is kept
    when its product ``q = (1 - u_1)...(1 - u_d)``, multiplied column by
    column, is at most ``exp(slack - floor)`` with ``slack = (d + 2) *
    2**-44 * (1 + |floor|)``.  Every row is kept when ``floor`` is -inf or
    at least ``_UNIFORM_FILTER_LIMIT``.

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
    q, w = buf[0, :k], buf[1, :k]
    np.subtract(1.0, u[:, 0], out=q)
    for j in range(1, d):
        np.multiply(q, np.subtract(1.0, u[:, j], out=w), out=q)
    slack = (d + 2) * 2.0**-44 * (1.0 + abs(floor))
    return np.nonzero(q <= math.exp(slack - floor))[0]


def trajectory(cfg: ExperimentConfig, trial: int, chunk: int = _CHUNK):
    """Run one trial through the filtered engine, yielding its states.

    Yields ``(clock, book, corners)``: ``("rec", ...)`` after each record
    when ``cfg.records_time`` is set, and ``("obs", ...)`` at each point of
    ``cfg.grid``.  ``book`` is the trial's RecordBook and ``corners`` its
    RegionCorners (``corners.value`` is F-).  Both are live: the generator
    advances them in place when it resumes, so read or copy what you need
    before asking for the next state.  The states are identical to feeding
    the trial's stream to a plain book one point at a time, at any ``chunk``.
    Like any generator, it checks ``trial`` only when first advanced.
    """
    trial = _as_int(trial, "trial", 0)
    stream = ObservationStream(cfg.master_seed, trial, cfg.d)
    book = RecordBook(cfg.d, top_capacity=cfg.top_m)
    grid = cfg.grid
    corners = RegionCorners(cfg.d)
    # stage-1 products, reused by every block: past the first 64 observations
    # a block holds at most as many as were seen before it, so at most n_max/2
    buf = np.empty((2, min(chunk, cfg.n_max, max(cfg.n_max // 2, _FIRST_BLOCK))))
    gi = 0
    pos = 0
    while pos < cfg.n_max:
        target = grid[gi] if gi < len(grid) else cfg.n_max
        take = min(chunk, target - pos, max(pos, _FIRST_BLOCK))
        u = stream.take_uniforms(take)
        fmin = corners.value - _SUM_FILTER_MARGIN
        top = book.top_sums
        floor = min(fmin, top[-1] if top.size == cfg.top_m else -math.inf)
        kept = _uniform_survivors(u, floor, buf)
        pts = _exponential(u[kept])
        sums = coord_sums(pts)
        cand = np.nonzero(sums >= fmin)[0]
        if cand.size:
            cand = cand[~book.dominated_by_current(pts[cand])]
        prev = done = 0  # survivors and observations of the block absorbed
        for i, at in zip(cand.tolist(), kept[cand].tolist()):
            if at > done:
                book.absorb_nonrecords(at - done, sums[prev:i])
            out = book._observe_raw(pts[i], float(sums[i]))
            if out.is_record:
                corners._add_raw(pts[i])
                if cfg.records_time:
                    yield "rec", book, corners
            prev, done = i + 1, at + 1
        if done < take:
            book.absorb_nonrecords(take - done, sums[prev:])
        pos += take
        if gi < len(grid) and pos == grid[gi]:
            yield "obs", book, corners
            gi += 1


def _simulate(cfg: ExperimentConfig, trial: int, chunk: int = _CHUNK) -> list:
    # trajectory has checked trial before the first row, so int() only
    # turns a numpy integer into the plain int the rows hold
    return [_make_row(cfg, int(trial), clock, book, corners.value)
            for clock, book, corners in trajectory(cfg, trial, chunk)]


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


def _line_formatter(top_m: int, strip_check: bool):
    """The function giving a row's CSV line: one %-format over its fields,
    the bhat tuple spread over top_m cells.  No cell needs quoting: the
    clock is "obs" or "rec", and every other cell is a number."""
    schema = _CSV_FIELDS[strip_check]
    fmt = ",".join(",".join(["%.17g"] * top_m) if kind is tuple else _CELL[kind]
                   for _, kind in schema) + _EOL
    names = [name for name, _ in schema]
    cut = next(i for i, (_, kind) in enumerate(schema) if kind is tuple)
    head, tail = attrgetter(*names[:cut]), attrgetter(*names[cut + 1:])
    return lambda row: fmt % (*head(row), *getattr(row, names[cut]), *tail(row))


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
    line = _line_formatter(cfg.top_m, cfg.strip_check)
    with _atomic_open(path) as fh:
        fh.write(",".join(_header(cfg.top_m, cfg.strip_check)) + _EOL)
        fh.writelines(line(row) for row in rows)


# aggregated: every number a row holds but its trial index, n and the bhat tuple
_AGG_COLS = [name for name, kind in _CSV_FIELDS[True] if kind in (int, float)
             and name not in ("trial", "n")]
# each statistic reduces a (columns x values) array of finite values along its
# last axis, one result per column; the writer gives NaN for all but the
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
    """One output row per (key value, statistic), keys ascending; each group
    is reduced in trial order.

    The columns of a key's group that are finite in the same trials are
    reduced together, along the contiguous last axis of their (columns x
    trials) slice: numpy then sums in the order it uses on one column, so
    every cell is bitwise the per-column value."""
    keys = np.array([getattr(r, key_attr) for r in rows], dtype=np.int64)
    agg_values = attrgetter(*_AGG_COLS)
    table = np.array([agg_values(r) for r in rows],
                     dtype=np.float64).reshape(len(rows), len(_AGG_COLS))
    order = np.argsort(keys, kind="stable")
    keys, table = keys[order], table[order]
    uniq, starts = np.unique(keys, return_index=True)
    line = "%d,%s" + ",%.17g" * len(_AGG_COLS) + _EOL
    with _atomic_open(path) as fh:
        fh.write(",".join([key_attr, "statistic"] + _AGG_COLS) + _EOL)
        for key, block in zip(uniq.tolist(), np.split(table, starts[1:])):
            cols = block.T
            finite = np.isfinite(cols)
            groups = {}  # finiteness mask -> the columns that have it
            for c, mask in enumerate(finite):
                groups.setdefault(mask.tobytes(), []).append(c)
            cells = np.empty((len(_AGG_STATS), len(_AGG_COLS)))
            for members in groups.values():
                x = np.ascontiguousarray(cols[np.ix_(members, finite[members[0]])])
                for s, (stat, reduce) in enumerate(_AGG_STATS.items()):
                    cells[s, members] = reduce(x) if x.size or stat == "count" else math.nan
            fh.writelines(line % (key, stat, *stat_cells)
                          for stat, stat_cells in zip(_AGG_STATS, cells.tolist()))


def load_rows(path) -> list:
    """Read a rows CSV back into CheckpointRow objects (17g round-trips).

    Raises ``ValueError`` naming the file if it is empty, if its header is
    not the schema's, or if a row does not parse or has the wrong length.
    """
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        strip_check = header[-1:] == ["strip_cov"]
        schema = _CSV_FIELDS[strip_check]
        top_m = len(header) - len(schema) + 1
        if header != _header(top_m, strip_check):
            raise ValueError(f"rows file {path} is empty or lacks the CheckpointRow header")
        for rec in reader:
            try:
                if len(rec) != len(header):
                    raise ValueError(f"{len(rec)} fields, expected {len(header)}")
                cells = iter(rec)
                values = [tuple(map(float, islice(cells, top_m))) if kind is tuple
                          else kind(next(cells)) for _, kind in schema]
            except ValueError as exc:
                raise ValueError(f"rows file {path}, line {reader.line_num}: {exc}") from None
            out.append(CheckpointRow(*values))
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

    ``threads`` is the worker count (processes under the hood); any value
    yields byte-identical outputs because trials are reduced in trial order
    and each trial's randomness is addressed, not shared.

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
    if threads == 1:
        per_trial = [run_trial(cfg, t) for t in trials]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            chunksize = max(1, cfg.trials // (threads * 8))
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


def lil_diagnostics(rows) -> LilReport:
    """Boundary-law diagnostics over dyadic windows of a trajectory."""
    # window k holds [2**k, 2**(k+1)); bit_length is exact where log2 rounds
    obs = sorted((r for r in rows if r.clock == "obs" and r.n >= 3), key=attrgetter("n"))
    rec = sorted((r for r in rows if r.clock == "rec" and r.m >= 2), key=attrgetter("m"))
    obs_windows = []
    run_max, run_min = -math.inf, math.inf
    for k, group in groupby(obs, key=lambda r: r.n.bit_length() - 1):
        group = list(group)
        fplus_dev = [(r.f_plus - math.log(r.n)) / math.log(math.log(r.n)) for r in group]
        fminus_dev = [(r.f_minus - math.log(r.n)) / math.log(math.log(r.n)) for r in group]
        run_max = max(run_max, max(fplus_dev))
        run_min = min(run_min, min(fminus_dev))
        obs_windows.append(
            {
                "lo": 2**k,
                "hi": 2 ** (k + 1),
                "count": len(group),
                "fplus_min": min(fplus_dev),
                "fplus_max": max(fplus_dev),
                "run_fplus_max": run_max,
                "fminus_min": min(fminus_dev),
                "fminus_max": max(fminus_dev),
                "run_fminus_min": run_min,
            }
        )
    rec_windows = []
    run_ratio = -math.inf
    for k, group in groupby(rec, key=lambda r: r.m.bit_length() - 1):
        group = list(group)
        ratios = [r.width / math.log(r.m) for r in group]
        run_ratio = max(run_ratio, max(ratios))
        rec_windows.append(
            {
                "lo": 2**k,
                "hi": 2 ** (k + 1),
                "count": len(group),
                "ratio_min": min(ratios),
                "ratio_max": max(ratios),
                "run_ratio_max": run_ratio,
            }
        )
    return LilReport(obs_windows=obs_windows, rec_windows=rec_windows)
