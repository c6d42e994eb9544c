"""Trial engine, ensemble outputs, and the harness statistics."""

import csv
import importlib.util
import itertools
import json
import math
import struct
import sys
import tracemalloc
from dataclasses import fields as dataclass_fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretorecords import harness
from paretorecords.analytics import (
    fplus_centering,
    mean_records,
    p_record,
    records_time_fplus_centering,
)
from paretorecords.frontier import f_minus, f_plus, in_rs
from paretorecords.harness import (
    CheckpointRow,
    ExperimentConfig,
    _simulate,
    geometric_grid,
    ks_statistic,
    lil_diagnostics,
    load_rows,
    run_ensemble,
    run_trial,
    strip_coverage,
)
from paretorecords.frontier import RegionCorners
from paretorecords.records import RecordBook, coord_sums, rebuild_oracle
from paretorecords.rng import ObservationStream, _exponential, _uniform


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def serialize(rows):
    # NaN-safe row comparison: 17g text round-trips floats exactly
    def text(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)
    return [[tuple(map(text, v)) if isinstance(v, tuple) else text(v)
             for v in vars(r).values()] for r in rows]


def test_geometric_grid():
    grid = geometric_grid(100)
    assert grid[0] == 10 and grid[-1] == 100
    assert list(grid) == sorted(set(grid))
    assert geometric_grid(5) == (5,)
    assert geometric_grid(10) == (10,)
    # coarser ratio gives a sparser grid
    assert len(geometric_grid(10**4, ratio=2.0)) < len(geometric_grid(10**4))
    with pytest.raises(ValueError):
        geometric_grid(100, ratio=1.0)
    # a fine grid is served; one that needs over 10**5 steps is refused
    assert len(geometric_grid(10**7, ratio=1.0002)) > 10**4
    with pytest.raises(ValueError, match="too close to 1"):
        geometric_grid(100, ratio=1.00001)
    # non-real ratios used to fail with a TypeError that named no field
    for ratio in ("1.5", None, True, 1 + 0j):
        with pytest.raises(ValueError, match="checkpoint_ratio"):
            geometric_grid(100, ratio=ratio)
    assert geometric_grid(100, ratio=2) == geometric_grid(100, ratio=np.float64(2.0))
    # a ratio whose product overflows ends the grid; round(inf) used to raise
    assert geometric_grid(100, ratio=1e200) == (10, 100)
    for ratio in (1e308, sys.float_info.max):
        assert geometric_grid(100, ratio=ratio) == (10, 100)
        assert geometric_grid(10**9, ratio=ratio) == (10, 10**9)


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(d=0, n_max=10)
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, n_max=10, trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, n_max=10, master_seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, n_max=10, master_seed=2**64)
    for ratio in (0.9, 1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            ExperimentConfig(d=2, n_max=10, checkpoint_ratio=ratio)
        with pytest.raises(ValueError):
            geometric_grid(100, ratio=ratio)
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, n_max=10, checkpoints=())
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, n_max=10, checkpoints=(5, 11))
    with pytest.raises(ValueError):
        ExperimentConfig(d=2, n_max=10, checkpoints=(0, 5))
    # non-integral checkpoints used to be truncated: (2.5, 7.9) ran as (2, 7)
    for bad in ((2.5, 7.9), (5, 7.0), (True, 5), ("5",)):
        with pytest.raises(ValueError):
            ExperimentConfig(d=2, n_max=10, checkpoints=bad)
    # bool is an int subclass: trials=True used to run as 1 trial
    for name in ("d", "n_max", "trials", "top_m", "master_seed"):
        with pytest.raises(ValueError):
            ExperimentConfig(**{"d": 2, "n_max": 10, name: True})
    for ratio in ("1.5", None):
        with pytest.raises(ValueError, match="checkpoint_ratio"):
            ExperimentConfig(d=2, n_max=10, checkpoint_ratio=ratio)
    # a numpy ratio used to be stored as given, and summary.json failed on it
    for i, ratio in enumerate((np.float32(1.5), np.int64(2))):
        cfg = ExperimentConfig(d=2, n_max=50, checkpoint_ratio=ratio)
        assert type(cfg.checkpoint_ratio) is float and cfg.checkpoint_ratio == ratio
        run_ensemble(cfg, tmp_path / f"ratio{i}")
        assert (tmp_path / f"ratio{i}" / "summary.json").is_file()
    # the flags used to be taken by truthiness: records_time="false" turned it on
    for name in ("records_time", "strip_check"):
        for bad in ("false", 1, 0, None, np.bool_(True), 10**5000):
            with pytest.raises(ValueError, match=name):
                ExperimentConfig(**{"d": 2, "n_max": 10, name: bad})
    cfg = ExperimentConfig(d=2, n_max=100, checkpoints=(50, 10, 50, np.int64(100)))
    assert cfg.grid == (10, 50, 100)
    for trial in (-1, True):
        with pytest.raises(ValueError):
            run_trial(ExperimentConfig(d=2, n_max=10), trial)
    assert type(run_trial(ExperimentConfig(d=2, n_max=10), np.int64(1))[0].trial) is int
    with pytest.raises(ValueError):
        run_ensemble(ExperimentConfig(d=2, n_max=10), tmp_path, threads=True)


def test_trial_determinism_and_chunk_invariance(monkeypatch):
    cfg = ExperimentConfig(d=3, n_max=3000, master_seed=11,
                           records_time=True, strip_check=True, top_m=6)
    base = serialize(run_trial(cfg, 2))
    assert serialize(run_trial(cfg, 2)) == base
    takes = []
    stage1 = harness._stage1

    def recording_stage1(stream, take, floor):
        takes.append(take)
        return stage1(stream, take, floor)

    monkeypatch.setattr(harness, "_stage1", recording_stage1)
    for chunk in (1, 17, 257, 1 << 16):
        monkeypatch.setattr(harness, "_CHUNK", chunk)
        takes.clear()
        assert serialize(_simulate(cfg, 2)) == base, chunk
        assert max(takes) <= chunk  # the engine reads its block cap when it runs
    monkeypatch.undo()
    # a different trial index gives a different trajectory
    assert serialize(run_trial(cfg, 3)) != base


def test_trajectory_book_is_the_per_point_book(monkeypatch):
    # the engine's filters are exact: at every state it yields, its book
    # (record coordinates included) is the book fed the same stream one point
    # at a time, up to the same n
    for d in (1, 2, 3, 4):
        cfg = ExperimentConfig(d=d, n_max=2000, master_seed=31 + d,
                               records_time=True, top_m=5)
        for chunk in (1, 17, 1 << 16):
            monkeypatch.setattr(harness, "_CHUNK", chunk)
            stream = ObservationStream(cfg.master_seed, 2, d)
            plain = RecordBook(d, top_capacity=cfg.top_m)
            clocks = []
            for clock, book, _ in harness.trajectory(cfg, 2):
                for row in stream.take(book.n - plain.n):
                    plain.observe(row)
                assert book.state_equals(plain), (d, chunk, clock, book.n)
                clocks.append(clock)
            assert plain.n == cfg.n_max
            assert clocks.count("obs") == len(cfg.grid) and clocks.count("rec") == plain.R


def assert_per_point_book(cfg, trial, coords):
    """Every state ``trajectory(cfg, trial)`` yields is the book fed
    ``coords`` (the trial's stream) one point at a time, and its F- is that
    book's; returns the per-point book and the clocks of the states."""
    plain = RecordBook(cfg.d, top_capacity=cfg.top_m)
    clocks = []
    for clock, book, corners in harness.trajectory(cfg, trial):
        for row in coords[plain.n:book.n]:
            plain.observe(row)
        assert book.state_equals(plain), (clock, book.n)
        assert corners.value == f_minus(plain), (clock, book.n)
        clocks.append(clock)
    return plain, clocks


def _unit(x):
    """The uniform index (u = unit * 2**-53) of a coordinate close to x."""
    return int(-math.expm1(-x) * 2.0**53)


class CraftedStream:
    """Stands in for a trial's ObservationStream: serves the rows of a
    (n, d) uint64 array in order, as raw words or as their uniforms."""

    def __init__(self, words):
        self.words, self.dim, self.index = words, words.shape[1], 0

    def take_words(self, count):
        out = self.words[self.index:self.index + count]
        self.index += count
        return out

    def take_uniforms(self, count):
        return _uniform(self.take_words(count))


def test_record_just_above_f_minus_is_kept(monkeypatch):
    # a d=2 stream whose record C lies a few ulp above the corner attaining
    # F-, well inside the sum filter's margin: the engine keeps it, so every
    # state is the per-point book's
    n = 200
    words = np.zeros((n, 2), dtype=np.uint64)  # the origin: dominated by A
    words[0] = _unit(1.0), _unit(5.0)  # A
    words[1] = _unit(5.0), _unit(1.0)  # B: F- is the corner (A_1, B_2), sum about 2
    words[100] = _unit(1.0) + 1, _unit(1.0) + 1  # C: above that corner in both
    words <<= np.uint64(11)
    coords = _exponential(_uniform(words))
    s = float(coord_sums(coords[100]))
    fmin = f_minus(rebuild_oracle(coords[:2]))
    assert 0.0 < s - fmin < abs(harness._SUM_FILTER_MARGIN)
    monkeypatch.setattr(harness, "ObservationStream",
                        lambda master_seed, trial, dim: CraftedStream(words))
    for chunk in (1, 17, 1 << 16):
        monkeypatch.setattr(harness, "_CHUNK", chunk)
        for records_time in (False, True):
            cfg = ExperimentConfig(d=2, n_max=n, checkpoints=(50, 99, 100, 101, n),
                                   records_time=records_time)
            plain, _ = assert_per_point_book(cfg, 0, coords)
            assert plain.R == 3 and plain.epochs[-1] == 101  # C is a record


def sorted_corners(corners):
    """The corners' points and sums, in lexicographic order of the points."""
    order = np.lexsort(corners.points.T[::-1])
    return corners.points[order], corners.sums[order]


def test_in_block_records_match_the_per_point_book(monkeypatch):
    # a d=2 stream whose block [60, 124) holds the in-block cases: P, a
    # record that kills the block-start record C and is killed in its own
    # block by R; Q, above F- and beaten only by the earlier in-block P; and
    # S, T, which tie R in one coordinate each and exceed it in the other,
    # and so are records beside it.  Every state is the per-point book's,
    # and at every obs state the corners are those of the per-point book's
    # records, value bit for bit
    n = 200
    points = {0: (1.0, 5.0), 1: (5.0, 1.0), 30: (1.2, 1.2),  # A, B, C
              70: (2.0, 2.0), 75: (1.5, 1.5), 80: (3.0, 3.0),  # P, Q, R
              90: (3.0, 3.5), 95: (3.5, 3.0)}  # S, T
    words = np.zeros((n, 2), dtype=np.uint64)  # the origin: dominated by A
    for at, xy in points.items():
        words[at] = [_unit(x) for x in xy]
    words <<= np.uint64(11)
    coords = _exponential(_uniform(words))
    assert coords[80, 0] == coords[90, 0] and coords[80, 1] == coords[95, 1]
    monkeypatch.setattr(harness, "ObservationStream",
                        lambda master_seed, trial, dim: CraftedStream(words))
    for chunk in (1, 17, 1 << 16):
        monkeypatch.setattr(harness, "_CHUNK", chunk)
        for records_time in (False, True):
            cfg = ExperimentConfig(d=2, n_max=n, checkpoints=(60, 124, n), top_m=3,
                                   records_time=records_time)
            plain = RecordBook(2, top_capacity=cfg.top_m)
            for clock, book, corners in harness.trajectory(cfg, 0):
                for row in coords[plain.n:book.n]:
                    plain.observe(row)
                assert book.state_equals(plain), (chunk, clock, book.n)
                ref = RegionCorners.of(plain)
                assert np.float64(corners.value).tobytes() == np.float64(ref.value).tobytes()
                if clock == "obs":
                    for got, want in zip(sorted_corners(corners), sorted_corners(ref)):
                        assert got.tobytes() == want.tobytes(), (chunk, book.n)
            # A, B, C, P, R, S and T set records; C and P are broken
            assert plain.epochs == [1, 2, 31, 71, 81, 91, 96]
            assert plain.r == 5 and not in_rs(plain, coords[75])


def test_flag_step_memory_is_bounded(monkeypatch):
    # a d=6 stream whose block [4096, 8192) holds X, which beats everything
    # after it, then 4095 candidates: none is beaten by the block-start
    # record Y (their coordinate 0 is 0, or Z's 9.5) and each by X, and the
    # last, Z, beats all but X.  The all-pairs comparison of the block needs
    # 4096 * 4096 * 6 bytes (over 96 MB); the flag step's row blocks keep the
    # trial under the bound of test_region_corners_add_memory_is_bounded,
    # fixed in advance, and find each row's first dominator, X, not Z
    n, d = 8192, 6
    rng = np.random.default_rng(12)
    words = np.zeros((n, d), dtype=np.uint64)
    words[0] = _unit(0.1)  # Y
    words[4096] = _unit(10.0)  # X
    x = rng.uniform(0.5, 9.0, (n - 4097, d - 1))
    words[4097:, 1:] = (-np.expm1(-x) * 2.0**53).astype(np.uint64)
    words[-1] = _unit(9.5)  # Z
    words <<= np.uint64(11)
    coords = _exponential(_uniform(words))
    monkeypatch.setattr(harness, "ObservationStream",
                        lambda master_seed, trial, dim: CraftedStream(words))
    sizes = []
    first_dominators = harness._first_dominators
    monkeypatch.setattr(harness, "_first_dominators",
                        lambda pts: sizes.append(len(pts)) or first_dominators(pts))
    cfg = ExperimentConfig(d=d, n_max=n, checkpoints=(n,), top_m=8)
    tracemalloc.start()
    try:
        (_, _, corners), = harness.trajectory(cfg, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(sizes) == n - 4096  # the check is not vacuous
    assert peak < 32 * 2**20, peak
    plain, _ = assert_per_point_book(cfg, 0, coords)
    assert plain.epochs == [1, 4097] and corners.value == f_minus(plain)


@pytest.fixture
def blocks(monkeypatch):
    """The sizes of the blocks stage 1 reads, in order."""
    sizes = []
    stage1 = harness._stage1

    def recording_stage1(stream, take, floor):
        sizes.append(take)
        return stage1(stream, take, floor)

    monkeypatch.setattr(harness, "_stage1", recording_stage1)
    return sizes


def test_blocks_follow_the_stream_schedule_not_the_grid(blocks):
    # a checkpoint is a stop inside a block: blocks hold up to three times
    # the observations before them, ending at 64 * 4**k until they reach
    # _CHUNK whatever the grid, so the 52 points of the default grid to 10^5
    # leave the schedule's 7 blocks whole, and every state is still the
    # per-point book's
    cfg = ExperimentConfig(d=2, n_max=10**5, master_seed=5, records_time=True)
    assert len(cfg.grid) == 52
    coords = ObservationStream(cfg.master_seed, 0, cfg.d).take(cfg.n_max)
    plain, clocks = assert_per_point_book(cfg, 0, coords)
    assert blocks == [64, 192, 768, 3072, 12288, 49152, 34464]
    assert clocks.count("obs") == 52 and clocks.count("rec") == plain.R
    # the observation clock: 40 checkpoints, in 4 blocks
    blocks.clear()
    cfg = ExperimentConfig(d=3, n_max=2000, master_seed=6, checkpoints=range(50, 2001, 50))
    coords = ObservationStream(cfg.master_seed, 0, cfg.d).take(cfg.n_max)
    _, clocks = assert_per_point_book(cfg, 0, coords)
    assert blocks == [64, 192, 768, 976]
    assert clocks == ["obs"] * 40
    # a trial the size of the ens_d3 benchmark's: 5 blocks, where blocks
    # that doubled took 9
    blocks.clear()
    cfg = ExperimentConfig(d=3, n_max=10**4, master_seed=7, checkpoints=(10**3, 10**4))
    coords = ObservationStream(cfg.master_seed, 0, cfg.d).take(cfg.n_max)
    _, clocks = assert_per_point_book(cfg, 0, coords)
    assert blocks == [64, 192, 768, 3072, 5904]
    assert clocks == ["obs"] * 2


def test_grid_stops_inside_blocks_keep_the_per_point_book(monkeypatch):
    # checkpoints at a trial's own record epochs and either side of each: on
    # the records clock a rec and an obs state share each epoch's n, and the
    # rec state comes first; and a grid stop's segment ends at its own
    # observation, no sooner or later.  On the observation clock, checkpoints
    # at every other epoch end segments at a record, which may kill the
    # record before it in the same segment.  Every state is the per-point
    # book's, at any _CHUNK
    for d in (1, 2):
        base = ExperimentConfig(d=d, n_max=3000, master_seed=60 + d)
        coords = ObservationStream(base.master_seed, 0, d).take(base.n_max)
        plain = RecordBook(d, top_capacity=base.top_m)
        for row in coords:
            plain.observe(row)
        epochs = plain.epochs
        around = [e + step for e in epochs for step in (-1, 0, 1) if 0 < e + step <= base.n_max]
        for chunk in (1, 17, 1 << 16):
            monkeypatch.setattr(harness, "_CHUNK", chunk)
            cfg = replace(base, checkpoints=around, records_time=True)
            _, clocks = assert_per_point_book(cfg, 0, coords)
            states = sorted([(e, 0, "rec") for e in epochs] + [(g, 1, "obs") for g in cfg.grid])
            assert clocks == [clock for _, _, clock in states], (d, chunk)
            cfg = replace(base, checkpoints=epochs[1::2])
            _, clocks = assert_per_point_book(cfg, 0, coords)
            assert clocks == ["obs"] * len(epochs[1::2])


def test_corner_count_is_linear_in_general_position():
    # on stream data (ties have probability 0) the region has (d-1) r + 1
    # corners after every record, the count of local upper bounds for
    # d = 2, 3 (Daechert & Klamroth, J. Global Optim. 61, 2015)
    for d in (2, 3):
        cfg = ExperimentConfig(d=d, n_max=10**4, master_seed=90 + d,
                               checkpoints=(10**4,), records_time=True)
        states = 0
        for trial in range(20):
            for clock, book, corners in harness.trajectory(cfg, trial):
                assert corners.points.shape[0] == (d - 1) * book.r + 1, (d, trial, book.n)
                states += clock == "rec"
        assert states > 20 * d ** 2


def test_second_record_time_law():
    # R_n = 1 iff the first point strictly dominates the n - 1 after it,
    # so P(T_2 > n) = n^-d exactly; binomial z-scores over 2000 trials,
    # bound fixed before the first run
    trials, n_max = 2000, 30
    for d in (1, 2, 3):
        cfg = ExperimentConfig(d=d, n_max=n_max, master_seed=2026 + d,
                               checkpoints=(n_max,), records_time=True)
        t2 = []
        for trial in range(trials):
            second = (book.n for clock, book, _ in harness.trajectory(cfg, trial)
                      if clock == "rec" and book.R == 2)
            t2.append(next(second, n_max + 1))
        t2 = np.array(t2)
        for n in (2, 3, 5, 10):
            p = float(n) ** -d
            z = (np.count_nonzero(t2 > n) - trials * p) / math.sqrt(trials * p * (1 - p))
            print(f"P(T_2 > {n}), d={d}: z = {z:+.2f} (bound 4)")
            assert abs(z) <= 4.0, (d, n, z)


def test_records_broken_per_record_law():
    # on the records clock, record m breaks K_m = beta_m - beta_{m-1}
    # current records; given a record at n = T_m, E[K_m] = 1 - p(n, d - 1) /
    # p(n, d), with p(., 0) = 0.  At d = 1 each record breaks the one before
    # it.  At d = 2, 3 a z-score over the per-trial sums of K_m - E[K_m]
    # (m >= 2), which are independent across trials; bound fixed before the
    # first run
    for d, trials, n_max in ((1, 50, 10**4), (2, 300, 10**4), (3, 100, 3000)):
        cfg = ExperimentConfig(d=d, n_max=n_max, master_seed=1200 + d,
                               checkpoints=(n_max,), records_time=True)
        excess = []
        for trial in range(trials):
            recs = [(row.n, row.beta) for row in run_trial(cfg, trial) if row.clock == "rec"]
            broken = np.diff([beta for _, beta in recs])
            if d == 1:
                assert (broken == 1).all(), trial
                continue
            mean = [1.0 - p_record(n, d - 1) / p_record(n, d) for n, _ in recs[1:]]
            excess.append(float(np.sum(broken - mean)))
        if d > 1:
            z = np.mean(excess) / (np.std(excess, ddof=1) / math.sqrt(trials))
            print(f"records broken per record, d={d}: z = {z:+.2f} (bound 4)")
            assert abs(z) <= 4.0, (d, z)


# n_max per d keeps every example short: corners multiply steeply with d
_PROPERTY_N_MAX = {1: 3000, 2: 3000, 3: 3000, 4: 1000, 5: 400, 6: 150}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_trajectory_is_the_per_point_book_on_random_configs(data):
    d = data.draw(st.integers(1, 6), label="d")
    n_max = data.draw(st.integers(1, _PROPERTY_N_MAX[d]), label="n_max")
    checkpoints = data.draw(st.none() | st.lists(st.integers(1, n_max), min_size=1,
                                                 max_size=8), label="checkpoints")
    cfg = ExperimentConfig(
        d=d, n_max=n_max, checkpoints=checkpoints,
        master_seed=data.draw(st.integers(0, 2**64 - 1), label="master_seed"),
        top_m=data.draw(st.integers(1, 70), label="top_m"),
        records_time=data.draw(st.booleans(), label="records_time"))
    trial = data.draw(st.integers(0, 2**20), label="trial")
    chunk = data.draw(st.sampled_from((1, 17, 64, 1 << 16)), label="chunk")
    default = harness._CHUNK
    harness._CHUNK = chunk
    try:
        coords = ObservationStream(cfg.master_seed, trial, d).take(n_max)
        plain, clocks = assert_per_point_book(cfg, trial, coords)
    finally:
        harness._CHUNK = default
    # one state per grid point, and per record on the records clock
    assert clocks.count("obs") == len(cfg.grid)
    assert clocks.count("rec") == (plain.R if cfg.records_time else 0)


def test_trajectory_stops_at_its_last_state():
    # with no records clock no state comes after the last grid point, so the
    # engine stops there, not at n_max, and gives the rows of a config
    # whose n_max is that point
    cfg = ExperimentConfig(d=2, n_max=10**7, checkpoints=(100,))
    states = list(harness.trajectory(cfg, 0))
    assert [(clock, book.n) for clock, book, _ in states] == [("obs", 100)]
    short = ExperimentConfig(d=2, n_max=100, checkpoints=(100,))
    assert serialize(run_trial(cfg, 0)) == serialize(run_trial(short, 0))


def test_record_sums_derived_bitwise_and_f_plus_is_top_sum():
    # the book derives its record sums from the coordinates: bitwise the sum
    # of each current record taken as a 1-d point, whether the book was fed
    # point by point or by the engine, which sums rows of a 2-d block
    rng = np.random.default_rng(8)

    def check_sums(book):
        each = [coord_sums(rec) for rec in book.record_coords]
        assert book.record_sums.tobytes() == np.array(each).tobytes(), (book.d, book.n)

    for d in range(1, 11):
        plain = RecordBook(d)
        for row in rng.exponential(size=(400, d)):
            plain.observe(row)
            if plain.n % 50 == 0:
                check_sums(plain)
        # F- corners multiply steeply with d, so the high-d runs stay short
        cfg = ExperimentConfig(d=d, n_max=2000 if d <= 5 else 24, master_seed=d)
        for _, book, _ in harness.trajectory(cfg, 0):
            check_sums(book)
    # F+ is read off the top sums: at every state it is the largest record sum
    for d in range(1, 6):
        for top_m in (1, 8):
            cfg = ExperimentConfig(d=d, n_max=2000, master_seed=40 + d,
                                   records_time=True, top_m=top_m)
            for _, book, _ in harness.trajectory(cfg, 1):
                assert f_plus(book) == book.record_sums.max(), (d, top_m, book.n)


def _frozen_full_block_trajectory(cfg, trial, chunk):
    # frozen copy of the engine's block loop from before stage 1 ran on the
    # uniforms: every observation of a block is mapped and summed, and the
    # sum filter runs on the whole block (absorb passes every run sum)
    stream = ObservationStream(cfg.master_seed, trial, cfg.d)
    book = RecordBook(cfg.d, top_capacity=cfg.top_m)
    grid = cfg.grid
    corners = RegionCorners(cfg.d)
    gi = 0
    pos = 0
    while pos < cfg.n_max:
        target = grid[gi] if gi < len(grid) else cfg.n_max
        take = min(chunk, target - pos, max(pos, 64))
        pts = stream.take(take)
        sums = coord_sums(pts)
        cand = np.nonzero(sums >= corners.value - 1e-9)[0]
        if cand.size:
            cand = cand[~book.dominated_by_current(pts[cand])]
        prev = 0
        for i in cand.tolist():
            if i > prev:
                book.absorb_nonrecords(i - prev, sums[prev:i])
            out = book._observe_raw(pts[i], float(sums[i]))
            if out.is_record:
                corners.add(pts[i])
                if cfg.records_time:
                    yield "rec", book, corners
            prev = i + 1
        if prev < take:
            book.absorb_nonrecords(take - prev, sums[prev:take])
        pos += take
        if gi < len(grid) and pos == grid[gi]:
            yield "obs", book, corners
            gi += 1


@pytest.mark.parametrize("d, n_max", [(1, 3000), (2, 3000), (3, 2000), (4, 800), (5, 400)])
def test_trajectory_matches_frozen_full_block_engine(d, n_max, monkeypatch):
    # stage 1 on the uniforms maps and sums only survivors; at every state
    # the book (top sums included) and F- are the full-block engine's, also
    # while the top sums are still filling (top_m up to 200)
    mapped = []

    def counting_exponential(u):
        mapped.append(len(u))
        return _exponential(u)

    monkeypatch.setattr(harness, "_exponential", counting_exponential)
    observed = 0
    for top_m in (1, 8, 64, 200):
        for records_time in (False, True):
            cfg = ExperimentConfig(d=d, n_max=n_max, master_seed=50 + d, top_m=top_m,
                                   records_time=records_time)
            for chunk in (17, 1 << 16):
                monkeypatch.setattr(harness, "_CHUNK", chunk)
                states = itertools.zip_longest(harness.trajectory(cfg, 1),
                                               _frozen_full_block_trajectory(cfg, 1, chunk),
                                               fillvalue=(None, None, None))
                for (clock, book, corners), (ref_clock, ref, ref_corners) in states:
                    assert clock == ref_clock, (top_m, records_time, chunk)
                    assert corners.value == ref_corners.value
                    assert book.state_equals(ref), (top_m, records_time, chunk, clock, book.n)
                observed += cfg.n_max
    assert sum(mapped) < observed  # the uniform filter does drop points


def test_uniform_filter_keeps_every_sum_at_the_floor():
    # points crafted with sums within a few ulp of floors near 0, 13 and 60:
    # every point whose computed sum is at least the floor survives, and
    # points clearly below it are dropped
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4, 5):
        for target in (1e-3, 0.5, 13.0, 60.0):
            # one coordinate is at most 53 ln 2 < 37
            target = min(target, 36.0 * d)
            a = rng.dirichlet(np.ones(d), size=2000) * target
            a *= 1.0 + 0.01 * rng.standard_normal((2000, 1))
            u = np.minimum(np.floor(-np.expm1(-a) * 2.0**53) / 2.0**53, 1.0 - 2.0**-53)
            sums = coord_sums(_exponential(u))
            for s in sums[:25]:
                floors = [s]
                for direction in (-math.inf, math.inf):
                    f = s
                    for _ in range(3):
                        f = np.nextafter(f, direction)
                        floors.append(f)
                for floor in floors:
                    kept = np.zeros(len(u), dtype=bool)
                    kept[harness._uniform_survivors(u, float(floor))] = True
                    assert kept[sums >= floor].all(), (d, target, floor)
                    assert not kept[sums < floor - 1e-9 * (1 + floor)].any(), (d, target, floor)
        for floor in (-math.inf, harness._UNIFORM_FILTER_LIMIT, 1e300, math.inf):
            assert np.array_equal(harness._uniform_survivors(u, floor),
                                  np.arange(len(u)))


def _balanced_row_unit(floor, d):
    """The smallest unit m for which a row with every uniform at m * 2**-53
    passes _uniform_survivors, or None if no such row does."""
    def keeps(m):
        return harness._uniform_survivors(np.full((1, d), m * 2.0**-53), floor).size == 1

    lo, hi = 0, 2**53 - 1
    if not keeps(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if keeps(mid) else (mid + 1, hi)
    return lo


def test_word_gate_keeps_every_row_the_product_test_keeps():
    # words crafted within a few units (u = unit * 2**-53) of the gate's
    # bound K << 11, and of the balanced rows the product test only just
    # keeps, at floors near 1e-3, 0.5, 13, 60 and 699: the gate passes every
    # row that _uniform_survivors keeps
    rng = np.random.default_rng(6)
    n = 4000
    for d in range(1, 9):
        for target in (1e-3, 0.5, 13.0, 60.0, 699.0):
            for floor in (np.nextafter(target, -math.inf), target, np.nextafter(target, math.inf)):
                floor = float(floor)
                bound = harness._word_bound(floor, d)
                assert 0 < bound < 2**64, (d, floor)
                balanced = _balanced_row_unit(floor, d)
                for centre in (bound >> 11, balanced):
                    if centre is None:  # no row's sum reaches the floor
                        continue
                    units = centre + rng.integers(-4, 5, size=(n, d))
                    # in half the rows, some coordinates anywhere below the centre
                    low = (rng.random((n, d)) < 0.5) & (np.arange(n) < n // 2)[:, None]
                    units[low] = rng.integers(0, centre, size=low.sum())
                    units = np.minimum(units, 2**53 - 1).astype(np.uint64)
                    words = (units << np.uint64(11)) | rng.integers(
                        0, 2**11, size=(n, d), dtype=np.uint64)
                    passed = np.zeros(n, dtype=bool)
                    passed[harness._word_survivors(words, bound)] = True
                    kept = harness._uniform_survivors(_uniform(words), floor)
                    assert passed[kept].all(), (d, floor, centre)
                    if centre == balanced:
                        assert kept.size, (d, floor)  # the check is not vacuous
    # no gate where the product test keeps everything, or nearly so
    words = ObservationStream(3, 0, 8).take_words(n)
    for d in range(1, 9):
        for floor in (-math.inf, -5.0, -0.0, 0.0, 1e-20, harness._UNIFORM_FILTER_LIMIT,
                      1e300, math.inf):
            assert harness._word_bound(floor, d) == 0, (d, floor)
    assert np.array_equal(harness._word_survivors(words, 0), np.arange(n))
    # on stream words the gate does thin a block out: at d = 2 and floor 13
    # about 2 exp(-6.5), 0.3 %, of the rows pass
    words = ObservationStream(77, 0, 2).take_words(1 << 16)
    passed = harness._word_survivors(words, harness._word_bound(13.0, 2))
    assert passed.size < 0.01 * len(words)
    assert np.isin(harness._uniform_survivors(_uniform(words), 13.0), passed).all()


@pytest.fixture
def gated(monkeypatch):
    """The sizes of the blocks the word gate sees, in order."""
    sizes = []
    word_survivors = harness._word_survivors

    def counting_gate(words, bound):
        sizes.append(len(words))
        return word_survivors(words, bound)

    monkeypatch.setattr(harness, "_word_survivors", counting_gate)
    return sizes


def test_stage1_matches_the_uniform_path(gated):
    # stage 1 on stream blocks of several sizes, with floors from none to
    # beyond any sum: the rows kept and their uniforms are bitwise those of
    # the product test on the whole block of uniforms, and the stream stands
    # where a uniform read leaves it
    for d in (1, 2, 3, 5):
        for take in (4095, 4096, 20000):
            for floor in (-math.inf, 0.0, 2.0, 6.0, 9.0, 13.0, 25.0, 60.0,
                          harness._UNIFORM_FILTER_LIMIT):
                stream, ref = ObservationStream(88, d, d), ObservationStream(88, d, d)
                stream.seek(1000)
                ref.seek(1000)
                kept, u = harness._stage1(stream, take, floor)
                whole = ref.take_uniforms(take)
                want = harness._uniform_survivors(whole, floor)
                assert np.array_equal(kept, want), (d, take, floor)
                assert u.tobytes() == whole[want].tobytes(), (d, take, floor)
                assert stream.index == ref.index
    # the gate reads a block wherever its bound pays, whatever the block's size
    assert gated.count(4095) == gated.count(4096) == gated.count(20000) > 0


@pytest.mark.parametrize("d", (1, 2))
def test_trajectory_with_word_gate_matches_frozen_full_block_engine(d, gated):
    # trials long enough for blocks that the word gate reads: every state is
    # the full-block engine's
    for top_m in (1, 64):
        for records_time in (False, True):
            cfg = ExperimentConfig(d=d, n_max=60000, master_seed=70 + d, top_m=top_m,
                                   records_time=records_time)
            states = itertools.zip_longest(
                harness.trajectory(cfg, 1),
                _frozen_full_block_trajectory(cfg, 1, harness._CHUNK),
                fillvalue=(None, None, None))
            for (clock, book, corners), (ref_clock, ref, ref_corners) in states:
                assert clock == ref_clock, (top_m, records_time)
                assert corners.value == ref_corners.value
                assert book.state_equals(ref), (top_m, records_time, clock, book.n)
    assert gated


def test_records_time_f_minus_matches_full_solves():
    # one point at a time through a plain book, a full solve after every
    # record: the trial's records-time f_minus column must match bitwise
    for d, n_max in ((2, 3000), (3, 2000), (4, 600)):
        cfg = ExperimentConfig(d=d, n_max=n_max, master_seed=23 + d,
                               records_time=True, top_m=4)
        stream = ObservationStream(cfg.master_seed, 1, d)
        book = RecordBook(d, top_capacity=cfg.top_m)
        want = []
        for row in stream.take(n_max):
            if book.observe(row).is_record:
                want.append(f_minus(book))
        got = [r.f_minus for r in run_trial(cfg, 1) if r.clock == "rec"]
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_row_invariants():
    cfg = ExperimentConfig(d=3, n_max=5000, master_seed=4,
                           records_time=True, top_m=5)
    rows = run_trial(cfg, 0)
    obs = [r for r in rows if r.clock == "obs"]
    rec = [r for r in rows if r.clock == "rec"]
    assert [r.n for r in obs] == list(cfg.grid)
    for r in rows:
        assert r.m == r.r + r.beta
        assert r.width == r.f_plus - r.f_minus
        assert 0.0 <= r.f_minus <= r.dim_max_min <= r.f_plus
        assert len(r.bhat) == cfg.top_m
        if r.r >= 1:
            assert r.bhat[0] == r.f_plus  # max sum sits on a current record
        finite = [b for b in r.bhat if not math.isnan(b)]
        assert finite == sorted(finite, reverse=True)
        assert len(finite) == min(r.n, cfg.top_m)
    ms = [r.m for r in rec]
    assert ms == sorted(ms) and len(set(ms)) == len(ms)
    assert all(a.n <= b.n for a, b in zip(rec, rec[1:]))
    # counters only grow along the observation clock
    for a, b in zip(obs, obs[1:]):
        assert a.m <= b.m and a.f_plus <= b.f_plus and a.f_minus <= b.f_minus


def test_switching_relation():
    # record the full path: rec row (m, n) must mark the first n with m records set
    n_max = 300
    cfg = ExperimentConfig(d=2, n_max=n_max, master_seed=21,
                           checkpoints=tuple(range(1, n_max + 1)), records_time=True)
    rows = run_trial(cfg, 1)
    m_of_n = {r.n: r.m for r in rows if r.clock == "obs"}
    for row in rows:
        if row.clock != "rec":
            continue
        assert m_of_n[row.n] >= row.m
        assert row.n == min(n for n in m_of_n if m_of_n[n] >= row.m)
    # set membership form: {T_m <= n} iff {R_n >= m}
    t_of_m = {r.m: r.n for r in rows if r.clock == "rec"}
    for m, t in t_of_m.items():
        for n in (t - 1, t, t + 1):
            if n in m_of_n:
                assert (t <= n) == (m_of_n[n] >= m)


def test_one_dimensional_rows():
    cfg = ExperimentConfig(d=1, n_max=2000, master_seed=9, records_time=True)
    for row in run_trial(cfg, 0):
        assert row.r == 1
        assert row.width == 0.0
        assert row.f_minus == row.f_plus == row.dim_max_min
        assert row.beta == row.m - 1


def test_normalized_columns():
    cfg = ExperimentConfig(d=2, n_max=1000, master_seed=3,
                           checkpoints=(1, 2, 1000), records_time=True)
    rows = run_trial(cfg, 0)
    obs = {r.n: r for r in rows if r.clock == "obs"}
    assert math.isnan(obs[1].norm_fplus) and math.isnan(obs[2].norm_width)
    assert math.isnan(obs[1].norm_r)
    big = obs[1000]
    loglog = math.log(math.log(1000.0))
    assert big.norm_fplus == big.f_plus - fplus_centering(1000, 2)
    assert big.norm_width == big.width / loglog
    assert big.norm_r == big.r * 2 * loglog / math.log(1000.0)
    rec = [r for r in rows if r.clock == "rec" and r.m >= 2]
    for row in rec:
        assert row.norm_width == row.width / math.log(row.m)
        assert math.isnan(row.norm_fplus)  # records-time centering needs d >= 3

    cfg3 = ExperimentConfig(d=3, n_max=2000, master_seed=3, records_time=True)
    rec3 = [r for r in run_trial(cfg3, 0) if r.clock == "rec" and r.m >= 2]
    assert rec3
    for row in rec3:
        assert row.norm_fplus == row.f_plus - records_time_fplus_centering(row.m, 3)


def test_ensemble_outputs_identical_across_workers(tmp_path):
    cfg = ExperimentConfig(d=3, n_max=800, trials=5, master_seed=17,
                           records_time=True, strip_check=True, top_m=4)
    res1 = run_ensemble(cfg, tmp_path / "serial")
    res2 = run_ensemble(cfg, tmp_path / "pooled", threads=2)
    assert set(res1.files) == {"rows_obs", "aggregate_obs", "rows_rec",
                               "aggregate_rec", "summary"}
    for key in res1.files:
        a = Path(res1.files[key]).read_bytes()
        b = Path(res2.files[key]).read_bytes()
        assert a == b, f"{key} differs between worker counts"
    assert [r.trial for r in res1.obs_rows] == sorted(r.trial for r in res1.obs_rows)


def test_csv_round_trip_bitwise(tmp_path):
    cfg = ExperimentConfig(d=2, n_max=500, trials=3, master_seed=31,
                           records_time=True, strip_check=True, top_m=3)
    res = run_ensemble(cfg, tmp_path / "out")
    back = load_rows(res.files["rows_obs"])
    assert serialize(back) == serialize(res.obs_rows)
    back_rec = load_rows(res.files["rows_rec"])
    assert serialize(back_rec) == serialize(res.rec_rows)
    # header carries the strip column only when requested
    header = Path(res.files["rows_obs"]).read_text().splitlines()[0]
    assert header.endswith("strip_cov")
    res_plain = run_ensemble(
        ExperimentConfig(d=2, n_max=500, trials=1, master_seed=31), tmp_path / "plain")
    header2 = Path(res_plain.files["rows_obs"]).read_text().splitlines()[0]
    assert "strip_cov" not in header2
    assert "bhat_64" in header2  # default top capacity


AGG_COLS = ["m", "r", "beta", "f_minus", "f_plus", "width", "dim_max_min",
            "norm_fplus", "norm_width", "norm_r", "strip_cov"]
AGG_STATS = ["mean", "sd", "median", "q10", "q90", "min", "max", "count"]


def reference_aggregates(rows, key):
    """Every (key, statistic) -> {column: value} cell, one plain numpy pass
    per key over the rows in trial order; only finite values count."""
    table = {}
    for k in sorted({getattr(r, key) for r in rows}):
        group = [r for r in rows if getattr(r, key) == k]
        for col in AGG_COLS:
            x = np.array([float(getattr(r, col)) for r in group])
            x = x[np.isfinite(x)]
            stats = dict.fromkeys(AGG_STATS, math.nan)
            stats["count"] = x.size
            if x.size:
                stats.update(mean=x.mean(), median=np.median(x), min=x.min(), max=x.max(),
                             q10=np.quantile(x, 0.10), q90=np.quantile(x, 0.90))
            if x.size > 1:
                stats["sd"] = x.std(ddof=1)
            for stat in AGG_STATS:
                table.setdefault((k, stat), {})[col] = float(stats[stat])
    return table


def bits(table):
    # NaN-safe exact comparison of every cell
    return {cell: [struct.pack("<d", v) for v in cols.values()]
            for cell, cols in table.items()}


def test_aggregate_file_matches_rows(tmp_path):
    # n = 1, 2 leave the obs norm columns all NaN, m = 1 the rec ones, and
    # strip_cov is off: those cells must read count 0 and nan otherwise
    cfg = ExperimentConfig(d=2, n_max=400, trials=6, master_seed=13,
                           checkpoints=(1, 2, 100, 400), records_time=True)
    res = run_ensemble(cfg, tmp_path / "agg")
    for name, rows, key in (("aggregate_obs", res.obs_rows, "n"),
                            ("aggregate_rec", res.rec_rows, "m")):
        lines = Path(res.files[name]).read_text().splitlines()
        assert lines[0].split(",") == [key, "statistic"] + AGG_COLS
        got = {}
        for line in lines[1:]:
            parts = line.split(",")
            got[(int(parts[0]), parts[1])] = dict(zip(AGG_COLS, map(float, parts[2:])))
        want = reference_aggregates(rows, key)
        assert list(got) == list(want)  # keys ascending, statistics in order
        assert bits(got) == bits(want)
        first = min(k for k, _ in got)
        assert got[(first, "count")]["norm_width"] == 0.0
        assert math.isnan(got[(first, "mean")]["norm_width"])
        assert got[(first, "count")]["strip_cov"] == 0.0
        assert math.isnan(got[(first, "median")]["strip_cov"])


# Frozen references: the writers as they were before the output stage was
# batched, one csv.writer cell and one numpy reduction per column at a time.
# The batched writers must give the same bytes.

def _ref_f17(x):
    return format(float(x), ".17g")


_REF_TYPES = get_type_hints(CheckpointRow)
_REF_WRITE = {int: str, str: str, float: _ref_f17}
_REF_AGG_STATS = {
    "mean": np.mean,
    "sd": lambda x: x.std(ddof=1) if x.size > 1 else math.nan,
    "median": np.median,
    "q10": lambda x: np.quantile(x, 0.10),
    "q90": lambda x: np.quantile(x, 0.90),
    "min": np.min,
    "max": np.max,
    "count": np.size,
}


def reference_write_rows(path, rows, top_m, strip_check):
    schema = [(f.name, _REF_TYPES[f.name]) for f in dataclass_fields(CheckpointRow)
              if f.name != "strip_cov" or strip_check]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = []
        for name, kind in schema:
            header += [f"bhat_{k}" for k in range(1, top_m + 1)] if kind is tuple else [name]
        writer.writerow(header)
        for row in rows:
            cells = []
            for name, kind in schema:
                value = getattr(row, name)
                cells += map(_ref_f17, value) if kind is tuple else [_REF_WRITE[kind](value)]
            writer.writerow(cells)


def reference_write_aggregates(path, rows, key_attr):
    keys = np.array([getattr(r, key_attr) for r in rows], dtype=np.int64)
    table = np.array([[getattr(r, c) for c in AGG_COLS] for r in rows],
                     dtype=np.float64).reshape(len(rows), len(AGG_COLS))
    order = np.argsort(keys, kind="stable")
    keys, table = keys[order], table[order]
    uniq, starts = np.unique(keys, return_index=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([key_attr, "statistic"] + AGG_COLS)
        for key, block in zip(uniq.tolist(), np.split(table, starts[1:])):
            finite = [col[np.isfinite(col)] for col in block.T]
            for stat, reduce in _REF_AGG_STATS.items():
                cells = [reduce(x) if x.size or stat == "count" else math.nan for x in finite]
                writer.writerow([str(key), stat] + [_ref_f17(v) for v in cells])


def assert_writers_match_reference(tmp_path, rows, key, top_m, strip_check):
    cfg = ExperimentConfig(d=2, n_max=10, top_m=top_m, strip_check=strip_check)
    for write, ref in ((lambda p: harness._write_rows(p, rows, cfg),
                        lambda p: reference_write_rows(p, rows, top_m, strip_check)),
                       (lambda p: harness._write_aggregates(p, rows, key),
                        lambda p: reference_write_aggregates(p, rows, key))):
        write(tmp_path / "got.csv")
        ref(tmp_path / "want.csv")
        got, want = (tmp_path / "got.csv").read_bytes(), (tmp_path / "want.csv").read_bytes()
        assert got == want


def test_writers_match_reference_on_an_ensemble(tmp_path):
    cfg = ExperimentConfig(d=3, n_max=2000, trials=8, master_seed=41,
                           records_time=True, strip_check=True, top_m=5)
    res = run_ensemble(cfg, tmp_path / "out")
    # at a fixed m, norm_r (n >= 3) and strip_cov (n >= 16) are finite in
    # some trials and not in others: the batched reduction must group them
    mixed = set()
    for m in {r.m for r in res.rec_rows}:
        for col in ("norm_r", "strip_cov"):
            finite = {math.isfinite(getattr(r, col)) for r in res.rec_rows if r.m == m}
            if finite == {True, False}:
                mixed.add(col)
    assert mixed == {"norm_r", "strip_cov"}
    for rows, key in ((res.obs_rows, "n"), (res.rec_rows, "m")):
        assert_writers_match_reference(tmp_path, rows, key, cfg.top_m, cfg.strip_check)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_writers_match_reference_on_extreme_values(tmp_path):
    inf, nan, tiny, big = math.inf, math.nan, 5e-324, 1e308

    def row(trial, n, floats, bhat):
        f_minus, f_plus, width, dim_max_min, norm_fplus, norm_width, norm_r, strip = floats
        return CheckpointRow(trial, "obs", n, trial + 1, 1, trial, f_minus, f_plus, width,
                             dim_max_min, bhat, norm_fplus, norm_width, norm_r, strip)

    rows = [
        # n = 5: width is never finite (count 0); the other columns are finite
        # in different sets of trials, and 1e308 + 1e308 overflows the mean
        row(0, 5, (inf, big, nan, -0.0, tiny, -inf, 0.0, -0.0), (big, tiny, -0.0)),
        row(1, 5, (-0.0, big, nan, tiny, nan, 2.5, nan, 1.0), (inf, nan, -inf)),
        row(2, 5, (tiny, -inf, nan, -big, -tiny, nan, 3.0, np.float64(0.5)), (nan, nan, nan)),
        row(3, 5, (nan, 1.0, nan, 1.0, 7.0, 1e-300, -1e-300, nan), (0.1, 0.2, 0.3)),
        # n = 7: one row, so every sd is nan
        row(0, 7, (1.0, 2.0, 1.0, 0.5, -0.0, tiny, big, 0.25), (2.0, 1.0, 0.5)),
        # n = 2: the key sorts first although its row comes last
        row(4, 2, (nan, nan, nan, nan, nan, nan, nan, nan), (nan, nan, nan)),
    ]
    # the top sums repeat across rows, as a trial's rows share theirs, so
    # each distinct value may be formatted once: 0.0 and -0.0 are equal keys
    # but keep their own texts, in either order
    bhats = [(0.0, -0.0, tiny), (-0.0, 0.0, -inf), (1.5, -0.0, float("nan")),
             (1.5, 0.0, np.float64(nan)), (inf, 1.5, -nan), (inf - inf, tiny, 0.0)]
    shared = [row(t, 9, (1.5, 2.0, 0.5, 0.0, -0.0, nan, 0.25, -0.0), bhat)
              for t in range(4) for bhat in bhats]

    # records-time-like, in trial order: keys with 4, 3, 1 and 2 rows, and
    # norm_width finite in none, one and all rows of a key; the top sums
    # repeat, with NaNs of other sources, inf, -inf and the smallest
    # subnormal among them
    def rec_row(trial, m, norm_width):
        bhat = (inf, 1.5, (tiny, -inf, float("nan"), -nan)[trial % 4])
        return replace(row(trial, 10 * m + trial, (m, m + trial, trial, 0.5, nan,
                                                   norm_width, 0.1 * trial, tiny), bhat),
                       clock="rec", m=m)

    rec = [rec_row(0, 1, nan), rec_row(0, 2, inf), rec_row(0, 5, 1.0),
           rec_row(1, 1, nan), rec_row(1, 2, 0.75), rec_row(1, 5, 2.0),
           rec_row(2, 1, nan), rec_row(2, 2, nan), rec_row(3, 1, nan), rec_row(3, 3, -0.0)]
    for strip_check in (True, False):
        assert_writers_match_reference(tmp_path, rows, "n", 3, strip_check)
        assert_writers_match_reference(tmp_path, shared + rows, "n", 3, strip_check)
        assert_writers_match_reference(tmp_path, rec, "m", 3, strip_check)


def test_writers_match_reference_on_no_rows(tmp_path):
    for strip_check in (True, False):
        assert_writers_match_reference(tmp_path, [], "m", 4, strip_check)
    cfg = ExperimentConfig(d=2, n_max=10, top_m=2)
    harness._write_rows(tmp_path / "rows.csv", [], cfg)
    harness._write_aggregates(tmp_path / "agg.csv", [], "n")
    assert (tmp_path / "rows.csv").read_bytes() == (
        b"trial,clock,n,m,r,beta,f_minus,f_plus,width,dim_max_min,bhat_1,bhat_2,"
        b"norm_fplus,norm_width,norm_r\r\n")
    assert (tmp_path / "agg.csv").read_bytes().count(b"\r\n") == 1


def test_failed_write_leaves_no_partial_or_complete_looking_output(tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_ensemble(ExperimentConfig(d=2, n_max=300, trials=2, master_seed=1), out)
    old = tree_bytes(out)
    assert "summary.json" in old
    cfg = ExperimentConfig(d=2, n_max=500, trials=3, master_seed=2)
    new = tree_bytes(run_ensemble(cfg, tmp_path / "ref").out_dir)

    def fail(x):
        raise RuntimeError("statistic failed")

    # the aggregate writer fails after its header is written
    monkeypatch.setitem(harness._AGG_STATS, "max", fail)
    with pytest.raises(RuntimeError, match="statistic failed"):
        run_ensemble(cfg, out)
    left = tree_bytes(out)
    assert set(left) == {"rows_obs.csv", "aggregate_obs.csv"}  # no summary, no temporary
    assert left["rows_obs.csv"] == new["rows_obs.csv"]
    assert left["aggregate_obs.csv"] == old["aggregate_obs.csv"]


def load_module(path: Path):
    spec = importlib.util.spec_from_file_location(f"bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_bytes_match_benchmark_pins(tmp_path, monkeypatch):
    # the benchmark's rows_d2 (simulate and analyze CLI calls), ens_d3 and
    # ens_d2 operations at its default seed, threads=1, with the benchmark's own
    # checks; their files must hash to the pinned digests
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave benchmark/ as it is
    bench = Path(__file__).resolve().parent.parent / "benchmark"
    child = load_module(bench / "child.py")
    seed = load_module(bench / "run.py").DEFAULT_SEED
    pins = json.loads((bench / "pins.json").read_text())
    for name, workload in (("rows_d2", child.RowsCli), ("ens_d3", child.Ensemble),
                           ("ens_d2", child.Ensemble)):
        (tmp_path / name).mkdir()
        op = workload(name, seed, tmp_path / name).op(0, deep=True)
        assert op["failures"] == []
        assert op["sha256"] == pins[name], name


def test_missing_output_directory_raises(tmp_path):
    cfg = ExperimentConfig(d=2, n_max=50, trials=1)
    target = tmp_path / "absent" / "nested"
    with pytest.raises(OSError) as err:
        run_ensemble(cfg, target)
    assert str(target) in str(err.value)


def test_ks_worked_examples():
    assert ks_statistic([0.25, 0.75], "uniform") == 0.25
    # single sample: distance is max(F(x), 1 - F(x))
    assert ks_statistic([0.3], "uniform") == 0.7
    assert ks_statistic([0.5], "uniform") == 0.5
    with pytest.raises(ValueError):
        ks_statistic([], "uniform")
    with pytest.raises(ValueError):
        ks_statistic([0.5], "cauchy")
    with pytest.raises(ValueError):
        ks_statistic([math.nan], "uniform")
    # tags agree with hand-built callables
    xs = [0.1, 0.9, 2.5]
    assert ks_statistic(xs, "exponential") == ks_statistic(
        xs, lambda t: -np.expm1(-np.maximum(t, 0.0)))


def test_ks_null_calibration_and_power():
    # 0.025 is roughly twice the 95% null quantile at this sample size,
    # so every seeded uniform replicate should clear it
    for rep in range(8):
        u = ObservationStream(777, rep, 1).take_uniforms(10**4).ravel()
        assert ks_statistic(u, "uniform") < 0.025
    # and a wrong reference law is flagged loudly
    e = ObservationStream(778, 0, 1).take(10**4).ravel()
    assert ks_statistic(e, "uniform") > 0.2
    assert ks_statistic(e, "exponential") < 0.025
    g = -np.log(e)  # Gumbel via inverse transform of Exp(1)
    assert ks_statistic(g, "gumbel") < 0.025


def test_strip_coverage_cases():
    book = RecordBook(1)
    book.observe(np.array([1.0]))
    with pytest.raises(ValueError):
        strip_coverage(book)  # needs d >= 2
    small = RecordBook(2)
    small.observe(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        strip_coverage(small)  # needs n >= 16

    # one far-out record dominating everything else: coverage 0
    far = RecordBook(2)
    far.observe(np.array([50.0, 50.0]))
    for i in range(15):
        far.observe(np.array([0.01 + 1e-4 * i, 0.01]))
    assert far.r == 1 and far.n == 16
    assert strip_coverage(far) == 0.0

    # typical trajectories concentrate in the strip
    cfg = ExperimentConfig(d=2, n_max=10**4, checkpoints=(10**4,),
                           strip_check=True, master_seed=99)
    covs = [run_trial(cfg, t)[0].strip_cov for t in range(10)]
    assert min(covs) >= 0.9
    assert float(np.mean(covs)) >= 0.95


def test_strip_coverage_counts_the_mask_exactly():
    # the share of records in the strip is count / r, bitwise what the mean
    # of the in-strip mask gives, for any mask
    rng = np.random.default_rng(12)
    n, d = 10**4, 2
    log_n = math.log(n)
    lo = log_n - math.log(math.log(log_n)) - math.log(4 * (d - 1))
    hi = log_n + 4 * (d - 1) * math.log(log_n)
    outside = np.array([lo - 1.0, hi + 1.0])
    for size in list(range(1, 40)) + rng.integers(40, 301, 60).tolist():
        mask = rng.random(size) < rng.random()
        sums = np.where(mask, (lo + hi) / 2, outside[rng.integers(0, 2, size)])
        book = SimpleNamespace(d=d, n=n, record_sums=sums)
        got = strip_coverage(book)
        assert type(got) is float
        assert struct.pack("<d", got) == struct.pack("<d", float(np.mean(mask)))


def test_strip_column_gating():
    cfg = ExperimentConfig(d=2, n_max=20, checkpoints=(8, 20), strip_check=True)
    rows = run_trial(cfg, 0)
    assert math.isnan(rows[0].strip_cov)  # n = 8 < 16
    assert 0.0 <= rows[1].strip_cov <= 1.0
    plain = run_trial(ExperimentConfig(d=2, n_max=20, checkpoints=(20,)), 0)
    assert math.isnan(plain[0].strip_cov)


def test_lil_diagnostics_report():
    assert lil_diagnostics([]).obs_windows == []
    assert "empty" in lil_diagnostics([]).to_text()

    cfg = ExperimentConfig(d=2, n_max=4000, master_seed=6, records_time=True)
    rows = run_trial(cfg, 0)
    report = lil_diagnostics(rows)
    assert report.obs_windows and report.rec_windows
    for w in report.obs_windows:
        assert w["count"] >= 1
        assert w["fplus_min"] <= w["fplus_max"] <= w["run_fplus_max"]
        assert w["run_fminus_min"] <= w["fminus_min"] <= w["fminus_max"]
    run_vals = [w["run_fplus_max"] for w in report.obs_windows]
    assert run_vals == sorted(run_vals) or all(
        a <= b + 1e-15 for a, b in zip(run_vals, run_vals[1:]))
    run_mins = [w["run_fminus_min"] for w in report.obs_windows]
    assert all(a >= b for a, b in zip(run_mins, run_mins[1:]))
    for w in report.rec_windows:
        assert w["ratio_min"] <= w["ratio_max"] <= w["run_ratio_max"]
    text = report.to_text()
    assert "obs windows" in text and "rec windows" in text


def test_lil_windows_just_below_a_power_of_two():
    # log2 rounds 2**49 - 1 and 2**53 - 1 up to the next power, whose window
    # would leave the row out; each row must land in the window that holds it
    row = run_trial(ExperimentConfig(d=2, n_max=20, checkpoints=(20,)), 0)[0]
    rows = [replace(row, n=n) for n in (2**49 - 1, 2**53 - 1, 2**62)]
    rows += [replace(row, clock="rec", m=m) for m in (2**53 - 1, 2**53)]
    report = lil_diagnostics(rows)
    assert [(w["lo"], w["count"]) for w in report.obs_windows] == [
        (2**48, 1), (2**52, 1), (2**62, 1)]
    assert [(w["lo"], w["count"]) for w in report.rec_windows] == [(2**52, 1), (2**53, 1)]


def test_mean_record_count_matches_exact_curve():
    # ensemble mean of the record-count column against the exact series
    n, trials, d = 1000, 300, 2
    cfg = ExperimentConfig(d=d, n_max=n, checkpoints=(n,), master_seed=505)
    counts = np.array([run_trial(cfg, t)[0].m for t in range(trials)], dtype=float)
    exact = mean_records(n, d)
    se = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(counts.mean() - exact) <= 3.0 * se
