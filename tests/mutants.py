"""A catalogue of source mutants, and a runner that checks the tests catch them.

Each mutant changes one exact text, which occurs once in its file, into a
plausible fault: a strict comparison made weak, a proof's slack with the
wrong sign, a flag default that overrides the config file.  The tests it
names must fail on the mutated copy; a mutant they pass "survived".  A
survivor is closed by a new test, or logged as equivalent (its ``equivalent``
field says why no output can change).

Run it from any directory, with no arguments::

    python tests/mutants.py

It copies the checkout (``src``, ``tests``, ``benchmark``, ``demos`` and
``pyproject.toml``) into a temporary directory, runs every named test there
once unmutated, then applies each mutant in turn, runs its tests with
``PYTHONPATH`` set to the copy's ``src`` and restores the file.  The
checkout itself is never written to, except for ``MUTANTS.json`` at its
root, which records each result and the seconds taken.  The exit status is
0 when every mutant is caught or logged as equivalent, else 1.
Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "benchmark", "demos", "pyproject.toml")
TIMEOUT_S = 600  # a mutant that hangs its tests counts as caught


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to the checkout's root
    find: str  # occurs exactly once in the file
    replace: str
    tests: tuple  # pytest node ids, relative to the checkout's root
    why: str
    equivalent: str | None = None  # why no output can change, if none can


RECORDS = "src/paretorecords/records.py"
FRONTIER = "src/paretorecords/frontier.py"
HARNESS = "src/paretorecords/harness.py"
CLI = "src/paretorecords/cli.py"
RNG = "src/paretorecords/rng.py"
ANALYTICS = "src/paretorecords/analytics.py"

MUTANTS = (
    # -- the strict order x < y (every coordinate) ----------------------------
    Mutant("observe-tie-dominated", RECORDS,
           "if (recs > coords).all(axis=1).any():",
           "if (recs >= coords).all(axis=1).any():",
           ("tests/test_cli.py::test_selftest_clean",),
           "Ties block domination: a point equal to a record in one coordinate "
           "is a record.  With >= duplicates stop setting records; the "
           "selftest's record-dominance and record-oracle suites must see it."),
    Mutant("observe-tie-kill", RECORDS,
           "killed = (coords > recs).all(axis=1)",
           "killed = (coords >= recs).all(axis=1)",
           ("tests/test_records.py",),
           "A new record breaks only the records it strictly dominates; with "
           ">= it also breaks those it ties."),
    Mutant("block-masks-tie-dominated", RECORDS,
           "cols_a[:, :, None] > cols_b[:, None, :]",
           "cols_a[:, :, None] >= cols_b[:, None, :]",
           ("tests/test_records.py::test_dominated_by_current_leaves_tied_points",
            "tests/test_harness.py::test_in_block_records_match_the_per_point_book"),
           "One strict-dominance mask serves the engine's stage 2, its in-block "
           "record flags, its kill mask and the corners' kill test; with >= "
           "stage 2 drops tied points that are records, and every candidate "
           "beats itself."),
    Mutant("strictly-dominates-tie", RECORDS,
           "np.all(ca > _as_coords(b, ca.size))",
           "np.all(ca >= _as_coords(b, ca.size))",
           ("tests/test_records.py::test_strict_domination_basics",),
           "The public predicate must be the paper's strict order."),
    # -- top sums ---------------------------------------------------------------
    Mutant("top-no-drop-when-full", RECORDS,
           "end = min(top.size, self.top_capacity - 1)",
           "end = top.size",
           ("tests/test_records.py",),
           "A full top-sums buffer must drop its smallest sum when one enters."),
    Mutant("top-gate-on-smallest", RECORDS,
           "(sums[0] if one else sums.max())",
           "(sums[0] if one else sums.min())",
           ("tests/test_records.py",),
           "A run of sums may enter the top sums when its largest does; "
           "gating on its smallest loses sums."),
    # -- the engine's filters -----------------------------------------------------
    Mutant("sum-filter-margin-sign", HARNESS,
           "_SUM_FILTER_MARGIN = 1e-9",
           "_SUM_FILTER_MARGIN = -1e-9",
           ("tests/test_harness.py::test_record_just_above_f_minus_is_kept",),
           "The sum filter keeps points down to F- minus the margin; with the "
           "sign flipped it drops records whose sum lies within 1e-9 above F-, "
           "which stream data almost never holds."),
    Mutant("uniform-slack-sign", HARNESS,
           "q <= math.exp(slack - floor)",
           "q <= math.exp(-slack - floor)",
           ("tests/test_harness.py::test_uniform_filter_keeps_every_sum_at_the_floor",),
           "The product test's slack covers rounding; with the wrong sign it "
           "drops points whose computed sum is at the floor."),
    Mutant("word-bound-slack-sign", HARNESS,
           "b = (floor - 2.0 * slack) / d",
           "b = (floor + 2.0 * slack) / d",
           ("tests/test_harness.py::test_word_gate_keeps_every_row_the_product_test_keeps",),
           "The word gate must pass every row the product test keeps; the "
           "slack's sign is what its proof rests on."),
    Mutant("word-gate-first-column", HARNESS,
           "for j in range(1, words.shape[1]):",
           "for j in range(1, 1):",
           ("tests/test_harness.py::test_word_gate_keeps_every_row_the_product_test_keeps",),
           "The gate must look at every used word of a row, not the first."),
    Mutant("word-gate-low-guard", HARNESS,
           "if not 0.0 < floor < _UNIFORM_FILTER_LIMIT:",
           "if not floor < _UNIFORM_FILTER_LIMIT:",
           ("tests/test_harness.py::test_stage1_matches_the_uniform_path",),
           "Without a floor (-inf) there is no bound; the bound's arithmetic "
           "gives NaN there, and math.ceil raises."),
    Mutant("word-gate-limit-guard", HARNESS,
           "if not 0.0 < floor < _UNIFORM_FILTER_LIMIT:",
           "if not 0.0 < floor:",
           ("tests/test_harness.py::test_stage1_matches_the_uniform_path",),
           "At and above the limit the product test keeps every row, so the "
           "gate must too."),
    Mutant("word-gate-block-threshold", HARNESS,
           "if stream.dim * (2.0**64 - bound) > _WORD_GATE_PASS * 2.0**64:",
           "if take < 4096 or stream.dim * (2.0**64 - bound) > _WORD_GATE_PASS * 2.0**64:",
           ("tests/test_harness.py::test_stage1_matches_the_uniform_path",),
           "The gate's pass-share bound alone picks words or uniforms; a block "
           "size threshold came back."),
    Mutant("engine-ignores-chunk", HARNESS,
           "take = min(_CHUNK, end - pos, max(3 * pos, _FIRST_BLOCK))",
           "take = min(1 << 16, end - pos, max(3 * pos, _FIRST_BLOCK))",
           ("tests/test_harness.py::test_trial_determinism_and_chunk_invariance",),
           "The block cap is _CHUNK, read when the generator runs; the "
           "chunk-invariance tests only mean something if it is."),
    Mutant("block-growth-doubling", HARNESS,
           "max(3 * pos, _FIRST_BLOCK)",
           "max(pos, _FIRST_BLOCK)",
           ("tests/test_harness.py::test_blocks_follow_the_stream_schedule_not_the_grid",),
           "Each block costs one corner step, so blocks grow fourfold; blocks "
           "that double give the same states in about twice as many steps, "
           "which only the schedule test sees."),
    Mutant("floor-while-top-fills", HARNESS,
           "top[-1] if top.size == cfg.top_m else -math.inf",
           "top[-1] if top.size else -math.inf",
           ("tests/test_harness.py::test_trajectory_matches_frozen_full_block_engine",),
           "While the top sums are filling every sum enters them, so there is "
           "no floor from them yet."),
    # -- a block's records, applied in segments -------------------------------------
    Mutant("in-block-flag-direction", RECORDS,
           "dom = _beats(a[lo:lo + step], b)",
           "dom = _beats(b, a[lo:lo + step]).T",
           ("tests/test_harness.py::test_in_block_records_match_the_per_point_book",),
           "A candidate is a record iff no earlier candidate of its block "
           "strictly dominates it, not iff it dominates none before it."),
    Mutant("in-block-first-hit-order", RECORDS,
           "for lo in reversed(range(0, c, step)):",
           "for lo in range(0, c, step):",
           ("tests/test_harness.py::test_flag_step_memory_is_bounded",),
           "With the row blocks in forward order a later dominator overwrites "
           "an earlier one, and a candidate beaten by both reads as a record."),
    Mutant("flag-rows-unbounded", RECORDS,
           "step = max(1, _BEATS_CELLS // max(1, len(b) * d))",
           "step = c",
           ("tests/test_harness.py::test_flag_step_memory_is_bounded",),
           "One (d, c, c) comparison for a block of c candidates needs c * c * d "
           "bytes: over 96 MB for 4096 candidates at d = 6."),
    Mutant("segment-alive-inverted", HARNESS,
           "cpts.take([k for k in recs[a:b] if first[k] >= stop], axis=0)",
           "cpts.take([k for k in recs[a:b] if first[k] < stop], axis=0)",
           ("tests/test_harness.py::test_in_block_records_match_the_per_point_book",),
           "The book and the corners take a segment's records that no later "
           "candidate of the segment beats, not those it beats."),
    Mutant("segment-alive-dropped", HARNESS,
           "cpts.take([k for k in recs[a:b] if first[k] >= stop], axis=0)",
           "cpts.take(recs[a:b], axis=0)",
           ("tests/test_harness.py::test_in_block_records_match_the_per_point_book",),
           "A record killed within its own segment is not current at the "
           "segment's end."),
    Mutant("segment-epochs-off-by-one", HARNESS,
           "epochs = [pos + at[k] + 1 for k in recs]",
           "epochs = [pos + at[k] for k in recs]",
           ("tests/test_harness.py::test_in_block_records_match_the_per_point_book",),
           "Record epochs are 1-based observation counts."),
    Mutant("segment-end-off-by-one", HARNESS,
           'cand[k] + 1, at[k] + 1, "rec")',
           'cand[k] + 1, at[k], "rec")',
           ("tests/test_harness.py::test_in_block_records_match_the_per_point_book",),
           "A records-clock state comes after its record's observation, so n "
           "counts it."),
    Mutant("grid-stop-candidates-off-by-one", HARNESS,
           "bisect_left(at, o)",
           "bisect_left(at, o - 1)",
           ("tests/test_harness.py::test_grid_stops_inside_blocks_keep_the_per_point_book",),
           "A grid stop's segment holds the candidate at the stop's own "
           "observation; without it, a record that candidate kills in the "
           "segment reads as current."),
    Mutant("grid-stop-survivors-off-by-one", HARNESS,
           "kept.searchsorted(marks)",
           "kept.searchsorted(marks, side=\"right\")",
           ("tests/test_harness.py::test_grid_stops_inside_blocks_keep_the_per_point_book",),
           "A grid stop's segment ends at its own observation; counting the "
           "stage-1 survivor after it puts the next observation's sum in the "
           "top sums a state early."),
    Mutant("grid-stop-before-record", HARNESS,
           "stops.sort(key=itemgetter(3))",
           "stops.sort(key=itemgetter(3, 4))",
           ("tests/test_harness.py::test_grid_stops_inside_blocks_keep_the_per_point_book",),
           "Where a record and a grid point share an n, the record's state "
           "comes first; sorting on the clock's name puts \"obs\" before "
           "\"rec\"."),
    Mutant("extend-kill-direction", RECORDS,
           "beats = _beats(current, recs)",
           "beats = _beats(recs, current).T",
           ("tests/test_harness.py::test_in_block_records_match_the_per_point_book",),
           "A segment's current records break the book's records they "
           "dominate, not those that dominate them (none do)."),
    Mutant("extend-kill-skipped", RECORDS,
           "if np.count_nonzero(beats):",
           "if False:",
           ("tests/test_harness.py::test_in_block_records_match_the_per_point_book",),
           "A block-start record that an in-block record dominates is broken."),
    # -- output ---------------------------------------------------------------------
    Mutant("rows-float-keys", HARNESS,
           "np.unique(block.view(np.uint64), return_inverse=True)",
           "np.unique(block, return_inverse=True)",
           ("tests/test_harness.py::test_writers_match_reference_on_extreme_values",),
           "The rows writer keys texts by bit pattern: float keys merge 0.0 "
           "with -0.0 and split NaNs."),
    # -- region corners -------------------------------------------------------------
    Mutant("dead-scan-ties", FRONTIER,
           "first, dead = None, _beats(zs, pts)[0]",
           "first, dead = None, (pts <= zs).all(axis=1)",
           ("tests/test_frontier.py",),
           "A record kills only the corners it strictly dominates; a corner it "
           "ties stays in the region."),
    Mutant("corner-rule-ties", FRONTIER,
           "above = rows.take(src[part], axis=0) > zk[:, None, :]",
           "above = rows.take(src[part], axis=0) >= zk[:, None, :]",
           ("tests/test_frontier.py",),
           "A candidate corner is kept only where a defining record strictly "
           "exceeds the new record.",
           equivalent="this comparison runs only while no two rows of rows "
           "share a value in any coordinate (a batch of one sets _tied from "
           "(seen == zs) just before; a larger batch with a tie goes one "
           "record at a time), a defining row is never its corner's killer, "
           "and the diagonal is set True after the comparison, so > and >= "
           "agree on every element"),
    Mutant("corner-rule-ties-tied", FRONTIER,
           "np.matmul(defines.transpose(0, 2, 1), seen > z)",
           "np.matmul(defines.transpose(0, 2, 1), seen >= z)",
           ("tests/test_frontier.py",),
           "Once records tie, a defining record must strictly exceed the new "
           "record; a tied one does not keep the candidate corner."),
    Mutant("tie-lookup-off", FRONTIER,
           "self._tied = self._tied or bool(np.logical_or.reduce(seen == zs, axis=None))",
           "self._tied = self._tied",
           ("tests/test_frontier.py",),
           "Once two records tie, the stored defining record need not be the "
           "only one, so the rule must look them up among all rows."),
    Mutant("corner-sums-unrounded", FRONTIER,
           "list(map(math.fsum, cand[a:a + step].tolist()))",
           "cand[a:a + step].sum(axis=1)",
           ("tests/test_frontier.py",),
           "F- is the correctly rounded sum of its corner, bit for bit the "
           "min-cover formula's."),
    # -- region corners, a batch of records in one step ---------------------------------
    Mutant("later-records-window-late", FRONTIER,
           "lo = int(by.min(initial=m - 1)) + 1",
           "lo = int(by.min(initial=m - 1)) + 2",
           ("tests/test_frontier.py::test_corner_batch_chain_runs_in_rounds",),
           "A round's new corners are tested against every record after the "
           "earliest one that made them; starting a record later misses the "
           "next record's kills, and a dead corner stays."),
    Mutant("first-killer-taken-last", RECORDS,
           "hit = dom.argmax(axis=0)",
           "hit = len(dom) - 1 - dom[::-1].argmax(axis=0)",
           ("tests/test_frontier.py::test_corner_batch_chain_runs_in_rounds",),
           "A corner dies at the first record of its batch that strictly "
           "dominates it; built against a later killer, its candidates skip "
           "the records between."),
    Mutant("birth-row-off-by-one", FRONTIER,
           "len(seen) + by[:, None]",
           "len(seen) + by[:, None] - 1",
           ("tests/test_frontier.py::test_corner_batch_record_killing_nothing_comes_first",),
           "Record b of a batch is row len(seen) + b of _seen; a new corner's "
           "coordinate j names that row as its defining record, even where an "
           "earlier record of the batch killed nothing."),
    Mutant("batch-tie-fallback-off", FRONTIER,
           "if m > 1 and (self._tied or _ties(np.concatenate((self._seen, zs)))):",
           "if False:",
           ("tests/test_frontier.py::test_corner_batches_match_one_at_a_time",),
           "Where a batch ties a stored row or itself, the stored row of a "
           "corner coordinate need not be its only defining record, and a "
           "later record's row may define it: the batch must go one record at "
           "a time."),
    Mutant("corner-kill-unbounded", FRONTIER,
           "first = _first_beaters(zs, pts)",
           "first = np.where(_beats(zs, pts).any(axis=0), _beats(zs, pts).argmax(axis=0), m)",
           ("tests/test_frontier.py::test_region_corners_batch_memory_is_bounded",),
           "The kill test compares every record of a batch with every corner: "
           "in one piece that is d * m * k booleans, over 37 MB for 2000 "
           "records and 3239 corners at d = 6."),
    Mutant("round-slices-unbounded", FRONTIER,
           "step = max(1, _BEATS_CELLS // (d * d))",
           "step = max(1, len(lost))",
           ("tests/test_frontier.py::test_region_corner_rounds_are_bounded",),
           "A round gathers the defining rows of its dead corners as a (dead, "
           "d, d) float array; in one piece that is over 26 MB for the 51,423 "
           "corners one record kills at d = 8."),
    # -- prefix tables ----------------------------------------------------------------
    Mutant("prefix-recurrence-shift", ANALYTICS,
           "ps[1:] = (1.0 if s is None else s[1:]) / ms",
           "ps[1:] = (1.0 if s is None else s[:-1]) / ms",
           ("tests/test_analytics.py::test_recurrence_matches_rationals_from_n_1",),
           "n p(n, d) is the mean number of records among n observations in "
           "d - 1, S[n] of the level below, not S[n - 1]."),
    Mutant("climb-base-one-level-low", ANALYTICS,
           "if k < d), default=0)",
           "if k < d - 1), default=0)",
           ("tests/test_analytics.py::test_prefix_cache_bounded_and_descending_sweep_cheap",),
           "A climb starts from the highest cached level below d; one level "
           "lower gives the same floats at twice the steps of an ascending "
           "sweep."),
    Mutant("prefix-hit-keeps-age", ANALYTICS,
           "    s = _PREFIX.pop(d, None)\n"
           "    if s is not None:\n"
           "        _PREFIX[d] = s  # re-inserted: _PREFIX's order is the eviction order\n",
           "    s = _PREFIX.get(d)\n"
           "    if s is not None:\n",
           ("tests/test_analytics.py::test_prefix_cache_evicts_the_least_recently_requested",),
           "A requested level moves to the end of the eviction order; left in "
           "place, the cache evicts the oldest level built, however recently "
           "it was asked for, and a sweep that returns to it climbs again."),
    # -- command line -----------------------------------------------------------------
    Mutant("records-time-default", CLI,
           'sim.add_argument("--records-time", action="store_const", const=True)',
           'sim.add_argument("--records-time", action="store_const", const=True, default=False)',
           ("tests/test_cli.py::test_config_file_switches_stay_on_without_flags",),
           "An absent switch must leave the config file's value alone."),
    Mutant("strip-check-default", CLI,
           'sim.add_argument("--strip-check", action="store_const", const=True)',
           'sim.add_argument("--strip-check", action="store_const", const=True, default=False)',
           ("tests/test_cli.py::test_config_file_switches_stay_on_without_flags",),
           "An absent switch must leave the config file's value alone."),
    Mutant("seed-dest", CLI,
           'sim.add_argument("--seed", dest="master_seed", type=int, metavar="SEED")',
           'sim.add_argument("--seed", type=int, metavar="SEED")',
           ("tests/test_cli.py::test_config_file_switches_stay_on_without_flags",),
           "Each simulate flag's dest is its config field; --seed sets "
           "master_seed."),
    # -- streams ----------------------------------------------------------------------
    Mutant("stream-seek-keeps-generator", RNG,
           "if self._gen_index != obs_index:",
           "if self._gen is None:",
           ("tests/test_rng.py::test_reused_generator_reads_match_fresh_streams",),
           "A read after a seek must start at the new address."),
    Mutant("stream-copies-share-generator", RNG,
           'return {**self.__dict__, "_gen": None, "_gen_index": -1}',
           "return dict(self.__dict__)",
           ("tests/test_rng.py::test_copies_never_share_bits",),
           "A copy sharing the generator advances it under both streams."),
    # -- analytics --------------------------------------------------------------------
    Mutant("sampler-newton-underflow-guard", ANALYTICS,
           "newton = excess / f_y if partial > 0.0 and f_y > 0.0 else math.inf",
           "newton = excess / f_y if f_y > 0.0 else math.inf",
           ("tests/test_analytics.py::test_sample_y_matches_bisection_reference",),
           "Where the mass over [a, y] underflowed to zero the residual says "
           "nothing about y, so no Newton step may be taken from it."),
    Mutant("sampler-residual-order", ANALYTICS,
           "excess = (base - target) + partial",
           "excess = base + partial - target",
           ("tests/test_analytics.py::test_sample_y_matches_bisection_reference",),
           "Where the CDF is flat in floats (u near 1), base + partial rounds "
           "the partial mass away; base - target must be formed first."),
    Mutant("sampler-bracket-before-convergence", ANALYTICS,
           "            if abs(newton) < _NEWTON_TOL:\n"
           "                return min(max(y - newton, lo), hi)\n"
           "            if hi - lo < _BRACKET_TOL:\n"
           "                break\n",
           "            if hi - lo < _BRACKET_TOL:\n"
           "                break\n"
           "            if abs(newton) < _NEWTON_TOL:\n"
           "                return min(max(y - newton, lo), hi)\n",
           ("tests/test_analytics.py::test_sampler_draws_are_bitwise_pinned",),
           "A converged Newton step may land on lo or hi; testing the bracket "
           "first bisects it away and returns the bracket's midpoint."),
    Mutant("gumbel-overflow-warns", ANALYTICS,
           'with np.errstate(over="ignore"):',
           "with np.errstate():",
           ("tests/test_analytics.py::test_gumbel_cdf_silent_where_inner_exp_overflows",),
           "gumbel_cdf is 0.0, silently, where its inner exp overflows."),
)


def mutate(text: str, mutant: Mutant) -> str:
    """``text`` with the mutant's one occurrence of ``find`` replaced."""
    count = text.count(mutant.find)
    if count != 1:
        raise ValueError(f"{mutant.id}: {mutant.find!r} occurs {count} times in {mutant.file}")
    return text.replace(mutant.find, mutant.replace)


def apply(mutant: Mutant, root: Path) -> str:
    """Mutate the mutant's file under ``root``; return its original text."""
    path = root / mutant.file
    original = path.read_text()
    path.write_text(mutate(original, mutant))
    return original


def copy_checkout(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run_tests(tests, root: Path) -> tuple:
    """pytest's return code (None on a timeout), the seconds taken and the
    first failure it reports, for ``tests`` run in ``root`` with the
    package imported from ``root / "src"``."""
    # no bytecode: a mutant and the original can share a size and an mtime
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    t0 = time.perf_counter()
    try:
        res = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                             timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - t0, f"timed out after {TIMEOUT_S} s"
    failed = [line for line in res.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return res.returncode, time.perf_counter() - t0, (failed or [None])[0]


def src_digest(root: Path) -> str:
    """sha256 over the package's sources, paths included."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    every = sorted({test for m in MUTANTS for test in m.tests})
    digest = src_digest(ROOT)
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        root = Path(tmp)
        copy_checkout(root)
        code, baseline_s, _ = run_tests(every, root)
        print(f"{'unmutated':32s} {'passed' if code == 0 else 'FAILED':9s} {baseline_s:7.1f} s", flush=True)
        if code != 0:
            print("the named tests must pass on the unmutated copy", file=sys.stderr)
            return 1
        for m in MUTANTS:
            original = apply(m, root)
            try:
                code, seconds, first_failure = run_tests(m.tests, root)
            finally:
                (root / m.file).write_text(original)
            result = "survived" if code == 0 else "caught"
            note = f"  equivalent: {m.equivalent}" if result == "survived" and m.equivalent else ""
            print(f"{m.id:32s} {result:9s} {seconds:7.1f} s{note}", flush=True)
            results.append({**asdict(m), "result": result,
                            "returncode": code, "first_failure": first_failure,
                            "seconds": round(seconds, 2)})
    open_survivors = [r["id"] for r in results if r["result"] == "survived" and not r["equivalent"]]
    report = {
        "command": "python tests/mutants.py",
        "src_sha256": digest,
        "host": {"machine": platform.machine(), "processor": platform.processor(),
                 "cpus": os.cpu_count(), "python": platform.python_version(),
                 "system": platform.system()},
        "baseline_s": round(baseline_s, 2),
        "caught": sum(r["result"] == "caught" for r in results),
        "survived": sum(r["result"] == "survived" for r in results),
        "open_survivors": open_survivors,
        "mutants": results,
    }
    (ROOT / "MUTANTS.json").write_text(json.dumps(report, indent=2) + "\n")
    return 1 if open_survivors else 0


if __name__ == "__main__":
    sys.exit(main())
