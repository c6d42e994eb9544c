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
    Mutant("stage2-tie-dominated", RECORDS,
           "np.all(recs[:, None, :] > pts[None, :, :], axis=2)",
           "np.all(recs[:, None, :] >= pts[None, :, :], axis=2)",
           ("tests/test_records.py::test_dominated_by_current_leaves_tied_points",),
           "The engine's stage 2 drops the points some record dominates; with "
           ">= it drops tied points that are records."),
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
           "take = min(_CHUNK, target - pos, max(pos, _FIRST_BLOCK))",
           "take = min(1 << 16, target - pos, max(pos, _FIRST_BLOCK))",
           ("tests/test_harness.py::test_trial_determinism_and_chunk_invariance",),
           "The block cap is _CHUNK, read when the generator runs; the "
           "chunk-invariance tests only mean something if it is."),
    Mutant("floor-while-top-fills", HARNESS,
           "top[-1] if top.size == cfg.top_m else -math.inf",
           "top[-1] if top.size else -math.inf",
           ("tests/test_harness.py::test_trajectory_matches_frozen_full_block_engine",),
           "While the top sums are filling every sum enters them, so there is "
           "no floor from them yet."),
    # -- output ---------------------------------------------------------------------
    Mutant("rows-float-keys", HARNESS,
           "np.unique(block.view(np.uint64), return_inverse=True)",
           "np.unique(block, return_inverse=True)",
           ("tests/test_harness.py::test_writers_match_reference_on_extreme_values",),
           "The rows writer keys texts by bit pattern: float keys merge 0.0 "
           "with -0.0 and split NaNs."),
    # -- region corners -------------------------------------------------------------
    Mutant("dead-scan-ties", FRONTIER,
           "dead = (pts < z).all(axis=1)",
           "dead = (pts <= z).all(axis=1)",
           ("tests/test_frontier.py",),
           "A record kills only the corners it strictly dominates; a corner it "
           "ties stays in the region."),
    Mutant("corner-rule-ties", FRONTIER,
           "seen.take(src, axis=0) > z + self._own",
           "seen.take(src, axis=0) >= z + self._own",
           ("tests/test_frontier.py",),
           "A candidate corner is kept only where a defining record strictly "
           "exceeds the new record.",
           equivalent="this comparison runs only while no stored row equals z "
           "in any coordinate (_tied is set from (seen == z).any() just "
           "before), and on the diagonal z_j - inf is below every row, so > "
           "and >= agree on every element"),
    Mutant("corner-rule-ties-tied", FRONTIER,
           "np.matmul(defines.transpose(0, 2, 1), seen > z)",
           "np.matmul(defines.transpose(0, 2, 1), seen >= z)",
           ("tests/test_frontier.py",),
           "Once records tie, a defining record must strictly exceed the new "
           "record; a tied one does not keep the candidate corner."),
    Mutant("tie-lookup-off", FRONTIER,
           "self._tied = self._tied or bool((seen == z).any())",
           "self._tied = self._tied",
           ("tests/test_frontier.py",),
           "Once two records tie, the stored defining record need not be the "
           "only one, so the rule must look them up among all rows."),
    Mutant("corner-sums-unrounded", FRONTIER,
           "[math.fsum(c) for c in cand.tolist()]",
           "cand.sum(axis=1)",
           ("tests/test_frontier.py",),
           "F- is the correctly rounded sum of its corner, bit for bit the "
           "min-cover formula's."),
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
