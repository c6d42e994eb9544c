"""One benchmark process: import the package from the checkout, build one
workload's inputs, run its operations, check every output, report JSON.

``run.py`` starts this file in a fresh interpreter and never imports the
package itself.  Protocol on stdout: a ``READY`` line once the package is
imported and the inputs are built, then one ``RESULT <json>`` line.  Other
stdout of the package is captured and checked, never passed through.

Operations, each timed as a whole (``op_s``) and by part (``parts``):
- ``ens_d2`` / ``ens_d3``: one ``run_ensemble`` call.
- ``rows_d2``: one ``simulate`` CLI call, then one ``analyze`` CLI call.
- ``exact``: the cold analytic query list, then the ``sample_y`` draws.  One
  operation per process, because the caches must be cold.

Untraced ensemble runs give every operation its own inputs (seed-derived
master seeds, the first one equal to the workload seed), so that a run
averages over many trials.  Traced runs repeat the first operation's inputs,
alternating untraced and traced executions, so the tracing overhead is
measured on identical work and every traced count must repeat exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import statistics
import struct
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ENSEMBLES = {
    "ens_d2": dict(d=2, n_max=10**6, trials=8, top_m=8, strip_check=True,
                   checkpoints=(10**3, 10**4, 10**5, 10**6)),
    "ens_d3": dict(d=3, n_max=10**4, trials=6, top_m=8, checkpoints=(10**3, 10**4)),
}
ROWS_D2 = dict(d=2, n_max=10**5, trials=16, top_m=64)
EXACT_DIMS = (1, 2, 3, 4)
EXACT_NS = tuple(range(2, 101)) + (1000, 5000, 29999, 30000)
EXACT_LARGE_NS = (10**5, 10**7, 10**9)
SAMPLE_Y = dict(n=10**5, d=2, draws=2000, repeat=100)

# Reference host speed.  The shared host changes speed by up to 60 % for
# seconds to minutes at a time, in CPU time as much as in wall time, and
# interpreted Python and numpy kernels slow by different amounts.  Every
# timing is therefore divided by the host's slowness, measured right before
# and after it by two fixed kernels (calibrate) and weighted by the
# interpreted share of the timed work, as its profile gives it.  The
# references are the kernels' times on an unloaded 2-vCPU Xeon.
CAL_REPS, CAL_LOOP, CAL_ARRAY = 3, 50000, 1 << 16
INTERP_REF_S, NUMPY_REF_S = 0.0047, 0.0018
INTERP_SHARE = {
    "setup": 1.0,    # imports: unmarshalling and module code
    "ens_d2": 0.5,   # Philox, log1p and coordinate sums; per-chunk Python
    "ens_d3": 1.0,   # F- branch and bound
    "rows_d2": 0.75, # row objects, CSV text, load_rows parsing
    "exact": 0.2,    # _p_batch quadrature on node grids; sample_y inversion
}

# Reference tolerances.  The quadrature route is within 7.4e-16 of the exact
# rationals for n <= 100 and within 7.7e-15 of mpmath up to n = 10^9; the
# planned positive-term recurrence is within 2.3e-16 and 8e-15 of those.
RATIONAL_RTOL = 2e-15
MPMATH_RTOL = 5e-14
MPMATH_DPS = 20  # agrees with 30 digits to 3e-18 on every reference used


def calibrate() -> tuple[float, float]:
    """Seconds of the two calibration kernels, each the median of CAL_REPS
    runs: interpreted Python (dict stores in a loop) and numpy (log1p,
    running maximum and sort on 2^16 doubles).  Neither uses the package."""
    import numpy as np
    data = np.random.default_rng(0).random(CAL_ARRAY)
    interp, vector = [], []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(CAL_LOOP):
            acc += i % 7
            table[i & 255] = (acc, i)
        t1 = time.perf_counter()
        for _ in range(4):
            b = np.log1p(data)
            np.maximum.accumulate(b, out=b)
            b.sort()
        t2 = time.perf_counter()
        interp.append(t1 - t0)
        vector.append(t2 - t1)
    return statistics.median(interp), statistics.median(vector)


def slowness(share: float) -> float:
    """The host's slowness now, for work whose interpreted share is share:
    1 at reference speed, 1.5 when that work takes half again as long."""
    interp, vector = calibrate()
    return share * interp / INTERP_REF_S + (1.0 - share) * vector / NUMPY_REF_S


def op_seed(seed: int, k: int) -> int:
    """Master seed of operation k: the workload seed, then hashed offsets."""
    if k == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def sha256_files(directory: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())}


def _bits(x: float) -> bytes:
    return struct.pack("<d", float(x))


def check_rows_bitwise(path: Path, rows: list) -> list:
    """load_rows output against the CSV text, field by field, bit for bit."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        records = list(reader)
    if len(records) != len(rows):
        return [f"{path.name}: load_rows gave {len(rows)} rows, file has {len(records)}"]
    for i, (rec, row) in enumerate(zip(records, rows)):
        for col, text in zip(header, rec):
            if col.startswith("bhat_"):
                got = row.bhat[int(col[5:]) - 1]
            else:
                got = getattr(row, col)
            if isinstance(got, (str, int)):
                ok = str(got) == text
            else:
                ok = _bits(got) == _bits(float(text))
            if not ok:
                return [f"{path.name} row {i} column {col}: loaded {got!r}, file {text!r}"]
    return []


def _same_rows(a: list, b: list) -> bool:
    def bits(v):
        if isinstance(v, float):
            return _bits(v)
        if isinstance(v, tuple):
            return tuple(map(bits, v))
        return v

    def key(row):
        return [bits(v) for v in vars(row).values()]
    return len(a) == len(b) and all(key(x) == key(y) for x, y in zip(a, b))


def _check_summary(out: Path, want: dict, expect_files: set) -> list:
    present = {p.name for p in out.iterdir()}
    if present != expect_files:
        return [f"output files {sorted(present)} != {sorted(expect_files)}"]
    problems = []
    summary = json.loads((out / "summary.json").read_text())
    cfg = summary.get("config", {})
    for key, value in want.items():
        if cfg.get(key) != value:
            problems.append(f"summary config {key}={cfg.get(key)!r}, expected {value!r}")
    if summary.get("rows_obs") != want["trials"] * len(summary.get("grid", ())):
        problems.append(f"summary rows_obs={summary.get('rows_obs')} for "
                        f"{want['trials']} trials x {len(summary.get('grid', ()))} checkpoints")
    return problems


class Workload:
    """Shared operation loop; subclasses define one operation."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name, self.seed, self.workdir = name, seed, workdir

    def loop(self, seconds: float, trace: bool, tracer=None) -> list:
        ops = []
        start = time.perf_counter()
        k = 0
        cal_before = slowness(INTERP_SHARE[self.name])
        while len(ops) < 1 + trace or time.perf_counter() - start < seconds:
            traced = trace and k % 2 == 1
            content = 0 if trace else k
            if traced:
                tracer.install()
            try:
                op = self.op(content, deep=(k == 0))
            except Exception:
                op = {"attempted": self.ops_per_call, "failed": self.ops_per_call,
                      "failures": [traceback.format_exc()]}
            finally:
                if traced:
                    tracer.uninstall()
            cal_after = slowness(INTERP_SHARE[self.name])
            op["slowness"] = (cal_before + cal_after) / 2
            cal_before = cal_after
            op["traced"] = traced
            op["content"] = content
            if traced:
                op["trace"] = tracer.snapshot()
            ops.append(op)
            if op["failures"] and "op_s" not in op:
                break  # an operation that raised will raise again
            k += 1
        return ops


class Ensemble(Workload):
    ops_per_call = 1

    def __init__(self, name, seed, workdir):
        super().__init__(name, seed, workdir)
        from paretorecords import harness
        self.harness = harness
        self.spec = ENSEMBLES[name]
        self.configs = {0: self.config(0)}

    def config(self, k: int):
        return self.harness.ExperimentConfig(master_seed=op_seed(self.seed, k), **self.spec)

    def op(self, k: int, deep: bool) -> dict:
        cfg = self.configs.get(k) or self.config(k)
        out = self.workdir / f"op{k}"
        if out.exists():
            shutil.rmtree(out)
        t0 = time.perf_counter()
        result = self.harness.run_ensemble(cfg, out, threads=1)
        elapsed = time.perf_counter() - t0
        want = {"d": cfg.d, "n_max": cfg.n_max, "trials": cfg.trials,
                "master_seed": cfg.master_seed}
        failures = _check_summary(
            out, want, {"rows_obs.csv", "aggregate_obs.csv", "summary.json"})
        if deep:
            loaded = self.harness.load_rows(out / "rows_obs.csv")
            if not _same_rows(loaded, result.obs_rows):
                failures.append("load_rows does not give back the ensemble's rows bitwise")
            failures += check_rows_bitwise(out / "rows_obs.csv", loaded)
        hashes = sha256_files(out)
        shutil.rmtree(out)
        return {"op_s": elapsed, "parts": {"ensemble_s": elapsed},
                "obs": cfg.trials * cfg.n_max,
                "attempted": 1, "failed": int(bool(failures)),
                "failures": failures, "sha256": hashes}


class RowsCli(Workload):
    ops_per_call = 2

    def __init__(self, name, seed, workdir):
        super().__init__(name, seed, workdir)
        from paretorecords import cli
        self.cli = cli
        self.argv = {0: self.simulate_argv(0)}

    def simulate_argv(self, k: int) -> list:
        s = ROWS_D2
        return ["simulate", "--d", str(s["d"]), "--n-max", str(s["n_max"]),
                "--trials", str(s["trials"]), "--seed", str(op_seed(self.seed, k)),
                "--top-m", str(s["top_m"]), "--records-time", "--strip-check",
                "--threads", "1", "--out-dir", str(self.workdir / f"op{k}")]

    def _call(self, argv: list) -> tuple[int, str, float]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue(), time.perf_counter() - t0

    def op(self, k: int, deep: bool) -> dict:
        argv = self.argv.get(k) or self.simulate_argv(k)
        out = Path(argv[-1])
        if out.exists():
            shutil.rmtree(out)
        code, _, sim_s = self._call(argv)
        sim_fail = [] if code == 0 else [f"simulate exited {code}"]
        want = {"d": ROWS_D2["d"], "n_max": ROWS_D2["n_max"], "trials": ROWS_D2["trials"],
                "master_seed": op_seed(self.seed, k), "records_time": True,
                "strip_check": True, "top_m": ROWS_D2["top_m"]}
        if not sim_fail:
            sim_fail = _check_summary(out, want, {
                "rows_obs.csv", "aggregate_obs.csv", "rows_rec.csv",
                "aggregate_rec.csv", "summary.json"})
        code, text, ana_s = self._call(["analyze", "--in-dir", str(out),
                                        "--ks-norm-fplus", "gumbel"])
        ana_fail = [] if code == 0 else [f"analyze exited {code}"]
        if not ana_fail and not sim_fail:
            ana_fail = self.check_report(out / "rows_obs.csv", json.loads(text))
        if deep and not sim_fail:
            from paretorecords import harness
            for name in ("rows_obs.csv", "rows_rec.csv"):
                sim_fail += check_rows_bitwise(out / name, harness.load_rows(out / name))
        hashes = sha256_files(out) if out.exists() else {}
        if out.exists():
            shutil.rmtree(out)
        return {"op_s": sim_s + ana_s, "parts": {"simulate_s": sim_s, "analyze_s": ana_s},
                "obs": ROWS_D2["trials"] * ROWS_D2["n_max"],
                "attempted": 2, "failed": int(bool(sim_fail)) + int(bool(ana_fail)),
                "failures": sim_fail + ana_fail, "sha256": hashes}

    @staticmethod
    def check_report(rows_path: Path, report: dict) -> list:
        """The analyze report against the same statistics computed here."""
        with open(rows_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        last_n = max(int(r["n"]) for r in rows)
        final = [r for r in rows if int(r["n"]) == last_n]

        def mean(col):
            return math.fsum(float(r[col]) for r in final) / len(final)

        want = {
            "n": last_n,
            "trials": len(final),
            "mean_records_set": mean("m"),
            "mean_current_records": mean("r"),
            "median_width": statistics.median(float(r["width"]) for r in final),
            "mean_f_minus": mean("f_minus"),
            "mean_f_plus": mean("f_plus"),
            "mean_strip_cov": mean("strip_cov"),
        }
        problems = []
        for key, value in want.items():
            got = report.get(key)
            if not isinstance(got, (int, float)) or abs(got - value) > 1e-12 * abs(value):
                problems.append(f"analyze {key}={got!r}, recomputed {value!r}")
        ks = report.get("ks_norm_fplus")
        if not isinstance(ks, float) or not 0.0 < ks < 1.0:
            problems.append(f"analyze ks_norm_fplus={ks!r} outside (0, 1)")
        return problems


class Exact(Workload):
    """Cold analytic queries; one operation per interpreter."""

    def __init__(self, name, seed, workdir):
        super().__init__(name, seed, workdir)
        from paretorecords import analytics, rng
        self.analytics, self.rng = analytics, rng
        # one group per d in criterion-3 access order, then the large n
        self.groups = [[q for n in EXACT_NS
                        for q in (("mean_records", n, d), ("mean_records", n - 1, d),
                                  ("p_record", n, d))]
                       for d in EXACT_DIMS]
        self.groups.append([("mean_records", n, d) for d in EXACT_DIMS for n in EXACT_LARGE_NS])
        self.queries = [q for group in self.groups for q in group]

    def op(self, k: int, deep: bool) -> dict:
        """The query groups, then the draws, timed one by one with the
        calibration kernel between them: an operation lasts several seconds,
        longer than the host keeps one speed.  The kernel does not touch the
        analytics caches."""
        a = self.analytics
        fns = {"mean_records": a.mean_records, "p_record": a.p_record}
        values, spans = [], []  # (seconds, mean slowness around them)
        share = INTERP_SHARE[self.name]
        cal = slowness(share)
        for group in self.groups + [None]:
            calls = [(fns[name], n, d) for name, n, d in group] if group else None
            t0 = time.perf_counter()
            if calls:
                values += [fn(n, d) for fn, n, d in calls]
            else:
                draws = self.draw()
            elapsed = time.perf_counter() - t0
            after = slowness(share)
            spans.append((elapsed, (cal + after) / 2))
            cal = after
        queries_s = math.fsum(t for t, _ in spans[:-1])
        sample_y_s = spans[-1][0]
        failures = []
        bad_draws = sum(not math.isfinite(y) for y in draws)
        if bad_draws:
            failures.append(f"{bad_draws} sample_y draws not finite")
        if deep:
            warm = self.draw(SAMPLE_Y["repeat"])
            if warm != draws[: SAMPLE_Y["repeat"]]:
                failures.append("sample_y draws do not repeat for the seed")
                bad_draws = max(bad_draws, SAMPLE_Y["repeat"])
        bad = check_exact(self.queries, values) if deep else {}
        failures += list(bad.values())
        op_s = queries_s + sample_y_s
        return {"op_s": op_s, "parts": {"queries_s": queries_s, "sample_y_s": sample_y_s},
                # the slowness that scales op_s as the spans scaled one by one
                "slowness": op_s / math.fsum(t / c for t, c in spans),
                "values": values, "draws": len(draws),
                "draws_sha256": hashlib.sha256(repr(draws).encode()).hexdigest(),
                "attempted": len(values) + len(draws),
                "failed": len(bad) + bad_draws, "failures": failures}

    def draw(self, count: int | None = None) -> list:
        stream = self.rng.ObservationStream(self.seed, 0, 1)
        n, d = SAMPLE_Y["n"], SAMPLE_Y["d"]
        return [self.analytics.sample_y(stream, n, d)
                for _ in range(count or SAMPLE_Y["draws"])]


def check_exact(queries: list, values: list) -> dict:
    """Failures by query index, against references that share no code with
    the fast path: exact rationals, mpmath quadrature, and telescoping."""
    from paretorecords.analytics import p_record_exact
    import mpmath as mp

    bad = {}
    got = {}
    for i, (q, v) in enumerate(zip(queries, values)):
        got.setdefault(q, (i, v))
        if q[0] == "p_record":  # preceded by mean_records(n) and mean_records(n-1)
            mr_n, mr_prev = values[i - 2], values[i - 1]
            if mr_n != mr_prev + v:
                bad[i] = f"mean_records({q[1]},{q[2]}) != mean_records(n-1) + p_record(n)"

    def compare(q, ref, rtol):
        i, v = got[q]
        if not math.isfinite(v) or abs(v - ref) > rtol * abs(ref):
            bad.setdefault(i, f"{q[0]}({q[1]},{q[2]}) = {v!r}, reference {ref!r}, rtol {rtol:g}")

    mp.mp.dps = MPMATH_DPS
    for d in EXACT_DIMS:
        total = Fraction(0)
        exact = {}
        for n in range(1, 101):
            exact[n] = p_record_exact(n, d)
            total += exact[n]
            if ("mean_records", n, d) in got:
                compare(("mean_records", n, d), float(total), RATIONAL_RTOL)
            if ("p_record", n, d) in got:
                compare(("p_record", n, d), float(exact[n]), RATIONAL_RTOL)
        fact = mp.factorial(d - 1)
        for (name, n, dd) in got:
            if dd != d or n <= 100:
                continue
            log_n = mp.log(n)
            if name == "p_record":
                f = lambda y: y ** (d - 1) / fact * mp.exp(-y) * (1 - mp.exp(-y)) ** (n - 1)
            else:
                f = lambda y: y ** (d - 1) / fact * (1 - (1 - mp.exp(-y)) ** n)
            compare((name, n, d), float(mp.quad(f, [0, log_n, log_n + 80])), MPMATH_RTOL)
    return bad


WORKLOADS = {"ens_d2": Ensemble, "ens_d3": Ensemble, "rows_d2": RowsCli, "exact": Exact}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="exit once ready")
    ap.add_argument("--check", action="store_true", help="exact: check against references")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    src = (Path(args.root) / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy
    import scipy
    import paretorecords

    if src not in Path(paretorecords.__file__).resolve().parents:
        print(f"paretorecords imported from {paretorecords.__file__}, not {src}",
              file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workload, args.seed, workdir)
    print("READY", flush=True)
    print(f"CAL {slowness(INTERP_SHARE['setup'])!r}", flush=True)
    if args.probe:
        return 0

    versions = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    if isinstance(workload, Exact):
        if tracer:
            tracer.install()
        try:
            op = workload.op(0, deep=args.check)
        except Exception:
            op = {"attempted": 1, "failed": 1, "failures": [traceback.format_exc()]}
        finally:
            if tracer:
                tracer.uninstall()
        op["traced"] = bool(tracer)
        op["content"] = 0
        if tracer:
            op["trace"] = tracer.snapshot()
        ops = [op]
    else:
        ops = workload.loop(args.seconds, bool(tracer), tracer)
    print("RESULT " + json.dumps({"ops": ops, "versions": versions}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
