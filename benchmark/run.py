"""Benchmark of the pareto-records package, one workload per invocation.

    python3 benchmark/run.py --workload ens_d2 [--seed 20260817] [--seconds 25] [--trace 0]

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout, in fresh interpreters started by this script (``child.py``);
this script itself uses the standard library only.

Every run first times ``SETUP_PROBES`` interpreter starts up to "package
imported and inputs built" (``setup_s``), then runs the workload's operation
loop for ``--seconds``.  Every timing is scaled to reference host speed by
the slowness the child measures around it (``child.slowness``).  With
``--trace 0`` it prints the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it wraps the callables through which the package enters each
layer and prints the per-layer metrics.  Each
metric is printed with its unit, its bound and, for layer metrics, the
end-to-end metric and workload it should move.  A result file with an
environment block is written under ``.bench_runs/results/``.  The last
stdout line is the JSON result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 20260817
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s
PINS = HERE / "pins.json"  # sha256 of operation 0's files at the default seed

# Per-layer metric -> (end-to-end metric it should move, workload).  The
# figure in parentheses is the part of op_s that the layer sits in; figures
# are printed and recorded beside the metrics, see FIGURES.
LAYER_MAP = {
    "rng.take_uniforms.s": ("op_s (obs_per_s)", "ens_d2"),
    "rng.take.self_s": ("op_s (obs_per_s)", "ens_d2"),
    "rng.rows": ("op_s (obs_per_s)", "ens_d2"),
    "records.coord_sums.s": ("op_s (obs_per_s)", "ens_d2"),
    "records.absorb_nonrecords.s": ("op_s (obs_per_s)", "ens_d2"),
    "records.absorb_nonrecords.calls": ("op_s (obs_per_s)", "ens_d2"),
    "records.dominated_by_current.s": ("op_s (obs_per_s)", "ens_d2, ens_d3"),
    "records.observe.s": ("op_s (obs_per_s)", "ens_d2, ens_d3"),
    "records.observe.calls": ("op_s (obs_per_s)", "ens_d2, ens_d3"),
    "records.stage1_rows": ("op_s (obs_per_s)", "ens_d2, ens_d3"),
    "records.stage2_rows": ("op_s (obs_per_s)", "ens_d2, ens_d3"),
    "records.set": ("op_s (obs_per_s)", "ens_d2, ens_d3"),
    "records.stage1_pass": ("op_s (obs_per_s)", "ens_d2, ens_d3"),
    "records.stage2_pass": ("op_s (obs_per_s)", "ens_d2, ens_d3"),
    "records.record_yield": ("op_s (obs_per_s)", "ens_d2, ens_d3"),
    "frontier.f_minus.s": ("op_s (obs_per_s)", "ens_d3"),
    "frontier.f_minus.calls": ("op_s (obs_per_s)", "ens_d3"),
    "frontier.f_minus.p99_ms": ("op_s (obs_per_s)", "ens_d3"),
    "frontier.f_minus.r_mean": ("op_s (obs_per_s)", "ens_d3"),
    "frontier.staircase.s": ("op_s (obs_per_s)", "ens_d2"),
    "frontier.branch_and_bound.s": ("op_s (obs_per_s)", "ens_d3"),
    "frontier.f_plus.s": ("op_s (obs_per_s)", "rows_d2"),
    "harness.run_trial.s": ("op_s (obs_per_s)", "ens_d2, ens_d3, rows_d2"),
    "harness.run_trial.p50_s": ("op_s (obs_per_s)", "ens_d2, ens_d3, rows_d2"),
    "harness.run_trial.p90_s": ("op_s (obs_per_s)", "ens_d2, ens_d3, rows_d2"),
    "harness.simulate.self_s": ("op_s (obs_per_s)", "ens_d2"),
    "harness.make_row.s": ("op_s (obs_per_s), peak_rss_mb", "rows_d2"),
    "harness.make_row.calls": ("op_s (obs_per_s), peak_rss_mb", "rows_d2"),
    "harness.strip_coverage.s": ("op_s (obs_per_s), peak_rss_mb", "rows_d2"),
    "harness.write_rows.s": ("op_s (obs_per_s), peak_rss_mb", "rows_d2"),
    "harness.write_rows.bytes": ("op_s (obs_per_s), peak_rss_mb", "rows_d2"),
    "harness.write_aggregates.s": ("op_s (obs_per_s), peak_rss_mb", "rows_d2"),
    "harness.write_aggregates.keys": ("op_s (obs_per_s), peak_rss_mb", "rows_d2"),
    "harness.ensemble.self_s": ("op_s (obs_per_s), peak_rss_mb", "rows_d2"),
    "harness.load_rows.s": ("op_s (analyze_s)", "rows_d2"),
    "harness.load_rows.rows": ("op_s (analyze_s)", "rows_d2"),
    "harness.ks_statistic.s": ("op_s (analyze_s)", "rows_d2"),
    "cli.simulate.self_s": ("op_s (obs_per_s)", "rows_d2"),
    "cli.analyze.self_s": ("op_s (analyze_s)", "rows_d2"),
    "analytics.prefix_build.s": ("op_s (exact_cold_s)", "exact"),
    "analytics.prefix_build.p_evals": ("op_s (exact_cold_s)", "exact"),
    "analytics.p_batch.s": ("op_s (exact_cold_s)", "exact"),
    "analytics.mean_records_integral.s": ("op_s (exact_cold_s)", "exact"),
    "analytics.sample_y.table_s": ("op_s (sample_y_per_s)", "exact"),
    "analytics.sample_y.draw_s": ("op_s (sample_y_per_s)", "exact"),
    "trace.overhead_s": ("none: traced minus untraced operation wall time", "each"),
}

# layer metric -> (span name, "total" or "self") for per-operation span times
SPAN_TIMES = {
    "rng.take_uniforms.s": ("rng.take_uniforms", "total"),
    "rng.take.self_s": ("rng.take", "self"),
    "records.coord_sums.s": ("records.coord_sums", "total"),
    "records.absorb_nonrecords.s": ("records.absorb_nonrecords", "total"),
    "records.dominated_by_current.s": ("records.dominated_by_current", "total"),
    "records.observe.s": ("records.observe", "total"),
    "frontier.f_minus.s": ("frontier.f_minus", "total"),
    "frontier.staircase.s": ("frontier.staircase", "total"),
    "frontier.branch_and_bound.s": ("frontier.branch_and_bound", "total"),
    "frontier.f_plus.s": ("frontier.f_plus", "total"),
    "harness.run_trial.s": ("harness.run_trial", "total"),
    "harness.simulate.self_s": ("harness.simulate", "self"),
    "harness.make_row.s": ("harness.make_row", "total"),
    "harness.strip_coverage.s": ("harness.strip_coverage", "total"),
    "harness.write_rows.s": ("harness.write_rows", "total"),
    "harness.write_aggregates.s": ("harness.write_aggregates", "total"),
    "harness.ensemble.self_s": ("harness.ensemble", "self"),
    "harness.load_rows.s": ("harness.load_rows", "total"),
    "harness.ks_statistic.s": ("harness.ks_statistic", "total"),
    "cli.simulate.self_s": ("cli.simulate", "self"),
    "cli.analyze.self_s": ("cli.analyze", "self"),
    "analytics.prefix_build.s": ("analytics.prefix_build", "total"),
    "analytics.p_batch.s": ("analytics.p_batch", "total"),
    "analytics.mean_records_integral.s": ("analytics.mean_records_integral", "total"),
    "analytics.sample_y.table_s": ("analytics.sample_y.table", "total"),
}

# deterministic counts: identical for identical inputs, checked to repeat
# between the traced operations of a run.  layer metric -> (counter, or span
# whose call count it is)
COUNTS = {
    "rng.rows": "rng.rows",
    "records.absorb_nonrecords.calls": "calls:records.absorb_nonrecords",
    "records.observe.calls": "calls:records.observe",
    "records.stage1_rows": "records.stage1_rows",
    "records.stage2_rows": "records.stage2_rows",
    "records.set": "records.set",
    "frontier.f_minus.calls": "calls:frontier.f_minus",
    "harness.make_row.calls": "calls:harness.make_row",
    "harness.write_rows.bytes": "harness.write_rows.bytes",
    "harness.write_aggregates.keys": "harness.write_aggregates.keys",
    "harness.load_rows.rows": "harness.load_rows.rows",
    "analytics.prefix_build.p_evals": "analytics.prefix_build.p_evals",
    "frontier.f_minus.r_total": "frontier.f_minus.r_total",
}


# Workload figures, from the medians of the timed parts of the operations,
# scaled to reference host speed like op_s.
FIGURES = {
    "ens_d2": {"obs_per_s": ("obs/s", lambda p, op: op["obs"] / p["ensemble_s"])},
    "ens_d3": {"obs_per_s": ("obs/s", lambda p, op: op["obs"] / p["ensemble_s"])},
    "rows_d2": {"obs_per_s": ("obs/s", lambda p, op: op["obs"] / p["simulate_s"]),
                "analyze_s": ("s", lambda p, op: p["analyze_s"])},
    "exact": {"exact_cold_s": ("s", lambda p, op: p["queries_s"]),
              "sample_y_per_s": ("draws/s", lambda p, op: op["draws"] / p["sample_y_s"])},
}


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(num, den):
    return num / den if den else 0.0


def scaled(op: dict, seconds: float | None = None) -> float:
    """An operation's time, or a part of it, at reference host speed."""
    return (op["op_s"] if seconds is None else seconds) / op["slowness"]


def op_counts(snap: dict) -> dict:
    out = {}
    for name, source in COUNTS.items():
        if source.startswith("calls:"):
            out[name] = snap["stats"].get(source[6:], [0, 0.0, 0.0])[0]
        else:
            out[name] = snap["counters"].get(source, 0)
    return out


def op_times(snap: dict) -> dict:
    stats = snap["stats"]
    out = {}
    for name, (span, kind) in SPAN_TIMES.items():
        _, total, self_s = stats.get(span, [0, 0.0, 0.0])
        out[name] = total if kind == "total" else self_s
    out["analytics.sample_y.draw_s"] = (stats.get("analytics.sample_y", [0, 0.0])[1]
                                        - stats.get("analytics.sample_y.table", [0, 0.0])[1])
    return out


def layer_metrics(ops: list) -> tuple[dict, dict, list]:
    """Per-layer metrics from the traced operations, the counts, and the
    count mismatches between traced operations of identical inputs."""
    traced = [op for op in ops if op.get("traced") and "op_s" in op]
    plain = [op for op in ops if not op.get("traced") and "op_s" in op]
    if not traced:
        return {}, {}, ["no traced operation completed"]
    counts = op_counts(traced[0]["trace"])
    problems = []
    for op in traced[1:]:
        other = op_counts(op["trace"])
        if other != counts:
            diff = {k: (counts[k], other[k]) for k in counts if counts[k] != other[k]}
            problems.append(f"deterministic counts differ between traced operations: {diff}")
    times = [op_times(op["trace"]) for op in traced]
    metrics = {name: _median([t[name] for t in times]) for name in times[0]}
    metrics.update({k: v for k, v in counts.items() if k != "frontier.f_minus.r_total"})
    pooled = lambda span: [x for op in traced for x in op["trace"]["samples"].get(span, [])]
    trials = pooled("harness.run_trial")
    metrics["harness.run_trial.p50_s"] = _quantile(trials, 0.50)
    metrics["harness.run_trial.p90_s"] = _quantile(trials, 0.90)
    metrics["frontier.f_minus.p99_ms"] = 1e3 * _quantile(pooled("frontier.f_minus"), 0.99)
    metrics["frontier.f_minus.r_mean"] = _ratio(counts["frontier.f_minus.r_total"],
                                                counts["frontier.f_minus.calls"])
    metrics["records.stage1_pass"] = _ratio(counts["records.stage1_rows"], counts["rng.rows"])
    metrics["records.stage2_pass"] = _ratio(counts["records.stage2_rows"],
                                            counts["records.stage1_rows"])
    metrics["records.record_yield"] = _ratio(counts["records.set"],
                                             counts["records.observe.calls"])
    metrics["trace.overhead_s"] = (_median([scaled(op) for op in traced])
                                   - _median([scaled(op) for op in plain]))
    return metrics, counts, problems


# -- child processes -------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # threads=1 workloads; keep BLAS pools from competing
    return env


def spawn(args, work: Path, extra: list, deadline: float) -> tuple[int, float | None, dict | None]:
    """Run child.py; return (exit code, seconds to READY at reference host
    speed, RESULT payload).  The child reports the host's slowness (see
    child.slowness) on a CAL line right after READY."""
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(work), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    watchdog = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    watchdog.start()
    ready = cal = result = None
    try:
        for line in proc.stdout:
            if ready is None and line == "READY\n":
                ready = time.perf_counter() - t0
            elif cal is None and line.startswith("CAL "):
                cal = float(line[len("CAL "):])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready is not None and cal is not None:
        return proc.returncode, ready / cal, result
    return proc.returncode, None, result


def run_ops(args, work: Path, setup: list, deadline: float) -> tuple[list, dict]:
    """The workload's operations, in one child or (exact) one per child."""
    if args.workload != "exact":
        code, ready, result = spawn(
            args, work, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        if ready is not None:
            setup.append(ready)
        if code != 0 or result is None:
            return [{"attempted": 1, "failed": 1,
                     "failures": [f"workload process exited {code}"]}], {}
        return result["ops"], result["versions"]
    ops, versions = [], {}
    start = time.perf_counter()
    k = 0
    while len(ops) < 1 + args.trace or time.perf_counter() - start < args.seconds:
        traced = args.trace and k % 2 == 1
        extra = ["--check"] if k == 0 else []
        if traced:
            extra += ["--trace", "1"]
        code, ready, result = spawn(args, work, extra, deadline)
        if ready is not None:
            setup.append(ready)
        if code != 0 or result is None:
            ops.append({"attempted": 1, "failed": 1,
                        "failures": [f"exact process exited {code}"]})
            break
        ops += result["ops"]
        versions = result["versions"]
        k += 1
    return ops, versions


def cross_check(args, ops: list) -> None:
    """Checks between operations: pinned hashes at the default seed, and
    identical outputs for identical inputs.  Failures are added to the ops."""
    def fail(op, message, count=1):
        op["failures"].append(message)
        op["failed"] = min(op["attempted"], op["failed"] + count)

    done = [op for op in ops if "op_s" in op]
    if args.workload == "exact":
        first = done[0] if done else None
        for op in done[1:]:
            diff = sum(a != b for a, b in zip(op["values"], first["values"]))
            if diff or len(op["values"]) != len(first["values"]):
                fail(op, f"{diff} query values differ from the first interpreter's", diff or 1)
            if op["draws_sha256"] != first["draws_sha256"]:
                fail(op, "sample_y draws differ from the first interpreter's", op["draws"])
        return
    pins = json.loads(PINS.read_text()).get(args.workload) if PINS.exists() else None
    first = {}
    for op in done:
        if op["content"] == 0 and args.seed == DEFAULT_SEED and op["sha256"] != pins:
            fail(op, f"output sha256 differs from the pins in {PINS.name}")
        want = first.setdefault(op["content"], op["sha256"])
        if op["sha256"] != want:
            fail(op, "outputs differ between executions of identical inputs")


# -- reporting ---------------------------------------------------------------------

def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "paretorecords").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["ens_d2", "ens_d3", "rows_d2", "exact"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must lie in [0, 2**64)")

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "paretorecords" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} is not a pareto-records checkout (src/paretorecords "
              "and BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    env = environment(args.seed)
    runs = ROOT / ".bench_runs"
    work = runs / f"work-{os.getpid()}"
    setup: list[float] = []
    probe_failures = []
    try:
        for _ in range(SETUP_PROBES):
            code, ready, _ = spawn(args, work, ["--probe"], deadline)
            if code != 0 or ready is None:
                probe_failures.append(f"set-up probe exited {code}")
            else:
                setup.append(ready)
        ops, versions = run_ops(args, work, setup, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if probe_failures:
        ops.append({"attempted": len(probe_failures), "failed": len(probe_failures),
                    "failures": probe_failures})
    env.update(versions)
    cross_check(args, ops)

    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    done = [op for op in ops if "op_s" in op and not op.get("traced")]
    problems = [msg for op in ops for msg in op["failures"]]
    figures = {}
    if args.trace:
        spec = bench["per_layer"]
        metrics, counts, count_problems = layer_metrics(ops)
        if count_problems:
            problems += count_problems
            failed += len(count_problems)
            attempted += len(count_problems)
    else:
        spec = bench["end_to_end"]
        counts = {}
        metrics = {
            "setup_s": _median(setup),
            "op_s": _median([scaled(op) for op in done]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
        }
        if done:
            part = {k: _median([scaled(op, op["parts"][k]) for op in done])
                    for k in done[0]["parts"]}
            for name, (unit, make) in FIGURES[args.workload].items():
                figures[name] = (make(part, done[0]), unit)
            figures["op_wall_s"] = (_median([op["op_s"] for op in done]), "s")
            figures["host_speed"] = (1.0 / _median([op["slowness"] for op in done]), "1")
    missing = sorted({m for op in ops for m in op.get("trace", {}).get("missing", [])})

    print(f"pareto-records benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"operations: {len(ops)} run, {attempted} attempted, {failed} failed; "
          f"set-up samples: {len(setup)}")
    for m in spec:
        value = metrics.get(m["name"], 0.0)
        bound = f"bound {m['bound']:.0%} ({m['better']} is better)" if "bound" in m else m["better"]
        line = f"  {m['name']:36s} {value:14.6g} {m['unit']:7s} {bound}"
        if m["name"] in LAYER_MAP:
            moves, where = LAYER_MAP[m["name"]]
            line += f"  -> {moves} on {where}"
        print(line)
    for name, (value, unit) in figures.items():
        print(f"  figure {name:29s} {value:14.6g} {unit}")
    if counts:
        print("deterministic counts (repeat exactly for the same seed): "
              + json.dumps(counts, sort_keys=True))
    if missing:
        print("wrapper targets missing or counters failed (reported as zero): "
              + ", ".join(missing))
    for msg in problems[:20]:
        print("FAILED: " + msg.strip().replace("\n", "\n        "))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in spec},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "result": result,
        "bounds": {m["name"]: m.get("bound") for m in spec},
        "figures": {k: {"value": v, "unit": u} for k, (v, u) in figures.items()},
        "counts": counts, "missing_targets": missing, "setup_samples": setup,
        "ops": [{k: v for k, v in op.items() if k not in ("values", "trace")} for op in ops],
        "wall_s": time.perf_counter() - t_start,
    }
    results = runs / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"result file: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
