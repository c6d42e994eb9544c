"""Command-line front end: simulate, analyze, exact, selftest, render.

Exit codes: 0 success, 1 selftest failure, 2 invalid arguments or config,
3 I/O failure.  `simulate` and `analyze` print a single JSON line so runs
can be scripted; `exact` prints values with 17 significant digits, which
re-parse to bit-identical doubles.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import analytics, records
from .frontier import f_minus, f_plus, f_minus_bruteforce
from .harness import (
    ExperimentConfig,
    ks_statistic,
    lil_diagnostics,
    load_rows,
    run_ensemble,
    trajectory,
)
from .records import RecordBook, _as_int, rebuild_oracle
from .rng import ObservationStream

__all__ = ["main"]


# -- simulate ---------------------------------------------------------------------

_CONFIG_KEYS = {f.name for f in dataclass_fields(ExperimentConfig)}


def _load_config(args) -> ExperimentConfig:
    base: dict = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                base = json.load(fh)
        except OSError as exc:
            raise _IoError(f"cannot read config file {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(base, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(base) - _CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    # flags given win over file values; each flag's dest is its config field
    base.update((key, val) for key, val in vars(args).items()
                if key in _CONFIG_KEYS and val is not None)
    if args.checkpoints is not None:
        try:
            base["checkpoints"] = tuple(int(c) for c in args.checkpoints.split(",") if c)
        except ValueError:
            raise ValueError("--checkpoints must be comma-separated integers, "
                             f"got {args.checkpoints!r}") from None
    missing = {"d", "n_max"} - set(base)
    if missing:
        raise ValueError(f"config is missing required keys: {sorted(missing)}")
    return ExperimentConfig(**base)


def _threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        return args.threads
    env = os.environ.get("THREADS")
    if env is not None:
        if not (env.isascii() and env.isdigit()) or int(env) < 1:
            raise ValueError(f"THREADS must be a positive integer, got {env!r}")
        return int(env)
    return os.cpu_count() or 1


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out_dir)
    result = run_ensemble(cfg, out_dir, threads=_threads(args))
    line = dict(result.summary)
    line["out_dir"] = str(out_dir)
    print(json.dumps(line, sort_keys=True))
    return 0


# -- analyze ----------------------------------------------------------------------

def _read_rows(path: Path) -> list:
    try:
        return load_rows(path)
    except OSError as exc:
        raise _IoError(f"cannot read rows file {path}: {exc}") from exc


def _cmd_analyze(args) -> int:
    in_dir = Path(args.in_dir)
    obs_path = in_dir / "rows_obs.csv"
    rows = _read_rows(obs_path)
    obs = [r for r in rows if r.clock == "obs"]
    if not obs:
        raise ValueError(f"no observation-clock rows in {obs_path}")
    if args.lil:
        # only the boundary-law report uses the records-time rows
        rec_path = in_dir / "rows_rec.csv"
        if rec_path.exists():
            rows = rows + _read_rows(rec_path)
        print(lil_diagnostics(rows).to_text())
        return 0
    last_n = max(r.n for r in obs)
    final = [r for r in obs if r.n == last_n]
    width = np.array([r.width for r in final])
    report = {
        "n": last_n,
        "trials": len(final),
        "mean_records_set": float(np.mean([r.m for r in final])),
        "mean_current_records": float(np.mean([r.r for r in final])),
        "median_width": float(np.median(width)),
        "mean_f_minus": float(np.mean([r.f_minus for r in final])),
        "mean_f_plus": float(np.mean([r.f_plus for r in final])),
    }
    strip = np.array([r.strip_cov for r in final])
    if np.isfinite(strip).any():
        report["mean_strip_cov"] = float(np.nanmean(strip))
    if args.ks_norm_fplus is not None:
        vals = np.array([r.norm_fplus for r in final])
        vals = vals[np.isfinite(vals)]
        if vals.size == 0:
            raise ValueError(f"no finite norm_fplus at n={last_n}: it is defined from n = 3")
        report["ks_norm_fplus"] = ks_statistic(vals, args.ks_norm_fplus)
        report["ks_reference"] = args.ks_norm_fplus
    print(json.dumps(report, sort_keys=True))
    return 0


# -- exact ------------------------------------------------------------------------

# op -> (function, its (flag, cast) arguments in call order)
_EXACT_OPS = {
    "p-record": (analytics.p_record, (("n", int), ("d", int))),
    "mean-records": (analytics.mean_records, (("n", int), ("d", int))),
    "mean-remaining": (analytics.mean_remaining, (("n", int), ("d", int))),
    "y-density": (analytics.y_density, (("n", int), ("d", int), ("y", float))),
    "fplus-centering": (analytics.fplus_centering, (("n", float), ("d", int))),
    "tm-centering": (analytics.tm_centering, (("m", float), ("d", int))),
    "records-time-centering": (analytics.records_time_fplus_centering,
                               (("m", float), ("d", int))),
    "asym-mean-records": (analytics.asym_mean_records,
                          (("n", float), ("d", int), ("order", int))),
    "gumbel-cdf": (analytics.gumbel_cdf, (("y", float),)),
    "normal-cdf": (analytics.normal_cdf, (("y", float),)),
}
_EXACT_FLAGS = {flag for _, params in _EXACT_OPS.values() for flag, _ in params}


def _exact_value(args) -> float:
    fn, params = _EXACT_OPS[args.op]
    if args.op == "asym-mean-records" and args.order is None:
        params = params[:-1] + (("d", int),)  # full order by default
    return float(fn(*(_need(args, flag, cast) for flag, cast in params)))


def _need(args, name: str, cast):
    val = getattr(args, name.replace("-", "_"), None)
    if val is None:
        raise ValueError(f"exact op {args.op!r} requires --{name}")
    if not math.isfinite(val):
        raise ValueError(f"--{name} must be finite, got {val}")
    if cast is int and float(val) != int(val):
        raise ValueError(f"--{name} must be an integer for op {args.op!r}, got {val}")
    return cast(val)


def _cmd_exact(args) -> int:
    value = _exact_value(args)
    if not math.isfinite(value):
        raise ValueError(f"exact op {args.op!r} produced a non-finite value")
    shown = {k: v for k, v in vars(args).items()
             if k in _EXACT_FLAGS and v is not None}
    for k, v in shown.items():
        if isinstance(v, float) and v.is_integer() and abs(v) < 2**53:
            shown[k] = int(v)  # above 2**53 the int would print digits never given
    payload = ", ".join(f'"{k}": {v}' for k, v in sorted(shown.items()))
    print('{"op": "%s", %s, "value": %.17g}' % (args.op, payload, value))
    return 0


# -- selftest ---------------------------------------------------------------------

def _suite_stream_determinism() -> str | None:
    pins = {
        (0, 0, 1, 0): 0.011613935705874748,
        (12345, 7, 3, 2): 0.6936711116892074,
    }
    for (seed, trial, dim, i), want in pins.items():
        got = float(ObservationStream(seed, trial, dim).take(i + 1)[-1, 0])
        if got != want:
            return f"pinned stream value changed: {got!r} != {want!r}"
    s = ObservationStream(5, 1, 2)
    bulk = s.take(100)
    s.seek(40)
    if not np.array_equal(s.take(10), bulk[40:50]):
        return "seek and bulk generation disagree"
    # the stream's kept generator, read straight after a read (a seek to the
    # cursor does not move it) and after a seek backwards, must give what a
    # fresh stream reads at the same address
    for at in (50, 7):
        s.seek(at)
        fresh = ObservationStream(5, 1, 2)
        fresh.seek(at)
        if not np.array_equal(s.take_uniforms(3), fresh.take_uniforms(3)):
            return f"reused generator disagrees with a fresh stream at {at}"
    return None


def _suite_record_dominance() -> str | None:
    book = RecordBook(2)
    book.observe(np.array([1.0, 1.0]))
    dup = book.observe(np.array([1.0, 1.0]))
    if not dup.is_record or dup.kills != 0:
        return "duplicate observation must set a record without a kill"
    shared = book.observe(np.array([2.0, 1.0]))
    if not shared.is_record or shared.kills != 0:
        return "shared coordinate must block the kill"
    kill = book.observe(np.array([3.0, 2.0]))
    if not kill.is_record or kill.kills != 3:
        return f"expected a record killing all 3, got {kill}"
    if (book.n, book.R, book.r, book.beta) != (4, 4, 1, 3):
        return f"counter state wrong: {book.describe()}"
    return None


def _suite_record_oracle() -> str | None:
    rng = np.random.default_rng(2718)
    for case in range(60):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 120))
        pts = rng.exponential(size=(n, d))
        if case % 3 == 0:
            pts = np.ceil(pts * 3.0)  # integer ties
        book = RecordBook(d)
        for row in pts:
            book.observe(row)
        if not book.state_equals(rebuild_oracle(pts)):
            return f"incremental/oracle mismatch at case {case} (d={d}, n={n})"
    return None


def _suite_frontier_min_cover() -> str | None:
    rng = np.random.default_rng(314)
    for case in range(40):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(2, 40))
        book = rebuild_oracle(rng.exponential(size=(n, d)))
        if book.r > 9:
            continue
        main = f_minus(book)
        brute = f_minus_bruteforce(book.record_coords)
        if main != brute:
            return f"min-cover route mismatch at case {case}: {main!r} != {brute!r}"
    return None


def _suite_analytics_identities() -> str | None:
    for n in range(1, 201):
        if abs(analytics.p_record(n, 1) - 1.0 / n) > 1e-12:
            return f"p_record({n},1) != 1/{n}"
    for d in range(1, 9):
        if analytics.p_record(2, d) != 1.0 - 0.5**d:
            return f"p_record(2,{d}) != 1 - 2^-{d}"
    for n in (31, 100, 1000):
        lhs = analytics.mean_records(n, 2)
        rhs = analytics.mean_records(n - 1, 2) + analytics.p_record(n, 2)
        if lhs != rhs:
            return f"mean_records telescoping broken at n={n}"
    if analytics.mean_remaining(50, 1) != 1.0:
        return "mean_remaining(n,1) must be exactly 1"
    if analytics.gumbel_cdf(0.0) != math.exp(-1.0):
        return "gumbel_cdf(0) != exp(-1)"
    if abs(analytics.normal_cdf(0.0) - 0.5) > 1e-15:
        return "normal_cdf(0) != 1/2"
    return None


_SUITES = [
    ("stream-determinism", _suite_stream_determinism),
    ("record-dominance", _suite_record_dominance),
    ("record-oracle", _suite_record_oracle),
    ("frontier-min-cover", _suite_frontier_min_cover),
    ("analytics-identities", _suite_analytics_identities),
]


def _cmd_selftest(args) -> int:
    strict_gt = records._strict_gt
    if args.inject_fault:
        # break tie handling (> becomes >=) in every incremental dominance
        # test; generic random data still passes, crafted ties must not
        records._strict_gt = lambda x, y: x >= y
    failures = []
    try:
        print(f"{'suite':24s} {'result':8s} seconds")
        for name, fn in _SUITES:
            t0 = time.perf_counter()
            detail = fn()
            dt = time.perf_counter() - t0
            status = "ok" if detail is None else "FAIL"
            print(f"{name:24s} {status:8s} {dt:7.2f}")
            if detail is not None:
                failures.append((name, detail))
    finally:
        records._strict_gt = strict_gt
    if failures:
        for name, detail in failures:
            print(f"FAIL {name}: {detail}", file=sys.stderr)
        return 1
    return 0


# -- render -----------------------------------------------------------------------

def _render_book(args) -> RecordBook:
    book = RecordBook(2)
    if args.points is not None:
        for token in args.points.split(";"):
            token = token.strip()
            if not token:
                continue
            parts = token.split(",")
            if len(parts) != 2:
                raise ValueError(f"bad point {token!r}; expected 'x,y'")
            book.observe(np.array([float(parts[0]), float(parts[1])]))
        return book
    if args.n is None:
        return book
    n = _as_int(args.n, "--n", 0)
    seed = _as_int(args.seed, "--seed", 0, 2**64 - 1)
    trial = _as_int(args.trial, "--trial", 0)
    if not n:
        return book
    cfg = ExperimentConfig(d=2, n_max=n, master_seed=seed, checkpoints=(n,))
    (_, book, _), = trajectory(cfg, trial)
    return book


_SVG_MARGIN = 42  # px on each side of the plot


def _svg(book: RecordBook, size: int) -> str:
    margin = float(_SVG_MARGIN)
    span = size - 2 * margin
    recs = book.record_coords
    if recs.shape[0]:
        fm, fp = f_minus(book), f_plus(book)
        data_max = 1.15 * max(fp, float(recs.max()))
    else:
        data_max = 1.0

    def fx(x: float) -> float:
        return margin + (x / data_max) * span

    def fy(y: float) -> float:
        return size - margin - (y / data_max) * span

    def pt(x: float, y: float) -> str:
        return f"{fx(x):.2f},{fy(y):.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line class="axis" x1="{fx(0):.2f}" y1="{fy(0):.2f}" '
        f'x2="{fx(data_max):.2f}" y2="{fy(0):.2f}" stroke="black"/>',
        f'<line class="axis" x1="{fx(0):.2f}" y1="{fy(0):.2f}" '
        f'x2="{fx(0):.2f}" y2="{fy(data_max):.2f}" stroke="black"/>',
    ]
    if recs.shape[0]:
        order = np.argsort(recs[:, 0], kind="stable")
        zs = recs[order]
        path = [(0.0, data_max), (0.0, float(zs[0, 1]))]
        for i in range(zs.shape[0]):
            x, y = float(zs[i, 0]), float(zs[i, 1])
            path.append((x, y))
            nxt = float(zs[i + 1, 1]) if i + 1 < zs.shape[0] else 0.0
            path.append((x, nxt))
        path.append((data_max, 0.0))
        pts = " ".join(pt(x, y) for x, y in path)
        parts.append(
            f'<polyline class="staircase" points="{pts}" fill="none" '
            f'stroke="#1f5fa6" stroke-width="2"/>')
        for s, tag, color in ((fm, "fminus", "#c03020"), (fp, "fplus", "#208040")):
            parts.append(
                f'<line class="guide-{tag}" x1="{fx(s):.2f}" y1="{fy(0):.2f}" '
                f'x2="{fx(0):.2f}" y2="{fy(s):.2f}" stroke="{color}" '
                f'stroke-dasharray="6,4"/>')
            parts.append(
                f'<text x="{fx(s * 0.52):.2f}" y="{fy(s * 0.52) - 6:.2f}" '
                f'font-size="12" fill="{color}">sum={s:.4g}</text>')
        for i in range(zs.shape[0]):
            parts.append(
                f'<circle class="record" cx="{fx(float(zs[i, 0])):.2f}" '
                f'cy="{fy(float(zs[i, 1])):.2f}" r="4" fill="#1f5fa6"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cmd_render(args) -> int:
    if args.d != 2:
        raise ValueError(f"render supports d=2 only, got d={args.d}")
    if args.size <= 2 * _SVG_MARGIN:
        raise ValueError(f"--size must exceed {2 * _SVG_MARGIN} px (two "
                         f"{_SVG_MARGIN}-px margins), got {args.size}")
    book = _render_book(args)
    doc = _svg(book, args.size)
    if args.out is None:
        sys.stdout.write(doc)
    else:
        try:
            Path(args.out).write_text(doc)
        except OSError as exc:
            raise _IoError(f"cannot write SVG to {args.out}: {exc}") from exc
        print(f"wrote {args.out} ({book.r} records)")
    return 0


# -- wiring -----------------------------------------------------------------------

class _IoError(OSError):
    """I/O failure already carrying file context; mapped to exit 3."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pareto-records",
        description="Multidimensional record simulation and exact analytics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="run an ensemble and write CSV outputs")
    sim.add_argument("--config", help="JSON file with ExperimentConfig fields")
    sim.add_argument("--d", type=int)
    sim.add_argument("--n-max", type=int)
    sim.add_argument("--trials", type=int)
    sim.add_argument("--seed", dest="master_seed", type=int, metavar="SEED")
    sim.add_argument("--top-m", type=int)
    sim.add_argument("--checkpoints", help="comma-separated explicit grid")
    sim.add_argument("--checkpoint-ratio", type=float)
    # absent, a switch leaves the config file's value alone
    sim.add_argument("--records-time", action="store_const", const=True)
    sim.add_argument("--strip-check", action="store_const", const=True)
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--threads", type=int)
    sim.set_defaults(fn=_cmd_simulate)

    ana = sub.add_parser("analyze", help="summarize a simulate output directory")
    ana.add_argument("--in-dir", required=True)
    ana.add_argument("--ks-norm-fplus", choices=["gumbel", "normal", "uniform"],
                     help="KS distance of centered max sums at the last checkpoint")
    ana.add_argument("--lil", action="store_true",
                     help="print the boundary-ratio report instead of JSON")
    ana.set_defaults(fn=_cmd_analyze)

    exa = sub.add_parser("exact", help="evaluate one exact quantity")
    exa.add_argument("--op", required=True, choices=list(_EXACT_OPS))
    exa.add_argument("--n", type=float)
    exa.add_argument("--d", type=int)
    exa.add_argument("--m", type=float)
    exa.add_argument("--y", type=float)
    exa.add_argument("--order", type=int)
    exa.set_defaults(fn=_cmd_exact)

    st = sub.add_parser("selftest", help="run reduced oracle and identity suites")
    st.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    st.set_defaults(fn=_cmd_selftest)

    ren = sub.add_parser("render", help="draw a d=2 record frontier as SVG")
    ren.add_argument("--d", type=int, default=2)
    ren.add_argument("--points", help="explicit records 'x,y;x,y;...'")
    ren.add_argument("--n", type=int, help="simulate this many observations")
    ren.add_argument("--seed", type=int, default=0)
    ren.add_argument("--trial", type=int, default=0)
    ren.add_argument("--size", type=int, default=640)
    ren.add_argument("--out", help="output path (default: stdout)")
    ren.set_defaults(fn=_cmd_render)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
