"""CLI behavior: exit codes, determinism, JSON round-trips, SVG output."""

import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from paretorecords import analytics, records
from paretorecords.cli import _svg, main
from paretorecords.harness import ExperimentConfig, run_ensemble
from paretorecords.rng import ObservationStream


SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env():
    # the child imports the package from this checkout, installed or not
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


def run_cli(*argv, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "paretorecords.cli", *argv],
        capture_output=True, text=True, env=child_env(), timeout=timeout)


def tree_bytes(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


def test_simulate_deterministic_output_trees(tmp_path, capsys):
    args = ["simulate", "--d", "2", "--n-max", "1500", "--trials", "6",
            "--seed", "42", "--records-time", "--strip-check"]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    line_a = capsys.readouterr().out.strip()
    assert main(args + ["--out-dir", str(tmp_path / "b"), "--threads", "2"]) == 0
    line_b = capsys.readouterr().out.strip()
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
    sa, sb = json.loads(line_a), json.loads(line_b)
    assert sa["config"] == sb["config"]
    assert sa["rows_obs"] == sb["rows_obs"] > 0


def test_simulate_validation_and_io_exits(tmp_path, capsys):
    assert main(["simulate", "--d", "0", "--n-max", "10",
                 "--out-dir", str(tmp_path / "x")]) == 2
    assert "positive integer" in capsys.readouterr().err
    assert main(["simulate", "--d", "2", "--n-max", "100",
                 "--out-dir", str(tmp_path / "no" / "parent")]) == 3
    assert str(tmp_path / "no" / "parent") in capsys.readouterr().err
    # n_max missing entirely
    assert main(["simulate", "--d", "2", "--out-dir", str(tmp_path / "y")]) == 2


def test_unknown_flag_rejected():
    res = run_cli("simulate", "--d", "2", "--n-max", "10",
                  "--out-dir", "/tmp/zzz", "--frobnicate")
    assert res.returncode == 2
    assert "unrecognized" in res.stderr


def test_config_file_with_flag_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "d": 2, "n_max": 500, "trials": 2, "master_seed": 7,
        "checkpoints": [100, 500]}))
    assert main(["simulate", "--config", str(cfg_path), "--trials", "3",
                 "--out-dir", str(tmp_path / "out")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["config"]["trials"] == 3  # flag wins
    assert summary["config"]["master_seed"] == 7
    assert summary["grid"] == [100, 500]

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"d": 2, "n_max": 10, "walrus": 1}))
    assert main(["simulate", "--config", str(bad),
                 "--out-dir", str(tmp_path / "out2")]) == 2
    assert "walrus" in capsys.readouterr().err
    # these used to run as the grid (2, 7) and as 1 trial
    for key, value in (("checkpoints", [2.5, 7.9]), ("trials", True)):
        bad.write_text(json.dumps({"d": 2, "n_max": 10, key: value}))
        assert main(["simulate", "--config", str(bad),
                     "--out-dir", str(tmp_path / "out2")]) == 2
        assert key in capsys.readouterr().err
    # a truthy string used to turn the flag on
    for key in ("records_time", "strip_check"):
        bad.write_text(json.dumps({"d": 2, "n_max": 10, key: "false"}))
        assert main(["simulate", "--config", str(bad),
                     "--out-dir", str(tmp_path / "out5")]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out5").exists()
    notjson = tmp_path / "not.json"
    notjson.write_text("{nope")
    assert main(["simulate", "--config", str(notjson),
                 "--out-dir", str(tmp_path / "out3")]) == 2
    assert main(["simulate", "--config", str(tmp_path / "absent.json"),
                 "--out-dir", str(tmp_path / "out4")]) == 3


def test_config_file_switches_stay_on_without_flags(tmp_path, capsys):
    # an absent --records-time or --strip-check leaves the file's true alone,
    # and --seed sets master_seed over the file's
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"d": 2, "n_max": 200, "master_seed": 7,
                                    "records_time": True, "strip_check": True}))
    for extra, seed in (([], 7), (["--seed", "9"], 9)):
        out = tmp_path / f"out{seed}"
        assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out), *extra]) == 0
        capsys.readouterr()
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["records_time"] is config["strip_check"] is True
        assert config["master_seed"] == seed


def test_checkpoints_flag_not_integers_exits_2(tmp_path, capsys):
    for grid in ("a,100", "1.5,100"):
        assert main(["simulate", "--d", "2", "--n-max", "100", "--checkpoints", grid,
                     "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"--checkpoints must be comma-separated integers, got '{grid}'" in err
        assert not (tmp_path / "out").exists()


def test_exact_values_reparse_bit_identical(capsys):
    cases = [
        (["--op", "p-record", "--n", "100", "--d", "2"],
         analytics.p_record(100, 2)),
        (["--op", "mean-records", "--n", "100000", "--d", "3"],
         analytics.mean_records(100000, 3)),
        (["--op", "mean-remaining", "--n", "1000000", "--d", "1"], 1.0),
        (["--op", "y-density", "--n", "50", "--d", "2", "--y", "3.5"],
         float(analytics.y_density(50, 2, 3.5))),
        (["--op", "fplus-centering", "--n", "100000", "--d", "2"],
         analytics.fplus_centering(100000, 2)),
        (["--op", "tm-centering", "--m", "300", "--d", "3"],
         analytics.tm_centering(300, 3)),
        (["--op", "gumbel-cdf", "--y", "0"], math.exp(-1.0)),
        (["--op", "p-record", "--n", "5", "--d", "5000"], analytics.p_record(5, 5000)),
    ]
    for argv, want in cases:
        assert main(["exact"] + argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == want  # 17 significant digits round-trip
    # an integer-valued float is echoed as an int only below 2**53
    assert main(["exact", "--op", "fplus-centering", "--n", "1e308", "--d", "1000000"]) == 0
    out = capsys.readouterr().out
    assert '"n": 1e+308' in out and json.loads(out)["n"] == 1e308


def test_exact_gumbel_cdf_far_left_is_silent():
    proc = run_cli("exact", "--op", "gumbel-cdf", "--y", "-800")
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["value"] == 0.0


def test_one_process_runs_import_no_scipy_or_pool(tmp_path):
    """A fresh interpreter importing the package, answering an exact query
    and running a one-trial simulate at the default worker count loads
    neither scipy nor the process-pool machinery."""
    script = f"""
import sys
import paretorecords
from paretorecords import cli
assert cli.main(["exact", "--op", "p-record", "--n", "5", "--d", "3"]) == 0
assert cli.main(["simulate", "--d", "2", "--n-max", "200", "--trials", "1",
                 "--out-dir", {str(tmp_path / "out")!r}]) == 0
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("scipy", "multiprocessing")
             or name == "concurrent.futures.process"))
"""
    env = child_env()
    env.pop("THREADS", None)  # the default: one worker per logical core
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_exact_argument_errors(capsys):
    assert main(["exact", "--op", "p-record", "--n", "100"]) == 2
    assert "--d" in capsys.readouterr().err
    assert main(["exact", "--op", "p-record", "--n", "10.5", "--d", "2"]) == 2
    capsys.readouterr()
    for bad in ("inf", "nan"):
        assert main(["exact", "--op", "p-record", "--n", bad, "--d", "2"]) == 2
        assert "finite" in capsys.readouterr().err
    # out of range: these raised IndexError and OverflowError (exit 1)
    assert main(["exact", "--op", "asym-mean-records", "--n", "100", "--d", "7"]) == 2
    assert "order" in capsys.readouterr().err
    for op in ("tm-centering", "records-time-centering"):
        assert main(["exact", "--op", op, "--m", "10", "--d", "200"]) == 2
        err = capsys.readouterr().err
        assert "d=200" in err and "m=10" in err
    res = run_cli("exact", "--op", "no-such-op", "--n", "1")
    assert res.returncode == 2


def test_selftest_clean(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    for name in ("stream-determinism", "record-dominance", "record-oracle",
                 "frontier-min-cover", "analytics-identities"):
        assert name in out
    assert "FAIL" not in out


def segment_counts(points_attr):
    pts = [tuple(float(v) for v in tok.split(",")) for tok in points_attr.split()]
    horiz = sum(1 for a, b in zip(pts, pts[1:]) if a[1] == b[1])
    vert = sum(1 for a, b in zip(pts, pts[1:]) if a[0] == b[0])
    return horiz, vert, len(pts) - 1


def test_render_worked_example(capsys):
    assert main(["render", "--points", "1,3;2,2;3,1"]) == 0
    doc = capsys.readouterr().out
    root = ET.fromstring(doc)  # well-formed XML
    ns = "{http://www.w3.org/2000/svg}"
    polys = root.findall(f"{ns}polyline")
    assert len(polys) == 1
    horiz, vert, total = segment_counts(polys[0].get("points"))
    assert (horiz, vert, total) == (4, 4, 8)
    guides = [el for el in root.findall(f"{ns}line")
              if (el.get("class") or "").startswith("guide-")]
    assert len(guides) == 2
    assert len(root.findall(f"{ns}circle")) == 3
    # guide labels carry the two frontier sums
    text = "".join(el.text or "" for el in root.findall(f"{ns}text"))
    assert "sum=3" in text and "sum=4" in text


def test_render_empty_book_axes_only(capsys):
    assert main(["render", "--points", ""]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    ns = "{http://www.w3.org/2000/svg}"
    assert root.findall(f"{ns}polyline") == []
    assert root.findall(f"{ns}circle") == []
    axes = [el for el in root.findall(f"{ns}line") if el.get("class") == "axis"]
    assert len(axes) == 2


def test_render_simulated_and_errors(tmp_path, capsys):
    out = tmp_path / "frontier.svg"
    assert main(["render", "--n", "2000", "--seed", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    root = ET.fromstring(out.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    circles = root.findall(f"{ns}circle")
    assert circles  # simulated book has records
    horiz, vert, _ = segment_counts(root.find(f"{ns}polyline").get("points"))
    assert horiz == len(circles) + 1 and vert == len(circles) + 1

    assert main(["render", "--d", "3", "--points", "1,1"]) == 2
    assert "d=2" in capsys.readouterr().err
    assert main(["render", "--points", "1,2,3"]) == 2
    capsys.readouterr()
    assert main(["render", "--points", "1,2",
                 "--out", str(tmp_path / "no" / "dir.svg")]) == 3
    capsys.readouterr()
    # two 42-px margins leave no plot span at 84 px or less
    for size in ("-5", "0", "84"):
        assert main(["render", "--n", "10", "--size", size]) == 2
        assert "--size" in capsys.readouterr().err
    assert main(["render", "--n", "10", "--size", "85"]) == 0
    assert 'width="85"' in capsys.readouterr().out
    # the message names the flag the user typed, not the config field
    for flag, value, kind in (("--n", "-3", "a nonnegative integer"),
                              ("--seed", "-1", "an integer in [0, 18446744073709551615]"),
                              ("--seed", str(2**64), "an integer in [0, 18446744073709551615]"),
                              ("--trial", "-1", "a nonnegative integer")):
        args = ["render", "--n", "10", flag, value] if flag != "--n" else ["render", flag, value]
        assert main(args) == 2
        assert f"error: {flag} must be {kind}, got {value}" in capsys.readouterr().err


def _per_point_render_book(n, seed, trial):
    # frozen copy of the per-point loop render used before it ran the engine
    book = records.RecordBook(2)
    stream = ObservationStream(seed, trial, 2)
    left = n
    while left:
        take = min(left, 1 << 14)
        for row in stream.take(take):
            book.observe(row)
        left -= take
    return book


def test_render_matches_per_point_reference(capsys):
    for trial in (0, 3):
        for n in (1, 63, 64, 65, 2000, 10**4):
            assert main(["render", "--n", str(n), "--seed", "7",
                         "--trial", str(trial)]) == 0
            want = _svg(_per_point_render_book(n, 7, trial), 640)
            assert capsys.readouterr().out == want, (n, trial)
    # no observations: the axes-only picture of an empty book
    assert main(["render", "--n", "0"]) == 0
    assert capsys.readouterr().out == _svg(records.RecordBook(2), 640)


def test_render_deterministic(capsys):
    assert main(["render", "--n", "500", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["render", "--n", "500", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    assert main(["render", "--n", "500", "--seed", "10"]) == 0
    assert capsys.readouterr().out != first


def test_analyze_outputs(tmp_path, capsys):
    assert main(["simulate", "--d", "2", "--n-max", "3000", "--trials", "30",
                 "--seed", "3", "--records-time", "--strip-check",
                 "--checkpoints", "1000,3000",
                 "--out-dir", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    assert main(["analyze", "--in-dir", str(tmp_path / "run")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 3000 and report["trials"] == 30
    assert report["mean_f_plus"] > report["mean_f_minus"] > 0
    assert 0.9 <= report["mean_strip_cov"] <= 1.0

    assert main(["analyze", "--in-dir", str(tmp_path / "run"),
                 "--ks-norm-fplus", "gumbel"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.0 < report["ks_norm_fplus"] < 1.0

    assert main(["analyze", "--in-dir", str(tmp_path / "run"), "--lil"]) == 0
    text = capsys.readouterr().out
    assert "obs windows" in text and "rec windows" in text

    assert main(["analyze", "--in-dir", str(tmp_path / "nowhere")]) == 3
    assert "rows_obs.csv" in capsys.readouterr().err


def test_analyze_ks_norm_fplus_before_n_3_exits_2(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--d", "2", "--n-max", "2", "--trials", "2",
                 "--seed", "4", "--threads", "1", "--out-dir", str(run)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--in-dir", str(run), "--ks-norm-fplus", "gumbel"]) == 2
    err = capsys.readouterr().err
    assert "norm_fplus" in err and "n=2" in err


def test_analyze_damaged_rows_file(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--d", "2", "--n-max", "300", "--trials", "2",
                 "--seed", "4", "--threads", "1", "--out-dir", str(run)]) == 0
    capsys.readouterr()
    rows = run / "rows_obs.csv"
    whole = rows.read_bytes()
    header, first = whole.splitlines(keepends=True)[:2]
    names, cells = header.split(b","), first.split(b",")
    no_bhat = [i for i, name in enumerate(names) if not name.startswith(b"bhat_")]
    damaged = {
        "empty": b"",
        "truncated": header + first[: len(first) // 2],
        "foreign header": header.replace(b"norm_r", b"norm_q") + first,
        "no bhat column": b",".join(names[i] for i in no_bhat)
                          + b",".join(cells[i] for i in no_bhat),
        "foreign clock": whole.replace(b",obs,", b',"a,b",', 1),
    }
    for case, data in damaged.items():
        rows.write_bytes(data)
        assert main(["analyze", "--in-dir", str(run)]) == 2, case
        assert str(rows) in capsys.readouterr().err, case


def test_analyze_reads_records_time_rows_only_for_lil(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["simulate", "--d", "2", "--n-max", "300", "--trials", "2",
                 "--seed", "4", "--threads", "1", "--records-time",
                 "--out-dir", str(run)]) == 0
    capsys.readouterr()
    rec = run / "rows_rec.csv"
    header, first = rec.read_bytes().splitlines(keepends=True)[:2]
    rec.write_bytes(header + first[: len(first) // 2])
    assert main(["analyze", "--in-dir", str(run)]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 2
    assert main(["analyze", "--in-dir", str(run), "--lil"]) == 2
    assert str(rec) in capsys.readouterr().err


def test_non_finite_checkpoint_ratio_exits_2(tmp_path, capsys):
    for ratio in ("inf", "nan"):
        assert main(["simulate", "--d", "2", "--n-max", "100",
                     "--checkpoint-ratio", ratio,
                     "--out-dir", str(tmp_path / ratio)]) == 2, ratio
        assert "checkpoint_ratio" in capsys.readouterr().err
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"d": 2, "n_max": 100, "checkpoint_ratio": math.inf}))
    assert main(["simulate", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "cfg")]) == 2
    assert not (tmp_path / "inf").exists() and not (tmp_path / "cfg").exists()


def test_overflowing_checkpoint_ratio_runs(tmp_path, capsys):
    # at 1e308 the grid's second point overflows to inf, which ends it at
    # (10, 100); the overflow used to escape as a traceback and exit 1
    assert main(["simulate", "--d", "2", "--n-max", "100", "--checkpoint-ratio", "1e308",
                 "--out-dir", str(tmp_path / "run")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["grid"] == [10, 100] and summary["rows_obs"] == 2


def test_checkpoint_ratio_near_one_exits_2(tmp_path):
    # a few ulps above 1 the grid loop would run ~10**16 times; it is refused
    # before the loop starts (the timeout turns a hang into a failure)
    res = run_cli("simulate", "--d", "2", "--n-max", "100",
                  "--checkpoint-ratio", "1.0000000000000002",
                  "--out-dir", str(tmp_path / "run"), timeout=60)
    assert res.returncode == 2
    assert "checkpoint_ratio" in res.stderr
    assert not (tmp_path / "run").exists()


def test_stale_records_time_outputs_removed(tmp_path, capsys):
    out = tmp_path / "run"
    run_ensemble(ExperimentConfig(d=2, n_max=2000, trials=2, master_seed=5,
                                  records_time=True), out)
    res = run_ensemble(ExperimentConfig(d=3, n_max=2000, trials=2, master_seed=6), out)
    assert {p.name for p in out.iterdir()} == {Path(f).name for f in res.files.values()}
    assert main(["analyze", "--in-dir", str(out), "--lil"]) == 0
    text = capsys.readouterr().out
    assert "obs windows" in text and "rec windows" not in text


def test_threads_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THREADS", "2")
    assert main(["simulate", "--d", "2", "--n-max", "200", "--trials", "2",
                 "--seed", "1", "--out-dir", str(tmp_path / "env")]) == 0
    capsys.readouterr()
    # "²" passes str.isdigit but not int(); "٣" (Arabic-Indic 3) passes both
    for value in ("zero", "\u00b2", "\u0663"):
        monkeypatch.setenv("THREADS", value)
        assert main(["simulate", "--d", "2", "--n-max", "200", "--trials", "2",
                     "--seed", "1", "--out-dir", str(tmp_path / "env2")]) == 2, value
        assert "THREADS" in capsys.readouterr().err, value
    assert not (tmp_path / "env2").exists()
