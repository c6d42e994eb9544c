"""Layer spans recorded from outside the package.

The tracer wraps the callables through which the package enters each layer
(module functions and class methods), so the package itself is untouched.
Spans are aggregated in memory per name: call count, total time and self
time, where self time is a span's duration minus the time of the traced
spans it encloses.  A few names also keep every duration for percentiles,
and some attach a counter hook that reads the arguments or the result.

A target that no longer exists is recorded as missing and reports zero
calls, and a counter hook that fails on a changed signature is recorded and
skipped, so the benchmark survives refactors of private helpers.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

PACKAGE = "paretorecords"


def _count_stage2(tracer, args, kwargs, result):
    tracer.count("records.stage1_rows", len(args[1]))
    tracer.count("records.stage2_rows", int(len(result) - result.sum()))


def _count_take(tracer, args, kwargs, result):
    tracer.count("rng.rows", len(result))


def _count_record(tracer, args, kwargs, result):
    tracer.count("records.set", int(bool(result.is_record)))


def _count_r(tracer, args, kwargs, result):
    tracer.count("frontier.f_minus.r_total", int(getattr(args[0], "r", 0)))


def _count_bytes(tracer, args, kwargs, result):
    tracer.count("harness.write_rows.bytes", os.path.getsize(args[0]))


def _count_keys(tracer, args, kwargs, result):
    with open(args[0]) as fh:
        next(fh)
        keys = {line.split(",", 1)[0] for line in fh}
    tracer.count("harness.write_aggregates.keys", len(keys))


def _count_loaded(tracer, args, kwargs, result):
    tracer.count("harness.load_rows.rows", len(result))


def _count_prefix(tracer, args, kwargs, result):
    # a prefix array not returned before was just built: count its entries
    seen = tracer.scratch.setdefault("prefix_ids", set())
    if id(result) not in seen:
        seen.add(id(result))
        tracer.scratch.setdefault("prefix_refs", []).append(result)
        tracer.count("analytics.prefix_build.p_evals", len(result) - 1)


# (span name, module, attribute path, keep durations, counter hook)
TARGETS = [
    ("rng.take_uniforms", "rng", "ObservationStream.take_uniforms", False, _count_take),
    ("rng.take", "rng", "ObservationStream.take", False, None),
    ("records.coord_sums", "records", "coord_sums", False, None),
    ("records.absorb_nonrecords", "records", "RecordBook.absorb_nonrecords", False, None),
    ("records.dominated_by_current", "records", "RecordBook.dominated_by_current", False,
     _count_stage2),
    ("records.observe", "records", "RecordBook._observe_raw", False, _count_record),
    ("frontier.f_minus", "frontier", "f_minus", True, _count_r),
    ("frontier.staircase", "frontier", "_staircase", False, None),
    ("frontier.branch_and_bound", "frontier", "_branch_and_bound", False, None),
    ("frontier.f_plus", "frontier", "f_plus", False, None),
    ("harness.run_trial", "harness", "run_trial", True, None),
    ("harness.simulate", "harness", "_simulate", False, None),
    ("harness.make_row", "harness", "_make_row", False, None),
    ("harness.strip_coverage", "harness", "strip_coverage", False, None),
    ("harness.write_rows", "harness", "_write_rows", False, _count_bytes),
    ("harness.write_aggregates", "harness", "_write_aggregates", False, _count_keys),
    ("harness.ensemble", "harness", "run_ensemble", False, None),
    ("harness.load_rows", "harness", "load_rows", False, _count_loaded),
    ("harness.ks_statistic", "harness", "ks_statistic", False, None),
    ("cli.simulate", "cli", "_cmd_simulate", False, None),
    ("cli.analyze", "cli", "_cmd_analyze", False, None),
    ("analytics.prefix_build", "analytics", "_ensure_prefix", False, _count_prefix),
    ("analytics.p_batch", "analytics", "_p_batch", False, None),
    ("analytics.mean_records_integral", "analytics", "_mean_records_integral", False, None),
    ("analytics.sample_y", "analytics", "sample_y", False, None),
    ("analytics.sample_y.table", "analytics", "_CdfTable", False, None),
]


class Tracer:
    """Installs span wrappers on the package and aggregates what they see."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.samples: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.missing: list[str] = []
        self.scratch: dict = {}
        self._stack: list[float] = []  # enclosed traced time per open span
        self._undo: list = []

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def reset(self) -> None:
        self.stats = {name: [0, 0.0, 0.0] for name, *_ in TARGETS}
        self.samples = {name: [] for name, _, _, keep, _ in TARGETS if keep}
        self.counters = {}
        self.scratch = {}

    def _wrap(self, name, fn, keep, hook):
        stack = self._stack
        tracer = self
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                enclosed = stack.pop()
                if stack:
                    stack[-1] += dt
                st = tracer.stats[name]
                st[0] += 1
                st[1] += dt
                st[2] += dt - enclosed
                if keep:
                    tracer.samples[name].append(dt)
            if hook is not None:
                # hook time is charged to no layer: keep it out of the
                # enclosing span's self time
                h0 = clock()
                try:
                    hook(tracer, args, kwargs, return_value)
                except Exception as exc:  # a changed signature must not stop the run
                    if name not in tracer.missing:
                        tracer.missing.append(f"{name} (counter: {exc!r})")
                if stack:
                    stack[-1] += clock() - h0
            return return_value

        return span

    def install(self) -> None:
        self.reset()
        self.missing = []
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, mod_name, path, keep, hook in TARGETS:
            try:
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, keep, hook)
            self._patch(owner, attr, original, wrapper)
            if not parents:
                # names imported with "from .x import f" elsewhere in the package
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._patch(mod, alias, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Plain-data view of one traced operation."""
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "samples": {k: list(v) for k, v in self.samples.items()},
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }
