"""The public surface: every exported name resolves, and is exported once;
every entry that takes an integer, or a real, checks it the same way."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import paretorecords
from paretorecords import analytics, frontier, harness
from paretorecords.harness import ExperimentConfig
from paretorecords.records import RecordBook
from paretorecords.rng import ObservationStream

MODULES = ["paretorecords"] + [
    f"paretorecords.{info.name}" for info in pkgutil.iter_modules(paretorecords.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), sorted(
        n for n in set(exported) if exported.count(n) > 1
    )
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


# numpy integers are stored as plain ints, so run_ensemble can write them
# to summary.json
_CFG = ExperimentConfig(d=np.int64(2), n_max=np.int64(20))

# (entry point(argument), call with that argument set to k, a valid k)
INTEGER_ENTRIES = [
    ("p_record(n)", lambda k, tmp: analytics.p_record(k, 2), 5),
    ("p_record(d)", lambda k, tmp: analytics.p_record(5, k), 2),
    ("p_record_exact(n)", lambda k, tmp: analytics.p_record_exact(k, 2), 5),
    ("p_record_exact(d)", lambda k, tmp: analytics.p_record_exact(5, k), 2),
    ("mean_records(n)", lambda k, tmp: analytics.mean_records(k, 2), 5),
    ("mean_records(d)", lambda k, tmp: analytics.mean_records(5, k), 2),
    ("mean_remaining(n)", lambda k, tmp: analytics.mean_remaining(k, 2), 5),
    ("mean_remaining(d)", lambda k, tmp: analytics.mean_remaining(5, k), 2),
    ("y_density(n)", lambda k, tmp: analytics.y_density(k, 2, 1.0), 5),
    ("y_density(d)", lambda k, tmp: analytics.y_density(5, k, 1.0), 2),
    ("sample_y(n)", lambda k, tmp: analytics.sample_y(ObservationStream(0), k, 2), 5),
    ("sample_y(d)", lambda k, tmp: analytics.sample_y(ObservationStream(0), 5, k), 2),
    ("fplus_centering(d)", lambda k, tmp: analytics.fplus_centering(100.0, k), 2),
    ("tm_centering(d)", lambda k, tmp: analytics.tm_centering(5.0, k), 2),
    ("records_time_fplus_centering(d)",
     lambda k, tmp: analytics.records_time_fplus_centering(5.0, k), 3),
    ("asym_mean_records(d)", lambda k, tmp: analytics.asym_mean_records(100.0, k, 1), 2),
    ("asym_mean_records(order)", lambda k, tmp: analytics.asym_mean_records(100.0, 2, k), 1),
    ("RecordBook(d)", lambda k, tmp: RecordBook(k), 2),
    ("RecordBook(top_capacity)", lambda k, tmp: RecordBook(2, top_capacity=k), 2),
    ("RecordBook.absorb_nonrecords(count)",
     lambda k, tmp: RecordBook(2).absorb_nonrecords(k, [1.0, 2.0]), 2),
    ("ObservationStream(master_seed)", lambda k, tmp: ObservationStream(k), 3),
    ("ObservationStream(trial)", lambda k, tmp: ObservationStream(0, trial=k), 3),
    ("ObservationStream(dim)", lambda k, tmp: ObservationStream(0, dim=k), 2),
    ("ObservationStream.take", lambda k, tmp: ObservationStream(0).take(k), 2),
    ("ObservationStream.take_uniforms", lambda k, tmp: ObservationStream(0).take_uniforms(k), 2),
    ("ObservationStream.seek", lambda k, tmp: ObservationStream(0).seek(k), 2),
    ("RegionCorners(d)", lambda k, tmp: frontier.RegionCorners(k), 2),
    ("sweeten(m)", lambda k, tmp: frontier.sweeten([1.0, 1.0], k), 2),
    ("IntegerGridPoint(coords)", lambda k, tmp: frontier.IntegerGridPoint((k, 1)), 2),
    ("lower_bound_probability(d)",
     lambda k, tmp: frontier.lower_bound_probability(100.0, 1.0, k), 2),
    ("geometric_grid(n_max)", lambda k, tmp: harness.geometric_grid(k), 100),
    ("ExperimentConfig(d)", lambda k, tmp: ExperimentConfig(d=k, n_max=20), 2),
    ("ExperimentConfig(n_max)", lambda k, tmp: ExperimentConfig(d=2, n_max=k), 20),
    ("ExperimentConfig(trials)", lambda k, tmp: ExperimentConfig(d=2, n_max=20, trials=k), 2),
    ("ExperimentConfig(master_seed)",
     lambda k, tmp: ExperimentConfig(d=2, n_max=20, master_seed=k), 3),
    ("ExperimentConfig(top_m)", lambda k, tmp: ExperimentConfig(d=2, n_max=20, top_m=k), 2),
    ("ExperimentConfig(checkpoints)",
     lambda k, tmp: ExperimentConfig(d=2, n_max=20, checkpoints=(k, 20)), 5),
    ("run_trial(trial)", lambda k, tmp: harness.run_trial(_CFG, k), 3),
    # a generator checks its arguments when it is first advanced
    ("trajectory(trial)", lambda k, tmp: next(harness.trajectory(_CFG, k)), 3),
    ("run_ensemble(threads)", lambda k, tmp: harness.run_ensemble(_CFG, tmp, threads=k), 1),
]


@pytest.mark.parametrize("entry, call, good", INTEGER_ENTRIES,
                         ids=[e[0] for e in INTEGER_ENTRIES])
def test_integer_gate(entry, call, good, tmp_path):
    """Every public entry that takes an integer refuses a bool and a
    non-integral number with ValueError, and takes a numpy integer."""
    for bad in (True, 2.5):
        with pytest.raises(ValueError):
            call(bad, tmp_path)
    call(np.int64(good), tmp_path)


# (entry point(argument), call with that argument set to x, a valid x)
REAL_ENTRIES = [
    ("fplus_centering(n)", lambda x: analytics.fplus_centering(x, 2), 100.0),
    ("tm_centering(m)", lambda x: analytics.tm_centering(x, 2), 5.0),
    ("records_time_fplus_centering(m)",
     lambda x: analytics.records_time_fplus_centering(x, 3), 5.0),
    ("asym_mean_records(n)", lambda x: analytics.asym_mean_records(x, 2, 1), 1e6),
    ("lower_bound_probability(n)", lambda x: frontier.lower_bound_probability(x, 1.0, 2), 100.0),
    ("lower_bound_probability(b)", lambda x: frontier.lower_bound_probability(100.0, x, 2), 1.0),
    ("geometric_grid(ratio)", lambda x: harness.geometric_grid(100, x), 1.5),
]


@pytest.mark.parametrize("entry, call, good", REAL_ENTRIES, ids=[e[0] for e in REAL_ENTRIES])
def test_real_gate(entry, call, good):
    """Every public entry that takes a real refuses a string, a bool, None,
    nan and inf with ValueError, and takes a numpy float."""
    for bad in (str(good), True, None, math.nan, math.inf):
        with pytest.raises(ValueError):
            call(bad)
    assert call(np.float64(good)) == call(good)


@pytest.mark.parametrize("entry, call, good", REAL_ENTRIES, ids=[e[0] for e in REAL_ENTRIES])
def test_real_gate_int_beyond_float_range(entry, call, good):
    """An int too large for a float is refused with the gate's ValueError
    naming the argument, not with the OverflowError of converting it."""
    name = entry[entry.index("(") + 1: -1]
    with pytest.raises(ValueError, match=f"{name} must be a finite real"):
        call(10**400)
