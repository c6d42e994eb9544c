"""Stream determinism, random access, and frozen generator pins.

The frozen values below were produced by an independent script driving
numpy's Philox directly (counter set per observation block), before the
stream class existed.  They pin the address layout: observation i of a
dim-d stream owns counter blocks [i*B, (i+1)*B) with B = ceil(d/4), one
uint64-derived double per coordinate, exponentials via -log1p(-U).
"""

import math

import numpy as np
import pytest

from paretorecords import ObservationStream

# (master_seed, trial, dim, index) -> coordinates
FROZEN = {
    (0, 0, 1, 0): [0.011613935705874748],
    (0, 0, 1, 1): [0.6979177502008289],
    (12345, 7, 3, 0): [0.041610032467829974, 0.40382231878443675, 0.44279212886430913],
    (12345, 7, 3, 2): [0.6936711116892074, 0.5128348660071953, 0.5891483711523132],
    (2**64 - 1, 3, 5, 10): [
        2.2724927822272685,
        2.2547396959183112,
        1.865409671274664,
        0.1905300391422967,
        0.30108295746440317,
    ],
}


def test_frozen_addresses():
    for (seed, trial, dim, idx), expected in FROZEN.items():
        s = ObservationStream(seed, trial, dim)
        s.seek(idx)
        got = s.take(1)[0]
        assert got.tolist() == expected, (seed, trial, dim, idx)


def test_checksum_pin():
    draws = ObservationStream(42, 1, 2).take(100)
    assert math.fsum(draws.ravel().tolist()) == 202.91042506883693


def test_chunking_is_invisible():
    # any split of take() calls yields the same observation matrix
    for dim in (1, 2, 3, 4, 5, 8, 9):
        ref = ObservationStream(99, 4, dim).take(40)
        s = ObservationStream(99, 4, dim)
        parts = [s.take(k) for k in (1, 7, 0, 12, 20)]
        assert np.array_equal(ref, np.vstack(parts))


def test_seek_matches_bulk():
    ref = ObservationStream(5, 2, 3).take(50)
    s = ObservationStream(5, 2, 3)
    for idx in (0, 1, 17, 49, 3):
        s.seek(idx)
        assert np.array_equal(s.take(1)[0], ref[idx])


def test_fresh_streams_identical():
    a = ObservationStream(31337, 0, 4).take(10)
    b = ObservationStream(31337, 0, 4).take(10)
    assert np.array_equal(a, b)


def test_trials_and_seeds_decorrelate():
    base = ObservationStream(100, 0, 2).take(8)
    assert not np.array_equal(base, ObservationStream(100, 1, 2).take(8))
    assert not np.array_equal(base, ObservationStream(101, 0, 2).take(8))


def test_uniform_and_exponential_ranges():
    s = ObservationStream(1, 1, 6)
    u = s.take_uniforms(1000)
    assert u.shape == (1000, 6)
    assert np.all((u >= 0.0) & (u < 1.0))
    s.seek(0)
    x = s.take(1000)
    assert np.all(np.isfinite(x)) and np.all(x >= 0.0)
    # same addresses, so the transform must tie out exactly
    assert np.array_equal(x, -np.log1p(-u))


def test_sample_moments():
    x = ObservationStream(2024, 0, 2).take(100_000)
    assert abs(x.mean() - 1.0) < 0.02
    assert abs((x > math.log(2)).mean() - 0.5) < 0.01


def test_validation_errors():
    with pytest.raises(ValueError):
        ObservationStream(-1)
    with pytest.raises(ValueError):
        ObservationStream(2**64)
    with pytest.raises(ValueError):
        ObservationStream(0, trial=-2)
    with pytest.raises(ValueError):
        ObservationStream(0, dim=0)
    with pytest.raises(ValueError):
        ObservationStream(1.5)
    s = ObservationStream(0)
    with pytest.raises(ValueError):
        s.seek(-1)
    with pytest.raises(ValueError):
        s.take(-1)
