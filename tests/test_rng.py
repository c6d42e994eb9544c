"""Stream determinism, random access, and frozen generator pins.

The frozen values below were produced by an independent script driving
numpy's Philox directly (counter set per observation block), before the
stream class existed.  They pin the address layout: observation i of a
dim-d stream owns counter blocks [i*B, (i+1)*B) with B = ceil(d/4), one
uint64-derived double per coordinate, exponentials via -log1p(-U).
"""

import copy
import math
import pickle

import numpy as np
import pytest

from paretorecords import ObservationStream
from paretorecords.rng import _uniform

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


# the three reads of a stream, by kind
READS = {
    "take": ObservationStream.take,
    "uniforms": ObservationStream.take_uniforms,
    "words": ObservationStream.take_words,
}


def _fresh_read(stream, index, count, kind):
    """``count`` observations at ``index`` from a stream built for the read."""
    fresh = ObservationStream(stream.master_seed, stream.trial, stream.dim)
    fresh.seek(index)
    return READS[kind](fresh, count)


def _checked_read(stream, count, kind):
    at = stream.index
    got = READS[kind](stream, count)
    assert got.shape == (count, stream.dim)
    assert got.dtype == (np.uint64 if kind == "words" else np.float64)
    assert np.array_equal(got, _fresh_read(stream, at, count, kind)), (at, count)
    assert stream.index == at + count


@pytest.mark.parametrize("dim", (1, 2, 3, 4, 5, 8, 9))
def test_reused_generator_reads_match_fresh_streams(dim):
    # reads continue from the stream's own generator; every one must be the
    # read a new stream makes at the same address, however the cursor got there
    s = ObservationStream(2718, 6, dim)
    for op, arg in [
        ("take", 3), ("uniforms", 0), ("uniforms", 5), ("take", 0), ("take", 1),
        ("seek", None), ("uniforms", 2), ("seek", None), ("take", 4),
        ("words", 2), ("uniforms", 1), ("words", 0), ("take", 2),
        ("seek", 2), ("take", 3), ("uniforms", 1), ("words", 3),  # backwards
        ("seek", 40), ("uniforms", 6), ("take", 2), ("words", 5),  # forwards, past unread slots
        ("seek", 0), ("words", 1), ("uniforms", 0), ("take", 1), ("seek", 41), ("take", 9),
        ("index", 7), ("uniforms", 3), ("index", 10), ("take", 2),  # assigned
        ("index", 3), ("words", 4), ("take", 1),
    ]:
        if op == "seek":
            s.seek(s.index if arg is None else arg)
        elif op == "index":
            s.index = arg
        else:
            _checked_read(s, arg, op)


def test_words_map_to_the_uniforms_bitwise():
    # _uniform of a word read is bitwise the uniform read at the same address,
    # across split reads, seeks, and copies and pickles taken in mid-stream
    for dim in (1, 2, 3, 4, 5, 8, 9):
        ref = ObservationStream(606, 2, dim).take_uniforms(60)
        s = ObservationStream(606, 2, dim)
        parts = [_uniform(s.take_words(k)) for k in (1, 7, 0, 12, 20)]
        assert np.vstack(parts).tobytes() == ref[:40].tobytes(), dim
        for at, k in ((3, 5), (0, 1), (45, 15), (44, 0), (10, 30)):
            s.seek(at)
            assert _uniform(s.take_words(k)).tobytes() == ref[at:at + k].tobytes(), (dim, at)
        s.seek(20)
        s.take_words(3)
        for c in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert _uniform(c.take_words(9)).tobytes() == ref[23:32].tobytes(), dim
        assert _uniform(s.take_words(9)).tobytes() == ref[23:32].tobytes(), dim


def test_copies_never_share_bits():
    # a copy taken in mid-stream reads its own addresses, and reading from it
    # never moves the original (nor the other way round), in any interleaving
    s = ObservationStream(4242, 1, 3)
    s.take(5)
    s.seek(9)
    s.take_uniforms(2)
    copies = [copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))]
    for c in copies:
        assert (c.master_seed, c.trial, c.dim, c.index) == (4242, 1, 3, 11)
    streams = [s] + copies
    for count in (1, 3, 0, 2, 4):
        for k, stream in enumerate(streams):
            _checked_read(stream, count + k, ("uniforms", "take", "words")[k % 3])
    for stream in streams:
        stream.seek(11)
    reads = [stream.take(6) for stream in streams]
    assert all(np.array_equal(r, reads[0]) for r in reads)
    assert np.array_equal(reads[0], _fresh_read(s, 11, 6, "take"))


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
