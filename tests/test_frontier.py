"""Frontier extremes: worked cases, route agreement, integer repair."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from paretorecords import RecordBook, frontier, rebuild_oracle
from paretorecords.frontier import (
    IntegerGridPoint,
    RegionCorners,
    f_minus,
    f_minus_bruteforce,
    f_minus_candidate_grid,
    f_plus,
    in_rs,
    lower_bound_probability,
    sweeten,
)


def book_of(points):
    return rebuild_oracle(points)


def random_record_set(rng, r, d, integers=False):
    """Mutually non-dominating rows, the shape of a real record set."""
    if integers:
        recs = rng.integers(0, 5, size=(r, d)).astype(float)
    else:
        recs = rng.exponential(size=(r, d))
    keep = [
        i
        for i in range(r)
        if not any(np.all(recs[k] > recs[i]) for k in range(r) if k != i)
    ]
    return recs[keep] if keep else recs[:1]


# -- worked extremes --------------------------------------------------------

def test_f_plus_cases():
    assert f_plus(book_of([(1, 3), (2, 2), (3, 1)])) == 4.0
    assert f_plus(book_of([(1, 2)])) == 3.0
    b = RecordBook(2)
    b.observe((1, 2))
    first = f_plus(b)
    b.observe((2, 3))
    assert first == 3.0 and f_plus(b) == 5.0
    assert f_plus(RecordBook(2)) == 0.0


def test_f_minus_cases():
    assert f_minus(book_of([(1, 3), (2, 2), (3, 1)])) == 3.0
    assert f_minus(book_of([(1, 2)])) == 1.0
    assert f_minus(RecordBook(3)) == 0.0
    b1 = book_of([(5,)])
    assert f_minus(b1) == f_plus(b1) == 5.0


def test_bruteforce_cases():
    assert f_minus_bruteforce([(1, 3), (2, 2), (3, 1)]) == 3.0
    assert f_minus_bruteforce([(1, 1, 1)]) == 1.0
    with pytest.raises(ValueError):
        f_minus_bruteforce(np.ones((13, 2)))
    with pytest.raises(ValueError):
        f_minus_candidate_grid(np.ones((13, 2)))
    # array rows go through the same point check as list rows, so the
    # oracles never solve for negative or NaN coordinates
    for bad in (np.array([[-1.0, 2.0], [3.0, -5.0]]), np.array([[1.0, 2.0], [math.nan, 1.0]])):
        for oracle in (f_minus_bruteforce, f_minus_candidate_grid):
            with pytest.raises(ValueError, match="coordinates must be"):
                oracle(bad)


def test_route_agreement_random():
    rng = np.random.default_rng(42)
    for t in range(150):
        d = int(rng.integers(2, 5))
        r = int(rng.integers(1, 10))
        recs = random_record_set(rng, r, d, integers=(t % 3 == 0))
        main = f_minus(book_of(recs))
        assert main == f_minus_bruteforce(recs) == f_minus_candidate_grid(recs)


def test_witness_properties():
    rng = np.random.default_rng(12)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 60))
        book = rebuild_oracle(rng.exponential(size=(n, d)))
        corners = RegionCorners.of(book)
        value, w = corners.value, corners.witness()
        assert value == f_minus(book)
        assert math.fsum(w.tolist()) == value
        assert in_rs(book, np.maximum(w, 0.0))
        recs = book.record_coords
        eps = 1e-6
        for j in range(d):
            if w[j] > 0.0:
                # the witness coordinate is a blocked record's coordinate, so
                # backing it off violates that record's covering constraint
                assert np.any(recs[:, j] == w[j])
                assert np.any((recs[:, j] <= w[j]) & (recs[:, j] > w[j] - eps))


def grid_corners(recs):
    """Minimal points of the record-setting region, straight from the
    definition: scan the grid of record coordinates (and 0) and keep each
    in-region point from which stepping any positive coordinate down to
    the next grid value leaves the region."""
    d = recs.shape[1]
    axes = [np.unique(np.concatenate([[0.0], recs[:, j]])) for j in range(d)]
    ranges = np.meshgrid(*[np.arange(a.size) for a in axes], indexing="ij")
    idx = np.stack([m.ravel() for m in ranges], axis=1)

    def inside(ix):
        x = np.stack([axes[j][ix[:, j]] for j in range(d)], axis=1)
        return ~np.any(np.all(x[:, None, :] < recs[None, :, :], axis=2), axis=1)

    minimal = inside(idx)
    for j in range(d):
        down = idx.copy()
        down[:, j] = np.maximum(down[:, j] - 1, 0)
        minimal &= ~((idx[:, j] > 0) & inside(down))
    pts = np.stack([axes[j][idx[minimal, j]] for j in range(d)], axis=1)
    return set(map(tuple, pts.tolist()))


def test_region_corners_match_grid_minima():
    # after every record the kept corners are exactly the region's minimal
    # points, each once, with fsum sums; tie-heavy integer data exercises
    # surviving corners that tie the new record in one coordinate
    rng = np.random.default_rng(1901)
    for d in (1, 2, 3, 4):
        for ties in (False, True):
            for _ in range(6):
                n = int(rng.integers(1, 60 if d == 4 else 150))
                pts = rng.exponential(size=(n, d))
                if ties:
                    pts = np.ceil(2.0 * pts)
                book = RecordBook(d)
                corners = RegionCorners(d)
                assert corners.points.tolist() == [[0.0] * d]
                for row in pts:
                    if not book.observe(row).is_record:
                        continue
                    corners.add(row)
                    got = list(map(tuple, corners.points.tolist()))
                    assert len(got) == len(set(got))
                    assert set(got) == grid_corners(book.record_coords)
                    assert corners.sums.tolist() == [math.fsum(p) for p in got]
                    assert corners.value == f_minus(book)


def frozen_region_add(points, sums, z):
    """Frozen copy of RegionCorners.add from before the exactly-one-coordinate
    rule: block pruning by an all-pairs (d, dead, dead, d) broadcast.
    Returns the new (points, sums)."""
    z = np.asarray(z, dtype=np.float64)
    dead = (points < z).all(axis=1)
    if not dead.any():
        return points, sums
    live = ~dead
    survivors = points[live]
    raise_ = np.eye(z.size, dtype=bool)[:, None, :]
    cand = np.where(raise_, z, points[dead])  # (d, dead, d)
    # keep a candidate iff it is the only one of its block at or below it
    below = (cand[:, :, None, :] <= cand[:, None, :, :]).all(axis=3)
    cand = cand[below.sum(axis=1) == 1]
    ties = survivors[(survivors == z).any(axis=1)]
    if len(ties):
        covered = (ties[:, None, :] <= cand[None, :, :]).all(axis=2)
        cand = cand[~covered.any(axis=0)]
    return (np.concatenate([survivors, cand]),
            np.concatenate([sums[live], [math.fsum(c) for c in cand.tolist()]]))


def assert_same_corners(corners, points, sums):
    assert corners.points.tolist() == points.tolist()  # order included
    assert corners.sums.tobytes() == sums.tobytes()
    assert corners.value == float(sums.min())
    assert corners.witness().tobytes() == points[int(np.argmin(sums))].tobytes()


@pytest.mark.parametrize(
    "d, n", [(2, 4000), (3, 2500), (4, 600), (5, 220), (6, 70), (8, 22)]
)
@pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
def test_region_corners_match_frozen_add(d, n, ties):
    # points scattered about slowly growing simplices x_+ = s: most are
    # records, many kill, and a record often kills several corners at once
    rng = np.random.default_rng(2015 + d)
    scale = 3.0 + 3.0 * np.arange(n)[:, None] / n + rng.uniform(0.0, 0.5, (n, 1))
    pts = rng.dirichlet(np.ones(d), n) * scale
    if ties:
        pts = np.ceil(2.0 * pts)
    book = RecordBook(d)
    corners = RegionCorners(d)
    points, sums = corners.points, corners.sums
    records = multi = tied = 0
    for row in pts:
        if not book.observe(row).is_record:
            continue
        records += 1
        multi += int((points < row).all(axis=1).sum()) > 1
        tied += bool((points == row).any())
        corners.add(row)
        points, sums = frozen_region_add(points, sums, row)
        assert_same_corners(corners, points, sums)
    # the streams do exercise ties, and records that kill several corners;
    # at d >= 6 about a thousand corners die at once, as much as the frozen
    # (d, dead, dead, d) broadcast can take, so n stays small
    assert records >= (1500 if d <= 3 else 200 if d <= 5 else n // 2)
    assert (tied if ties else multi) > records // 2


def simplex_corners(n, seed, d=5):
    """Corners after n Dirichlet records on x_+ = 1: mutually
    non-dominating, so every one is a record and corners pile up."""
    corners = RegionCorners(d)
    for row in np.random.default_rng(seed).dirichlet(np.ones(d), n):
        corners.add(row)
    return corners


def test_region_corners_add_memory_is_bounded():
    # one record above all of > 3000 corners, or above all but one where it
    # ties the largest record coordinate in x_0: the all-pairs broadcast
    # needs d * dead * dead * d bytes (over 300 MB); the defining-record
    # rule, its lookup for ties included, stays under a bound fixed in
    # advance
    for tie in (False, True):
        corners = simplex_corners(150, seed=3)
        assert corners.points.shape[0] > 3000
        z = np.full(5, 2.0)
        if tie:
            z[0] = corners.points[:, 0].max()
        tracemalloc.start()
        try:
            corners.add(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, (tie, peak)
        # the region is now the points with x_0 >= z_0 or some x_j >= 2
        assert corners.points.tolist() == np.diag(z).tolist()


def test_region_corners_many_dead_match_frozen_add():
    # about 1000 corners, where the frozen broadcast still fits: kill a
    # share of them, then all of them, then a share with a z that ties a
    # record's coordinate, so the lookup for ties runs on them
    tied = np.full(5, 0.3)  # x_0 moved to the nearest record coordinate
    x0 = simplex_corners(60, seed=0).points[:, 0]
    tied[0] = x0[np.argmin(np.abs(x0 - 0.3))]
    for z in (np.full(5, 0.3), np.full(5, 1.0), tied):
        corners = simplex_corners(60, seed=0)
        points, sums = corners.points, corners.sums
        assert points.shape[0] > 1000
        dead = int((points < z).all(axis=1).sum())
        assert dead > 500
        corners.add(z)
        assert_same_corners(corners, *frozen_region_add(points, sums, z))


class FrozenCorners:
    """Frozen copy of RegionCorners from before batches: the
    defining-record rule applied one record at a time (``add``)."""

    def __init__(self, d):
        self.points, self.sums = np.zeros((1, d)), np.zeros(1)
        self._seen = np.full((1, d), np.inf)
        self._src = np.zeros((1, d), dtype=np.intp)
        self._tied = False
        self._eye = np.eye(d, dtype=bool)
        self._own = np.diag(np.full(d, -np.inf))

    def add(self, z):
        pts, seen = self.points, self._seen
        dead = (pts < z).all(axis=1)
        gone = dead.nonzero()[0]
        if not gone.size:
            return
        lost, src = pts.take(gone, axis=0), self._src.take(gone, axis=0)
        self._tied = self._tied or bool((seen == z).any())
        if self._tied:
            over = (seen > lost[:, None, :]).sum(axis=2)
            defines = (seen == lost[:, None, :]) & (over == z.size - 1)[:, :, None]
            above = np.matmul(defines.transpose(0, 2, 1), seen > z)
            above |= (lost == 0.0)[:, :, None] | self._eye
        else:
            above = seen.take(src, axis=0) > z + self._own
        block, row = above.all(axis=1).T.nonzero()
        raised = self._eye[block]
        cand = np.where(raised, z, lost.take(row, axis=0))
        live = (~dead).nonzero()[0]
        self.points = np.concatenate((pts.take(live, axis=0), cand))
        self.sums = np.concatenate((self.sums.take(live), [math.fsum(c) for c in cand.tolist()]))
        src = np.where(raised, len(seen), src.take(row, axis=0))
        self._src = np.concatenate((self._src.take(live, axis=0), src))
        self._seen = np.concatenate((seen, z[None]))


def corner_rows(corners):
    """The corners with their sums, as sorted row bytes: the corner set and
    its sums bit for bit, whatever the order."""
    return sorted(row.tobytes() for row in np.column_stack((corners.points, corners.sums)))


def still_current(recs):
    """The rows of ``recs`` (in set order) that no later row strictly
    dominates."""
    beaten = (recs[:, None, :] > recs[None, :, :]).all(axis=2)  # [i, k]: i beats k
    return recs[~np.tril(beaten, -1).any(axis=0)]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
def test_corner_batches_match_one_at_a_time(d, ties):
    # a per-point book cut into random segments, as the engine cuts a
    # stream: after each segment, one batch of its records still current
    # gives the corner set, the bitwise sums and the value that adding
    # every record one at a time gives; and a batch of one record gives
    # the frozen per-record step's corners in its order, bit for bit
    rng = np.random.default_rng(29 + d)
    n = {1: 400, 2: 1500, 3: 1000, 4: 400, 5: 200, 6: 80}[d]
    # about slowly growing simplices, as in test_region_corners_match_frozen_add
    scale = 3.0 + 3.0 * np.arange(n)[:, None] / n + rng.uniform(0.0, 0.5, (n, 1))
    pts = rng.dirichlet(np.ones(d), n) * scale
    if ties:
        pts = np.ceil(2.0 * pts)
    book = RecordBook(d)
    batched, single, frozen = RegionCorners(d), RegionCorners(d), FrozenCorners(d)
    ends = np.cumsum(rng.integers(1, 9, n))
    start, multi = 0, 0
    for end in ends[ends < n].tolist() + [n]:
        seg = [row for row in pts[start:end] if book.observe(row).is_record]
        for row in seg:
            single._add_rows(row[None])
            frozen.add(row)
            assert single.points.tobytes() == frozen.points.tobytes()
            assert single.sums.tobytes() == frozen.sums.tobytes()
        if seg:
            current = still_current(np.array(seg))
            multi += len(current) > 1
            batched._add_rows(current)
        assert corner_rows(batched) == corner_rows(frozen)
        assert np.float64(batched.value).tobytes() == frozen.sums.min().tobytes()
        start = end
    assert batched.value == f_minus(book)
    # batches of several records do occur (in one dimension one record
    # kills every earlier one, unless they tie)
    assert multi >= (0 if d == 1 else 10)


def test_corner_batch_chain_runs_in_rounds():
    # each record kills the corner the one before it made: (2, 2) makes
    # (2, 0) and (0, 2); (3, 1) kills (2, 0) and makes (3, 0) and (2, 1);
    # (4, 0.5) kills (3, 0) and makes (4, 0) and (3, 0.5).  The origin
    # dies at its first killer, (2, 2), though all three beat it
    zs = np.array([[2.0, 2.0], [3.0, 1.0], [4.0, 0.5]])
    corners = RegionCorners(2)
    corners._add_rows(zs)
    # by the record that made them, then by block
    assert corners.points.tolist() == [[0.0, 2.0], [2.0, 1.0], [4.0, 0.0], [3.0, 0.5]]
    assert corners.sums.tolist() == [2.0, 3.0, 4.0, 3.5]
    assert set(map(tuple, corners.points.tolist())) == grid_corners(zs)


def test_corner_batch_record_killing_nothing_comes_first():
    # (0, 5) kills no corner, as no point lies below 0 in x_0; (1, 1) kills
    # the origin, and the corners it makes must name it as their defining
    # record: then (2, 2), added later, leaves (1, 2) out of the corners
    frozen, corners = FrozenCorners(2), RegionCorners(2)
    for z in ((0.0, 5.0), (1.0, 1.0), (2.0, 2.0)):
        frozen.add(np.array(z))
    corners._add_rows(np.array([[0.0, 5.0], [1.0, 1.0]]))
    corners.add((2.0, 2.0))
    assert corner_rows(corners) == corner_rows(frozen)
    assert set(map(tuple, corners.points.tolist())) == grid_corners(
        np.array([[0.0, 5.0], [1.0, 1.0], [2.0, 2.0]]))


def test_region_corners_batch_memory_is_bounded(monkeypatch):
    # 2000 records in one batch over > 3000 corners at d = 6: a kill test
    # of every record against every corner in one piece needs d * m * k
    # booleans (over 37 MB); in blocks of at most 2**21 cells the step stays
    # under the bound of test_region_corners_add_memory_is_bounded.  The
    # first record kills every corner; each later one kills the corner an
    # earlier one made on its axis, so the batch runs in some 330 rounds
    d, m = 6, 2000
    base = RegionCorners(d)
    base._add_rows(np.random.default_rng(3).dirichlet(np.ones(d), 60))
    assert base.points.shape[0] > 3000
    b = np.arange(1, m)
    zs = np.repeat(1.0 - b[:, None] / (2 * m), d, axis=1)
    zs[b - 1, b % d] = 3.0 + b / m
    zs = np.concatenate((np.full((1, d), 2.0), zs))
    one = copy.deepcopy(base)
    for z in zs:
        one.add(z)
    compared = []
    first_beaters = frontier._first_beaters
    monkeypatch.setattr(frontier, "_first_beaters",
                        lambda a, b: compared.append(a.size * len(b)) or first_beaters(a, b))
    tracemalloc.start()
    try:
        base._add_rows(zs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    assert max(compared) > 32 * 2**20  # the kill test did take every record
    assert corner_rows(base) == corner_rows(one)


def test_region_corner_rounds_are_bounded():
    # a d = 8 batch whose first record lies above all of > 50,000 corners:
    # the defining-row gather of its first round is a (dead, 8, 8) float
    # array, over 26 MB in one piece; formed in slices of at most
    # _BEATS_CELLS // 64 dead corners, the step stays under the bound of
    # test_region_corners_add_memory_is_bounded.  Three more records kill
    # the corners the first one made on their axes, each leaving d in its place
    d, m = 8, 4
    base = RegionCorners(d)
    base._add_rows(np.random.default_rng(3).dirichlet(np.ones(d), 80))
    b = np.arange(1, m)
    zs = np.repeat(1.0 - b[:, None] / (2 * m), d, axis=1)
    zs[b - 1, b % d] = 3.0 + b / m
    zs = np.concatenate((np.full((1, d), 2.0), zs))
    dead = int((base.points < zs[0]).all(axis=1).sum())
    assert dead > 1.5 * (frontier._BEATS_CELLS // (d * d))  # the check is not vacuous
    one = copy.deepcopy(base)
    for z in zs:
        one.add(z)
    tracemalloc.start()
    try:
        base._add_rows(zs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    assert corner_rows(base) == corner_rows(one)
    assert base.points.shape[0] == d + (d - 1) * (m - 1)


def test_region_corners_refuse_bad_input():
    for d in (0, -1, "2"):  # bools and non-integers: test_public_surface
        with pytest.raises(ValueError, match="d must be"):
            RegionCorners(d)
    corners = RegionCorners(2)
    corners.add((1.0, 2.0))
    before = corners.points.tolist(), corners.sums.tolist()
    bad = {
        "scalar": 5.0,
        "nan": (math.nan, 1.0),
        "inf": (math.inf, 1.0),
        "negative": (3.0, -1.0),
        "wrong d": (3.0, 3.0, 3.0),
        "2-d": [[3.0, 3.0]],
    }
    for case, z in bad.items():
        with pytest.raises(ValueError):
            corners.add(z)
            pytest.fail(f"add accepted a {case} point")
    assert (corners.points.tolist(), corners.sums.tolist()) == before


def test_in_rs_cases():
    b = book_of([(1, 3), (2, 2), (3, 1)])
    assert in_rs(b, (0, 3)) is True
    assert in_rs(b, (0.5, 2.5)) is False
    for rec in b.record_coords:
        assert in_rs(b, rec) is True
    assert in_rs(RecordBook(2), (0, 0)) is True
    with pytest.raises(ValueError):
        in_rs(b, (1, 2, 3))


def test_top_sums_cases():
    b = book_of([(1, 2), (2, 2), (1, 1)])  # sums 3, 4, 2
    assert b.top_sums.tolist() == [4.0, 3.0, 2.0]
    assert b.top_sums[0] == f_plus(b)
    small = RecordBook(2, top_capacity=2)
    for p in [(1, 2), (2, 2), (1, 1)]:
        small.observe(p)
    assert small.top_sums.tolist() == [4.0, 3.0]  # capacity caps the list


def test_trajectory_invariants():
    rng = np.random.default_rng(99)
    for d in (1, 2, 3):
        book = RecordBook(d)
        prev_minus, prev_plus = 0.0, 0.0
        for row in rng.exponential(size=(300, d)):
            book.observe(row)
            fm, fp = f_minus(book), f_plus(book)
            assert fm <= fp
            assert fm >= prev_minus and fp >= prev_plus
            prev_minus, prev_plus = fm, fp
            assert fm <= book.dim_max.min()
            assert np.all(fm <= book.top_sums[: book.r])


# -- integer repair ------------------------------------------------------------

def test_sweeten_examples():
    assert sweeten((1.3, 2.7), 3).coords == (2, 3)
    assert sweeten((2.0, 2.0), 3).coords == (3, 2)
    # d=3, m=2 forces coordinate sum 0; two coordinates get sweetened
    assert sweeten((0.0, 0.0, 0.0), 2).coords == (1, 1, 0)


def test_sweeten_validation():
    with pytest.raises(ValueError):
        sweeten((2.0, 0.0, 0.0), 2)  # sum 2 != 2m-2(d-1) = 0
    with pytest.raises(ValueError):
        sweeten((1.0, 1.0), 2.5)
    with pytest.raises(ValueError):
        sweeten((0.0, 0.0, 0.0, 0.0), 2)  # m < d-1
    with pytest.raises(ValueError):
        sweeten((-1.0, 5.0), 3)
    assert sweeten((1.0 + 5e-10, 1.0), 2).coords == (2, 1)


def test_sweeten_postconditions_random():
    rng = np.random.default_rng(2718)
    for _ in range(2000):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(max(1, d - 1), 50))
        target = 2 * m - 2 * (d - 1)
        parts = rng.dirichlet(np.ones(d)) * target
        out = sweeten(parts, m)
        assert isinstance(out, IntegerGridPoint)
        i = np.array(out.coords, dtype=float)
        assert np.all(i >= parts - 1e-12)
        assert out.coord_sum == 2 * m - (d - 1)


def test_integer_grid_point():
    with pytest.raises(ValueError):
        IntegerGridPoint((1, -1))
    assert IntegerGridPoint((0, 3)).coord_sum == 3


# -- tail bound ----------------------------------------------------------------

def test_lower_bound_probability_value():
    # d=2, n=e^10, b=5: m = ceil(10/5) = 2, so the bound is
    # C(4,1)*exp(-e^(10/4)); direct arithmetic of the stated formula
    n = math.exp(10)
    expect = math.comb(4, 1) * math.exp(-math.exp(2.5))
    got = lower_bound_probability(n, 5.0, 2)
    assert got == expect
    assert got == 2.047717719468293e-05


def test_lower_bound_probability_range_property():
    rng = np.random.default_rng(5)
    for _ in range(200):
        d = int(rng.integers(2, 6))
        n = float(rng.uniform(3, 1e9))
        b = float(rng.uniform(0, math.log(n) * 0.999))
        log_n = math.log(n)
        m = math.ceil((d - 1) * log_n / (log_n - b))
        v = lower_bound_probability(n, b, d)
        assert 0.0 <= v <= math.comb(2 * m, d - 1)


def test_lower_bound_probability_past_float_binomial():
    # C(2m, d-1) beyond the float range: the product is taken in log space,
    # inf where the bound itself overflows, finite where exp(-n^...) brings
    # it back into range
    assert lower_bound_probability(1e6, 13.0, 300) == math.inf
    assert lower_bound_probability(1e6, math.log(1e6) - 1e-9, 50) == math.inf
    mp = pytest.importorskip("mpmath")
    n, b, d = math.exp(40.0), 28.0, 300
    log_n = math.log(n)
    m = math.ceil((d - 1) * log_n / (log_n - b))
    assert math.comb(2 * m, d - 1) > 1e308
    with mp.workdps(40):
        expect = mp.binomial(2 * m, d - 1) * mp.exp(-mp.exp(mp.mpf(d - 1) / (2 * m) * log_n))
    assert lower_bound_probability(n, b, d) == pytest.approx(float(expect), rel=1e-12)


def test_lower_bound_probability_errors():
    with pytest.raises(ValueError):
        lower_bound_probability(100, 1.0, 1)
    with pytest.raises(ValueError):
        lower_bound_probability(100, math.log(100), 2)
    with pytest.raises(ValueError):
        lower_bound_probability(100, -0.1, 2)
    with pytest.raises(ValueError):
        lower_bound_probability(1, 0.0, 2)
