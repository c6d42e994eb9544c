"""Record-set semantics: dominance, counters, oracle equivalence, ties."""

import numpy as np
import pytest

from paretorecords import (
    ObserveOutcome,
    RecordBook,
    coord_sums,
    in_rs,
    rebuild_oracle,
    strictly_dominates,
)


def build(points, **kw):
    book = RecordBook(len(points[0]), **kw)
    outs = [book.observe(p) for p in points]
    return book, outs


# -- dominance ------------------------------------------------------------

def test_strict_domination_basics():
    assert strictly_dominates((2, 3), (1, 2)) is True
    assert strictly_dominates((2, 1), (1, 2)) is False
    # equality in one coordinate blocks strict domination
    assert strictly_dominates((1, 2), (1, 1)) is False
    with pytest.raises(ValueError):
        strictly_dominates((1, 2), (1, 2, 3))


BAD_POINTS = {
    "negative": (1.0, -0.5),
    "nan": (np.nan, 1.0),
    "inf": (np.inf, 1.0),
    "2-d": [[1.0, 2.0]],
    "empty": (),
    "wrong d": (1.0, 2.0, 3.0),
}


def test_point_validation():
    # every entry point that takes a point from outside rejects a bad one,
    # and rejects it before touching any state
    book = RecordBook(2)
    book.observe((1.0, 2.0))
    gates = {
        "observe": book.observe,
        "in_rs": lambda x: in_rs(book, x),
        "rebuild_oracle": lambda x: rebuild_oracle([(1.0, 2.0), x], d=2),
        "strictly_dominates": lambda x: strictly_dominates(x, (1.0, 2.0)),
        "strictly_dominates, second": lambda x: strictly_dominates((1.0, 2.0), x),
    }
    for gate, call in gates.items():
        for case, x in BAD_POINTS.items():
            with pytest.raises(ValueError):
                call(x)
                pytest.fail(f"{gate} accepted a {case} point")
    assert (book.n, book.R, book.r) == (1, 1, 1)
    # a plain sequence, a tuple of ints and a float64 array are all points
    assert strictly_dominates([3, 4], np.array([2.0, 2.0]))
    assert in_rs(book, [2, 3]) and not in_rs(book, np.array([0.5, 1.5]))


def test_outcome_invariant():
    with pytest.raises(ValueError):
        ObserveOutcome(is_record=False, kills=1)
    with pytest.raises(ValueError):
        ObserveOutcome(is_record=True, kills=-1)


# -- observe scenarios ----------------------------------------------------

def test_observe_kill():
    book, outs = build([(1, 2), (2, 3)])
    assert outs[1] == ObserveOutcome(True, 1)
    assert (book.n, book.R, book.r, book.beta) == (2, 2, 1, 1)
    assert book.epochs == [1, 2]


def test_observe_incomparable():
    book, outs = build([(1, 3), (2, 2)])
    assert outs[1] == ObserveOutcome(True, 0)
    assert book.r == 2


def test_observe_dominated():
    book, outs = build([(2, 3), (1, 2)])
    assert outs[1] == ObserveOutcome(False, 0)
    assert (book.R, book.r, book.beta) == (1, 1, 0)


def test_duplicate_points_are_both_records():
    book, outs = build([(1, 2), (1, 2)])
    assert outs == [ObserveOutcome(True, 0), ObserveOutcome(True, 0)]
    assert book.r == 2 and book.beta == 0


def test_shared_coordinate_blocks_kill():
    # (1,3) vs current (1,2): tie in the first coordinate, so no kill
    book, outs = build([(1, 2), (1, 3)])
    assert outs[1] == ObserveOutcome(True, 0)
    assert book.r == 2


def test_multi_kill():
    book, outs = build([(1, 3), (3, 1), (2, 2), (4, 4)])
    assert outs[3] == ObserveOutcome(True, 3)
    assert (book.R, book.r, book.beta) == (4, 1, 3)
    assert book.record_coords.tolist() == [[4.0, 4.0]]


def test_dimension_mismatch():
    book = RecordBook(3)
    with pytest.raises(ValueError):
        book.observe((1.0, 2.0))


# -- oracle ---------------------------------------------------------------

def test_oracle_example():
    book = rebuild_oracle([(1, 2), (2, 3)])
    assert (book.n, book.R, book.r, book.beta) == (2, 2, 1, 1)
    assert book.record_coords.tolist() == [[2.0, 3.0]]


def test_oracle_empty():
    book = rebuild_oracle([], d=4)
    assert book.n == 0 and book.R == 0 and book.r == 0
    assert np.array_equal(book.dim_max, np.zeros(4))


def test_oracle_matches_incremental_random():
    rng = np.random.default_rng(7)
    for _ in range(120):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(1, 120))
        pts = rng.exponential(size=(n, d))
        inc = RecordBook(d)
        for row in pts:
            inc.observe(row)
        assert inc.state_equals(rebuild_oracle(pts))


def test_oracle_matches_incremental_with_ties():
    # integer-valued coordinates force frequent exact ties, in the sums too:
    # after every observation the top sums, at each capacity, are the
    # largest sums seen, descending, bit for bit
    rng = np.random.default_rng(11)
    for _ in range(80):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 60))
        pts = rng.integers(0, 4, size=(n, d)).astype(float)
        inc = RecordBook(d)
        capped = [RecordBook(d, top_capacity=c) for c in (1, 2, 8)]
        for i, row in enumerate(pts):
            inc.observe(row)
            seen = np.sort(coord_sums(pts[: i + 1]))[::-1]
            for book in capped:
                book.observe(row)
                assert book.top_sums.tobytes() == seen[: book.top_capacity].tobytes()
        assert inc.state_equals(rebuild_oracle(pts))


def test_one_dimensional_records_are_running_maxima():
    rng = np.random.default_rng(3)
    x = rng.exponential(size=100)
    book = RecordBook(1)
    for v in x:
        book.observe([v])
    runmax = np.maximum.accumulate(x)
    expected_R = 1 + int(np.count_nonzero(x[1:] > runmax[:-1]))
    assert book.R == expected_R
    assert book.r == 1
    assert book.record_coords.tolist() == [[x.max()]]


# -- invariants on random trajectories ------------------------------------

def test_counter_invariants_random_trajectory():
    rng = np.random.default_rng(19)
    trajectories = [rng.exponential(size=(400, d)) for d in (1, 2, 4)]
    # integer coordinates in {0, 1, 2}: exact ties in every coordinate
    trajectories += [rng.integers(0, 3, size=(400, d)).astype(float) for d in (1, 2, 4)]
    for pts in trajectories:
        d = pts.shape[1]
        book = RecordBook(d)
        prev_R, prev_beta, kills_total = 0, 0, 0
        seen_max = np.zeros(d)
        for row in pts:
            out = book.observe(row)
            kills_total += out.kills
            assert book.R == book.r + book.beta
            assert book.R >= prev_R and book.beta >= prev_beta
            prev_R, prev_beta = book.R, book.beta
            seen_max = np.maximum(seen_max, row)
            assert np.array_equal(book.dim_max, seen_max)
        assert book.beta == kills_total
        assert book.epochs == sorted(set(book.epochs))
        assert len(book.epochs) == book.R
        # dim_max is the max over current records; the oracle's own all-pairs
        # dominance shows that equals the max over all observations
        assert np.array_equal(rebuild_oracle(pts).dim_max, pts.max(axis=0))
        # pairwise non-domination among current records
        recs = book.record_coords
        for i in range(book.r):
            for j in range(book.r):
                if i != j:
                    assert not strictly_dominates(recs[i], recs[j])


def test_top_sums_tracks_largest():
    rng = np.random.default_rng(23)
    pts = rng.exponential(size=(300, 3))
    book = RecordBook(3, top_capacity=10)
    for row in pts:
        book.observe(row)
    expect = np.sort(coord_sums(pts))[::-1][:10]
    assert np.array_equal(book.top_sums, expect)
    small = RecordBook(3, top_capacity=500)
    for row in pts[:40]:
        small.observe(row)
    assert small.top_sums.size == 40


def test_absorb_nonrecords_matches_observe_only():
    rng = np.random.default_rng(29)
    pts = rng.exponential(size=(500, 2))
    ref = RecordBook(2)
    flags = [ref.observe(row).is_record for row in pts]
    mix = RecordBook(2)
    run_start = 0
    for i, flag in enumerate(flags):
        if flag:
            if i > run_start:
                run = pts[run_start:i]
                mix.absorb_nonrecords(len(run), coord_sums(run))
            mix.observe(pts[i])
            run_start = i + 1
    run = pts[run_start:]
    mix.absorb_nonrecords(len(run), coord_sums(run))
    assert mix.state_equals(ref)


def test_absorb_nonrecords_needs_only_sums_that_can_enter_the_top():
    # a run may pass just its sums above the smallest kept top sum (all of
    # them while the top sums are filling); the rest cannot enter the top,
    # so after every record the book is the one fed point by point
    rng = np.random.default_rng(37)
    pts = rng.exponential(size=(3000, 3))
    for cap in (1, 8, 64, 200):
        ref = RecordBook(3, top_capacity=cap)
        mix = RecordBook(3, top_capacity=cap)
        run_start = 0
        dropped = 0
        for i, row in enumerate(pts):
            record = ref.observe(row).is_record
            if not record and i + 1 < len(pts):
                continue
            end = i if record else i + 1
            sums = coord_sums(pts[run_start:end])
            top = mix.top_sums
            if top.size == cap:
                keep = sums > top[-1]
                dropped += int(keep.size - np.count_nonzero(keep))
                sums = sums[keep]
            mix.absorb_nonrecords(end - run_start, sums)
            if record:
                mix.observe(row)
            run_start = i + 1
            assert mix.state_equals(ref), (cap, i)
        assert dropped > len(pts) // 2  # the case does leave sums out
    book = RecordBook(2)
    book.absorb_nonrecords(3, [])
    assert book.n == 3 and book.top_sums.size == 0
    for count, sums in ((1, [1.0, 2.0]), (2, [[1.0, 2.0]]), (-1, []), (2.0, [])):
        with pytest.raises(ValueError):
            book.absorb_nonrecords(count, sums)


def test_dominated_by_current_matches_observe():
    rng = np.random.default_rng(31)
    book = RecordBook(3)
    for row in rng.exponential(size=(200, 3)):
        book.observe(row)
    probe = rng.exponential(size=(100, 3))
    mask = book.dominated_by_current(probe)
    for row, dominated in zip(probe, mask):
        fresh = RecordBook(3)
        for rec in book.record_coords:
            fresh.observe(rec)
        assert fresh.observe(row).is_record == (not dominated)


def test_dominated_by_current_leaves_tied_points():
    # integer coordinates, so many probes tie a record in some coordinate:
    # the engine's stage-2 mask marks a probe only where some record is
    # strictly larger in every coordinate
    rng = np.random.default_rng(32)
    for d in (1, 2, 3):
        book = RecordBook(d)
        for row in rng.integers(0, 6, size=(40, d)).astype(float):
            book.observe(row)
        probe = np.array(list(np.ndindex(*(7,) * d)), dtype=float)
        mask = book.dominated_by_current(probe)
        recs = book.record_coords
        want = [any((rec > row).all() for rec in recs) for row in probe]
        assert mask.tolist() == want, d
        # some probe is weakly below a record, ties it, and is not dominated
        assert any((rec >= row).all() and (rec == row).any() and not dom
                   for row, dom in zip(probe, mask) for rec in recs), d


def test_monte_carlo_harmonic_mean():
    # d=1: E[#records among n] is the harmonic number; left-to-right maxima
    # counted directly in numpy as the independent reference
    rng = np.random.default_rng(101)
    n, trials = 100, 4000
    x = rng.exponential(size=(trials, n))
    runmax = np.maximum.accumulate(x, axis=1)
    counts = 1 + (x[:, 1:] > runmax[:, :-1]).sum(axis=1)
    h_n = sum(1.0 / k for k in range(1, n + 1))
    var = h_n - sum(1.0 / k**2 for k in range(1, n + 1))
    se = (var / trials) ** 0.5
    assert abs(counts.mean() - h_n) < 3 * se
    # and the book agrees with the numpy count on a few trajectories
    for t in range(5):
        book = RecordBook(1)
        for v in x[t]:
            book.observe([v])
        assert book.R == counts[t]
