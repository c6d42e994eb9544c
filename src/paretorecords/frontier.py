"""Exact frontier extremes and the record-setting region.

The record-setting region after n observations is the set of nonnegative
points not strictly dominated by any current record.  Its boundary meets
the diagonal planes x_1 + ... + x_d = c between two extremes: the smallest
frontier coordinate sum (``f_minus``) and the largest (``f_plus``, which is
just the largest observation sum).  The gap is the frontier width.

``f_minus`` is computed exactly through a covering reformulation: a point x
lies in the closed record-setting region iff every record z has some
coordinate j with x_j >= z_j.  Minimizing the coordinate sum over such x
means choosing, for every record, one dimension that blocks it, and paying
the per-dimension maxima of the blocked coordinates.  So

    f_minus = min over assignments sigma: records -> dims
              of sum_j max{ z_j : sigma(z) = j }   (empty max = 0).

The minimum is attained at a minimal point ("corner") of the region, and
every corner is such a cap vector.  ``RegionCorners`` keeps the corners and
updates them one batch of records at a time, in every dimension, the way
local upper bounds are updated in multiobjective search (Klamroth, Lacour &
Vanderpooten, EJOR 245, 2015), checking each candidate against the records
that define its corner (Dächert, Klamroth, Lacour & Vanderpooten, "Efficient
computation of the search region in multi-objective optimization", EJOR
260(3), 2017).  Sums are rounded with math.fsum (correctly rounded, order
independent), which is what makes it agree bitwise with the enumeration
oracles, not just roughly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .records import _BEATS_CELLS, RecordBook, _as_coords, _as_int, _as_real, _beats, _first_beaters

__all__ = [
    "IntegerGridPoint",
    "f_plus",
    "f_minus",
    "RegionCorners",
    "f_minus_bruteforce",
    "f_minus_candidate_grid",
    "in_rs",
    "sweeten",
    "lower_bound_probability",
]

# enumeration oracles refuse above this record count (d**r assignments)
_BRUTE_MAX_RECORDS = 12


@dataclass(frozen=True)
class IntegerGridPoint:
    """Lattice point with nonnegative integer coordinates."""

    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(_as_int(c, "coords", 0) for c in self.coords))

    @property
    def coord_sum(self) -> int:
        return sum(self.coords)


def _records_array(records) -> np.ndarray:
    """Coerce an array or list of points, each checked by ``_as_coords``,
    to an (r, d) array."""
    rows = [_as_coords(p) for p in records]
    if not rows:
        raise ValueError("need at least one record")
    return np.stack(rows)


# -- extremes ---------------------------------------------------------------

def f_plus(book: RecordBook) -> float:
    """Largest frontier coordinate sum, the largest top sum (0.0 before any
    record): float addition is monotone, so a strict dominator's computed sum
    is at least the sum of the point it dominates."""
    return float(book.top_sums[0]) if book.r else 0.0


def f_minus(book: RecordBook) -> float:
    """Smallest coordinate sum over the frontier, exactly."""
    return RegionCorners.of(book).value


class RegionCorners:
    """The minimal points ("corners") of the record-setting region, kept
    up to date one batch of records at a time.

    ``points`` holds the corners as a (k, d) array and ``sums`` their
    coordinate sums rounded with math.fsum.  With no records the region is
    the whole orthant and its one corner is the origin.  ``value`` (the
    smallest sum) is ``f_minus`` and ``witness`` is a corner attaining it.
    They match the min-cover formula bit for bit: every corner is the cap
    vector of some assignment, every cap vector lies above some corner,
    and fsum is monotone, so both minima are the same correctly rounded
    sum of the same coordinates.

    Adding one record z: the region loses exactly the points z strictly
    dominates, so a corner z does not strictly dominate stays, and stays
    minimal, because the region only shrinks.  A dead corner c (c < z) is
    replaced by candidates c^j: c with coordinate j raised to z_j, one per
    dimension j.  Every new corner is such a candidate: it lies above a
    dead corner c and blocks z in some coordinate j, so it lies at or
    above c^j, which is in the new region, and minimality makes the two
    equal.  Which candidates are corners is read off the records that
    define c, as local upper bounds are updated by their defining points
    (Dächert et al., EJOR 260(3), 2017).  A record w defines c in
    coordinate i if w_i = c_i and w_k > c_k for every k != i.  Where
    c_i > 0, some record defines c in i, or c could move down in i.

    * c^j is a corner iff, for each i != j with c_i > 0, some record w
      defining c in i has w_j > z_j.  Lowering c^j_i by any amount must
      leave the region, which takes a record w with w_i = c_i and
      w_k > c^j_k for every k != i: that is such a w, as z_i > c_i rules
      out z itself.
    * z is the only record defining c^j in j: any other w with
      w_j = z_j and w_k > c_k elsewhere would strictly dominate c.
    * A record killed by a later one never defines a live corner: its
      killer would strictly dominate that corner.  A record that kills
      no corner leaves the region as it was.

    So ``_seen`` holds every record that killed a corner (and the other
    records of its batch, which define none), with no deletions; row 0,
    +inf, stands for the origin's zero coordinates.  ``_src`` gives, for
    each corner coordinate, the row of ``_seen`` it was copied from (row 0
    where the coordinate is 0), and c^j inherits the rows of c with column
    j set to z's.  While no two rows share a value in one coordinate, a
    record defining c in i must be the one row holding c_i there, the
    stored one, so the rule is one (dead, d, d) gather and compare.
    Once a record ties an earlier one, the defining records are looked up
    among all rows from then on, with a (dead, rows, d) mask.  Either is
    formed in slices of at most 2**21 // d**2 dead corners (the engine's
    bound again), and the new corners' sums in slices as long.  The rule
    tests minimality directly, so corners that z leaves alive need no
    check.

    ``add(z)`` applies one record; the engine applies a batch: records
    z_0, ..., z_{m-1} in the order they were set, none strictly dominating
    another, in one step that leaves the corner set, and so ``value``, as
    adding them one at a time would.  Each corner dies at its first
    killer, the first record that strictly dominates it; one comparison
    of every record with every corner finds it, formed in blocks of at
    most 2**21 cells (``records._first_beaters``, the engine's bound).
    The step then runs in rounds.  The first takes the old corners that
    die; each later one takes the new corners that died in the round
    before.  A round builds each dead corner's candidates by the rule
    above against its killer z_b, exactly as adding z_b alone would: the
    corner was alive when z_b came, and its defining rows are those of
    records set before z_b.  A candidate that is a corner can die only at
    a record after z_b, since it lies at or above its dead corner, which
    no earlier record strictly dominates, and it blocks z_b.  So the
    round's new corners are tested against the records after its
    earliest killer (no test when none follows), and those that die seed
    the next round.  The new corners that never die, and the old corners
    no record kills, are the corners after the batch; their sums and rows
    are written once.

    The old corners no record kills stay first, in their stored order.
    New corners follow, ordered by the record that made them, then by
    coordinate j (its "block"), then by their dead corner's place in the
    step's list of dead corners: the old ones, in stored order, then
    those the step made, round by round, in the order they were made.
    For one record that is the order of adding it alone.  A batch whose
    records tie a stored row or one another in some coordinate, or any
    batch once ``_seen`` holds a tie, is applied one record at a time by
    the same step, so that rows of later records never serve as
    defining records.

    A non-record z kills no corner, so adding it changes nothing.

    By the third fact, a caller may skip any record that a later one
    kills: adding the others, in the order they were set, gives the same
    corner set and so a bitwise-equal ``value``.  The corners' order, and
    so ``witness()`` among corners with tied sums, depends on what was
    added and how it was batched.  The trial engine adds, after each of
    its segments, the records still current at the segment's end, as one
    batch.
    """

    def __init__(self, d: int):
        d = _as_int(d, "d", 1)
        self.points = np.zeros((1, d))
        self.sums = np.zeros(1)
        self._seen = np.full((1, d), np.inf)
        self._src = np.zeros((1, d), dtype=np.intp)
        self._tied = False
        self._eye = np.eye(d, dtype=bool)

    @classmethod
    def of(cls, book: RecordBook) -> "RegionCorners":
        corners = cls(book.d)
        corners._add_rows(book.record_coords)  # in set order, none dominating another
        return corners

    @property
    def value(self) -> float:
        return float(self.sums.min())

    def witness(self) -> np.ndarray:
        return self.points[int(np.argmin(self.sums))].copy()

    def add(self, z) -> None:
        """Apply a new record ``z``: d finite, nonnegative coordinates."""
        self._add_rows(_as_coords(z, self.points.shape[1])[None])

    def _add_rows(self, zs: np.ndarray) -> None:
        # Hot path: caller guarantees zs is a validated (m, d) float64 array
        # of records in the order they were set, none dominating another.
        m = len(zs)
        if not m:
            return
        if m > 1 and (self._tied or _ties(np.concatenate((self._seen, zs)))):
            for b in range(m):  # so that no later record's row defines a corner
                self._add_rows(zs[b:b + 1])
            return
        pts, seen = self.points, self._seen
        d = pts.shape[1]
        if m == 1:  # the one record is the first killer of every corner it kills
            first, dead = None, _beats(zs, pts)[0]
        else:
            first = _first_beaters(zs, pts)  # each corner's first killer, m if none
            dead = first < m
        gone = dead.nonzero()[0]
        if not gone.size:
            return
        if m == 1:
            self._tied = self._tied or bool(np.logical_or.reduce(seen == zs, axis=None))
        rows = np.concatenate((seen, zs))  # record b is row len(seen) + b
        lost, src = pts.take(gone, axis=0), self._src.take(gone, axis=0)
        by = None if m == 1 else first.take(gone)  # each dead corner's killer
        made, start = [], 0  # each round's new corners that stay; its dead corners' offset
        step = max(1, _BEATS_CELLS // (d * d))  # dead corners per (., d, d) slice
        while True:
            # keep[c, j]: c^j is a corner, i.e. above[c, i, j] for every i,
            # where above[c, i, j]: a defining record of c in i exceeds c's
            # killer in j, or i = j; until two records tie, each stored row
            # is the only defining record
            keep = np.empty((len(lost), d), dtype=bool)
            for a in range(0, len(lost), step):
                part = slice(a, a + step)
                if self._tied:
                    above = _defined_above(seen, lost[part], zs[0])
                else:
                    zk = zs if m == 1 else zs.take(by[part], axis=0)
                    above = rows.take(src[part], axis=0) > zk[:, None, :]
                    above |= self._eye
                np.logical_and.reduce(above, axis=1, out=keep[part])
            block, row = keep.T.nonzero()  # block-major
            raised = self._eye[block]  # candidate n raises coordinate block[n]
            if m == 1:  # one round, with no record after it; births come in order
                cand = np.where(raised, zs, lost.take(row, axis=0))
                src = np.where(raised, len(seen), src.take(row, axis=0))
                break
            by = by.take(row)  # the record each candidate blocks
            cand = np.where(raised, zs.take(by, axis=0), lost.take(row, axis=0))
            src = np.where(raised, len(seen) + by[:, None], src.take(row, axis=0))
            born = cand, src, by, block, start + row  # with the keys of their order
            lo = int(by.min(initial=m - 1)) + 1  # no record up to by kills a candidate
            nxt = _first_beaters(zs[lo:], cand) + lo if lo < m else np.full(len(cand), m)
            dies = (nxt < m).nonzero()[0]
            if not dies.size:
                made.append(born)
                break
            stay = (nxt == m).nonzero()[0]
            made.append([x.take(stay, axis=0) for x in born])
            start += len(lost)
            lost, src, by = cand.take(dies, axis=0), src.take(dies, axis=0), nxt.take(dies)
        if m > 1:  # every round's survivors, by (record, block, dead corner)
            cand, src, by, block, parent = map(np.concatenate, zip(*made))
            order = np.lexsort((parent, block, by))
            cand, src = cand.take(order, axis=0), src.take(order, axis=0)
        live = (~dead).nonzero()[0]
        sums = np.empty(len(cand))
        for a in range(0, len(cand), step):  # a slice's Python floats at a time
            sums[a:a + step] = list(map(math.fsum, cand[a:a + step].tolist()))
        self.points = np.concatenate((pts.take(live, axis=0), cand))
        self.sums = np.concatenate((self.sums.take(live), sums))
        self._src = np.concatenate((self._src.take(live, axis=0), src))
        self._seen = rows


def _ties(rows: np.ndarray) -> bool:
    """Whether two rows of ``rows`` share a value in some coordinate."""
    col = np.sort(rows, axis=0)
    return bool((col[1:] == col[:-1]).any())


def _defined_above(seen: np.ndarray, lost: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(dead, d, d) mask: True at [c, i, j] where some row of ``seen``
    defines dead corner c in coordinate i and exceeds z in j, or where
    c_i = 0 or i = j."""
    over = (seen > lost[:, None, :]).sum(axis=2, dtype=np.min_scalar_type(z.size))
    defines = (seen == lost[:, None, :]) & (over == z.size - 1)[:, :, None]
    above = np.matmul(defines.transpose(0, 2, 1), seen > z)
    return above | (lost == 0.0)[:, :, None] | np.eye(z.size, dtype=bool)


# -- enumeration oracles ------------------------------------------------------

def _refine_min(sums: np.ndarray, maxima_of) -> float:
    """Exact min of fsum costs given fast float-add costs for ordering.

    ``sums`` orders the candidates; every candidate within a few ulp of the
    smallest is re-evaluated with fsum so near-ties cannot pick the wrong
    winner.  Returns the exact minimum fsum value.
    """
    lo = float(sums.min())
    tol = 64.0 * np.finfo(np.float64).eps * max(abs(lo), 1.0)
    near = np.nonzero(sums <= lo + tol)[0]
    return min(math.fsum(maxima_of(int(i))) for i in near)


def f_minus_bruteforce(records) -> float:
    """Exhaustive minimum over all d**r record-to-dimension assignments.

    Testing oracle: refuses more than 12 records.  Cross-validates itself
    against the candidate-grid route and raises if the two exact values
    disagree, since that can only mean a bug.
    """
    recs = _records_array(records)
    r, d = recs.shape
    if r > _BRUTE_MAX_RECORDS:
        raise ValueError(
            f"brute force enumerates d**r assignments; r={r} exceeds {_BRUTE_MAX_RECORDS}"
        )
    total = d**r
    best = math.inf
    chunk = 1 << 18
    cols = recs.T.copy()  # (d, r)
    for lo in range(0, total, chunk):
        ids = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        digits = ids // d ** np.arange(r, dtype=np.int64)[:, None]  # base-d digits
        digits %= d
        # cost_j = max over records assigned to dim j of their j-coordinate
        cost = np.zeros(ids.size, dtype=np.float64)
        permax = np.empty((d, ids.size), dtype=np.float64)
        for j in range(d):
            vals = np.where(digits == j, cols[j][:, None], 0.0)
            permax[j] = vals.max(axis=0)
            cost += permax[j]
        lo_val = _refine_min(cost, lambda i: permax[:, i].tolist())
        best = min(best, lo_val)
    grid = f_minus_candidate_grid(recs)
    if grid != best:
        raise RuntimeError(
            f"internal inconsistency: assignment minimum {best!r} != candidate-grid {grid!r}"
        )
    return best


def f_minus_candidate_grid(records) -> float:
    """Independent oracle: scan the grid of candidate corners.

    Every coordinate of an optimal region point is 0 or some record's
    coordinate, so the finite grid of such combinations contains a minimizer;
    keep the candidates inside the record-setting region and take the
    smallest coordinate sum.
    """
    recs = _records_array(records)
    r, d = recs.shape
    if r > _BRUTE_MAX_RECORDS:
        raise ValueError(
            f"candidate grid is exponential in d; r={r} exceeds {_BRUTE_MAX_RECORDS}"
        )
    axes = [np.unique(np.concatenate([[0.0], recs[:, j]])) for j in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    cand = np.stack([m.ravel() for m in mesh], axis=1)
    # keep candidates no record strictly dominates
    ok = np.all(np.any(cand[:, None, :] >= recs[None, :, :], axis=2), axis=1)
    cand = cand[ok]
    sums = cand.sum(axis=1)
    return _refine_min(sums, lambda i: cand[i].tolist())


# -- membership and bounding processes ---------------------------------------

def in_rs(book: RecordBook, x) -> bool:
    """Is x inside the current record-setting region?

    True iff no current record strictly dominates x, i.e. every record has
    some coordinate where x is at least as large.
    """
    coords = _as_coords(x, book.d)
    return not bool(book.dominated_by_current(coords[None, :])[0])


# -- integer repair ----------------------------------------------------------

def sweeten(x, m: int) -> IntegerGridPoint:
    """Round x up to an integer point with a fixed coordinate sum.

    Given x >= 0 with coordinate sum 2m - 2(d-1) (tolerance 1e-9) and an
    integer m >= d-1, returns an integer point i >= x componentwise with
    i_+ = 2m - (d-1): take ceilings, then add 1 to the first few coordinates
    (lowest index first) until the target sum is reached.  The upper orthant
    at i is then contained in the upper orthant at x.
    """
    coords = _as_coords(x)
    d = coords.size
    m = _as_int(m, "m", max(1, d - 1))
    target_x = 2 * m - 2 * (d - 1)
    xsum = math.fsum(coords.tolist())
    if abs(xsum - target_x) > 1e-9:
        raise ValueError(
            f"coordinate sum {xsum!r} must equal 2m - 2(d-1) = {target_x} within 1e-9"
        )
    ints = [math.ceil(c) for c in coords.tolist()]
    deficit = (2 * m - (d - 1)) - sum(ints)
    if not 0 <= deficit <= d - 1:  # implied by the precondition
        raise RuntimeError(f"sweetening deficit {deficit} out of range [0, {d-1}]")
    for j in range(deficit):
        ints[j] += 1
    return IntegerGridPoint(tuple(ints))


def lower_bound_probability(n, b, d: int) -> float:
    """Non-asymptotic tail bound for the smallest frontier sum.

    Upper-bounds the probability that the smallest frontier coordinate sum
    is still <= b after n observations: with m = ceil((d-1) ln n / (ln n - b)),
    returns C(2m, d-1) * exp(-n^((d-1)/(2m))).  Diagnostic overlay only.
    Where the binomial exceeds the float range the product is taken in log
    space, so the result is inf only where the bound itself is.  Refused
    for d = 1, where the construction behind it degenerates.
    """
    d = _as_int(d, "d", 1)
    if d == 1:
        raise ValueError("the bound degenerates in dimension 1; use d >= 2")
    n = _as_real(n, "n")
    if n <= 1.0:
        raise ValueError(f"n must exceed 1, got {n!r}")
    b = _as_real(b, "b")
    log_n = math.log(n)
    if not 0.0 <= b < log_n:
        raise ValueError(f"b must lie in [0, ln n) = [0, {log_n!r}), got {b!r}")
    m = math.ceil((d - 1) * log_n / (log_n - b))
    binom, tail = math.comb(2 * m, d - 1), math.exp((d - 1) / (2.0 * m) * log_n)
    if binom <= sys.float_info.max:  # int and float compare exactly
        return binom * math.exp(-tail)
    log_bound = math.log(binom) - tail  # the product in log space
    return math.exp(log_bound) if log_bound < math.log(sys.float_info.max) else math.inf
