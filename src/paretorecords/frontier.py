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
updates them one record at a time, in every dimension, the way local upper
bounds are updated in multiobjective search (Klamroth, Lacour &
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

from .records import RecordBook, _as_coords, _as_int, _as_real

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
    up to date one record at a time.

    ``points`` holds the corners as a (k, d) array and ``sums`` their
    coordinate sums rounded with math.fsum.  With no records the region is
    the whole orthant and its one corner is the origin.  ``value`` (the
    smallest sum) is ``f_minus`` and ``witness`` is a corner attaining it.
    They match the min-cover formula bit for bit: every corner is the cap
    vector of some assignment, every cap vector lies above some corner,
    and fsum is monotone, so both minima are the same correctly rounded
    sum of the same coordinates.

    ``add(z)`` applies a new record z.  The region loses exactly the points
    z strictly dominates, so a corner z does not strictly dominate stays,
    and stays minimal, because the region only shrinks.  A dead corner c
    (c < z) is replaced by candidates c^j: c with coordinate j raised to
    z_j, one per dimension j.  Every new corner is such a candidate: it
    lies above a dead corner c and blocks z in some coordinate j, so it
    lies at or above c^j, which is in the new region, and minimality makes
    the two equal.  Which candidates are corners is read off the records
    that define c, as local upper bounds are updated by their defining
    points (Dächert et al., EJOR 260(3), 2017).  A record w defines c in
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

    So ``_seen`` holds every record that killed a corner, with no
    deletions; row 0, +inf, stands for the origin's zero coordinates.
    ``_src`` gives, for each corner coordinate, the row of ``_seen`` it
    was copied from (row 0 where the coordinate is 0), and c^j inherits
    the rows of c with column j set to z's.  While no two rows share a
    value in one coordinate, a record defining c in i must be the one row
    holding c_i there, the stored one, so the rule is one (dead, d, d)
    gather and compare.
    Once a record ties an earlier one, the defining records are looked up
    among all rows from then on, with a (dead, rows, d) mask.  The rule
    tests minimality directly, so corners that z leaves alive need no
    check.  New corners are appended block by block (all c^j for one j),
    dead corners in their stored order within a block.

    A non-record z kills no corner, so adding it changes nothing.

    By the third fact, a caller may skip any record that a later one
    kills: adding the others, in the order they were set, gives the same
    corner set and so a bitwise-equal ``value``.  The corners' order, and
    so ``witness()`` among corners with tied sums, depends on what was
    added.  The trial engine adds, after each of its segments, only the
    records still current at the segment's end.
    """

    def __init__(self, d: int):
        d = _as_int(d, "d", 1)
        self.points = np.zeros((1, d))
        self.sums = np.zeros(1)
        self._seen = np.full((1, d), np.inf)
        self._src = np.zeros((1, d), dtype=np.intp)
        self._tied = False
        self._eye = np.eye(d, dtype=bool)
        self._own = np.diag(np.full(d, -np.inf))  # z + _own: block j skips i = j

    @classmethod
    def of(cls, book: RecordBook) -> "RegionCorners":
        corners = cls(book.d)
        for z in book.record_coords:
            corners._add_raw(z)
        return corners

    @property
    def value(self) -> float:
        return float(self.sums.min())

    def witness(self) -> np.ndarray:
        return self.points[int(np.argmin(self.sums))].copy()

    def add(self, z) -> None:
        """Apply a new record ``z``: d finite, nonnegative coordinates."""
        self._add_raw(_as_coords(z, self.points.shape[1]))

    def _add_raw(self, z: np.ndarray) -> None:
        # Hot path: caller guarantees z is a validated 1-d float64[d].
        pts, seen = self.points, self._seen
        dead = (pts < z).all(axis=1)
        gone = dead.nonzero()[0]
        if not gone.size:
            return
        lost, src = pts.take(gone, axis=0), self._src.take(gone, axis=0)
        self._tied = self._tied or bool((seen == z).any())
        # above[c, i, j]: a defining record of c in i exceeds z in j, or i = j;
        # until two records tie, each stored row is the only defining record
        above = (_defined_above(seen, lost, z) if self._tied
                 else seen.take(src, axis=0) > z + self._own)
        block, row = above.all(axis=1).T.nonzero()  # block-major
        raised = self._eye[block]  # candidate n raises coordinate block[n]
        cand = np.where(raised, z, lost.take(row, axis=0))
        live = (~dead).nonzero()[0]  # take() on indices beats a row mask
        self.points = np.concatenate((pts.take(live, axis=0), cand))
        self.sums = np.concatenate((self.sums.take(live), [math.fsum(c) for c in cand.tolist()]))
        src = np.where(raised, len(seen), src.take(row, axis=0))
        self._src = np.concatenate((self._src.take(live, axis=0), src))
        self._seen = np.concatenate((seen, z[None]))


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
