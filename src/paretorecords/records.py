"""Incremental maintenance of multidimensional Pareto records.

An observation sets a record when no earlier observation strictly dominates
it, strict domination meaning strictly larger in every coordinate.  Equality
in any coordinate blocks domination, so duplicated points are both records;
that choice keeps crafted tie cases deterministic.  It suffices to compare a
new point against the current (still undominated) records: any earlier
dominator is itself dominated by some current record, and strict domination
is transitive.

:class:`RecordBook` is the incremental structure; :func:`rebuild_oracle` is a
deliberately naive quadratic reconstruction used to cross-check it.  The two
share no dominance code path.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ObserveOutcome",
    "RecordBook",
    "strictly_dominates",
    "rebuild_oracle",
    "coord_sums",
]

def coord_sums(arr: np.ndarray) -> np.ndarray:
    """Row sums of a (k, d) coordinate array.

    All coordinate-sum computations in the package funnel through this one
    reduction so that the same observation always yields bitwise the same sum
    no matter which code path touched it.
    """
    return np.add.reduce(arr, axis=-1)


def _as_coords(x, d: int | None = None) -> np.ndarray:
    """The one gate for points from outside: a 1-d float64 array of finite,
    nonnegative coordinates (``d`` of them when given), else ValueError."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("a point must be a 1-d sequence with at least one coordinate")
    if d is not None and arr.size != d:
        raise ValueError(f"dimension mismatch: expected {d} coordinates, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    if np.any(arr < 0.0):
        raise ValueError("coordinates must be nonnegative")
    return arr


def _shown(value) -> str:
    """``repr(value)`` for a gate's message; a number too long for Python to
    print in decimal (over 4300 digits) shows as its bit length instead."""
    try:
        return repr(value)
    except ValueError:
        sign = "-" if value < 0 else ""
        return f"{sign}<{type(value).__name__} of {abs(int(value)).bit_length()} bits>"


def _as_int(value, name: str, lo: int, hi: int | None = None) -> int:
    """The one gate for integers from outside: an int or numpy integer, never
    a bool, in ``[lo, hi]`` (unbounded above when ``hi`` is None), returned as
    a plain int, else ValueError."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < lo or (hi is not None and value > hi)):
        if hi is not None:
            kind = f"an integer in [{lo}, {hi}]"
        else:
            kind = {0: "a nonnegative integer", 1: "a positive integer"}.get(
                lo, f"an integer >= {lo}")
        raise ValueError(f"{name} must be {kind}, got {_shown(value)}")
    return int(value)


def _as_real(value, name: str, lo: float | None = None) -> float:
    """The one gate for reals from outside: a finite non-bool numbers.Real,
    at least ``lo`` when given, returned as a float, else ValueError."""
    try:
        bad = (isinstance(value, bool) or not isinstance(value, numbers.Real)
               or not math.isfinite(value) or (lo is not None and value < lo))
    except OverflowError:  # an int or Fraction beyond the float range
        bad = True
    if bad:
        bound = "" if lo is None else f" >= {lo}"
        raise ValueError(f"{name} must be a finite real{bound}, got {_shown(value)}")
    return float(value)


@dataclass(frozen=True)
class ObserveOutcome:
    """Result of presenting one observation to a RecordBook."""

    is_record: bool
    kills: int

    def __post_init__(self):
        if self.kills < 0:
            raise ValueError("kills must be nonnegative")
        if self.kills > 0 and not self.is_record:
            # only a new record can break old ones
            raise ValueError("kills > 0 requires is_record")


# the two outcomes that kill nothing, shared: ObserveOutcome is frozen
_NOT_RECORD = ObserveOutcome(False, 0)
_RECORD = ObserveOutcome(True, 0)


def strictly_dominates(a, b) -> bool:
    """True iff ``a`` strictly dominates ``b`` (every coordinate larger)."""
    ca = _as_coords(a)
    return bool(np.all(ca > _as_coords(b, ca.size)))


class RecordBook:
    """Record set and summary statistics for one trajectory.

    Parameters
    ----------
    d : int
        Observation dimension.
    top_capacity : int, optional
        How many of the largest coordinate sums to retain (default 64).

    Notes
    -----
    The book stores only what it cannot derive: ``n`` observations seen,
    ``epochs`` (the observation indices at which records were set, so
    ``epochs[m-1]`` is the first time the record count reached ``m``), the
    current records' coordinates (``r`` rows, in set-time order) and the top
    sums.  The rest is read off them: ``R == len(epochs)`` records ever set,
    ``r`` current records, ``beta == R - r`` broken records and the record
    sums, which ``coord_sums`` gives bitwise as they were computed when each
    record arrived.  ``dim_max``, the per-coordinate maximum over all
    observations, is the maximum over the current records: no point strictly
    dominates one holding the largest coordinate ``j`` (nothing is larger
    there), so every such point is a current record.

    Record storage is a flat array with linear dominance scans: the current
    record count grows polylogarithmically in ``n``, so at simulation scale
    it stays in the tens to hundreds and nothing fancier pays for itself.
    Records are rare, so a new one simply rebuilds the array.
    """

    def __init__(self, d: int, top_capacity: int = 64):
        self.d = _as_int(d, "d", 1)
        self.top_capacity = _as_int(top_capacity, "top_capacity", 1)
        self.n = 0
        self.epochs: list[int] = []
        self._coords = np.empty((0, self.d), dtype=np.float64)
        self._top = np.empty(0, dtype=np.float64)

    # -- views ------------------------------------------------------------

    @property
    def R(self) -> int:
        """Number of records ever set."""
        return len(self.epochs)

    @property
    def r(self) -> int:
        """Number of current records."""
        return len(self._coords)

    @property
    def beta(self) -> int:
        """Number of broken records."""
        return self.R - self.r

    @property
    def record_coords(self) -> np.ndarray:
        """Current record coordinates, shape (r, d), in set-time order. Copy."""
        return self._coords.copy()

    @property
    def record_sums(self) -> np.ndarray:
        """Coordinate sums of the current records. Copy."""
        return coord_sums(self._coords)

    @property
    def dim_max(self) -> np.ndarray:
        """Per-coordinate maximum over all observations (0-vector when n=0)."""
        if not self.r:
            return np.zeros(self.d, dtype=np.float64)
        return self._coords.max(axis=0)

    @property
    def top_sums(self) -> np.ndarray:
        """Largest coordinate sums seen, descending, at most top_capacity."""
        return self._top.copy()

    # -- mutation ---------------------------------------------------------

    def observe(self, p) -> ObserveOutcome:
        """Present one observation; update the record set and top sums."""
        coords = _as_coords(p, self.d)
        return self._observe_raw(coords, float(coord_sums(coords)))

    def _observe_raw(self, coords: np.ndarray, s: float) -> ObserveOutcome:
        # Hot path: caller guarantees coords is a validated 1-d float64[d].
        self.n += 1
        self._merge_top(np.array((s,)))
        recs = self._coords
        if (recs > coords).all(axis=1).any():
            return _NOT_RECORD
        killed = (coords > recs).all(axis=1)
        kills = int(np.count_nonzero(killed))
        if kills:
            recs = recs[~killed]
        self._coords = np.concatenate((recs, coords[None, :]))
        self.epochs.append(self.n)
        return ObserveOutcome(True, kills) if kills else _RECORD

    def absorb_nonrecords(self, count: int, sums) -> None:
        """Account for ``count`` observations known not to set records.

        The caller must already have established that none of them sets a
        record against the current record set (they may dominate nothing and
        be dominated themselves).  ``sums`` holds coordinate sums of some of
        them: at least every one above the smallest kept top sum (so all of
        them while fewer than ``top_capacity`` sums are kept); the others may
        be included or left out, since they cannot enter the top sums.  Only
        ``n`` and the top sums are touched; the record set, and so
        ``dim_max``, is left alone, since a point holding a new
        per-coordinate maximum would be a record.  Feeding a would-be record
        through this path corrupts the book.
        """
        count = _as_int(count, "count", 0)
        sums = np.asarray(sums, dtype=np.float64)
        if sums.ndim != 1 or sums.size > count:
            raise ValueError(f"expected at most {count} sums in a 1-d array, "
                             f"got shape {sums.shape}")
        self.n += count
        if sums.size:
            self._merge_top(sums)

    def dominated_by_current(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows of ``pts`` some current record dominates."""
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValueError(f"expected a (k, {self.d}) array, got shape {pts.shape}")
        if self.r == 0 or pts.shape[0] == 0:
            return np.zeros(pts.shape[0], dtype=bool)
        recs = self._coords
        # (r, k, d) broadcast; r stays small so this is cheap
        return np.any(np.all(recs[:, None, :] > pts[None, :, :], axis=2), axis=0)

    # -- internals --------------------------------------------------------

    def _merge_top(self, sums: np.ndarray) -> None:
        """Merge a nonempty 1-d float64 array of sums into the top sums."""
        top = self._top
        one = sums.size == 1
        if top.size == self.top_capacity and not (sums[0] if one else sums.max()) > top[-1]:
            return  # none can enter
        if one:
            # one slice-concatenate at the sum's place, dropping the smallest
            # when full; equal sums have equal bits, so where a tie lands is moot
            at = int(np.count_nonzero(top > sums[0]))
            end = min(top.size, self.top_capacity - 1)
            self._top = np.concatenate((top[:at], sums, top[at:end]))
            return
        merged = np.concatenate((top, sums))
        if merged.size > self.top_capacity:
            cut = merged.size - self.top_capacity
            merged = np.partition(merged, cut)[cut:]
        merged.sort()
        self._top = merged[::-1].copy()

    # -- comparison -------------------------------------------------------

    def state_equals(self, other: "RecordBook") -> bool:
        """Exact equality of the stored state: counts, record set, top sums."""
        return (
            self.d == other.d
            and self.n == other.n
            and self.epochs == other.epochs
            and np.array_equal(self._coords, other._coords)
            and np.array_equal(self._top, other._top)
        )

    def describe(self) -> dict:
        """Small plain-data summary, for logs and CLI output."""
        return {
            "d": self.d,
            "n": self.n,
            "R": self.R,
            "r": self.r,
            "beta": self.beta,
            "dim_max": self.dim_max.tolist(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"RecordBook(d={self.d}, n={self.n}, R={self.R}, r={self.r}, beta={self.beta})"


def rebuild_oracle(points: Sequence | Iterable, d: int | None = None) -> RecordBook:
    """Rebuild a RecordBook from scratch by literal all-pairs comparison.

    Quadratic on purpose, with its own inline dominance test: this function
    is the testing oracle for the incremental path and must not share any of
    its shortcuts.  ``d`` gives an empty input a dimension; when given, every
    point must have ``d`` coordinates.

    Observation k is a record iff no earlier observation exceeds it in every
    coordinate; a record is current iff no observation at all does.
    """
    pts = [_as_coords(p, d) for p in points]
    if not pts:
        return RecordBook(1 if d is None else d)
    arr = np.stack(pts)
    n, dim = arr.shape

    # dom[i, k] true iff point i strictly exceeds point k coordinatewise
    dom = np.all(arr[:, None, :] > arr[None, :, :], axis=2)
    earlier = np.triu(np.ones((n, n), dtype=bool), k=1)  # earlier[i, k] iff i < k
    is_record = ~np.any(dom & earlier, axis=0)
    is_current = ~np.any(dom, axis=0)

    book = RecordBook(dim)
    book.n = n
    book.epochs = [int(i) + 1 for i in np.nonzero(is_record)[0]]
    book._coords = arr[is_current]
    book._top = np.sort(coord_sums(arr))[::-1][: book.top_capacity].copy()
    return book
