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
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


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


def strictly_dominates(a, b) -> bool:
    """True iff ``a`` strictly dominates ``b`` (every coordinate larger)."""
    ca = _as_coords(a)
    return bool(np.all(_strict_gt(ca, _as_coords(b, ca.size))))


def _strict_gt(x, y):
    # Elementwise strict comparison used by every incremental dominance test.
    # Looked up by module name at each call, so the selftest can swap in a
    # broken version; the rebuild oracle has its own comparison.
    return x > y


class RecordBook:
    """Record set, counters, and summary statistics for one trajectory.

    Parameters
    ----------
    d : int
        Observation dimension.
    top_capacity : int, optional
        How many of the largest coordinate sums to retain (default 64).

    Notes
    -----
    Counters: ``n`` observations seen, ``R`` records ever set, ``r`` current
    records, ``beta`` broken records, with ``R == r + beta`` at all times.
    ``epochs`` lists the observation indices at which records were set, so
    ``epochs[m-1]`` is the first time the record count reached ``m``.

    Record storage is a flat array with linear dominance scans: the current
    record count grows polylogarithmically in ``n``, so at simulation scale
    it stays in the tens to hundreds and nothing fancier pays for itself.
    """

    def __init__(self, d: int, top_capacity: int = 64):
        self.d = _as_int(d, "d", 1)
        self.top_capacity = _as_int(top_capacity, "top_capacity", 1)
        self.n = 0
        self.R = 0
        self.beta = 0
        self.epochs: list[int] = []
        self._cap = 64
        self._coords = np.empty((self._cap, self.d), dtype=np.float64)
        self._sums = np.empty(self._cap, dtype=np.float64)
        self._times = np.empty(self._cap, dtype=np.int64)
        self._r = 0
        self._dim_max = np.zeros(self.d, dtype=np.float64)
        self._top = np.empty(0, dtype=np.float64)

    # -- views ------------------------------------------------------------

    @property
    def r(self) -> int:
        """Number of current records."""
        return self._r

    @property
    def record_coords(self) -> np.ndarray:
        """Current record coordinates, shape (r, d), in set-time order. Copy."""
        return self._coords[: self._r].copy()

    @property
    def record_sums(self) -> np.ndarray:
        """Coordinate sums of the current records. Copy."""
        return self._sums[: self._r].copy()

    @property
    def record_times(self) -> np.ndarray:
        """Set times of the current records. Copy."""
        return self._times[: self._r].copy()

    @property
    def dim_max(self) -> np.ndarray:
        """Per-coordinate maximum over all observations (0-vector when n=0)."""
        return self._dim_max.copy()

    @property
    def top_sums(self) -> np.ndarray:
        """Largest coordinate sums seen, descending, at most top_capacity."""
        return self._top.copy()

    # -- mutation ---------------------------------------------------------

    def observe(self, p) -> ObserveOutcome:
        """Present one observation; update all counters and summaries."""
        coords = _as_coords(p, self.d)
        return self._observe_raw(coords, float(coord_sums(coords)))

    def _observe_raw(self, coords: np.ndarray, s: float) -> ObserveOutcome:
        # Hot path: caller guarantees coords is a validated 1-d float64[d].
        self.n += 1
        np.maximum(self._dim_max, coords, out=self._dim_max)
        self._push_top(s)
        recs = self._coords[: self._r]
        if self._r and bool(np.any(np.all(_strict_gt(recs, coords), axis=1))):
            return ObserveOutcome(False, 0)
        kills = 0
        if self._r:
            killed = np.all(_strict_gt(coords, recs), axis=1)
            kills = int(np.count_nonzero(killed))
            if kills:
                keep = ~killed
                nkeep = self._r - kills
                self._coords[:nkeep] = recs[keep]
                self._sums[:nkeep] = self._sums[: self._r][keep]
                self._times[:nkeep] = self._times[: self._r][keep]
                self._r = nkeep
                self.beta += kills
        if self._r == self._cap:
            self._grow()
        self._coords[self._r] = coords
        self._sums[self._r] = s
        self._times[self._r] = self.n
        self._r += 1
        self.R += 1
        self.epochs.append(self.n)
        return ObserveOutcome(True, kills)

    def absorb_nonrecords(self, coords: np.ndarray, sums: np.ndarray | None = None) -> None:
        """Account for a batch of observations known not to set records.

        The caller must already have established that no row sets a record
        against the current record set (they may dominate nothing and be
        dominated themselves).  Only ``n``, ``dim_max`` and ``top_sums`` are
        touched; the record set is left alone.  Feeding a would-be record
        through this path corrupts the book.
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[1] != self.d:
            raise ValueError(f"expected a (k, {self.d}) array, got shape {coords.shape}")
        k = coords.shape[0]
        if k == 0:
            return
        if sums is None:
            sums = coord_sums(coords)
        self.n += k
        np.maximum(self._dim_max, coords.max(axis=0), out=self._dim_max)
        self._merge_top(np.asarray(sums, dtype=np.float64))

    def dominated_by_current(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows of ``pts`` some current record dominates."""
        pts = np.asarray(pts, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValueError(f"expected a (k, {self.d}) array, got shape {pts.shape}")
        if self._r == 0 or pts.shape[0] == 0:
            return np.zeros(pts.shape[0], dtype=bool)
        recs = self._coords[: self._r]
        # (r, k, d) broadcast; r stays small so this is cheap
        return np.any(np.all(_strict_gt(recs[:, None, :], pts[None, :, :]), axis=2), axis=0)

    # -- internals --------------------------------------------------------

    def _grow(self):
        self._cap *= 2
        for name in ("_coords", "_sums", "_times"):
            old = getattr(self, name)
            shape = (self._cap,) + old.shape[1:]
            new = np.empty(shape, dtype=old.dtype)
            new[: old.shape[0]] = old
            setattr(self, name, new)

    def _push_top(self, s: float):
        top = self._top
        full = top.size >= self.top_capacity
        if full and not s > top[-1]:
            return
        idx = int(np.searchsorted(-top, -s, side="right"))
        tail = top[idx:-1] if full else top[idx:]
        self._top = np.concatenate((top[:idx], (s,), tail))

    def _merge_top(self, sums: np.ndarray):
        merged = np.concatenate([self._top, sums])
        if merged.size > self.top_capacity:
            cut = merged.size - self.top_capacity
            merged = np.partition(merged, cut)[cut:]
        merged.sort()
        self._top = merged[::-1].copy()

    # -- comparison -------------------------------------------------------

    def state_equals(self, other: "RecordBook") -> bool:
        """Exact equality of counters, record set, and summaries."""
        return (
            self.d == other.d
            and self.n == other.n
            and self.R == other.R
            and self.beta == other.beta
            and self._r == other._r
            and self.epochs == other.epochs
            and np.array_equal(self._coords[: self._r], other._coords[: other._r])
            and np.array_equal(self._sums[: self._r], other._sums[: other._r])
            and np.array_equal(self._times[: self._r], other._times[: other._r])
            and np.array_equal(self._dim_max, other._dim_max)
            and np.array_equal(self._top, other._top)
        )

    def describe(self) -> dict:
        """Small plain-data summary, for logs and CLI output."""
        return {
            "d": self.d,
            "n": self.n,
            "R": self.R,
            "r": self._r,
            "beta": self.beta,
            "dim_max": self._dim_max.tolist(),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return f"RecordBook(d={self.d}, n={self.n}, R={self.R}, r={self._r}, beta={self.beta})"


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
    book.R = int(np.count_nonzero(is_record))
    book.epochs = [int(i) + 1 for i in np.nonzero(is_record)[0]]
    cur_idx = np.nonzero(is_current)[0]
    book._r = cur_idx.size
    book.beta = book.R - book._r
    while book._cap < max(book._r, 1):
        book._cap *= 2
    book._coords = np.empty((book._cap, dim), dtype=np.float64)
    book._sums = np.empty(book._cap, dtype=np.float64)
    book._times = np.empty(book._cap, dtype=np.int64)
    book._coords[: book._r] = arr[cur_idx]
    book._sums[: book._r] = coord_sums(arr[cur_idx])
    book._times[: book._r] = cur_idx + 1
    book._dim_max = arr.max(axis=0)
    all_sums = coord_sums(arr)
    keep = min(n, book.top_capacity)
    order = np.sort(all_sums)[::-1]
    book._top = order[:keep].copy()
    return book
