"""Exact record-count laws, densities, and limit-law centerings.

The probability that observation n sets a record in dimension d has the
exact alternating form

    p(n, d) = sum_{k=0}^{n-1} (-1)^k C(n-1, k) (k+1)^{-d}

and the equivalent integral form

    p(n, d) = int_0^inf  y^{d-1}/(d-1)! * e^{-y} (1 - e^{-y})^{n-1}  dy,

the integrand being the (unnormalized) conditional density of the record's
coordinate sum.  Expected record counts are prefix sums of p.  In double
precision the alternating sum cancels away more than 10 digits by n ~ 50,
so every value comes instead from the positive-term recurrence of Bentley,
Kung, Schkolnick & Thompson (J. ACM 25(4), 1978),

    n p(n, d) = E[#records among n in dimension d-1],   p(n, 1) = 1/n,

which follows from the alternating sum via C(n-1, k)/(k+1) = C(n, k+1)/n
and is accurate from n = 1.  It is served two ways:

- n <= PREFIX_LIMIT: one table of p and its prefix sums per requested d,
  built level by level from the highest cached d below it.
- larger n: the single integral

      E[#records among n] = int_0^inf y^{d-1}/(d-1)! * (1-(1-e^{-y})^n) dy,

  by composite Gauss-Legendre on half-unit panels, and p(n, d) from it by
  the same recurrence.

The exact rationals (``p_record_exact``) and independent high-precision
quadratures pin the accuracy in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import erfc

from .records import _as_int

__all__ = [
    "EULER_GAMMA",
    "GAMMA_DERIVS_AT_1",
    "PREFIX_LIMIT",
    "p_record",
    "p_record_exact",
    "mean_remaining",
    "mean_records",
    "y_density",
    "sample_y",
    "gumbel_cdf",
    "normal_cdf",
    "fplus_centering",
    "tm_centering",
    "records_time_fplus_centering",
    "asym_mean_records",
]

EULER_GAMMA = 0.5772156649015329

# Gamma^(j)(1) for j = 0..6, exactly rounded doubles. Independently
# cross-checked in the tests by central finite differences of math.gamma.
GAMMA_DERIVS_AT_1 = (
    1.0,
    -0.5772156649015329,
    1.978111990655945,
    -5.4448744564853175,
    23.561474084025605,
    -117.83940826837743,
    715.0673625273189,
)

_MAX_FACTORIAL_D = 170  # 171! exceeds the largest double

PREFIX_LIMIT = 30_000  # largest n served by the cached tables


# -- record probability -------------------------------------------------------

def p_record_exact(n: int, d: int) -> Fraction:
    """Exact rational record probability via the alternating sum."""
    n, d = _as_int(n, "n", 1), _as_int(d, "d", 1)
    total = Fraction(0)
    for k in range(n):
        term = Fraction(math.comb(n - 1, k), (k + 1) ** d)
        total += term if k % 2 == 0 else -term
    return total


def p_record(n: int, d: int) -> float:
    """P(observation n sets a record) for iid Exponential(1) coordinates."""
    n, d = _as_int(n, "n", 1), _as_int(d, "d", 1)
    if n <= PREFIX_LIMIT:
        _ensure_prefix(d)
        return float(_P_TABLE[d][n])
    return mean_remaining(n, d) / n


# -- record-count means --------------------------------------------------------

# d -> p(m, d) and S[m] = sum_{k<=m} p(k, d) for 0 <= m <= PREFIX_LIMIT; p_record
# hands out the very floats that were summed, so telescoping is bitwise
_P_TABLE: dict[int, np.ndarray] = {}
_PREFIX: dict[int, np.ndarray] = {}


def _ensure_prefix(d: int) -> np.ndarray:
    """The prefix-sum table of dimension d, built once by climbing the
    recurrence from the highest cached dimension below d (or from d = 1);
    only d's own two tables are kept, so memory does not grow with d."""
    s = _PREFIX.get(d)
    if s is not None:
        return s
    level = max((k for k in _PREFIX if k < d), default=0)
    s = _PREFIX.get(level)
    ms = np.arange(1, PREFIX_LIMIT + 1, dtype=np.float64)
    for _ in range(level, d):
        ps = np.zeros(PREFIX_LIMIT + 1)
        ps[1:] = (1.0 if s is None else s[1:]) / ms  # the recurrence
        s = np.cumsum(ps)  # sequential accumulation: keeps telescoping bitwise
    _P_TABLE[d] = ps
    _PREFIX[d] = s
    return s


def mean_records(n: int, d: int) -> float:
    """E[#records among the first n observations], exactly summed.

    Up to ``PREFIX_LIMIT`` this is the cached prefix sum of ``p_record``
    values, so consecutive outputs differ by exactly the probability of the
    new record.  Larger n evaluate the equivalent single integral.
    """
    n, d = _as_int(n, "n", 1), _as_int(d, "d", 1)
    if n <= PREFIX_LIMIT:
        return float(_ensure_prefix(d)[n])
    return _mean_records_integral(n, d)


_PANEL = 0.5  # log-space panel width; GL16 per panel

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _panel_nodes(a: float, b: float, n_panels: int):
    """Panel edges and composite GL16 nodes/weights on [a, b]."""
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    ys = (mid + half * _GL_NODES[None, :]).ravel()
    ws = (half * _GL_WEIGHTS[None, :]).ravel()
    return edges, ys, ws


def _mean_records_integral(n: int, d: int) -> float:
    b = math.log(n) + 60.0
    _, ys, ws = _panel_nodes(0.0, b, max(1, math.ceil(b / _PANEL)))
    # 1 - (1-e^{-y})^n without cancellation at either end
    tail = -np.expm1(n * np.log1p(-np.exp(-ys)))
    dens = np.exp((d - 1) * np.log(ys) - math.lgamma(d))
    return float((dens * tail) @ ws)


def mean_remaining(n: int, d: int) -> float:
    """E[#current records at time n] = n * p_record(n, d).

    This is the recurrence itself: the current records at time n are the
    records among n observations in dimension d - 1, so the value is
    ``mean_records(n, d - 1)``, and exactly 1 in dimension 1.
    """
    n, d = _as_int(n, "n", 1), _as_int(d, "d", 1)
    return 1.0 if d == 1 else mean_records(n, d - 1)


# -- conditional record density -------------------------------------------------

def _density(ys: np.ndarray, n: int, d: int, log_norm: float) -> np.ndarray:
    """y^{d-1}/(d-1)! e^{-y} (1-e^{-y})^{n-1} / e^{log_norm} at ys > 0."""
    logf = (d - 1) * np.log(ys) - math.lgamma(d) - ys
    if log_norm:  # x - 0.0 == x: the sampler's inner loop skips the array op
        logf -= log_norm
    if n > 1:
        logf = logf + (n - 1) * np.log1p(-np.exp(-ys))
    return np.exp(logf)


def y_density(n: int, d: int, y):
    """Density of a record's coordinate sum at time n (0 for y <= 0)."""
    n, d = _as_int(n, "n", 1), _as_int(d, "d", 1)
    y_arr = np.asarray(y, dtype=np.float64)
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    out = np.zeros_like(y_arr)
    pos = y_arr > 0.0
    if np.any(pos):
        out[pos] = _density(y_arr[pos], n, d, math.log(p_record(n, d)))
    return float(out[0]) if scalar else out


class _CdfTable:
    """Panelized CDF of the unnormalized record-sum density for one (n, d)."""

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        lo = 0.0 if n == 1 else max(0.0, math.log(n - 1) - 4.0)
        hi = math.log(max(n - 1, 1)) + 60.0 + 8.0 * d
        self.edges, ys, ws = _panel_nodes(lo, hi, 4096)
        vals = (_density(ys, n, d, 0.0) * ws).reshape(-1, 16).sum(axis=1)
        self.cum = np.concatenate([[0.0], np.cumsum(vals)])
        self.total = float(self.cum[-1])

    def _partial(self, a: float, y: float) -> float:
        half = 0.5 * (y - a)
        nodes = a + half + half * _GL_NODES
        return float((_density(nodes, self.n, self.d, 0.0) * _GL_WEIGHTS).sum() * half)

    def invert(self, u: float) -> float:
        target = u * self.total
        k = int(np.searchsorted(self.cum, target, side="right")) - 1
        k = min(max(k, 0), self.edges.size - 2)
        a, b = float(self.edges[k]), float(self.edges[k + 1])
        base = float(self.cum[k])
        lo, hi = a, b
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if base + self._partial(a, mid) < target:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12:
                break
        return 0.5 * (lo + hi)


_CDF_TABLES: dict[tuple, _CdfTable] = {}


def sample_y(stream, n: int, d: int) -> float:
    """Exact draw from the record-sum density via inverse-CDF bisection.

    Consumes one observation address from the stream (its first coordinate
    slot), so samples are reproducible and stream-chunking independent.
    """
    n, d = _as_int(n, "n", 1), _as_int(d, "d", 1)
    key = (n, d)
    table = _CDF_TABLES.get(key)
    if table is None:
        table = _CDF_TABLES[key] = _CdfTable(n, d)
    u = float(stream.take_uniforms(1)[0, 0])
    return table.invert(u)


# -- reference distributions ----------------------------------------------------

def gumbel_cdf(x):
    """Standard Gumbel distribution function exp(-exp(-x))."""
    x_arr = np.asarray(x, dtype=np.float64)
    out = np.exp(-np.exp(-x_arr))
    return float(out) if out.ndim == 0 else out


def normal_cdf(x):
    """Standard normal distribution function via erfc."""
    x_arr = np.asarray(x, dtype=np.float64)
    out = 0.5 * erfc(-x_arr / math.sqrt(2.0))
    return float(out) if np.ndim(out) == 0 else out


# -- centering and scaling sequences ---------------------------------------------

def _check_real(value, name: str, minimum: float):
    value = float(value)
    if not math.isfinite(value) or value < minimum:
        raise ValueError(f"{name} must be a finite real >= {minimum}, got {value!r}")
    return value


def fplus_centering(n, d: int) -> float:
    """Centering for the largest frontier sum: ln n + (d-1) ln ln n - ln((d-1)!)."""
    d = _as_int(d, "d", 1)
    n = _check_real(n, "n", 3.0)
    log_n = math.log(n)
    return log_n + (d - 1) * math.log(log_n) - math.lgamma(d)


def _factorial_times(d: int, m: float) -> float:
    """d! m as a float; ValueError naming d and m where d! is beyond every
    double (d > 170), rather than forming a huge factorial to overflow on."""
    if d > _MAX_FACTORIAL_D:
        raise ValueError(f"d! * m overflows a float at d={d}, m={m!r}")
    return math.factorial(d) * m


def tm_centering(m, d: int) -> float:
    """Centering for the epoch of record m: (d! m)^(1/d) - gamma."""
    d = _as_int(d, "d", 1)
    m = _check_real(m, "m", 2.0)
    return _factorial_times(d, m) ** (1.0 / d) - EULER_GAMMA


def records_time_fplus_centering(m, d: int) -> float:
    """Centering for the largest frontier sum on the records-time clock.

    Only meaningful from dimension 3 up:
    (d! m)^(1/d) + (1 - 1/d) ln m + ln d - (1/d) ln(d!) - gamma.
    """
    d = _as_int(d, "d", 3)
    m = _check_real(m, "m", 2.0)
    return (
        _factorial_times(d, m) ** (1.0 / d)
        + (1.0 - 1.0 / d) * math.log(m)
        + math.log(d)
        - math.log(math.factorial(d)) / d
        - EULER_GAMMA
    )


def asym_mean_records(n, d: int, order: int) -> float:
    """Truncated expansion of E[#records]: (ln n)^d sum_j (-1)^j G_j/(j!(d-j)!) (ln n)^-j
    with G_j the j-th derivative of the Gamma function at 1."""
    d = _as_int(d, "d", 1)
    order = _as_int(order, "order", 0, min(d, len(GAMMA_DERIVS_AT_1) - 1))
    n = _check_real(n, "n", 3.0)
    if d > _MAX_FACTORIAL_D:
        raise ValueError(f"d! overflows a float at d={d}")
    log_n = math.log(n)
    try:
        terms = [
            (-1.0) ** j
            * GAMMA_DERIVS_AT_1[j]
            / (math.factorial(j) * math.factorial(d - j))
            * log_n ** (d - j)
            for j in range(order + 1)
        ]
    except OverflowError:
        raise ValueError(f"(ln n)^d overflows a float at n={n!r}, d={d}") from None
    return math.fsum(terms)
