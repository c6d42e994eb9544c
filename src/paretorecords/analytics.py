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

- n <= PREFIX_LIMIT: a table of the prefix sums of p per recently
  requested d, built level by level from the highest cached level below it.
- larger n: the single integral

      E[#records among n] = int_0^inf y^{d-1}/(d-1)! * (1-(1-e^{-y})^n) dy,

  by composite Gauss-Legendre on half-unit panels.

Either way p(n, d) is read off the level below by the recurrence, as
E[#records among n in dimension d-1] / n.

The exact rationals (``p_record_exact``) and independent high-precision
quadratures pin the accuracy in the tests.
"""

from __future__ import annotations

import array
import bisect
import functools
import math
from fractions import Fraction

import numpy as np
from scipy.special import erfc

from .records import _as_int, _as_real

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
    return _mean_remaining(n, d) / n


# -- record-count means --------------------------------------------------------

# requested d -> S[m] = sum_{k<=m} p(k, d) for 0 <= m <= PREFIX_LIMIT (least
# recently requested first); p_record(m, d + 1) = S[m] / m is the very float
# that level d + 1 sums, so telescoping is bitwise
_PREFIX: dict[int, np.ndarray] = {}
# levels passed on climbs, oldest first
_CHECKPOINTS: dict[int, np.ndarray] = {}
_LEVELS_KEPT = 8  # requested dimensions whose tables stay cached
_CHECKPOINTS_KEPT = 10  # climb levels kept besides them


def _recurrence_step(s, ms: np.ndarray) -> np.ndarray:
    """The prefix sums of p(., d) from the prefix sums ``s`` of d - 1
    (``None`` below d = 1)."""
    ps = np.zeros(PREFIX_LIMIT + 1)
    ps[1:] = (1.0 if s is None else s[1:]) / ms  # the recurrence
    return np.cumsum(ps)  # sequential accumulation: keeps telescoping bitwise


def _ensure_prefix(d: int) -> np.ndarray:
    """The prefix-sum table of dimension d.

    The last ``_LEVELS_KEPT`` dimensions requested keep their tables.
    Any other d climbs the recurrence from the highest cached level below it
    (from d = 1 if there is none) and keeps the levels it passes at distances
    1, 3, 6, 10, ... below d as checkpoints (``_CHECKPOINTS_KEPT`` in all,
    oldest evicted first).  A checkpoint is promoted when it is
    requested, and is the base of a climb to a level above it, so the
    dimensions of a descending sweep cost about two climb steps each and an
    ascending sweep one.  Every route gives the same floats: each level is
    one function of the level below.  Whatever d is, the cache holds at
    most ``_LEVELS_KEPT + _CHECKPOINTS_KEPT`` levels.
    """
    s = _PREFIX.pop(d, None)
    if s is not None:
        _PREFIX[d] = s  # re-inserted: _PREFIX's order is the eviction order
        return s
    s = _CHECKPOINTS.pop(d, None)
    if s is None:
        base = max((k for k in (*_PREFIX, *_CHECKPOINTS) if k < d), default=0)
        s = _CHECKPOINTS.get(base, _PREFIX.get(base))
        keep = {d - j * (j + 1) // 2 for j in range(1, _CHECKPOINTS_KEPT + 1)}
        ms = np.arange(1, PREFIX_LIMIT + 1, dtype=np.float64)
        for level in range(base + 1, d + 1):
            s = _recurrence_step(s, ms)
            if level in keep:
                _CHECKPOINTS[level] = s
                if len(_CHECKPOINTS) > _CHECKPOINTS_KEPT:
                    del _CHECKPOINTS[next(iter(_CHECKPOINTS))]
    _PREFIX[d] = s
    if len(_PREFIX) > _LEVELS_KEPT:
        del _PREFIX[next(iter(_PREFIX))]
    return s


def mean_records(n: int, d: int) -> float:
    """E[#records among the first n observations], exactly summed.

    Up to ``PREFIX_LIMIT`` this is the cached prefix sum of ``p_record``
    values, so consecutive outputs differ by exactly the probability of the
    new record.  Larger n evaluate the equivalent single integral.
    """
    n, d = _as_int(n, "n", 1), _as_int(d, "d", 1)
    return _mean_records(n, d)


def _mean_records(n: int, d: int) -> float:
    """``mean_records`` on checked ints: the inner route, checked once at
    whichever public function was called."""
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
    return _mean_remaining(n, d)


def _mean_remaining(n: int, d: int) -> float:
    """``mean_remaining`` on checked ints."""
    return 1.0 if d == 1 else _mean_records(n, d - 1)


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
    """Density of a record's coordinate sum at time n (0 for y <= 0 and at
    +inf, nan at nan)."""
    n, d = _as_int(n, "n", 1), _as_int(d, "d", 1)
    y_arr = np.asarray(y, dtype=np.float64)
    scalar = y_arr.ndim == 0
    y_arr = np.atleast_1d(y_arr)
    out = np.where(np.isnan(y_arr), np.nan, 0.0)
    pos = (y_arr > 0.0) & (y_arr < math.inf)
    if np.any(pos):
        out[pos] = _density(y_arr[pos], n, d, math.log(p_record(n, d)))
    return float(out[0]) if scalar else out


_NEWTON_TOL = 1e-13  # stop once the Newton step is this small
_BRACKET_TOL = 1e-12  # or once the bracket is this narrow
_MAX_ITER = 80  # density calls per draw at most
_MODEL_STEPS = 3  # Newton steps on a panel's model CDF for the start
# GL16 nodes of [0, 1], then 1 itself: scaled onto [a, y], one density call
# gives both the partial integral over [a, y] and the density at y
_GL_UNIT_AND_END = np.append(0.5 * (1.0 + _GL_NODES), 1.0)


class _CdfTable:
    """Panelized CDF of the unnormalized record-sum density for one (n, d).

    ``invert`` picks the panel holding the target mass by ``bisect``
    and solves ``F(y) = u * total`` inside it by safeguarded Newton (rtsafe,
    Press et al., Numerical Recipes 9.4).

    The start comes from a model of the panel: with ``y = a + h s`` on a
    panel ``[a, a + h]``, the quartic density ``sum_i c_i s^i`` matching
    ``f`` and ``f'`` at both edges and the panel's GL16 mass.  Its CDF, a
    quintic, is inverted by a few scalar Newton steps with no numpy call.
    The model's error shrinks as ``h^6``: on panels about 0.02 wide the
    start is usually within 1e-13 of the root, so the first density call
    already meets the stop rule.
    Where the model's inverse is not finite or not strictly inside the
    panel (an edge at y = 0, where ``f'`` is not formed, or a model density
    that is not positive), the start is linear interpolation on the
    panel's mass.

    The model only places the start: every iteration makes one call to the
    true density, which gives ``F(y)`` (the panel's base mass plus GL16
    over ``[a, y]``) and ``f(y)`` together, so each draw is certified by the
    true CDF whatever the start.  A Newton step is taken only if it stays
    inside the bracket and at least halves the step before it; otherwise
    the bracket is bisected.  The iteration stops when the Newton step is
    below 1e-13 or the bracket below 1e-12, after at most 80 density calls.
    """

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d
        lo = 0.0 if n == 1 else max(0.0, math.log(n - 1) - 4.0)
        hi = math.log(max(n - 1, 1)) + 60.0 + 8.0 * d
        edges, ys, ws = _panel_nodes(lo, hi, 4096)
        vals = (_density(ys, n, d, 0.0) * ws).reshape(-1, 16).sum(axis=1)
        # freed before the model's arrays are made: with the 1 MB of nodes
        # still held, a benchmark child's peak RSS read about 1 MB higher
        del ys, ws
        cum = np.concatenate([[0.0], np.cumsum(vals)])
        self.total = float(cum[-1])
        # f and f' = f ((d-1)/y - 1 + (n-1)/expm1(y)) at the edges; at y = 0
        # they come out nan (0 * inf or log(0) terms) and that panel's model
        # with them, which invert refuses
        with np.errstate(divide="ignore", invalid="ignore"):
            f = _density(edges, n, d, 0.0)
            df = f * ((d - 1) / edges - 1.0 + (n - 1) / np.expm1(edges))
        h = np.diff(edges)
        c0, c1 = f[:-1], df[:-1] * h
        r1, r2, r3 = f[1:] - c0 - c1, df[1:] * h - c1, vals / h - c0 - 0.5 * c1
        coef = np.stack([c0, c1, -12.0 * r1 + 1.5 * r2 + 30.0 * r3,
                         28.0 * r1 - 4.0 * r2 - 60.0 * r3,
                         -15.0 * r1 + 2.5 * r2 + 30.0 * r3], axis=1)
        # kept as Python floats: a draw's panel search and reads cost no numpy
        # call; filled from the raw bytes, not float by float
        self.cum = array.array("d", cum.tobytes())
        self.edges = array.array("d", edges.tobytes())
        self.coef = array.array("d", coef.tobytes())  # c0..c4 of panel k at 5k

    def invert(self, u: float) -> float:
        n, d = self.n, self.d
        cum, edges = self.cum, self.edges
        target = u * self.total
        k = min(max(bisect.bisect_right(cum, target) - 1, 0), len(edges) - 2)
        a, b = edges[k], edges[k + 1]
        base = cum[k]
        mass = cum[k + 1] - base
        frac = (target - base) / mass if mass > 0.0 else 0.0
        # the model's CDF h sum_i c_i s^(i+1)/(i+1) = target - base, by Newton
        # from the linear start
        c0, c1, c2, c3, c4 = self.coef[5 * k: 5 * k + 5]
        tau = (target - base) / (b - a)
        s = frac
        for _ in range(_MODEL_STEPS):
            p = c0 + s * (c1 + s * (c2 + s * (c3 + s * c4)))
            if not p > 0.0:
                s = math.nan
                break
            s -= (s * (c0 + s * (0.5 * c1 + s * (c2 / 3.0 + s * (0.25 * c3 + s * 0.2 * c4))))
                  - tau) / p
        y = a + (b - a) * s
        if not a < y < b:  # no usable model: linear interpolation on the mass
            y = a + (b - a) * frac
        if not a < y < b:  # at y = a every node is a, where log(0) may sit
            y = 0.5 * (a + b)
        lo, hi, step = a, b, b - a
        for _ in range(_MAX_ITER):
            dens = _density(a + (y - a) * _GL_UNIT_AND_END, n, d, 0.0)
            partial = 0.5 * (y - a) * float(dens[:16] @ _GL_WEIGHTS)
            # base - target first: where the CDF is flat in floats (base ~ total),
            # base + partial would round the partial mass away
            excess = (base - target) + partial
            if excess < 0.0:
                lo = y
            else:
                hi = y
            f_y = float(dens[16])
            # no Newton step where the mass over [a, y] underflowed to zero
            newton = excess / f_y if partial > 0.0 and f_y > 0.0 else math.inf
            # converged before the bracket test: a converged step may land on lo or hi
            if abs(newton) < _NEWTON_TOL:
                return min(max(y - newton, lo), hi)
            if hi - lo < _BRACKET_TOL:
                break
            if lo < y - newton < hi and abs(newton) <= 0.5 * abs(step):
                step = newton
            else:
                step = y - 0.5 * (lo + hi)
            y -= step
        return 0.5 * (lo + hi)


# a table holds about 240 KB (sys.getsizeof of its arrays at (10^5, 2)): 68 KB
# of CDF and edges, 170 KB of start-model coefficients
@functools.lru_cache(maxsize=64)
def _cdf_table(n: int, d: int) -> _CdfTable:
    return _CdfTable(n, d)


def sample_y(stream, n: int, d: int) -> float:
    """Exact draw from the record-sum density by inverting its CDF.

    The panel table picks the panel holding the drawn mass, and safeguarded
    Newton solves inside it until the step is below 1e-13 or the bracket
    below 1e-12 (see ``_CdfTable``).  It starts from the inverse of a
    quartic-density model of the panel, so one density call usually
    settles a draw; the model only places the start, and every stop is
    judged on the true density's CDF.  Consumes one observation address from
    the stream (its first coordinate slot), so samples are reproducible and
    stream-chunking independent.
    """
    n, d = _as_int(n, "n", 1), _as_int(d, "d", 1)
    table = _cdf_table(n, d)
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

def fplus_centering(n, d: int) -> float:
    """Centering for the largest frontier sum: ln n + (d-1) ln ln n - ln((d-1)!)."""
    d = _as_int(d, "d", 1)
    n = _as_real(n, "n", 3.0)
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
    m = _as_real(m, "m", 2.0)
    return _factorial_times(d, m) ** (1.0 / d) - EULER_GAMMA


def records_time_fplus_centering(m, d: int) -> float:
    """Centering for the largest frontier sum on the records-time clock.

    Only meaningful from dimension 3 up:
    (d! m)^(1/d) + (1 - 1/d) ln m + ln d - (1/d) ln(d!) - gamma.
    """
    d = _as_int(d, "d", 3)
    m = _as_real(m, "m", 2.0)
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
    n = _as_real(n, "n", 3.0)
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
