"""Record-count laws: rational oracles, quadrature pins, centerings.

Hand-checked rational values and the mpmath comparisons below were computed
by independent scripts before the module was written; they are frozen here
as regression pins.
"""

import array
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from paretorecords import ObservationStream, analytics
from paretorecords.analytics import (
    EULER_GAMMA,
    GAMMA_DERIVS_AT_1,
    asym_mean_records,
    fplus_centering,
    gumbel_cdf,
    mean_records,
    mean_remaining,
    normal_cdf,
    p_record,
    p_record_exact,
    records_time_fplus_centering,
    sample_y,
    tm_centering,
    y_density,
)


# -- record probability ------------------------------------------------------

def test_p_record_first_and_pair():
    for d in (1, 2, 5):
        assert p_record(1, d) == 1.0
    assert p_record(2, 2) == 0.75
    assert p_record(2, 3) == 0.875


def test_p_record_d1_is_reciprocal():
    assert abs(p_record(100, 1) - 0.01) < 1e-12
    for n in (2, 17, 30, 500, 1000):
        assert abs(p_record(n, 1) - 1.0 / n) < 1e-12


def test_rational_oracle_pins():
    # frozen from an independent exact-arithmetic probe
    assert p_record_exact(3, 2) == Fraction(11, 18)
    assert float(p_record_exact(30, 2)) == 0.13316623769734637
    assert float(p_record_exact(30, 5)) == 0.6413739620369728
    assert float(p_record_exact(17, 3)) == 0.39465671461946605


def test_branches_agree_on_overlap():
    # exact rationals vs the positive-term recurrence, 30 <= n <= 200
    for d in (1, 2, 5):
        for n in range(30, 201, 5):
            exact = float(p_record_exact(n, d))
            assert abs(p_record(n, d) - exact) <= 1e-8 * exact


def test_recurrence_matches_rationals_from_n_1():
    # the recurrence alone serves n = 1 up; worst measured 6.0e-16
    rtol = 2e-15
    for d in range(1, 9):
        total = Fraction(0)
        for n in range(1, 101):
            exact = p_record_exact(n, d)
            total += exact
            for got, ref in ((p_record(n, d), exact), (mean_records(n, d), total),
                             (mean_remaining(n, d), n * exact)):
                assert abs(got - float(ref)) <= rtol * float(ref), (n, d)


def test_prefix_table_high_dimension_keeps_one_level(monkeypatch):
    # a cold d = 60 climbs 60 levels in a loop and caches only the levels
    # requested: 59 for p_record, 60 for mean_records
    steps = _cold_prefix_cache(monkeypatch)
    rtol = 2e-15
    total = Fraction(0)
    for n in range(1, 51):
        exact = p_record_exact(n, 60)
        total += exact
        assert abs(p_record(n, 60) - float(exact)) <= rtol * float(exact), n
        assert abs(mean_records(n, 60) - float(total)) <= rtol * float(total), n
    assert len(steps) == 60
    assert set(analytics._PREFIX) == {59, 60}


def _plain_climb_tables(top):
    """p and S for d = 1..top by the plain climb from d = 1, every level kept:
    the tables as they were built before the cache was bounded."""
    ms = np.arange(1, analytics.PREFIX_LIMIT + 1, dtype=np.float64)
    tables, s = {}, None
    for d in range(1, top + 1):
        ps = np.zeros(analytics.PREFIX_LIMIT + 1)
        ps[1:] = (1.0 if s is None else s[1:]) / ms
        s = np.cumsum(ps)
        tables[d] = ps, s
    return tables


def _cold_prefix_cache(monkeypatch):
    """Empty prefix caches, and a list that counts the recurrence steps."""
    for name in ("_PREFIX", "_CHECKPOINTS"):
        monkeypatch.setattr(analytics, name, {})
    steps = []
    step = analytics._recurrence_step

    def counting_step(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(analytics, "_recurrence_step", counting_step)
    return steps


def test_prefix_tables_bitwise_in_any_request_order(monkeypatch):
    ref = _plain_climb_tables(8)
    rng = np.random.default_rng(11)
    orders = [list(range(1, 9)), list(range(8, 0, -1)), [5, 2, 8, 1, 3, 7, 4, 6],
              [8, 1, 7, 2, 6, 3, 5, 4]] + [rng.permutation(8) + 1 for _ in range(4)]
    for order in orders:
        _cold_prefix_cache(monkeypatch)
        # every n on the first pass; the second finds every level cached
        for last in (analytics.PREFIX_LIMIT, 7):
            for d in map(int, order):
                s = analytics._ensure_prefix(d)
                ps = [p_record(m, d) for m in range(1, last + 1)]
                assert ps == ref[d][0][1:last + 1].tolist(), (order, d)
                assert np.array_equal(s, ref[d][1]), (order, d)
                assert mean_records(7, d) == ref[d][1][7]


def test_prefix_cache_bounded_and_descending_sweep_cheap(monkeypatch):
    # ascending: one step per dimension; descending: at most about twice that
    top = 60
    costs = {}
    for name, order in (("up", range(1, top + 1)), ("down", range(top, 0, -1))):
        steps = _cold_prefix_cache(monkeypatch)
        for d in order:
            mean_records(5, d)
            assert len(analytics._PREFIX) <= analytics._LEVELS_KEPT
            assert len(analytics._CHECKPOINTS) <= analytics._CHECKPOINTS_KEPT
        costs[name] = len(steps)
        before = len(steps)
        for d in list(analytics._PREFIX):  # cached: no step
            mean_records(5, d)
        assert len(steps) == before
    assert costs["up"] == top
    assert costs["down"] <= 2.2 * top, costs
    # cold high dimensions keep a bounded number of tables too
    steps = _cold_prefix_cache(monkeypatch)
    for d in (500, 250, 120, 60):
        mean_records(5, d)
        assert len(analytics._CHECKPOINTS) <= analytics._CHECKPOINTS_KEPT
    assert len(steps) == 500 + 250 + 120 + 60


def test_quadrature_meets_tolerance():
    # independent high-precision oracle
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for n, d in [(500, 2), (100_000, 2), (1_000_000, 3), (31, 1), (40, 4)]:
        f = lambda y: y ** (d - 1) / mp.factorial(d - 1) * mp.e ** (-y) * (1 - mp.e ** (-y)) ** (n - 1)
        ref = float(mp.quad(f, [0, mp.log(n), mp.log(n) + 80]))
        assert abs(p_record(n, d) - ref) <= 1e-10 * ref


def test_p_record_strictly_decreasing():
    for d in (1, 2, 3, 5):
        vals = [p_record(n, d) for n in range(1, 201)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_p_record_validation():
    with pytest.raises(ValueError):
        p_record(0, 2)
    with pytest.raises(ValueError):
        p_record(5, 0)
    with pytest.raises(ValueError):
        p_record(2.5, 2)


# -- means ---------------------------------------------------------------------

def test_mean_records_values():
    assert abs(mean_records(3, 2) - (1.0 + 0.75 + 11.0 / 18.0)) < 1e-14
    h10 = sum(1.0 / k for k in range(1, 11))
    assert mean_records(10, 1) == h10


def test_telescoping_is_bitwise():
    for d in (1, 2, 3):
        for n in (2, 3, 30, 31, 32, 100, 5000, 29_999, 30_000):
            assert mean_records(n, d) == mean_records(n - 1, d) + p_record(n, d)


def test_prefix_and_integral_routes_meet():
    from paretorecords.analytics import PREFIX_LIMIT, _mean_records_integral

    for d in (1, 2, 3):
        a = mean_records(PREFIX_LIMIT, d)
        b = _mean_records_integral(PREFIX_LIMIT, d)
        assert abs(a - b) < 1e-8


def test_mean_remaining():
    for n in (1, 7, 30, 31, 1000, 10**6):
        assert mean_remaining(n, 1) == 1.0
    assert mean_remaining(3, 2) == float(Fraction(11, 6))
    approx = math.log(10**4)
    assert abs(mean_remaining(10**4, 2) - approx) / approx < 0.15


# -- conditional record-sum density ---------------------------------------------

def test_y_density_normalizes():
    for n, d in [(1, 1), (10, 2), (1000, 3), (100_000, 2), (10, 1), (1000, 1)]:
        L = math.log(max(n, 2))
        val, err = quad(
            lambda y: y_density(n, d, y), 0, L + 80,
            points=[max(L - 10, 0), L, L + 20], limit=300,
        )
        assert abs(val - 1.0) < 1e-8


def test_y_density_exponential_case():
    ys = np.linspace(0.01, 20, 500)
    assert np.allclose(y_density(1, 1, ys), np.exp(-ys), rtol=1e-12)
    assert y_density(1, 1, 0.0) == 0.0
    assert y_density(5, 3, -2.0) == 0.0
    # the ends of the real line: no mass at +inf, and nan stays nan
    for n, d in ((1, 1), (5, 2), (1000, 3)):
        assert y_density(n, d, math.inf) == 0.0 and y_density(n, d, -math.inf) == 0.0
        assert math.isnan(y_density(n, d, math.nan))
    assert np.array_equal(y_density(5, 2, [math.nan, math.inf, 1.0]),
                          [math.nan, 0.0, y_density(5, 2, 1.0)], equal_nan=True)


def test_y_density_mode_near_log_n():
    # the mode sits at ln n plus a lower-order shift; measured 11.6031 for
    # n=1e5, d=2, which is within 1% of ln n = 11.5129
    ys = np.linspace(8.0, 20.0, 200_000)
    dens = y_density(10**5, 2, ys)
    mode = ys[int(np.argmax(dens))]
    assert abs(mode - math.log(10**5)) / math.log(10**5) < 0.05


def test_sample_y_deterministic_and_exact():
    s1 = ObservationStream(9, 0, 1)
    s2 = ObservationStream(9, 0, 1)
    draws1 = [sample_y(s1, 1, 1) for _ in range(200)]
    draws2 = [sample_y(s2, 1, 1) for _ in range(200)]
    assert draws1 == draws2
    # for n=1, d=1 the law is Exp(1): inversion must match the closed form
    u = ObservationStream(9, 0, 1).take_uniforms(200)[:, 0]
    assert np.max(np.abs(np.array(draws1) + np.log1p(-u))) < 1e-9


def test_density_and_sampler_regression_pins():
    # frozen before the density and its panel grid were shared between
    # y_density, the sampler's CDF table and the mean integral
    s = ObservationStream(9, 0, 1)
    assert [sample_y(s, 10**5, 2) for _ in range(20)] == [
        11.160887054465245, 12.778330252414763, 13.773820855620173,
        12.259592922747302, 11.700374079924456, 10.635938379834666,
        10.642097538447164, 10.710422542709171, 12.96596628642977,
        10.959996590551814, 11.219287121485225, 10.964665069493071,
        13.799020569107169, 11.839943321963872, 11.851405745152912,
        14.012536021105435, 11.010928501798693, 11.055962475690778,
        10.941434334154868, 12.213935975183553,
    ]
    assert [y_density(50, 2, y) for y in (0.5, 2.0, 3.5, 6.0, 12.0)] == [
        4.767502325418413e-20, 0.002419994432863503, 0.2614302105668443,
        0.14635385077111815, 0.0008191263587580773,
    ]


def test_sample_y_mean_exponential():
    s = ObservationStream(77, 0, 1)
    draws = [sample_y(s, 1, 1) for _ in range(10_000)]
    assert abs(float(np.mean(draws)) - 1.0) < 0.03
    # relative accuracy near y = 0, where an absolute stop width leaves 1e-7
    exact = -np.log1p(-ObservationStream(77, 0, 1).take_uniforms(10_000)[:, 0])
    assert np.max(np.abs(np.array(draws) - exact) / exact) <= 1e-11


_GL16 = np.polynomial.legendre.leggauss(16)


def _bisection_reference(table, u):
    """The sampler's inversion before safeguarded Newton, frozen as its
    oracle: 60-step bisection inside the panel, with a GL16 quadrature of
    the density over [a, mid] at each step."""

    def partial(a, y):
        half = 0.5 * (y - a)
        nodes = a + half + half * _GL16[0]
        dens = analytics._density(nodes, table.n, table.d, 0.0)
        return float((dens * _GL16[1]).sum() * half)

    target = u * table.total
    k = int(np.searchsorted(table.cum, target, side="right")) - 1
    k = min(max(k, 0), len(table.edges) - 2)
    a, b = float(table.edges[k]), float(table.edges[k + 1])
    base = float(table.cum[k])
    lo, hi = a, b
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if base + partial(a, mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    return 0.5 * (lo + hi)


TAIL_US = (0.0, 2.0**-53, 1e-300, 1e-17, 1e-10, 0.5, 1.0 - 2.0**-53, 1.0 - 2.0**-52)


# below y ~ 1e-16, exp(-y) rounds to 1 and the density's log1p(-exp(-y)) is
# -inf (density 0); the tiny tail u put Newton's first nodes there
@pytest.mark.filterwarnings("ignore:divide by zero encountered in log1p:RuntimeWarning")
@pytest.mark.parametrize("n, d", [
    (1, 1), (2, 1), (50, 3), (10**3, 4), (10**5, 2), (10**7, 2), (10, 8), (10**12, 3),
])
def test_sample_y_matches_bisection_reference(n, d, monkeypatch):
    table = analytics._CdfTable(n, d)
    us = [float(u) for u in ObservationStream(5, 0, 1).take_uniforms(500)[:, 0]]
    reference = [_bisection_reference(table, u) for u in us + list(TAIL_US)]

    calls = []
    density = analytics._density

    def counting_density(*args):
        calls[-1] += 1
        return density(*args)

    monkeypatch.setattr(analytics, "_density", counting_density)
    draws = []
    for u in us + list(TAIL_US):
        calls.append(0)
        draws.append(table.invert(u))
    draws = np.array(draws)

    assert np.max(np.abs(draws - np.array(reference))) <= 1e-12
    assert np.all(np.isfinite(draws))
    assert np.all((draws >= table.edges[0]) & (draws <= table.edges[-1]))
    assert max(calls[: len(us)]) <= 4  # one density call per Newton iteration
    assert max(calls) <= 80  # the cap: only the tails fall back to bisection
    # the panel model's start usually meets the stop rule at the first call
    assert np.mean(calls[: len(us)]) <= 1.1


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log1p:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, 1.0, 0.0, -3.0], ids=["nan", "one", "zero", "negative"])
@pytest.mark.parametrize("n, d", [
    (1, 1), (2, 1), (50, 3), (10**3, 4), (10**5, 2), (10**7, 2), (10, 8), (10**12, 3),
])
def test_sample_y_start_model_is_only_a_start(n, d, bad, monkeypatch):
    # a model that is not finite (nan), wrong but usable (density 1 + s + ...
    # + s^4, whose inverse lands off the root, inside the panel or not) or
    # refused (a density that is zero or negative) only moves the start: the
    # true density still certifies every draw
    table = analytics._CdfTable(n, d)
    monkeypatch.setattr(table, "coef", array.array("d", [bad]) * len(table.coef))
    us = [float(u) for u in ObservationStream(5, 0, 1).take_uniforms(100)[:, 0]]
    reference = [_bisection_reference(table, u) for u in us + list(TAIL_US)]

    calls = []
    density = analytics._density

    def counting_density(*args):
        calls[-1] += 1
        return density(*args)

    monkeypatch.setattr(analytics, "_density", counting_density)
    draws = []
    for u in us + list(TAIL_US):
        calls.append(0)
        draws.append(table.invert(u))

    assert np.max(np.abs(np.array(draws) - np.array(reference))) <= 1e-12
    assert max(calls) <= 80
    if bad != 1.0:  # a refused model leaves the linear start
        assert max(calls[: len(us)]) <= 4


# the cases of test_sample_y_matches_bisection_reference
_PINNED_INVERT_CASES = [
    (1, 1), (2, 1), (50, 3), (10**3, 4), (10**5, 2), (10**7, 2), (10, 8), (10**12, 3),
]


@pytest.mark.filterwarnings("ignore:divide by zero encountered in log1p:RuntimeWarning")
def test_sampler_draws_are_bitwise_pinned():
    # sha256 of repr of every float, frozen before the sampler's panel search
    # and its stream reads were sped up: a change in the last bit shows here,
    # where the bisection reference above allows 1e-12
    us = [float(u) for u in ObservationStream(5, 0, 1).take_uniforms(500)[:, 0]]
    tables = [analytics._CdfTable(n, d) for n, d in _PINNED_INVERT_CASES]
    inverted = [table.invert(u) for table in tables for u in us + list(TAIL_US)]
    assert hashlib.sha256(repr(inverted).encode()).hexdigest() == (
        "7f7701f8a1c9bff6fac54692f1c43b0c4085d59d3de01fc7a8ff15ddb6674527")
    s = ObservationStream(20260817, 0, 1)
    draws = [sample_y(s, 10**5, 2) for _ in range(2000)]
    assert hashlib.sha256(repr(draws).encode()).hexdigest() == (
        "e9c2cdb1e9eafed63463a4a7517425c6e9d0767e8931067058615fc5322c38f2")


def test_cdf_table_cache_is_bounded():
    analytics._cdf_table.cache_clear()
    s = ObservationStream(3, 0, 1)
    first = [sample_y(s, 2, 2) for _ in range(50)]
    for n in range(3, 303):
        analytics._cdf_table(n, 2)
    info = analytics._cdf_table.cache_info()
    assert info.currsize <= info.maxsize < 300
    s = ObservationStream(3, 0, 1)
    assert [sample_y(s, 2, 2) for _ in range(50)] == first  # rebuilt after eviction
    assert analytics._cdf_table.cache_info().misses == info.misses + 1


# -- reference cdfs ---------------------------------------------------------------

def test_reference_cdfs():
    assert abs(gumbel_cdf(0.0) - math.exp(-1.0)) < 1e-15
    assert normal_cdf(0.0) == 0.5
    # strict increase on the representable range; saturated tails separately
    for f, lo in ((gumbel_cdf, -2.5), (normal_cdf, -8.0)):
        vals = f(np.linspace(lo, 8, 401))
        assert np.all(np.diff(vals) > 0)
        assert vals[0] < 1e-5 and vals[-1] > 1 - 1e-3
    assert gumbel_cdf(-50.0) == 0.0 and gumbel_cdf(50.0) == 1.0
    assert normal_cdf(-50.0) == 0.0 and normal_cdf(50.0) == 1.0
    assert abs(normal_cdf(1.96) - 0.9750021048517795) < 1e-12


# -- centerings --------------------------------------------------------------------

def test_fplus_centering():
    n = math.exp(math.e)
    assert math.isclose(fplus_centering(n, 1), math.e, rel_tol=1e-12)
    assert math.isclose(fplus_centering(n, 2), math.e + 1, rel_tol=1e-12)
    assert math.isclose(fplus_centering(n, 3), math.e + 2 - math.log(2), rel_tol=1e-12)
    with pytest.raises(ValueError):
        fplus_centering(2.9, 2)


def test_tm_centering():
    assert math.isclose(tm_centering(2, 2), 2 - EULER_GAMMA, rel_tol=1e-14)
    for m in (2.0, 7.0, 123.0):
        assert math.isclose(tm_centering(m, 1), m - EULER_GAMMA, rel_tol=1e-14)
    with pytest.raises(ValueError):
        tm_centering(1.5, 2)
    assert math.isfinite(tm_centering(10, 170))
    with pytest.raises(ValueError, match=r"d=171, m=10\.0"):
        tm_centering(10, 171)  # 171! exceeds every double


def test_records_time_fplus_centering():
    m = math.e
    expect = (6 * m) ** (1 / 3) + (2 / 3) + math.log(3) - math.log(6) / 3 - EULER_GAMMA
    assert math.isclose(records_time_fplus_centering(m, 3), expect, rel_tol=1e-14)
    with pytest.raises(ValueError):
        records_time_fplus_centering(10, 2)  # needs d >= 3
    with pytest.raises(ValueError):
        records_time_fplus_centering(1.0, 3)
    with pytest.raises(ValueError, match=r"d=200, m=10\.0"):
        records_time_fplus_centering(10, 200)


def test_asym_mean_records():
    n = math.exp(10)
    assert asym_mean_records(n, 2, 0) == 50.0
    assert math.isclose(asym_mean_records(n, 2, 1), 50 + 10 * EULER_GAMMA, rel_tol=1e-14)
    with pytest.raises(ValueError):
        asym_mean_records(n, 2, 3)
    with pytest.raises(ValueError):
        asym_mean_records(2.0, 2, 1)
    # order defaults to d on the CLI; Gamma's derivatives stop at order 6
    assert math.isfinite(asym_mean_records(n, 7, 6))
    with pytest.raises(ValueError, match="order"):
        asym_mean_records(n, 7, 7)
    # overflows used to escape as OverflowError: 171! and (ln n)^d beyond a double
    with pytest.raises(ValueError, match="d=171"):
        asym_mean_records(n, 171, 0)
    with pytest.raises(ValueError, match="d=150"):
        asym_mean_records(1e300, 150, 0)


def test_asym_tracks_exact_mean():
    # truncation at full order: relative deviation shrinks with n, and is
    # far inside 2% by n = 1e6
    devs = []
    for n in (10**3, 10**4, 10**5, 10**6):
        exact = mean_records(n, 2)
        approx = asym_mean_records(n, 2, 2)
        devs.append(abs(approx - exact) / exact)
    assert all(a > b for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.02
    # d=3 figure is reported, not asserted: the expansion's remainder size
    # at desk scale is a diagnostic there
    exact3 = mean_records(10**6, 3)
    dev3 = abs(asym_mean_records(10**6, 3, 3) - exact3) / exact3
    print(f"asym full-order relative deviation at n=1e6, d=3: {dev3:.3e}")


# -- constants ----------------------------------------------------------------------

def test_gamma_derivatives_against_independent_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    assert len(GAMMA_DERIVS_AT_1) == 7
    for j, value in enumerate(GAMMA_DERIVS_AT_1):
        ref = float(mp.diff(mp.gamma, 1, j))
        assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref))
    assert GAMMA_DERIVS_AT_1[0] == 1.0
    assert abs(GAMMA_DERIVS_AT_1[1] + EULER_GAMMA) <= 1e-12
    # low orders also via plain central finite differences of math.gamma
    h = 1e-3
    fd1 = (math.gamma(1 + h) - math.gamma(1 - h)) / (2 * h)
    assert abs(fd1 - GAMMA_DERIVS_AT_1[1]) < 1e-5
    fd2 = (math.gamma(1 + h) - 2.0 + math.gamma(1 - h)) / h**2
    assert abs(fd2 - GAMMA_DERIVS_AT_1[2]) < 1e-5
    assert math.isclose(
        GAMMA_DERIVS_AT_1[2], EULER_GAMMA**2 + math.pi**2 / 6, rel_tol=1e-12
    )
