import functools
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import roots_jacobi

from rmtkernels import quadrature
from rmtkernels.oracle import _BUDGETS, _MAX_N
from rmtkernels.orthopoly import (DENSE_PANELS, ORDER, PotentialSpec, PrecisionError, WeightSpec,
                                   build_recurrence)
from rmtkernels.quadrature import _jacgauss, build_weight_grid, weighted_rule


@pytest.mark.parametrize("order", [20, 48])
@pytest.mark.parametrize("beta", [0.0, 0.6, 1.4])
def test_gauss_jacobi_matches_scipy(order, beta):
    x, w = _jacgauss(order, beta)
    x_ref, w_ref = roots_jacobi(order, 0.0, beta)
    assert np.max(np.abs(x - x_ref)) < 1e-14
    assert np.max(np.abs(w - w_ref) / w_ref) < 1e-11


def _legendre_reference(order, mp):
    """Gauss-Legendre nodes and weights at mpmath's precision: Newton on P_order
    from the asymptotic guesses cos(pi (i - 1/4) / (order + 1/2))."""
    def p_and_dp(x):
        p0, p1 = mp.mpf(1), x
        for k in range(1, order):
            p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
        return p1, order * (x * p1 - p0) / (x * x - 1)

    nodes, weights = [], []
    for i in range(1, order + 1):
        x = mp.cos(mp.pi * (i - mp.mpf(0.25)) / (order + mp.mpf(0.5)))
        for _ in range(100):
            p, dp = p_and_dp(x)
            x -= p / dp
            if abs(p / dp) < mp.mpf(10) ** (5 - mp.dps):
                break
        _, dp = p_and_dp(x)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes[::-1], weights[::-1]


@pytest.mark.parametrize("order", [8, 10, 12, 16, 20, 24, 28, 36, 48])
def test_gauss_legendre_matches_40_digits(order):
    # every Gauss-Legendre panel takes the Golub-Welsch rule at exponent 0
    mp = pytest.importorskip("mpmath").mp.clone()
    mp.dps = 40
    nodes, weights = _legendre_reference(order, mp)
    x0, off, w, _ = weighted_rule(np.zeros(1), np.array([-1.0]), np.array([1.0]), order,
                                  WeightSpec(0.3, 1, PotentialSpec((0.0, 0.0, 2.0))))
    x = x0 + off
    assert np.array_equal(w, _jacgauss(order, 0.0)[1])
    assert max(abs(mp.mpf(float(a)) - b) for a, b in zip(x, nodes)) < 2e-15
    assert max(abs(mp.mpf(float(a)) / b - 1) for a, b in zip(w, weights)) < 5e-13


def test_table_build_computes_each_rule_once(monkeypatch):
    # one generator and one cache: at alpha = 0.3 a table takes Gauss-Legendre
    # at the tail and dense orders and Gauss-Jacobi (exponent 0.6) at the
    # origin's, and no Gauss-Legendre rule at the origin's
    computed = []

    @functools.lru_cache(maxsize=None)
    def recording(order, beta):
        computed.append((order, beta))
        return _jacgauss.__wrapped__(order, beta)

    monkeypatch.setattr(quadrature, "_jacgauss", recording)
    build_recurrence(WeightSpec(0.3, 4, PotentialSpec((0.0, 0.0, 2.0))), 8)
    assert sorted(computed) == [(16, 0.0), (20, 0.0), (48, 0.6)]


def _clear_radius_caches():
    quadrature.cutoff_radius.cache_clear()
    quadrature.dense_radius.cache_clear()


def test_oracle_grids_of_one_weight_search_the_cutoff_once_per_side():
    # the two budget grids and the K = n + 2 comparison table of one weight
    w = WeightSpec(0.3, 2, PotentialSpec((0.0, 0.0, 2.0)))
    _clear_radius_caches()
    for dense_panels, order, jacobi_order in _BUDGETS:
        build_weight_grid(w, dense_panels, order=order, jacobi_order=jacobi_order)
    build_recurrence(w, w.n + 2)
    info = quadrature.cutoff_radius.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_study_tables_of_one_potential_search_the_dense_radius_once_per_side():
    # tables to degree n + 2 at n = 8...64 all take level 8
    v = PotentialSpec((0.0, 0.0, 2.0))
    _clear_radius_caches()
    for n in (8, 16, 32, 64):
        build_recurrence(WeightSpec(0.3, n, v), n + 2)
    assert quadrature.dense_radius.cache_info().misses == 2
    assert quadrature.cutoff_radius.cache_info().misses == 8  # one per weight and side


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_cold_and_warm_radius_caches_give_the_same_grid(alpha):
    w = WeightSpec(alpha, 3, PotentialSpec((0.0, 0.5, 0.0, 0.0, 1.0)))
    _clear_radius_caches()
    cold = build_weight_grid(w, DENSE_PANELS, order=ORDER, max_degree=5)
    assert quadrature.cutoff_radius.cache_info().hits == 0
    warm = build_weight_grid(w, DENSE_PANELS, order=ORDER, max_degree=5)
    assert quadrature.cutoff_radius.cache_info().hits == 2
    for a, b in zip((cold.x, cold.qw, cold.logw, *cold.panels),
                    (warm.x, warm.qw, warm.logw, *warm.panels)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 2.0), (0.0, 0.0, 0.0, 0.0, 1.0),
                                    (0.0, 0.5, 0.0, 0.0, 1.0)], ids=["2x^2", "x^4", "x^4+x/2"])
def test_cached_radii_equal_the_uncached_search(coeffs):
    v = PotentialSpec(coeffs)
    _clear_radius_caches()
    for _ in range(2):  # cold, then warm
        for alpha in (0.0, 0.3, 1.7):
            for n in (2, 8, 64):
                w = WeightSpec(alpha, n, v)
                for sgn in (-1.0, 1.0):
                    assert (quadrature.cutoff_radius(w, sgn)
                            == quadrature.cutoff_radius.__wrapped__(w, sgn))
                    level = max(8.0, 4.0 * (n + 2) / n)
                    assert (quadrature.dense_radius(v, sgn, level)
                            == quadrature.dense_radius.__wrapped__(v, sgn, level))


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 2.0), (0.0, 0.5, 0.0, 0.0, 1.0),
                                    (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 1.0)],
                         ids=["2x^2", "x^4+x/2", "x^6+x^2/2"])
def test_potential_is_polyval_bitwise(coeffs):
    v = PotentialSpec(coeffs)
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(-6.0, 6.0, 2000), rng.standard_normal(2000) * 50.0,
                        [0.0, -0.0, 1e-300, -1e-20, 1.3 ** 199]])
    want = np.polynomial.polynomial.polyval(x, coeffs)
    assert np.array_equal(v(x), want)
    assert np.array_equal(v(x.reshape(5, -1)), want.reshape(5, -1))
    assert all(v(float(t)) == u for t, u in zip(x[::50], want[::50]))
    assert v(3) == np.polynomial.polynomial.polyval(3.0, coeffs)


def test_weighted_rule_broadcasts_bitwise():
    # a batch of pieces, the two at 0 Gauss-Jacobi and the others Gauss-Legendre,
    # gives each piece the bits of a one-piece call
    edges = np.array([-2.0, -0.3, -1e-9, 0.0, 0.25, 3.0])
    w = WeightSpec(0.3, 4, PotentialSpec((0.0, 0.0, 2.0)))
    batch = weighted_rule(np.zeros(5), edges[:-1], edges[1:], 16, w)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        one = weighted_rule(np.zeros(1), np.array([a]), np.array([b]), 16, w)
        assert all(np.array_equal(col[16 * i:16 * (i + 1)], v) for col, v in zip(batch, one))


EVEN_K = st.integers(0, 10).map(lambda h: 2 * h)


def _check_grid(g, w, jacobi_order, k):
    a, b, start, stop = g.panels
    # the bookkeeping that cauchy's near-panel search and masking read
    assert np.all(a[:-1] < a[1:])
    covered = np.concatenate([np.arange(lo, hi) for lo, hi in zip(start, stop)])
    assert np.array_equal(np.sort(covered), np.arange(g.x.size))
    for i in range(a.size):
        assert np.all((a[i] <= g.x[start[i]:stop[i]]) & (g.x[start[i]:stop[i]] <= b[i]))
    at_origin = (a == 0.0) | (b == 0.0)
    assert np.array_equal((stop - start)[at_origin], [jacobi_order] * 2)
    # the integral of |x|^(2a) x^k e^(-2n x^2) over the line, k even
    s = (k + 2.0 * w.alpha + 1.0) / 2.0
    want = math.gamma(s) / (2.0 * w.n) ** s
    got = float(np.sum(g.qw * np.exp(g.logw) * g.x ** k))
    assert abs(got / want - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(-0.45, 2.5), n=st.integers(1, 256), k=EVEN_K,
       dense_panels=st.integers(DENSE_PANELS, 223))
def test_table_grid_moments_and_panels(alpha, n, k, dense_panels):
    # tables of degree n + 8 <= 264 build their grids with 48..223 dense panels
    w = WeightSpec(alpha, n, PotentialSpec((0.0, 0.0, 2.0)))
    g = build_weight_grid(w, dense_panels, order=ORDER)
    _check_grid(g, w, 48, k)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(-0.45, 2.5), n=st.integers(1, _MAX_N), k=EVEN_K,
       budget=st.sampled_from(_BUDGETS))
def test_oracle_grid_moments_and_panels(alpha, n, k, budget):
    # the oracle builds its grids for n <= 3 only
    w = WeightSpec(alpha, n, PotentialSpec((0.0, 0.0, 2.0)))
    dense_panels, order, jacobi_order = budget
    g = build_weight_grid(w, dense_panels, order=order, jacobi_order=jacobi_order)
    _check_grid(g, w, jacobi_order, k)


@settings(max_examples=40, deadline=None)
@given(alpha=st.floats(-0.5, 1e6, exclude_min=True), c=st.sampled_from([1e-3, 2.0]),
       n=st.integers(1, 8), max_degree=st.integers(0, 10))
@example(alpha=400.0, c=1e-3, n=1, max_degree=10)  # origin panels ~100 wide: |d|^801
def test_any_exponent_builds_a_table_or_raises_a_typed_error(alpha, c, n, max_degree):
    # at large alpha the table fails its identities (PrecisionError); from
    # 2 alpha + 1 = 1024 on, 2^(2 alpha + 1) in the Gauss-Jacobi mass leaves
    # the doubles, which is a WeightDomainError, not an OverflowError
    w = WeightSpec(alpha, n, PotentialSpec((0.0, 0.0, c)))
    try:
        t = build_recurrence(w, max_degree)
    except (quadrature.WeightDomainError, PrecisionError):
        return
    assert t.max_degree == max_degree and np.isfinite(t.log_norm_sq).all()


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.7, 400.0])
@pytest.mark.parametrize("d", [1e-3, -1e-3, 5.0, -5.0, 1e3, -1e3])
def test_jacobi_piece_moments(alpha, d):
    # the piece [0, d] alone, with V = 0: its rule sums |x|^(2a) x^k exactly
    # for k < 2 * order, the width's power |d|^(2a + 1) kept in logw (at
    # alpha = 400 and |d| = 1e3 it is far past the doubles).  The logs are
    # compared relative to their size: near 5600, one ulp is 9e-13
    order = 16
    w = types.SimpleNamespace(alpha=alpha, n=1, potential=np.zeros_like)
    x0, off, qw, logw = weighted_rule(np.zeros(1), np.array([min(d, 0.0)]),
                                      np.array([max(d, 0.0)]), order, w)
    x = x0 + off
    assert np.all(np.sign(x) == np.sign(d))  # so every term has the sign of d^k
    for k in range(2 * order):
        logs = np.log(qw) + logw + k * np.log(np.abs(x))
        top = logs.max()
        got = top + math.log(np.sum(np.exp(logs - top)))
        want = (2.0 * alpha + k + 1.0) * math.log(abs(d)) - math.log(2.0 * alpha + k + 1.0)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))
