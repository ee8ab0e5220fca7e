import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import roots_jacobi

from rmtkernels.oracle import _BUDGETS, _MAX_N
from rmtkernels.orthopoly import DENSE_PANELS, ORDER, PotentialSpec, WeightSpec
from rmtkernels.quadrature import _jacgauss, build_weight_grid, legendre_panel


@pytest.mark.parametrize("order", [20, 48])
@pytest.mark.parametrize("beta", [0.0, 0.6, 1.4])
def test_gauss_jacobi_matches_scipy(order, beta):
    x, w = _jacgauss(order, beta)
    x_ref, w_ref = roots_jacobi(order, 0.0, beta)
    assert np.max(np.abs(x - x_ref)) < 1e-14
    assert np.max(np.abs(w - w_ref) / w_ref) < 1e-11


def test_legendre_panels_broadcast_bitwise():
    # a column of panel ends gives each panel's rule as one row, bit for bit
    edges = np.array([-2.0, -0.3, -1e-9, 0.0, 0.25, 3.0])
    xs, ws = legendre_panel(edges[:-1, None], edges[1:, None], 16)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        x, w = legendre_panel(float(a), float(b), 16)
        assert np.array_equal(xs[i], x) and np.array_equal(ws[i], w)


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
