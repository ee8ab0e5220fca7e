import numpy as np
import pytest
from scipy.special import roots_jacobi

from rmtkernels.quadrature import _jacgauss, legendre_panel


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
