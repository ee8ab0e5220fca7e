"""Averages over the joint eigenvalue density at tiny n, independent of the recurrence.

Everything here is tensor-product quadrature of
P(x_1..x_n) = prod w(x_j) * Vandermonde(x)^2 / Z_n with n <= 3, evaluated
at two quadrature budgets that must agree.  Each average has an integrand
prod_j g(x_j) that factors over the eigenvalues, so Andreief's identity
evaluates the n-fold tensor sum exactly on the same nodes as an n x n
determinant of 1-D moments.  Nothing here uses the Stieltjes recurrence or
the Cauchy transforms, so the averages give independent values for the
characteristic-polynomial identities that the kernel modules compute
through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .orthopoly import WeightSpec
from .quadrature import build_weight_grid
from .scaled import ScaledComplex


class OracleError(RuntimeError):
    pass


_MAX_N = 3

# coarse and fine tensor budgets (dense_panels, order, jacobi_order)
_BUDGETS = ((10, 8, 28), (14, 10, 36))


def _grid_1d(w: WeightSpec, budget):
    dense_panels, order, jacobi_order = budget
    g = build_weight_grid(w, dense_panels=dense_panels, order=order, jacobi_order=jacobi_order)
    ls = float(np.max(g.logw))
    wv = g.qw * np.exp(g.logw - ls)
    return g.x, wv, ls


def _andreief_sum(x, wv, n, g):
    """sum over the n-fold tensor grid of prod_i wv_i g_i * Vandermonde^2.

    Andreief's identity: equals n! det[sum_k wv_k g_k x_k^(p+q)], p, q < n,
    for the factor values g on the 1-D nodes x.
    """
    P = np.vander(x, n, increasing=True)
    moments = (P * (wv * g)[:, None]).T @ P
    return complex(math.factorial(n) * np.linalg.det(moments))


@dataclass
class JointDensitySpec:
    w: WeightSpec
    n: int
    _grids: list = field(repr=False, default=None)  # [(x, wv, log_scale), ...]
    _z_raw: list = field(repr=False, default=None)  # raw partition sums per budget


def make_joint_density(w: WeightSpec) -> JointDensitySpec:
    """Builds the two quadrature grids and the partition function Z_n."""
    n = w.n
    if n > _MAX_N:
        raise OracleError(f"direct quadrature capped at n <= {_MAX_N}")
    grids = [_grid_1d(w, b) for b in _BUDGETS]
    z_raw = []
    z_vals = []
    for x, wv, ls in grids:
        raw = _andreief_sum(x, wv, n, 1.0)
        if not (raw.real > 0):
            raise OracleError("partition function not positive")
        z_raw.append(raw)
        z_vals.append(math.log(raw.real) + n * ls)
    if abs(z_vals[0] - z_vals[1]) > 1e-7:
        raise OracleError(
            f"partition function budgets disagree: {z_vals[0]} vs {z_vals[1]}"
        )
    return JointDensitySpec(w=w, n=n, _grids=grids, _z_raw=z_raw)


def _average(d: JointDensitySpec, g, rel_tol: float) -> ScaledComplex:
    """mean of prod_j g(x_j) under the joint density, with the two-budget check;
    a mean outside the doubles (a point as large as 1e300) raises OracleError."""
    vals = []
    mags = []
    with np.errstate(all="ignore"):  # a mean outside the doubles is caught below
        for (x, wv, _), z_raw in zip(d._grids, d._z_raw):
            gx = g(x)
            vals.append(_andreief_sum(x, wv, d.n, gx) / z_raw)
            mags.append(abs(_andreief_sum(x, wv, d.n, np.abs(gx)) / z_raw))
    if not np.isfinite(vals).all():
        raise OracleError(f"average is not finite in double precision: {vals[1]}")
    # |g| mass sets the floor so near-perfect cancellation is not flagged
    scale = max(max(abs(v) for v in vals), 1e-10 * max(mags))
    if scale > 0 and abs(vals[0] - vals[1]) / scale > rel_tol:
        raise OracleError(
            f"quadrature budgets disagree: {vals[0]} vs {vals[1]}"
        )
    return ScaledComplex.from_complex(vals[1])


def average_char_poly(d: JointDensitySpec, x) -> ScaledComplex:
    """<det(x - M)>: equals the degree-n monic orthogonal polynomial at x."""
    x = complex(x)
    return _average(d, lambda s: x - s, 1e-6)


def average_product_pair(d: JointDensitySpec, x, y) -> ScaledComplex:
    """<det(x - M) det(y - M)>."""
    x, y = complex(x), complex(y)
    return _average(d, lambda s: (x - s) * (y - s), 1e-5)


def average_ratio(d: JointDensitySpec, x, y) -> ScaledComplex:
    """<det(y - M) / det(x - M)>; needs Im x != 0."""
    x, y = complex(x), complex(y)
    if x.imag == 0.0:
        raise OracleError("average_ratio requires Im x != 0")
    return _average(d, lambda s: (y - s) / (x - s), 1e-5)


def average_inverse_pair(d: JointDensitySpec, x1, x2) -> ScaledComplex:
    """<1 / (det(x1 - M) det(x2 - M))>; needs n = 3 and both points off axis."""
    x1, x2 = complex(x1), complex(x2)
    if d.n != 3:
        raise OracleError("average_inverse_pair needs n = 3")
    if x1.imag == 0.0 or x2.imag == 0.0:
        raise OracleError("average_inverse_pair requires Im x1, Im x2 != 0")
    return _average(d, lambda s: 1.0 / ((x1 - s) * (x2 - s)), 1e-4)
