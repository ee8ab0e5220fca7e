import math

import numpy as np
import pytest

from rmtkernels.finite_kernels import KernelFamily, w_kernel
from rmtkernels.oracle import (
    _BUDGETS,
    OracleError,
    _andreief_sum,
    _grid_1d,
    average_char_poly,
    average_inverse_pair,
    average_product_pair,
    average_ratio,
    make_joint_density,
)
from rmtkernels.orthopoly import (
    PotentialSpec,
    WeightSpec,
    build_recurrence,
    eval_monic,
)
from rmtkernels.scaled import ScaledComplex

from conftest import rel_err

V_X2 = PotentialSpec((0.0, 0.0, 1.0))
V_2X2 = PotentialSpec((0.0, 0.0, 2.0))


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b))


def _char(z, xs):
    out = 1.0 + 0j
    for xj in xs:
        out = out * (z - xj)
    return out


def _tensor_sum(x, wv, n, f):
    """Reference: direct sum over the tensor grid of f * Vandermonde^2 * prod(weights)."""
    if n == 2:
        x1, x2 = x[:, None], x[None, :]
        base = wv[:, None] * wv[None, :] * (x1 - x2) ** 2
        return complex(np.sum(base * f((x1, x2))))
    x2, x3 = x[:, None], x[None, :]
    base = wv[:, None] * wv[None, :] * (x2 - x3) ** 2
    total = 0j
    for i in range(x.size):
        x1 = x[i]
        gap = (x1 - x2) ** 2 * (x1 - x3) ** 2
        total += wv[i] * complex(np.sum(base * gap * f((x1, x2, x3))))
    return total


# (per-eigenvalue factor g, full integrand f = prod_j g(x_j)) for Z and the
# four averages, at off-axis points so every integrand is finite
_X, _Y = 0.5 + 0.4j, -0.3 - 0.6j
_INTEGRANDS = {
    "partition": (lambda s: np.ones_like(s), lambda xs: 1.0),
    "char_poly": (lambda s: _X - s, lambda xs: _char(_X, xs)),
    "product_pair": (lambda s: (_X - s) * (_Y - s),
                     lambda xs: _char(_X, xs) * _char(_Y, xs)),
    "ratio": (lambda s: (_Y - s) / (_X - s),
              lambda xs: _char(_Y, xs) / _char(_X, xs)),
    "inverse_pair": (lambda s: 1.0 / ((_X - s) * (_Y - s)),
                     lambda xs: 1.0 / (_char(_X, xs) * _char(_Y, xs))),
}


@pytest.mark.parametrize("name", sorted(_INTEGRANDS))
@pytest.mark.parametrize("budget", _BUDGETS)
@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_andreief_sum_matches_tensor_sum_n2(alpha, budget, name):
    # raw sums, not ratios, so a wrong factorial or moment range shows
    x, wv, _ = _grid_1d(WeightSpec(alpha, 2, V_X2), budget)
    g, f = _INTEGRANDS[name]
    assert _rel(_andreief_sum(x, wv, 2, g(x)), _tensor_sum(x, wv, 2, f)) < 1e-10


def test_andreief_sum_matches_tensor_sum_n3():
    x, wv, _ = _grid_1d(WeightSpec(0.3, 3, V_2X2), _BUDGETS[0])
    for name, (g, f) in _INTEGRANDS.items():
        assert _rel(_andreief_sum(x, wv, 3, g(x)), _tensor_sum(x, wv, 3, f)) < 1e-10, name


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("pot", [V_X2, V_2X2])
@pytest.mark.parametrize("n", [2, 3])
def test_mean_characteristic_polynomial(alpha, pot, n):
    # <det(x - M)> equals the degree-n monic orthogonal polynomial
    w = WeightSpec(alpha, n, pot)
    d = make_joint_density(w)
    t = build_recurrence(w, n + 2)
    for x in (0.7, -0.35, 1.1 + 0.4j):
        got = average_char_poly(d, x).to_complex()
        want = eval_monic(t, n, x).to_complex()
        assert _rel(got, want) < 1e-6


def test_product_pair_matches_polynomial_kernel():
    # <det(x-M) det(y-M)> is the degree-shifted polynomial kernel
    for alpha, pot in ((0.0, V_X2), (0.3, V_2X2)):
        w = WeightSpec(alpha, 2, pot)
        d = make_joint_density(w)
        t = build_recurrence(w, 6)
        for x, y in ((0.6, -0.3), (0.9 + 0.2j, -0.5 - 0.1j)):
            got = average_product_pair(d, x, y).to_complex()
            want = w_kernel(KernelFamily.I, t, 1, x, y).to_complex()
            assert _rel(got, want) < 1e-5


def test_ratio_matches_mixed_kernel():
    # <det(y-M)/det(x-M)> = 2 pi i gamma_{n-1}^2 (x - y) W_II(x, y)
    for alpha, pot in ((0.0, V_X2), (0.3, V_2X2)):
        w = WeightSpec(alpha, 3, pot)
        d = make_joint_density(w)
        t = build_recurrence(w, 7)
        for x, y in ((0.4 + 0.5j, -0.2), (-0.6 + 0.3j, 0.8 + 0.1j)):
            got = average_ratio(d, x, y).to_complex()
            pref = ScaledComplex.from_parts(2j * math.pi, t.log_gamma_sq(2))
            want = (pref * ScaledComplex.from_complex(x - y)
                    * w_kernel(KernelFamily.II, t, 0, x, y)).to_complex()
            assert _rel(got, want) < 1e-5


def test_ratio_at_coincident_points_is_one():
    d = make_joint_density(WeightSpec(0.3, 2, V_2X2))
    z = 0.4 + 0.6j
    assert average_ratio(d, z, z).to_complex() == pytest.approx(1.0, rel=1e-10)


def test_inverse_pair_matches_symmetrized_kernel():
    # <1/(det det)> at n = 3 against the two-Cauchy-transform kernel at
    # shifted degree, symmetrized over the argument order:
    # -c1 c2 (W(x1, x2) + W(x2, x1)) / 2 with c_k = -2 pi i gamma_k^2.  W_III
    # is symmetric, so that is 4 pi^2 gamma_1^2 gamma_2^2 W(x1, x2)
    for alpha, pot in ((0.0, V_X2), (0.3, V_2X2)):
        w = WeightSpec(alpha, 3, pot)
        d = make_joint_density(w)
        t = build_recurrence(w, 7)
        x1, x2 = 0.5 + 0.4j, -0.3 - 0.6j
        w12 = w_kernel(KernelFamily.III, t, -1, x1, x2)
        assert rel_err(w_kernel(KernelFamily.III, t, -1, x2, x1), w12) < 1e-13
        got = average_inverse_pair(d, x1, x2).to_complex()
        c = ScaledComplex.from_parts(4 * math.pi ** 2, t.log_gamma_sq(1) + t.log_gamma_sq(2))
        want = (c * w12).to_complex()
        assert _rel(got, want) < 1e-4


def test_char_poly_conjugation_symmetry():
    d = make_joint_density(WeightSpec(0.3, 2, V_2X2))
    z = 0.7 + 0.5j
    a = average_char_poly(d, z.conjugate()).to_complex()
    b = average_char_poly(d, z).to_complex().conjugate()
    assert a == pytest.approx(b, rel=1e-12)


def test_product_pair_symmetric_in_arguments():
    d = make_joint_density(WeightSpec(0.0, 2, V_X2))
    a = average_product_pair(d, 0.3, -0.8).to_complex()
    b = average_product_pair(d, -0.8, 0.3).to_complex()
    assert a == pytest.approx(b, rel=1e-12)


def test_domain_errors():
    with pytest.raises(OracleError):
        make_joint_density(WeightSpec(0.0, 4, V_X2))
    d2 = make_joint_density(WeightSpec(0.0, 2, V_X2))
    with pytest.raises(OracleError):
        average_ratio(d2, 0.5, 0.1)  # x on the real axis
    with pytest.raises(OracleError):
        average_inverse_pair(d2, 0.5 + 0.1j, 0.2 + 0.1j)  # needs n = 3
    d3 = make_joint_density(WeightSpec(0.0, 3, V_X2))
    with pytest.raises(OracleError):
        average_inverse_pair(d3, 0.5, 0.2 + 0.1j)  # x1 on the real axis
