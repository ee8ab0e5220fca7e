import math

import numpy as np
import pytest

from rmtkernels.cauchy import (
    CauchyConvergenceError,
    CauchyDomainError,
    cauchy_transform,
    cauchy_transforms,
    plemelj_jump_check,
)
from rmtkernels.finite_kernels import (
    KernelFamily,
    TWO_PI_I,
    kernel_grid,
    w_kernel,
    w_kernel_times_gap,
    y_matrix,
)
from rmtkernels.orthopoly import (
    PotentialSpec,
    WeightSpec,
    build_recurrence,
    eval_monic,
    monic_values_scaled,
)
from rmtkernels.scaled import ScaledComplex


def test_family_I_is_polynomial_pair(table_n6):
    t = table_n6
    zeta, eta = 0.7, -0.4
    n = t.weight.n
    got = w_kernel(KernelFamily.I, t, 0, zeta, eta).to_complex()
    num = (eval_monic(t, n, zeta) * eval_monic(t, n - 1, eta)
           - eval_monic(t, n - 1, zeta) * eval_monic(t, n, eta)).to_complex()
    assert got == pytest.approx(num / (zeta - eta), rel=1e-12)


def test_domain_errors(table_n6):
    with pytest.raises(CauchyDomainError):
        w_kernel(KernelFamily.II, table_n6, 0, 0.5, 0.1)
    with pytest.raises(CauchyDomainError):
        w_kernel(KernelFamily.III, table_n6, 0, 0.5 + 0.1j, 0.1)
    with pytest.raises(IndexError):
        w_kernel(KernelFamily.I, table_n6, 99, 0.5, 0.1)


def test_family_II_pole_on_diagonal(table_n6):
    # W_II has a simple pole at zeta = eta; only (zeta - eta) W_II is finite there
    t = table_n6
    zeta = 0.3 + 0.2j
    with pytest.raises(CauchyDomainError, match="w_kernel_times_gap"):
        w_kernel(KernelFamily.II, t, 0, zeta, zeta)
    assert w_kernel_times_gap(KernelFamily.II, t, 0, zeta, zeta).log_abs() > -math.inf


def test_confluence_continuity(table_n6):
    # quotient and derivative forms agree across the switching annulus
    # quotient form at separation g vs derivative form at the midpoint: the
    # discrepancy is the O(g^2) curvature term, ~5e-6 at g = 1e-3 here
    t = table_n6
    zeta = 0.37 + 0.21j
    for gap, tol in ((1e-4 + 1e-12, 1e-6), (3e-4, 1e-5), (1e-3, 1e-4), (1e-2, 1e-3)):
        mid = zeta + gap / 2
        diag = w_kernel(KernelFamily.I, t, 0, mid, mid).to_complex()
        quo = w_kernel(KernelFamily.I, t, 0, zeta, zeta + gap).to_complex()
        assert quo == pytest.approx(diag, rel=tol)
    # continuity just outside the switching threshold
    a = w_kernel(KernelFamily.I, t, 0, zeta, zeta + 2e-4).to_complex()
    b = w_kernel(KernelFamily.I, t, 0, zeta, zeta + 2.001e-4).to_complex()
    assert a == pytest.approx(b, rel=1e-5)


def test_confluence_continuity_family_III(table_n6):
    t = table_n6
    zeta = 0.25 + 0.4j
    ref = w_kernel(KernelFamily.III, t, 0, zeta, zeta).to_complex()
    near = w_kernel(KernelFamily.III, t, 0, zeta, zeta + 5e-5).to_complex()
    outside = w_kernel(KernelFamily.III, t, 0, zeta, zeta + 5e-3).to_complex()
    assert near == pytest.approx(ref, rel=1e-6)
    assert outside == pytest.approx(ref, rel=5e-2)


def test_gap_form_matches_kernel(table_n6):
    t = table_n6
    zeta, eta = 0.3 + 0.2j, -0.4 + 0.1j
    a = w_kernel_times_gap(KernelFamily.II, t, 0, zeta, eta).to_complex()
    b = ((zeta - eta) * w_kernel(KernelFamily.II, t, 0, zeta, eta).to_complex())
    assert a == pytest.approx(b, rel=1e-12)


def test_y_matrix_unimodular(table_n6):
    # det Y = 1 exactly at finite n; quadrature noise only
    for m in (-1, 0, 1):
        y = y_matrix(table_n6, m, 0.2 + 0.3j)
        assert y.det().to_complex() == pytest.approx(1.0, abs=1e-6)


def test_y_matrix_unimodular_larger_n():
    t = build_recurrence(WeightSpec(0.3, 16, PotentialSpec((0.0, 0.0, 2.0))), 24)
    y = y_matrix(t, 0, 0.2 + 0.3j)
    assert y.det().to_complex() == pytest.approx(1.0, abs=1e-6)


def test_y11_odd_polynomial_zero(table_n6):
    # even V: pi_j is odd for odd j, so y11(0) = 0 when n + m is odd
    y = y_matrix(table_n6, 1, 1e-300 + 1j * 1e-12)  # j = 7, odd
    # evaluate the polynomial entry directly at 0 instead
    v = eval_monic(table_n6, 7, 0.0).to_complex()
    assert abs(v) < 1e-12
    assert abs(y.y11.to_complex()) < 1e-10


def test_y12_jump_reproduces_plemelj(table_n6):
    t = table_n6
    x, eps = 0.5, 1e-4
    hi = y_matrix(t, 0, complex(x, eps)).y12
    lo = y_matrix(t, 0, complex(x, -eps)).y12
    jump = (hi - lo).to_complex()
    from rmtkernels.orthopoly import eval_weight

    target = (eval_monic(t, 6, x) * eval_weight(t.weight, x)).to_complex()
    assert jump == pytest.approx(target, rel=1e-2)
    rep = plemelj_jump_check(t, 6, x, [4e-4, 2e-4, 1e-4])
    assert rep.extrapolated_residual < 1e-6


def test_columns_relation_kernel_vs_determinant(table_n6):
    # W_II as a 2x2 determinant of Y entries divided by -2 pi i gamma^2 (z-e)
    t = table_n6
    n = t.weight.n
    for m in (0, 1):
        zeta, eta = 0.3 + 0.25j, -0.2 + 0.1j
        yz = y_matrix(t, m, zeta)
        ye = y_matrix(t, m, eta)
        lo = n + m - 1
        det = yz.y12 * ye.y21 - ye.y11 * yz.y22
        pref = ScaledComplex.from_parts(-TWO_PI_I, t.log_gamma_sq(lo)) \
            * ScaledComplex.from_complex(zeta - eta)
        got = (det / pref).to_complex()
        want = w_kernel(KernelFamily.II, t, m, zeta, eta).to_complex()
        assert got == pytest.approx(want, rel=1e-10)


def test_kernel_schwarz_symmetry(table_n6):
    # h(conj z) = -conj h(z) makes W_II(conj zeta, eta) = -conj W_II for real eta
    t = table_n6
    zeta, eta = 0.4 + 0.3j, 0.2
    a = w_kernel(KernelFamily.II, t, 0, zeta.conjugate(), eta).to_complex()
    b = -w_kernel(KernelFamily.II, t, 0, zeta, eta).to_complex().conjugate()
    assert a == pytest.approx(b, rel=1e-12)
    # both slots conjugated: family III picks up two sign flips
    eta3 = -0.2 + 0.5j
    a = w_kernel(KernelFamily.III, t, 0, zeta.conjugate(), eta3.conjugate()).to_complex()
    b = w_kernel(KernelFamily.III, t, 0, zeta, eta3).to_complex().conjugate()
    assert a == pytest.approx(b, rel=1e-12)


def test_convergence_failure_is_not_cached():
    # at alpha = 1, h_8 vanishes at 0, so h_8(1e-12 + 1e-12 i) fails its
    # relative error bound; a kernel that needs it must fail again on a
    # repeated call, not return a cached value
    t = build_recurrence(WeightSpec(1.0, 8, PotentialSpec((0.0, 0.0, 2.0))), 16)
    z0 = 1e-12 + 1e-12j
    for _ in range(2):
        with pytest.raises(CauchyConvergenceError):
            cauchy_transform(t, 8, z0)
        with pytest.raises(CauchyConvergenceError):
            w_kernel(KernelFamily.III, t, 0, z0, 0.5 - 0.3j)
        # a failed batch caches none of its points, the good ones included
        with pytest.raises(CauchyConvergenceError, match="j=8"):
            kernel_grid(KernelFamily.III, t, 0, [0.3 + 0.2j, z0, -0.4 + 0.1j], [0.5 - 0.3j])
        assert [k for k in t._memo if k[0] != "grid"] == []


def test_kernel_grid_is_exact_arithmetic_on_its_columns():
    # F_hi(zeta) G_lo(eta) - F_lo(zeta) G_hi(eta) cancels by up to 100-fold
    # on the study's T2a grid at n = 64; with each column pair under one log
    # scale, only O(1) scale differences enter exp(), and the grid matches
    # 40-digit arithmetic on the batched columns it is built from, the
    # Cauchy transforms of all zetas and the polynomials at each eta, to a
    # few ulps (summing the two log scales of each product instead costs
    # 2.8e-13 here)
    mp = pytest.importorskip("mpmath")
    n = 64
    t = build_recurrence(WeightSpec(0.0, n, PotentialSpec((0.0, 0.0, 2.0))), n + 8)
    s = n * 2 / math.pi
    zetas = [z / s for z in (0.5 + 0.15j, -0.4 + 0.6j, 1.3 + 0.3j, -1.1 + 0.9j)]
    etas = [e / s for e in (0.4, -0.3, 1.1 + 0.5j, -0.8 - 0.6j)]
    mant, log = kernel_grid(KernelFamily.II, t, 0, zetas, etas, gap=True)
    h = cauchy_transforms(t, [n - 1, n], np.array(zetas))

    def exact(v, s):
        return mp.mpc(complex(v)) * mp.exp(float(s))

    with mp.workdps(40):
        for i in range(len(zetas)):
            f_lo, f_hi = (exact(h[j][0][i], h[j][1][i]) for j in (n - 1, n))
            for k, eta in enumerate(etas):
                p = monic_values_scaled(t, [n - 1, n], complex(eta))
                g_lo, g_hi = (exact(*p[j]) for j in (n - 1, n))
                want = f_hi * g_lo - f_lo * g_hi
                got = mp.mpc(complex(mant[i, k])) * mp.exp(log[i, k])
                assert abs(got - want) < 5e-14 * abs(want), (i, k)
