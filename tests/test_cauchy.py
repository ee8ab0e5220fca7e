import cmath
import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from rmtkernels import cauchy, orthopoly
from rmtkernels.cauchy import (
    CauchyConvergenceError,
    CauchyDomainError,
    cauchy_transform,
    cauchy_transform_derivative,
    cauchy_transforms,
    plemelj_jump_check,
)
from rmtkernels.finite_kernels import KernelFamily, w_kernel
from rmtkernels.orthopoly import (
    PotentialSpec,
    WeightSpec,
    build_recurrence,
    eval_monic,
    eval_weight,
)
from rmtkernels.quadrature import _jacgauss
from rmtkernels.scaled import ScaledComplex

from conftest import rel_err

V_X2 = PotentialSpec((0.0, 0.0, 1.0))
V_2X2 = PotentialSpec((0.0, 0.0, 2.0))


def reference_h(alpha, n, j, z, dps, power=1):
    """h_j(z) (h'_j(z) at power 2) for V = 2x^2 by mpmath quadrature at ``dps`` digits.

    Independent of the package: it integrates the signed pi_j w / (x - z)^power
    with the closed-form recurrence b_k = (k + 2a [k odd]) / (4n), a_k = 0,
    split at 0 and at Re z, Re z +- |Im z|.  Off the support that integral
    cancels by many orders of magnitude, so a value is trusted only where
    two precisions agree.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        two_a = 2 * mp.mpf(alpha)
        b = [(k + two_a * (k % 2)) / (4 * n) for k in range(j + 1)]
        zz = mp.mpc(z)

        def f(x):
            p0, p1 = mp.mpf(1), (x if j else mp.mpf(1))
            for k in range(1, j):
                p0, p1 = p1, x * p1 - b[k] * p0
            return p1 * abs(x) ** two_a * mp.exp(-2 * n * x * x) / (x - zz) ** power

        # beyond L the weight is below 10^-dps of its peak, times pi_j's growth
        L = mp.sqrt((dps * math.log(10) + 50 + 2 * j) / (2 * n)) + 1
        cuts = {zz.real - abs(zz.imag), zz.real, zz.real + abs(zz.imag)}
        pts = sorted({-L, L, mp.mpf(0)} | {c for c in cuts if -L < c < L})
        return complex(mp.quad(f, pts) / (2j * mp.pi))


def scaled(h, m=()):
    """Point ``m`` of one degree's (mantissas, log scales) from cauchy_transforms, scaled."""
    return ScaledComplex.from_parts(h[0][m], h[1][m])


def test_domain_and_range_errors(table_gauss_n1):
    with pytest.raises(CauchyDomainError):
        cauchy_transform(table_gauss_n1, 0, 0.5)
    with pytest.raises(IndexError):
        cauchy_transform(table_gauss_n1, 99, 1j)
    for z in (complex(math.nan, 0.3), complex(math.inf, 0.3), complex(0.3, math.inf)):
        with pytest.raises(CauchyDomainError, match="finite"):
            cauchy_transform(table_gauss_n1, 0, z)
    with pytest.raises(CauchyDomainError, match="finite"):
        cauchy_transforms(table_gauss_n1, [0], np.array([0.3 + 1j, complex(math.nan, 1.0)]))


def test_no_degrees_give_an_empty_result(table_gauss_n1):
    # the points are checked all the same: a real or non-finite one still raises
    for z in (0.3 + 1j, np.array([0.3 + 1j, -2.0 - 0.5j])):
        for derivative in (False, True):
            assert cauchy_transforms(table_gauss_n1, [], z, derivative=derivative) == {}
    for z in (0.5, complex(math.nan, 1.0), np.array([0.3 + 1j, 0.2])):
        with pytest.raises(CauchyDomainError):
            cauchy_transforms(table_gauss_n1, [], z)


def test_derivative_near_the_axis_raises_rather_than_returns():
    # h'_j's sum cancels like 1/Im z: above the axis by 1e-9 it passes its
    # bound, at 1e-13 and 1e-15 its estimate (2.8e-5 to 1.3e-2) does not, alone
    # or in a batch, while h_j is still returned there
    t = build_recurrence(WeightSpec(0.3, 16, V_2X2), 24)
    near = np.array([0.2945 + 1e-13j, 0.2945 + 1e-15j])
    for j in (15, 16, 17):
        v = cauchy_transform_derivative(t, j, 0.2945 + 1e-9j)
        assert math.isfinite(abs(v.mantissa)) and v.mantissa != 0 and math.isfinite(v.log_scale)
        for z in near.tolist():
            with pytest.raises(CauchyConvergenceError, match=f"j={j}, z={re.escape(str(z))}"):
                cauchy_transform_derivative(t, j, z)
            assert math.isfinite(abs(cauchy_transform(t, j, z).to_complex()))
        with pytest.raises(CauchyConvergenceError):
            cauchy_transforms(t, [j], near, derivative=True)


def test_subnormal_and_overflowing_points_raise_without_a_warning():
    # below the smallest normal Im z, 1/(x - z) leaves the doubles at the
    # refined nodes: a domain error, above or below the axis, alone or in a
    # batch.  At z = 1e-200 (1 + i) the terms u (u - r) of h'_j overflow, and
    # far along the axis u itself: the sum is not finite and fails its check.
    # None of them warns
    t = build_recurrence(WeightSpec(0.3, 16, V_2X2), 20)
    t0 = build_recurrence(WeightSpec(0.0, 8, V_2X2), 12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for im in (2.2e-309, -2.2e-309, 5e-324, -1e-310):
            for derivative in (False, True):
                with pytest.raises(CauchyDomainError, match="2.2e-308"):
                    cauchy_transforms(t, [10], complex(0.83, im), derivative=derivative)
            with pytest.raises(CauchyDomainError):
                cauchy_transforms(t, [10], np.array([0.83 + 1j, complex(0.83, im)]))
        for j in range(5, 10):
            with pytest.raises(CauchyConvergenceError):
                cauchy_transform_derivative(t0, j, 1e-200 + 1e-200j)
        # on the wide grid of n = 1, f/(x - z) itself overflows at |Re z| >= 8
        wide = build_recurrence(WeightSpec(0.0, 1, V_X2), 3)
        for z in (12 + 2.3e-308j, -20 - 6e-308j):
            for derivative in (False, True):
                with pytest.raises(CauchyConvergenceError):
                    cauchy_transforms(wide, [1], z, derivative=derivative)
        # the smallest normal Im z is in the domain
        for im in (2.3e-308, -2.3e-308, 1e-300):
            v = cauchy_transform(t, 10, complex(0.83, im))
            assert math.isfinite(abs(v.mantissa)) and v.mantissa != 0 and math.isfinite(v.log_scale)


def test_degrees_together_match_single_degree_calls():
    # one local recurrence for both degrees and both check orders returns what
    # one call per degree returns, and a failing degree fails the whole call
    near_origin, bulk_far, off_bulk = 0.01 + 0.005j, 0.3 + 1.5j, 2.5 + 0.1j
    for alpha in (0.0, 0.3):
        t = build_recurrence(WeightSpec(alpha, 8, V_2X2), 16)
        a, b, _, _ = t.grid.panels
        # near the origin the refined panels include one with an end at the kink
        assert any(0.0 in (a[i], b[i]) for i in np.flatnonzero(cauchy._near_panels(t, near_origin)))
        assert not cauchy._near_panels(t, bulk_far).any()
        assert cauchy._near_panels(t, off_bulk).any()
        for z in (near_origin, bulk_far, off_bulk):
            for derivative, single in ((False, cauchy_transform),
                                       (True, cauchy_transform_derivative)):
                for j in (8, 9):
                    pair = cauchy_transforms(t, [j - 1, j], z, derivative)
                    assert sorted(pair) == [j - 1, j]
                    for k in (j - 1, j):
                        want = single(t, k, z)
                        err = rel_err(scaled(pair[k]), want)
                        assert err < 1e-13, (alpha, z, derivative, k, err)

    # at alpha = 1, h_8 (even) vanishes at 0 like z, so near 0 the sum cancels
    # beyond the relative tolerance; h_7 (odd) does not vanish there
    t = build_recurrence(WeightSpec(1.0, 8, V_2X2), 16)
    z0 = 1e-12 + 1e-12j
    assert cauchy_transform(t, 7, z0).log_abs() > math.log(1e-6)
    for _ in range(2):
        with pytest.raises(CauchyConvergenceError, match="j=8"):
            cauchy_transforms(t, [7, 8], z0)
        with pytest.raises(CauchyConvergenceError, match="j=8"):
            cauchy_transforms(t, [8], z0)
        with pytest.raises(CauchyConvergenceError):
            w_kernel(KernelFamily.III, t, 0, z0, 0.5 - 0.3j)


def test_batch_matches_one_point_calls():
    # one batch of points near the origin, far above the bulk and off the bulk,
    # in both half-planes, returns what one call per point returns
    near_origin, bulk_far, off_bulk = 0.01 + 0.005j, 0.3 + 1.5j, 2.5 + 0.1j
    zs = [z for w in (near_origin, bulk_far, off_bulk) for z in (w, w.conjugate())]
    for alpha in (0.0, 0.3):
        t = build_recurrence(WeightSpec(alpha, 8, V_2X2), 16)
        for derivative in (False, True):
            batch = cauchy_transforms(t, [7, 8], np.array(zs), derivative)
            assert sorted(batch) == [7, 8]
            assert all(v.shape == (len(zs),) for h in batch.values() for v in h)
            for m, z in enumerate(zs):
                single = cauchy_transforms(t, [7, 8], z, derivative)
                assert all(v.shape == () for h in single.values() for v in h)
                for j in (7, 8):
                    want = scaled(single[j])
                    err = rel_err(scaled(batch[j], m), want)
                    assert err < 1e-13, (alpha, z, derivative, j, err)


def test_batch_of_points_far_apart():
    # pi_64(1e3 i) is 1e190 above pi_64 near 0: each point keeps its own log
    # scale, so the point near 0 loses no bits to the one far from it
    t = build_recurrence(WeightSpec(0.3, 64, V_2X2), 66)
    zs = [0.01 + 0.01j, 1e3j, 5 + 1j, -0.2 - 0.001j]
    for derivative in (False, True):
        batch = cauchy_transforms(t, [64, 65], np.array(zs), derivative)
        for m, z in enumerate(zs):
            single = cauchy_transforms(t, [64, 65], z, derivative)
            for j in (64, 65):
                want = scaled(single[j])
                err = rel_err(scaled(batch[j], m), want)
                assert err < 1e-13, (z, derivative, j, err)


def miller_h(alpha, n, j, z):
    """h_j(z) for V = 2x^2 as (log|h_j|, arg h_j), independent of the package.

    h_0 comes from scipy's quad; h_k / h_{k-1} = b_k / (z - h_{k+1} / h_k)
    from a backward (Miller) recurrence on the closed-form
    b_k = (k + 2a [k odd]) / (4n), started at rho = 0 at a depth doubled
    until two depths agree to 1e-12 (Gautschi, SIAM Rev. 9, 1967).
    """
    x0, y = z.real, z.imag
    cut = math.sqrt(800.0 / (2.0 * n)) + 1.0  # the weight is below e^-800 beyond

    def part(f):
        return quad(f, -cut, cut, points=sorted({0.0, x0}), limit=400, epsabs=0.0,
                    epsrel=1e-12)[0]

    def w(x):
        return abs(x) ** (2.0 * alpha) * math.exp(-2.0 * n * x * x)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)  # stops at rounding level
        h0 = complex(part(lambda x: w(x) * (x - x0) / ((x - x0) ** 2 + y * y)),
                     part(lambda x: w(x) * y / ((x - x0) ** 2 + y * y))) / (2j * math.pi)

    def log_ratios(depth):
        rho, acc = 0j, 0j
        for k in range(depth, 0, -1):
            rho = (k + 2.0 * alpha * (k % 2)) / (4.0 * n) / (z - rho)
            if k <= j:
                acc += cmath.log(rho)
        return acc

    depth = 4 * n + 200
    last, cur = log_ratios(depth), log_ratios(2 * depth)
    while abs(cmath.exp(cur - last) - 1.0) > 1e-12:
        depth *= 2
        assert depth < 1 << 22, "Miller depths do not agree"
        last, cur = cur, log_ratios(2 * depth)
    log_h = cmath.log(h0) + cur
    return log_h.real, log_h.imag


def test_transforms_at_n320_match_miller_reference():
    # from n = 320 pi_j on the grid spans more than one log scale can hold;
    # with one scale per point the transforms return, here near the origin
    # and in the bulk
    n = 320
    t = build_recurrence(WeightSpec(0.3, n, V_2X2), n + 2)
    for z in (0.5 + 0.5j, 0.01 + 0.001j):
        h = cauchy_transform(t, n, z)
        log_abs, arg = miller_h(0.3, n, n, z)
        assert abs(cmath.exp(complex(h.log_abs() - log_abs, h.phase() - arg)) - 1.0) < 1e-10, z


_SWEEP_POTENTIALS = ((0.0, 0.0, 2.0), (0.0, 0.5, 0.0, 0.0, 1.0),
                     (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 1.0))


@pytest.mark.parametrize("n", [1, 2, 8, 64, 200])
def test_kept_grid_columns_match_a_fresh_recurrence(n):
    # a table built to degree n keeps pi_{n-2..n} at the grid nodes from its
    # Stieltjes pass; its grid columns and transforms agree with those of the
    # same table without them, which reruns the recurrence over the grid.
    # The two differ only in the rounding of their log scales
    zs = np.array([0.3 + 0.2j, -0.5 + 1e-3j, 1.5 + 0.5j, 0.01 - 0.3j, 4.0 + 2.0j])
    for coeffs in _SWEEP_POTENTIALS:
        for alpha in (-0.45, 0.0, 0.3, 1.7):
            t = build_recurrence(WeightSpec(alpha, n, PotentialSpec(coeffs)), n)
            fresh = dataclasses.replace(t)  # the same arrays, nothing kept
            h, h_fresh = (cauchy_transforms(table, [n - 1, n], zs) for table in (t, fresh))
            cols, cols_fresh = (cauchy._grid_columns(table, [n - 1, n]) for table in (t, fresh))
            for j in (n - 1, n):
                (col, scale), (col_f, scale_f) = cols[j], cols_fresh[j]
                gap = np.abs(col - col_f * np.exp(scale_f - scale)).max()
                assert gap <= 1e-13 * np.abs(col).max(), (coeffs, alpha, j)
                (v, log), (v_f, log_f) = h[j], h_fresh[j]
                assert np.all(np.abs(v - v_f * np.exp(log_f - log)) <= 1e-12 * np.abs(v))


def test_grid_request_below_the_kept_degrees_runs_one_recurrence(monkeypatch):
    # h_{n+1} on a table built to n + 8 reads pi_n and pi_{n+1}, below the
    # kept n+6..n+8: one whole-grid recurrence serves both, with the bits of
    # that recurrence run directly
    n = 8
    t = build_recurrence(WeightSpec(0.3, n, V_2X2), n + 8)
    want = orthopoly.monic_values_scaled(t, [n, n + 1], t.grid.x)
    runs = []
    recurrence = orthopoly.monic_values_scaled

    def counting(table, degrees, x, **kwargs):
        runs.append((sorted(degrees), x is table.grid.x))
        return recurrence(table, degrees, x, **kwargs)

    monkeypatch.setattr(orthopoly, "monic_values_scaled", counting)
    got = t.grid_values([n, n + 1])
    cauchy_transforms(t, [n + 1], 0.3 + 0.2j)
    assert runs == [([n, n + 1], True)] * 2
    for j in (n, n + 1):
        for arr, ref in zip(got[j], want[j]):
            assert np.array_equal(arr, ref)
    assert t.grid_values([n + 6, n + 8]).keys() == {n + 6, n + 8} and len(runs) == 2


def test_failing_point_in_a_batch_is_named():
    # at alpha = 1, h_8 vanishes at 0 like z; the batch fails at that point
    # alone, with its own z and j
    t = build_recurrence(WeightSpec(1.0, 8, V_2X2), 16)
    z0 = 1e-12 + 1e-12j
    for zs in ([0.3 + 0.2j, z0, -0.5 - 0.1j], [0.3 + 0.2j, z0.conjugate(), 2.0 + 0.5j]):
        with pytest.raises(CauchyConvergenceError, match=re.escape(f"j=8, z={zs[1]}")):
            cauchy_transforms(t, [7, 8], np.array(zs))
    good = cauchy_transforms(t, [7, 8], np.array([0.3 + 0.2j, -0.5 - 0.1j]))
    assert scaled(good[8], 1) == cauchy_transform(t, 8, -0.5 - 0.1j)


@pytest.mark.parametrize("alpha", [0.0, 0.3])
@pytest.mark.parametrize("derivative", [False, True])
def test_points_with_near_panels_are_summed_apart_in_a_batch(alpha, derivative):
    # every point has near panels: two above the axis share theirs, one sits
    # at the origin panel, and the rest lie below, two sharing panels with
    # each other and one with the points above.  The refined nodes of the
    # whole batch are summed in one pass, each point's in bins of its own, so
    # every point gets exactly the mantissa and log scale of its one-point call
    t = build_recurrence(WeightSpec(alpha, 16, V_2X2), 17)
    zs = np.array([0.3 + 0.01j, 0.305 + 0.02j, 2e-3 + 1e-3j,
                   0.302 - 0.015j, -0.5 - 0.01j, -0.49 - 0.03j])
    near = cauchy._near_panels(t, zs)
    a, b, _, _ = t.grid.panels
    assert near.any(axis=1).all()
    assert (near[0] & near[1] & near[3]).any() and (near[4] & near[5]).any()
    assert near[2, (a == 0.0) | (b == 0.0)].any()
    degrees = (15, 16, 17)
    batch = cauchy_transforms(t, degrees, zs, derivative=derivative)
    for m, z in enumerate(zs.tolist()):
        one = cauchy_transforms(t, degrees, z, derivative=derivative)
        for j in degrees:
            assert (batch[j][0][m], batch[j][1][m]) == (one[j][0], one[j][1]), (j, z)


def test_h0_gaussian_far_field(table_gauss_n1):
    # h_0(10i) ~ -sqrt(pi)/(2 pi i * 10 i) with O(1/z^3) correction
    z = 10j
    got = cauchy_transform(table_gauss_n1, 0, z).to_complex()
    lead = -math.sqrt(math.pi) / (2j * math.pi * z)
    assert abs(got - lead) < 6e-3 * abs(lead)
    # adaptive-quadrature oracle
    re = quad(lambda x: (math.exp(-x * x) / (x - z)).real, -8, 8, limit=200)[0]
    im = quad(lambda x: (math.exp(-x * x) / (x - z)).imag, -8, 8, limit=200)[0]
    oracle = complex(re, im) / (2j * math.pi)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_adaptive_oracle_near_axis(table_a03_n8):
    t = table_a03_n8
    w = t.weight
    from rmtkernels.orthopoly import monic_values_scaled

    for z in (0.3 + 1e-3j, -0.7 + 0.01j, 0.1 - 0.05j):
        got = cauchy_transform(t, 3, z).to_complex()

        def f(x, part):
            vals, s = monic_values_scaled(t, [3], np.atleast_1d(x))[3]
            v = vals[0] * math.exp(s[0]) * abs(x) ** 0.6 * math.exp(-8 * w.potential(x)) \
                / (x - z)
            return v.real if part == 0 else v.imag

        re = quad(f, -3, 3, args=(0,), limit=500, points=[0.0, z.real])[0]
        im = quad(f, -3, 3, args=(1,), limit=500, points=[0.0, z.real])[0]
        oracle = complex(re, im) / (2j * math.pi)
        assert got == pytest.approx(oracle, rel=1e-7, abs=1e-14)


def test_schwarz_reflection(table_n8):
    # with the 1/(2 pi i) prefactor the reflection carries a sign:
    # h_j(conj z) = -conj(h_j(z))
    for j in (0, 3, 8):
        for z in (0.4 + 0.3j, -1.1 + 0.02j):
            a = cauchy_transform(table_n8, j, z.conjugate()).to_complex()
            b = -cauchy_transform(table_n8, j, z).to_complex().conjugate()
            assert a == pytest.approx(b, rel=1e-12)


def test_far_field_moment_decay(table_n8):
    # |h_3(z) * z^4 * 2 pi i * gamma_3^2| -> 1 along the imaginary axis
    t = table_n8
    from rmtkernels.scaled import ScaledComplex

    z = 1e4j
    prod = cauchy_transform(t, 3, z) \
        * ScaledComplex.from_parts(2j * math.pi, t.log_gamma_sq(3)) \
        * ScaledComplex.from_parts(1.0, 4 * math.log(abs(z)))
    assert abs(abs(prod.to_complex()) - 1.0) < 1e-3


def test_derivative_vs_finite_difference(table_n8):
    h = 1e-5
    for j in (0, 4):
        z = 0.1 + 0.05j
        fd = (cauchy_transform(table_n8, j, z + h).to_complex()
              - cauchy_transform(table_n8, j, z - h).to_complex()) / (2 * h)
        got = cauchy_transform_derivative(table_n8, j, z).to_complex()
        assert got == pytest.approx(fd, rel=1e-6)


def test_derivative_far_field_sign(table_gauss_n1):
    # d/dz h_0 ~ +m_0/(2 pi i z^2), m_0 = sqrt(pi)
    z = 1e4j
    got = cauchy_transform_derivative(table_gauss_n1, 0, z).to_complex()
    lead = math.sqrt(math.pi) / (2j * math.pi * z * z)
    assert got == pytest.approx(lead, rel=1e-3)


@pytest.mark.parametrize("z", [1e160j, 1e200j, 0.3 + 1e300j])
def test_far_field_asymptotes_far_out(table_a03_n8, z):
    # h_j ~ -||pi_j||^2 z^(-j-1) / (2 pi i) and h'_j ~ (j+1) ||pi_j||^2
    # z^(-j-2) / (2 pi i), with relative corrections O(|z|^-2): the terms
    # 1/(x - z)^2 of h'_j alone would be subnormal or 0 out here
    t, j = table_a03_n8, 8
    for value, p, c in ((cauchy_transform(t, j, z), j + 1, -1.0),
                        (cauchy_transform_derivative(t, j, z), j + 2, j + 1.0)):
        want = ScaledComplex.from_parts(c / (2j * math.pi) * cmath.exp(-1j * p * cmath.phase(z)),
                                        t.log_norm_sq[j] - p * math.log(abs(z)))
        assert abs(value.log_abs() - want.log_abs()) < 1e-10, p
        assert abs(cmath.phase(value.mantissa / want.mantissa)) < 1e-10, p


def test_plemelj_jump_support_grid(table_n8):
    xs = np.linspace(-1.1, 1.1, 21)
    xs = xs[np.abs(xs) > 1e-9]
    eps = [8e-4, 4e-4, 2e-4, 1e-4]
    for x in xs[:20]:
        rep = plemelj_jump_check(table_n8, 3, float(x), eps)
        assert rep.extrapolated_residual < 1e-6


def test_plemelj_jump_sums_the_upper_points_once(table_n8, monkeypatch):
    # h_j(x - i eps) = -conj h_j(x + i eps): one batch of upper points gives
    # the residuals of the two-sided difference
    calls = []
    compute = cauchy.cauchy_transforms

    def counting(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(cauchy, "cauchy_transforms", counting)
    x, eps = 0.37, [8e-4, 4e-4, 2e-4, 1e-4]
    rep = plemelj_jump_check(table_n8, 3, x, eps)
    monkeypatch.undo()
    assert len(calls) == 1 and np.all(np.asarray(calls[0][2]).imag > 0)
    target = (eval_monic(table_n8, 3, x) * eval_weight(table_n8.weight, x)).to_complex()
    for e, res in zip(rep.eps, rep.residuals):
        jump = (cauchy_transform(table_n8, 3, complex(x, e)).to_complex()
                - cauchy_transform(table_n8, 3, complex(x, -e)).to_complex())
        assert abs(abs(jump - target) / abs(target) - res) < 1e-15


def test_plemelj_far_tail_zero_jump(table_n8):
    rep = plemelj_jump_check(table_n8, 2, 30.0, [1e-3, 5e-4])
    # weight underflows: jump and target are both numerically zero
    assert rep.extrapolated_residual < 1e-6 or all(r < 1e-6 for r in rep.residuals)


def test_plemelj_kink_rejected(table_n8):
    with pytest.raises(CauchyDomainError):
        plemelj_jump_check(table_n8, 1, 0.0, [1e-3])


def test_plemelj_parity(table_a03_n8):
    eps = [4e-4, 2e-4, 1e-4]
    ra = plemelj_jump_check(table_a03_n8, 4, 0.6, eps)
    rb = plemelj_jump_check(table_a03_n8, 4, -0.6, eps)
    assert ra.extrapolated_residual == pytest.approx(
        rb.extrapolated_residual, abs=1e-8
    )


# h_j (power 1) or h'_j (power 2) for V = 2x^2 and a table to degree n + 1, as
# (alpha, n, j, z, power); tests/data/cauchy_reference.json holds each one's
# reference_h at 65 digits.  Rewrite it with
#     PYTHONPATH=src python tests/test_cauchy.py
HIGH_PRECISION = {
    # off the support: the signed sum cancelled there, beyond double precision
    "n8-j7-off-support": (0.0, 8, 7, -2 + 1j, 1),
    "n8-j8-off-support": (0.0, 8, 8, -2 + 1j, 1),
    "n32-far-imaginary": (0.0, 32, 32, 3j, 1),
    "n32-off-support": (0.0, 32, 32, -2 + 1j, 1),
    "n32-right-of-support": (0.0, 32, 32, 2 + 0.001j, 1),
    # soft edge, and a point whose near panels are not adjacent (a wide tail
    # panel is near while the dense panels between it and z are not)
    "n32-soft-edge": (0.0, 32, 32, 0.9 + 0.05j, 1),
    "n32-soft-edge-derivative": (0.0, 32, 32, 0.9 + 0.05j, 2),
    "n8-nonadjacent-near-panels": (0.0, 8, 9, -1.18 + 0.001j, 1),
    # near the |x|^(2a) kink, and a study point zeta / (n psi(0)), psi(0) = 2/pi,
    # nearer to the kink than to its own foot on the axis
    "a03-near-kink": (0.3, 32, 31, 0.001 + 0.0005j, 1),
    "a03-study-point": (0.3, 64, 64, (-0.4 + 0.6j) * math.pi / 128, 1),
    # below the axis, where the transform is the reflection of the one above
    "a03-near-kink-lower": (0.3, 32, 31, 0.001 - 0.0005j, 1),
    "n32-soft-edge-derivative-lower": (0.0, 32, 32, 0.9 - 0.05j, 2),
}
HIGH_PRECISION_FILE = Path(__file__).parent / "data" / "cauchy_reference.json"
STORED = {k: complex(*v) for k, v in json.loads(HIGH_PRECISION_FILE.read_text()).items()}


def high_precision_values() -> dict:
    """{case: [re, im]} of reference_h at 65 digits, each checked against 50 digits."""
    out = {}
    for case, (alpha, n, j, z, power) in HIGH_PRECISION.items():
        # 40 digits are not enough off the support (1e-8 at n = 32, z = -2+i)
        want = reference_h(alpha, n, j, z, 65, power)
        assert abs(reference_h(alpha, n, j, z, 50, power) - want) < 1e-14 * abs(want), case
        out[case] = [want.real, want.imag]
    return out


@pytest.mark.parametrize("case", list(HIGH_PRECISION))
def test_matches_high_precision_reference(case):
    alpha, n, j, z, power = HIGH_PRECISION[case]
    want = STORED[case]
    t = build_recurrence(WeightSpec(alpha, n, V_2X2), n + 1)
    got = scaled(cauchy_transforms(t, [j], z, derivative=power == 2)[j]).to_complex()
    assert abs(got - want) < 1e-12 * abs(want)


def test_stored_reference_is_computed_live():
    # the cheapest case, at both precisions, against its stored value
    alpha, n, j, z, power = HIGH_PRECISION["n8-j8-off-support"]
    want = reference_h(alpha, n, j, z, 65, power)
    assert abs(reference_h(alpha, n, j, z, 50, power) - want) < 1e-14 * abs(want)
    assert abs(STORED["n8-j8-off-support"] - want) < 1e-14 * abs(want)


def test_morera_loop(table_n8):
    # contour integral of h_2 around a square of side 0.2 at 0.3+0.4i
    c = 0.3 + 0.4j
    s = 0.1
    corners = [c + s * w for w in (1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j)]
    total = 0j
    for a, b in zip(corners, corners[1:] + corners[:1]):
        tn, wn = _jacgauss(32, 0.0)
        for x, wq in zip(0.5 * (tn + 1.0), 0.5 * wn):
            zz = a + (b - a) * x
            total += wq * (b - a) * cauchy_transform(table_n8, 2, zz).to_complex()
    assert abs(total) < 1e-9


if __name__ == "__main__":
    HIGH_PRECISION_FILE.write_text(json.dumps(high_precision_values(), indent=1) + "\n")
