import math

import pytest

from rmtkernels import specfun as sf
from rmtkernels.bessel_limits import LimitKernelId, limit_kernel


def test_selftest_suite_under_tolerance():
    assert max(r[3] for r in sf.selftest_rows()) < 1e-10


def test_scipy_vs_independent_series():
    pts = [0.3 + 0.0j, 1.7 - 0.4j, 2.5 + 1.1j, -1.2 + 0.8j, 5.0 + 0.0j]
    for nu in (0.0, 0.5, 0.8, 1.7, -0.5):
        for z in pts:
            a = sf.bessel_j(nu, z)
            b = sf.bessel_j_series(nu, z)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


def test_bessel_y_reflection_oracle():
    for nu in (0.3, 0.8, -0.2, 1.7):
        for z in (0.7 + 0.0j, 1.5 + 0.5j, 3.0 - 0.25j):
            assert sf.bessel_y(nu, z) == pytest.approx(
                sf.bessel_y_reflection(nu, z), rel=1e-10, abs=1e-12
            )


def test_reflection_guard_near_integer():
    with pytest.raises(sf.SpecfunDomainError):
        sf.bessel_y_reflection(1.0 + 1e-9, 1.0)


def test_hankel_definitions():
    for nu in (0.5, 0.8, 1.7):
        for z in (0.9 + 0.0j, 2.0 + 1.0j):
            j, y = sf.bessel_j(nu, z), sf.bessel_y(nu, z)
            assert sf.hankel1(nu, z) == pytest.approx(j + 1j * y, rel=1e-12)
            assert sf.hankel2(nu, z) == pytest.approx(j - 1j * y, rel=1e-12)


def test_modified_bessel_wronskian():
    # I_nu(z) K'_nu(z) - I'_nu(z) K_nu(z) = -1/z via recurrence forms
    for nu in (0.3, 0.8):
        for z in (0.7 + 0.2j, 2.5 - 0.5j):
            iv = sf.bessel_i(nu, z)
            kv = sf.bessel_k(nu, z)
            ivp = sf.bessel_i(nu - 1, z) - (nu / z) * iv
            kvp = -sf.bessel_k(nu - 1, z) - (nu / z) * kv
            assert iv * kvp - ivp * kv == pytest.approx(-1.0 / z, rel=1e-11)


def test_derivative_vs_finite_difference():
    # the recurrence f'_nu = f_{nu-1} - (nu/z) f_nu that the confluent limit
    # kernels take at their midpoints, for J and both Hankel functions
    h = 1e-6
    for fn in (sf.bessel_j, sf.hankel1, sf.hankel2):
        for nu in (0.5, 0.8):
            z = 1.3 + 0.4j
            fd = (fn(nu, z + h) - fn(nu, z - h)) / (2 * h)
            assert fn(nu - 1.0, z) - (nu / z) * fn(nu, z) == pytest.approx(fd, rel=1e-8)


def test_branch_cut_guard():
    with pytest.raises(sf.SpecfunDomainError):
        sf.bessel_y(0.5, -1.0)
    with pytest.raises(sf.SpecfunDomainError):
        sf.hankel1(0.5, -2.0 + 0.0j)
    with pytest.raises(sf.SpecfunDomainError):
        sf.bessel_k(0.5, 0.0)
    # J is entire and allowed on the negative axis
    assert sf.bessel_j(1.0, -1.0) == pytest.approx(
        sf.bessel_j_series(1.0, -1.0 + 0.0j), rel=1e-12
    )


def test_non_finite_order_rejected():
    with pytest.raises(sf.SpecfunDomainError):
        sf.bessel_j(math.nan, 1.0)
    with pytest.raises(sf.SpecfunDomainError):
        limit_kernel(LimitKernelId.I, math.nan, 0.5, 0.2)


def test_j_at_zero():
    assert sf.bessel_j(0.0, 0.0) == 1.0
    assert sf.bessel_j(1.5, 0.0) == 0.0
    with pytest.raises(sf.SpecfunDomainError):
        sf.bessel_j(-0.5, 0.0)


def test_nonfinite_argument_rejected():
    with pytest.raises(sf.SpecfunDomainError):
        sf.bessel_j(0.5, complex(math.inf, 0.0))


def test_conjugation_symmetry_real_order():
    for nu in (0.3, 1.2):
        z = 1.1 + 0.6j
        assert sf.bessel_j(nu, z.conjugate()) == pytest.approx(
            sf.bessel_j(nu, z).conjugate(), rel=1e-13
        )
        assert sf.hankel2(nu, z.conjugate()) == pytest.approx(
            sf.hankel1(nu, z).conjugate(), rel=1e-13
        )
