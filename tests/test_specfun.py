import cmath
import math

import pytest
from scipy import special

from rmtkernels import specfun as sf
from rmtkernels.bessel_limits import LimitKernelId, limit_grid, limit_kernel
from rmtkernels.parametrix import PsiSector, psi_alpha


def test_selftest_suite_under_tolerance():
    assert max(r[3] for r in sf.selftest_rows()) < 1e-10


def test_scipy_vs_independent_series():
    pts = [0.3 + 0.0j, 1.7 - 0.4j, 2.5 + 1.1j, -1.2 + 0.8j, 5.0 + 0.0j]
    for nu in (0.0, 0.5, 0.8, 1.7, -0.5):
        for z in pts:
            a = special.jv(nu, z)
            b = sf.bessel_j_series(nu, z)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-14)


def test_bessel_y_reflection_oracle():
    for nu in (0.3, 0.8, -0.2, 1.7):
        for z in (0.7 + 0.0j, 1.5 + 0.5j, 3.0 - 0.25j):
            assert special.yv(nu, z) == pytest.approx(
                sf.bessel_y_reflection(nu, z), rel=1e-10, abs=1e-12
            )


def test_reflection_guard_near_integer():
    with pytest.raises(sf.SpecfunDomainError):
        sf.bessel_y_reflection(1.0 + 1e-9, 1.0)


def test_hankel_definitions():
    for nu in (0.5, 0.8, 1.7):
        for z in (0.9 + 0.0j, 2.0 + 1.0j):
            j, y = special.jv(nu, z), special.yv(nu, z)
            assert special.hankel1(nu, z) == pytest.approx(j + 1j * y, rel=1e-12)
            assert special.hankel2(nu, z) == pytest.approx(j - 1j * y, rel=1e-12)


def test_modified_bessel_wronskian():
    # I_nu(z) K'_nu(z) - I'_nu(z) K_nu(z) = -1/z via recurrence forms
    for nu in (0.3, 0.8):
        for z in (0.7 + 0.2j, 2.5 - 0.5j):
            iv = special.iv(nu, z)
            kv = special.kv(nu, z)
            ivp = special.iv(nu - 1, z) - (nu / z) * iv
            kvp = -special.kv(nu - 1, z) - (nu / z) * kv
            assert iv * kvp - ivp * kv == pytest.approx(-1.0 / z, rel=1e-11)


def test_derivative_vs_finite_difference():
    # the recurrence f'_nu = f_{nu-1} - (nu/z) f_nu that the confluent limit
    # kernels take at their midpoints, for J and both Hankel functions
    h = 1e-6
    for fn in (special.jv, special.hankel1, special.hankel2):
        for nu in (0.5, 0.8):
            z = 1.3 + 0.4j
            fd = (fn(nu, z + h) - fn(nu, z - h)) / (2 * h)
            assert fn(nu - 1.0, z) - (nu / z) * fn(nu, z) == pytest.approx(fd, rel=1e-8)


def test_j_on_the_negative_axis():
    # J is entire, and the package takes it on the negative axis
    assert special.jv(1.0, -1.0 + 0.0j) == pytest.approx(
        sf.bessel_j_series(1.0, -1.0 + 0.0j), rel=1e-12
    )


def test_non_finite_order_rejected():
    with pytest.raises(sf.SpecfunDomainError):
        psi_alpha(math.nan, cmath.exp(0.3j), PsiSector.S1)
    with pytest.raises(sf.SpecfunDomainError):
        limit_kernel(LimitKernelId.I, math.nan, 0.5, 0.2)


@pytest.mark.parametrize("alpha", [-0.5, -3.0, math.inf])
def test_alpha_outside_the_weight_domain_rejected(alpha):
    # alpha > -1/2 makes |x|^(2 alpha) integrable at 0: both Bessel-built
    # functions take alpha through the one check, specfun._nu
    for sector, zeta in ((PsiSector.S1, cmath.exp(0.3j)), (PsiSector.S2, cmath.exp(1.2j))):
        with pytest.raises(sf.SpecfunDomainError, match="alpha"):
            psi_alpha(alpha, zeta, sector)
        with pytest.raises(sf.SpecfunDomainError, match="alpha"):
            psi_alpha(alpha, [zeta, 2 * zeta], sector)
    for kid in LimitKernelId:
        with pytest.raises(sf.SpecfunDomainError, match="alpha"):
            limit_grid(kid, alpha, [0.5 + 0.2j], [0.3 - 0.1j, 0.2 + 0.4j])
        with pytest.raises(sf.SpecfunDomainError, match="alpha"):
            limit_kernel(kid, alpha, 0.7 + 0.2j, 0.2 + 0.1j)


def test_conjugation_symmetry_real_order():
    for nu in (0.3, 1.2):
        z = 1.1 + 0.6j
        assert special.jv(nu, z.conjugate()) == pytest.approx(
            special.jv(nu, z).conjugate(), rel=1e-13
        )
        assert special.hankel2(nu, z.conjugate()) == pytest.approx(
            special.hankel1(nu, z).conjugate(), rel=1e-13
        )
