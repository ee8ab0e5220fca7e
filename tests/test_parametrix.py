import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmtkernels.parametrix import (
    PsiSector,
    SectorError,
    check_gamma2_jump,
    gamma2_jump_matrix,
    psi_alpha,
)
from rmtkernels.specfun import SpecfunDomainError


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.2])
def test_sector_jump_on_diagonal_ray(alpha):
    rep = check_gamma2_jump(alpha)
    assert len(rep.residuals) == 6
    assert rep.max_residual < 1e-10


def test_jump_matrix_is_unimodular():
    for alpha in (0.0, 0.3, 1.2):
        j = gamma2_jump_matrix(alpha)
        assert np.linalg.det(j) == pytest.approx(1.0, abs=1e-15)
        assert j[0, 1] == 0.0


def det_psi(alpha: float, zeta, sector: PsiSector) -> complex:
    m = psi_alpha(alpha, zeta, sector)
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def small_zeta_growth_slope(alpha: float, sector: PsiSector, column: int,
                            radii=(1e-3, 1e-4, 1e-5, 1e-6)) -> float:
    """log-log slope of the largest entry of one column as zeta -> 0."""
    mid = math.pi / 8 if sector is PsiSector.S1 else 3 * math.pi / 8
    mags = []
    for r in radii:
        m = psi_alpha(alpha, r * cmath.exp(1j * mid), sector)
        mags.append(float(np.max(np.abs(m[:, column]))))
    return float(np.polyfit(np.log(radii), np.log(mags), 1)[0])


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.2])
def test_determinant_is_one(alpha):
    for zeta in (0.5 * cmath.exp(0.1j), 2.0 * cmath.exp(0.6j), 7.0 * cmath.exp(0.2j)):
        assert det_psi(alpha, zeta, PsiSector.S1) == pytest.approx(1.0, abs=1e-10)
    for zeta in (0.5 * cmath.exp(1.0j), 3.0 * cmath.exp(1.3j)):
        assert det_psi(alpha, zeta, PsiSector.S2) == pytest.approx(1.0, abs=1e-10)


def test_small_argument_growth_slopes():
    alpha = 0.3
    assert small_zeta_growth_slope(alpha, PsiSector.S1, 0) == pytest.approx(-alpha, abs=0.05)
    assert small_zeta_growth_slope(alpha, PsiSector.S1, 1) == pytest.approx(-alpha, abs=0.05)
    assert small_zeta_growth_slope(alpha, PsiSector.S2, 0) == pytest.approx(+alpha, abs=0.05)
    assert small_zeta_growth_slope(alpha, PsiSector.S2, 1) == pytest.approx(-alpha, abs=0.05)


def test_alpha_zero_elementary_form():
    # half-integer orders collapse the Hankel functions to plane waves:
    # Psi_0 = (1/sqrt2) [[e^{i pi/4} e^{-i z}, -e^{i pi/4} e^{i z}],
    #                    [e^{-i pi/4} e^{-i z}, e^{-i pi/4} e^{i z}]]
    zeta = cmath.exp(1j * math.pi / 8)
    m = psi_alpha(0.0, zeta, PsiSector.S1)
    s = 1.0 / math.sqrt(2.0)
    ep, em = cmath.exp(1j * math.pi / 4), cmath.exp(-1j * math.pi / 4)
    want = s * np.array([
        [ep * cmath.exp(-1j * zeta), -ep * cmath.exp(1j * zeta)],
        [em * cmath.exp(-1j * zeta), em * cmath.exp(1j * zeta)],
    ])
    assert np.max(np.abs(m - want)) < 1e-12


def test_sector_validation():
    with pytest.raises(SectorError):
        psi_alpha(0.3, 0.0, PsiSector.S1)
    with pytest.raises(SectorError):
        psi_alpha(0.3, 1.0 * cmath.exp(1.0j), PsiSector.S1)  # belongs to S2
    with pytest.raises(SectorError):
        psi_alpha(0.3, 1.0 * cmath.exp(0.1j), PsiSector.S2)  # belongs to S1
    with pytest.raises(SectorError):
        psi_alpha(0.3, -1.0, PsiSector.S1)
    # the shared ray is rejected unless explicitly allowed
    ray = cmath.exp(0.25j * math.pi)
    with pytest.raises(SectorError):
        psi_alpha(0.3, ray, PsiSector.S1)
    m = psi_alpha(0.3, ray, PsiSector.S1, _boundary_ok=True)
    assert np.all(np.isfinite(m))


@pytest.mark.parametrize("alpha, zeta, sector", [
    (200.0, 0.5 + 0.1j, PsiSector.S1),
    (60.0, 1e6 * cmath.exp(0.79j), PsiSector.S2),
], ids=["S1-large-order", "S2-large-argument"])
def test_matrix_outside_the_doubles_raises(alpha, zeta, sector):
    with pytest.raises(SpecfunDomainError, match="not finite"):
        psi_alpha(alpha, zeta, sector)


def test_jump_check_at_large_alpha_raises():
    with pytest.raises(SpecfunDomainError):
        check_gamma2_jump(200.0)


def test_argument_whose_phase_underflows_is_a_sector_error():
    # arg(1e300 + 1e-300 i) underflows to 0, on the edge of S1
    with pytest.raises(SectorError):
        psi_alpha(-0.49, complex(1e300, 1e-300), PsiSector.S1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alpha=st.floats(-0.5, 300.0, exclude_min=True), log10_r=st.floats(-300.0, 300.0),
       sector=st.sampled_from(PsiSector), frac=st.floats(0.0, 1.0, exclude_min=True,
                                                         exclude_max=True))
def test_psi_is_finite_or_raises_a_typed_error(alpha, log10_r, sector, frac):
    # |zeta| in [1e-300, 1e300] and arg zeta inside the sector's open arc
    lo = 0.0 if sector is PsiSector.S1 else math.pi / 4
    zeta = 10.0 ** log10_r * cmath.exp(1j * (lo + frac * math.pi / 4))
    try:
        m = psi_alpha(alpha, zeta, sector)
    except (SpecfunDomainError, SectorError):
        return
    assert m.shape == (2, 2) and np.isfinite(m).all()


def _sector_points(sector: PsiSector, k: int = 12):
    """k points inside the sector's open arc, |zeta| from 1e-3 to 30."""
    lo = 0.0 if sector is PsiSector.S1 else math.pi / 4
    r = np.geomspace(1e-3, 30.0, k)
    return r * np.exp(1j * (lo + np.linspace(0.05, 0.95, k) * math.pi / 4))


@pytest.mark.parametrize("alpha", [-0.45, 0.0, 0.3, 1.2, 7.5])
@pytest.mark.parametrize("sector", list(PsiSector), ids=lambda s: s.name)
def test_array_of_points_matches_the_one_point_calls(alpha, sector):
    zetas = _sector_points(sector)
    m = psi_alpha(alpha, zetas, sector)
    assert m.shape == (zetas.size, 2, 2)
    for zeta, mk in zip(zetas, m):
        assert np.array_equal(mk, psi_alpha(alpha, complex(zeta), sector))
    assert psi_alpha(alpha, zetas.reshape(3, -1), sector).shape == (3, zetas.size // 3, 2, 2)


def test_one_overflowing_point_fails_the_array_without_a_warning():
    good = _sector_points(PsiSector.S2, 4)
    far = 1e6 * cmath.exp(0.79j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SpecfunDomainError, match="not finite") as err:
            psi_alpha(60.0, np.append(good, far), PsiSector.S2)
    assert str(far) in str(err.value)
    with pytest.raises(SectorError, match="outside sector S1"):
        psi_alpha(0.3, [0.5 + 0.1j, cmath.exp(1.0j)], PsiSector.S1)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.2])
def test_jump_residuals_match_the_one_point_calls(alpha):
    # check_gamma2_jump evaluates its six moduli in one call per sector
    want = []
    for r in check_gamma2_jump(alpha).moduli:
        zeta = r * cmath.exp(0.25j * math.pi)
        lhs = psi_alpha(alpha, zeta, PsiSector.S2, _boundary_ok=True)
        rhs = psi_alpha(alpha, zeta, PsiSector.S1, _boundary_ok=True) @ gamma2_jump_matrix(alpha)
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        want.append(float(np.max(np.abs(lhs - rhs)) / scale))
    assert check_gamma2_jump(alpha).residuals == want
