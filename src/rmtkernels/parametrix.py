"""Local model problem at the origin: the 2x2 Bessel matrix in two sectors.

Sector 1 covers 0 < arg zeta < pi/4 and is built from Hankel functions;
sector 2 covers pi/4 < arg zeta < pi/2 and is built from modified Bessel
functions with rotated argument.  Across the ray arg zeta = pi/4 the two
formulas differ by the unimodular factor (1, 0; e^{-2 pi i alpha}, 1),
which the jump checker verifies.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .specfun import SpecfunDomainError, bessel_i, bessel_k, hankel1, hankel2

_SQRT_PI = math.sqrt(math.pi)


class SectorError(ValueError):
    pass


class PsiSector(enum.Enum):
    S1 = 1   # 0 < arg zeta < pi/4
    S2 = 2   # pi/4 < arg zeta < pi/2


def _check_sector(zeta: complex, sector: PsiSector, boundary_ok: bool):
    if zeta == 0:
        raise SectorError("zeta must be nonzero")
    arg = math.atan2(zeta.imag, zeta.real)  # cmath.phase raises where this underflows
    lo, hi = (0.0, math.pi / 4) if sector is PsiSector.S1 else (math.pi / 4, math.pi / 2)
    tol = 1e-12 if boundary_ok else 0.0
    if not (lo - tol < arg < hi + tol):
        raise SectorError(
            f"arg zeta = {arg:.6f} outside sector {sector.name} ({lo:.6f}, {hi:.6f})"
        )


def psi_alpha(alpha: float, zeta, sector: PsiSector, _boundary_ok: bool = False):
    """The sector formula as a 2x2 complex ndarray, principal branches.

    A zeta outside the sector raises SectorError; a matrix with an entry
    that is not finite (large alpha or |zeta| leaves the double range)
    raises SpecfunDomainError.
    """
    zeta = complex(zeta)
    _check_sector(zeta, sector, _boundary_ok)
    root = cmath.sqrt(zeta)
    nu_p, nu_m = alpha + 0.5, alpha - 0.5
    if sector is PsiSector.S1:
        m = 0.5 * _SQRT_PI * root * np.array([
            [hankel2(nu_p, zeta), -1j * hankel1(nu_p, zeta)],
            [hankel2(nu_m, zeta), -1j * hankel1(nu_m, zeta)],
        ])
        c = cmath.exp(-(alpha + 0.25) * math.pi * 1j)
    else:
        w = zeta * cmath.exp(-0.5j * math.pi)
        m = root * np.array([
            [_SQRT_PI * bessel_i(nu_p, w), -bessel_k(nu_p, w) / _SQRT_PI],
            [-1j * _SQRT_PI * bessel_i(nu_m, w), -1j * bessel_k(nu_m, w) / _SQRT_PI],
        ])
        c = cmath.exp(-0.5j * math.pi * alpha)
    # right multiplication by e^{c sigma_3} scales the columns by e^{+-c}
    m[:, 0] *= c
    m[:, 1] /= c
    if not np.isfinite(m).all():
        raise SpecfunDomainError(f"Psi at alpha = {alpha}, zeta = {zeta} is not finite")
    return m


def gamma2_jump_matrix(alpha: float):
    return np.array([[1.0, 0.0], [cmath.exp(-2j * math.pi * alpha), 1.0]])


@dataclass
class JumpCheckResult:
    alpha: float
    moduli: list
    residuals: list     # relative residual per modulus on the arg = pi/4 ray
    max_residual: float


# |zeta| of the points on the arg = pi/4 ray where the jump is checked
_JUMP_MODULI = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


def check_gamma2_jump(alpha: float) -> JumpCheckResult:
    """S2 formula vs S1 formula times the ray jump, both limited to arg = pi/4."""
    jump = gamma2_jump_matrix(alpha)
    residuals = []
    for r in _JUMP_MODULI:
        zeta = r * cmath.exp(0.25j * math.pi)
        lhs = psi_alpha(alpha, zeta, PsiSector.S2, _boundary_ok=True)
        rhs = psi_alpha(alpha, zeta, PsiSector.S1, _boundary_ok=True) @ jump
        scale = max(np.max(np.abs(lhs)), np.max(np.abs(rhs)))
        residuals.append(float(np.max(np.abs(lhs - rhs)) / scale))
    return JumpCheckResult(alpha=alpha, moduli=list(_JUMP_MODULI), residuals=residuals,
                           max_residual=max(residuals))

