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

from .specfun import SpecfunDomainError, _nu, _sp

_SQRT_PI = math.sqrt(math.pi)


class SectorError(ValueError):
    pass


class PsiSector(enum.Enum):
    S1 = 1   # 0 < arg zeta < pi/4
    S2 = 2   # pi/4 < arg zeta < pi/2


def _check_sector(zeta: np.ndarray, sector: PsiSector, boundary_ok: bool):
    """SectorError for the first point of the flat array ``zeta`` that is 0 or not in ``sector``."""
    arg = np.arctan2(zeta.imag, zeta.real)  # cmath.phase raises where this underflows
    lo, hi = (0.0, math.pi / 4) if sector is PsiSector.S1 else (math.pi / 4, math.pi / 2)
    tol = 1e-12 if boundary_ok else 0.0
    bad = np.flatnonzero((zeta == 0) | ~((lo - tol < arg) & (arg < hi + tol)))  # nan is bad
    if bad.size:
        k = bad[0]
        raise SectorError("zeta must be nonzero" if zeta[k] == 0 else f"arg zeta = {arg[k]:.6f} "
                          f"outside sector {sector.name} ({lo:.6f}, {hi:.6f})")


def psi_alpha(alpha: float, zeta, sector: PsiSector, _boundary_ok: bool = False):
    """The sector formula at one point or an array of points, principal branches.

    Returns a 2x2 complex ndarray for one point and an (..., 2, 2) array for
    an array of points, from one scipy call per Bessel or Hankel factor over
    all of them.  An alpha outside (-1/2, inf), or a matrix with an entry
    that is not finite (large alpha or |zeta| leaves the double range),
    raises SpecfunDomainError; a zeta outside the sector raises SectorError.
    Each error names the first point that fails.
    """
    alpha = _nu(alpha)
    shape = np.shape(zeta)
    flat = np.asarray(zeta, dtype=complex).reshape(-1)
    _check_sector(flat, sector, _boundary_ok)
    sp = _sp()
    nu_p, nu_m = alpha + 0.5, alpha - 0.5
    with np.errstate(all="ignore"):  # an overflowed factor is caught below, not warned about
        if sector is PsiSector.S1:
            front = 0.5 * _SQRT_PI * np.sqrt(flat)
            rows = [(sp.hankel2(nu, flat), -1j * sp.hankel1(nu, flat)) for nu in (nu_p, nu_m)]
            c = cmath.exp(-(alpha + 0.25) * math.pi * 1j)
        else:
            front, w = np.sqrt(flat), flat * cmath.exp(-0.5j * math.pi)
            rows = [(_SQRT_PI * sp.iv(nu_p, w), -sp.kv(nu_p, w) / _SQRT_PI),
                    (-1j * _SQRT_PI * sp.iv(nu_m, w), -1j * sp.kv(nu_m, w) / _SQRT_PI)]
            c = cmath.exp(-0.5j * math.pi * alpha)
        # right multiplication by e^{c sigma_3} scales the columns by e^{+-c}
        m = np.stack([np.stack([front * left * c, front * right / c], axis=-1)
                      for left, right in rows], axis=-2)
    bad = np.flatnonzero(~np.isfinite(m).all(axis=(1, 2)))
    if bad.size:
        raise SpecfunDomainError(f"Psi at alpha = {alpha}, zeta = {flat[bad[0]]} is not finite")
    return m.reshape(shape + (2, 2))


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
    zetas = np.array(_JUMP_MODULI) * cmath.exp(0.25j * math.pi)
    lhs = psi_alpha(alpha, zetas, PsiSector.S2, _boundary_ok=True)
    rhs = psi_alpha(alpha, zetas, PsiSector.S1, _boundary_ok=True) @ gamma2_jump_matrix(alpha)
    scale = np.maximum(np.abs(lhs).max(axis=(1, 2)), np.abs(rhs).max(axis=(1, 2)))
    residuals = (np.abs(lhs - rhs).max(axis=(1, 2)) / scale).tolist()
    return JumpCheckResult(alpha=alpha, moduli=list(_JUMP_MODULI), residuals=residuals,
                           max_residual=max(residuals))
