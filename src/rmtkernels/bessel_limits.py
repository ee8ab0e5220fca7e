"""Limiting kernels at the origin of the spectrum, built from J and Hankel functions.

Six kernels: one from J-Bessel pairs, two from a Hankel/J mix (one per
half-plane of the first argument), and three from Hankel pairs covering the
half-plane combinations of both arguments.  At alpha = 0 they reduce to
sine/exponential kernels, which the tests pin down.
"""

from __future__ import annotations

import cmath
import enum
import math

from .specfun import (
    SpecfunDomainError,
    bessel_j,
    bessel_j_derivative,
    hankel1,
    hankel1_derivative,
    hankel2,
    hankel2_derivative,
)

_PI = math.pi


class LimitKernelId(enum.Enum):
    I = "I"
    II_plus = "II+"
    II_minus = "II-"
    III_plus = "III+"
    III_pm = "III+-"
    III_minus = "III-"


# per kernel: (function for zeta slot, function for eta slot, zeta power sign,
#              eta power sign, denominator factor, overall sign)
_SPEC = {
    LimitKernelId.I: (bessel_j, bessel_j, -1, -1, 2.0, +1.0),
    LimitKernelId.II_plus: (hankel1, bessel_j, +1, -1, 4.0, +1.0),
    LimitKernelId.II_minus: (hankel2, bessel_j, +1, -1, 4.0, -1.0),
    LimitKernelId.III_plus: (hankel1, hankel1, +1, +1, 8.0, +1.0),
    LimitKernelId.III_pm: (hankel1, hankel2, +1, +1, 8.0, -1.0),
    LimitKernelId.III_minus: (hankel2, hankel2, +1, +1, 8.0, +1.0),
}

_DERIV = {bessel_j: bessel_j_derivative, hankel1: hankel1_derivative,
          hankel2: hankel2_derivative}


# required half-plane of (zeta, eta): +1 upper, -1 lower, 0 unconstrained
_HALF_PLANES = {
    LimitKernelId.I: (0, 0),
    LimitKernelId.II_plus: (+1, 0),
    LimitKernelId.II_minus: (-1, 0),
    LimitKernelId.III_plus: (+1, +1),
    LimitKernelId.III_pm: (+1, -1),
    LimitKernelId.III_minus: (-1, -1),
}


def _check_half_planes(kid: LimitKernelId, zeta: complex, eta: complex):
    need = _HALF_PLANES[kid]
    for name, z, s in (("zeta", zeta, need[0]), ("eta", eta, need[1])):
        if z == 0:
            raise SpecfunDomainError(f"{name} must be nonzero")
        if s == 0:
            # J-type slot: z^p J_nu(pi z) is entire when both factors use the
            # principal branch, so the negative axis is allowed
            continue
        if z.imag == 0.0 and z.real <= 0.0:
            raise SpecfunDomainError(f"{name} on the branch cut (-inf, 0]")
        if s > 0 and z.imag <= 0:
            raise SpecfunDomainError(f"{name} must lie in the upper half-plane")
        if s < 0 and z.imag >= 0:
            raise SpecfunDomainError(f"{name} must lie in the lower half-plane")


def _power(z: complex, expo: float) -> complex:
    return cmath.exp(expo * cmath.log(z))


def confluence_threshold(zeta: complex) -> float:
    return 1e-5 * max(1.0, abs(zeta))


def limit_kernel(kid: LimitKernelId, alpha: float, zeta, eta) -> complex:
    """The limiting kernel, principal branches; near the diagonal the midpoint's derivative form."""
    zeta, eta = complex(zeta), complex(eta)
    _check_half_planes(kid, zeta, eta)
    f, g, sz, se, denom, sign = _SPEC[kid]
    nu_p, nu_m = alpha + 0.5, alpha - 0.5
    pz = _power(zeta, sz * alpha + 0.5)
    pe = _power(eta, se * alpha + 0.5)

    same_family = f is g
    if same_family and abs(zeta - eta) < confluence_threshold(zeta):
        return _diagonal(kid, alpha, (zeta + eta) / 2)

    num = (f(nu_p, _PI * zeta) * g(nu_m, _PI * eta)
           - f(nu_m, _PI * zeta) * g(nu_p, _PI * eta))
    return sign * _PI * pz * pe * num / (denom * (zeta - eta))


def _diagonal(kid: LimitKernelId, alpha: float, zeta: complex) -> complex:
    """Limit eta -> zeta for the same-family kernels (I, III+, III-), at ``zeta``.

    With F(z) = z^p f_nu(pi z), the quotient limit is
    sign * pi * (F'_p F_m - F'_m F_p) / denom, and the z^p prefactor
    derivatives cancel, leaving z^{2p} * pi * (f'_p f_m - f'_m f_p).
    """
    f, _, sz, _, denom, sign = _SPEC[kid]
    df = _DERIV[f]
    nu_p, nu_m = alpha + 0.5, alpha - 0.5
    p2 = _power(zeta, 2.0 * (sz * alpha + 0.5))
    w = _PI * zeta
    wronsk = df(nu_p, w) * f(nu_m, w) - df(nu_m, w) * f(nu_p, w)
    return sign * _PI * p2 * _PI * wronsk / denom

