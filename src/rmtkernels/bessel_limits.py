"""Limiting kernels at the origin of the spectrum, built from J and Hankel functions.

Six kernels: one from J-Bessel pairs, two from a Hankel/J mix (one per
half-plane of the first argument), and three from Hankel pairs covering the
half-plane combinations of both arguments.  At alpha = 0 they reduce to
sine/exponential kernels, which the tests pin down.  :func:`limit_grid`
takes a kernel at every pair of two point arrays with one scipy call per
Bessel or Hankel factor per array; :func:`limit_kernel` is its one-pair call.
"""

from __future__ import annotations

import cmath
import enum
import math

import numpy as np

from .specfun import (
    SpecfunDomainError,
    _nu,
    _sp,
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
# the scipy.special function that each factor calls, taken at a point array
_UFUNC = {bessel_j: "jv", hankel1: "hankel1", hankel2: "hankel2"}


# required half-plane of (zeta, eta): +1 upper, -1 lower, 0 unconstrained
_HALF_PLANES = {
    LimitKernelId.I: (0, 0),
    LimitKernelId.II_plus: (+1, 0),
    LimitKernelId.II_minus: (-1, 0),
    LimitKernelId.III_plus: (+1, +1),
    LimitKernelId.III_pm: (+1, -1),
    LimitKernelId.III_minus: (-1, -1),
}


def _check_half_planes(kid: LimitKernelId, zetas, etas):
    need = _HALF_PLANES[kid]
    for name, points, s in (("zeta", zetas, need[0]), ("eta", etas, need[1])):
        for z in points:
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise SpecfunDomainError(f"{name} must be finite")
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


def _factor(fn, nu: float, points) -> list:
    """fn(nu, pi z) at each of ``points`` (checked), by one scipy call over the array."""
    return getattr(_sp(), _UFUNC[fn])(nu, np.array([_PI * z for z in points])).tolist()


def confluence_threshold(zeta: complex) -> float:
    return 1e-5 * max(1.0, abs(zeta))


def limit_kernel(kid: LimitKernelId, alpha: float, zeta, eta) -> complex:
    """The limiting kernel at one pair: :func:`limit_grid`'s one-pair call."""
    return complex(limit_grid(kid, alpha, [zeta], [eta])[0, 0])


def limit_grid(kid: LimitKernelId, alpha: float, zetas, etas) -> np.ndarray:
    """The limiting kernel at every pair of ``zetas`` (rows) and ``etas`` (columns).

    Principal branches.  Each Bessel or Hankel factor is one scipy call over
    a point array, and the pairs are combined in Python arithmetic, so an
    entry has the bits of the one-pair call.  A pair of a same-family kernel
    (I, III+, III-) nearer the diagonal than :func:`confluence_threshold`
    takes the derivative form at its midpoint; the others have a pole at
    zeta = eta.
    """
    zetas, etas = [complex(z) for z in zetas], [complex(e) for e in etas]
    alpha = _nu(alpha)
    _check_half_planes(kid, zetas, etas)
    f, g, sz, se, denom, sign = _SPEC[kid]
    nu_p, nu_m = alpha + 0.5, alpha - 0.5
    fz_p, fz_m = _factor(f, nu_p, zetas), _factor(f, nu_m, zetas)
    ge_p, ge_m = _factor(g, nu_p, etas), _factor(g, nu_m, etas)
    pz = [sign * _PI * _power(zeta, sz * alpha + 0.5) for zeta in zetas]
    pe = [_power(eta, se * alpha + 0.5) for eta in etas]

    out = np.empty((len(zetas), len(etas)), dtype=complex)
    for i, zeta in enumerate(zetas):
        for k, eta in enumerate(etas):
            if f is g and abs(zeta - eta) < confluence_threshold(zeta):
                out[i, k] = _diagonal(kid, alpha, (zeta + eta) / 2)
            elif zeta == eta:
                raise SpecfunDomainError(f"the {kid.value} kernel has a pole at zeta = eta")
            else:
                num = fz_p[i] * ge_m[k] - fz_m[i] * ge_p[k]
                out[i, k] = pz[i] * pe[k] * num / (denom * (zeta - eta))
    return out


def _diagonal(kid: LimitKernelId, alpha: float, zeta: complex) -> complex:
    """Limit eta -> zeta for the same-family kernels (I, III+, III-), at ``zeta``.

    With F(z) = z^p f_nu(pi z), the quotient limit is
    sign * pi * (F'_p F_m - F'_m F_p) / denom, and the z^p prefactor
    derivatives cancel, leaving z^{2p} * pi * (f'_p f_m - f'_m f_p).
    """
    f, _, sz, _, denom, sign = _SPEC[kid]
    df = _DERIV[f]
    nu_p, nu_m = alpha + 0.5, alpha - 0.5
    w = _PI * zeta
    wronsk = df(nu_p, w) * f(nu_m, w) - df(nu_m, w) * f(nu_p, w)  # raises at zeta = 0
    p2 = _power(zeta, 2.0 * (sz * alpha + 0.5))
    return sign * _PI * p2 * _PI * wronsk / denom

