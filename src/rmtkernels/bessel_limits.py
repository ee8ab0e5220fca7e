"""Limiting kernels at the origin of the spectrum, built from J and Hankel functions.

Six kernels: one from J-Bessel pairs, two from a Hankel/J mix (one per
half-plane of the first argument), and three from Hankel pairs covering the
half-plane combinations of both arguments.  At alpha = 0 they reduce to
sine/exponential kernels, which the tests pin down.  :func:`limit_grid`
takes a kernel at every pair of two point arrays as numpy arrays, with one
scipy call per Bessel or Hankel factor per array; :func:`limit_kernel` is
its one-pair call.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .specfun import SpecfunDomainError, _nu, _sp

_PI = math.pi


class LimitKernelId(enum.Enum):
    I = "I"
    II_plus = "II+"
    II_minus = "II-"
    III_plus = "III+"
    III_pm = "III+-"
    III_minus = "III-"


# per kernel: (scipy.special function for the zeta slot, for the eta slot,
#              zeta power sign, eta power sign, denominator factor, overall sign)
_SPEC = {
    LimitKernelId.I: ("jv", "jv", -1, -1, 2.0, +1.0),
    LimitKernelId.II_plus: ("hankel1", "jv", +1, -1, 4.0, +1.0),
    LimitKernelId.II_minus: ("hankel2", "jv", +1, -1, 4.0, -1.0),
    LimitKernelId.III_plus: ("hankel1", "hankel1", +1, +1, 8.0, +1.0),
    LimitKernelId.III_pm: ("hankel1", "hankel2", +1, +1, 8.0, -1.0),
    LimitKernelId.III_minus: ("hankel2", "hankel2", +1, +1, 8.0, +1.0),
}


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
    """``zetas`` and ``etas`` as flat complex arrays, each point finite, nonzero and in
    its slot's half-plane, or SpecfunDomainError.

    A J-type slot allows the negative axis, where z^p J_nu(pi z) is entire;
    there -0j becomes +0j, as scipy's jv ignores a zero's sign and the log
    in the power does not.
    """
    checked = [np.asarray(p, dtype=complex).reshape(-1) + 0j for p in (zetas, etas)]
    for name, z, s in zip(("zeta", "eta"), checked, _HALF_PLANES[kid]):
        if not (np.isfinite(z) & (z != 0)).all():
            raise SpecfunDomainError(f"{name} must be finite and nonzero")
        if s and not (s * z.imag > 0).all():
            raise SpecfunDomainError(f"{name} must lie in the {'upper' if s > 0 else 'lower'} "
                                     "half-plane")
    return checked


def _power(z, expo: float):
    return np.exp(expo * np.log(z))


def confluence_threshold(zeta):
    return 1e-5 * np.maximum(1.0, np.abs(zeta))


def limit_kernel(kid: LimitKernelId, alpha: float, zeta, eta) -> complex:
    """The limiting kernel at one pair: :func:`limit_grid`'s one-pair call."""
    return complex(limit_grid(kid, alpha, [zeta], [eta])[0, 0])


def limit_grid(kid: LimitKernelId, alpha: float, zetas, etas) -> np.ndarray:
    """The limiting kernel at every pair of ``zetas`` (rows) and ``etas`` (columns).

    Principal branches.  Each Bessel or Hankel factor is one scipy call over
    a point array, and every pair is combined in flat numpy arrays, so an
    entry has the bits of the one-pair call.  A pair of a same-family kernel
    (I, III+, III-) nearer the diagonal than :func:`confluence_threshold`
    takes the derivative form at its midpoint; the others have a pole at
    zeta = eta.  An alpha outside (-1/2, inf), or a value that is not finite
    (an order so large that a factor or a power leaves the doubles), raises
    SpecfunDomainError.
    """
    alpha = _nu(alpha)
    zetas, etas = _check_half_planes(kid, zetas, etas)
    f, g, sz, se, denom, sign = _SPEC[kid]
    fn, gn = getattr(_sp(), f), getattr(_sp(), g)  # each called once per point array
    nu_p, nu_m = alpha + 0.5, alpha - 0.5
    # pair i is (zetas[r[i]], etas[c[i]]): numpy's complex product has one set of
    # bits on contiguous arrays of any length, but can differ across a broadcast's loops
    r, c = np.divmod(np.arange(zetas.size * etas.size), etas.size)
    diff = zetas[r] - etas[c]
    with np.errstate(all="ignore"):
        xz, xe = _PI * zetas, _PI * etas
        num = fn(nu_p, xz)[r] * gn(nu_m, xe)[c] - fn(nu_m, xz)[r] * gn(nu_p, xe)[c]
        front = ((sign * _PI * _power(zetas, sz * alpha + 0.5))[r]
                 * _power(etas, se * alpha + 0.5)[c])
        out = front * num / (denom * diff)
        near = np.flatnonzero(np.abs(diff) < confluence_threshold(zetas)[r] if f == g
                              else diff == 0)
        if near.size and f != g:
            raise SpecfunDomainError(f"the {kid.value} kernel has a pole at zeta = eta")
        if near.size:
            # with F(z) = z^p f_nu(pi z) the limit is sign pi (F'_p F_m - F'_m F_p) / denom,
            # or, as the derivatives of z^p cancel, sign pi w^2p pi (f'_p f_m - f'_m f_p) / denom
            # with f'_nu = f_{nu-1} - (nu/x) f_nu at x = pi w, where nu_p - 1 = nu_m
            w = (zetas[r[near]] + etas[c[near]]) / 2
            if (w == 0).any():
                raise SpecfunDomainError("the derivative form needs a nonzero midpoint")
            x = _PI * w
            fp, fm, fmm = (fn(nu, x) for nu in (nu_p, nu_m, nu_m - 1.0))
            wronsk = (fm - nu_p / x * fp) * fm - (fmm - nu_m / x * fm) * fp
            out[near] = sign * _PI * _power(w, 2.0 * (sz * alpha + 0.5)) * _PI * wronsk / denom
    if not np.isfinite(out).all():
        raise SpecfunDomainError(f"the {kid.value} kernel at alpha = {alpha} is not finite")
    return out.reshape(zetas.size, etas.size)
