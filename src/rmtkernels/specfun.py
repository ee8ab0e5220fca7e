"""Bessel, Hankel and modified Bessel functions of real order and complex argument.

All orders occurring in this package are alpha +- 1/2, and alpha - 3/2 in
a derivative.  Evaluation is delegated to the Amos routines exposed by
scipy.special, which carry the required relative accuracy for |z| <= 50;
the connection identities used elsewhere (reflection, Hankel combinations,
half-integer closed forms, cross products) are verified by the self-test
suite below.  The one-point functions here serve the parametrix and that
suite; :mod:`rmtkernels.bessel_limits` calls the scipy.special routines
over point arrays itself, through :func:`_sp`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def _sp():
    """scipy.special, imported on first use so that importing the package does not load scipy."""
    from scipy import special

    return special


class SpecfunDomainError(ValueError):
    pass


def _nu(order) -> float:
    nu = float(order)
    if not math.isfinite(nu):
        raise SpecfunDomainError("Bessel order must be finite")
    return nu


def _check_z(z: complex, avoid_cut: bool) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SpecfunDomainError("non-finite argument")
    if avoid_cut and z.imag == 0.0 and z.real <= 0.0:
        raise SpecfunDomainError("argument on the branch cut (-inf, 0]")
    return z


def bessel_j(order, z) -> complex:
    """J_nu(z), principal branch of z^nu cut along (-inf, 0]."""
    nu = _nu(order)
    z = _check_z(z, avoid_cut=False)
    if z == 0:
        if nu < 0:
            raise SpecfunDomainError("J_nu(0) undefined for nu < 0")
        return 1 + 0j if nu == 0 else 0j
    return complex(_sp().jv(nu, z))


def bessel_y(order, z) -> complex:
    """Y_nu(z) for z off (-inf, 0]."""
    nu = _nu(order)
    z = _check_z(z, avoid_cut=True)
    return complex(_sp().yv(nu, z))


def hankel1(order, z) -> complex:
    nu = _nu(order)
    z = _check_z(z, avoid_cut=True)
    return complex(_sp().hankel1(nu, z))


def hankel2(order, z) -> complex:
    nu = _nu(order)
    z = _check_z(z, avoid_cut=True)
    return complex(_sp().hankel2(nu, z))


def bessel_i(order, z) -> complex:
    nu = _nu(order)
    z = _check_z(z, avoid_cut=False)
    return complex(_sp().iv(nu, z))


def bessel_k(order, z) -> complex:
    nu = _nu(order)
    z = _check_z(z, avoid_cut=True)
    return complex(_sp().kv(nu, z))


# -- reference series, used only for independent verification ---------------


def bessel_j_series(nu: float, z: complex) -> complex:
    """Ascending power series for J_nu, 60 terms, independent of the scipy path."""
    z = complex(z)
    if z == 0:
        return 1 + 0j if nu == 0 else 0j
    half = z / 2.0
    # principal branch of (z/2)^nu
    prefactor = cmath.exp(nu * cmath.log(half)) / _sp().gamma(nu + 1.0)
    total = 0j
    term = 1 + 0j
    q = half * half
    for k in range(60):
        if k > 0:
            term *= -q / (k * (nu + k))
        total += term
    return prefactor * total


def bessel_y_reflection(nu: float, z: complex) -> complex:
    """Y_nu via the reflection formula; requires nu away from the integers."""
    if abs(nu - round(nu)) < 1e-6:
        raise SpecfunDomainError("reflection formula degenerate near integer order")
    s, c = math.sin(math.pi * nu), math.cos(math.pi * nu)
    return (bessel_j_series(nu, z) * c - bessel_j_series(-nu, z)) / s


# -- identity self-test suite ------------------------------------------------


def selftest_rows():
    """Residuals of the connection identities at alpha 0, 0.3, 1.2 and 20 points in [0.15, 28].

    Rows of (identity, alpha, z, residual).
    """
    rows = []
    zs = np.linspace(0.15, 28.0, 20)
    for alpha in (0.0, 0.3, 1.2):
        nu_p, nu_m = alpha + 0.5, alpha - 0.5
        for z in zs:
            zc = complex(z)
            j_p, j_m = bessel_j(nu_p, zc), bessel_j(nu_m, zc)
            y_p, y_m = bessel_y(nu_p, zc), bessel_y(nu_m, zc)
            h1 = hankel1(nu_p, zc)
            h2 = hankel2(nu_p, zc)
            rows.append(
                ("hankel_sum", alpha, zc, abs(h1 + h2 - 2 * j_p) / max(abs(j_p), 1e-300))
            )
            cross = j_p * y_m - j_m * y_p - 2.0 / (math.pi * z)
            rows.append(("cross_product", alpha, zc, abs(cross) * math.pi * z / 2.0))
    # half-integer closed forms
    for z in zs:
        zc = complex(z)
        root = math.sqrt(2.0 / (math.pi * z))
        pairs = [
            ("closed_j_half", bessel_j(0.5, zc), root * math.sin(z)),
            ("closed_j_minus_half", bessel_j(-0.5, zc), root * math.cos(z)),
            ("closed_h1_half", hankel1(0.5, zc), -1j * root * np.exp(1j * z)),
            ("closed_h1_minus_half", hankel1(-0.5, zc), root * np.exp(1j * z)),
            ("closed_h2_half", hankel2(0.5, zc), 1j * root * np.exp(-1j * z)),
            ("closed_h2_minus_half", hankel2(-0.5, zc), root * np.exp(-1j * z)),
        ]
        for name, got, want in pairs:
            rows.append((name, 0.0, zc, abs(got - want) / abs(want)))
    return rows

