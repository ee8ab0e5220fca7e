"""scipy.special for the package's Bessel and Hankel factors, and checks of it.

The parametrix and the limit kernels evaluate the Amos routines of
scipy.special (``jv``, ``hankel1``, ``hankel2``, ``iv``, ``kv``) over point
arrays themselves, through :func:`_sp`, after :func:`_nu` has checked alpha.
Their orders are alpha +- 1/2, and alpha - 3/2 in a derivative; the Amos
routines carry the required relative accuracy for |z| <= 50.  The
connection identities the package relies on (Hankel combinations, cross
products, half-integer closed forms) are checked by :func:`selftest_rows`;
an ascending series and the reflection formula are independent references
for the tests.
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


def _nu(alpha) -> float:
    """``alpha`` as a float in the weight's domain (-1/2, inf), or SpecfunDomainError.

    The one check of alpha for :func:`rmtkernels.parametrix.psi_alpha` and
    :func:`rmtkernels.bessel_limits.limit_grid`; the orders alpha +- 1/2 and
    alpha - 3/2 that they take from it are not checked.
    """
    nu = float(alpha)
    if not -0.5 < nu < math.inf:
        raise SpecfunDomainError(f"alpha must lie in (-1/2, inf), got {nu}")
    return nu


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

    Rows of (identity, alpha, z, residual).  Each function is one scipy call
    over the 20 points per order.
    """
    sp = _sp()
    rows = []
    zs = np.linspace(0.15, 28.0, 20)
    zc = zs.astype(complex)
    for alpha in (0.0, 0.3, 1.2):
        nu_p, nu_m = alpha + 0.5, alpha - 0.5
        j_p, j_m = sp.jv(nu_p, zc), sp.jv(nu_m, zc)
        y_p, y_m = sp.yv(nu_p, zc), sp.yv(nu_m, zc)
        hankel_sum = (np.abs(sp.hankel1(nu_p, zc) + sp.hankel2(nu_p, zc) - 2 * j_p)
                      / np.maximum(np.abs(j_p), 1e-300))
        cross = np.abs(j_p * y_m - j_m * y_p - 2.0 / (math.pi * zs)) * math.pi * zs / 2.0
        for z, h, c in zip(zc, hankel_sum, cross):
            rows += [("hankel_sum", alpha, complex(z), float(h)),
                     ("cross_product", alpha, complex(z), float(c))]
    # half-integer closed forms
    root = np.sqrt(2.0 / (math.pi * zs))
    pairs = [
        ("closed_j_half", sp.jv(0.5, zc), root * np.sin(zs)),
        ("closed_j_minus_half", sp.jv(-0.5, zc), root * np.cos(zs)),
        ("closed_h1_half", sp.hankel1(0.5, zc), -1j * root * np.exp(1j * zs)),
        ("closed_h1_minus_half", sp.hankel1(-0.5, zc), root * np.exp(1j * zs)),
        ("closed_h2_half", sp.hankel2(0.5, zc), 1j * root * np.exp(-1j * zs)),
        ("closed_h2_minus_half", sp.hankel2(-0.5, zc), root * np.exp(-1j * zs)),
    ]
    residuals = [np.abs(got - want) / np.abs(want) for _, got, want in pairs]
    for k, z in enumerate(zc):
        rows += [(name, 0.0, complex(z), float(r[k])) for (name, _, _), r in zip(pairs, residuals)]
    return rows
