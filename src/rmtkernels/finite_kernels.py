"""The three finite kernels built from monic polynomials and Cauchy transforms.

Family I pairs polynomial values, family II a Cauchy transform in the first
slot with a polynomial in the second, family III Cauchy transforms in both.
Families I and III have a vanishing numerator on the diagonal and are
switched to the derivative (l'Hopital) form near it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .cauchy import CauchyDomainError, cauchy_transforms
from .orthopoly import DegreeError, RecurrenceTable, monic_values_scaled
from .scaled import ScaledComplex

TWO_PI_I = 2j * 3.141592653589793


class KernelFamily(enum.Enum):
    I = "I"
    II = "II"
    III = "III"


@dataclass(frozen=True)
class YColumns:
    """Entries of the 2x2 matrix solving the orthogonal-polynomial RH problem."""

    y11: ScaledComplex
    y21: ScaledComplex
    y12: ScaledComplex
    y22: ScaledComplex

    def det(self) -> ScaledComplex:
        return self.y11 * self.y22 - self.y12 * self.y21


def confluence_threshold(zeta: complex) -> float:
    return 1e-4 * max(1.0, abs(zeta))


def _kind(family: KernelFamily, side: int) -> str:
    """"h" if the family's slot holds Cauchy transforms, "pi" if it holds polynomials."""
    use_h = (family is KernelFamily.II and side == 0) or family is KernelFamily.III
    return "h" if use_h else "pi"


def _pair(t, kind, lo, hi, z, derivative=False):
    """(F_lo(z), F_hi(z)) for the column ``kind`` ("pi" or "h"), or their derivatives.

    Both degrees come from one evaluation: one recurrence for the polynomial
    column, one :func:`cauchy_transforms` call for the Cauchy column.  The
    pair is cached on ``t`` under (kind, derivative, (lo, hi), z), so a
    kernel grid evaluates every column once per point instead of once per
    pair of points.  Below the axis the cache holds the pair at conj z, so
    a point and its mirror image share one entry: pi_j(conj z) =
    conj pi_j(z) and h_j(conj z) = -conj h_j(z), and so for the derivatives.
    """
    below = z.imag < 0

    def mirror(pair):
        if not below:
            return pair
        return tuple(-v.conjugate() if kind == "h" else v.conjugate() for v in pair)

    if kind == "h":
        def compute():
            h = cauchy_transforms(t, (lo, hi), z, power=2 if derivative else 1)
            return mirror((h[lo], h[hi]))
    else:
        def compute():
            cols = monic_values_scaled(t, (lo, hi), z, derivative=derivative)
            # (value, log scale), or (value, derivative, log scale)
            return mirror(tuple(ScaledComplex.from_parts(c[-2], c[-1]) for c in (cols[lo], cols[hi])))
    return mirror(t.memo((kind, derivative, (lo, hi), z.conjugate() if below else z), compute))


def _degrees(family: KernelFamily, t: RecurrenceTable, m: int, zeta: complex, eta: complex):
    """Degrees (n+m, n+m-1) of the kernel, after the degree and domain checks."""
    n = t.weight.n
    hi, lo = n + m, n + m - 1
    if lo < 0 or hi > t.max_degree:
        raise DegreeError(f"kernel degrees ({lo},{hi}) outside table range")
    if family in (KernelFamily.II, KernelFamily.III) and zeta.imag == 0.0:
        raise CauchyDomainError("family II/III kernels need Im zeta != 0")
    if family is KernelFamily.III and eta.imag == 0.0:
        raise CauchyDomainError("family III kernels need Im eta != 0")
    return hi, lo


def _numerator_terms(family, t, hi, lo, zeta, eta):
    """F_hi(zeta) G_lo(eta) and F_lo(zeta) G_hi(eta); the numerator is their difference."""
    f_lo, f_hi = _pair(t, _kind(family, 0), lo, hi, zeta)
    g_lo, g_hi = _pair(t, _kind(family, 1), lo, hi, eta)
    return f_hi * g_lo, f_lo * g_hi


def w_kernel(family: KernelFamily, t: RecurrenceTable, m: int, zeta, eta) -> ScaledComplex:
    """W_{family, n+m}(zeta, eta) = (F_{n+m}(zeta) G_{n+m-1}(eta) - F_{n+m-1}(zeta) G_{n+m}(eta)) / (zeta - eta)."""
    zeta, eta = complex(zeta), complex(eta)
    hi, lo = _degrees(family, t, m, zeta, eta)
    diagonal = family in (KernelFamily.I, KernelFamily.III)
    if diagonal and abs(zeta - eta) < confluence_threshold(zeta):
        return _confluent(family, t, hi, lo, zeta)
    if family is KernelFamily.II and zeta == eta:
        raise CauchyDomainError(
            "W_II has a pole at zeta = eta; use w_kernel_times_gap for (zeta - eta) W_II"
        )

    hi_lo, lo_hi = _numerator_terms(family, t, hi, lo, zeta, eta)
    num = hi_lo - lo_hi
    if diagonal:
        # guard against catastrophic cancellation just outside the threshold
        mags = max(abs(hi_lo), abs(lo_hi))
        if mags > 0 and abs(num) < 1e-12 * mags:
            return _confluent(family, t, hi, lo, zeta)
    return num / ScaledComplex.from_complex(zeta - eta)


def _confluent(family, t, hi, lo, zeta) -> ScaledComplex:
    """Diagonal limit F'_{hi} F_{lo} - F'_{lo} F_{hi} at zeta."""
    f_lo, f_hi = _pair(t, _kind(family, 0), lo, hi, zeta)
    d_lo, d_hi = _pair(t, _kind(family, 0), lo, hi, zeta, derivative=True)
    return d_hi * f_lo - d_lo * f_hi


def w_kernel_times_gap(family: KernelFamily, t: RecurrenceTable, m: int,
                       zeta, eta) -> ScaledComplex:
    """(zeta - eta) * W_{family,n+m}(zeta, eta), finite on the diagonal for family II."""
    zeta, eta = complex(zeta), complex(eta)
    hi, lo = _degrees(family, t, m, zeta, eta)
    hi_lo, lo_hi = _numerator_terms(family, t, hi, lo, zeta, eta)
    return hi_lo - lo_hi


def y_matrix(t: RecurrenceTable, m: int, z) -> YColumns:
    """The RH solution matrix: polynomials in column 1, Cauchy transforms in column 2."""
    z = complex(z)
    n = t.weight.n
    hi, lo = n + m, n + m - 1
    if z.imag == 0.0:
        raise CauchyDomainError("second column of Y needs Im z != 0")
    p_lo, p_hi = _pair(t, "pi", lo, hi, z)
    h_lo, h_hi = _pair(t, "h", lo, hi, z)
    factor = ScaledComplex.from_parts(-TWO_PI_I, t.log_gamma_sq(lo))
    return YColumns(y11=p_hi, y21=factor * p_lo, y12=h_hi, y22=factor * h_lo)
