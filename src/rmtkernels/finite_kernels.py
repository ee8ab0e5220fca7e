"""The three finite kernels built from monic polynomials and Cauchy transforms.

Family I pairs polynomial values, family II a Cauchy transform in the first
slot with a polynomial in the second, family III Cauchy transforms in both.
Families I and III have a vanishing numerator on the diagonal and are
switched to the derivative (l'Hopital) form near it.

:func:`kernel_grid` evaluates a kernel at every pair of two lists of
points: the columns come per point through the table's cache, the Cauchy
columns of all points not yet cached from one batched sum, and the grid is
assembled as numpy arrays of mantissas and log scales.  :func:`w_kernel`
and :func:`w_kernel_times_gap` are its one-pair calls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

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


def confluence_threshold(zeta):
    return 1e-4 * np.maximum(1.0, np.abs(zeta))


def _kind(family: KernelFamily, side: int) -> str:
    """"h" if the family's slot holds Cauchy transforms, "pi" if it holds polynomials."""
    use_h = (family is KernelFamily.II and side == 0) or family is KernelFamily.III
    return "h" if use_h else "pi"


def _pairs(t, kind, lo, hi, zs, derivative=False):
    """[(F_lo(z), F_hi(z)) for z in zs] for the column ``kind`` ("pi" or "h"), or their derivatives.

    Each pair is cached on ``t`` under (kind, derivative, (lo, hi), z), so a
    kernel grid evaluates every column once per point instead of once per
    pair of points.  Below the axis the cache holds the pair at conj z, so
    a point and its mirror image share one entry: pi_j(conj z) =
    conj pi_j(z) and h_j(conj z) = -conj h_j(z), and so for the derivatives.
    One :func:`cauchy_transforms` call sums every Cauchy pair not yet
    cached; a polynomial pair is one one-point recurrence.
    """
    def compute(missing):
        us = [z for *_, z in missing]
        if kind == "h":
            h = cauchy_transforms(t, (lo, hi), np.array(us), power=2 if derivative else 1)
            return list(zip(h[lo], h[hi]))
        out = []
        for z in us:
            cols = monic_values_scaled(t, (lo, hi), z, derivative=derivative)
            # (value, log scale), or (value, derivative, log scale)
            out.append(tuple(ScaledComplex.from_parts(c[-2], c[-1]) for c in (cols[lo], cols[hi])))
        return out

    sign = -1.0 if kind == "h" else 1.0
    pairs = t.memo([(kind, derivative, (lo, hi), z.conjugate() if z.imag < 0 else z) for z in zs],
                   compute)
    return [tuple(sign * v.conjugate() for v in pair) if z.imag < 0 else pair
            for z, pair in zip(zs, pairs)]


def _degrees(family: KernelFamily, t: RecurrenceTable, m: int, zetas, etas):
    """Degrees (n+m, n+m-1) of the kernel, after the degree and domain checks."""
    n = t.weight.n
    hi, lo = n + m, n + m - 1
    if lo < 0 or hi > t.max_degree:
        raise DegreeError(f"kernel degrees ({lo},{hi}) outside table range")
    if family in (KernelFamily.II, KernelFamily.III) and not all(z.imag for z in zetas):
        raise CauchyDomainError("family II/III kernels need Im zeta != 0")
    if family is KernelFamily.III and not all(z.imag for z in etas):
        raise CauchyDomainError("family III kernels need Im eta != 0")
    return hi, lo


def _scaled_pairs(pairs):
    """(F_lo, F_hi, log scale): arrays over the points, each pair under its larger log scale.

    Within a pair the log scales differ by O(1), so the ratio of F_hi to
    F_lo keeps its relative accuracy, however large the scales are.
    """
    rows = []
    for pair in pairs:
        top = max((v.log_scale for v in pair if v.mantissa), default=0.0)
        rows.append([v.mantissa * math.exp(v.log_scale - top) if v.mantissa else 0j
                     for v in pair] + [top])
    rows = np.array(rows)
    return rows[:, 0], rows[:, 1], rows[:, 2].real


def kernel_grid(family: KernelFamily, t: RecurrenceTable, m: int, zetas, etas, gap=False):
    """W_{family, n+m}(zeta, eta) at every pair of ``zetas`` and ``etas``, or with ``gap`` (zeta - eta) W.

    Returns (mantissas, log scales), arrays of shape (len(zetas), len(etas))
    whose products are the values.  Pairs of families I and III near the
    diagonal, or whose numerator cancels beyond 1e-12, take the derivative
    form one by one.
    """
    zetas = np.asarray(zetas, dtype=complex).reshape(-1).tolist()
    etas = np.asarray(etas, dtype=complex).reshape(-1).tolist()
    hi, lo = _degrees(family, t, m, zetas, etas)
    if family is KernelFamily.II and not gap and set(zetas) & set(etas):
        raise CauchyDomainError(
            "W_II has a pole at zeta = eta; use w_kernel_times_gap for (zeta - eta) W_II"
        )
    kinds = _kind(family, 0), _kind(family, 1)
    if kinds[0] == kinds[1]:  # one batch for the points of both arguments
        both = _pairs(t, kinds[0], lo, hi, zetas + etas)
        cols = both[:len(zetas)], both[len(zetas):]
    else:
        cols = (_pairs(t, kind, lo, hi, points) for kind, points in zip(kinds, (zetas, etas)))
    (f_lo, f_hi, f_log), (g_lo, g_hi, g_log) = map(_scaled_pairs, cols)
    # F_hi(zeta) G_lo(eta) - F_lo(zeta) G_hi(eta)
    a, b = f_hi[:, None] * g_lo[None, :], f_lo[:, None] * g_hi[None, :]
    num, log = a - b, f_log[:, None] + g_log[None, :]
    if gap:
        return num, log
    diff = np.subtract.outer(zetas, etas)
    out = num / np.where(diff == 0, 1.0, diff)
    if family is not KernelFamily.II:
        mags = np.maximum(np.abs(a), np.abs(b))
        # the threshold, and a guard against catastrophic cancellation just outside it
        confluent = (np.abs(diff) < confluence_threshold(np.array(zetas))[:, None]) \
            | ((mags > 0) & (np.abs(num) < 1e-12 * mags))
        for i, k in zip(*np.nonzero(confluent)):
            v = _confluent(family, t, hi, lo, zetas[i])
            out[i, k], log[i, k] = v.mantissa, v.log_scale
    return out, log


def w_kernel(family: KernelFamily, t: RecurrenceTable, m: int, zeta, eta) -> ScaledComplex:
    """W_{family, n+m}(zeta, eta) = (F_{n+m}(zeta) G_{n+m-1}(eta) - F_{n+m-1}(zeta) G_{n+m}(eta)) / (zeta - eta)."""
    mant, log = kernel_grid(family, t, m, [zeta], [eta])
    return ScaledComplex.from_parts(mant[0, 0], log[0, 0])


def _confluent(family, t, hi, lo, zeta) -> ScaledComplex:
    """Diagonal limit F'_{hi} F_{lo} - F'_{lo} F_{hi} at zeta."""
    (f_lo, f_hi), = _pairs(t, _kind(family, 0), lo, hi, [zeta])
    (d_lo, d_hi), = _pairs(t, _kind(family, 0), lo, hi, [zeta], derivative=True)
    return d_hi * f_lo - d_lo * f_hi


def w_kernel_times_gap(family: KernelFamily, t: RecurrenceTable, m: int,
                       zeta, eta) -> ScaledComplex:
    """(zeta - eta) * W_{family,n+m}(zeta, eta), finite on the diagonal for family II."""
    mant, log = kernel_grid(family, t, m, [zeta], [eta], gap=True)
    return ScaledComplex.from_parts(mant[0, 0], log[0, 0])


def y_matrix(t: RecurrenceTable, m: int, z) -> YColumns:
    """The RH solution matrix: polynomials in column 1, Cauchy transforms in column 2."""
    z = complex(z)
    n = t.weight.n
    hi, lo = n + m, n + m - 1
    if z.imag == 0.0:
        raise CauchyDomainError("second column of Y needs Im z != 0")
    (p_lo, p_hi), = _pairs(t, "pi", lo, hi, [z])
    (h_lo, h_hi), = _pairs(t, "h", lo, hi, [z])
    factor = ScaledComplex.from_parts(-TWO_PI_I, t.log_gamma_sq(lo))
    return YColumns(y11=p_hi, y21=factor * p_lo, y12=h_hi, y22=factor * h_lo)
