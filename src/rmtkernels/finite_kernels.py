"""The three finite kernels built from monic polynomials and Cauchy transforms.

Family I pairs polynomial values, family II a Cauchy transform in the first
slot with a polynomial in the second, family III Cauchy transforms in both.
Families I and III have a vanishing numerator on the diagonal.  A pair
within 1e-7 max(1, |zeta|) of it takes the derivative (l'Hopital) form at
its midpoint (zeta + eta)/2: W is symmetric, so that form errs by
O(|zeta - eta|^2), and the quotient outside loses at most ~1e-9 to
cancellation.  Family III keeps the quotient for a pair on opposite sides
of the real axis, where h jumps.

:func:`kernel_grids` evaluates a kernel at every pair of two lists of
points, on one table or on several, a row of points per table.  Its
columns are (F_lo, F_hi, log scale) rows, one per point, cached on the
table: the rows of all points not yet cached come from one batched call,
a Cauchy sum or a polynomial recurrence, and the rows at the midpoints of
all confluent pairs from two more, values and derivatives.  The grids,
confluent pairs included, are assembled as one numpy array of mantissas
and one of log scales.
A ScaledComplex is built only by the one-pair and one-point calls
:func:`w_kernel`, :func:`w_kernel_times_gap` and :func:`y_matrix`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .cauchy import _TINY, CauchyDomainError, cauchy_transforms
from .orthopoly import DegreeError, RecurrenceTable, _check_degree, monic_values_scaled
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


def confluence_threshold(zeta):
    return 1e-7 * np.maximum(1.0, np.abs(zeta))


# the column each slot reads: "pi" polynomials, "h" Cauchy transforms
_KINDS = {KernelFamily.I: ("pi", "pi"), KernelFamily.II: ("h", "pi"), KernelFamily.III: ("h", "h")}


def _pairs(t, kind, lo, hi, zs, derivative=False) -> np.ndarray:
    """Rows (F_lo(z), F_hi(z), log scale) for z in zs of the column ``kind`` ("pi" or "h").

    With ``derivative`` the rows hold F'_lo and F'_hi.  Each pair is under
    its larger log scale: the scales differ by O(1), so the ratio of F_hi
    to F_lo keeps its relative accuracy, however large the scales are.  The
    rows form a complex array; the log scale is the real part of its last
    column.  Each row is cached on ``t`` under
    (kind, derivative, (lo, hi), z), so a kernel grid evaluates every
    column once per point instead of once per pair of points.  Below the
    axis the cache holds the row at conj z, so a point and its mirror image
    share one entry: pi_j(conj z) = conj pi_j(z) and h_j(conj z) =
    -conj h_j(z), and so for the derivatives.  The pairs not yet cached
    come from one batched call over their points, :func:`cauchy_transforms`
    or :func:`monic_values_scaled`, whose results end in (column, log scale).
    """
    def compute(missing):
        zs = np.array([z for *_, z in missing])
        batch = cauchy_transforms if kind == "h" else monic_values_scaled
        # the recurrence runs a lone point several times faster as a number
        out = batch(t, (lo, hi), zs.item() if zs.size == 1 and kind == "pi" else zs, derivative)
        cols = zip(*(np.ravel(v).tolist() for j in (lo, hi) for v in out[j][-2:]))
        return [(f_lo * math.exp(s_lo - top), f_hi * math.exp(s_hi - top), top)
                for f_lo, s_lo, f_hi, s_hi in cols for top in [max(s_lo, s_hi)]]

    sign = -1.0 if kind == "h" else 1.0
    rows = t.memo([(kind, derivative, (lo, hi), z.conjugate() if z.imag < 0 else z) for z in zs],
                  compute)
    return np.array([(sign * f_lo.conjugate(), sign * f_hi.conjugate(), top) if z.imag < 0
                     else (f_lo, f_hi, top) for z, (f_lo, f_hi, top) in zip(zs, rows)],
                    dtype=complex).reshape(-1, 3)


def _degrees(t: RecurrenceTable, m: int):
    """Degrees (n+m, n+m-1) of the kernel, after the degree checks."""
    hi = t.weight.n + m
    if hi < 1 or hi > t.max_degree:
        raise DegreeError(f"kernel degrees ({hi - 1},{hi}) outside table range")
    hi = _check_degree(hi, t.max_degree)
    return hi, hi - 1


def kernel_grids(family: KernelFamily, m: int, tables, zetas, etas, gap=False):
    """W_{family, n+m} on each of ``tables``, or with ``gap`` (zeta - eta) W.

    ``zetas`` and ``etas`` hold a row of points per table, and each table's
    kernel is taken at every pair of its row's points.  Returns (mantissas,
    log scales), arrays (table, zeta, eta) whose products are the values.
    The tables' columns are read in list order, each table's after its
    degree checks, so the first table that fails raises first; the grids
    are then formed as one array, each product in the layout of a
    one-table grid.
    """
    zetas, etas = (np.asarray(v, dtype=complex).reshape(len(tables), -1) for v in (zetas, etas))
    kinds = _KINDS[family]
    near = None  # the pairs that take the derivative form: families I and III
    with np.errstate(invalid="ignore"):  # a point that is not finite raises in _pairs
        diff = zetas[:, :, None] - etas[:, None, :]
        if not gap and family is not KernelFamily.II:
            near = np.abs(diff) < confluence_threshold(zetas)[:, :, None]
            if family is KernelFamily.III:  # h jumps across the axis: no derivative form there
                near &= (zetas.imag > 0)[:, :, None] == (etas.imag > 0)[:, None, :]
    cols, confluent = [], []  # per table (F rows at zetas, G rows at etas); derivative forms
    for r, (t, zs, es) in enumerate(zip(tables, zetas.tolist(), etas.tolist())):
        hi, lo = _degrees(t, m)
        # a gap below the smallest normal double is the pole in the doubles: 1/gap overflows
        if family is KernelFamily.II and not gap and (abs(diff[r]) < _TINY).any():
            raise CauchyDomainError(
                "W_II has a pole at zeta = eta; use w_kernel_times_gap for (zeta - eta) W_II"
            )
        if kinds[0] == kinds[1]:  # one batch for the points of both arguments
            both = _pairs(t, kinds[0], lo, hi, zs + es)
            cols.append((both[:len(zs)], both[len(zs):]))
        else:
            cols.append(tuple(_pairs(t, kind, lo, hi, points)
                              for kind, points in zip(kinds, (zs, es))))
        if near is not None and near[r].any():
            i, k = np.nonzero(near[r])
            mid = [(zs[a] + es[c]) / 2 for a, c in zip(i.tolist(), k.tolist())]
            v, d = (_pairs(t, kinds[0], lo, hi, mid, derivative=der) for der in (False, True))
            confluent.append((r, i, k, v, d))
    f, g = (np.stack(col) for col in zip(*cols))
    # F_hi(zeta) G_lo(eta) - F_lo(zeta) G_hi(eta)
    num = f[:, :, 1, None] * g[:, None, :, 0] - f[:, :, 0, None] * g[:, None, :, 1]
    log = f[:, :, 2, None].real + g[:, None, :, 2].real
    if gap:
        return num, log
    out = num / (diff if near is None else np.where(near, 1.0, diff))  # near: overwritten
    for r, i, k, v, d in confluent:
        out[r, i, k] = d[:, 1] * v[:, 0] - d[:, 0] * v[:, 1]
        log[r, i, k] = (d[:, 2] + v[:, 2]).real
    return out, log


def w_kernel(family: KernelFamily, t: RecurrenceTable, m: int, zeta, eta) -> ScaledComplex:
    """W_{family, n+m}(zeta, eta) = (F_{n+m}(zeta) G_{n+m-1}(eta) - F_{n+m-1}(zeta) G_{n+m}(eta)) / (zeta - eta)."""
    mant, log = kernel_grids(family, m, [t], [zeta], [eta])
    return ScaledComplex.from_parts(mant[0, 0, 0], log[0, 0, 0])


def w_kernel_times_gap(family: KernelFamily, t: RecurrenceTable, m: int,
                       zeta, eta) -> ScaledComplex:
    """(zeta - eta) * W_{family,n+m}(zeta, eta), finite on the diagonal for family II."""
    mant, log = kernel_grids(family, m, [t], [zeta], [eta], gap=True)
    return ScaledComplex.from_parts(mant[0, 0, 0], log[0, 0, 0])


def y_matrix(t: RecurrenceTable, m: int, z) -> YColumns:
    """The RH solution matrix: polynomials in column 1, Cauchy transforms in column 2."""
    z = complex(z)
    hi, lo = _degrees(t, m)
    rows = (_pairs(t, kind, lo, hi, [z])[0] for kind in ("pi", "h"))
    (p_lo, p_hi), (h_lo, h_hi) = ([ScaledComplex.from_parts(v, r[2].real) for v in r[:2]]
                                  for r in rows)
    factor = ScaledComplex.from_parts(-TWO_PI_I, t.log_gamma_sq(lo))
    return YColumns(y11=p_hi, y21=factor * p_lo, y12=h_hi, y22=factor * h_lo)
