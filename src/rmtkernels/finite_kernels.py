"""The three finite kernels built from monic polynomials and Cauchy transforms.

Family I pairs polynomial values, family II a Cauchy transform in the first
slot with a polynomial in the second, family III Cauchy transforms in both.
Families I and III have a vanishing numerator on the diagonal.  A pair
within 1e-7 max(1, |zeta|) of it takes the derivative (l'Hopital) form at
its midpoint (zeta + eta)/2: W is symmetric, so that form errs by
O(|zeta - eta|^2), and the quotient outside loses at most ~1e-9 to
cancellation.  Family III keeps the quotient for a pair on opposite sides
of the real axis, where h jumps.

:func:`kernel_grid` evaluates a kernel at every pair of two lists of
points.  Its columns are (F_lo, F_hi, log scale) rows, one per point,
cached on the table: the rows of all points not yet cached come from
one batched call, a Cauchy sum or a polynomial recurrence, and the rows
at the midpoints of all confluent pairs from two more, values and
derivatives.  The grid, confluent pairs included, is assembled as numpy
arrays of mantissas and log scales.  :class:`KernelGrids` does this for
the grids of several tables at once, a row of points per table, in one
array; kernel_grid is its one-table call.
A ScaledComplex is built only by the one-pair and one-point calls
:func:`w_kernel`, :func:`w_kernel_times_gap` and :func:`y_matrix`.
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


def confluence_threshold(zeta):
    return 1e-7 * np.maximum(1.0, np.abs(zeta))


def _kind(family: KernelFamily, side: int) -> str:
    """"h" if the family's slot holds Cauchy transforms, "pi" if it holds polynomials."""
    use_h = (family is KernelFamily.II and side == 0) or family is KernelFamily.III
    return "h" if use_h else "pi"


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


def kernel_grid(family: KernelFamily, t: RecurrenceTable, m: int, zetas, etas, gap=False):
    """W_{family, n+m}(zeta, eta) at every pair of ``zetas`` and ``etas``, or with ``gap`` (zeta - eta) W.

    Returns (mantissas, log scales), arrays of shape (len(zetas), len(etas))
    whose products are the values.  Pairs of families I and III within the
    confluence threshold of the diagonal (for family III, on one side of
    the axis) take the derivative form F'_hi F_lo - F'_lo F_hi at their
    midpoint, its value and derivative columns fetched in one batch each.
    """
    grids = KernelGrids(family, m, [zetas], [etas], gap)
    grids.fetch(t)
    mant, log = grids.assemble()
    return mant[0], log[0]


class KernelGrids:
    """Kernel grids on several tables, a row of ``zetas`` and of ``etas`` per table.

    :meth:`fetch` reads the next table's columns, after its degree and
    domain checks, so the first table that fails raises first;
    :meth:`assemble` then forms the numerators, log scales and quotients
    of every table as one (table, zeta, eta) array, each product in the
    layout of a one-table grid, and gives each table's confluent pairs
    their derivative form.  :func:`kernel_grid` is its one-table call.
    """

    def __init__(self, family: KernelFamily, m: int, zetas, etas, gap=False):
        zetas, etas = (np.asarray(v, dtype=complex).reshape(len(v), -1) for v in (zetas, etas))
        self.family, self.m, self.gap = family, m, gap
        self.kinds = _kind(family, 0), _kind(family, 1)
        self.zetas, self.etas = zetas, etas
        self.near = None  # the pairs that take the derivative form: families I and III
        with np.errstate(invalid="ignore"):  # a point that is not finite raises in fetch
            self.diff = zetas[:, :, None] - etas[:, None, :]
            if not gap and family is not KernelFamily.II:
                self.near = np.abs(self.diff) < confluence_threshold(zetas)[:, :, None]
                if family is KernelFamily.III:  # h jumps across the axis: no derivative form there
                    self.near &= (zetas.imag > 0)[:, :, None] == (etas.imag > 0)[:, None, :]
        self.rows = []  # per table: rows (F_lo, F_hi, log scale) at zetas and etas, confluent fix

    def fetch(self, t: RecurrenceTable):
        """Reads the columns of table ``t`` for the next row of points."""
        r, family = len(self.rows), self.family
        zetas, etas = self.zetas[r].tolist(), self.etas[r].tolist()
        hi, lo = _degrees(family, t, self.m, zetas, etas)
        if family is KernelFamily.II and not self.gap and set(zetas) & set(etas):
            raise CauchyDomainError(
                "W_II has a pole at zeta = eta; use w_kernel_times_gap for (zeta - eta) W_II"
            )
        kinds = self.kinds
        if kinds[0] == kinds[1]:  # one batch for the points of both arguments
            both = _pairs(t, kinds[0], lo, hi, zetas + etas)
            f, g = both[:len(zetas)], both[len(zetas):]
        else:
            f, g = (_pairs(t, kind, lo, hi, points) for kind, points in zip(kinds, (zetas, etas)))
        confluent = None
        if self.near is not None and self.near[r].any():
            i, k = np.nonzero(self.near[r])
            mid = [(zetas[a] + etas[c]) / 2 for a, c in zip(i.tolist(), k.tolist())]
            v, d = (_pairs(t, kinds[0], lo, hi, mid, derivative=der) for der in (False, True))
            confluent = i, k, v, d
        self.rows.append((f, g, confluent))

    def assemble(self):
        """(mantissas, log scales) of every fetched table's grid, arrays (table, zeta, eta)."""
        f, g = (np.stack(col) for col in list(zip(*self.rows))[:2])
        # F_hi(zeta) G_lo(eta) - F_lo(zeta) G_hi(eta)
        num = f[:, :, 1, None] * g[:, None, :, 0] - f[:, :, 0, None] * g[:, None, :, 1]
        log = f[:, :, 2, None].real + g[:, None, :, 2].real
        if self.gap:
            return num, log
        out = num / np.where(self.diff == 0, 1.0, self.diff)
        for r, (_, _, confluent) in enumerate(self.rows):
            if confluent is not None:
                i, k, v, d = confluent
                out[r, i, k] = d[:, 1] * v[:, 0] - d[:, 0] * v[:, 1]
                log[r, i, k] = (d[:, 2] + v[:, 2]).real
        return out, log


def w_kernel(family: KernelFamily, t: RecurrenceTable, m: int, zeta, eta) -> ScaledComplex:
    """W_{family, n+m}(zeta, eta) = (F_{n+m}(zeta) G_{n+m-1}(eta) - F_{n+m-1}(zeta) G_{n+m}(eta)) / (zeta - eta)."""
    mant, log = kernel_grid(family, t, m, [zeta], [eta])
    return ScaledComplex.from_parts(mant[0, 0], log[0, 0])


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
    rows = (_pairs(t, kind, lo, hi, [z])[0] for kind in ("pi", "h"))
    (p_lo, p_hi), (h_lo, h_hi) = ([ScaledComplex.from_parts(v, r[2].real) for v in r[:2]]
                                  for r in rows)
    factor = ScaledComplex.from_parts(-TWO_PI_I, t.log_gamma_sq(lo))
    return YColumns(y11=p_hi, y21=factor * p_lo, y12=h_hi, y22=factor * h_lo)
