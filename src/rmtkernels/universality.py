"""Convergence harness: scaled finite kernels against their Bessel limits.

For each case the finite kernel is evaluated at arguments shrunk by
1/(n psi(0)), multiplied by the squared leading coefficient and divided by
the explicit exponential prefactor; the remainder is an O(1) complex number
whose distance to the limiting kernel decays like 1/n.  The harness
measures that decay over a grid and fits the log-log rate, the closed-form
least-squares slope of log error against log n.  The kernel grids of
all sizes of a case come from one kernel_grids call over their tables,
which reads each n's columns from that n's table and assembles them as
one (n, zeta, eta) array; numpy then normalizes that array: log scales,
the prefactor and the check that the scales cancelled.  normalized_lhs
is its one-n, one-pair call.  Each n's table is built to degree
n + max(m, 0), the highest degree the kernel reads, so the kernel's
Cauchy columns at m = 0 take their grid values, pi_{n-2..n}, from the
table's Stieltjes pass.
"""

from __future__ import annotations

import enum
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bessel_limits import LimitKernelId, limit_grid, _check_half_planes, _HALF_PLANES, _PI
from .cauchy import CauchyDomainError
from .equilibrium import solve_equilibrium
from .finite_kernels import KernelFamily, kernel_grids
from .orthopoly import PotentialSpec, WeightSpec, build_recurrence


class ScaleCancellationError(RuntimeError):
    """The exponential bookkeeping failed to cancel; an implementation bug."""


class Theorem(enum.Enum):
    T1 = "T1"
    T2a = "T2a"
    T2b = "T2b"
    T3a = "T3a"
    T3b = "T3b"
    T3c = "T3c"


_FAMILY = {
    Theorem.T1: KernelFamily.I,
    Theorem.T2a: KernelFamily.II,
    Theorem.T2b: KernelFamily.II,
    Theorem.T3a: KernelFamily.III,
    Theorem.T3b: KernelFamily.III,
    Theorem.T3c: KernelFamily.III,
}

_LIMIT = {
    Theorem.T1: LimitKernelId.I,
    Theorem.T2a: LimitKernelId.II_plus,
    Theorem.T2b: LimitKernelId.II_minus,
    Theorem.T3a: LimitKernelId.III_plus,
    Theorem.T3b: LimitKernelId.III_pm,
    Theorem.T3c: LimitKernelId.III_minus,
}

_FREE_GRID = (0.4, -0.3, 1.1 + 0.5j, -0.8 - 0.6j)
_UPPER_ZETA = (0.5 + 0.15j, -0.4 + 0.6j, 1.3 + 0.3j, -1.1 + 0.9j)
_UPPER_ETA = (0.7 + 0.2j, -0.2 + 0.5j, 1.5 + 0.7j, -1.3 + 0.4j)

DEFAULT_N_LIST = (8, 16, 32, 64)


def default_grid(side: int, slot: int):
    """Reference evaluation points for one kernel argument.

    side: +1 upper half-plane, -1 lower, 0 unconstrained; slot 0/1
    distinguishes the two arguments so default grids never collide.
    """
    if side == 0:
        return _FREE_GRID if slot == 0 else tuple(z + 0.25 for z in _FREE_GRID)
    base = _UPPER_ZETA if slot == 0 else _UPPER_ETA
    if side > 0:
        return base
    return tuple(z.conjugate() for z in base)


def check_sizes(n_list, least: int):
    """ValueError unless ``n_list`` holds at least ``least`` sizes, strictly increasing."""
    if list(n_list) != sorted(set(n_list)):
        raise ValueError("n_list must be strictly increasing")
    if len(n_list) < least:
        raise ValueError(f"n_list needs at least {least} size(s), got {len(n_list)}")


@dataclass
class TheoremCase:
    theorem: Theorem
    alpha: float
    potential: PotentialSpec
    m: int = 0
    zeta_grid: tuple = None
    eta_grid: tuple = None
    n_list: tuple = DEFAULT_N_LIST

    def __post_init__(self):
        kid = _LIMIT[self.theorem]
        sz, se = _HALF_PLANES[kid]
        if self.zeta_grid is None:
            self.zeta_grid = default_grid(sz, 0)
        if self.eta_grid is None:
            self.eta_grid = default_grid(se, 1)
        checked = _check_half_planes(kid, self.zeta_grid, self.eta_grid)  # a ValueError
        self.zeta_grid, self.eta_grid = (tuple(p.tolist()) for p in checked)
        check_sizes(self.n_list, 2)


@dataclass
class ConvergenceReport:
    n_list: list
    errors: list                 # sup-grid error per n
    slope: float
    passed: bool
    worst: list                  # (n, zeta, eta, abs_err) of the worst grid point
    records: list = field(repr=False, default_factory=list)
    # rows: (n, zeta, eta, lhs, limit, abs_err)
    decay_ratio: float = math.nan   # e_last / e_first
    runtime_seconds: float = 0.0
    values: list = None          # used by ratio_convergence_check


@functools.lru_cache(maxsize=32)
def _cached_table(alpha: float, coeffs: tuple, n: int, m: int):
    """The table to degree n + m, the highest degree the kernel of shift m >= 0 reads."""
    w = WeightSpec(alpha, n, PotentialSpec(coeffs))
    return build_recurrence(w, n + m)


@functools.lru_cache(maxsize=8)
def _cached_equilibrium(coeffs: tuple):
    return solve_equilibrium(PotentialSpec(coeffs))


def _normalized_grid(fam: KernelFamily, alpha: float, p: PotentialSpec, m: int, n_list,
                     zetas, etas) -> np.ndarray:
    """normalized_lhs at every n of ``n_list`` and pair of ``zetas`` and ``etas``, as an array.

    The tables are built and their columns read in the order of
    ``n_list``, so the first failing n raises first; every n's grid is
    assembled and normalized as one (n, zeta, eta) array.  A
    ScaleCancellationError names the first failing point.
    """
    zetas, etas = np.asarray(zetas, dtype=complex), np.asarray(etas, dtype=complex)
    eq = _cached_equilibrium(p.coeffs)
    drift = eq.v_prime_at_0 / (2.0 * eq.psi0)
    s = np.array([n * eq.psi0 for n in n_list])[:, None]
    gap = fam is KernelFamily.II
    tables = [_cached_table(alpha, p.coeffs, n, max(m, 0)) for n in n_list]  # one for every m <= 0
    mant, log = kernel_grids(fam, m, tables, zetas / s, etas / s, gap)  # a row of points per n
    # gamma^2 W / s, or gamma^2 (zeta - eta) W for family II, over e^pref; after the
    # columns, whose degree checks come first
    shift = [(t.log_gamma_sq(n + m - 1), log_s, 2.0 * alpha * log_s + n * eq.v_at_0)
             for n, t in zip(n_list, tables) for log_s in [math.log(n * eq.psi0)]]
    gamma, log_s, amps = (np.array(c)[:, None, None] for c in zip(*shift))
    log = log + gamma
    if not gap:
        log -= log_s
    zeta, eta = zetas[:, None], etas[None, :]
    if gap:
        pref = -drift * (zeta - eta)
    else:
        pref = amps + drift * (zeta + eta)
        if fam is KernelFamily.III:
            pref = -pref
    mag = np.abs(mant)
    with np.errstate(divide="ignore", invalid="ignore"):
        la = log - pref.real + np.log(mag)
        value = np.where(mag > 0, mant / mag * np.exp(la - 1j * pref.imag), 0.0)
    bad = np.isfinite(la) & (np.abs(la) > 60.0)
    if bad.any():
        i, j, k = np.argwhere(bad)[0]
        raise ScaleCancellationError(
            f"normalized kernel has log magnitude {la[i, j, k]:.1f}; the exponential scales "
            f"failed to cancel (n={n_list[i]}, zeta={complex(zetas[j])}, eta={complex(etas[k])})"
        )
    return value


def _slope(n_list, errors) -> float:
    """Least-squares slope of log error against log n, from two centred dot products."""
    x, y = np.log(n_list), np.log(errors)
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


def normalized_lhs(case: TheoremCase, n: int, zeta, eta) -> complex:
    """Finite-kernel side with the scaling and exponential prefactor removed."""
    return complex(_normalized_grid(_FAMILY[case.theorem], case.alpha, case.potential, case.m,
                                    [n], [zeta], [eta])[0, 0, 0])


def convergence_study(case: TheoremCase) -> ConvergenceReport:
    """The case's sizes are normalized as one array; records run over n, zeta, then eta."""
    start = time.perf_counter()
    pairs = [(zeta, eta) for zeta in case.zeta_grid for eta in case.eta_grid]
    # the limits do not depend on n: one limit grid per case
    targets = limit_grid(_LIMIT[case.theorem], case.alpha, case.zeta_grid, case.eta_grid).ravel()
    if _FAMILY[case.theorem] is KernelFamily.II:  # the normalized kernel carries the gap
        targets = np.array([(zeta - eta) * v for (zeta, eta), v in zip(pairs, targets.tolist())])
    lhs = _normalized_grid(_FAMILY[case.theorem], case.alpha, case.potential, case.m,
                           case.n_list, case.zeta_grid, case.eta_grid).reshape(-1, len(pairs))
    err = np.abs(lhs - targets)
    tgts, rows = targets.tolist(), err.tolist()
    records = [(n, zeta, eta, v, tgt, e) for n, lhs_row, row in zip(case.n_list, lhs.tolist(), rows)
               for (zeta, eta), v, tgt, e in zip(pairs, lhs_row, tgts, row)]
    worst = [(n, *pairs[i], row[i])
             for n, i, row in zip(case.n_list, np.argmax(err, axis=1).tolist(), rows)]
    for w_pt in worst:
        if not math.isfinite(w_pt[-1]):
            raise ScaleCancellationError(f"non-finite error at n={w_pt[0]}, point {w_pt}")
    errors = [w_pt[-1] for w_pt in worst]
    slope = _slope(case.n_list, errors)
    decay_ratio = errors[-1] / errors[0] if errors[0] > 0 else math.nan
    passed = -1.5 <= slope <= -0.6 and errors[-1] < errors[0]
    return ConvergenceReport(
        n_list=list(case.n_list), errors=errors, slope=slope, passed=passed,
        worst=worst, records=records, decay_ratio=decay_ratio,
        runtime_seconds=time.perf_counter() - start,
    )


def ratio_convergence_check(alpha: float, p: PotentialSpec, zeta,
                            n_list=DEFAULT_N_LIST) -> ConvergenceReport:
    """2 pi i gamma^2 (zeta - eta) W_II at eta = zeta after origin scaling.

    The value is identically 1 at every finite n (it is the average of a
    ratio of identical characteristic polynomials), so the reported
    |value - 1| measures the numerical pipeline, not an asymptotic rate.
    """
    check_sizes(n_list, 1)
    zeta = complex(zeta)
    if zeta.imag == 0.0:
        raise CauchyDomainError("ratio check needs Im zeta != 0")
    start = time.perf_counter()
    grid = _normalized_grid(KernelFamily.II, alpha, p, 0, n_list, [zeta], [zeta])
    values = [2j * _PI * v for v in grid.ravel().tolist()]
    errors = [abs(val - 1.0) for val in values]
    slope = _slope(n_list, np.maximum(errors, 1e-300)) if len(n_list) > 1 else math.nan
    passed = all(e < 0.1 for e in errors)
    return ConvergenceReport(
        n_list=list(n_list), errors=errors, slope=slope, passed=passed,
        worst=[], records=[], decay_ratio=errors[-1] / errors[0] if errors[0] else math.nan,
        runtime_seconds=time.perf_counter() - start, values=values,
    )
