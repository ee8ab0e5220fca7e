"""Composite Gauss panels for the varying weight |x|^(2a) e^(-nV).

The weight spans hundreds of orders of magnitude across the integration
range, so every grid stores the smooth part of the weight in log form:
the panels integrate  f -> sum qw * e^(logw) * f(x),  where for ordinary
Gauss-Legendre panels logw = 2a log|x| - nV(x).  The two panels touching
the origin are always Gauss-Jacobi with exponent 2a (Gauss-Legendre at
a = 0), so the |x|^(2a) factor is absorbed into the quadrature weights qw
and logw = -nV(x) there.

That rule is :func:`weighted_rule`, the one way a Gauss panel carries the
weight: it builds the grid's panels here and the pieces into which
:mod:`rmtkernels.cauchy` refines the panels near z.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@functools.lru_cache(maxsize=256)
def _leggauss(order: int):
    return np.polynomial.legendre.leggauss(order)


@functools.lru_cache(maxsize=256)
def _jacgauss(order: int, beta: float):
    """Nodes/weights for the integral over [-1, 1] of (1+t)^beta f(t).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials P^(0, beta), the weights mu_0 times the squared first
    components of its eigenvectors.
    """
    k = np.arange(1, order, dtype=float)
    s = 2.0 * k + beta
    diag = np.empty(order)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = np.sqrt(4.0 * k * k * (k + beta) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (beta + 1.0) / (beta + 1.0)
    return x, mu0 * v[0] ** 2


def legendre_panel(a: float, b: float, order: int):
    t, w = _leggauss(order)
    half = 0.5 * (b - a)
    return a + half * (t + 1.0), half * w


def jacobi_panel(d: float, order: int, beta: float):
    """Nodes/weights for the integral over [0, d] (d may be negative) of |x|^beta f(x)."""
    t, w = _jacgauss(order, beta)
    ad = abs(d)
    x = 0.5 * ad * (t + 1.0)
    qw = w * (0.5 * ad) ** (beta + 1.0)
    if d < 0:
        return -x[::-1], qw[::-1]
    return x, qw


@dataclass
class WeightGrid:
    """Flat node set for one weight, with panel bookkeeping."""

    x: np.ndarray
    qw: np.ndarray        # positive quadrature weights (incl. |x|^2a on Jacobi panels)
    logw: np.ndarray      # log of the remaining weight factor at each node
    # (a, b, start, stop): arrays over the panels, sorted by a; panel i is
    # [a[i], b[i]] with nodes [start[i], stop[i]) in the flat arrays
    panels: tuple = ()


def weighted_rule(x0, lo, hi, order: int, w):
    """Order-``order`` Gauss rules for the weight ``w`` on the pieces [x0 + lo, x0 + hi].

    Returns (x0, offset, qw, logw) per node, ``order`` nodes per piece in the
    order of the pieces.  A piece with an end at 0 is Gauss-Jacobi with
    |x|^(2a) in qw; the others are Gauss-Legendre with 2a log|x| in logw.
    Every piece carries -nV in logw.
    """
    off, qw = legendre_panel(lo[:, None], hi[:, None], order)
    logw = 2.0 * w.alpha * np.log(np.abs(x0[:, None] + off))
    for i in np.flatnonzero((x0 + lo == 0.0) | (x0 + hi == 0.0)):
        end = x0[i] + (hi[i] if x0[i] + lo[i] == 0.0 else lo[i])
        xj, qw[i] = jacobi_panel(end, order, 2.0 * w.alpha)
        off[i], logw[i] = xj - x0[i], 0.0
    base, off = np.repeat(x0, order), off.ravel()
    return base, off, qw.ravel(), logw.ravel() - w.n * w.potential(base + off)


def _tail_edges(start: float, end: float):
    """Edges from |start| out to |end| (same sign), widths growing by 1.7."""
    edges = [start]
    width = abs(start) * 0.5 + 1e-3
    cur = start
    sgn = 1.0 if end >= start else -1.0
    while abs(cur) < abs(end):
        cur = cur + sgn * width
        if abs(cur) >= abs(end):
            cur = end
        edges.append(cur)
        width *= 1.7
    return edges


def cutoff_radius(w, direction: float) -> float:
    """Smallest L = 1.3^k, k < 200, with n V(sgn L) - max(0, 2a) log L above 750 (underflow)."""
    r = np.cumprod(np.r_[1.0, np.full(199, 1.3)])
    with np.errstate(over="ignore"):
        margin = w.n * w.potential(direction * r) - max(0.0, 2.0 * w.alpha) * np.log(r) - 750.0
    hit = np.flatnonzero(margin > 0)
    if hit.size == 0:
        raise ValueError("potential does not grow fast enough for a finite cutoff")
    return float(r[hit[0]])


def dense_radius(p, direction: float) -> float:
    """Radius covering the oscillatory region (equilibrium support plus margin).

    The support is set by the potential ``p`` alone, so the criterion
    V - min V >= 8 is n-independent.  The radius is the first 0.05 * 1.05^k
    meeting it, or reaching 1e3.
    """
    vmin = p(np.linspace(-6, 6, 1201)).min()
    r = np.cumprod(np.r_[0.05, np.full(204, 1.05)])  # r[-1] > 1e3
    with np.errstate(over="ignore"):
        done = ~(p(direction * r) - vmin < 8.0) | (r >= 1e3)
    return float(r[np.argmax(done)])


def build_weight_grid(w, dense_panels: int, order: int = 20, jacobi_order: int = 48) -> WeightGrid:
    """Composite Gauss grid for the weight ``w`` (a WeightSpec) out to its underflow cutoffs.

    Each side of 0 holds, going outward: the origin panel at ``jacobi_order``,
    ``dense_panels - 1`` uniform panels out to the dense radius at ``order``,
    and panels growing by 1.7 out to the cutoff at ``max(12, order - 4)``.
    The dense region is not cut at the cutoff: at large n the weight
    underflows inside the support, where pi_j^2 w does not (Mhaskar & Saff,
    Trans. AMS 285, 1984).
    """
    rules, panels = [], []
    for sgn in (-1.0, 1.0):
        far = sgn * cutoff_radius(w, sgn)
        dense = sgn * dense_radius(w.potential, sgn)
        inner = abs(dense) / dense_panels
        kinds = [(np.array([0.0, sgn * inner]), jacobi_order),
                 (np.linspace(sgn * inner, dense, dense_panels), order)]
        if abs(far) > abs(dense) * (1 + 1e-12):
            kinds.append((np.array(_tail_edges(dense, far)), max(12, order - 4)))
        for edges, p_order in kinds:
            a, b = np.minimum(edges[:-1], edges[1:]), np.maximum(edges[:-1], edges[1:])
            rules.append(weighted_rule(np.zeros(a.size), a, b, p_order, w))
            panels.append((a, b, np.full(a.size, p_order)))

    base, off, qw, logw = (np.concatenate(col) for col in zip(*rules))
    x = base + off
    for arr in (x, qw, logw):
        arr.setflags(write=False)
    a, b, size = (np.concatenate(col) for col in zip(*panels))
    stop = np.cumsum(size)
    by_a = np.argsort(a)
    return WeightGrid(x=x, qw=qw, logw=logw,
                      panels=tuple(col[by_a] for col in (a, b, stop - size, stop)))
