"""Composite Gauss panels for the varying weight |x|^(2a) e^(-nV).

The weight spans hundreds of orders of magnitude across the integration
range, so every grid stores it in log form: the panels integrate
f -> sum qw * e^(logw) * f(x),  with qw the panel's half width times the
weights of a Gauss rule on [-1, 1].  The two panels touching the origin
take the Gauss-Jacobi rule of (1 + t)^(2a) from the origin (Gauss-Legendre
at a = 0), so the |x|^(2a) kink is integrated exactly and logw =
2a log|half width| - nV(x) there; elsewhere logw = 2a log|x| - nV(x).

That map is :func:`weighted_rule`, the one place Gauss nodes are put on
an interval: it builds the grid's panels here and the pieces into which
:mod:`rmtkernels.cauchy` refines the panels near z.  Every Gauss rule,
Gauss-Legendre included (exponent 0), comes from one Golub-Welsch
generator, :func:`_jacgauss`, and its one cache.

The radii a grid's panels reach are cached too: the underflow cutoff per
weight and side (:func:`cutoff_radius`), the dense radius per potential,
side and level (:func:`dense_radius`), so the grids of one weight search
them once; each function's ``cache_clear`` resets its cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class WeightDomainError(ValueError):
    """A weight outside the domain the grid and the recurrence are built for."""


@functools.lru_cache(maxsize=256)
def _jacgauss(order: int, beta: float):
    """Nodes/weights for the integral over [-1, 1] of (1+t)^beta f(t).

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials P^(0, beta), the weights mu_0 times the squared first
    components of its eigenvectors.
    """
    if not beta + 1.0 < 1024.0:  # mu_0 = 2^(beta + 1)/(beta + 1) would overflow
        raise WeightDomainError(f"Gauss-Jacobi exponent {beta} leaves the double range")
    k = np.arange(1, order, dtype=float)
    s = 2.0 * k + beta
    diag = np.empty(order)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    # 2k - 1 + beta, not s - 1: at k = 1 and beta near -1 that difference cancels to 0
    off = np.sqrt(4.0 * k * k * (k + beta) ** 2 / (s * s * (s + 1.0) * (2.0 * k - 1.0 + beta)))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (beta + 1.0) / (beta + 1.0)
    return x, mu0 * v[0] ** 2


@dataclass
class WeightGrid:
    """Flat node set for one weight, with panel bookkeeping."""

    x: np.ndarray
    qw: np.ndarray        # positive quadrature weights: half width times the rule's
    logw: np.ndarray      # log of the rest of the weight at each node
    # (a, b, start, stop): arrays over the panels, sorted by a; panel i is
    # [a[i], b[i]] with nodes [start[i], stop[i]) in the flat arrays
    panels: tuple = ()


def weighted_rule(x0, lo, hi, order: int, w):
    """Order-``order`` Gauss rules for the weight ``w`` on the pieces [x0 + lo, x0 + hi].

    Returns (x0, offset, qw, logw) per node, ``order`` nodes per piece in the
    order of the pieces.  Each piece maps a rule on [-1, 1] from t = -1, with
    qw = half width * the rule's weights and -nV in logw.  A piece with an end
    at 0 starts there, takes the rule of (1 + t)^(2a) and has 2a log|half
    width| in logw; the others take exponent 0 and have 2a log|x| in logw.
    """
    flip = x0 + hi == 0.0  # a piece that ends at 0 starts there
    jac = flip | (x0 + lo == 0.0)
    # the rules of exponents 0 and 2a, each built only if some piece takes it
    t, g = _jacgauss(order, 0.0) if (k := np.count_nonzero(jac)) < jac.size else (0.0, 0.0)
    if k:
        tj, wj = _jacgauss(order, 2.0 * w.alpha)
        t, g = np.where(jac[:, None], tj, t), np.where(jac[:, None], wj, g)
        lo, hi = np.where(flip, hi, lo), np.where(flip, lo, hi)
    half = 0.5 * (hi - lo)[:, None]
    off = lo[:, None] + half * (t + 1.0)
    logw = 2.0 * w.alpha * np.log(np.abs(np.where(jac[:, None], half, x0[:, None] + off)))
    base, off = np.repeat(x0, order), off.ravel()
    return base, off, (np.abs(half) * g).ravel(), logw.ravel() - w.n * w.potential(base + off)


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


# the radii cutoff_radius and dense_radius search, and the x grid on which
# dense_radius takes min V; fixed, so no grid rebuilds them
_CUTOFF_RADII = np.cumprod(np.r_[1.0, np.full(199, 1.3)])
_DENSE_RADII = np.cumprod(np.r_[0.05, np.full(204, 1.05)])  # [-1] > 1e3
_VMIN_GRID = np.linspace(-6, 6, 1201)
for _arr in (_CUTOFF_RADII, _DENSE_RADII, _VMIN_GRID):
    _arr.setflags(write=False)


@functools.lru_cache(maxsize=64)
def cutoff_radius(w, direction: float) -> float:
    """Smallest L = 1.3^k, k < 200, with n V(sgn L) - max(0, 2a) log L above 750 (underflow).

    Cached per weight and side, so every grid of one weight searches once;
    ``cutoff_radius.cache_clear()`` resets the cache.
    """
    r = _CUTOFF_RADII
    with np.errstate(over="ignore"):
        margin = w.n * w.potential(direction * r) - max(0.0, 2.0 * w.alpha) * np.log(r) - 750.0
    hit = np.flatnonzero(margin > 0)
    if hit.size == 0:
        raise WeightDomainError("potential does not grow fast enough for a finite cutoff")
    return float(r[hit[0]])


@functools.lru_cache(maxsize=64)
def dense_radius(p, direction: float, level: float) -> float:
    """Radius covering the oscillatory region (equilibrium support plus margin).

    The radius is the first 0.05 * 1.05^k with V - min V >= ``level``, or
    reaching 1e3.  Degree-K polynomials for the weight e^(-nV) oscillate
    over a region that grows with K/n (out to about sqrt(2K/n) for V = x^2),
    so tables take level = max(8, 4K/n).  Cached per potential, side and
    level, so the grids of one potential at one level search once;
    ``dense_radius.cache_clear()`` resets the cache.
    """
    vmin = _vmin(p)
    r = _DENSE_RADII
    with np.errstate(over="ignore"):
        done = ~(p(direction * r) - vmin < level) | (r >= 1e3)
    return float(r[np.argmax(done)])


@functools.lru_cache(maxsize=64)
def _vmin(p) -> float:
    """min V on _VMIN_GRID, once per potential: a grid takes it for both sides."""
    return p(_VMIN_GRID).min()


def build_weight_grid(w, dense_panels: int, order: int = 20, jacobi_order: int = 48,
                      max_degree: int = 0) -> WeightGrid:
    """Composite Gauss grid for the weight ``w`` (a WeightSpec) out to its underflow cutoffs.

    Each side of 0 holds, going outward: the origin panel at ``jacobi_order``,
    ``dense_panels - 1`` uniform panels at ``order`` out to the dense radius
    for polynomials of degree ``max_degree``, and panels growing by 1.7 out
    to the cutoff at ``max(12, order - 4)``.  The dense region is not cut at
    the cutoff: at large n the weight underflows inside the support, where
    pi_j^2 w does not (Mhaskar & Saff, Trans. AMS 285, 1984).
    """
    pieces = {}  # Gauss order -> the (a, b) edges of its panels on both sides
    for sgn in (-1.0, 1.0):
        far = sgn * cutoff_radius(w, sgn)
        dense = sgn * dense_radius(w.potential, sgn, max(8.0, 4.0 * max_degree / w.n))
        inner = abs(dense) / dense_panels
        kinds = [(np.array([0.0, sgn * inner]), jacobi_order),
                 (np.linspace(sgn * inner, dense, dense_panels), order)]
        if abs(far) > abs(dense) * (1 + 1e-12):
            kinds.append((np.array(_tail_edges(dense, far)), max(12, order - 4)))
        for edges, p_order in kinds:
            pieces.setdefault(p_order, []).append(
                (np.minimum(edges[:-1], edges[1:]), np.maximum(edges[:-1], edges[1:])))
    rules, panels = [], []
    for p_order, ab in pieces.items():  # one rule per Gauss order
        a, b = (np.concatenate(col) for col in zip(*ab))
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
