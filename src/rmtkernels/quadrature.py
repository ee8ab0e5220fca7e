"""Composite Gauss panels for the varying weight |x|^(2a) e^(-nV).

The weight spans hundreds of orders of magnitude across the integration
range, so every grid stores the smooth part of the weight in log form:
the panels integrate  f -> sum qw * e^(logw) * f(x),  where for ordinary
Gauss-Legendre panels logw = 2a log|x| - nV(x).  The two panels touching
the origin are always Gauss-Jacobi with exponent 2a (Gauss-Legendre at
a = 0), so the |x|^(2a) factor is absorbed into the quadrature weights qw
and logw = -nV(x) there.
"""

from __future__ import annotations

import functools
import math
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


def _tail_edges(start: float, end: float, ratio: float = 1.7):
    """Edges from |start| out to |end| (same sign), growing widths."""
    edges = [start]
    width = abs(start) * 0.5 + 1e-3
    cur = start
    sgn = 1.0 if end >= start else -1.0
    while abs(cur) < abs(end):
        cur = cur + sgn * width
        if abs(cur) >= abs(end):
            cur = end
        edges.append(cur)
        width *= ratio
    return edges


def cutoff_radius(n: int, alpha: float, vcoeffs, direction: float, budget: float = 750.0):
    """Smallest L with n V(sgn L) - max(0, 2a) log L beyond the underflow budget."""
    v = np.polynomial.Polynomial(vcoeffs)

    def margin(r):
        return n * v(direction * r) - max(0.0, 2.0 * alpha) * math.log(max(r, 1.0)) - budget

    r = 1.0
    for _ in range(200):
        if margin(r) > 0:
            break
        r *= 1.3
    else:
        raise ValueError("potential does not grow fast enough for a finite cutoff")
    return r


def dense_radius(n: int, vcoeffs, direction: float, drop: float = 8.0):
    """Radius covering the oscillatory region (equilibrium support plus margin).

    The support is set by V alone, so the criterion V - min V >= drop is
    n-independent; the cutoff radius caps it for very large n.
    """
    v = np.polynomial.Polynomial(vcoeffs)
    vmin = min(v(np.linspace(-6, 6, 1201)))
    r = 0.05
    while v(direction * r) - vmin < drop and r < 1e3:
        r *= 1.05
    return r


def build_weight_grid(
    alpha: float,
    n: int,
    vcoeffs,
    dense_panels: int,
    order: int = 20,
    jacobi_order: int = 48,
) -> WeightGrid:
    v = np.polynomial.Polynomial(vcoeffs)
    xs, ws, lws, panels = [], [], [], []

    def push_leg(a, b, p_order):
        x, w = legendre_panel(a, b, p_order)
        start = panels[-1][3] if panels else 0
        xs.append(x)
        ws.append(w)
        lws.append(2.0 * alpha * np.log(np.abs(x)) - n * v(x))
        panels.append((a, b, start, start + len(x)))

    def push_jac(d, p_order):
        x, qw = jacobi_panel(d, p_order, 2.0 * alpha)
        start = panels[-1][3] if panels else 0
        xs.append(x)
        ws.append(qw)
        lws.append(-n * v(x))
        a, b = (d, 0.0) if d < 0 else (0.0, d)
        panels.append((a, b, start, start + len(x)))

    lo = -cutoff_radius(n, alpha, vcoeffs, -1.0)
    hi = cutoff_radius(n, alpha, vcoeffs, +1.0)
    lo_d = max(-dense_radius(n, vcoeffs, -1.0), lo)
    hi_d = min(dense_radius(n, vcoeffs, +1.0), hi)

    for sgn, dense_edge, far_edge in ((-1.0, lo_d, lo), (+1.0, hi_d, hi)):
        inner = abs(dense_edge) / dense_panels
        push_jac(sgn * inner, jacobi_order)
        # uniform dense panels
        dense_bounds = np.linspace(sgn * inner, dense_edge, dense_panels)
        for a, b in zip(dense_bounds[:-1], dense_bounds[1:]):
            aa, bb = (a, b) if a < b else (b, a)
            push_leg(aa, bb, order)
        # tail panels, growing geometrically
        if abs(far_edge) > abs(dense_edge) * (1 + 1e-12):
            tail = _tail_edges(dense_edge, far_edge)
            for a, b in zip(tail[:-1], tail[1:]):
                aa, bb = (a, b) if a < b else (b, a)
                push_leg(aa, bb, max(12, order - 4))

    x = np.concatenate(xs)
    qw = np.concatenate(ws)
    logw = np.concatenate(lws)
    for arr in (x, qw, logw):
        arr.setflags(write=False)
    panels = tuple(np.array(col) for col in zip(*sorted(panels)))
    return WeightGrid(x=x, qw=qw, logw=logw, panels=panels)
