"""Cauchy transforms h_j(z) = 1/(2 pi i) * integral of pi_j(x) w(x) / (x - z) dx.

Evaluation reuses the node set of the recurrence table, which makes the
discrete measure exactly orthogonal to the computed polynomials; the
geometric-series cancellation for |z| large is then inherited to rounding
accuracy.  Near the real axis the base panels around Re z are replaced by
panels refined geometrically down to width |Im z|/4, so the quadrature
resolves the near-pole without principal-value machinery.

Each transform is checked by computing the refined local part twice, at two
refinements; the sum over the kept base nodes does not depend on the
refinement and is computed once for both.  It reads pi_j on the whole grid
from the table's cache, so the recurrence runs over the grid once per
degree and table, not once per point.  :func:`cauchy_transforms` evaluates
several degrees at one point: one local recurrence over the coarse and the
fine refined nodes together serves both refinements and every degree.

Off the near branch (Re z more than 0.2 dense widths outside the dense
interval, or |Im z| at least 0.3 dense widths) nothing is refined, so both
passes are the same base-grid sum and the check compares nothing there: a
pole that the tail panels do not resolve passes unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .orthopoly import RecurrenceTable, _check_degree, eval_weight, monic_values_scaled
from .quadrature import legendre_panel
from .scaled import ScaledComplex

_INV_2PI_I = -0.5j / math.pi  # 1/(2 pi i), kept in the mantissa
_PANEL_BUDGET = 16  # Gauss order on refined local panels (the check adds 8)
_NEAR_AXIS_THRESHOLD = 0.3  # near-branch distance, as a fraction of the dense width


class CauchyDomainError(ValueError):
    pass


class CauchyConvergenceError(RuntimeError):
    pass


def _refined_nodes(lo, hi, x0, min_width, order):
    """Panels on [lo, hi] refined geometrically toward x0 (and split at 0)."""
    breaks = {lo, hi}
    if lo <= 0.0 <= hi:
        # resolve the |x|^2a kink: geometric refinement toward 0 from both sides
        breaks.add(0.0)
        for side_end in (lo, hi):
            cur = abs(side_end)
            while cur > 1e-12:
                cur *= 0.25
                breaks.add(math.copysign(cur, side_end))
    x0 = min(max(x0, lo), hi)
    breaks.add(x0)
    for side_end in (lo, hi):
        width = abs(side_end - x0)
        cur = width
        while cur > min_width:
            cur *= 0.5
            breaks.add(x0 + math.copysign(cur, side_end - x0))
    edges = np.array(sorted(breaks))
    a, b = edges[:-1, None], edges[1:, None]
    # every panel at once: one row of legendre_panel's nodes per panel
    xn, wn = legendre_panel(a, b, order)
    return xn.ravel(), wn.ravel()


def _grid_column(t: RecurrenceTable, j: int):
    """pi_j on the table's whole grid as (values, log_scale), computed once per table."""
    def compute():
        vals, s = monic_values_scaled(t, [j], t.grid.x)[j]
        vals.setflags(write=False)
        return vals, s

    return t.memo(("grid", j), compute)


def _quad_sum(values, log_weights, qw, kernel):
    """sum qw * e^(log_weights) * values * kernel, factored against overflow.

    Also returns the sum of absolute terms, which bounds how much
    cancellation the signed sum went through.
    """
    lw_max = float(np.max(log_weights))
    terms = qw * np.exp(log_weights - lw_max) * values * kernel
    return complex(np.sum(terms)), float(np.sum(np.abs(terms))), lw_max


def _near_region(t: RecurrenceTable, z: complex):
    """(kept base-node mask, (lo, hi) of the base panels to refine, or None) for z."""
    g = t.grid
    keep = np.ones(g.x.size, dtype=bool)
    d = abs(z.imag)
    dense_width = g.dense_hi - g.dense_lo
    near = (
        g.dense_lo - 0.2 * dense_width < z.real < g.dense_hi + 0.2 * dense_width
        and d < _NEAR_AXIS_THRESHOLD * dense_width
    )
    if not near:
        return keep, None
    halfwidth = max(4.0 * d, 1.5 * dense_width / max(len(g.panels), 8))
    hit = [p for p in g.panels if p.b >= z.real - halfwidth and p.a <= z.real + halfwidth]
    for p in hit:
        keep[p.start:p.stop] = False
    return keep, ((min(p.a for p in hit), max(p.b for p in hit)) if hit else None)


def _base_sum(t: RecurrenceTable, j: int, z: complex, power: int, keep):
    """The kept base nodes' part of the sum, as [(value, mass, log scale)] or []."""
    g = t.grid
    if not keep.any():
        return []
    vals, s = _grid_column(t, j)
    xb = g.x[keep]
    kern = 1.0 / (xb - z) ** power
    val, amp, lg = _quad_sum(vals[keep], g.logw[keep], g.qw[keep], kern)
    return [(val, amp, lg + s)]


def _local_sums(t: RecurrenceTable, degrees, z: complex, power: int, region):
    """The refined panels' part of the sum at both refinements, per degree.

    Returns {j: (coarse part, fine part)}, each [(value, mass, log scale)],
    or [] when nothing is refined.  One recurrence runs over the coarse and
    the fine nodes together, for every degree.
    """
    if region is None:
        return {j: ([], []) for j in degrees}
    w = t.weight
    xc, wc = _refined_nodes(*region, z.real, max(abs(z.imag) / 4.0, 1e-14), _PANEL_BUDGET)
    xf, wf = _refined_nodes(*region, z.real, max(abs(z.imag) / 8.0, 1e-14), _PANEL_BUDGET + 8)
    xl = np.concatenate([xc, xf])
    logw = 2.0 * w.alpha * np.log(np.abs(xl)) - w.n * w.potential(xl)
    kern = 1.0 / (xl - z) ** power
    coarse, fine = slice(0, xc.size), slice(xc.size, xl.size)

    def part(vals, s, nodes, wl):
        val, amp, lg = _quad_sum(vals[nodes], logw[nodes], wl, kern[nodes])
        return [(val, amp, lg + s)]

    return {j: (part(vals, s, coarse, wc), part(vals, s, fine, wf))
            for j, (vals, s) in monic_values_scaled(t, degrees, xl).items()}


def _combine(parts, power: int):
    """Adds (value, mass, log scale) parts in order; returns (h, log of the absolute mass)."""
    total = 0j
    mass = 0.0
    total_log = -math.inf
    for val, amp, lg in parts:
        if val == 0 and amp == 0:
            continue
        if mass == 0:
            total, mass, total_log = val, amp, lg
        elif lg > total_log:
            shift = math.exp(total_log - lg)
            total, mass, total_log = total * shift + val, mass * shift + amp, lg
        else:
            shift = math.exp(lg - total_log)
            total, mass = total + val * shift, mass + amp * shift
    pref = _INV_2PI_I * (1.0 if power == 1 else float(power - 1))
    mass_log = total_log + (math.log(mass * abs(pref)) if mass > 0 else -math.inf)
    return ScaledComplex.from_parts(total * pref, total_log), mass_log


def cauchy_transform(t: RecurrenceTable, j: int, z) -> ScaledComplex:
    """h_j(z), including the 1/(2 pi i) prefactor; requires Im z != 0."""
    return cauchy_transforms(t, [j], z)[j]


def cauchy_transform_derivative(t: RecurrenceTable, j: int, z) -> ScaledComplex:
    """d/dz h_j(z) = 1/(2 pi i) * integral pi_j w / (x-z)^2 dx."""
    return cauchy_transforms(t, [j], z, power=2)[j]


def cauchy_transforms(t: RecurrenceTable, degrees, z, power: int = 1) -> dict:
    """{j: h_j(z)} for each j in ``degrees`` (h'_j(z) at ``power`` 2); requires Im z != 0.

    Raises CauchyConvergenceError for the first degree whose coarse and fine
    refinements disagree, so no degree is returned unchecked.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise CauchyDomainError("Cauchy transform requires Im z != 0")
    degrees = sorted(set(int(j) for j in degrees))
    for j in degrees:
        _check_degree(t, j)
    keep, region = _near_region(t, z)
    local = _local_sums(t, degrees, z, power, region)
    out = {}
    for j in degrees:
        # the kept base nodes do not depend on the refinement, so both passes share their sum
        base = _base_sum(t, j, z, power, keep)
        coarse, _ = _combine(local[j][0] + base, power)
        fine, mass_log = _combine(local[j][1] + base, power)
        diff_log = (coarse - fine).log_abs()
        # near a zero of h_j no quadrature reaches pure relative accuracy, so the
        # comparison scale is floored by a small multiple of the absolute mass
        scale_log = max(fine.log_abs(), mass_log + math.log(1e-9))
        if math.isfinite(diff_log) and diff_log - scale_log > math.log(1e-6):
            raise CauchyConvergenceError(
                f"panel refinements disagree by {math.exp(min(diff_log - scale_log, 700)):.3e} "
                f"relative at j={j}, z={z}"
            )
        out[j] = fine
    return out


@dataclass
class JumpReport:
    x: float
    j: int
    eps: list
    residuals: list          # relative residual per epsilon
    extrapolated_residual: float


def plemelj_jump_check(t: RecurrenceTable, j: int, x: float, eps_list) -> JumpReport:
    """|h_j(x + i eps) - h_j(x - i eps) - pi_j(x) w(x)|, extrapolated to eps -> 0.

    The Poisson-kernel error of the jump has a full power series in eps, so
    the jumps are extrapolated to eps = 0 by Neville's scheme through every
    supplied epsilon.
    """
    if x == 0.0:
        raise CauchyDomainError("jump check undefined at the weight kink x = 0")
    eps_list = sorted(float(e) for e in eps_list)
    target = _pi_w(t, j, x).to_complex()
    t_abs = abs(target)
    jumps = []
    residuals = []
    for eps in eps_list:
        hp = cauchy_transform(t, j, complex(x, eps))
        hm = cauchy_transform(t, j, complex(x, -eps))
        jump = (hp - hm).to_complex()
        jumps.append(jump)
        residuals.append(abs(jump - target) / t_abs if t_abs > 0 else abs(jump))
    extr = _neville_at_zero(eps_list, jumps)
    extr_res = abs(extr - target) / t_abs if t_abs > 0 else abs(extr)
    return JumpReport(x=x, j=j, eps=eps_list, residuals=residuals,
                      extrapolated_residual=extr_res)


def _neville_at_zero(xs, ys):
    vals = list(ys)
    m = len(vals)
    for level in range(1, m):
        for i in range(m - level):
            x_i, x_k = xs[i], xs[i + level]
            vals[i] = (x_k * vals[i] - x_i * vals[i + 1]) / (x_k - x_i)
    return vals[0]


def _pi_w(t: RecurrenceTable, j: int, x: float) -> ScaledComplex:
    from .orthopoly import eval_monic

    return eval_monic(t, j, x) * eval_weight(t.weight, x)
