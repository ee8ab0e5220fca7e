"""Cauchy transforms h_j(z) = 1/(2 pi i) * integral of pi_j(x) w(x) / (x - z) dx.

For a polynomial q of degree at most j, (q(x) - q(z))/(x - z) has degree
below j and is orthogonal to pi_j (Gautschi, SIAM Rev. 9, 1967), so
h_j(z) = S_j(z) / (2 pi i q(z)) with S_j the integral of pi_j q w / (x - z).
Unlike pi_j w, pi_j q w does not cancel off the support.  q = pi_j alone
gives 0/0 at a real zero of pi_j as Im z -> 0, so q = pi_j + i sqrt(b_j)
pi_{j-1}: by interlacing, Im(pi_j/pi_{j-1}) > 0 for Im z > 0, and q has
no zero in the upper half-plane.

Only the upper half-plane is summed.  The weight is real, so
pi_j(conj z) = conj pi_j(z) and h_j(conj z) = -conj h_j(z), and likewise
for h'_j (Fokas, Its & Kitaev, Commun. Math. Phys. 147, 1992): for
Im z < 0 the transform is -conj of the one at conj z.  Summing below the
axis directly, with q = pi_j - i sqrt(b_j) pi_{j-1}, would mirror every
rounding of the sum above it and give the same bits.

S_j is summed over the table's grid.  A panel is near z when dist(z, panel)
is below its width (Helsing & Ojala, J. Comput. Phys. 227, 2008).  Other
panels are at least one width from z, so 1/(x - z) is analytic in the
Bernstein ellipse rho = 2 + sqrt(5) around them and their Gauss rule of
order p resolves it a priori, with error falling like rho^(-2p); that part
is not checked.  Each near panel is halved toward Re z until the piece at z
is no wider than its distance from z.  The pieces take the grid's own
panel rule, :func:`rmtkernels.quadrature.weighted_rule`: the piece with an
end at 0 takes Gauss-Jacobi with exponent 2a; every other piece is at least
its own width from 0, so no Gauss-Legendre piece sits against the |x|^(2a)
kink.

The check sums the refined pieces at Gauss orders 16 and 24 on the same
breaks; their difference plus eps times the sum of absolute terms estimates
the error, and above 1e-6 relative CauchyConvergenceError is raised.  One
recurrence over the refined nodes and z serves every requested degree and
j - 1.  The grid part reads the column qw e^(logw) pi_j q, cached per table
and degree; every part is summed under its scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .orthopoly import RecurrenceTable, _check_degree, eval_weight, monic_values_scaled
from .quadrature import weighted_rule
from .scaled import ScaledComplex

_INV_2PI_I = -0.5j / math.pi  # 1/(2 pi i), kept in the mantissa
_ORDERS = (16, 24)  # Gauss orders of the refined pieces: the check, then the sum
_TOLERANCE = 1e-6  # relative error estimate above which a transform raises
_EPS = float(np.finfo(float).eps)


class CauchyDomainError(ValueError):
    pass


class CauchyConvergenceError(RuntimeError):
    pass


def _near_panels(t: RecurrenceTable, z: complex) -> np.ndarray:
    """Indices of the grid panels nearer to z than their own width."""
    a, b, _, _ = t.grid.panels
    return np.flatnonzero(np.abs(z - np.clip(z.real, a, b)) < b - a)


def _pieces(a: float, b: float, z: complex):
    """[a, b] halved toward Re z until the piece at z is no wider than its distance from z.

    Returns (x0, lo, hi) per piece, the piece being [x0 + lo, x0 + hi] with
    x0 = Re z clamped to [a, b] (or 0, below).  The offsets keep their
    relative accuracy on pieces narrower than the doubles near x0 resolve.
    """
    x0 = min(max(z.real, a), b)
    d = abs(z - x0)
    if 0.0 in (a, b) and abs(x0) < d:
        # a piece [x0, x0 + d] would sit against the kink: halve toward 0
        x0 = 0.0
    offsets = [a - x0, 0.0, b - x0]
    for end in (a - x0, b - x0):
        c = abs(end)
        while c > d:
            c *= 0.5
            offsets.append(math.copysign(c, end))
    edges = np.array(sorted(set(offsets)))
    return np.full(edges.size - 1, x0), edges[:-1], edges[1:]


def _q(t: RecurrenceTable, cols: dict, j: int, part: int = 0):
    """q = pi_j + i sqrt(b_j) pi_{j-1} (part 0) or q' (part 1) from ``cols``, in pi_j's scale."""
    if j == 0:
        return cols[0][part]
    c = 1j * math.sqrt(t.b[j]) * math.exp(cols[j - 1][-1] - cols[j][-1])
    return cols[j][part] + c * cols[j - 1][part]


def _weighted(qw, logw, p, q, scale=None):
    """(qw e^logw p q / e^scale, scale); scale defaults to the largest term's.

    The exponent is taken per node, log|p q| included, so no factor underflows.
    """
    pq = p * q
    mag = np.abs(pq)
    with np.errstate(divide="ignore"):
        lg = logw + np.log(mag)
    if scale is None:
        scale = float(lg.max())
    out = np.zeros(pq.shape, dtype=complex)
    nz = mag > 0
    out[nz] = qw[nz] * np.exp(lg[nz] - scale) * (pq[nz] / mag[nz])
    return out, scale


def _grid_column(t: RecurrenceTable, j: int):
    """(qw e^logw pi_j q on the whole grid, its log scale), computed once per (table, j)."""
    def compute():
        g = t.grid
        cols = monic_values_scaled(t, [max(j - 1, 0), j], g.x)
        col, scale = _weighted(g.qw, g.logw, cols[j][0], _q(t, cols, j))
        col.setflags(write=False)
        return col, scale + 2.0 * cols[j][-1]

    return t.memo(("grid", j), compute)


def cauchy_transform(t: RecurrenceTable, j: int, z) -> ScaledComplex:
    """h_j(z), including the 1/(2 pi i) prefactor; requires Im z != 0."""
    return cauchy_transforms(t, [j], z)[j]


def cauchy_transform_derivative(t: RecurrenceTable, j: int, z) -> ScaledComplex:
    """d/dz h_j(z) = 1/(2 pi i) * integral pi_j w / (x-z)^2 dx."""
    return cauchy_transforms(t, [j], z, power=2)[j]


def cauchy_transforms(t: RecurrenceTable, degrees, z, power: int = 1) -> dict:
    """{j: h_j(z)} for each j in ``degrees`` (h'_j(z) at ``power`` 2); requires Im z != 0.

    At power 2, h'_j = (S'_j - S_j q'/q) / (2 pi i q) with S'_j the integral
    of pi_j q w / (x - z)^2, so both powers sum the same terms, against
    u = 1/(x - z) or u (u - q'(z)/q(z)).  For Im z < 0 both powers are
    -conj of their values at conj z.  Raises CauchyConvergenceError for
    the first degree whose error estimate exceeds 1e-6 relative, so no
    degree is returned unchecked.
    """
    caller_z = z = complex(z)
    if z.imag == 0.0:
        raise CauchyDomainError("Cauchy transform requires Im z != 0")
    degrees = sorted(set(int(j) for j in degrees))
    for j in degrees:
        _check_degree(t, j)
    reflect = z.imag < 0
    if reflect:
        z = z.conjugate()
    a, b, start, stop = t.grid.panels
    near = _near_panels(t, z)
    u_grid = 1.0 / (t.grid.x - z)
    for i in near:
        u_grid[start[i]:stop[i]] = 0.0  # near panels leave the grid sum
    # pieces per panel: near panels need not be adjacent, and a piece that
    # bridged a gap would count the grid panels in it twice
    pieces = [np.concatenate(p) for p in zip(*(_pieces(a[i], b[i], z) for i in near))]
    rules = [weighted_rule(*pieces, order, t.weight) for order in _ORDERS] if pieces else []
    xs = np.concatenate([x0 + off for x0, off, _, _ in rules] + [[z]])
    cols = monic_values_scaled(t, sorted({max(j - 1, 0) for j in degrees} | set(degrees)),
                               xs, derivative=power == 2)
    local, lo = [], 0
    for x0, off, qw, logw in rules:
        # x - z from the offsets, exact where the pieces are narrowest
        local.append((slice(lo, lo + off.size), 1.0 / (off - (z - x0)), qw, logw))
        lo += off.size
    out = {}
    for j in degrees:
        col, scale = _grid_column(t, j)
        s = cols[j][-1]
        p, q = cols[j][0], _q(t, cols, j)
        r = _q(t, cols, j, part=1)[-1] / q[-1] if power == 2 else 0.0

        def kernel(u):
            return u if power == 1 else u * (u - r)

        grid_terms = col * kernel(u_grid)
        total, mass, err = complex(grid_terms.sum()), float(np.abs(grid_terms).sum()), 0.0
        if local:
            # the order-24 pieces join the sum; the order-16 ones are its check
            check, fine = (_weighted(qw, logw, p[nodes], q[nodes], scale - 2.0 * s)[0] * kernel(u)
                           for nodes, u, qw, logw in local)
            total += complex(fine.sum())
            mass += float(np.abs(fine).sum())
            err = abs(complex(check.sum()) - complex(fine.sum()))
        err += _EPS * mass
        if err > _TOLERANCE * abs(total):
            raise CauchyConvergenceError(
                f"error estimate {err / abs(total) if total else math.inf:.3e} relative "
                f"at j={j}, z={caller_z}"
            )
        h = ScaledComplex.from_parts(_INV_2PI_I * total / q[-1], scale - s)
        out[j] = -h.conjugate() if reflect else h
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
