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
the error, and above 1e-6 relative CauchyConvergenceError is raised.

Points are summed in batches: one near-panel test, one weighted_rule call
for the pieces of all points at the orders (16, 24), one recurrence over
every refined node and every point for every requested degree and j - 1,
and for the grid part one product of the column qw e^(logw) pi_j q, cached
per table and degree, with the matrix of 1/(x_k - z_m), each point's near
panels masked.  pi_j at the grid nodes comes from the table: its top three
degrees from its Stieltjes pass, any others from one whole-grid recurrence.
The refined nodes are one array, piece by piece: each piece's 16 check
nodes, then its 24 value nodes.  So the rule map, 2a log|x| and -nV are
evaluated once per batch, and x - z, the weighted terms and the per-point
sums once per degree: one np.bincount over ``who``, which bins a check
node under its point and a value node under its point plus the number of
points, gives every point's check sum and value sum.  Each point's terms
are summed on their own, in their order (its pieces in order, each
piece's nodes in order), and each node keeps its own log scale, so no
point's value depends on the rest of its batch.  A batch is checked and
returned as arrays of mantissas and log scales; the one-point calls wrap
theirs in a ScaledComplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .orthopoly import (RecurrenceTable, _check_degree, eval_monic, eval_weight,
                        monic_values_scaled)
from .quadrature import weighted_rule
from .scaled import ScaledComplex

_INV_2PI_I = -0.5j / math.pi  # 1/(2 pi i), kept in the mantissa
_ORDERS = (16, 24)  # Gauss orders of the refined pieces: the check, then the sum
_VALUE = np.arange(sum(_ORDERS)) >= _ORDERS[0]  # which of a piece's nodes sum the value
_TOLERANCE = 1e-6  # relative error estimate above which a transform raises
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # the smallest normal double


class CauchyDomainError(ValueError):
    pass


class CauchyConvergenceError(RuntimeError):
    pass


def _near_panels(t: RecurrenceTable, z) -> np.ndarray:
    """Mask of the grid panels nearer to z than their own width; a row per point of an array z."""
    a, b, _, _ = t.grid.panels
    z = np.asarray(z)[..., None]
    return np.abs(z - np.minimum(np.maximum(z.real, a), b)) < b - a


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
    """q = pi_j + i sqrt(b_j) pi_{j-1} (part 0) or q' (part 1) from ``cols``, in pi_j's scales."""
    if j == 0:
        return cols[0][part]
    c = 1j * math.sqrt(t.b[j]) * np.exp(cols[j - 1][-1] - cols[j][-1])
    return cols[j][part] + c * cols[j - 1][part]


def _weighted(qw, logw, p, q, scale=None):
    """(qw e^logw p q / e^scale, scale); scale defaults to the largest term's.

    The exponent is taken per node, log|p q| and (in logw) the log scales of
    p and q included, so no factor underflows.
    """
    pq = p * q
    mag = np.abs(pq)
    with np.errstate(divide="ignore"):
        lg = logw + np.log(mag)
    if scale is None:
        scale = float(lg.max())
    phase = np.divide(pq, mag, out=np.zeros_like(pq), where=mag > 0)
    return qw * np.exp(lg - scale) * phase, scale


def _grid_columns(t: RecurrenceTable, degrees) -> dict:
    """{j: (qw e^logw pi_j q on the whole grid, its log scale)}, computed once per (table, j).

    pi_j at the grid nodes comes from :meth:`RecurrenceTable.grid_values`.
    """
    def compute(missing):
        g, js = t.grid, [j for _, j in missing]
        cols = t.grid_values({max(j - 1, 0) for j in js} | set(js))
        out = []
        for j in js:
            col, scale = _weighted(g.qw, g.logw + 2.0 * cols[j][-1], cols[j][0], _q(t, cols, j))
            col.setflags(write=False)
            out.append((col, scale))
        return out

    return dict(zip(degrees, t.memo([("grid", j) for j in degrees], compute)))


def cauchy_transform(t: RecurrenceTable, j: int, z) -> ScaledComplex:
    """h_j(z), including the 1/(2 pi i) prefactor; requires |Im z| >= 2.2e-308."""
    return ScaledComplex.from_parts(*cauchy_transforms(t, [j], z)[j])


def cauchy_transform_derivative(t: RecurrenceTable, j: int, z) -> ScaledComplex:
    """d/dz h_j(z) = 1/(2 pi i) * integral pi_j w / (x-z)^2 dx.

    Near the real axis the sum cancels like 1/Im z: the 1/(x - z)^2 terms
    carry the pole's 1/Im z and h'_j does not.  At alpha = 0.3, n = 16,
    V = 2x^2 and z = 0.2945 + i eps, h'_j for j = 15..17 is returned at
    eps = 1e-9 but raises CauchyConvergenceError at eps = 1e-13 and 1e-15,
    with estimates from 2.8e-5 to 1.3e-2; h_j itself is returned there.
    """
    return ScaledComplex.from_parts(*cauchy_transforms(t, [j], z, derivative=True)[j])


def _sums(who, v, size: int):
    """Per-point sums of the complex terms v, each belonging to the point ``who`` names."""
    return np.bincount(who, v.real, size) + 1j * np.bincount(who, v.imag, size)


def cauchy_transforms(t: RecurrenceTable, degrees, z, derivative: bool = False) -> dict:
    """{j: (mantissas, log scales)} of h_j(z), or h'_j(z) with ``derivative``, for j in ``degrees``.

    ``z`` is one point or an array of points, summed as one batch; the two
    arrays have z's shape, and h_j = mantissa e^(log scale) at each point.
    The mantissas carry no power of 1/z, so they do not underflow at a far
    z.  Requires finite z with |Im z| at least the smallest normal double,
    2.2e-308: below it 1/(x - z) leaves the doubles at the refined nodes.

    h'_j = (S'_j - S_j q'/q) / (2 pi i q) with S'_j the integral of
    pi_j q w / (x - z)^2, so the value and the derivative sum the same
    terms, against u = 1/(x - z) or u (u - q'(z)/q(z)).  For Im z < 0 both
    are -conj of their values at conj z.  Each point has its own error
    estimate; CauchyConvergenceError is raised if one exceeds 1e-6
    relative, naming the first such degree and point, so no value is
    returned unchecked: near the real axis h'_j's sum cancels like 1/Im z,
    and there it raises (see :func:`cauchy_transform_derivative`).  No
    degrees give {} once the points pass their checks.
    """
    zs = np.asarray(z, dtype=complex)
    shape, zs = zs.shape, zs.reshape(-1)
    if not (np.isfinite(zs).all() and (abs(zs.imag) >= _TINY).all()):
        raise CauchyDomainError("Cauchy transform requires a finite z with |Im z| >= 2.2e-308")
    degrees = sorted({_check_degree(j, t.max_degree) for j in degrees})
    if not degrees:
        return {}
    below = zs.imag < 0
    zu = np.where(below, zs.conj(), zs)  # the points summed
    points = zu.tolist()
    a, b, start, stop = t.grid.panels
    ends = a.tolist(), b.tolist()  # Python floats: the same bits in _pieces, at less cost
    # u = f/(x - z), f the largest power of 2 not above max(1, |z|): an exact
    # scaling, taken out in the log scale, that keeps u(u - r) off the
    # subnormals at a far z, where 1/(x - z)^2 would underflow
    f = np.ldexp(0.5, np.maximum(np.frexp(np.abs(zu))[1], 1))
    log_f = (2.0 if derivative else 1.0) * np.log(f)
    u_grid = f[:, None] / (t.grid.x - zu[:, None])
    split, owner = [], []  # pieces in the order of their points, and each piece's point
    for m, i in zip(*(k.tolist() for k in np.nonzero(_near_panels(t, zu)))):
        u_grid[m, start[i]:stop[i]] = 0.0  # near panels leave the point's grid sum
        # pieces per panel: near panels need not be adjacent, and a piece that
        # bridged a gap would count the grid panels in it twice
        split.append(_pieces(ends[0][i], ends[1][i], points[m]))
        owner += [m] * split[-1][0].size
    local = None
    if split:
        # every refined node in one array, piece by piece: each piece's 16
        # check nodes, then its 24 value nodes; their terms are binned per
        # point, the check's in bins 0..P-1 and the value's in bins P..2P-1
        x0, off, qw, logw = weighted_rule(*(np.concatenate(c) for c in zip(*split)),
                                          _ORDERS, t.weight)
        owner = np.array(owner)
        at = np.repeat(owner, _VALUE.size)  # each node's point
        who = (owner[:, None] + zs.size * _VALUE).ravel()
        # x - z from the offsets, exact where the pieces are narrowest; with f > 1,
        # f/(x - z) can overflow at an |Im z| near 2.2e-308: the sums then fail their check
        with np.errstate(over="ignore"):
            local = at, who, f[at] / (off - (zu[at] - x0)), qw, logw
        xs = np.concatenate([x0 + off, zu])
    else:
        xs = zu
    cols = monic_values_scaled(t, {max(j - 1, 0) for j in degrees} | set(degrees), xs,
                               derivative=derivative)
    grid = _grid_columns(t, degrees)
    out = {}
    for j in degrees:
        col, scale = grid[j]
        p, q, s = cols[j][0], _q(t, cols, j), cols[j][-1]
        qz, sz = q[-zs.size:], s[-zs.size:]
        r = f * _q(t, cols, j, part=1)[-zs.size:] / qz if derivative else None
        grid_terms = col * (u_grid * (u_grid - r[:, None]) if derivative else u_grid)
        total, mass = grid_terms.sum(axis=1), np.abs(grid_terms).sum(axis=1)
        delta = 0.0  # |order-16 sum - order-24 sum| of the pieces
        if local is not None:
            at, who, u, qw, logw = local
            k = at.size  # the refined nodes lead xs
            # an infinite u, or u (u - r) leaving the doubles near z = 0,
            # makes the sums not finite, and they fail the check below
            with np.errstate(over="ignore", invalid="ignore"):
                terms = (_weighted(qw, logw + 2.0 * s[:k], p[:k], q[:k], scale)[0]
                         * (u * (u - r[at]) if derivative else u))
                sums = _sums(who, terms, 2 * zs.size)
                check, fine = sums[:zs.size], sums[zs.size:]
                total += fine
                mass += np.bincount(who, np.abs(terms), 2 * zs.size)[zs.size:]
                delta = np.abs(check - fine)
        err = delta + _EPS * mass
        bad = ~(err < _TOLERANCE * np.abs(total))  # a sum of exactly 0 is no value either
        if bad.any():
            m = bad.argmax()
            estimate = float(err[m]) / abs(complex(total[m])) if total[m] else math.inf
            raise CauchyConvergenceError(
                f"error estimate {estimate:.3e} relative at j={j}, z={complex(zs[m])}"
            )
        h = _INV_2PI_I * total / qz
        h[below] = -h[below].conj()
        out[j] = h.reshape(shape), (scale - sz - log_f).reshape(shape)
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
    target = (eval_monic(t, j, x) * eval_weight(t.weight, x)).to_complex()
    t_abs = abs(target)
    # h_j(x - i eps) = -conj h_j(x + i eps), so the jump is h + conj h above
    mant, log = cauchy_transforms(t, [j], x + 1j * np.array(eps_list))[j]
    jumps = [ScaledComplex.from_parts(2.0 * v.real, s).to_complex()
             for v, s in zip(mant.tolist(), log.tolist())]
    residuals = [abs(jump - target) / t_abs if t_abs > 0 else abs(jump) for jump in jumps]
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

