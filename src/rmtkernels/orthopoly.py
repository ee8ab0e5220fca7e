"""Monic orthogonal polynomials for the weight |x|^(2a) e^(-nV(x)).

The three-term recurrence is produced by a discretized Stieltjes procedure
on the composite Gauss grid of :mod:`rmtkernels.quadrature`.  All inner
products carry the weight in log form: the working arrays hold
pi_j(x) * sqrt(w(x)) rescaled by one per-degree exponent, which keeps every
intermediate O(1) even though norms decay like e^(-c*n).

Polynomial values and derivatives off the grid come from one evaluator,
:func:`monic_values_scaled`, which carries one log scale per point: off
the support |pi_j| grows like e^(n g(z)) (Deift et al., Comm. Pure Appl.
Math. 52, 1999), so no one scale holds every point.  It takes a
numpy array of points, or one point as a Python number, which it runs
through the same recurrence in Python arithmetic (a one-element array
costs microseconds a step in numpy's per-call overhead);
:func:`eval_monic` and :func:`eval_monic_derivative` wrap it for one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import WeightGrid, build_weight_grid
from .scaled import ScaledComplex


class PrecisionError(RuntimeError):
    """Raised when the orthogonality self-check fails."""


class WeightDomainError(ValueError):
    pass


class DegreeError(IndexError):
    """A polynomial degree outside the range of a recurrence table."""


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial confining potential, constant term first."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        object.__setattr__(self, "coeffs", c)
        trimmed = np.trim_zeros(np.asarray(c), "b")
        if trimmed.size <= 1:
            raise WeightDomainError("constant potential violates the growth condition")
        deg = trimmed.size - 1
        if deg % 2 != 0 or trimmed[-1] <= 0:
            raise WeightDomainError(
                "potential must have even degree and positive leading coefficient"
            )

    @property
    def degree(self) -> int:
        return len(np.trim_zeros(np.asarray(self.coeffs), "b")) - 1

    # np.polynomial is looked up per call: numpy loads it lazily, and
    # importing it with the package would add to every CLI cold start
    def __call__(self, x):
        return np.polynomial.polynomial.polyval(x, self.coeffs)

    def derivative(self, x):
        P = np.polynomial.polynomial
        return P.polyval(x, P.polyder(self.coeffs))


@dataclass(frozen=True)
class WeightSpec:
    alpha: float
    n: int
    potential: PotentialSpec

    def __post_init__(self):
        if self.alpha <= -0.5:
            raise WeightDomainError("alpha must exceed -1/2 for an integrable weight")
        if self.n < 1:
            raise WeightDomainError("n must be a positive integer")


@dataclass(frozen=True)
class QuadratureConfig:
    dense_panels: int = 48
    order: int = 20


def eval_weight(w: WeightSpec, x: float) -> ScaledComplex:
    """w_n(x) = |x|^2a e^(-nV(x)) as a ScaledComplex."""
    x = float(x)
    if not math.isfinite(x):
        raise WeightDomainError("x must be finite")
    if x == 0.0:
        if w.alpha > 0:
            return ScaledComplex.zero()
        if w.alpha == 0:
            return ScaledComplex.from_parts(1.0, -w.n * w.potential(0.0))
        raise WeightDomainError("weight diverges at x = 0 for alpha < 0")
    log_scale = 2.0 * w.alpha * math.log(abs(x)) - w.n * w.potential(x)
    return ScaledComplex.from_parts(1.0, log_scale)


@dataclass(frozen=True)
class RecurrenceTable:
    """Monic recurrence pi_{j+1} = (x - a_j) pi_j - b_j pi_{j-1}, with norms in log form.

    The arrays are read-only, so values derived from them and cached on the
    table by :meth:`memo` cannot go stale.
    """

    weight: WeightSpec
    max_degree: int
    a: np.ndarray              # a[0..K]
    b: np.ndarray              # b[0] unused, b[1..K] > 0
    log_norm_sq: np.ndarray    # log ||pi_j||^2, j = 0..K
    grid: WeightGrid
    orthogonality_residual: float = 0.0
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memo(self, keys, compute):
        """The values cached on this table under ``keys``, as a list.

        compute(missing) returns the values for the keys not yet cached, each
        once, in their order of first appearance.  They are cached only once
        it returns, so a raised error caches nothing.
        """
        cache = self._memo
        missing = [k for k in keys if k not in cache]
        if missing:
            missing = list(dict.fromkeys(missing))
            cache.update(zip(missing, compute(missing)))
        return [cache[k] for k in keys]

    def log_gamma_sq(self, j: int) -> float:
        """log gamma_j^2 = -log ||pi_j||^2 (orthonormal leading coefficient squared)."""
        return -float(self.log_norm_sq[j])

    def gamma_sq(self, j: int) -> ScaledComplex:
        return ScaledComplex.from_parts(1.0, self.log_gamma_sq(j))


def build_recurrence(
    w: WeightSpec, max_degree: int, quad: QuadratureConfig | None = None
) -> RecurrenceTable:
    if max_degree < 0:
        raise DegreeError(f"max_degree {max_degree} is negative")
    quad = quad or QuadratureConfig()
    dense_panels = max(quad.dense_panels, int(0.8 * max_degree) + 12)
    grid = build_weight_grid(w, dense_panels=dense_panels, order=quad.order)
    x, qw, logw = grid.x, grid.qw, grid.logw
    K = max_degree

    a = np.zeros(K + 1)
    b = np.zeros(K + 1)
    log_norm_sq = np.zeros(K + 1)
    scales = np.zeros(K + 1)
    steps = np.ones(K + 1)  # U_{j+1} = advance(..., j) / steps[j]

    def advance(xs, cur, prev, j):
        """(x - a_j) U_j - b_j U_{j-1} on the nodes xs, in U_j's scale."""
        nxt = (xs - a[j]) * cur
        return nxt - b[j] * prev * math.exp(scales[j - 1] - scales[j]) if j > 0 else nxt

    # U_j = pi_j sqrt(w) e^(-scales[j]), two rows at a time
    u = cur = np.exp(0.5 * logw - 0.5 * logw.max())
    scales[0] = 0.5 * logw.max()
    prev = s_prev = None
    for j in range(K + 1):
        sj = float(np.dot(qw, cur * cur))
        if not (sj > 0) or not math.isfinite(sj):
            raise PrecisionError(f"lost positivity of the norm at degree {j}")
        log_norm_sq[j] = math.log(sj) + 2.0 * scales[j]
        a[j] = float(np.dot(qw, x * cur * cur)) / sj
        if j > 0:
            b[j] = sj / s_prev * math.exp(2.0 * (scales[j] - scales[j - 1]))
        if j < K:
            nxt = advance(x, cur, prev, j)
            m = steps[j] = np.abs(nxt).max()
            if m == 0 or not math.isfinite(m):
                raise PrecisionError(f"recurrence breakdown at degree {j + 1}")
            scales[j + 1] = scales[j] + math.log(m)
            prev, cur = cur, nxt / m
        s_prev = sj

    # pi_K^2 w must have decayed before the grid ends on either side
    _, _, start, stop = grid.panels
    edge = max(np.dot(qw[i:k], cur[i:k] ** 2) for i, k in zip(start[[0, -1]], stop[[0, -1]])) / sj
    if edge > 1e-15:
        raise PrecisionError(f"the outermost grid panel holds {edge:.3e} of ||pi_{K}||^2")

    # orthogonality self-check on the full Gram matrix (scale-invariant).  The
    # rows are replayed over chunks of nodes of at most 512 KiB: one (K+1) x N
    # array would set the process's peak memory on large tables, and more
    # chunks than that cost numpy calls on small ones.
    G = np.zeros((K + 1, K + 1))
    size = max(1, (1 << 19) // (8 * (K + 1)))
    for lo in range(0, x.size, size):
        nodes = slice(lo, lo + size)
        rows = np.empty((K + 1, x[nodes].size))
        rows[0] = u[nodes]
        for j in range(K):
            rows[j + 1] = advance(x[nodes], rows[j], rows[j - 1], j) / steps[j]
        rows *= np.sqrt(qw[nodes])
        G += rows @ rows.T
    d = np.sqrt(np.abs(np.diag(G)))
    R = np.abs(G) / np.outer(d, d)
    np.fill_diagonal(R, 0.0)
    residual = float(R.max())
    if residual > 1e-7:
        i, j = np.unravel_index(np.argmax(R), R.shape)
        raise PrecisionError(
            f"orthogonality residual {residual:.3e} at degrees ({i},{j}) "
            f"exceeds 1e-7; increase the quadrature budget or lower max_degree"
        )
    for arr in (a, b, log_norm_sq):
        arr.setflags(write=False)

    return RecurrenceTable(
        weight=w,
        max_degree=K,
        a=a,
        b=b,
        log_norm_sq=log_norm_sq,
        grid=grid,
        orthogonality_residual=residual,
    )


def eval_monic(t: RecurrenceTable, j: int, z) -> ScaledComplex:
    """pi_j(z) at one point, by :func:`monic_values_scaled`."""
    val, s = monic_values_scaled(t, [j], complex(z))[j]
    return ScaledComplex.from_parts(val, s)


def eval_monic_derivative(t: RecurrenceTable, j: int, z) -> ScaledComplex:
    """pi'_j(z) at one point, by :func:`monic_values_scaled`."""
    _, der, s = monic_values_scaled(t, [j], complex(z), derivative=True)[j]
    return ScaledComplex.from_parts(der, s)


def monic_values_scaled(t: RecurrenceTable, degrees, x, derivative=False):
    """pi_j at many (real or complex) points for each j in ``degrees``.

    ``x`` is a numpy array, vectorized over, or one point as a Python
    number (int, float or complex), for which the values are numbers.
    Returns {j: (values, log_scale)}: pi_j(x) = values e^log_scale, with
    one log scale per point, an array of x's shape (a float for one
    number).  The values are real when x is real, complex otherwise.
    With ``derivative`` it also runs the differentiated recurrence
    pi'_{k+1} = pi_k + (x - a_k) pi'_k - b_k pi'_{k-1} under the same log
    scale and returns {j: (values, derivatives, log_scale)}.
    """
    degrees = sorted(set(int(j) for j in degrees))
    for j in degrees:
        _check_degree(t, j)
    # one number runs the same steps in Python arithmetic: numpy's bits at a
    # real x; at a complex x numpy may fuse the multiply-adds of a product
    scalar = isinstance(x, (int, float, complex))
    if not scalar:
        x = np.asarray(x)

    # real nodes keep a real recurrence: it is half the work and half the memory
    prev = 1.0 if scalar else np.ones_like(x, dtype=np.result_type(x, 1.0))
    top = degrees[-1]
    a, b = t.a[:top + 1].tolist(), t.b[:top + 1].tolist()
    # per step (pi_k, pi_{k-1}) grows at most by reach + max b and shrinks at
    # most by min b / reach: checked every `every` steps and at each output, it
    # stays within 1e250 of [1e-50, 1e50], so nothing overflows for |x| < 1e250.
    # A bound of at least 2 only checks more often; with degree 0 alone (no
    # b_k) at x near 0 the bound would be 1 and its logarithm 0.
    reach = (abs(x) if scalar else float(np.abs(x).max(initial=0.0))) + max(map(abs, a)) + 1.0
    growth = max(reach + max(b), reach / min(b[1:], default=1.0), 2.0)
    every = max(1, int(575.0 / math.log(growth)))

    def pack(vals, ders, s):
        return (vals, ders, s) if derivative else (vals, s)

    # (pi_k, pi_{k-1}), and with them (pi'_k, pi'_{k-1}), share the log scale s
    # of each point; a point whose four leave [1e-50, 1e50] is rescaled to 1,
    # and one that underflowed to 0 keeps its scale
    cur, s = x - a[0], 0.0 if scalar else np.zeros(x.shape)
    dprev, dcur = (0.0 * prev, prev) if derivative else (None, None)  # pi'_0 = 0, pi'_1 = pi_0
    out = {0: pack(prev, dprev, s)} if 0 in degrees else {}
    for k in range(1, top + 1):
        if k % every == 0 or k in degrees:
            state = (cur, prev, dcur, dprev)[:4 if derivative else 2]
            if scalar:
                m = max(map(abs, state))
                m = m if m > 1e50 or 0 < m < 1e-50 else None
            else:
                m = np.abs(cur)
                for v in state[1:]:
                    m = np.maximum(m, np.abs(v), out=m)
                if m.max(initial=0.0) > 1e50 or m.min(initial=1.0) < 1e-50:
                    m = np.where((m > 1e50) | ((m < 1e-50) & (m > 0)), m, 1.0)
                else:
                    m = None  # the common case: no per-point work
            if m is not None:
                s = s + (float(np.log(m)) if scalar else np.log(m))  # the same bits in both
                cur, prev = cur / m, prev / m
                if derivative:
                    dcur, dprev = dcur / m, dprev / m
        if k in degrees:
            out[k] = pack(cur, dcur, s)
        if k < top:
            xa = x - a[k]
            if derivative:
                dprev, dcur = dcur, cur + xa * dcur - b[k] * dprev
            prev, cur = cur, xa * cur - b[k] * prev
    return out


def _check_degree(t: RecurrenceTable, j: int):
    if not (0 <= j <= t.max_degree):
        raise DegreeError(f"degree {j} outside table range 0..{t.max_degree}")
