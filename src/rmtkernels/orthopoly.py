"""Monic orthogonal polynomials for the weight |x|^(2a) e^(-nV(x)).

One three-term step, :func:`_three_term`, runs every recurrence here.  It
carries (pi_k, pi_{k-1}) under one log scale per point: off the support
|pi_j| grows like e^(n g(z)) (Deift et al., Comm. Pure Appl. Math. 52, 1999),
and at large n the weight underflows inside the support, so no one scale
holds every point.  The step builds the table by a discretized Stieltjes
procedure on the composite Gauss grid of :mod:`rmtkernels.quadrature`, with
the weight and the scales in log form so that every sum is O(1) though norms
decay like e^(-c*n); it replays the table for the orthogonality self-check;
and :func:`monic_values_scaled` evaluates polynomials and derivatives with it
off the grid, at a numpy array of points or at one point given as a Python
number, in Python arithmetic (a one-element array costs microseconds a step
in numpy's per-call overhead).  :func:`eval_monic` and
:func:`eval_monic_derivative` wrap it for one point.
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


# the table's grid: at least DENSE_PANELS dense panels of Gauss order ORDER
DENSE_PANELS = 48
ORDER = 20


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


def build_recurrence(w: WeightSpec, max_degree: int) -> RecurrenceTable:
    if max_degree < 0:
        raise DegreeError(f"max_degree {max_degree} is negative")
    K = max_degree
    grid = build_weight_grid(w, dense_panels=max(DENSE_PANELS, int(0.8 * K) + 12),
                             order=ORDER, max_degree=K)
    x, qw, logw = grid.x, grid.qw, grid.logw

    # discretized Stieltjes: with pi_k = cur e^s at the nodes and the weights
    # W = qw e^(logw + 2s - c), refreshed when s changes, S_k = sum W cur^2 is
    # ||pi_k||^2 e^-c and O(1).  b_k is the ratio of two sums under one W.
    a, b, log_norm_sq = (np.zeros(K + 1) for _ in range(3))
    s_w = None
    for k, s, cur, prev, _ in _three_term(x, a, b, range(K + 1), range(K + 1)):
        if s is not s_w:
            e = logw + 2.0 * s
            c = float(e.max())
            W = qw * np.exp(e - c)
            Wx, s_w = W * x, s
            s_prev = float(np.dot(W, prev * prev))
        p2 = cur * cur
        sk = float(np.dot(W, p2))
        if not (sk > 0) or not math.isfinite(sk):
            raise PrecisionError(f"lost positivity of the norm at degree {k}")
        log_norm_sq[k] = math.log(sk) + c
        a[k] = float(np.dot(Wx, p2)) / sk
        b[k] = sk / s_prev if k else 0.0
        s_prev = sk

    # pi_K^2 w must have decayed before the grid ends on either side
    _, _, start, stop = grid.panels
    edge = max(np.dot(W[i:j], p2[i:j]) for i, j in zip(start[[0, -1]], stop[[0, -1]])) / sk
    if edge > 1e-15:
        raise PrecisionError(f"the outermost grid panel holds {edge:.3e} of ||pi_{K}||^2")

    # orthogonality self-check on the Gram matrix of the rows
    # pi_j sqrt(qw w) / ||pi_j||, each O(1), replayed over chunks of K + 1 nodes
    # or 512 KiB, whichever is more: one (K+1) x N array would set the peak
    # memory on large tables, and more chunks cost numpy calls on small ones.
    # Row j is cur F e^(c - log ||pi_j||), F = sqrt(qw) e^(logw/2 + s - c)
    # refreshed when s changes; the replay rescales at the growth bound's cadence.
    checks = range(0, K + 1, _cadence(x, a, b))
    G = np.zeros((K + 1, K + 1))
    size = max(K + 1, (1 << 19) // (8 * (K + 1)))
    for lo in range(0, x.size, size):
        nodes = slice(lo, lo + size)
        rows, logc = np.empty((K + 1, x[nodes].size)), np.empty(K + 1)
        s_f = None
        for k, s, cur, _, _ in _three_term(x[nodes], a, b, range(K + 1), checks):
            if s is not s_f:
                e = 0.5 * logw[nodes] + s
                c = float(e.max())
                F, s_f = np.sqrt(qw[nodes]) * np.exp(e - c), s
            np.multiply(cur, F, out=rows[k])
            logc[k] = c
        rows *= np.exp(logc - 0.5 * log_norm_sq)[:, None]
        G += rows @ rows.T
    d = np.sqrt(np.abs(np.diag(G)))
    R = np.abs(G) / np.outer(d, d)
    np.fill_diagonal(R, 0.0)
    residual = float(R.max())
    if not residual <= 1e-7:
        i, j = np.unravel_index(np.argmax(R), R.shape)
        raise PrecisionError(f"orthogonality residual {residual:.3e} at degrees ({i},{j}) "
                             f"exceeds 1e-7; lower max_degree")
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
    top = degrees[-1]
    a, b = t.a[:top + 1].tolist(), t.b[:top + 1].tolist()
    step = _cadence(x, a, b)  # (pi_0, pi_{-1}) = (1, 0) needs no check
    checks = set(range(step, top + 1, step)).union(degrees)
    return {k: (cur, dcur, s) if derivative else (cur, s)
            for k, s, cur, _, dcur in _three_term(x, a, b, degrees, checks, derivative)}


def _cadence(x, a, b):
    """Steps between rescaling checks at the points x (an array or a number).

    Per step (pi_k, pi_{k-1}) grows at most by reach + max b and shrinks at
    most by min b / reach, reach = max |x| + max |a| + 1: checked this often
    it stays within 1e250 of [1e-50, 1e50], so nothing overflows for
    |x| < 1e250.  A bound of at least 2 only checks more often; with degree 0
    alone (no b_k) at x near 0 the bound would be 1 and its logarithm 0.
    """
    reach = abs(x) if isinstance(x, (int, float, complex)) else float(np.abs(x).max(initial=0.0))
    reach += max(map(abs, a)) + 1.0
    growth = max(reach + max(b), reach / min(b[1:], default=1.0), 2.0)
    return max(1, int(575.0 / math.log(growth)))


def _three_term(x, a, b, outputs, checks, derivative=False):
    """pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1} from pi_0 = 1 at the points x.

    Yields (k, s, pi_k e^-s, pi_{k-1} e^-s, pi'_k e^-s) at each degree k of
    ``outputs`` (ascending), with one log scale s per point; pi'_k is None
    without ``derivative``.  a_k and b_k are read only after pi_k is
    yielded, so a caller may fill them in then.  At each degree of
    ``checks`` a point whose state has left [1e-50, 1e50] is rescaled to 1
    and s becomes a new object; one that underflowed to 0 keeps its scale.
    One point as a Python number runs in Python arithmetic: numpy's bits at
    a real x; at a complex x numpy may fuse the multiply-adds of a product.
    """
    scalar = isinstance(x, (int, float, complex))
    x = x if scalar else np.asarray(x)
    # real nodes keep a real recurrence: it is half the work and half the memory
    cur = 1.0 if scalar else np.ones_like(x, dtype=np.result_type(x, 1.0))
    prev, s = 0.0 * cur, 0.0 if scalar else np.zeros(x.shape)
    dcur = dprev = prev if derivative else None  # pi'_0 = pi'_{-1} = 0
    top = outputs[-1]
    for k in range(top + 1):
        if k in checks:
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
        if k in outputs:
            yield k, s, cur, prev, dcur
        if k < top:  # pi_1 = x - a_0 and pi'_1 = pi_0, without the arithmetic on zeros
            xa = x - a[k]
            if derivative:
                dprev, dcur = dcur, cur + xa * dcur - b[k] * dprev if k else cur
            prev, cur = cur, xa * cur - b[k] * prev if k else xa


def _check_degree(t: RecurrenceTable, j: int):
    if not (0 <= j <= t.max_degree):
        raise DegreeError(f"degree {j} outside table range 0..{t.max_degree}")
