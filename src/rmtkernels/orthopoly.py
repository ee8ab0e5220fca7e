"""Monic orthogonal polynomials for the weight |x|^(2a) e^(-nV(x)).

One three-term step, :func:`_three_term`, runs every recurrence here.  It
carries (pi_k, pi_{k-1}) under one log scale per point: off the support
|pi_j| grows like e^(n g(z)) (Deift et al., Comm. Pure Appl. Math. 52, 1999),
and at large n the weight underflows inside the support, so no one scale
holds every point.  The step builds the table by a discretized Stieltjes
procedure on the composite Gauss grid of :mod:`rmtkernels.quadrature`, with
the weight and the scales in log form so that every sum stays in range though
norms decay like e^(-c*n).  Two identities of the Jacobi matrix J (a_k on the
diagonal, sqrt(b_k) off it) check the finished table independently of the
grid (Freud, Proc. Roy. Irish Acad. 76A, 1976; Magnus, J. Comput. Appl.
Math. 57, 1995).  Integrating d/dx[x p_j p_k w] over the line, whose
boundary terms vanish for a > -1/2, gives with M = (xV')(J)
n M_kk = 2k + 1 + 2a and n M_{k,k-1} sqrt(b_k) = a_0 + ... + a_{k-1},
for any V and any a.  Row K of M reads b up to K + deg V / 2, so the pass
runs deg V / 2 steps past K; those coefficients are not kept.  The build
checks for rescaling on a growth budget: only once the steps since the last
check may have moved the state 200 nats.  It caches its top three degrees at
the grid nodes on the table, where :meth:`RecurrenceTable.grid_values` reads
them without a second pass over the grid.  :func:`monic_values_scaled`
evaluates polynomials and derivatives with it off the grid, at a numpy array
of points or at one point given as a Python number, in Python arithmetic (a
one-element array costs microseconds a step in numpy's per-call overhead).
:func:`eval_monic` and :func:`eval_monic_derivative` wrap it for one point.
At more than one point the step finishes pi_{k+1} in place in the fresh
array x - a_k, in the expression's order and so with its bits, and writes
no array it has yielded; a one-element array and a Python number keep the
expression, which is faster there.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from .quadrature import WeightDomainError, WeightGrid, build_weight_grid
from .scaled import ScaledComplex


class PrecisionError(RuntimeError):
    """Raised when a recurrence table fails one of its checks."""


class DegreeError(IndexError):
    """A polynomial degree outside the range of a recurrence table."""


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial confining potential, constant term first."""

    coeffs: tuple

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        object.__setattr__(self, "coeffs", c)
        if not all(map(math.isfinite, c)):
            raise WeightDomainError("potential coefficients must be finite")
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
        return max(k for k, c in enumerate(self.coeffs) if c)

    def __call__(self, x):
        return _horner(self.coeffs, x)


def _horner(c, x):
    """sum_k c_k x^k by Horner's rule in numpy's polyval order, so with polyval's bits."""
    v = c[-1] + x * 0
    for ck in c[-2::-1]:
        v = ck + v * x
    return v


@dataclass(frozen=True)
class WeightSpec:
    alpha: float
    n: int
    potential: PotentialSpec

    def __post_init__(self):
        if not -0.5 < self.alpha < math.inf:  # false for nan too
            raise WeightDomainError("alpha must be finite and exceed -1/2 for an integrable weight")
        if not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise WeightDomainError("n must be a positive integer")


# the table's grid: at least DENSE_PANELS dense panels of Gauss order ORDER
DENSE_PANELS = 48
ORDER = 20
# the largest defect of the Jacobi-matrix identities (_identity_defect) a table passes
IDENTITY_TOL = 1e-9


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
    table, by :meth:`memo` or in ``_steps``, cannot go stale.
    """

    weight: WeightSpec
    max_degree: int
    a: np.ndarray              # a[0..K]
    b: np.ndarray              # b[0] unused, b[1..K] > 0
    log_norm_sq: np.ndarray    # log ||pi_j||^2, j = 0..K
    grid: WeightGrid
    orthogonality_residual: float = 0.0
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # a and b as lists, and per top degree k the bounds _cadence takes over
    # degrees 0..k: max |a_j|, max b_j and min b_j over j >= 1 (1 at k = 0)
    _steps: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bounds = (np.maximum.accumulate(np.abs(self.a)), np.maximum.accumulate(self.b),
                  np.r_[1.0, np.minimum.accumulate(self.b[1:])])
        object.__setattr__(self, "_steps", (self.a.tolist(), self.b.tolist(),
                                            np.column_stack(bounds).tolist()))

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

    def grid_values(self, degrees) -> dict:
        """{j: (pi_j, log scale)} at the grid nodes for each j in ``degrees``.

        The degrees the Stieltjes pass cached are read from the memo; one whole-grid
        recurrence serves the others, as :func:`monic_values_scaled` returns them.
        """
        memo = self._memo
        missing = [j for j in degrees if ("grid", "pi", j) not in memo]
        out = monic_values_scaled(self, missing, self.grid.x) if missing else {}
        return {j: out[j] if j in out else memo["grid", "pi", j] for j in degrees}

    def log_gamma_sq(self, j: int) -> float:
        """log gamma_j^2 = -log ||pi_j||^2 (orthonormal leading coefficient squared)."""
        return -float(self.log_norm_sq[_check_degree(j, self.max_degree)])


def build_recurrence(w: WeightSpec, max_degree: int) -> RecurrenceTable:
    K = _check_degree(max_degree, math.inf)
    grid = build_weight_grid(w, dense_panels=max(DENSE_PANELS, int(0.8 * K) + 12),
                             order=ORDER, max_degree=K)
    # discretized Stieltjes on the grid's nodes: with pi_k = cur e^s at the
    # nodes and the weights W = qw e^(logw + 2s - c), refreshed when s
    # changes, S_k = sum W cur^2 is ||pi_k||^2 e^-c and in range.  b_k is the
    # ratio of two sums under one W.  The pass runs deg V / 2 steps past K
    # for the identities' row K.  The state is checked for rescaling only
    # once the steps since the last check may have moved it 200 nats: from
    # within [1e-50, 1e50] it stays within about 1e+-137, so cur^2 cannot
    # overflow.  |x - a_k| + 1 <= reach, as a_k is a weighted mean of nodes
    # within the panels.  a_k, b_k and log ||pi_k||^2 grow as lists, read by
    # _three_term after each yield; the table keeps them to degree K
    a, b, log_norm_sq = [], [], []
    x, p2 = grid.x, np.empty(grid.x.size)
    lo, hi, start, stop = grid.panels
    reach = 2.0 * float(max(-lo[0], hi[-1])) + 1.0  # the panels are sorted and span 0
    checks, budget = set(), 0.0
    s_w, top = None, {}
    for k, s, cur, prev, _ in _three_term(x, a, b, range(K + w.potential.degree // 2 + 1),
                                          checks):
        if K - 2 <= k <= K:  # never written again: the step writes only fresh arrays
            for arr in (cur, s):
                arr.setflags(write=False)
            top["grid", "pi", k] = cur, s
        if s is not s_w:
            e = grid.logw + 2.0 * s
            c = float(e.max())
            W = grid.qw * np.exp(e - c)
            Wx, s_w = W * x, s
            s_prev = float(np.dot(W, prev * prev))
        sk = float(np.dot(W, np.multiply(cur, cur, out=p2)))
        if not (sk > 0) or not math.isfinite(sk):
            raise PrecisionError(f"lost positivity of the norm at degree {k}")
        log_norm_sq.append(math.log(sk) + c)
        a.append(float(np.dot(Wx, p2)) / sk)
        b.append(sk / s_prev if k else 0.0)
        s_prev = sk
        if k == K:  # pi_K^2 w must have decayed before the grid ends on either side
            edge = max(np.dot(W[i:j], p2[i:j]) for i, j in zip(start[[0, -1]], stop[[0, -1]])) / sk
        bk = b[k] if k else 1.0  # the step to degree k + 1; pi_1 = x - a_0 takes no b
        budget += _log_growth(reach, bk, bk)
        if budget > 200.0:
            checks.add(k + 1)
            budget = 0.0

    if edge > 1e-15:
        raise PrecisionError(f"the outermost grid panel holds {edge:.3e} of ||pi_{K}||^2")
    residual, k = _identity_defect(w, np.array(a), np.array(b), K)
    if not residual <= IDENTITY_TOL:  # false for nan too
        raise PrecisionError(f"orthogonality residual {residual:.3e} at degree {k} of the "
                             f"Jacobi-matrix identities exceeds {IDENTITY_TOL:.0e}: the grid "
                             f"does not resolve pi_{k}")
    a, b, log_norm_sq = (np.array(v[:K + 1]) for v in (a, b, log_norm_sq))
    for arr in (a, b, log_norm_sq):
        arr.setflags(write=False)

    t = RecurrenceTable(weight=w, max_degree=K, a=a, b=b, log_norm_sq=log_norm_sq, grid=grid,
                        orthogonality_residual=residual)
    t._memo.update(top)
    return t


def _identity_defect(w: WeightSpec, a, b, K):
    """(worst defect, its degree) of the Freud-Magnus identities over degrees 0..K.

    ``a`` and ``b`` reach degree K + deg V / 2, so that no path of J from a
    row k <= K leaves its truncation.  M = (xV')(J) is built by Horner's rule
    in bands C[deg V + r, j] = M_{j+r, j}: a column of M J mixes three columns
    of M with factors of the column alone.
    """
    d = w.potential.degree
    L = K + d // 2 + 1
    q = [m * c for m, c in enumerate(w.potential.coeffs[:d + 1])]  # xV'(x)
    s = np.sqrt(b[1:L])  # J_{j-1,j}, j = 1..L-1
    C = np.zeros((2 * d + 1, L))
    C[d] = q[d]
    for qm in q[-2::-1]:  # M <- M J + q_m I
        new = C * a[:L]
        new[:-1, 1:] += C[1:, :-1] * s
        new[1:, :-1] += C[:-1, 1:] * s
        new[d] += qm
        C = new
    rhs = 2.0 * np.arange(K + 1) + 1.0 + 2.0 * w.alpha
    defect = np.abs(w.n * C[d, :K + 1] - rhs)
    defect[1:] = np.maximum(defect[1:], np.abs(w.n * C[d + 1, :K] * s[:K] - np.cumsum(a[:K])))
    defect /= np.maximum(rhs, 1.0)  # at k = 0, O(1) terms sum to 1 + 2a, which vanishes at -1/2
    worst = int(np.argmax(defect))  # the first nan, if any
    return float(defect[worst]), worst


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

    ``x`` is a numpy array, vectorized over in at least double precision,
    or one point as a Python number (int, float or complex), for which the
    values are numbers; a point that is not finite raises
    WeightDomainError.  No degrees give {}.
    Returns {j: (values, log_scale)}: pi_j(x) = values e^log_scale, with
    one log scale per point, an array of x's shape (a float for one
    number).  The values are real when x is real, complex otherwise.
    With ``derivative`` it also runs the differentiated recurrence
    pi'_{k+1} = pi_k + (x - a_k) pi'_k - b_k pi'_{k-1} under the same log
    scale and returns {j: (values, derivatives, log_scale)}.
    """
    degrees = sorted({_check_degree(j, t.max_degree) for j in degrees})
    top = max(degrees, default=0)
    a, b, bounds = t._steps
    step = _cadence(x, *bounds[top])  # (pi_0, pi_{-1}) = (1, 0) needs no check
    if not degrees:  # the points are checked all the same
        return {}
    checks = set(range(step, top + 1, step)).union(degrees)
    return {k: (cur, dcur, s) if derivative else (cur, s)
            for k, s, cur, _, dcur in _three_term(x, a, b, degrees, checks, derivative)}


def _cadence(x, a_max, b_max, b_min):
    """Steps between rescaling checks at the points x (an array or a number).

    With reach = max |x| + max |a| + 1 and the bounds ``a_max``, ``b_max``
    and ``b_min`` over the degrees run, :func:`_log_growth` bounds each step:
    checked this often (pi_k, pi_{k-1}) stays within 1e250 of [1e-50, 1e50],
    so nothing overflows for |x| < 1e250.
    """
    reach = abs(x) if isinstance(x, (int, float, complex)) else float(np.abs(x).max(initial=0.0))
    if not math.isfinite(reach):  # nan too
        raise WeightDomainError("polynomials are evaluated at finite points only")
    reach += a_max + 1.0
    return max(1, int(575.0 / _log_growth(reach, b_max, b_min)))


def _log_growth(reach, b_max, b_min):
    """Nats by which one step can move max(|pi_k|, |pi_{k-1}|) either way.

    With |x - a_k| + 1 <= reach and b_min <= b_k <= b_max, pi_{k+1} =
    (x - a_k) pi_k - b_k pi_{k-1} grows it at most by reach + b_max and
    shrinks it at most by b_min / reach.  A bound of at least 2 only checks
    more often; with degree 0 alone (no b_k) at x near 0 the bound would be
    1 and its logarithm 0.
    """
    return math.log(max(reach + b_max, reach / b_min, 2.0))


def _three_term(x, a, b, outputs, checks, derivative=False):
    """pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1} from pi_0 = 1 at the points x.

    Yields (k, s, pi_k e^-s, pi_{k-1} e^-s, pi'_k e^-s) at each degree k of
    ``outputs`` (ascending), with one log scale s per point; pi'_k is None
    without ``derivative``.  a_k and b_k are read only after pi_k is
    yielded, so a caller may fill them in then.  At each degree of
    ``checks`` a point whose state has left [1e-50, 1e50] is rescaled to 1
    and s becomes a new object; one that underflowed to 0 keeps its scale.
    ``checks`` is read as each degree comes, like a and b: the table build
    adds the next degree once its growth budget is spent, and the
    evaluator fixes them up front by :func:`_cadence`.
    One point as a Python number runs in Python arithmetic: numpy's bits at
    a real x; at a complex x numpy may fuse the multiply-adds of a product.
    At more than one point pi_{k+1} is finished in place in the fresh array
    x - a_k (times pi_k, less b_k pi_{k-1}: the expression's operations in
    its order), so no yielded array is ever written and a caller may hold
    them.  A one-element array and a Python number take the expression,
    whose allocations cost less there than numpy's in-place calls.
    """
    scalar = isinstance(x, (int, float, complex))
    if not scalar:  # at least double precision: float32 overflows below the 1e50 rescale
        x = np.asarray(x)
        x = x.astype(np.promote_types(x.dtype, np.float64), copy=False)
    many = not scalar and x.size > 1
    # real nodes keep a real recurrence: it is half the work and half the memory
    cur = 1.0 if scalar else np.ones_like(x)
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
            if many and k:  # in place, in the expression's order
                xa *= cur
                xa -= b[k] * prev
                prev, cur = cur, xa
            else:
                prev, cur = cur, xa * cur - b[k] * prev if k else xa


def _check_degree(j, top) -> int:
    """``j`` as an int; DegreeError unless it is an integer in 0..top."""
    try:
        j = operator.index(j)
    except TypeError:
        raise DegreeError(f"degree {j!r} is not an integer") from None
    if not 0 <= j <= top:
        raise DegreeError(f"degree {j} outside 0..{top}")
    return j
