"""Independent references for the benchmark's output checks.

Nothing here imports rmtkernels.  For V(x) = 2x^2 the weight
|x|^(2a) e^(-2n x^2) is a rescaled generalized Hermite weight, so its monic
recurrence is known in closed form: a_k = 0 and b_k = (k + 2a [k odd]) / (4n).
Cauchy transforms come from a backward (Miller) recurrence for the minimal
solution of that recurrence, seeded with h_0 from scipy.integrate.quad
(Gautschi, SIAM Rev. 9, 1967).  Every value is handled as a complex
logarithm, because the magnitudes at these n under- and overflow doubles.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
from scipy import integrate

# Miller starts at depth miller_depth(n) and twice that; where both agree to
# MILLER_AGREE the reference is trusted, elsewhere the triple is checked
# against the three-term relation instead.
MILLER_AGREE = 1e-10
REL_TOL = 1e-6


def miller_depth(n: int) -> int:
    return 4 * n + 200


def recurrence_b(alpha: float, n: int, k):
    k = np.asarray(k)
    return (k + 2.0 * alpha * (k % 2)) / (4.0 * n)


def monic_log(alpha: float, n: int, j: int, x: complex) -> complex:
    """log pi_j(x) by the closed-form forward recurrence, rescaled per step."""
    x = complex(x)
    prev, cur, log_s = 0j, 1 + 0j, 0.0
    for k in range(j):
        b = float(recurrence_b(alpha, n, k)) if k else 0.0
        prev, cur = cur, x * cur - b * prev
        m = max(abs(cur), abs(prev))
        prev, cur, log_s = prev / m, cur / m, log_s + math.log(m)
    return cmath.log(cur) + log_s


def h0(alpha: float, n: int, z: complex) -> complex:
    """h_0(z) = 1/(2 pi i) * integral |x|^2a e^(-2n x^2) / (x - z) dx."""
    x0, y = z.real, z.imag
    cut = math.sqrt(800.0 / (2.0 * n)) + 1.0  # weight below e^-800 beyond
    pts = sorted({p for p in (0.0, x0) if -cut < p < cut})

    def w(x):
        return abs(x) ** (2.0 * alpha) * math.exp(-2.0 * n * x * x)

    def part(f):
        return integrate.quad(f, -cut, cut, points=pts, limit=400,
                              epsabs=0.0, epsrel=1e-12)[0]

    with warnings.catch_warnings():
        # quad reports that it stopped at rounding level; that is the aim
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        re = part(lambda x: w(x) * (x - x0) / ((x - x0) ** 2 + y * y))
        im = part(lambda x: w(x) * y / ((x - x0) ** 2 + y * y))
    return complex(re, im) / (2j * math.pi)


def miller_logs(alpha: float, n: int, zs, degrees, depth: int, log_h0):
    """log h_k(z) for k in degrees, vectorized over zs.

    Runs rho_k = h_k / h_{k-1} = b_k / (z - rho_{k+1}) down from rho = 0 at
    ``depth``; log h_k is then log h_0 plus the sum of log rho_1..rho_k.
    """
    zs = np.asarray(zs, dtype=complex)
    kmax = max(degrees)
    rho = np.zeros_like(zs)
    kept = {}
    for k in range(depth, 0, -1):
        rho = recurrence_b(alpha, n, k) / (zs - rho)
        if k <= kmax:
            kept[k] = rho
    acc = np.asarray(log_h0, dtype=complex).copy()
    out = {}
    for k in range(1, kmax + 1):
        acc = acc + np.log(kept[k])
        if k in degrees:
            out[k] = acc.copy()
    return out


def rel_err_log(got: complex, want: complex) -> float:
    """|got/want - 1| for values given as complex logarithms."""
    d = got - want
    if d.real > 50.0:
        return math.inf
    return abs(cmath.exp(d) - 1.0)


def relation_residual(alpha: float, n: int, z: complex, logs) -> float:
    """|h_{n+1} - z h_n + b_n h_{n-1}| relative to its largest term."""
    lo, mid, hi = logs
    terms = (hi, cmath.log(z) + mid, math.log(float(recurrence_b(alpha, n, n))) + lo)
    top = max(t.real for t in terms)
    r = cmath.exp(terms[0] - top) - cmath.exp(terms[1] - top) + cmath.exp(terms[2] - top)
    return abs(r)


class PlaneReference:
    """Reference for h_{n-1}, h_n, h_{n+1} of one (alpha, n) over many z."""

    def __init__(self, alpha: float, n: int, zs):
        self.alpha, self.n = alpha, n
        self.zs = [complex(z) for z in zs]
        self.degrees = (n - 1, n, n + 1)
        lh0 = np.array([cmath.log(h0(alpha, n, z)) for z in self.zs])
        d = miller_depth(n)
        r1 = miller_logs(alpha, n, self.zs, self.degrees, d, lh0)
        r2 = miller_logs(alpha, n, self.zs, self.degrees, 2 * d, lh0)
        self.logs = [tuple(complex(r2[k][i]) for k in self.degrees)
                     for i in range(len(self.zs))]
        self.converged = [
            all(rel_err_log(complex(r1[k][i]), complex(r2[k][i])) < MILLER_AGREE
                for k in self.degrees)
            for i in range(len(self.zs))
        ]

    def check(self, i: int, got_logs) -> list:
        """Pass flag per degree for the returned logs at zs[i].

        ``got_logs`` holds a complex log per degree, or None where the call
        raised.  Off the bulk each value is compared with Miller's; on the
        bulk the returned triple must satisfy the three-term relation.
        """
        if self.converged[i]:
            return [g is not None and rel_err_log(g, w) < REL_TOL
                    for g, w in zip(got_logs, self.logs[i])]
        if any(g is None for g in got_logs):
            return [False] * 3
        ok = relation_residual(self.alpha, self.n, self.zs[i], got_logs) < REL_TOL
        return [ok] * 3
