"""One-cut equilibrium measure for a polynomial external field, in closed form.

On the candidate support [c - r, c + r] put u = (x - c) / r, and let d_k be
the Chebyshev-T coefficients of V'(c + r u) (Deift, Kriecherbauer &
McLaughlin, J. Approx. Theory 95, 1998).  The endpoints solve the moment
conditions d_0 = 0 and r d_1 = 4 by Newton; the density is
psi = sqrt(1 - u^2) / (2 pi) * sum_k d_k U_{k-1}(u); the log potential,
and with it ell, is a finite sum of the cosine moments of log|u - cos phi|.
No integral is taken numerically, and the module needs numpy only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .orthopoly import PotentialSpec


class EquilibriumError(RuntimeError):
    pass


@dataclass
class EquilibriumMeasure:
    b0: float                 # left endpoint (< 0 for the origin-scaling harness)
    a1: float                 # right endpoint
    cheb_coeffs: np.ndarray   # Chebyshev-T coefficients of V' on [b0, a1]
    psi0: float
    ell: float
    v_at_0: float
    v_prime_at_0: float

    @property
    def center(self) -> float:
        return 0.5 * (self.b0 + self.a1)

    @property
    def radius(self) -> float:
        return 0.5 * (self.a1 - self.b0)

    def psi(self, x):
        """Equilibrium density on (b0, a1); zero outside."""
        C = np.polynomial.chebyshev
        d = self.cheb_coeffs
        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.radius
        u_c = np.clip(u, -1.0, 1.0)
        # sum_k d_k U_{k-1}(u) = d/du sum_k (d_k / k) T_k(u); chebder drops the k = 0 term
        total = C.chebval(u_c, C.chebder(d / np.maximum(np.arange(d.size), 1)))
        val = np.sqrt(np.clip(1.0 - u_c * u_c, 0.0, None)) * total / (2.0 * math.pi)
        out = np.where(np.abs(u) <= 1.0, val, 0.0)
        return out if out.ndim else float(out)

    def log_potential(self, x: float) -> float:
        """integral of log|x - s| psi(s) ds over the support, in closed form.

        With s = c + r cos(phi), psi(s) ds = (r / 2 pi) sum_k d_k sin(k phi) sin(phi) dphi.
        For u = (t + 1/t) / 2, |t| >= 1, the moment I_l of log|u - cos(phi)| against
        cos(l phi) over [0, pi] is pi log(|t| / 2) at l = 0, else -(pi / l) Re t^-l.
        """
        d, r = self.cheb_coeffs, self.radius
        u = (float(x) - self.center) / r
        root = cmath.sqrt((u - 1.0) * (u + 1.0))
        t = u + root if u >= 0.0 else u - root
        moments = np.empty(d.size + 1)  # I_0 .. I_{K+1} for K = deg V'
        moments[0] = math.pi * math.log(abs(t) / 2.0)
        k = np.arange(1, d.size + 1)
        moments[1:] = -math.pi / k * np.power(1.0 / t, k).real
        # sin(k phi) sin(phi) = (cos((k - 1) phi) - cos((k + 1) phi)) / 2
        total = 0.5 * math.pi * d[1] * math.log(r) \
            + 0.5 * float(d[1:] @ (moments[:-2] - moments[2:]))
        return r / (2.0 * math.pi) * total


def _cheb_of_vprime(p: PotentialSpec, b0: float, a1: float) -> np.ndarray:
    """Chebyshev-T coefficients of V'(c + r u), from its Taylor coefficients at c.

    Exact for a quadratic V: Chebyshev interpolation would move the endpoints
    of V = 2x^2 off +-1 by an ulp."""
    P = np.polynomial.polynomial
    c = 0.5 * (b0 + a1)
    r = 0.5 * (a1 - b0)
    taylor = [r ** m * P.polyval(c, P.polyder(p.coeffs, m + 1)) / math.factorial(m)
              for m in range(p.degree)]
    return np.polynomial.chebyshev.poly2cheb(taylor)


def _moment_conditions(p: PotentialSpec, b0: float, a1: float):
    """(d_0, r d_1 - 4): both vanish at the one-cut endpoints."""
    d = _cheb_of_vprime(p, b0, a1)
    return np.array([d[0], 0.5 * (a1 - b0) * d[1] - 4.0])


def _initial_guess(p: PotentialSpec) -> float:
    """First s = 0.5 * 1.5^k with (s/4) * d_1([-s,s]) >= 1 (or s >= 1e4): Newton's start."""
    s = 0.5
    while s * _cheb_of_vprime(p, -s, s)[1] / 4.0 < 1.0 and s < 1e4:
        s *= 1.5
    return s


def solve_equilibrium(p: PotentialSpec) -> EquilibriumMeasure:
    """Endpoints by 2-d Newton on the moment conditions, then the density."""
    s = _initial_guess(p)
    b0, a1 = -s, s
    for it in range(200):
        f = _moment_conditions(p, b0, a1)
        if np.max(np.abs(f)) < 1e-13 * max(1.0, a1 - b0):
            break
        jac = np.zeros((2, 2))
        h = 1e-7 * max(1.0, a1 - b0)
        jac[:, 0] = (_moment_conditions(p, b0 + h, a1) - f) / h
        jac[:, 1] = (_moment_conditions(p, b0, a1 + h) - f) / h
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise EquilibriumError("singular Jacobian in endpoint Newton") from exc
        limit = 0.5 * (a1 - b0)
        step = np.clip(step, -limit, limit)
        b0 += step[0]
        a1 += step[1]
        if not b0 < a1:
            raise EquilibriumError("endpoint iteration collapsed the support")
    else:
        raise EquilibriumError("endpoint Newton did not converge in 200 steps")

    d = _cheb_of_vprime(p, b0, a1)
    eq = EquilibriumMeasure(
        b0=b0, a1=a1, cheb_coeffs=d, psi0=0.0, ell=0.0,
        v_at_0=float(p(0.0)), v_prime_at_0=float(p.derivative(0.0)),
    )

    # a posteriori one-cut checks
    grid = np.linspace(b0, a1, 801)[1:-1]
    dens = eq.psi(grid)
    if np.min(dens) < -1e-8:
        raise EquilibriumError(
            "density negative on the candidate support: multi-cut potentials "
            "are out of scope"
        )
    mass = eq.radius * d[1] / 4.0
    if abs(mass - 1.0) > 1e-8:
        raise EquilibriumError(f"equilibrium mass {mass} != 1")

    eq.psi0 = float(eq.psi(0.0))
    if not (b0 < 0.0 < a1):
        raise EquilibriumError("support must straddle the origin")
    if eq.psi0 <= 0:
        raise EquilibriumError("density vanishes at the origin")
    eq.ell = 2.0 * eq.log_potential(0.0) - p(0.0)
    return eq


@dataclass
class ResidualReport:
    inside_x: list
    inside_residual: list        # |2 U(x) - V(x) - ell|
    outside_x: list
    outside_margin: list         # ell - (2 U(x) - V(x)); positive when valid
    max_inside_residual: float
    min_outside_margin: float


def variational_residuals(eq: EquilibriumMeasure, p: PotentialSpec, grid) -> ResidualReport:
    """Euler-Lagrange equality inside the support, inequality outside."""
    ins_x, ins_r, out_x, out_m = [], [], [], []
    for x in grid:
        x = float(x)
        val = 2.0 * eq.log_potential(x) - p(x) - eq.ell
        if eq.b0 <= x <= eq.a1:
            ins_x.append(x)
            ins_r.append(abs(val))
        else:
            out_x.append(x)
            out_m.append(-val)
    return ResidualReport(
        inside_x=ins_x,
        inside_residual=ins_r,
        outside_x=out_x,
        outside_margin=out_m,
        max_inside_residual=max(ins_r) if ins_r else 0.0,
        min_outside_margin=min(out_m) if out_m else math.inf,
    )
