"""One-cut equilibrium measure for a polynomial external field.

V' is expanded in Chebyshev polynomials mapped to the candidate support;
the finite Hilbert transform of Chebyshev-T against the semicircle weight
is closed form, so the density is a finite Chebyshev-U sum and the two
endpoint (moment) conditions are linear in the expansion coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .orthopoly import PotentialSpec
from .quadrature import legendre_panel


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
    potential: PotentialSpec = field(repr=False, default=None)

    @property
    def center(self) -> float:
        return 0.5 * (self.b0 + self.a1)

    @property
    def radius(self) -> float:
        return 0.5 * (self.a1 - self.b0)

    def psi(self, x):
        """Equilibrium density on (b0, a1); zero outside."""
        from scipy import special as _sp  # on first use: importing the package stays scipy-free

        x = np.asarray(x, dtype=float)
        u = (x - self.center) / self.radius
        inside = np.abs(u) <= 1.0
        u_c = np.clip(u, -1.0, 1.0)
        total = np.zeros_like(u_c)
        for k in range(1, len(self.cheb_coeffs)):
            total += self.cheb_coeffs[k] * _sp.eval_chebyu(k - 1, u_c)
        val = np.sqrt(np.clip(1.0 - u_c * u_c, 0.0, None)) * total / (2.0 * math.pi)
        out = np.where(inside, val, 0.0)
        return out if out.ndim else float(out)

    def log_potential(self, x: float) -> float:
        """integral of log|x - s| psi(s) ds over the support."""
        return _log_potential(self, float(x))


def _cheb_of_vprime(p: PotentialSpec, b0: float, a1: float) -> np.ndarray:
    c = 0.5 * (b0 + a1)
    r = 0.5 * (a1 - b0)
    vp = p.poly().deriv()
    comp = vp(np.polynomial.Polynomial([c, r]))  # V'(c + r u) as polynomial in u
    return np.polynomial.chebyshev.poly2cheb(comp.coef)


def _moment_conditions(p: PotentialSpec, b0: float, a1: float):
    """(d_0, r d_1 - 4): both vanish at the one-cut endpoints."""
    d = _cheb_of_vprime(p, b0, a1)
    r = 0.5 * (a1 - b0)
    d1 = d[1] if len(d) > 1 else 0.0
    return np.array([d[0], r * d1 - 4.0])


def _initial_guess(p: PotentialSpec) -> float:
    """First s = 0.5 * 1.5^k with (s/4) * d_1([-s,s]) >= 1 (or s >= 1e4): Newton's start."""

    def m2(s):
        d = _cheb_of_vprime(p, -s, s)
        d1 = d[1] if len(d) > 1 else 0.0
        return s * d1 / 4.0

    s = 0.5
    while m2(s) < 1.0 and s < 1e4:
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
        potential=p,
    )

    # a posteriori one-cut checks
    grid = np.linspace(b0, a1, 801)[1:-1]
    dens = eq.psi(grid)
    if np.min(dens) < -1e-8:
        raise EquilibriumError(
            "density negative on the candidate support: multi-cut potentials "
            "are out of scope"
        )
    mass = _total_mass(eq)
    if abs(mass - 1.0) > 1e-8:
        raise EquilibriumError(f"equilibrium mass {mass} != 1")

    eq.psi0 = float(eq.psi(0.0))
    if not (b0 < 0.0 < a1):
        raise EquilibriumError("support must straddle the origin")
    if eq.psi0 <= 0:
        raise EquilibriumError("density vanishes at the origin")
    eq.ell = 2.0 * _log_potential(eq, 0.0) - p(0.0)
    return eq


def _total_mass(eq: EquilibriumMeasure) -> float:
    r = eq.radius
    d1 = eq.cheb_coeffs[1] if len(eq.cheb_coeffs) > 1 else 0.0
    return r * d1 / 4.0


def _log_potential(eq: EquilibriumMeasure, x: float) -> float:
    """integral log|x - s| psi(s) ds by panels refined toward s = x and the edges."""
    b0, a1 = eq.b0, eq.a1
    breaks = {b0, a1}
    width = a1 - b0

    def refine(target, lo, hi, floor=1e-13):
        if not (lo <= target <= hi):
            return
        breaks.add(target)
        for end in (lo, hi):
            cur = abs(end - target)
            while cur > floor * width:
                cur *= 0.35
                val = target + math.copysign(cur, end - target)
                if lo <= val <= hi:
                    breaks.add(val)

    refine(x, b0, a1)
    refine(b0 + 1e-13 * width, b0, a1)  # square-root edge behavior
    refine(a1 - 1e-13 * width, b0, a1)
    edges = sorted(breaks)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= 0:
            continue
        xn, wn = legendre_panel(a, b, 16)
        total += float(np.dot(wn, np.log(np.abs(x - xn)) * eq.psi(xn)))
    return total


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
        val = 2.0 * _log_potential(eq, x) - p(x) - eq.ell
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
