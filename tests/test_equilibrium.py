import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from rmtkernels import equilibrium
from rmtkernels.equilibrium import (
    EquilibriumError,
    solve_equilibrium,
    variational_residuals,
)
from rmtkernels.orthopoly import PotentialSpec


def test_scaled_semicircles():
    # V = c x^2: support [-sqrt(2/c), sqrt(2/c)], psi(0) = sqrt(2 c)/pi
    for c in (0.5, 1.0, 2.0):
        eq = solve_equilibrium(PotentialSpec((0.0, 0.0, c)))
        edge = math.sqrt(2.0 / c)
        assert eq.b0 == pytest.approx(-edge, abs=1e-12)
        assert eq.a1 == pytest.approx(edge, abs=1e-12)
        assert eq.psi0 == pytest.approx(math.sqrt(2.0 * c) / math.pi, rel=1e-12)


def test_reference_quadratic_constants():
    # V = 2x^2: endpoints +-1, psi0 = 2/pi, ell = -1 - 2 log 2
    eq = solve_equilibrium(PotentialSpec((0.0, 0.0, 2.0)))
    assert eq.b0 == pytest.approx(-1.0, abs=1e-12)
    assert eq.a1 == pytest.approx(1.0, abs=1e-12)
    assert eq.psi0 == pytest.approx(2.0 / math.pi, rel=1e-12)
    assert eq.ell == pytest.approx(-1.0 - 2.0 * math.log(2.0), abs=1e-10)
    assert eq.v_at_0 == 0.0
    assert eq.v_prime_at_0 == 0.0


def test_density_normalized_and_vanishes_at_edges():
    eq = solve_equilibrium(PotentialSpec((0.0, 0.0, 2.0)))
    xs = np.linspace(eq.b0, eq.a1, 4001)
    mass = np.trapezoid(eq.psi(xs), xs)
    assert mass == pytest.approx(1.0, abs=1e-5)
    assert eq.psi(eq.b0) == pytest.approx(0.0, abs=1e-12)
    assert eq.psi(eq.a1) == pytest.approx(0.0, abs=1e-12)
    assert eq.psi(eq.a1 + 0.5) == 0.0


def test_semicircle_density_profile():
    # V = 2x^2 has psi(x) = (2/pi) sqrt(1 - x^2)
    eq = solve_equilibrium(PotentialSpec((0.0, 0.0, 2.0)))
    for x in (-0.9, -0.4, 0.0, 0.3, 0.75):
        want = 2.0 / math.pi * math.sqrt(1.0 - x * x)
        assert eq.psi(x) == pytest.approx(want, rel=1e-12)


def test_variational_conditions():
    p = PotentialSpec((0.0, 0.0, 2.0))
    eq = solve_equilibrium(p)
    inside = np.linspace(-0.95, 0.95, 10)
    outside = np.concatenate([np.linspace(1.05, 3.0, 5), np.linspace(-3.0, -1.05, 5)])
    rep = variational_residuals(eq, p, np.concatenate([inside, outside]))
    assert rep.max_inside_residual < 1e-10
    assert rep.min_outside_margin > 0.0
    assert len(rep.inside_x) == 10 and len(rep.outside_x) == 10


def test_asymmetric_quartic():
    # convex perturbed quartic: support need not be symmetric, but the
    # moment conditions and variational characterization must still hold
    p = PotentialSpec((0.0, 0.3, 1.0, 0.0, 0.25))
    eq = solve_equilibrium(p)
    assert eq.b0 < 0.0 < eq.a1
    assert abs(eq.b0 + eq.a1) > 1e-6  # genuinely asymmetric
    xs = np.linspace(eq.b0, eq.a1, 4001)
    assert np.trapezoid(eq.psi(xs), xs) == pytest.approx(1.0, abs=1e-5)
    grid = np.concatenate([
        np.linspace(eq.b0 + 0.05, eq.a1 - 0.05, 8),
        [eq.b0 - 0.5, eq.a1 + 0.5],
    ])
    rep = variational_residuals(eq, p, grid)
    assert rep.max_inside_residual < 1e-8
    assert rep.min_outside_margin > 0.0


def test_quartic_oracle():
    # V = x^4: endpoints satisfy 3 a^4 = 4, i.e. a = (4/3)^{1/4}
    eq = solve_equilibrium(PotentialSpec((0.0, 0.0, 0.0, 0.0, 1.0)))
    a = (4.0 / 3.0) ** 0.25
    assert eq.a1 == pytest.approx(a, rel=1e-10)
    assert eq.b0 == pytest.approx(-a, rel=1e-10)
    # psi(x) = (1/pi)(2 x^2 + a^2) sqrt(a^2 - x^2) for V = x^4
    for x in (0.0, 0.5, -0.8):
        want = (2.0 * x * x + a * a) * math.sqrt(a * a - x * x) / math.pi
        assert eq.psi(x) == pytest.approx(want, rel=1e-10)


def test_multi_cut_rejected():
    # deep symmetric double well pushes the density negative at the origin
    with pytest.raises(EquilibriumError):
        solve_equilibrium(PotentialSpec((0.0, 0.0, -4.0, 0.0, 1.0)))


# 2x^2, x^4, the asymmetric quartic and a sextic
REFERENCE_POTENTIALS = (
    (0.0, 0.0, 2.0),
    (0.0, 0.0, 0.0, 0.0, 1.0),
    (0.0, 0.3, 1.0, 0.0, 0.25),
    (0.0, 0.1, 1.0, 0.0, 0.0, 0.0, 0.2),
)


@functools.cache
def _solved(coeffs):
    return solve_equilibrium(PotentialSpec(coeffs))


def _quad(f, lo, hi, split=None):
    """Adaptive quadrature over [lo, hi], split at a log singularity inside it."""
    ends = [lo, split, hi] if split is not None and lo < split < hi else [lo, hi]
    return sum(integrate.quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
               for a, b in zip(ends[:-1], ends[1:]))


@pytest.mark.parametrize("coeffs", REFERENCE_POTENTIALS)
def test_density_mass_by_adaptive_quadrature(coeffs):
    eq = _solved(coeffs)
    assert _quad(eq.psi, eq.b0, eq.a1) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(coeffs=st.sampled_from(REFERENCE_POTENTIALS),
       v=st.one_of(st.sampled_from((-1.0, 1.0)), st.floats(-0.999, 0.999),
                   st.floats(1.001, 3.0), st.floats(-3.0, -1.001)))
def test_log_potential_matches_adaptive_quadrature(coeffs, v):
    # x = c + r v: inside the support for |v| < 1, at an edge for |v| = 1, outside beyond
    eq = _solved(coeffs)
    x = {-1.0: eq.b0, 1.0: eq.a1}.get(v, eq.center + eq.radius * v)
    want = _quad(lambda s: math.log(abs(x - s)) * eq.psi(s), eq.b0, eq.a1, split=x)
    assert eq.log_potential(x) == pytest.approx(want, abs=1e-12)


def _numpy_cheb_of_vprime(coeffs, b0, a1):
    """The Chebyshev coefficients of V'(c + r u) by numpy.polynomial: the reference."""
    P = np.polynomial.polynomial
    c, r = 0.5 * (b0 + a1), 0.5 * (a1 - b0)
    degree = len(np.trim_zeros(np.asarray(coeffs, dtype=float), "b")) - 1
    taylor = [r ** m * P.polyval(c, P.polyder(coeffs, m + 1)) / math.factorial(m)
              for m in range(degree)]
    return np.polynomial.chebyshev.poly2cheb(taylor)


_COEFFS = st.lists(st.one_of(st.just(0.0), st.floats(-3.0, 3.0)), min_size=0, max_size=6)


@settings(deadline=None)
@given(head=_COEFFS, lead=st.floats(0.01, 3.0), trailing=st.integers(0, 2),
       b0=st.floats(-4.0, -0.01), a1=st.floats(0.01, 4.0))
def test_chebyshev_coefficients_are_numpys_bits(head, lead, trailing, b0, a1):
    # the Python-arithmetic derivative rows, Horner sums and poly2cheb steps
    # give numpy.polynomial's floats exactly, trailing zeros included
    head = tuple(head) + (0.0,) * max(2 - len(head), len(head) % 2)  # an even degree >= 2
    coeffs = head + (lead,) + (0.0,) * trailing
    got = equilibrium._cheb_of_vprime(PotentialSpec(coeffs), b0, a1)
    want = _numpy_cheb_of_vprime(coeffs, b0, a1)
    assert repr(np.array(got).tolist()) == repr(want.tolist())


@settings(deadline=None)
@given(pol=st.lists(st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e3, 1e3)),
                    min_size=1, max_size=8))
def test_poly2cheb_steps_are_numpys(pol):
    got = equilibrium._poly2cheb(list(pol))
    assert repr(np.array(got).tolist()) == repr(np.polynomial.chebyshev.poly2cheb(pol).tolist())


@pytest.mark.parametrize("coeffs", [(0.0, 0.0, 2.0), (0.0, 0.5, 0.0, 0.0, 1.0),
                                    (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 2.0, 0.0)])
def test_v_prime_at_0_is_polyval(coeffs):
    P = np.polynomial.polynomial
    eq = solve_equilibrium(PotentialSpec(coeffs))
    assert eq.v_prime_at_0 == float(P.polyval(0.0, P.polyder(coeffs)))
