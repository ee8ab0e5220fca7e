import cmath
import math

import numpy as np
import pytest
from scipy import special

from rmtkernels.bessel_limits import LimitKernelId, limit_grid, limit_kernel
from rmtkernels.specfun import SpecfunDomainError

from conftest import ratio_identity_value

_PI = math.pi


def _grid(side, n=10):
    """n x n complex points in the requested half-plane (0 = near-real)."""
    res = np.linspace(-1.8, 1.8, n)
    if side == 0:
        ims = np.linspace(-0.9, 0.9, n)
    elif side > 0:
        ims = np.linspace(0.1, 1.4, n)
    else:
        ims = np.linspace(-1.4, -0.1, n)
    pts = [complex(r, i) for r in res for i in ims]
    return [z for z in pts if abs(z) > 1e-9 and not (z.imag == 0 and z.real <= 0)]


def _sine(d):
    return cmath.sin(_PI * d) / (_PI * d) if d != 0 else 1.0


def test_alpha0_family_I_is_sine_kernel():
    for zeta in _grid(0, 10)[::7]:
        for eta in _grid(0, 10)[3::7]:
            d = zeta - eta
            if abs(d) < 1e-4:
                continue
            got = limit_kernel(LimitKernelId.I, 0.0, zeta, eta)
            assert got == pytest.approx(_sine(d), rel=1e-12, abs=1e-12)


def test_alpha0_family_II_exponential_kernels():
    for zeta in _grid(+1, 10)[::7]:
        for eta in _grid(0, 10)[3::7]:
            d = zeta - eta
            want = -1j * cmath.exp(1j * _PI * d) / (2 * _PI * d)
            got = limit_kernel(LimitKernelId.II_plus, 0.0, zeta, eta)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    for zeta in _grid(-1, 10)[::7]:
        for eta in _grid(0, 10)[3::7]:
            d = zeta - eta
            want = -1j * cmath.exp(-1j * _PI * d) / (2 * _PI * d)
            got = limit_kernel(LimitKernelId.II_minus, 0.0, zeta, eta)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_alpha0_family_III_kernels():
    for zeta in _grid(+1, 10)[::7]:
        for eta in _grid(+1, 10)[3::7]:
            assert abs(limit_kernel(LimitKernelId.III_plus, 0.0, zeta, eta)) < 1e-12
    for zeta in _grid(-1, 10)[::7]:
        for eta in _grid(-1, 10)[3::7]:
            assert abs(limit_kernel(LimitKernelId.III_minus, 0.0, zeta, eta)) < 1e-12
    for zeta in _grid(+1, 10)[::7]:
        for eta in _grid(-1, 10)[3::7]:
            d = zeta - eta
            want = 1j * cmath.exp(1j * _PI * d) / (2 * _PI * d)
            got = limit_kernel(LimitKernelId.III_pm, 0.0, zeta, eta)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_diagonal_confluence():
    for kid, side in ((LimitKernelId.I, 0), (LimitKernelId.III_plus, +1),
                      (LimitKernelId.III_minus, -1)):
        zeta = complex(0.6, 0.4 * (side if side else 0.3))
        diag = limit_kernel(kid, 0.3, zeta, zeta)
        near = limit_kernel(kid, 0.3, zeta, zeta + 1e-7)
        off = limit_kernel(kid, 0.3, zeta, zeta + 1e-3)
        assert diag == pytest.approx(near, rel=1e-6)
        assert diag == pytest.approx(off, rel=1e-2, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.2])
def test_kernel_I_near_the_diagonal_matches_mpmath(alpha):
    # J_I(zeta, zeta + delta) for delta from 1e-12 to 1e-3 along both axes
    # against the quotient in 50-digit arithmetic: inside the threshold the
    # derivative form is taken at the midpoint, so its error is O(delta^2)
    mp = pytest.importorskip("mpmath")

    def quotient(zeta, eta):
        z, e = mp.mpc(zeta), mp.mpc(eta)
        jz, je = ([mp.besselj(nu, mp.pi * w) for nu in (alpha + 0.5, alpha - 0.5)]
                  for w in (z, e))
        return (mp.pi * z ** (0.5 - alpha) * e ** (0.5 - alpha) * (jz[0] * je[1] - jz[1] * je[0])
                / (2 * (z - e)))

    with mp.workdps(50):
        for zeta in (0.3, 0.02 + 0.01j, 0.9, -0.5 + 0.2j):
            for delta in (10.0 ** e * d for e in range(-12, -2) for d in (1, 1j)):
                want = quotient(zeta, zeta + delta)
                got = limit_kernel(LimitKernelId.I, alpha, zeta, zeta + delta)
                assert abs(got - want) < 3e-9 * abs(want), (zeta, delta)


def test_diagonal_sine_kernel_value():
    assert limit_kernel(LimitKernelId.I, 0.0, 0.7, 0.7) == pytest.approx(1.0, rel=1e-12)


def test_ratio_identity_is_one():
    for alpha in (0.0, 0.3, 1.2):
        for zeta in (0.3, 1.0 + 0.5j, 2.5 - 0.3j, 14.0):
            assert ratio_identity_value(alpha, zeta) == pytest.approx(1.0, rel=1e-10)


def test_half_plane_guards():
    with pytest.raises(SpecfunDomainError):
        limit_kernel(LimitKernelId.II_plus, 0.3, 0.5 - 0.1j, 0.4)
    with pytest.raises(SpecfunDomainError):
        limit_kernel(LimitKernelId.III_minus, 0.3, 0.5 - 0.1j, 0.4 + 0.1j)
    with pytest.raises(SpecfunDomainError):
        limit_kernel(LimitKernelId.I, 0.3, 0.0, 0.4)
    # family I allows the negative real axis (entire combination)
    v = limit_kernel(LimitKernelId.I, 0.3, -0.7, 0.4)
    above = limit_kernel(LimitKernelId.I, 0.3, complex(-0.7, 1e-8), 0.4)
    assert v == pytest.approx(above, rel=1e-6)


def test_schwarz_relation_between_plus_and_minus():
    # Hankel conjugation maps the II+ kernel to MINUS the conjugate of II-
    # (the explicit minus sign in the II- definition flips the identity),
    # while the III pair conjugates without a sign
    alpha = 0.3
    zeta, eta = 0.6 + 0.4j, -0.3 + 0.25j
    a = limit_kernel(LimitKernelId.II_minus, alpha, zeta.conjugate(), 0.5)
    b = limit_kernel(LimitKernelId.II_plus, alpha, zeta, 0.5)
    assert a == pytest.approx(-b.conjugate(), rel=1e-12)
    a = limit_kernel(LimitKernelId.III_minus, alpha, zeta.conjugate(), eta.conjugate())
    b = limit_kernel(LimitKernelId.III_plus, alpha, zeta, eta)
    assert a == pytest.approx(b.conjugate(), rel=1e-12)


def test_alpha_half_integer_guard_case():
    # alpha = 0.5 makes the lower order exactly 0; must evaluate cleanly
    v = limit_kernel(LimitKernelId.I, 0.5, 0.4, 0.7)
    assert np.isfinite(v.real) and np.isfinite(v.imag)
    v = limit_kernel(LimitKernelId.III_plus, 0.5, 0.4 + 0.3j, 0.6 + 0.2j)
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def derivative(fn):
    """f'_nu(z) = f_{nu-1}(z) - (nu/z) f_nu(z), for f a Bessel J or Hankel function."""
    return lambda nu, z: fn(nu - 1.0, z) - (nu / z) * fn(nu, z)


# per kernel, the scalar formula's (f, g, zeta power sign, eta power sign,
# denominator, sign, f', half-plane of zeta, half-plane of eta)
_FORMULA = {
    LimitKernelId.I: (special.jv, special.jv, -1, -1, 2.0, 1.0, derivative(special.jv), 0, 0),
    LimitKernelId.II_plus: (special.hankel1, special.jv, 1, -1, 4.0, 1.0, None, 1, 0),
    LimitKernelId.II_minus: (special.hankel2, special.jv, 1, -1, 4.0, -1.0, None, -1, 0),
    LimitKernelId.III_plus: (special.hankel1, special.hankel1, 1, 1, 8.0, 1.0,
                             derivative(special.hankel1), 1, 1),
    LimitKernelId.III_pm: (special.hankel1, special.hankel2, 1, 1, 8.0, -1.0, None, 1, -1),
    LimitKernelId.III_minus: (special.hankel2, special.hankel2, 1, 1, 8.0, 1.0,
                              derivative(special.hankel2), -1, -1),
}


def _scalar_formula(kid, alpha, zeta, eta):
    """The kernel from scalar scipy.special calls, and the size of its terms: the
    quotient, or on the diagonal of a same-family kernel the derivative form
    at the midpoint.  At alpha = 0 the III+ and III- kernels vanish, so the
    terms, not the value, set the scale of a rounding error."""
    f, g, sz, se, denom, sign, df, _, _ = _FORMULA[kid]
    p, m = alpha + 0.5, alpha - 0.5
    if df is not None and abs(zeta - eta) < 1e-5 * max(1.0, abs(zeta)):
        w = (zeta + eta) / 2
        terms = (df(p, _PI * w) * f(m, _PI * w), df(m, _PI * w) * f(p, _PI * w))
        front = sign * _PI ** 2 * w ** (2 * (sz * alpha + 0.5)) / denom
    else:
        terms = (f(p, _PI * zeta) * g(m, _PI * eta), f(m, _PI * zeta) * g(p, _PI * eta))
        front = (sign * _PI * zeta ** (sz * alpha + 0.5) * eta ** (se * alpha + 0.5)
                 / (denom * (zeta - eta)))
    return front * (terms[0] - terms[1]), abs(front) * (abs(terms[0]) + abs(terms[1]))


def _sweep_points(side):
    """Points of one half-plane (0: any, the negative axis included)."""
    if side == 0:
        return [0.4, -0.7, 1.3 + 0.6j, -0.9 - 1.1j, 0.05 + 0.02j, 2.6 - 0.3j]
    up = [0.5 + 0.15j, -0.4 + 0.6j, 1.3 + 0.3j, -1.1 + 0.9j, 0.02 + 0.01j, 2.2 + 1.7j]
    return up if side > 0 else [z.conjugate() for z in up]


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.2])
@pytest.mark.parametrize("kid", list(LimitKernelId), ids=lambda k: k.value)
def test_limit_grid_matches_the_scalar_formula(kid, alpha):
    # every pair of a zeta array and an eta array in the kernel's half-planes;
    # for the same-family kernels the etas also hold three of the zetas
    # (exactly diagonal pairs) and points 1e-7 and 3e-6 from two others
    # (confluent pairs).  Every entry is the one-pair call's, bit for bit
    *_, df, sz, se = _FORMULA[kid]
    zetas = _sweep_points(sz)
    etas = [1.1 * e for e in (_sweep_points(se)[::-1] if se else _sweep_points(0)[1:])]
    if df is not None:
        etas += zetas[:3] + [zetas[3] + 1e-7, zetas[4] + 3e-6j]
    grid = limit_grid(kid, alpha, zetas, etas)
    assert grid.shape == (len(zetas), len(etas))
    for i, zeta in enumerate(zetas):
        for k, eta in enumerate(etas):
            want, scale = _scalar_formula(kid, alpha, complex(zeta), complex(eta))
            assert abs(grid[i, k] - want) <= 1e-13 * scale, (zeta, eta)
            assert grid[i, k] == limit_kernel(kid, alpha, zeta, eta)


@pytest.mark.parametrize("kid", list(LimitKernelId), ids=lambda k: k.value)
def test_limit_grid_domain_errors(kid):
    # one bad point among good ones fails the whole grid, with the error
    # type of the one-pair call: 0 in any slot; in a Hankel slot the branch
    # cut and the other half-plane
    *_, sz, se = _FORMULA[kid]
    for slot, side in enumerate((sz, se)):
        good = [_sweep_points(sz)[:3], _sweep_points(se)[3:5]]
        for z in [0.0] + ([-0.5, complex(-0.5, -0.0), complex(0.3, -0.2 * side)] if side else []):
            points = list(good)
            points[slot] = points[slot] + [z]
            pair = [good[0][0], good[1][0]]
            pair[slot] = z
            with pytest.raises(SpecfunDomainError):
                limit_grid(kid, 0.3, *points)
            with pytest.raises(SpecfunDomainError):
                limit_kernel(kid, 0.3, *pair)
    # a mixed kernel (II+, II-) has a pole on the diagonal
    if sz != se and 0 in (sz, se):
        zeta = _sweep_points(sz)[0]
        with pytest.raises(SpecfunDomainError, match="pole"):
            limit_grid(kid, 0.3, _sweep_points(sz), [0.3, zeta])


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_zero_imaginary_part_sign_gives_the_same_bits(alpha):
    # -0.7 - 0j and -0.7 + 0j are one point of a J-type slot (both slots of I,
    # the eta slot of II+-): the negative axis is no cut of z^p J_nu(pi z)
    below, above = complex(-0.7, -0.0), complex(-0.7, 0.0)
    for kid, pair in ((LimitKernelId.I, lambda z: (z, 0.4)), (LimitKernelId.I, lambda z: (0.4, z)),
                      (LimitKernelId.II_plus, lambda z: (0.5 + 0.3j, z)),
                      (LimitKernelId.II_minus, lambda z: (0.5 - 0.3j, z))):
        assert limit_kernel(kid, alpha, *pair(below)) == limit_kernel(kid, alpha, *pair(above)), kid
    assert limit_kernel(LimitKernelId.I, 0.0, below, 0.4) == pytest.approx(
        _sine(below - 0.4), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("kid, alpha, zeta, eta", [
    (LimitKernelId.I, 1e6, 0.7, 0.2),           # z^(-alpha) overflows
    (LimitKernelId.III_plus, 200.0, 0.7 + 0.1j, 0.2 + 0.3j),   # Hankel factors overflow
    (LimitKernelId.I, 1e6, 0.7, 0.7),           # the derivative form
], ids=["I-power", "III+-hankel", "I-confluent"])
def test_a_limit_beyond_the_doubles_is_a_domain_error(kid, alpha, zeta, eta):
    with pytest.raises(SpecfunDomainError, match="not finite"):
        limit_kernel(kid, alpha, zeta, eta)
    with pytest.raises(SpecfunDomainError, match="not finite"):
        limit_grid(kid, alpha, [0.5 + 0.2j, zeta], [eta])
