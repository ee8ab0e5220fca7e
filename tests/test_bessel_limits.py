import cmath
import math

import numpy as np
import pytest

from rmtkernels.bessel_limits import LimitKernelId, limit_kernel
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
    with pytest.raises(SpecfunDomainError):
        ratio_identity_value(0.3, 0.0)
    with pytest.raises(SpecfunDomainError):
        ratio_identity_value(0.3, -1.0)


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
