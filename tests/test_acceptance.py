"""End-to-end acceptance suite.

Each test covers one acceptance criterion and emits exactly one
"ACCEPTANCE k: PASS/FAIL" line, replayed in the terminal summary so it is
visible even under pytest capture.
"""

import cmath
import math
import time

import numpy as np

from rmtkernels import specfun
from rmtkernels.bessel_limits import LimitKernelId, limit_kernel
from rmtkernels.cauchy import plemelj_jump_check
from rmtkernels.equilibrium import solve_equilibrium, variational_residuals
from rmtkernels.oracle import (
    average_char_poly,
    average_inverse_pair,
    average_product_pair,
    average_ratio,
    make_joint_density,
)
from rmtkernels.orthopoly import (
    PotentialSpec,
    WeightSpec,
    build_recurrence,
    eval_monic,
)
from rmtkernels.finite_kernels import KernelFamily, w_kernel
from rmtkernels.parametrix import check_gamma2_jump
from rmtkernels.scaled import ScaledComplex
from rmtkernels.universality import (
    Theorem,
    TheoremCase,
    convergence_study,
    normalized_lhs,
    ratio_convergence_check,
)

from conftest import ratio_identity_value

V_X2 = PotentialSpec((0.0, 0.0, 1.0))
V_2X2 = PotentialSpec((0.0, 0.0, 2.0))

_PI = math.pi


def _report(num, passed, detail):
    import conftest

    line = f"ACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    return passed


def test_acceptance_01_special_function_identities():
    start = time.time()
    worst = max(r[3] for r in specfun.selftest_rows())
    for alpha in (0.0, 0.3, 1.2):
        for z in np.linspace(0.2, 10.0, 20):
            worst = max(worst, abs(ratio_identity_value(alpha, float(z)) - 1.0))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 5.0
    assert _report(1, ok, f"worst residual {worst:.3e}, {elapsed:.2f}s")


def test_acceptance_02_alpha0_closed_forms():
    start = time.time()
    res = np.linspace(-1.8, 1.8, 10)
    up = [complex(r, i) for r in res for i in np.linspace(0.1, 1.4, 10)]
    lo = [z.conjugate() for z in up]
    free = [complex(r, i) for r in res for i in np.linspace(-0.9, 0.9, 10)
            if abs(complex(r, i)) > 1e-9 and not (i == 0 and r <= 0)]
    worst = 0.0

    def upd(got, want):
        nonlocal worst
        worst = max(worst, abs(got - want))

    for zeta, eta in zip(free, reversed(free)):
        d = zeta - eta
        if abs(d) < 1e-3:
            continue
        upd(limit_kernel(LimitKernelId.I, 0.0, zeta, eta),
            cmath.sin(_PI * d) / (_PI * d))
    for zeta, eta in zip(up, reversed(free)):
        d = zeta - eta
        upd(limit_kernel(LimitKernelId.II_plus, 0.0, zeta, eta),
            -1j * cmath.exp(1j * _PI * d) / (2 * _PI * d))
    for zeta, eta in zip(lo, reversed(free)):
        d = zeta - eta
        upd(limit_kernel(LimitKernelId.II_minus, 0.0, zeta, eta),
            -1j * cmath.exp(-1j * _PI * d) / (2 * _PI * d))
    for zeta, eta in zip(up, reversed(up)):
        upd(limit_kernel(LimitKernelId.III_plus, 0.0, zeta, eta), 0.0)
    for zeta, eta in zip(lo, reversed(lo)):
        upd(limit_kernel(LimitKernelId.III_minus, 0.0, zeta, eta), 0.0)
    for zeta, eta in zip(up, reversed(lo)):
        d = zeta - eta
        upd(limit_kernel(LimitKernelId.III_pm, 0.0, zeta, eta),
            1j * cmath.exp(1j * _PI * d) / (2 * _PI * d))
    elapsed = time.time() - start
    ok = worst < 1e-12 and elapsed < 5.0
    assert _report(2, ok, f"worst abs err {worst:.3e}, {elapsed:.2f}s")


def test_acceptance_03_mean_char_poly_identity():
    start = time.time()
    worst = 0.0
    for alpha in (0.0, 0.3):
        for n in (2, 3):
            w = WeightSpec(alpha, n, V_2X2)
            d = make_joint_density(w)
            t = build_recurrence(w, n + 2)
            for x in (0.7, -0.4 + 0.3j):
                got = average_char_poly(d, x).to_complex()
                want = eval_monic(t, n, x).to_complex()
                worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.time() - start
    ok = worst < 1e-6 and elapsed < 120.0
    assert _report(3, ok, f"worst rel err {worst:.3e}, {elapsed:.1f}s")


def test_acceptance_04_determinantal_identities():
    start = time.time()
    worst_prod = worst_ratio = worst_inv = 0.0
    for n in (2, 3):
        w = WeightSpec(0.3, n, V_2X2)
        d = make_joint_density(w)
        t = build_recurrence(w, n + 2)
        x, y = 0.5 + 0.4j, -0.3
        got = average_product_pair(d, x, y).to_complex()
        want = w_kernel(KernelFamily.I, t, 1, x, y).to_complex()
        worst_prod = max(worst_prod, abs(got - want) / abs(want))

        got = average_ratio(d, x, y).to_complex()
        want = (ScaledComplex.from_parts(2j * _PI, t.log_gamma_sq(n - 1))
                * ScaledComplex.from_complex(x - y)
                * w_kernel(KernelFamily.II, t, 0, x, y)).to_complex()
        worst_ratio = max(worst_ratio, abs(got - want) / abs(want))

        if n == 3:
            x1, x2 = 0.5 + 0.4j, -0.3 - 0.6j
            got = average_inverse_pair(d, x1, x2).to_complex()
            c1 = ScaledComplex.from_parts(-2j * _PI, t.log_gamma_sq(1))
            c2 = ScaledComplex.from_parts(-2j * _PI, t.log_gamma_sq(2))
            want = -0.5 * ((c1 * c2 * w_kernel(KernelFamily.III, t, -1, x1, x2)).to_complex()
                           + (c1 * c2 * w_kernel(KernelFamily.III, t, -1, x2, x1)).to_complex())
            worst_inv = max(worst_inv, abs(got - want) / abs(want))
    elapsed = time.time() - start
    ok = (worst_prod < 1e-5 and worst_ratio < 1e-5 and worst_inv < 1e-4
          and elapsed < 600.0)
    assert _report(4, ok, f"product {worst_prod:.3e}, ratio {worst_ratio:.3e}, "
                          f"inverse {worst_inv:.3e}, {elapsed:.1f}s")


def test_acceptance_05_boundary_jump(table_n8):
    start = time.time()
    xs = np.linspace(-1.1, 1.1, 21)
    xs = xs[np.abs(xs) > 1e-9][:20]
    worst = 0.0
    for x in xs:
        rep = plemelj_jump_check(table_n8, 3, float(x), [8e-4, 4e-4, 2e-4, 1e-4])
        worst = max(worst, rep.extrapolated_residual)
    elapsed = time.time() - start
    ok = worst < 1e-6 and elapsed < 60.0
    assert _report(5, ok, f"worst extrapolated residual {worst:.3e}, {elapsed:.1f}s")


def test_acceptance_06_equilibrium_solver():
    start = time.time()
    eq = solve_equilibrium(V_2X2)
    end_err = max(abs(eq.b0 + 1.0), abs(eq.a1 - 1.0))
    psi0_err = abs(eq.psi0 - 2.0 / _PI)
    grid = list(np.linspace(-0.95, 0.95, 10)) + [-1.5, 1.5, -3.0, 3.0]
    rep = variational_residuals(eq, V_2X2, grid)
    elapsed = time.time() - start
    ok = (end_err < 1e-10 and psi0_err < 1e-8
          and rep.max_inside_residual < 1e-6 and rep.min_outside_margin > 0.0
          and elapsed < 30.0)
    assert _report(6, ok, f"endpoints {end_err:.2e}, psi0 {psi0_err:.2e}, "
                          f"inside {rep.max_inside_residual:.2e}, "
                          f"outside margin {rep.min_outside_margin:.2e}, {elapsed:.1f}s")


def test_acceptance_07_bulk_scaling_rate():
    start = time.time()
    slopes = []
    ok = True
    for alpha in (0.0, 0.3):
        for pot in (V_X2, V_2X2):
            for m in (-1, 0, 1):
                rep = convergence_study(TheoremCase(Theorem.T1, alpha, pot, m=m))
                slopes.append(rep.slope)
                ok = ok and rep.passed
    elapsed = time.time() - start
    ok = ok and all(-1.5 <= s <= -0.6 for s in slopes) and elapsed < 1200.0
    assert _report(7, ok, f"slopes [{min(slopes):.2f}, {max(slopes):.2f}] "
                          f"over 12 cases, {elapsed:.1f}s")


def test_acceptance_08_mixed_kernel_rates_and_symmetry():
    start = time.time()
    ok = True
    slopes = {}
    for th in (Theorem.T2a, Theorem.T2b, Theorem.T3a, Theorem.T3b, Theorem.T3c):
        rep = convergence_study(TheoremCase(th, 0.3, V_2X2))
        slopes[th.value] = rep.slope
        ok = ok and rep.passed and -1.5 <= rep.slope <= -0.6

    # upper/lower Schwarz pairing of the normalized finite kernels
    zeta, eta = 0.5 + 0.15j, 0.45
    ca = TheoremCase(Theorem.T2a, 0.3, V_2X2, zeta_grid=(zeta,), eta_grid=(eta,))
    cb = TheoremCase(Theorem.T2b, 0.3, V_2X2,
                     zeta_grid=(zeta.conjugate(),), eta_grid=(eta,))
    va = normalized_lhs(ca, 16, zeta, eta)
    vb = normalized_lhs(cb, 16, zeta.conjugate(), eta)
    sym2 = abs(vb + va.conjugate()) / abs(va)

    zeta, eta = 0.5 + 0.15j, 0.7 + 0.2j
    ca = TheoremCase(Theorem.T3a, 0.3, V_2X2, zeta_grid=(zeta,), eta_grid=(eta,))
    cc = TheoremCase(Theorem.T3c, 0.3, V_2X2,
                     zeta_grid=(zeta.conjugate(),), eta_grid=(eta.conjugate(),))
    va = normalized_lhs(ca, 16, zeta, eta)
    vc = normalized_lhs(cc, 16, zeta.conjugate(), eta.conjugate())
    sym3 = abs(vc - va.conjugate()) / abs(va)

    elapsed = time.time() - start
    ok = ok and sym2 < 1e-8 and sym3 < 1e-8 and elapsed < 2400.0
    assert _report(8, ok, "slopes " +
                   ", ".join(f"{k} {v:.2f}" for k, v in slopes.items()) +
                   f"; symmetry {max(sym2, sym3):.2e}, {elapsed:.1f}s")


def test_acceptance_09_ratio_pipeline():
    start = time.time()
    ok = True
    details = []
    for zeta in (0.5 + 0.5j, 0.5 - 0.5j):
        rep = ratio_convergence_check(0.0, V_2X2, zeta, n_list=(8, 16, 32))
        # the confluent value is exactly 1 at every n; the measured errors sit
        # at quadrature noise, so "decreasing" is satisfied once they are
        # below the noise floor
        noise = all(e < 1e-8 for e in rep.errors)
        decreasing = all(a >= b for a, b in zip(rep.errors, rep.errors[1:]))
        ok = ok and rep.errors[-1] < 0.1 and (decreasing or noise)
        details.append(f"{zeta}: |v-1| at n=32 = {rep.errors[-1]:.2e}")
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    assert _report(9, ok, "; ".join(details) + f", {elapsed:.1f}s")


def test_acceptance_10_parametrix_jump():
    start = time.time()
    worst = max(check_gamma2_jump(a).max_residual for a in (0.0, 0.3, 1.2))
    elapsed = time.time() - start
    ok = worst < 1e-10 and elapsed < 5.0
    assert _report(10, ok, f"worst jump residual {worst:.3e}, {elapsed:.2f}s")
