import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmtkernels import finite_kernels, orthopoly, universality
from rmtkernels.bessel_limits import LimitKernelId, limit_kernel
from rmtkernels.cauchy import CauchyDomainError, cauchy_transform
from rmtkernels.orthopoly import DegreeError, PotentialSpec, eval_monic
from rmtkernels.quadrature import WeightDomainError
from rmtkernels.universality import (
    DEFAULT_N_LIST,
    ScaleCancellationError,
    Theorem,
    TheoremCase,
    convergence_study,
    default_grid,
    normalized_lhs,
    ratio_convergence_check,
)

V_X2 = PotentialSpec((0.0, 0.0, 1.0))
V_2X2 = PotentialSpec((0.0, 0.0, 2.0))


def test_sine_kernel_point_value():
    # alpha = 0 reduces the limit to sin(pi(z-e))/(pi(z-e)); the finite-n
    # correction at this asymmetric point is the generic O(1/n)
    case = TheoremCase(Theorem.T1, 0.0, V_2X2, zeta_grid=(0.9,), eta_grid=(0.2,))
    want = math.sin(0.7 * math.pi) / (0.7 * math.pi)
    assert limit_kernel(LimitKernelId.I, 0.0, 0.9, 0.2) == pytest.approx(want, rel=1e-14)
    e32 = abs(normalized_lhs(case, 32, 0.9, 0.2) - want)
    e64 = abs(normalized_lhs(case, 64, 0.9, 0.2) - want)
    assert e32 < 0.15 * abs(want)
    assert e64 < 0.65 * e32


def test_convergence_rate_bulk_case():
    case = TheoremCase(Theorem.T1, 0.3, V_2X2,
                       zeta_grid=(0.4, 1.1 + 0.5j),
                       eta_grid=(-0.3, -0.8 - 0.6j),
                       n_list=(8, 16, 32))
    rep = convergence_study(case)
    assert rep.passed
    assert -1.5 <= rep.slope <= -0.6
    assert rep.errors[-1] < rep.errors[0]
    assert len(rep.records) == 3 * 4


def test_degree_shift_robustness(monkeypatch):
    # the same limit must emerge for shifted degree pairs m = -1, 0, 1; each
    # table is built to the highest degree its kernel reads, n + max(m, 0)
    builds = []
    build = universality.build_recurrence
    monkeypatch.setattr(universality, "build_recurrence",
                        lambda w, K: builds.append(K) or build(w, K))
    universality._cached_table.cache_clear()
    vals = []
    for m in (-1, 0, 1):
        case = TheoremCase(Theorem.T1, 0.3, V_2X2, m=m,
                           zeta_grid=(0.5,), eta_grid=(-0.2,))
        vals.append(normalized_lhs(case, 48, 0.5, -0.2))
    assert builds == [48, 49]
    tgt = limit_kernel(LimitKernelId.I, 0.3, 0.5, -0.2)
    for v in vals:
        assert v == pytest.approx(tgt, rel=0.1)
    universality._cached_table.cache_clear()


def test_schwarz_invariant_between_theorem_pairs():
    # upper/lower scaled kernels are conjugates: the second-family pair picks
    # up a sign, the third-family pair does not
    zeta, eta = 0.5 + 0.15j, 0.45
    ca = TheoremCase(Theorem.T2a, 0.3, V_2X2, zeta_grid=(zeta,), eta_grid=(eta,))
    cb = TheoremCase(Theorem.T2b, 0.3, V_2X2,
                     zeta_grid=(zeta.conjugate(),), eta_grid=(eta,))
    va = normalized_lhs(ca, 16, zeta, eta)
    vb = normalized_lhs(cb, 16, zeta.conjugate(), eta)
    assert vb == pytest.approx(-va.conjugate(), rel=1e-8)

    zeta, eta = 0.5 + 0.15j, 0.7 + 0.2j
    ca = TheoremCase(Theorem.T3a, 0.3, V_2X2, zeta_grid=(zeta,), eta_grid=(eta,))
    cc = TheoremCase(Theorem.T3c, 0.3, V_2X2,
                     zeta_grid=(zeta.conjugate(),), eta_grid=(eta.conjugate(),))
    va = normalized_lhs(ca, 16, zeta, eta)
    vc = normalized_lhs(cc, 16, zeta.conjugate(), eta.conjugate())
    assert vc == pytest.approx(va.conjugate(), rel=1e-8)


def test_limit_targets_share_the_invariant():
    zeta, eta = 0.5 + 0.15j, 0.45
    a = (zeta - eta) * limit_kernel(LimitKernelId.II_plus, 0.3, zeta, eta)
    b = (zeta.conjugate() - eta) * limit_kernel(LimitKernelId.II_minus, 0.3, zeta.conjugate(), eta)
    # the gap factor (zeta - eta) conjugates along with the kernel, which
    # itself flips sign under conjugation, so the pair is related by -conj
    assert b == pytest.approx(-a.conjugate(), rel=1e-12)


def test_case_validation():
    with pytest.raises(ValueError):
        TheoremCase(Theorem.T2a, 0.3, V_2X2, zeta_grid=(0.5 - 0.1j,))
    with pytest.raises(ValueError):
        TheoremCase(Theorem.T3c, 0.3, V_2X2, eta_grid=(0.5 + 0.1j,))
    with pytest.raises(ValueError):
        TheoremCase(Theorem.T1, 0.3, V_2X2, n_list=(16, 8))
    with pytest.raises(ValueError):
        TheoremCase(Theorem.T1, 0.3, V_2X2, n_list=(8, 8, 16))
    with pytest.raises(ValueError):
        TheoremCase(Theorem.T1, 0.3, V_2X2, n_list=(8,))  # one size fits no rate
    # the limit kernels' own domain check: zero and non-finite points
    for grid in ((0.4, 0.0), (0.4, complex(math.nan, 0.0)), (math.inf,)):
        with pytest.raises(ValueError):
            TheoremCase(Theorem.T1, 0.3, V_2X2, zeta_grid=grid)
        with pytest.raises(ValueError):
            TheoremCase(Theorem.T1, 0.3, V_2X2, eta_grid=grid)


def test_default_grids_respect_half_planes():
    for side in (-1, 0, +1):
        for slot in (0, 1):
            for z in default_grid(side, slot):
                if side > 0:
                    assert z.imag > 0
                elif side < 0:
                    assert z.imag < 0
    assert set(default_grid(0, 0)).isdisjoint(default_grid(0, 1))


def test_ratio_check_both_half_planes():
    for zeta in (0.5 + 0.5j, 0.5 - 0.5j):
        rep = ratio_convergence_check(0.3, V_2X2, zeta, n_list=(8, 16))
        assert rep.passed
        for v in rep.values:
            assert v == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(CauchyDomainError):
        ratio_convergence_check(0.3, V_2X2, 0.5)


def test_one_size_ratio_check_has_no_slope():
    rep = ratio_convergence_check(0.3, V_2X2, 0.5 + 0.5j, n_list=(8,))
    assert rep.passed and len(rep.values) == 1 and math.isnan(rep.slope)


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(1, 4096), min_size=2, max_size=8, unique=True).map(sorted),
       data=st.data())
def test_closed_form_slope_matches_polyfit(sizes, data):
    # np.polyfit's least-squares solve is the independent reference.  Its own
    # error scales with the data, |log e| up to 691 (equal errors 1e-221 at
    # n = 10, 11 fit a slope of -1.6e-12, not 0), so it is held to that
    # scale; the least-squares slope of the same logs in exact rational
    # arithmetic holds the closed form to the slope's own scale
    powers = data.draw(st.lists(st.floats(-300.0, 0.0), min_size=len(sizes), max_size=len(sizes)))
    errors = [10.0 ** p for p in powers]
    x, y = np.log(sizes), np.log(errors)
    got = universality._slope(sizes, errors)
    want = float(np.polyfit(x, y, 1)[0])
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want), float(np.abs(y).max()))
    xs, ys = ([Fraction(v) for v in c.tolist()] for c in (x, y))
    mean = sum(xs) / len(xs)
    exact = float(sum((u - mean) * v for u, v in zip(xs, ys)) / sum((u - mean) ** 2 for u in xs))
    assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_fractional_size_is_a_domain_error():
    with pytest.raises(WeightDomainError, match="positive integer"):
        convergence_study(TheoremCase(Theorem.T1, 0.3, V_2X2, n_list=(8.5, 16)))


@pytest.mark.parametrize("n_list", [(), (8, 8), (16, 8)])
def test_ratio_check_size_lists(n_list):
    # the sizes are checked as TheoremCase checks them, before any table is
    # built, so no rate is fitted to a repeated or unordered list
    universality._cached_table.cache_clear()
    with pytest.raises(ValueError, match="n_list"):
        ratio_convergence_check(0.3, V_2X2, 0.5 + 0.5j, n_list=n_list)
    assert universality._cached_table.cache_info().currsize == 0


def test_study_evaluates_each_cauchy_column_once(monkeypatch):
    # family III needs h_{n-1} and h_n at every grid point: each distinct
    # upper-half point is summed exactly once per table, all of a table's
    # points in one batched cauchy_transforms call, and the cached values are
    # the fresh ones
    case = TheoremCase(Theorem.T3b, 0.3, V_2X2, n_list=(8, 16))
    seen = []
    compute = finite_kernels.cauchy_transforms

    def counting(t, degrees, z, derivative=False):
        seen.append((id(t), tuple(degrees), derivative, np.atleast_1d(z).tolist()))
        return compute(t, degrees, z, derivative)

    monkeypatch.setattr(finite_kernels, "cauchy_transforms", counting)
    universality._cached_table.cache_clear()
    rep = convergence_study(case)
    summed = [(t, z) for t, _, _, zs in seen for z in zs]
    assert all(z.imag > 0 for _, z in summed)
    upper = {z.conjugate() if z.imag < 0 else z for z in case.zeta_grid + case.eta_grid}
    assert len(set(summed)) == len(summed) == len(case.n_list) * len(upper)
    assert len(seen) == len(case.n_list)
    assert {(len(d), der) for _, d, der, _ in seen} == {(2, False)}

    fresh = []
    for n, zeta, eta, *_ in rep.records:
        universality._cached_table.cache_clear()
        fresh.append(normalized_lhs(case, n, zeta, eta))
    assert fresh == [r[3] for r in rep.records]
    universality._cached_table.cache_clear()


def test_study_pass_counts(monkeypatch):
    # the benchmark's study pass: six cases and the ratio check at alpha 0 and
    # 0.3 over n = 8...64 build each table once, to degree n, sum the Cauchy
    # columns in 3 batches per table (T2a's zetas, T3a's etas, the ratio
    # point) and take their grid columns from the Stieltjes pass: no
    # whole-grid recurrence runs
    calls, grids, builds = [], [], []
    compute, recurrence = finite_kernels.cauchy_transforms, orthopoly.monic_values_scaled
    build = universality.build_recurrence

    def counting(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    def grid_counting(t, degrees, x, **kwargs):
        if x is t.grid.x:
            grids.append((id(t), tuple(sorted(degrees))))
        return recurrence(t, degrees, x, **kwargs)

    def build_counting(w, max_degree):
        builds.append((w.alpha, w.n, max_degree))
        return build(w, max_degree)

    monkeypatch.setattr(finite_kernels, "cauchy_transforms", counting)
    monkeypatch.setattr(orthopoly, "monic_values_scaled", grid_counting)
    monkeypatch.setattr(universality, "build_recurrence", build_counting)
    universality._cached_table.cache_clear()
    for alpha in (0.0, 0.3):
        for th in Theorem:
            convergence_study(TheoremCase(th, alpha, V_2X2))
        ratio_convergence_check(alpha, V_2X2, 0.5 + 0.5j)
    assert len(calls) == 24
    assert grids == []
    assert builds == [(alpha, n, n) for alpha in (0.0, 0.3) for n in DEFAULT_N_LIST]
    universality._cached_table.cache_clear()


def test_grid_path_matches_one_pair_calls():
    # each n's grid is normalized as one array; every record, in all twelve
    # cases, is the one-pair value of a fresh evaluation, and a ratio point
    # inside a larger kernel grid is the ratio check's one-pair value
    universality._cached_table.cache_clear()
    reports = {(th, alpha): convergence_study(TheoremCase(th, alpha, V_2X2))
               for alpha in (0.0, 0.3) for th in Theorem}
    universality._cached_table.cache_clear()
    for (th, alpha), rep in reports.items():
        case = TheoremCase(th, alpha, V_2X2)
        for n, zeta, eta, lhs, *_ in rep.records:
            assert abs(normalized_lhs(case, n, zeta, eta) - lhs) <= 1e-12 * abs(lhs), (th, n)
    eq = universality._cached_equilibrium(V_2X2.coeffs)
    for alpha in (0.0, 0.3):
        rep = ratio_convergence_check(alpha, V_2X2, 0.5 + 0.5j)
        for n, value in zip(rep.n_list, rep.values):
            t = universality._cached_table(alpha, V_2X2.coeffs, n, 0)
            zs = (0.5 + 0.5j) / (n * eq.psi0)
            mant, log = finite_kernels.kernel_grids(finite_kernels.KernelFamily.II, 0, [t],
                                                    [[0.3j, zs, -zs]], [[zs, 0.1 + zs]], gap=True)
            grid = 2j * math.pi * mant[0, 1, 0] * math.exp(log[0, 1, 0] + t.log_gamma_sq(n - 1))
            assert abs(grid - value) <= 1e-12 * abs(value)
    universality._cached_table.cache_clear()


def _kernel_root(t, zeta, lo, hi):
    """A real eta near which pi_hi(zeta) pi_lo(eta) - pi_lo(zeta) pi_hi(eta) vanishes."""
    def num(eta):
        return ((eval_monic(t, hi, zeta) * eval_monic(t, lo, eta)).to_complex()
                - (eval_monic(t, lo, zeta) * eval_monic(t, hi, eta)).to_complex()).real

    a, b = zeta + 0.02, zeta + 1.0
    for x in np.linspace(a, b, 200):
        if num(x) * num(a) < 0:
            b = x
            break
    for _ in range(200):
        m = 0.5 * (a + b)
        a, b = (m, b) if num(m) * num(a) > 0 else (a, m)
    return a


def test_grid_confluent_and_zero_pairs(monkeypatch):
    # one pair inside the confluence threshold takes the derivative form at
    # its midpoint, its columns fetched there; one
    # at a zero of the kernel far from the diagonal, where the numerator
    # cancels to rounding level, keeps the quotient form and is near 0, not
    # the diagonal value.  The grid path and the one-pair path give the same
    # values
    n, zeta = 8, 0.4
    eq = universality._cached_equilibrium(V_2X2.coeffs)
    s = n * eq.psi0
    universality._cached_table.cache_clear()
    t = universality._cached_table(0.3, V_2X2.coeffs, n, 0)
    root = _kernel_root(t, zeta / s, n - 1, n) * s
    case = TheoremCase(Theorem.T1, 0.3, V_2X2, zeta_grid=(zeta,),
                       eta_grid=(zeta + 1e-8, root, -0.3), n_list=(8, 16))
    confluent = []
    compute = finite_kernels._pairs

    def counting(t, kind, lo, hi, zs, derivative=False):
        if derivative:  # the one fetch of the derivative columns per grid
            confluent.append((t.weight.n, *zs))
        return compute(t, kind, lo, hi, zs, derivative)

    monkeypatch.setattr(finite_kernels, "_pairs", counting)
    rep = convergence_study(case)
    mids = []
    for n_ in (8, 16):
        z, e = (np.array([zeta, zeta + 1e-8], dtype=complex) / (n_ * eq.psi0)).tolist()
        mids.append((n_, (z + e) / 2))
    assert confluent == mids
    for n_, z, e, lhs, *_ in rep.records:
        assert abs(normalized_lhs(case, n_, z, e) - lhs) <= 1e-12 * abs(lhs)
    diagonal, at_root = (lhs for n_, _, e, lhs, *_ in rep.records if n_ == 8 and e != -0.3)
    assert abs(at_root) < 1e-12 * abs(diagonal)
    universality._cached_table.cache_clear()


def test_scale_cancellation_is_detected(monkeypatch):
    # a prefactor off by e^80 leaves the normalized kernel at log magnitude
    # ~80, beyond the +-60 that any correct bookkeeping stays within
    eq = universality._cached_equilibrium(V_2X2.coeffs)
    wrong = dataclasses.replace(eq, v_at_0=eq.v_at_0 + 10.0)
    monkeypatch.setattr(universality, "_cached_equilibrium", lambda coeffs: wrong)
    case = TheoremCase(Theorem.T1, 0.3, V_2X2, n_list=(8, 16))
    with pytest.raises(ScaleCancellationError, match="n=8"):
        convergence_study(case)
    with pytest.raises(ScaleCancellationError):
        normalized_lhs(case, 8, 0.4, -0.3)


def test_lower_half_plane_reads_the_upper_cache(monkeypatch):
    # T3c's grids are T3a's conjugated: on the same tables its Cauchy columns
    # are the reflections of T3a's cached ones, and no transform is recomputed
    universality._cached_table.cache_clear()
    upper = TheoremCase(Theorem.T3a, 0.3, V_2X2, n_list=(8, 16))
    lower = TheoremCase(Theorem.T3c, 0.3, V_2X2, n_list=(8, 16))
    assert lower.zeta_grid == tuple(z.conjugate() for z in upper.zeta_grid)
    convergence_study(upper)
    calls = []
    compute = finite_kernels.cauchy_transforms

    def counting(*args, **kwargs):
        calls.append(args)
        return compute(*args, **kwargs)

    monkeypatch.setattr(finite_kernels, "cauchy_transforms", counting)
    rep = convergence_study(lower)
    assert calls == []

    fresh = []
    for n, zeta, eta, *_ in rep.records:
        universality._cached_table.cache_clear()
        fresh.append(normalized_lhs(lower, n, zeta, eta))
    assert fresh == [r[3] for r in rep.records]
    assert len(calls) == len(rep.records)  # one batch sums both slots' columns on a fresh table
    universality._cached_table.cache_clear()


def test_study_evaluates_each_limit_once(monkeypatch):
    # the limits do not depend on n: one limit grid per case, over the case's
    # own grids, whose entries are exactly the one-pair limit_kernel values
    case = TheoremCase(Theorem.T2b, 0.3, V_2X2, n_list=(8, 16, 32))
    calls = []
    compute = universality.limit_grid

    def counting(kid, alpha, zetas, etas):
        calls.append((kid, alpha, tuple(zetas), tuple(etas)))
        return compute(kid, alpha, zetas, etas)

    monkeypatch.setattr(universality, "limit_grid", counting)
    rep = convergence_study(case)
    assert calls == [(LimitKernelId.II_minus, 0.3, case.zeta_grid, case.eta_grid)]
    assert [r[4] for r in rep.records] == [
        limit_kernel(LimitKernelId.II_minus, 0.3, z, e) * (z - e)
        for z in case.zeta_grid for e in case.eta_grid] * len(case.n_list)


_CONFLUENT_GRIDS = {  # a pair within the confluence threshold in each half-plane
    Theorem.T1: ((0.4 + 0.2j, -0.3 - 0.1j, 0.5), (0.4 + 0.2j + 1e-8, -0.3 - 0.1j + 1e-8j, 0.7)),
    Theorem.T3a: ((0.4 + 0.2j, -0.3 + 0.1j), (0.4 + 0.2j + 1e-8, 0.7 + 0.3j)),
    Theorem.T3c: ((0.4 - 0.2j, -0.3 - 0.1j), (0.4 - 0.2j + 1e-8, 0.7 - 0.3j)),
}


@pytest.mark.parametrize("alpha", [0.0, 0.3])
def test_all_sizes_at_once_equal_one_size_one_pair(alpha):
    # a case's sizes are assembled as one (n, zeta, eta) array; every entry is
    # bitwise the one-size, one-pair value, on the default grids of all six
    # theorems and on grids with confluent pairs, and so is every ratio value
    cases = [TheoremCase(th, alpha, V_2X2) for th in Theorem]
    cases += [TheoremCase(th, alpha, V_2X2, zeta_grid=z, eta_grid=e)
              for th, (z, e) in _CONFLUENT_GRIDS.items()]
    for case in cases:
        fam = universality._FAMILY[case.theorem]
        grid = universality._normalized_grid(fam, alpha, V_2X2, case.m, DEFAULT_N_LIST,
                                             case.zeta_grid, case.eta_grid)
        assert grid.shape == (len(DEFAULT_N_LIST), len(case.zeta_grid), len(case.eta_grid))
        for i, n in enumerate(DEFAULT_N_LIST):
            for j, zeta in enumerate(case.zeta_grid):
                for k, eta in enumerate(case.eta_grid):
                    assert grid[i, j, k] == normalized_lhs(case, n, zeta, eta), (case.theorem, n)
    for zeta in (0.5 + 0.5j, 0.5 - 0.5j):
        values = ratio_convergence_check(alpha, V_2X2, zeta).values
        assert values == [ratio_convergence_check(alpha, V_2X2, zeta, n_list=(n,)).values[0]
                          for n in DEFAULT_N_LIST]


def test_failing_size_is_named(monkeypatch):
    # the sizes are fetched in order and checked as one array: a degree error
    # names the degrees of the first size that has none, (-1, 0) at n = 8, and
    # a failed scale cancellation the first failing (n, zeta, eta), here at the
    # last size, where a prefactor off by e^n leaves the +-60 band first
    with pytest.raises(DegreeError, match=re.escape("kernel degrees (-1,0)")):
        convergence_study(TheoremCase(Theorem.T1, 0.3, V_2X2, m=-8, n_list=(8, 16, 32)))
    eq = universality._cached_equilibrium(V_2X2.coeffs)
    for shift, n in ((1.0, 64), (10.0, 8)):
        wrong = dataclasses.replace(eq, v_at_0=eq.v_at_0 + shift)
        monkeypatch.setattr(universality, "_cached_equilibrium", lambda coeffs: wrong)
        with pytest.raises(ScaleCancellationError,
                           match=re.escape(f"(n={n}, zeta=(0.4+0j), eta=(0.65+0j))")):
            convergence_study(TheoremCase(Theorem.T1, 0.3, V_2X2))


_I = finite_kernels.KernelFamily.I


@pytest.mark.parametrize("call", [
    lambda t: eval_monic(t, 5.9, 0.3),
    lambda t: cauchy_transform(t, 5.9, 0.3 + 0.2j),
    lambda t: finite_kernels.w_kernel(_I, t, 0.5, 0.3, 0.1),
    lambda t: finite_kernels.w_kernel(_I, t, 1.0, 0.3, 0.1),
    lambda t: orthopoly.monic_values_scaled(t, [5.9], np.array([0.3, 0.4])),
    lambda t: orthopoly.monic_values_scaled(t, [6.0], np.array([0.3, 0.4])),
    lambda t: orthopoly.build_recurrence(t.weight, 9.0),
    lambda t: convergence_study(TheoremCase(Theorem.T1, 0.0, V_2X2, m=0.5, n_list=(4, 8))),
    lambda t: t.log_gamma_sq(-1),
    lambda t: t.log_gamma_sq(13),
], ids=["eval_monic", "cauchy_transform", "w_kernel", "w_kernel-cached", "monic_values_scaled",
        "monic_values_scaled-integral-float", "build_recurrence", "theorem_case", "log_gamma_sq",
        "log_gamma_sq-above"])
def test_a_degree_that_is_not_an_integer_in_range_is_a_degree_error(call):
    # one check rejects every degree that is not an integer of the table's
    # range, a float of integral value and a degree whose rows are cached too
    t = orthopoly.build_recurrence(orthopoly.WeightSpec(0.0, 6, V_2X2), 12)
    finite_kernels.w_kernel(_I, t, 1, 0.3, 0.1)
    with pytest.raises(DegreeError):
        call(t)
