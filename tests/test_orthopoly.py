import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmtkernels import orthopoly
from rmtkernels.orthopoly import (
    PotentialSpec,
    PrecisionError,
    WeightDomainError,
    WeightSpec,
    build_recurrence,
    eval_monic,
    eval_monic_derivative,
    eval_weight,
    monic_values_scaled,
)
from rmtkernels.scaled import ScaledComplex

from conftest import quotient, rel_err

V_X2 = PotentialSpec((0.0, 0.0, 1.0))
V_2X2 = PotentialSpec((0.0, 0.0, 2.0))


# -- potential / weight validation ------------------------------------------


def test_potential_rejects_constant():
    with pytest.raises(WeightDomainError):
        PotentialSpec((1.0,))


def test_potential_rejects_odd_degree():
    with pytest.raises(WeightDomainError):
        PotentialSpec((0.0, 0.0, 1.0, 0.5))


def test_potential_rejects_negative_leading():
    with pytest.raises(WeightDomainError):
        PotentialSpec((0.0, 0.0, -1.0))


def test_potential_rejects_non_finite_coefficients():
    for c in (math.nan, math.inf):
        with pytest.raises(WeightDomainError, match="finite"):
            PotentialSpec((0.0, 0.0, c))
        with pytest.raises(WeightDomainError, match="finite"):
            PotentialSpec((c, 0.0, 1.0))


def test_potential_too_flat_for_a_cutoff():
    # 1e-300 x^2 has not underflowed the weight by |x| = 1.3^199
    with pytest.raises(WeightDomainError, match="cutoff"):
        build_recurrence(WeightSpec(0.0, 1, PotentialSpec((0.0, 0.0, 1e-300))), 2)


def test_weight_alpha_bound():
    with pytest.raises(WeightDomainError):
        WeightSpec(-0.5, 4, V_X2)
    for alpha in (math.nan, math.inf):
        with pytest.raises(WeightDomainError, match="finite"):
            WeightSpec(alpha, 4, V_X2)
    with pytest.raises(WeightDomainError):
        WeightSpec(0.0, 0, V_X2)


@pytest.mark.parametrize("n", [8.5, 8.0, math.nan, "8", None, -3])
def test_weight_size_must_be_a_positive_integer(n):
    with pytest.raises(WeightDomainError, match="positive integer"):
        WeightSpec(0.3, n, V_X2)


def test_weight_size_takes_numpy_integers():
    assert WeightSpec(0.3, np.int64(8), V_X2).n == 8


def test_eval_weight_values():
    w = WeightSpec(0.3, 2, V_X2)
    v = eval_weight(w, 1.5)
    expect = 1.5 ** 0.6 * math.exp(-2 * 1.5 ** 2)
    assert v.to_complex() == pytest.approx(expect, rel=1e-14)
    assert eval_weight(w, 0.0).log_abs() == -math.inf
    # at alpha = 0 the weight at 0 is e^(-nV(0)), V(0) = 0.25 here
    w0 = eval_weight(WeightSpec(0.0, 2, PotentialSpec((0.25, 0.0, 1.0))), 0.0)
    assert w0.to_complex() == pytest.approx(math.exp(-0.5), rel=1e-15)
    with pytest.raises(WeightDomainError):
        eval_weight(WeightSpec(-0.3, 2, V_X2), 0.0)


# -- recurrence coefficients -------------------------------------------------


def test_hermite_oracle_small_n():
    # alpha=0, V=x^2: b_k = k/(2n) exactly
    t = build_recurrence(WeightSpec(0.0, 1, V_X2), 8)
    ks = np.arange(1, 9)
    assert np.max(np.abs(t.b[1:] - ks / 2.0)) < 1e-10
    assert t.b[1] == pytest.approx(0.5, abs=1e-12)


def test_hermite_oracle_deep_degrees():
    for n in (8, 64):
        t = build_recurrence(WeightSpec(0.0, n, V_X2), 40)
        ks = np.arange(1, 41)
        rel = np.abs(t.b[1:41] - ks / (2.0 * n)) / (ks / (2.0 * n))
        assert np.max(rel) < 1e-10


def test_even_weight_zero_a():
    t = build_recurrence(WeightSpec(0.4, 6, V_2X2), 12)
    assert np.max(np.abs(t.a)) < 1e-12


def test_gaussian_norm():
    t = build_recurrence(WeightSpec(0.0, 1, V_X2), 4)
    # gamma_0^2 = 1 / integral e^{-x^2} = 1/sqrt(pi)
    assert t.log_gamma_sq(0) == pytest.approx(-math.log(math.sqrt(math.pi)), abs=1e-12)


def test_norm_telescoping_identity():
    t = build_recurrence(WeightSpec(0.3, 8, V_2X2), 16)
    acc = t.log_norm_sq[0]
    for j in range(1, 17):
        acc += math.log(t.b[j])
        assert t.log_norm_sq[j] == pytest.approx(acc, abs=1e-9)


def test_orthogonality_residual_recorded():
    t = build_recurrence(WeightSpec(0.3, 8, V_2X2), 16)
    assert t.orthogonality_residual < 1e-9


def test_certification_edge_n64():
    t = build_recurrence(WeightSpec(0.3, 64, V_2X2), 72)
    assert t.orthogonality_residual < 1e-9


# -- the Jacobi-matrix identities that check each table ----------------------

# 2x^2, x^4, an odd quartic, a sextic, an odd quartic with a cubic, a double well
SIX_POTENTIALS = [PotentialSpec(c) for c in ((0, 0, 2), (0, 0, 0, 0, 1), (0, 0.5, 0, 0, 1),
                                             (0, 0, 0, 0, 1, 0, 0.2), (0, -1, 0, 0.3, 1),
                                             (0, 0, -1, 0, 1))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(potential=st.sampled_from(SIX_POTENTIALS), alpha=st.floats(-0.5 + 1e-9, 6.0),
       n=st.sampled_from([1, 2, 8, 64]), extra=st.sampled_from([0, 8]))
def test_tables_meet_the_identities_far_inside_the_gate(potential, alpha, n, extra):
    # default tables read about 1e-13, 30 times inside the gate and more.
    # Within about 1e-13 of alpha = -1/2 the origin's Gauss-Jacobi rule
    # itself loses digits (b off by 2e-9 at the last double), which the
    # identities then report, so the sweep stops 1e-9 short of it
    t = build_recurrence(WeightSpec(alpha, n, potential), n + extra)
    assert t.orthogonality_residual <= orthopoly.IDENTITY_TOL / 30


def test_identity_bands_match_the_dense_matrix_polynomial():
    # the banded Horner evaluation against (xV')(J) as a dense matrix, on a
    # table whose a and b are perturbed so that the defects are not rounding
    w = WeightSpec(0.3, 8, PotentialSpec((0, -1, 0, 0.3, 1)))
    K = 16
    t = build_recurrence(w, K + 2)
    rng = np.random.default_rng(0)
    a = t.a * (1 + 1e-6 * rng.standard_normal(K + 3))
    b = t.b * (1 + 1e-6 * rng.standard_normal(K + 3))
    J = np.diag(a) + np.diag(np.sqrt(b[1:]), 1) + np.diag(np.sqrt(b[1:]), -1)
    M = sum(m * c * np.linalg.matrix_power(J, m) for m, c in enumerate(w.potential.coeffs))
    k = np.arange(K + 1)
    rhs = 2 * k + 1 + 0.6
    defect = np.abs(w.n * np.diag(M)[:K + 1] - rhs)
    off = np.abs(w.n * np.diag(M, -1)[:K] * np.sqrt(b[1:K + 1]) - np.cumsum(a[:K]))
    defect[1:] = np.maximum(defect[1:], off)
    defect /= rhs
    got, at = orthopoly._identity_defect(w, a, b, K)
    assert at == np.argmax(defect) and got == pytest.approx(defect.max(), rel=1e-9)


def test_identities_see_a_shrunken_dense_region(monkeypatch):
    # the dense region cut to V - min V >= 2.7 (x^4, alpha 0.3, n 64, K 128):
    # b is off by about 1e-7 and the identities read 8e-8, where a second
    # Gauss rule on the same panels read 3.7e-8, inside its 1e-7 gate
    from rmtkernels import quadrature

    dense_radius = quadrature.dense_radius
    monkeypatch.setattr(quadrature, "dense_radius",
                        lambda p, direction, level: dense_radius(p, direction, 2.7))
    with pytest.raises(PrecisionError, match="orthogonality residual .* at degree"):
        build_recurrence(WeightSpec(0.3, 64, PotentialSpec((0, 0, 0, 0, 1))), 128)


@pytest.mark.parametrize("coeff, k, factor", [("b", 9, 1 + 1e-8), ("a", 4, math.nan)])
def test_identities_see_one_wrong_coefficient(monkeypatch, coeff, k, factor):
    # one b_k off by 1e-8 relative, or a nan a_k, as the check reads them
    check = orthopoly._identity_defect

    def wrong(w, a, b, K):
        arrays = {"a": a.copy(), "b": b.copy()}
        arrays[coeff][k] *= factor
        return check(w, arrays["a"], arrays["b"], K)

    monkeypatch.setattr(orthopoly, "_identity_defect", wrong)
    with pytest.raises(PrecisionError, match="orthogonality residual .* at degree"):
        build_recurrence(WeightSpec(0.3, 8, PotentialSpec((0, 0.5, 0, 0, 1))), 16)


@pytest.mark.parametrize("n", [400, 512, 800])
def test_closed_form_b_at_large_n(n):
    # V = 2x^2: b_k = (k + 2a [k odd]) / (4n).  From n = 376 the weight
    # falls below e^-750 inside the support [-1, 1], where pi_K^2 w does not;
    # a grid cut there passes the Gram check with b_k off by 2e-3.  From
    # n = 745 sqrt(w) underflows there too, so the Stieltjes sums need a log
    # scale per node
    t = build_recurrence(WeightSpec(0.3, n, V_2X2), n + 2)
    k = np.arange(1, n + 3)
    assert np.max(np.abs(t.b[1:] - (k + 0.6 * (k % 2)) / (4.0 * n))) < 1e-12


@pytest.mark.parametrize("alpha, n, K", [(-0.45, 1024, 1026), (2.5, 1024, 1026), (0.0, 1, 300)])
def test_closed_form_b_at_the_budget_extremes(alpha, n, K):
    # the Stieltjes pass checks for rescaling once its growth budget, 200
    # nats, is spent.  At alpha = -0.45, b_1 = 0.1 / (4n) shrinks the state
    # fastest (sk falls to about 1e-163 between checks at n = 1024); at n = 1 the
    # grid reaches |x| = 19.4, so one step to K = 300 can grow it 2 |x| + 1 + b_k
    t = build_recurrence(WeightSpec(alpha, n, V_2X2), K)
    k = np.arange(1, K + 1)
    assert np.max(np.abs(t.b[1:] / ((k + 2.0 * alpha * (k % 2)) / (4.0 * n)) - 1.0)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(-0.45, 2.5), n=st.integers(1, 128), data=st.data())
def test_closed_form_b(alpha, n, data):
    # V = 2x^2 at any degree up to 5n: past K = 2n pi_K oscillates beyond
    # the support [-1, 1], out to about sqrt(K/n), so the dense grid grows with K/n
    K = data.draw(st.integers(1, min(5 * n, 300)), label="K")
    t = build_recurrence(WeightSpec(alpha, n, V_2X2), K)
    k = np.arange(1, K + 1)
    want = (k + 2.0 * alpha * (k % 2)) / (4.0 * n)
    assert np.max(np.abs(t.b[1:] / want - 1.0)) < 1e-12


def test_short_grid_is_refused(monkeypatch):
    # a grid that ends where pi_K^2 w has not decayed fails loudly, though the
    # recurrence is orthogonal on it
    from rmtkernels import quadrature

    monkeypatch.setattr(quadrature, "cutoff_radius", lambda w, direction: 0.9)
    monkeypatch.setattr(quadrature, "dense_radius", lambda p, direction, level: 0.9)
    with pytest.raises(PrecisionError, match="outermost grid panel"):
        build_recurrence(WeightSpec(0.3, 32, V_2X2), 34)


# -- polynomial evaluation ----------------------------------------------------


def test_monic_trivial_degrees(table_gauss_n1):
    t = table_gauss_n1
    assert eval_monic(t, 0, 2.3 + 1j).to_complex() == 1.0
    z = 0.4 - 0.2j
    assert eval_monic(t, 1, z).to_complex() == pytest.approx(z - t.a[0])


def test_monic_degree_two_at_zero(table_gauss_n1):
    # pi_2(0) = -b_1 = -0.5 for the Gaussian weight
    assert eval_monic(table_gauss_n1, 2, 0.0).to_complex() == pytest.approx(-0.5, abs=1e-12)


def test_monic_leading_behavior(table_gauss_n1):
    # at 1e200, pi_1 = z - a_0 must be rescaled before it is multiplied by z
    for z in (1e6, 1e200):
        for j in (3, 6):
            ratio = quotient(eval_monic(table_gauss_n1, j, z), ScaledPow(z, j))
            assert abs(ratio - 1.0) < 1e-5
            d = quotient(eval_monic_derivative(table_gauss_n1, j, z), ScaledPow(z, j - 1))
            assert abs(d - j) < 1e-4


def ScaledPow(z, j):
    return ScaledComplex.from_parts(1.0, j * math.log(abs(z)))


def test_monic_out_of_range(table_gauss_n1):
    with pytest.raises(IndexError):
        eval_monic(table_gauss_n1, 99, 0.0)
    # a non-finite point is outside the domain, as for eval_weight
    for z in (math.nan, math.inf, complex(0.0, -math.inf), np.array([0.5, math.nan])):
        with pytest.raises(WeightDomainError, match="finite"):
            monic_values_scaled(table_gauss_n1, [3], z)
    for evaluate in (eval_monic, eval_monic_derivative):
        with pytest.raises(WeightDomainError, match="finite"):
            evaluate(table_gauss_n1, 3, math.nan)


def test_derivative_trivial_and_explicit(table_gauss_n1):
    t = table_gauss_n1
    assert eval_monic_derivative(t, 1, 5.0).to_complex() == 1.0
    # pi_2 = z^2 - 1/2, so pi_2'(0) = 0
    assert abs(eval_monic_derivative(t, 2, 0.0).to_complex()) < 1e-14


def test_derivative_vs_finite_difference(table_a03_n8):
    t = table_a03_n8
    h = 1e-5
    for j in (3, 7):
        for z in (0.4 + 0.3j, -0.8 + 0.1j):
            fd = (eval_monic(t, j, z + h).to_complex()
                  - eval_monic(t, j, z - h).to_complex()) / (2 * h)
            assert eval_monic_derivative(t, j, z).to_complex() == pytest.approx(
                fd, rel=1e-7
            )


def _scalar_recurrence(t, j, z):
    """(pi_j(z), pi'_j(z)) by the forward recurrence in plain complex arithmetic.

    Reference for the vectorized evaluator: at the degrees and points it is
    used at nothing over- or underflows, so it needs no scaling and shares
    none with monic_values_scaled.
    """
    z = complex(z)
    if j == 0:
        return 1 + 0j, 0j
    p_prev, p_cur = 1 + 0j, z - t.a[0]
    d_prev, d_cur = 0j, 1 + 0j
    for k in range(1, j):
        zm = z - t.a[k]
        d_nxt = p_cur + zm * d_cur - t.b[k] * d_prev
        p_nxt = zm * p_cur - t.b[k] * p_prev
        p_prev, p_cur = p_cur, p_nxt
        d_prev, d_cur = d_cur, d_nxt
    return p_cur, d_cur


def test_vectorized_matches_scalar(table_a03_n8):
    t = table_a03_n8
    xs = np.array([-1.2, -0.3, 0.2, 0.9, 0.5 + 0.4j])
    for derivative in (False, True):
        out = monic_values_scaled(t, [0, 3, 9, 16], xs, derivative=derivative)
        assert sorted(out) == [0, 3, 9, 16]
        for j, res in out.items():
            vals, s = res[0], res[-1]
            for i, x in enumerate(xs):
                p, d = _scalar_recurrence(t, j, x)
                assert vals[i] * math.exp(s[i]) == pytest.approx(p, rel=1e-12, abs=1e-12)
                if derivative:
                    assert res[1][i] * math.exp(s[i]) == pytest.approx(d, rel=1e-12, abs=1e-12)


@functools.lru_cache(maxsize=None)
def _point_table(alpha, n):
    return build_recurrence(WeightSpec(alpha, n, V_2X2), n + 8)


@settings(max_examples=300, deadline=None)
@given(table=st.sampled_from([(0.0, 8), (0.3, 8), (0.0, 32), (0.3, 32)]), data=st.data(),
       z=st.one_of(st.floats(-1e300, 1e300),
                   st.complex_numbers(max_magnitude=1e300, allow_nan=False,
                                      allow_infinity=False)),
       derivative=st.booleans())
def test_number_matches_one_element_array(table, data, z, derivative):
    # a Python number runs the array's recurrence in Python arithmetic.  Real
    # points give numpy's bits; at complex points numpy may fuse the two
    # products of a complex product (FMA) where Python rounds each, so the two
    # agree to 1e-14 of the recurrence's state |F_j| + sqrt(b_j) |F_{j-1}|
    # (F_j alone cancels near its zeros), per unit of log scale (whose last
    # bits the two runs need not share)
    t = _point_table(*table)
    j = data.draw(st.integers(0, t.max_degree), label="j")
    degrees = [max(j - 1, 0), j]
    got = monic_values_scaled(t, degrees, z, derivative=derivative)
    want = monic_values_scaled(t, degrees, np.array([z]), derivative=derivative)
    s = float(want[j][-1][0])  # the array path keeps one log scale per point

    def parts(out, k):  # values (and derivatives) as complex numbers in the scale e^s
        return [complex(np.ravel(v)[0]) * math.exp(float(np.ravel(out[k][-1])[0]) - s)
                for v in out[k][:-1]]

    assert all(isinstance(v, (float, complex)) for v in got[j][:-1])
    assert isinstance(got[j][-1], float) and want[j][-1].shape == (1,)
    for g, w, w_prev in zip(parts(got, j), parts(want, j), parts(want, degrees[0])):
        if not isinstance(z, complex):
            assert g == w
        state = abs(w) + (math.sqrt(t.b[j]) * abs(w_prev) if j else 0.0)
        assert abs(g - w) <= 1e-14 * max(1.0, abs(s)) * state, (g, w, s)


def test_no_degrees_give_an_empty_result(table_gauss_n1):
    # the points are checked all the same
    for x in (0.3, 0.3 + 1j, np.array([0.5, -1.0 + 2j])):
        for derivative in (False, True):
            assert monic_values_scaled(table_gauss_n1, [], x, derivative=derivative) == {}
    for x in (math.nan, np.array([0.5, math.inf])):
        with pytest.raises(WeightDomainError, match="finite"):
            monic_values_scaled(table_gauss_n1, [], x)


def test_single_precision_points_run_in_double():
    # float32 overflows at 3.4e38, below the 1e50 at which the state is
    # rescaled: pi_16 at 5e3 came back nan
    t = _point_table(0.3, 8)
    for x in (np.array([0.5, 5e3, -7e3], dtype=np.float32),
              np.array([0.5 + 1j, 5e3 - 2j], dtype=np.complex64)):
        got = monic_values_scaled(t, [3, 16], x, derivative=True)
        want = monic_values_scaled(t, [3, 16], x.astype(np.result_type(x, np.float64)),
                                   derivative=True)
        for j in (3, 16):
            assert all(g.dtype == w.dtype and g.tobytes() == w.tobytes()
                       for g, w in zip(got[j], want[j]))


def _expression_steps(x, a, b, top, checks, derivative):
    """{k: (pi_k e^-s, pi'_k e^-s, s)} by pi_{k+1} = (x - a_k) pi_k - b_k pi_{k-1}, as written.

    At each degree of ``checks`` a point whose state has left [1e-50, 1e50]
    is divided by its largest |state| and log of it joins s, as the
    evaluator's rule states; a Python number runs in Python arithmetic.
    """
    many = isinstance(x, np.ndarray)
    cur, prev = (np.ones_like(x), np.zeros_like(x)) if many else (1.0, 0.0)
    dcur = dprev = prev
    s, out = np.zeros(x.shape) if many else 0.0, {}
    for k in range(top + 1):
        if k in checks:
            state = (cur, prev, dcur, dprev) if derivative else (cur, prev)
            if many:
                m = np.max([np.abs(v) for v in state], axis=0)
                m = np.where((m > 1e50) | ((m < 1e-50) & (m > 0)), m, 1.0)
                s = s + np.log(m)
            else:
                m = max(map(abs, state))
                m = m if m > 1e50 or 0 < m < 1e-50 else 1.0
                s = s + float(np.log(m))
            cur, prev, dcur, dprev = cur / m, prev / m, dcur / m, dprev / m
        out[k] = cur, dcur, s
        if k == 0:
            prev, cur, dprev, dcur = cur, x - a[0], dcur, cur
        else:
            dprev, dcur = dcur, cur + (x - a[k]) * dcur - b[k] * dprev
            prev, cur = cur, (x - a[k]) * cur - b[k] * prev
    return out


def _step_inputs():
    t = _point_table(0.3, 32)
    # the grid and points far enough out that the state leaves [1e-50, 1e50]
    grid = np.concatenate([t.grid.x, np.linspace(-3e3, 3e3, 7)])
    five = np.array([0.3 + 0.2j, -1.1 + 1e-3j, 2.5 - 0.5j, 40j, -0.2 - 3j])
    return t, [grid, five, np.array([0.4 - 0.7j]), 0.4 - 0.7j, 1.3]


@pytest.mark.parametrize("derivative", [False, True])
def test_three_term_writes_no_yielded_array(derivative):
    # the multi-point step finishes pi_{k+1} in place: in a fresh array only
    t, inputs = _step_inputs()
    a, b, _ = t._steps
    K = t.max_degree
    for x in inputs:
        held = [(item, [np.array(v, copy=True) for v in item if v is not None])
                for item in orthopoly._three_term(x, a, b, range(K + 1), set(range(K + 1)),
                                                  derivative)]
        assert [item[0] for item, _ in held] == list(range(K + 1))
        for item, copies in held:
            arrays = [v for v in item if v is not None]
            assert all(np.asarray(v).tobytes() == c.tobytes() for v, c in zip(arrays, copies))
    grid_scales = orthopoly._three_term(inputs[0], a, b, [K], set(range(K + 1)))
    assert np.abs(next(grid_scales)[1]).max() > 100.0  # the grid input was rescaled


@pytest.mark.parametrize("derivative", [False, True])
def test_evaluator_has_the_bits_of_the_expression(derivative):
    t, inputs = _step_inputs()
    K = t.max_degree
    degrees = [0, 1, 7, K - 1, K]
    for x in inputs:
        got = monic_values_scaled(t, degrees, x, derivative=derivative)
        # the evaluator's own check schedule, from its bounds over the degrees run
        step = orthopoly._cadence(x, *t._steps[2][K])
        want = _expression_steps(x, t.a.tolist(), t.b.tolist(), K,
                                 set(range(step, K + 1, step)) | set(degrees), derivative)
        for j in degrees:
            parts = [got[j][0], got[j][-1]] + ([got[j][1]] if derivative else [])
            ref = [want[j][0], want[j][2]] + ([want[j][1]] if derivative else [])
            assert all(np.asarray(g).tobytes() == np.asarray(w).tobytes()
                       for g, w in zip(parts, ref)), (x, j)


def test_appell_derivative_identity():
    # alpha = 0, V = x^2: scaled Hermite polynomials, so pi'_j = j pi_{j-1};
    # at z = 1e5+3e4i, log|pi'_72| is about 825, past double range, so value
    # and derivative must share the evaluator's rescaling
    t = build_recurrence(WeightSpec(0.0, 64, V_X2), 72)
    for z in (0.05 + 0.01j, 1 - 0.5j, 1e5 + 3e4j):
        for j in (1, 2, 37, 71, 72):
            d = eval_monic_derivative(t, j, z)
            want = j * eval_monic(t, j - 1, z)
            assert rel_err(d, want) < 1e-12


@pytest.mark.parametrize("n", [8, 32, 64])
def test_check_rule_sees_grid_error(monkeypatch, n):
    # Gauss order 2 panels leave b_k off by 6e-5 (n = 8) to 0.1 (n = 64),
    # though the polynomials are orthogonal on that grid by construction;
    # the Jacobi-matrix identities see it (defects 6e-6 to 3e-2)
    from rmtkernels import orthopoly

    monkeypatch.setattr(orthopoly, "ORDER", 2)
    with pytest.raises(PrecisionError, match="orthogonality residual .* at degree"):
        build_recurrence(WeightSpec(0.3, n, V_2X2), n + 8)


@pytest.mark.parametrize("qw", [0.0, math.nan])
def test_check_rule_rejects_a_void_sum(monkeypatch, qw):
    # a norm sum of zero or nan fails the table, with no math-domain error
    from rmtkernels import orthopoly

    grid = orthopoly.build_weight_grid

    def void(*args, **kwargs):
        g = grid(*args, **kwargs)
        return dataclasses.replace(g, qw=np.full_like(g.qw, qw))

    monkeypatch.setattr(orthopoly, "build_weight_grid", void)
    with pytest.raises(PrecisionError, match="lost positivity .* at degree 0"):
        build_recurrence(WeightSpec(0.3, 8, V_2X2), 16)


def test_precision_error_on_excessive_degree(monkeypatch):
    # degree far beyond what the grid resolves must fail loudly, not silently:
    # a dense region sized by V alone (level 8, out to 2.8) leaves pi_200 at
    # n = 2, which oscillates out to 14, to the coarse tail panels
    from rmtkernels import quadrature

    dense_radius = quadrature.dense_radius
    monkeypatch.setattr(quadrature, "dense_radius",
                        lambda p, direction, level: dense_radius(p, direction, 8.0))
    with pytest.raises(PrecisionError):
        build_recurrence(WeightSpec(0.0, 2, V_X2), 200)


def test_table_is_read_only(table_n8):
    # values cached on a table cannot go stale: its arrays and fields are fixed
    t = table_n8
    for arr in (t.a, t.b, t.log_norm_sq, t.grid.x, t.grid.qw, t.grid.logw):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.max_degree = 3
    # the grid values the Stieltjes pass kept are read-only copies of the grid's slice
    kept = t.grid_values([t.max_degree - 2, t.max_degree - 1, t.max_degree])
    for values, scale in kept.values():
        for arr in (values, scale):
            assert arr.shape == t.grid.x.shape and arr.base is None
            with pytest.raises(ValueError):
                arr[0] = 1.0
