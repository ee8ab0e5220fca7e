import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmtkernels.orthopoly import (
    PotentialSpec,
    PrecisionError,
    QuadratureConfig,
    WeightDomainError,
    WeightSpec,
    build_recurrence,
    eval_monic,
    eval_monic_derivative,
    eval_weight,
    monic_values_scaled,
)
from rmtkernels.scaled import ScaledComplex

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


def test_weight_alpha_bound():
    with pytest.raises(WeightDomainError):
        WeightSpec(-0.5, 4, V_X2)
    with pytest.raises(WeightDomainError):
        WeightSpec(0.0, 0, V_X2)


def test_eval_weight_values():
    w = WeightSpec(0.3, 2, V_X2)
    v = eval_weight(w, 1.5)
    expect = 1.5 ** 0.6 * math.exp(-2 * 1.5 ** 2)
    assert v.to_complex() == pytest.approx(expect, rel=1e-14)
    assert eval_weight(w, 0.0).is_zero
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
    cfg = QuadratureConfig(dense_panels=64, order=24)
    for n in (8, 64):
        t = build_recurrence(WeightSpec(0.0, n, V_X2), 40, cfg)
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


@pytest.mark.parametrize("n", [400, 512])
def test_closed_form_b_at_large_n(n):
    # V = 2x^2: b_k = (k + 2a [k odd]) / (4n).  From n = 376 the weight
    # falls below e^-750 inside the support [-1, 1], where pi_K^2 w does not;
    # a grid cut there passes the Gram check with b_k off by 2e-3
    t = build_recurrence(WeightSpec(0.3, n, V_2X2), n + 2)
    k = np.arange(1, n + 3)
    assert np.max(np.abs(t.b[1:] - (k + 0.6 * (k % 2)) / (4.0 * n))) < 1e-12


def test_short_grid_is_refused(monkeypatch):
    # a grid that ends where pi_K^2 w has not decayed fails loudly, though the
    # recurrence is orthogonal on it
    from rmtkernels import quadrature

    monkeypatch.setattr(quadrature, "cutoff_radius", lambda w, direction: 0.9)
    monkeypatch.setattr(quadrature, "dense_radius", lambda p, direction: 0.9)
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
            ratio = eval_monic(table_gauss_n1, j, z) / ScaledPow(z, j)
            assert abs(ratio.to_complex() - 1.0) < 1e-5
            d = eval_monic_derivative(table_gauss_n1, j, z) / ScaledPow(z, j - 1)
            assert abs(d.to_complex() - j) < 1e-4


def ScaledPow(z, j):
    from rmtkernels.scaled import ScaledComplex

    return ScaledComplex.from_parts(1.0, j * math.log(abs(z)))


def test_monic_out_of_range(table_gauss_n1):
    with pytest.raises(IndexError):
        eval_monic(table_gauss_n1, 99, 0.0)


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
    """(pi_j(z), pi'_j(z)) by the forward recurrence, one ScaledComplex per step.

    Reference for the vectorized evaluator: every step is normalized on its
    own, so it shares no scaling logic with monic_values_scaled.
    """
    z = complex(z)
    if j == 0:
        return ScaledComplex.one(), ScaledComplex.zero()
    p_prev, p_cur = ScaledComplex.one(), ScaledComplex.from_complex(z - t.a[0])
    d_prev, d_cur = ScaledComplex.zero(), ScaledComplex.one()
    for k in range(1, j):
        zm = ScaledComplex.from_complex(z - t.a[k])
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
                assert vals[i] * math.exp(s[i]) == pytest.approx(
                    p.to_complex(), rel=1e-12, abs=1e-12
                )
                if derivative:
                    assert res[1][i] * math.exp(s[i]) == pytest.approx(
                        d.to_complex(), rel=1e-12, abs=1e-12
                    )


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


def test_appell_derivative_identity():
    # alpha = 0, V = x^2: scaled Hermite polynomials, so pi'_j = j pi_{j-1};
    # at z = 1e5+3e4i, log|pi'_72| is about 825, past double range, so value
    # and derivative must share the evaluator's rescaling
    t = build_recurrence(WeightSpec(0.0, 64, V_X2), 72)
    for z in (0.05 + 0.01j, 1 - 0.5j, 1e5 + 3e4j):
        for j in (1, 2, 37, 71, 72):
            d = eval_monic_derivative(t, j, z)
            want = j * eval_monic(t, j - 1, z)
            assert abs(((d - want) / want).to_complex()) < 1e-12


def test_precision_error_on_excessive_degree():
    # degree far beyond the certified band must fail loudly, not silently
    with pytest.raises(PrecisionError):
        build_recurrence(WeightSpec(0.0, 2, V_X2), 200,
                         QuadratureConfig(dense_panels=8, order=6))


def test_table_is_read_only(table_n8):
    # values cached on a table cannot go stale: its arrays and fields are fixed
    t = table_n8
    for arr in (t.a, t.b, t.log_norm_sq, t.grid.x, t.grid.qw, t.grid.logw):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.max_degree = 3
