import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from rmtkernels.scaled import ScaledComplex


def _mantissas(draw_zero=False):
    return st.complex_numbers(
        min_magnitude=0.0 if draw_zero else 1e-6, max_magnitude=1e3,
        allow_nan=False, allow_infinity=False,
    )


def test_normalization_band():
    v = ScaledComplex.from_parts(12345.0 + 0j, 10.0)
    assert 1e-2 <= abs(v.mantissa) <= 1e2
    assert v.log_abs() == pytest.approx(math.log(12345.0) + 10.0)


def test_zero_and_one():
    assert ScaledComplex.zero().to_complex() == 0j
    assert ScaledComplex.one().to_complex() == 1 + 0j
    assert ScaledComplex.zero().log_abs() == -math.inf


def test_to_complex_overflow():
    big = ScaledComplex.from_parts(1.0, 900.0)
    with pytest.raises(OverflowError):
        big.to_complex()
    tiny = ScaledComplex.from_parts(1.0, -900.0)
    assert tiny.to_complex() == 0j


def test_product_of_extreme_scales():
    a = ScaledComplex.from_parts(2.0 + 1.0j, 600.0)
    b = ScaledComplex.from_parts(0.5 - 0.25j, -600.0)
    prod = a * b
    assert prod.to_complex() == pytest.approx((2 + 1j) * (0.5 - 0.25j))


def test_division_and_zero_division():
    a = ScaledComplex.from_parts(3.0, 5.0)
    assert (a / a).to_complex() == pytest.approx(1.0)
    with pytest.raises(ZeroDivisionError):
        a / ScaledComplex.zero()


def test_conjugate():
    a = ScaledComplex.from_parts(1.0 + 2.0j, 3.0)
    assert a.conjugate().to_complex() == pytest.approx(a.to_complex().conjugate())


@given(
    m1=_mantissas(), m2=_mantissas(),
    s1=st.floats(-500, 500), s2=st.floats(-500, 500),
)
@settings(max_examples=300)
def test_add_sub_roundtrip_property(m1, m2, s1, s2):
    x = ScaledComplex.from_parts(m1, s1)
    y = ScaledComplex.from_parts(m2, s2)
    z = (x + y) - y
    # scale-aware bound: when |x| << |y| the roundtrip loses |x| entirely,
    # so the error is measured against the larger operand
    err_log = (z - x).log_abs()
    bound_log = max(x.log_abs(), y.log_abs()) + math.log(1e-13)
    assert err_log == -math.inf or err_log <= bound_log


def test_roundtrip_bulk_million_triples():
    rng = random.Random(20240817)
    worst = -math.inf
    for _ in range(1_000_000):
        x = ScaledComplex.from_parts(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) or 1.0,
            rng.uniform(-500, 500),
        )
        y = ScaledComplex.from_parts(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) or 1.0,
            rng.uniform(-500, 500),
        )
        err_log = ((x + y) - y - x).log_abs()
        if err_log == -math.inf:
            continue
        worst = max(worst, err_log - max(x.log_abs(), y.log_abs()))
    assert worst <= math.log(1e-14)


def test_addition_alignment_exact():
    a = ScaledComplex.from_parts(1.0, 0.0)
    b = ScaledComplex.from_parts(1.0, math.log(2.0))
    assert (a + b).to_complex() == pytest.approx(3.0)


def test_absorb_gap_keeps_larger():
    a = ScaledComplex.from_parts(1.0, 0.0)
    b = ScaledComplex.from_parts(1.0, -900.0)
    assert (a + b).to_complex() == pytest.approx(1.0)
