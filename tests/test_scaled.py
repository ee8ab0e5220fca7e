import math

import pytest

from rmtkernels.scaled import ScaledComplex


def test_normalization_band():
    v = ScaledComplex.from_parts(12345.0 + 0j, 10.0)
    assert 1e-2 <= abs(v.mantissa) <= 1e2
    assert v.log_abs() == pytest.approx(math.log(12345.0) + 10.0)


def test_zero_and_one():
    assert ScaledComplex.zero().to_complex() == 0j
    assert ScaledComplex.from_complex(1.0).to_complex() == 1 + 0j
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
    # a zero factor gives zero(), whatever the other's scale
    assert a * ScaledComplex.zero() == ScaledComplex.zero()
    assert ScaledComplex.zero() * b == ScaledComplex.zero()
