"""Log-scaled complex arithmetic.

Quantities like squared leading coefficients, monic polynomial values and
Cauchy transforms grow or decay like e^(c*n) and overflow double precision
long before n reaches desk scale.  A ScaledComplex stores an O(1) complex
mantissa together with a real natural-log exponent, so products of such
quantities stay representable.

A ScaledComplex is the one-point read-out of the package: it is constructed
from a (mantissa, log scale) pair, multiplied, and read as a plain complex,
a log modulus or a phase.  Sums of such values are taken in the batched
(mantissa, log) arrays of :mod:`rmtkernels.cauchy` and
:mod:`rmtkernels.finite_kernels`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

_MANTISSA_LO = 1e-2
_MANTISSA_HI = 1e2


@dataclass(frozen=True)
class ScaledComplex:
    """Complex value mantissa * e^(log_scale), with |mantissa| kept in [1e-2, 1e2]."""

    mantissa: complex
    log_scale: float = 0.0

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_complex(z) -> "ScaledComplex":
        return ScaledComplex(complex(z), 0.0).normalized()

    @staticmethod
    def from_parts(mantissa, log_scale) -> "ScaledComplex":
        return ScaledComplex(complex(mantissa), float(log_scale)).normalized()

    @staticmethod
    def zero() -> "ScaledComplex":
        return ScaledComplex(0j, 0.0)

    # -- normalization -----------------------------------------------------

    def normalized(self) -> "ScaledComplex":
        m = self.mantissa
        if m == 0:
            return ScaledComplex(0j, 0.0)
        a = abs(m)
        if not math.isfinite(a):
            raise OverflowError("non-finite mantissa in ScaledComplex")
        if _MANTISSA_LO <= a <= _MANTISSA_HI:
            return self
        return ScaledComplex(m / a, self.log_scale + math.log(a))

    # -- queries -----------------------------------------------------------

    def log_abs(self) -> float:
        """log |value|; -inf for zero."""
        if self.mantissa == 0:
            return -math.inf
        return self.log_scale + math.log(abs(self.mantissa))

    def phase(self) -> float:
        return cmath.phase(self.mantissa)

    def to_complex(self) -> complex:
        """Fold the exponent back into a plain complex; raises on overflow."""
        if self.mantissa == 0:
            return 0j
        total = self.log_abs()
        if total > 700.0:
            raise OverflowError(f"ScaledComplex too large to fold: log|z| = {total:.3g}")
        if total < -700.0:
            return 0j
        return self.mantissa * math.exp(self.log_scale)

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other) -> "ScaledComplex":
        other = _coerce(other)
        if self.mantissa == 0 or other.mantissa == 0:
            return ScaledComplex.zero()
        return ScaledComplex(
            self.mantissa * other.mantissa, self.log_scale + other.log_scale
        ).normalized()

    __rmul__ = __mul__


def _coerce(value) -> ScaledComplex:
    if isinstance(value, ScaledComplex):
        return value
    return ScaledComplex.from_complex(value)
