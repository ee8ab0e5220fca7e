"""The library's contract over its whole documented domain: every public
function returns a finite value or raises one of the package's error
classes, and no numpy RuntimeWarning is printed on the way."""

import math
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from rmtkernels import (EquilibriumMeasure, KernelFamily, LimitKernelId, PotentialSpec, PsiSector,
                        WeightSpec, build_recurrence, cauchy_transform, cauchy_transform_derivative,
                        cauchy_transforms, eval_monic, eval_monic_derivative, limit_kernel,
                        psi_alpha, solve_equilibrium, w_kernel)
from rmtkernels.cauchy import CauchyConvergenceError, CauchyDomainError
from rmtkernels.equilibrium import EquilibriumError
from rmtkernels.orthopoly import DegreeError, PrecisionError
from rmtkernels.parametrix import SectorError
from rmtkernels.quadrature import WeightDomainError
from rmtkernels.scaled import ScaledComplex
from rmtkernels.specfun import SpecfunDomainError
from rmtkernels.universality import ScaleCancellationError

_ERRORS = (CauchyConvergenceError, CauchyDomainError, DegreeError, EquilibriumError,
           PrecisionError, ScaleCancellationError, SectorError, SpecfunDomainError,
           WeightDomainError)

_SIGNS = st.sampled_from([1.0, -1.0])
# r e^{i theta} with r from 1e-300 to 1e300, a real point, or one a subnormal or
# a normal near the smallest above or below the axis, across the widest grids
_POINTS = st.one_of(
    st.tuples(st.floats(-300.0, 300.0), st.floats(-math.pi, math.pi)).map(
        lambda p: complex(10 ** p[0] * math.cos(p[1]), 10 ** p[0] * math.sin(p[1]))),
    st.tuples(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0])).map(lambda p: complex(*p)),
    st.tuples(st.floats(-40.0, 40.0),
              st.sampled_from([5e-324, 2.2e-309, 1e-310, 2.3e-308, 6e-308, 1e-307]), _SIGNS).map(
        lambda p: complex(p[0], p[1] * p[2])),
)
_POTENTIALS = st.sampled_from([(0, 0, 2), (0, 0, 1), (1, 0, 2), (0, 0, 0, 0, 1), (0, 0, 1, 0, 1),
                               (0, 1, 1), (0, 0, 1e-300), (0, 0, -1)])


def _finite(v) -> bool:
    if isinstance(v, ScaledComplex):
        return math.isfinite(v.log_scale) and np.isfinite(v.mantissa)
    if isinstance(v, dict):
        return all(np.isfinite(m).all() and np.isfinite(s).all() for m, s in v.values())
    if isinstance(v, EquilibriumMeasure):
        return all(map(math.isfinite, (v.b0, v.a1, v.psi0, v.ell)))
    return bool(np.isfinite(v).all())


def _calls(t, alpha, j, m, zeta, eta):
    """(name, function, arguments) for every function of the contract at these inputs."""
    return [
        ("eval_monic", eval_monic, (t, j, zeta)),
        ("eval_monic_derivative", eval_monic_derivative, (t, j, zeta)),
        ("cauchy_transform", cauchy_transform, (t, j, zeta)),
        ("cauchy_transforms", cauchy_transforms, (t, [j, j + 1], np.array([zeta, eta]))),
        ("cauchy_transform_derivative", cauchy_transform_derivative, (t, j, zeta)),
    ] + [("w_kernel", w_kernel, (family, t, m, zeta, eta)) for family in KernelFamily] \
        + [("limit_kernel", limit_kernel, (kid, alpha, zeta, eta)) for kid in LimitKernelId] \
        + [("psi_alpha", psi_alpha, (alpha, zeta, sector)) for sector in PsiSector]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(alpha=st.floats(-0.5, 60.0, exclude_min=True), n=st.sampled_from([1, 2, 8, 16, 64]),
       j=st.integers(0, 3), m=st.integers(-1, 2), zeta=_POINTS, eta=_POINTS,
       potential=_POTENTIALS)
def test_every_call_returns_a_finite_value_or_a_typed_error(alpha, n, j, m, zeta, eta,
                                                            potential):
    # the degree is n + 1 - j, about n where the kernels sit; the table
    # reaches n + 2, the kernels' top degree n + m at m = 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        calls = [("solve_equilibrium", lambda p: solve_equilibrium(PotentialSpec(p)),
                  (potential,))]
        try:
            t = build_recurrence(WeightSpec(alpha, n, PotentialSpec((0.0, 0.0, 2.0))), n + 2)
        except _ERRORS:
            pass
        else:
            calls += _calls(t, alpha, n + 1 - j, m, zeta, eta)
        for name, function, args in calls:
            try:
                v = function(*args)
            except _ERRORS:
                continue
            assert _finite(v), (name, args, v)
