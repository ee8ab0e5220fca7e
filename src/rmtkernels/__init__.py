"""Kernels for unitary ensembles with weight |x|^(2 alpha) e^(-n V(x)).

Builds monic orthogonal polynomials and their Cauchy transforms for the
weight above, assembles the three characteristic-polynomial kernels, and
verifies at small n that their origin scalings converge to the explicit
Bessel/Hankel limit kernels.
"""

from .orthopoly import (
    PotentialSpec,
    RecurrenceTable,
    WeightSpec,
    build_recurrence,
    eval_monic,
    eval_monic_derivative,
    eval_weight,
)
from .scaled import ScaledComplex
from .cauchy import (
    cauchy_transform,
    cauchy_transform_derivative,
    cauchy_transforms,
    plemelj_jump_check,
)
from .finite_kernels import KernelFamily, YColumns, w_kernel, y_matrix
from .bessel_limits import LimitKernelId, limit_kernel
from .equilibrium import EquilibriumMeasure, solve_equilibrium, variational_residuals
from .universality import (
    ConvergenceReport,
    Theorem,
    TheoremCase,
    convergence_study,
    normalized_lhs,
    ratio_convergence_check,
)
from .parametrix import PsiSector, check_gamma2_jump, psi_alpha

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "EquilibriumMeasure",
    "KernelFamily",
    "LimitKernelId",
    "PotentialSpec",
    "PsiSector",
    "RecurrenceTable",
    "ScaledComplex",
    "Theorem",
    "TheoremCase",
    "WeightSpec",
    "YColumns",
    "build_recurrence",
    "cauchy_transform",
    "cauchy_transform_derivative",
    "cauchy_transforms",
    "check_gamma2_jump",
    "convergence_study",
    "eval_monic",
    "eval_monic_derivative",
    "eval_weight",
    "limit_kernel",
    "normalized_lhs",
    "plemelj_jump_check",
    "psi_alpha",
    "ratio_convergence_check",
    "solve_equilibrium",
    "variational_residuals",
    "w_kernel",
    "y_matrix",
]
