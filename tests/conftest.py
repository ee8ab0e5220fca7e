import math

import pytest
from scipy import special

from rmtkernels.orthopoly import PotentialSpec, WeightSpec, build_recurrence

# one line per acceptance criterion, filled by tests/test_acceptance.py and
# replayed after the run (pytest capture would otherwise swallow them)
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def quotient(a, b) -> complex:
    """a / b for two ScaledComplex values, from the mantissas and exp of the log-scale gap.

    Neither value is folded into a plain complex, so this holds where
    ``to_complex`` under- or overflows (h_j at 1e300i, pi_j at 1e200).
    """
    return a.mantissa / b.mantissa * math.exp(a.log_scale - b.log_scale)


def rel_err(a, b) -> float:
    """|a/b - 1| for two ScaledComplex values, by :func:`quotient`."""
    return abs(quotient(a, b) - 1.0)


def ratio_identity_value(alpha, zeta) -> complex:
    """pi^2 zeta / 2 * (J_{a+1/2} Y_{a-1/2} - J_{a-1/2} Y_{a+1/2})(pi zeta), which equals 1
    off the cut (-inf, 0] of Y."""
    zeta = complex(zeta)
    w = math.pi * zeta
    nu_p, nu_m = alpha + 0.5, alpha - 0.5
    val = (special.jv(nu_p, w) * special.yv(nu_m, w)
           - special.jv(nu_m, w) * special.yv(nu_p, w))
    return math.pi * math.pi * zeta / 2.0 * val


V_X2 = PotentialSpec((0.0, 0.0, 1.0))
V_2X2 = PotentialSpec((0.0, 0.0, 2.0))


@pytest.fixture(scope="session")
def table_gauss_n1():
    """alpha=0, V=x^2, n=1: the plain Gaussian weight."""
    return build_recurrence(WeightSpec(0.0, 1, V_X2), 8)


@pytest.fixture(scope="session")
def table_n8():
    return build_recurrence(WeightSpec(0.0, 8, V_X2), 16)


@pytest.fixture(scope="session")
def table_a03_n8():
    return build_recurrence(WeightSpec(0.3, 8, V_2X2), 16)


@pytest.fixture(scope="session")
def table_n6():
    return build_recurrence(WeightSpec(0.0, 6, V_2X2), 12)
