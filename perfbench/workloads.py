"""The three benchmark workloads, as calls into rmtkernels.

Each workload is a function ``wl(seed, tiny, op)`` that runs one pass of
its traffic and hands every operation to ``op(meta, fn)``: ``meta`` is a
JSON-able description of the inputs, ``fn`` computes the outputs.  Work
between operations (building the tables ``plane`` reads) belongs to the
pass but to no operation.  ``tiny`` selects the self-test sizes.

Outputs are JSON-able: a complex value is [log|v|, arg v], taken with
ScaledComplex.log_abs because abs() of such values underflows at these n.
"""

from __future__ import annotations

import random

# layer functions are called through their modules, so that the tracer's
# rebinding of module attributes reaches these calls too
from rmtkernels import cauchy, oracle as joint, orthopoly, universality
from rmtkernels.orthopoly import PotentialSpec, WeightSpec
from rmtkernels.scaled import ScaledComplex
from rmtkernels.universality import Theorem, TheoremCase

V = PotentialSpec((0.0, 0.0, 2.0))
ALPHAS = (0.0, 0.3)
RATIO_ZETA = 0.5 + 0.5j
PLANE_IM = (1e-3, 1e-2, 0.05, 0.2, 0.5, 1.0, 2.0, 3.0)
PLANE_RE_STEP = 0.5


def log_pair(v: ScaledComplex):
    return [v.log_abs(), v.phase()]


def study(seed, tiny, op):
    # one process for all cases, so the library's table cache is shared
    # between them exactly as in a CLI or acceptance run
    for alpha in ALPHAS[:1] if tiny else ALPHAS:
        for th in (Theorem.T1,) if tiny else Theorem:
            case = TheoremCase(th, alpha, V, n_list=(8, 16) if tiny else (8, 16, 32, 64))
            op({"theorem": th.value, "alpha": alpha},
               lambda case=case: {"passed": universality.convergence_study(case).passed})
        n_list = (8,) if tiny else (8, 16, 32, 64)
        op({"ratio": True, "alpha": alpha},
           lambda alpha=alpha, n_list=n_list: {
               "values": [[v.real, v.imag] for v in universality.ratio_convergence_check(
                   alpha, V, RATIO_ZETA, n_list=n_list).values]})


def plane_points(seed, tiny):
    """Re z over [-3, 3] in steps of 0.5, shifted by a seeded offset."""
    offset = 0.0 if seed == 0 else random.Random(seed).uniform(-0.25, 0.25)
    res = [-3.0 + PLANE_RE_STEP * i + offset for i in range(13)]
    if tiny:
        res = res[4:9:2]
    return [complex(re, im) for re in res for im in PLANE_IM]


def plane_sizes(tiny):
    return [(alpha, n) for alpha in ALPHAS for n in ((8,) if tiny else (8, 32, 128))]


def _h_triple(t, n, z):
    out = []
    for j in (n - 1, n, n + 1):
        try:
            out.append(log_pair(cauchy.cauchy_transform(t, j, z)))
        except Exception as exc:  # every failure is counted, by type
            out.append(type(exc).__name__)
    return out


def plane(seed, tiny, op):
    zs = plane_points(seed, tiny)
    for alpha, n in plane_sizes(tiny):
        t = orthopoly.build_recurrence(WeightSpec(alpha, n, V), n + 8)
        for z in zs:
            op({"alpha": alpha, "n": n, "z": [z.real, z.imag]},
               lambda t=t, n=n, z=z: {"h": _h_triple(t, n, z)})


def oracle(seed, tiny, op):
    x = 0.7
    sizes = [(0.3, 2), (0.0, 2)] if tiny else [(a, n) for a in ALPHAS for n in (2, 3)]
    for alpha, n in sizes:
        def heine(alpha=alpha, n=n):
            w = WeightSpec(alpha, n, V)
            got = joint.average_char_poly(joint.make_joint_density(w), x)
            want = orthopoly.eval_monic(orthopoly.build_recurrence(w, n + 2), n, x)
            return {"oracle": log_pair(got), "recurrence": log_pair(want)}
        op({"alpha": alpha, "n": n, "x": x}, heine)


WORKLOADS = {"study": study, "plane": plane, "oracle": oracle}
