"""The benchmark's study pass against stored values.

tests/data/study_reference.json holds, for V = 2x^2, alpha in {0, 0.3} and
n = 8, 16, 32, 64, the sup errors and slopes of the six theorem cases and
the values of the ratio check at zeta = 0.5 + 0.5i, as a study run wrote
them.  A change that moves any of them by more than 1e-9 relative fails
here, where the benchmark's own check reads only each case's pass flag.
Rewrite the file, after a deliberate change of the numbers, with

    PYTHONPATH=src python tests/test_study_reference.py
"""

import json
from pathlib import Path

from rmtkernels import universality
from rmtkernels.orthopoly import PotentialSpec
from rmtkernels.universality import Theorem, TheoremCase, convergence_study, ratio_convergence_check

REFERENCE = Path(__file__).parent / "data" / "study_reference.json"
V_2X2 = PotentialSpec((0.0, 0.0, 2.0))
RATIO_ZETA = 0.5 + 0.5j
REL_TOL = 1e-9


def study_values() -> dict:
    """{alpha: {theorem: {"errors", "slope"}, "ratio": [[re, im] per n]}}, from one fresh study."""
    universality._cached_table.cache_clear()
    out = {}
    for alpha in (0.0, 0.3):
        entry = out[repr(alpha)] = {}
        for th in Theorem:
            rep = convergence_study(TheoremCase(th, alpha, V_2X2))
            entry[th.value] = {"errors": rep.errors, "slope": rep.slope}
        rep = ratio_convergence_check(alpha, V_2X2, RATIO_ZETA)
        entry["ratio"] = [[v.real, v.imag] for v in rep.values]
    universality._cached_table.cache_clear()
    return out


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def test_study_matches_the_stored_values():
    want = json.loads(REFERENCE.read_text())
    got = study_values()
    assert got.keys() == want.keys()
    for alpha, cases in want.items():
        assert got[alpha].keys() == cases.keys()
        for th in Theorem:
            g, w = got[alpha][th.value], cases[th.value]
            assert len(g["errors"]) == len(w["errors"]) == 4
            assert all(_close(a, b) for a, b in zip(g["errors"], w["errors"])), (alpha, th)
            assert _close(g["slope"], w["slope"]), (alpha, th)
        for g, w in zip(got[alpha]["ratio"], cases["ratio"]):
            # the ratio is 1 to rounding: compare the complex value as a whole
            assert abs(complex(*g) - complex(*w)) <= REL_TOL * abs(complex(*w)), alpha
        assert len(got[alpha]["ratio"]) == len(cases["ratio"]) == 4


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(study_values(), indent=1) + "\n")
