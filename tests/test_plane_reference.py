"""Cauchy transforms over the benchmark's plane against stored values.

tests/data/plane_reference.json holds, for V = 2x^2, alpha in {0, 0.3} and
n in {8, 32} (tables to degree n + 8), h_{n-1}, h_n and h_{n+1} as
[log|h|, arg h] at the 104 points Re z = -3, -2.5, ..., 3 by Im z = 1e-3,
1e-2, 0.05, 0.2, 0.5, 1, 2, 3, every one of which is returned.  These are
the points and sizes of the benchmark's seed-0 ``plane`` pass below
n = 128.  A change that moves a log modulus or an argument by more than
1e-12 fails here; the benchmark's own check is 1e-6 relative.
Rewrite the file, after a deliberate change of the numbers, with

    PYTHONPATH=src python tests/test_plane_reference.py
"""

import json
import math
from pathlib import Path

from rmtkernels.cauchy import cauchy_transform
from rmtkernels.orthopoly import PotentialSpec, WeightSpec, build_recurrence

REFERENCE = Path(__file__).parent / "data" / "plane_reference.json"
V_2X2 = PotentialSpec((0.0, 0.0, 2.0))
IMAG = (1e-3, 1e-2, 0.05, 0.2, 0.5, 1.0, 2.0, 3.0)
POINTS = [complex(-3.0 + 0.5 * i, im) for i in range(13) for im in IMAG]
TOL = 1e-12


def plane_values() -> dict:
    """{"alpha n": [[h_{n-1}, h_n, h_{n+1}] per point]}, each h as [log|h|, arg h]."""
    out = {}
    for alpha in (0.0, 0.3):
        for n in (8, 32):
            t = build_recurrence(WeightSpec(alpha, n, V_2X2), n + 8)
            rows = out[f"{alpha} {n}"] = []
            for z in POINTS:
                hs = (cauchy_transform(t, j, z) for j in (n - 1, n, n + 1))
                rows.append([[h.log_abs(), h.phase()] for h in hs])
    return out


def test_plane_matches_the_stored_values():
    want = json.loads(REFERENCE.read_text())
    got = plane_values()
    assert got.keys() == want.keys()
    for key, rows in want.items():
        assert len(got[key]) == len(rows) == len(POINTS)
        for z, g_row, w_row in zip(POINTS, got[key], rows):
            assert len(g_row) == len(w_row) == 3
            for g, w in zip(g_row, w_row):
                assert abs(g[0] - w[0]) <= TOL, (key, z)
                # the argument on the circle: -pi and pi are the same
                assert abs(math.remainder(g[1] - w[1], 2.0 * math.pi)) <= TOL, (key, z)


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(plane_values(), indent=1) + "\n")
