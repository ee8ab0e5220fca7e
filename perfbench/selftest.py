"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric of BENCHMARK.json prints with its unit on every
workload, that the plane check accepts a correct h_n at n = 8 and flags
the same value scaled by 1 + 1e-3, and that a traced run leaves no wrapped
function behind.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import cmath
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from rmtkernels import cauchy, orthopoly  # noqa: E402


def check_metric_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for wl in spec["workloads"]:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
                 "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
            assert res["correct"] is True and res["attempted"] >= 1, res
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (wl["name"], trace, set(got) ^ set(want))
    print("metric names and units: ok")


def check_plane_reference():
    alpha, n = 0.3, 8
    t = orthopoly.build_recurrence(orthopoly.WeightSpec(alpha, n, workloads.V), n + 8)
    far, bulk = 0.5 + 2.0j, 0.5 + 0.01j
    ref = reference.PlaneReference(alpha, n, [far, bulk])
    # one point is checked against Miller's values, the other by the relation
    assert ref.converged == [True, False], ref.converged
    for i, z in enumerate((far, bulk)):
        logs = [complex(*workloads.log_pair(cauchy.cauchy_transform(t, j, z)))
                for j in (n - 1, n, n + 1)]
        assert all(ref.check(i, logs)), (z, ref.check(i, logs))
        logs[1] += cmath.log(1.0 + 1e-3)
        assert not ref.check(i, logs)[1], z
    print("plane check accepts h_n and flags h_n * (1 + 1e-3): ok")


def check_tracer_removed():
    before = {(m.__name__, k): v for m in tracing.package_modules() for k, v in vars(m).items()}
    raw = worker.run("study", 0, 0, 1, True)
    after = {(m.__name__, k): v for m in tracing.package_modules() for k, v in vars(m).items()}
    assert raw["traced"][0]["counts"]["universality.convergence_study.calls"] > 0
    assert raw["leftover_wrappers"] == [] and tracing.leftover_wrappers() == []
    assert all(after[key] is v for key, v in before.items() if key in after)
    print("traced run restores every wrapped function: ok")


if __name__ == "__main__":
    check_plane_reference()
    check_tracer_removed()
    check_metric_names()
    print("selftest passed")
