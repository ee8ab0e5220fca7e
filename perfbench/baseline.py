"""Measures the baseline and writes perfbench/baseline.json.

    python3 perfbench/baseline.py [--seeds 10]

With --seeds 1 it is the quick way to run every workload once.

Runs every workload of BENCHMARK.json untraced once per seed 0..seeds-1
and traced once at seed 0, all through run.py with the spec's run_seconds.
It records, per workload, each end-to-end metric's median and quartiles
over the seeds, the per-layer metrics, the plane failure counts at seed 0,
and a machine stamp.  The hand-written "predictions" of an existing
baseline.json are kept.  Takes about 22 minutes with the default seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import run

OUT = run.HERE / "baseline.json"


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=200, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    failures = [json.loads(line[len(run.PLANE_FAILURES_PREFIX):])
                for line in out.stderr.splitlines()
                if line.startswith(run.PLANE_FAILURES_PREFIX)]
    return result, failures[0] if failures else None


def machine():
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "threads": {var: "1" for var in run.THREAD_VARS},
    }


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med, "runs": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    old = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc = {"machine": machine(), "run_seconds": seconds,
           "seeds": list(range(args.seeds)), "workloads": {},
           "predictions": old.get("predictions", [])}
    for wl in spec["workloads"]:
        name = wl["name"]
        runs = []
        for seed in range(args.seeds):
            result, failures = bench(name, seed, seconds, 0)
            runs.append(result)
            if seed == 0 and failures is not None:
                doc["plane_failures_seed0"] = failures
            print(name, seed, json.dumps(result), flush=True)
        traced, _ = bench(name, 0, seconds, 1)
        doc["workloads"][name] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": {m["name"]: {"unit": m["unit"], **spread(
                [r["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]},
            "per_layer_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        OUT.write_text(json.dumps(doc, indent=1) + "\n")
    for name, w in doc["workloads"].items():
        print(f"{name:7s} fail_frac    {w['failed'][0]}/{w['attempted'][0]} at seed 0; "
              f"correct {w['correct']}")
        for metric, s in w["end_to_end"].items():
            print(f"{name:7s} {metric:12s} median {s['median']:12.4f} {s['unit']:3s} "
                  f"iqr/median {s['iqr_over_median']:.3f}")


if __name__ == "__main__":
    main()
