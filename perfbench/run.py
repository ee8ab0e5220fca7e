"""Benchmark entry point: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload plane --seed 0 --seconds 32 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
interpreter (worker.py) with the checkout's src/ on PYTHONPATH and BLAS
pinned to one thread, as a closed loop from one process.  Every
operation's output is then checked here against an independent reference
(checks.py, reference.py); a value outside its tolerance counts as a
failed operation, as a raised error does.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics of a
traced run for --trace 1.  Times are scaled to the reference speed of
calibration.py's kernel, timed throughout the run.  Failure details go to
stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import calibration
import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# setup samples taken before and after the workload; one more unrecorded
# sample first warms the disk cache
SETUP_BEFORE, SETUP_AFTER = 6, 5
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import rmtkernels, rmtkernels.cli; "
    "rmtkernels.cli.build_parser(); print(time.perf_counter() - t0)"
)
# failures are expected only where ROADMAP item 3 documents them
FAILURES_EXPECTED = {"plane"}
TIMEOUT_S = 170
PLANE_FAILURES_PREFIX = "plane failures by (alpha, n): "
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

CAUCHY = "cauchy.cauchy_transform"


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def setup_sample(env):
    """Fresh-interpreter import of rmtkernels plus the CLI parser build, in s
    at the reference speed of the calibration kernel timed just before."""
    factor = calibration.speed([calibration.kernel_ms() for _ in range(10)])
    out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1]) * factor


def run_worker(args, env, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                         timeout=timeout)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"worker failed with exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def evaluate(workload, raw):
    """Check every pass; returns (attempted, failed, correct, per-pass results)."""
    all_passes = [p["ops"] for p in raw["passes"] + raw["traced"]]
    refs = checks.references(workload, all_passes[0])
    check = checks.CHECKS[workload]
    results = [check(ops, refs) for ops in all_passes]
    flags = [[ok for ok, _ in r] for r in results]
    first = results[0]
    failed = sum(not ok for ok, _ in first)
    correct = (
        all(f == flags[0] for f in flags)      # same outcome on every pass
        and not raw["leftover_wrappers"]
        and Path(raw["rmtkernels_file"]).resolve().is_relative_to(SRC)
        and (failed == 0 or workload in FAILURES_EXPECTED)
    )
    if failed:
        errors = sorted({rec["error"] for rec in all_passes[0] if rec["error"]})
        sys.stderr.write(f"{workload}: {failed} of {len(first)} operations failed"
                         f"{'; raised ' + ', '.join(errors) if errors else ''}\n")
        if workload == "plane":
            sys.stderr.write(PLANE_FAILURES_PREFIX
                             + json.dumps(checks.plane_failures(all_passes[0], first)) + "\n")
    return len(first), failed, correct, results


def speed(p):
    """Factor taking one pass's times to the calibration reference speed."""
    return calibration.speed(p["calib_ms"])


def scaled_ops(p):
    """The pass's operation times in reference-speed ms.

    The machine's speed changes within a second, so each operation is scaled
    by the calibration samples around it: the last one before it, those
    taken during it and the first one after.  Where a long call into C code
    held samples back for more than half the operation's time, its own
    samples say little and the pass's are used instead.
    """
    f, calib = speed(p), p["calib_ms"]
    out = []
    for rec in p["ops"]:
        k0, k1 = rec["samples"]
        covered = k1 - k0 + 1 >= 0.5 * rec["ms"] / (calibration.PERIOD_S * 1e3)
        around = calib[max(k0 - 1, 0):k1 + 1]
        out.append(rec["ms"] * (calibration.speed(around) if covered else f))
    return out


def scaled_wall(p):
    ops = scaled_ops(p)
    between = p["wall"] - sum(rec["ms"] for rec in p["ops"]) / 1e3
    return sum(ops) / 1e3 + between * speed(p)


def op_medians(passes):
    """Each operation's median time over the passes, in reference-speed ms."""
    return [statistics.median(v) for v in zip(*(scaled_ops(p) for p in passes))]


def end_to_end(raw, setup_s):
    med = op_medians(raw["passes"])
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(scaled_wall(p) for p in raw["passes"]), "s"),
        "op_p50_ms": (float(np.percentile(med, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(med, 90)), "ms"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }


def per_layer(raw, results):
    traced = raw["traced"]
    counts = traced[0]["counts"]
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = (counts.get(layer + ".calls", 0), "count")
        out[f"{layer}.self_s"] = (statistics.median(
            t["self_s"].get(layer, 0.0) * speed(t) for t in traced), "s")
        if layer in tracing.WORK:
            stat = f"{layer}.{tracing.WORK[layer][0]}"
            out[stat] = (counts.get(stat, 0), "count")
    calls = counts.get(CAUCHY + ".calls", 0)
    out[CAUCHY + ".errors"] = (counts.get(CAUCHY + ".errors", 0), "count")
    # results of the first traced pass, which comes after the untraced ones
    traced_results = results[len(raw["passes"])]
    useful = 0
    for rec, (ok, n_useful) in zip(traced[0]["ops"], traced_results):
        useful += n_useful if n_useful is not None else (rec["cauchy_calls"] if ok else 0)
    out[CAUCHY + ".useful_frac"] = (useful / calls if calls else 0.0, "ratio")
    out["trace.overhead_frac"] = (
        statistics.median(scaled_wall(t) for t in traced)
        / statistics.median(scaled_wall(p) for p in raw["passes"]) - 1.0, "ratio")
    out["calibration.kernel_ms"] = (statistics.median(
        ms for p in raw["passes"] + traced for ms in p["calib_ms"]), "ms")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(checks.CHECKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes (selftest.py); not a benchmark workload")
    args = ap.parse_args()
    # on SIGTERM, subprocess.run kills and waits for the child it is running
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "rmtkernels" / "__init__.py").is_file():
        raise SystemExit(f"no rmtkernels sources under {SRC}; run from a source checkout")
    env = child_env()
    setup = [] if args.trace else [setup_sample(env) for _ in range(SETUP_BEFORE + 1)][1:]
    raw = run_worker(args, env, TIMEOUT_S)
    if not args.trace:
        setup += [setup_sample(env) for _ in range(SETUP_AFTER)]
    setup_s = statistics.median(setup) if setup else None
    attempted, failed, correct, results = evaluate(args.workload, raw)
    metrics = per_layer(raw, results) if args.trace else end_to_end(raw, setup_s)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
