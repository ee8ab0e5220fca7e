"""Runs one workload as a closed loop in this process; prints raw results.

run.py starts this in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/, so peak RSS is the workload's own.  Each pass starts from
empty rmtkernels caches, as a fresh CLI or test process would; passes repeat
while the next one still fits in --seconds (at least one runs).  The
calibration kernel is timed every 0.1 s during each pass (calibration.py).
With --trace 1 every traced pass is paired with an untraced one, and the
tracer is removed again before the results are printed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import time
from pathlib import Path

import calibration
import tracing
import workloads

CAUCHY_CALLS = "cauchy.cauchy_transform.calls"


def clear_caches():
    for m in tracing.package_modules():
        for value in list(vars(m).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def one_pass(wl, seed, tiny, tracer=None):
    """Runs one pass; returns its wall time, operation records and the
    calibration kernel's times, with the sampling taken out of both."""
    ops = []
    with calibration.Sampler() as sampler:
        def op(meta, fn):
            calls0 = tracer.counts[CAUCHY_CALLS] if tracer else 0
            span = tracer.span("op") if tracer else contextlib.nullcontext()
            k0 = len(sampler.samples)
            t0 = time.perf_counter()
            with span:
                try:
                    out, err = fn(), None
                except Exception as exc:  # a raised error is a failed operation
                    out, err = None, type(exc).__name__
            ms = (time.perf_counter() - t0 - sampler.busy_s(k0)) * 1e3
            # calibration samples taken during the operation: [k0, k1)
            rec = {"meta": meta, "out": out, "error": err, "ms": ms,
                   "samples": [k0, len(sampler.samples)]}
            if tracer:
                rec["cauchy_calls"] = tracer.counts[CAUCHY_CALLS] - calls0
            ops.append(rec)

        clear_caches()
        k0 = len(sampler.samples)
        t0 = time.perf_counter()
        wl(seed, tiny, op)
        wall = time.perf_counter() - t0 - sampler.busy_s(k0)
    sampler.sample()  # so that even a pass shorter than the period has one
    return {"wall": wall, "ops": ops, "calib_ms": sampler.kernel_times()}


def peak_rss_mb():
    """VmHWM of this process image.  ru_maxrss is not used: Linux carries it
    across exec, so it would include the launching process's memory."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def traced_pass(wl, seed, tiny, spans_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = one_pass(wl, seed, tiny, tracer)
    finally:
        tracer.uninstall()
    if spans_path is not None:
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps(tracer.spans))
    return {**result, "counts": dict(tracer.counts), "self_s": tracer.self_times()}


def run(name, seed, seconds, trace, tiny):
    wl = workloads.WORKLOADS[name]
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(one_pass(wl, seed, tiny))
        if trace:
            spans = None if traced else Path(__file__).parent / "out" / f"spans-{name}.json"
            traced.append(traced_pass(wl, seed, tiny, spans))
        per_round = statistics.median(p["wall"] for p in untraced)
        if trace:
            per_round += statistics.median(t["wall"] for t in traced)
        if time.perf_counter() - start + per_round > seconds:
            break
    return {
        "passes": untraced,
        "traced": traced,
        "peak_rss_mb": peak_rss_mb(),
        "leftover_wrappers": tracing.leftover_wrappers(),
        "rmtkernels_file": sys.modules["rmtkernels"].__file__,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true")
    a = ap.parse_args()
    print(json.dumps(run(a.workload, a.seed, a.seconds, a.trace, a.tiny)))


if __name__ == "__main__":
    main()
