"""Spans and work counts around rmtkernels' public functions.

The package's modules import each other's functions by name, so wrapping a
function means rebinding every module-level reference to it across
``rmtkernels.*``; ``uninstall`` puts every original back.  Spans are kept
in memory as (id, parent id, name, start, end) and only aggregated or
written out after the traced pass.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np

# layer functions that are timed, as "<module>.<function>" under rmtkernels
LAYERS = (
    "quadrature.build_weight_grid",
    "orthopoly.build_recurrence",
    "orthopoly.monic_values_scaled",
    "orthopoly.eval_monic",
    "orthopoly.eval_monic_derivative",
    "cauchy.cauchy_transform",
    "cauchy.cauchy_transform_derivative",
    "finite_kernels.w_kernel",
    "finite_kernels.w_kernel_times_gap",
    "equilibrium.solve_equilibrium",
    "bessel_limits.limit_kernel",
    "universality.normalized_lhs",
    "universality.convergence_study",
    "universality.ratio_convergence_check",
    "oracle.make_joint_density",
    "oracle.average_char_poly",
    "oracle.average_product_pair",
    "oracle.average_ratio",
)


# work counted at the same boundary as the span, from arguments and result:
# layer -> (stat name, count)
WORK = {
    "orthopoly.monic_values_scaled": (
        "point_steps",
        lambda args, result: np.asarray(args[2]).size * max(int(j) for j in args[1])),
    "orthopoly.build_recurrence": (
        "degree_nodes", lambda args, result: (result.max_degree + 1) * result.grid.x.size),
    "quadrature.build_weight_grid": ("nodes", lambda args, result: result.x.size),
}


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rmtkernels" or name.startswith("rmtkernels."))]


class Tracer:
    def __init__(self):
        self.spans = []          # [id, parent, name, start, end]
        self.counts = defaultdict(int)  # "<layer>.<stat>" -> total
        self._stack = [None]
        self._patched = []       # (module, attribute, original)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([sid, self._stack[-1], name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            self.counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                self._close(sid)
            if work is not None:
                stat, count = work
                self.counts[f"{name}.{stat}"] += int(count(args, result))
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def install(self):
        modules = package_modules()
        for name in LAYERS:
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules["rmtkernels." + mod_name], fn_name)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self):
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def self_times(self):
        """Per span name: total duration minus the time its children cover."""
        child = defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            out[name] += (t1 - t0) - child[sid]
        return dict(out)


def leftover_wrappers():
    """Module attributes across rmtkernels that are still tracer wrappers."""
    return [f"{m.__name__}.{attr}" for m in package_modules()
            for attr, value in vars(m).items()
            if getattr(value, "__wrapped_by_tracer__", False)]
