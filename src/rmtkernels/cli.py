"""Command-line front end.

Exit codes: 0 success / all checks passed, 2 a numerical tolerance was not
met, 1 usage or configuration error, 141 the reader of standard output
closed it early and the rest of the output was dropped (128 + SIGPIPE, what
a shell reports for a writer that a closed pipe killed).  The parser types
and checks every flag before a command runs, and each failure but 141
prints one ``error: ...`` line on stderr; a Cauchy transform at a subnormal
Im z is an input error, exit 1.  A JSON config file can preload any flag;
explicit command-line flags win.  All emitted numbers use 17 significant
digits so reruns are byte-comparable.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import operator
import os
import sys

import numpy as np

from . import specfun
from .bessel_limits import LimitKernelId, limit_kernel
from .cauchy import CauchyConvergenceError, CauchyDomainError, cauchy_transform
from .equilibrium import EquilibriumError, solve_equilibrium, variational_residuals
from .finite_kernels import KernelFamily, w_kernel
from .oracle import (
    OracleError,
    average_char_poly,
    average_inverse_pair,
    average_product_pair,
    average_ratio,
    make_joint_density,
)
from .orthopoly import (
    DegreeError,
    PotentialSpec,
    PrecisionError,
    RecurrenceTable,
    WeightDomainError,
    WeightSpec,
    build_recurrence,
    eval_monic,
)
from .parametrix import PsiSector, SectorError, check_gamma2_jump, psi_alpha
from .scaled import ScaledComplex
from .specfun import SpecfunDomainError
from .universality import (
    ScaleCancellationError,
    Theorem,
    TheoremCase,
    check_sizes,
    convergence_study,
    ratio_convergence_check,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOLERANCE = 2
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.exit(EXIT_USAGE, f"error: {message}\n")


class UsageError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_c(z: complex) -> str:
    return f"{_fmt(z.real)} {'+' if z.imag >= 0 else '-'} {_fmt(abs(z.imag))}i"


def _potential(text: str) -> PotentialSpec:
    try:
        return PotentialSpec(tuple(float(v) for v in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid potential {text!r}: {exc}") from exc


def _complex(text: str) -> complex:
    try:
        re, im = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a complex value 're,im'") from exc
    if not (math.isfinite(re) and math.isfinite(im)):
        raise argparse.ArgumentTypeError(f"non-finite complex value {text!r}")
    return complex(re, im)


def _points(text: str) -> tuple:
    return tuple(_complex(s) for s in text.split(";")) if text else ()


def _sizes(text: str) -> tuple:
    try:
        n_list = tuple(int(v) for v in text.split(","))
        check_sizes(n_list, 1)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid size list {text!r}: {exc}") from exc
    return n_list


def _print_scaled(label: str, v: ScaledComplex):
    print(f"{label}: mantissa = {_fmt_c(v.mantissa)}, log_scale = {_fmt(v.log_scale)}")


def _table_to_json(t: RecurrenceTable) -> dict:
    return {
        "alpha": t.weight.alpha,
        "n": t.weight.n,
        "coeffs": list(t.weight.potential.coeffs),
        "max_degree": t.max_degree,
        "a": [float(v) for v in t.a],
        "b": [float(v) for v in t.b],
        "log_norm_sq": [float(v) for v in t.log_norm_sq],
        "orthogonality_residual": t.orthogonality_residual,
    }


def _load_table(path: str) -> RecurrenceTable:
    """Rebuild the table from the stored weight; verify against stored data."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        w = WeightSpec(doc["alpha"], doc["n"], PotentialSpec(tuple(doc["coeffs"])))
        max_degree = operator.index(doc["max_degree"])
        arrays = {key: np.asarray(doc[key], dtype=float) for key in ("a", "b", "log_norm_sq")}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"cannot read table file {path}: {type(exc).__name__}: {exc}") from exc
    t = build_recurrence(w, max_degree)
    for key, stored in arrays.items():
        rebuilt = getattr(t, key)
        # "not <=": a nan entry fails the comparison, as a wrong one does
        if stored.shape != rebuilt.shape or \
                not np.max(np.abs(stored - rebuilt)) <= 1e-9 * (1 + np.max(np.abs(stored))):
            raise UsageError(f"table file {path}: stored {key} does not match a rebuilt table")
    return t


def _write(path: str, text: str):
    """Writes ``text`` to ``path``; a path that cannot be written is a UsageError."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(path: str):
    """The UsageError of :func:`_write` for a ``path`` that is a directory or whose
    directory is missing or read-only, found without creating or truncating the file."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = errno.EISDIR
    elif not os.path.isdir(folder):
        reason = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        reason = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {path}: {os.strerror(reason)}")


def _cmd_recurrence(args) -> int:
    t = build_recurrence(WeightSpec(args.alpha, args.n, args.potential), args.max_degree)
    doc = _table_to_json(t)
    if args.out:
        _write(args.out, json.dumps(doc, indent=1))
        print(f"wrote {args.out}")
    else:
        json.dump(doc, sys.stdout, indent=1)
        print()
    print(f"orthogonality residual: {_fmt(t.orthogonality_residual)}")
    return EXIT_OK


def _cmd_cauchy(args) -> int:
    v = cauchy_transform(_load_table(args.table), args.j, args.z)
    _print_scaled(f"h_{args.j}({_fmt_c(args.z)})", v)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    t = _load_table(args.table)
    v = w_kernel(KernelFamily(args.family), t, args.m, args.zeta, args.eta)
    _print_scaled(f"W_{args.family},{t.weight.n}+{args.m}", v)
    return EXIT_OK


def _cmd_limit_kernel(args) -> int:
    v = limit_kernel(LimitKernelId(args.kernel), args.alpha, args.zeta, args.eta)
    print(f"J_{{{_fmt(args.alpha)},{args.kernel}}}({_fmt_c(args.zeta)}, {_fmt_c(args.eta)}) = "
          f"{_fmt_c(v)}")
    return EXIT_OK


def _cmd_equilibrium(args) -> int:
    eq = solve_equilibrium(args.potential)
    grid = list(np.linspace(eq.b0 * 0.95, eq.a1 * 0.95, 10)) + \
        [eq.b0 - 0.5, eq.a1 + 0.5, eq.b0 - 2.0, eq.a1 + 2.0]
    rep = variational_residuals(eq, args.potential, grid)
    doc = {
        "b0": eq.b0,
        "a1": eq.a1,
        "psi0": eq.psi0,
        "ell": eq.ell,
        "cheb_coeffs": [float(v) for v in eq.cheb_coeffs],
        "residual_summary": {
            "max_inside_residual": rep.max_inside_residual,
            "min_outside_margin": rep.min_outside_margin,
        },
    }
    text = json.dumps(doc, indent=1)
    if args.report:
        _write(args.report, text + "\n")
        print(f"wrote {args.report}")
    else:
        print(text)
    ok = rep.max_inside_residual < 1e-6 and rep.min_outside_margin > -1e-8
    print(f"variational check: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_TOLERANCE


def _cmd_universality(args) -> int:
    try:
        case = TheoremCase(theorem=Theorem(args.case), alpha=args.alpha,
                           potential=args.potential, m=args.m, n_list=args.n)
    except ValueError as exc:
        raise UsageError(f"invalid --n: {exc}") from exc
    if args.out:  # before the study, which can take seconds
        _check_writable(args.out)
    rep = convergence_study(case)
    if args.out:
        lines = ["n,zeta_re,zeta_im,eta_re,eta_im,lhs_re,lhs_im,limit_re,limit_im,abs_err"]
        for n, zeta, eta, lhs, tgt, err in rep.records:
            row = [n, zeta.real, zeta.imag, eta.real, eta.imag,
                   lhs.real, lhs.imag, tgt.real, tgt.imag, err]
            lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
        _write(args.out, "\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    summary = {
        "case": args.case,
        "alpha": args.alpha,
        "m": args.m,
        "n_list": rep.n_list,
        "sup_errors": [float(e) for e in rep.errors],
        "slope": rep.slope,
        "decay_ratio": rep.decay_ratio,
        "pass": rep.passed,
    }
    print(json.dumps(summary, indent=1))
    return EXIT_OK if rep.passed else EXIT_TOLERANCE


def _cmd_oracle(args) -> int:
    if args.check == "inverse" and args.n != 3:
        raise UsageError("--check inverse requires --n 3")
    w = WeightSpec(args.alpha, args.n, args.potential)
    d = make_joint_density(w)
    t = build_recurrence(w, args.n + 2)

    def done(label, lhs, rhs, tol):
        lhs, rhs = lhs.to_complex(), rhs.to_complex()
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        ok = rel < tol
        print(f"{label}: lhs = {_fmt_c(lhs)}, rhs = {_fmt_c(rhs)}, "
              f"rel err = {_fmt(rel)} -> {'PASS' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_TOLERANCE

    if args.check == "heine":
        x = (args.points + (complex(0.7, 0.0),))[0]
        return done("heine", average_char_poly(d, x), eval_monic(t, args.n, x), 1e-6)
    if args.check == "product":
        x, y = (args.points + (complex(0.5), complex(-0.4)))[:2]
        rhs = w_kernel(KernelFamily.I, t, 1, x, y)
        return done("product", average_product_pair(d, x, y), rhs, 1e-5)
    if args.check == "ratio":
        x, y = (args.points + (complex(0.2, 0.4), complex(0.1)))[:2]
        rhs = ScaledComplex.from_parts(2j * math.pi * (x - y), t.log_gamma_sq(args.n - 1)) \
            * w_kernel(KernelFamily.II, t, 0, x, y)
        return done("ratio", average_ratio(d, x, y), rhs, 1e-5)
    x1, x2 = (args.points + (complex(0.3, 0.5), complex(-0.2, 0.5)))[:2]
    # -c1 c2 (W(x1, x2) + W(x2, x1)) / 2 with c_k = -2 pi i gamma_k^2; W_III is
    # symmetric, so that is 4 pi^2 gamma_1^2 gamma_2^2 W(x1, x2)
    rhs = ScaledComplex.from_parts(4 * math.pi ** 2, t.log_gamma_sq(1) + t.log_gamma_sq(2)) \
        * w_kernel(KernelFamily.III, t, -1, x1, x2)
    return done("inverse", average_inverse_pair(d, x1, x2), rhs, 1e-4)


def _cmd_ratio_check(args) -> int:
    rep = ratio_convergence_check(args.alpha, args.potential, args.zeta, args.n)
    for n, val, err in zip(rep.n_list, rep.values, rep.errors):
        print(f"n = {n}: value = {_fmt_c(val)}, |value - 1| = {_fmt(err)}")
    print(f"{'PASS' if rep.passed else 'FAIL'}")
    return EXIT_OK if rep.passed else EXIT_TOLERANCE


def _cmd_parametrix(args) -> int:
    m = psi_alpha(args.alpha, args.zeta, PsiSector(args.sector))
    for i in range(2):
        print("  ".join(_fmt_c(m[i, j]) for j in range(2)))
    return EXIT_OK


def _cmd_parametrix_jump_test(args) -> int:
    worst = 0.0
    for alpha in (0.0, 0.3, 1.2):
        res = check_gamma2_jump(alpha)
        worst = max(worst, res.max_residual)
        print(f"alpha = {_fmt(alpha)}: max jump residual = {_fmt(res.max_residual)}")
    ok = worst < 1e-10
    print(f"{'PASS' if ok else 'FAIL'} (threshold 1e-10)")
    return EXIT_OK if ok else EXIT_TOLERANCE


def _cmd_specfun_selftest(args) -> int:
    rows = specfun.selftest_rows()
    worst = max(r[3] for r in rows)
    by_identity = {}
    for name, alpha, z, resid in rows:
        key = (name, alpha)
        by_identity[key] = max(by_identity.get(key, 0.0), resid)
    for (name, alpha), resid in sorted(by_identity.items()):
        print(f"{name} alpha={_fmt(alpha)}: max residual {_fmt(resid)}")
    ok = worst < 1e-10
    print(f"{'PASS' if ok else 'FAIL'} (worst {_fmt(worst)}, threshold 1e-10)")
    return EXIT_OK if ok else EXIT_TOLERANCE


# Each flag once: its argparse settings, and with "flag" a long name other
# than its key.  A flag with no default is required.
_FLAGS = {
    "alpha": dict(type=float),
    "potential": dict(type=_potential),
    "n": dict(type=int),
    "sizes": dict(flag="n", type=_sizes, default="8,16,32,64"),
    "max-degree": dict(type=int),
    "out": dict(default=None),
    "report": dict(default=None),
    "table": dict(),
    "j": dict(type=int),
    "m": dict(type=int, default=0),
    "z": dict(type=_complex),
    "zeta": dict(type=_complex),
    "eta": dict(type=_complex),
    "family": dict(choices=[f.value for f in KernelFamily]),
    "kernel": dict(choices=[k.value for k in LimitKernelId]),
    "case": dict(choices=[t.value for t in Theorem]),
    "check": dict(choices=["heine", "product", "ratio", "inverse"]),
    "points": dict(type=_points, default="", help="semicolon-separated 're,im' pairs"),
    "sector": dict(type=int, choices=[1, 2]),
}

# Each subcommand: its function and its flags' keys, "key=value" for a default of its own.
_COMMANDS = {
    "recurrence": (_cmd_recurrence, "alpha potential n max-degree out"),
    "cauchy": (_cmd_cauchy, "table j z"),
    "kernel": (_cmd_kernel, "family table m zeta eta"),
    "limit-kernel": (_cmd_limit_kernel, "kernel alpha zeta eta"),
    "equilibrium": (_cmd_equilibrium, "potential report"),
    "universality": (_cmd_universality, "case alpha potential m sizes out"),
    "ratio-check": (_cmd_ratio_check, "alpha potential zeta=0.5,0.5 sizes"),
    "oracle": (_cmd_oracle, "check n alpha potential points"),
    "parametrix": (_cmd_parametrix, "alpha zeta sector"),
    "parametrix-jump-test": (_cmd_parametrix_jump_test, ""),
    "specfun-selftest": (_cmd_specfun_selftest, ""),
}


def build_parser(config: dict | None = None) -> _Parser:
    """The parser, whose flags named in ``config`` take the values there as defaults.

    A config key is a long flag name without dashes.  One that no subcommand
    takes, or a value outside its flag's choices, is a UsageError; one that
    only another subcommand takes does nothing.
    """
    config = config or {}
    unknown = set(config) - {spec.get("flag", key) for key, spec in _FLAGS.items()}
    if unknown:
        raise UsageError(f"unknown config key {sorted(unknown)[0]!r}")
    p = _Parser(prog="rmtkernels")
    p.add_argument("--config", help="JSON file preloading flag values")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, keys) in _COMMANDS.items():
        sp = sub.add_parser(command)
        for item in keys.split():
            key, own, default = item.partition("=")
            spec = dict(_FLAGS[key], **({"default": default} if own else {}))
            name = spec.pop("flag", key)
            if name in config:
                value = str(config[name])  # argparse applies the flag's type to a str default
                if "choices" in spec and value not in map(str, spec["choices"]):
                    raise UsageError(f"config key {name!r}: {value} not in {spec['choices']}")
                spec["default"] = value
            sp.add_argument(f"--{name}", required="default" not in spec, **spec)
    return p


def _read_config(argv) -> dict | None:
    """The JSON object in the --config file of ``argv``, None without one; --config
    is read as the top-level parser reads it, abbreviations included."""
    pre = _Parser(prog="rmtkernels", add_help=False)
    pre.add_argument("--config")
    # the subcommand and its flags, so that one of them (--c for --check) is
    # not taken for an abbreviated --config
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return None
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("config must be a JSON object")
    return doc


def main(argv=None) -> int:
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # a reader that closed early shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # what is still buffered would fail again when the interpreter flushes stdout at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


def _dispatch(argv) -> int:
    try:
        args = build_parser(_read_config(argv)).parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except (UsageError, DegreeError, CauchyDomainError, WeightDomainError,
            SpecfunDomainError, SectorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CauchyConvergenceError, PrecisionError, EquilibriumError,
            OracleError, ScaleCancellationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except SystemExit as exc:
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
