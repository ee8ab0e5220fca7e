"""Per-workload output checks against the references in reference.py.

Each checker takes one pass's operation records and returns, per operation,
(passed, useful): ``useful`` counts the operation's cauchy_transform returns
that met their reference, or is None where only the operation as a whole
is checked.  A raised error fails its operation like a wrong value does.
"""

from __future__ import annotations

import reference


def _log(pair) -> complex:
    return complex(pair[0], pair[1])


def check_study(ops, refs=None):
    out = []
    for rec in ops:
        r = rec["out"]
        if rec["error"] is not None:
            ok = False
        elif "passed" in r:
            ok = r["passed"] is True
        else:
            # the ratio identity is exactly 1 at every n
            ok = all(abs(complex(*v) - 1.0) < 1e-8 for v in r["values"])
        out.append((ok, None))
    return out


def check_oracle(ops, refs=None):
    out = []
    for rec in ops:
        ok = rec["error"] is None
        if ok:
            m = rec["meta"]
            got, rec_val = _log(rec["out"]["oracle"]), _log(rec["out"]["recurrence"])
            want = reference.monic_log(m["alpha"], m["n"], m["n"], m["x"])
            ok = (reference.rel_err_log(got, rec_val) < reference.REL_TOL
                  and reference.rel_err_log(rec_val, want) < reference.REL_TOL)
        out.append((ok, None))
    return out


def plane_refs(ops):
    """One PlaneReference per (alpha, n), over the z of that group's ops."""
    groups = {}
    for rec in ops:
        m = rec["meta"]
        groups.setdefault((m["alpha"], m["n"]), []).append(complex(*m["z"]))
    return {key: reference.PlaneReference(key[0], key[1], zs) for key, zs in groups.items()}


def check_plane(ops, refs):
    out = []
    seen = {}
    for rec in ops:
        m = rec["meta"]
        key = (m["alpha"], m["n"])
        i = seen.get(key, 0)
        seen[key] = i + 1
        got = [_log(v) if isinstance(v, list) else None for v in rec["out"]["h"]]
        flags = refs[key].check(i, got)
        out.append((all(flags), sum(flags)))
    return out


def plane_failures(ops, results):
    """Failed operations per (alpha, n), split into raised and silently wrong."""
    table = {}
    for rec, (ok, _) in zip(ops, results):
        m = rec["meta"]
        row = table.setdefault(f"alpha={m['alpha']} n={m['n']}",
                               {"ops": 0, "raised": 0, "wrong": 0})
        row["ops"] += 1
        if not ok:
            raised = any(not isinstance(v, list) for v in rec["out"]["h"])
            row["raised" if raised else "wrong"] += 1
    return table


CHECKS = {"study": check_study, "plane": check_plane, "oracle": check_oracle}


def references(workload, ops):
    return plane_refs(ops) if workload == "plane" else None
