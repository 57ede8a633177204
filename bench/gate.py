"""Correctness gate: the checks every workload invocation must pass.

A member fails when its exit code is unexpected, its batch row is not
``ok``, an invariant is false, or ``sup_e``/``final_V``/``sum_eps2_over_m2``
differ from ``reference.json``. Failures carry ``known=True`` only for the
documented continuous-time gradient false positive on the three members it
is known to hit (see ``is_known_defect``); those count as failed but do not
fail the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")
REFERENCE_KEYS = ("sup_e", "final_V", "sum_eps2_over_m2")
REL_TOL = 1e-9
# final_V reaches 1e-31 on converged members, where theta - theta* is at the
# rounding floor; below this magnitude only the absolute error is meaningful
ABS_TOL = 1e-20

KNOWN_DEFECT_NOTE = (
    "continuous-time gradient members report delta_v_ok=false (exit_status "
    "3) although V never increases: scenario._invariant_report applies the "
    "discrete per-step dV bound with factor (2 - gamma0) to CT runs; they "
    "count as failed")


@dataclass(frozen=True)
class Failure:
    member: str
    reason: str
    known: bool = False


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)["members"]


def values_match(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return got == want


def is_known_defect(row: dict) -> bool:
    """The CT gradient invariant false positive: one of the members it is
    known to hit, whose only false invariant is delta_v_ok and which reports
    exit_status 3. The single-input CT direct_gradient member passes (its
    gamma0 = 2 makes the bound dV <= 0), so a failure there is a real one."""
    false = [k for k, v in row.get("invariants", {}).items() if v is False]
    name = row.get("name", "")
    return ((name == "ct-indirect_gradient" or name.startswith("ct-mimo-"))
            and row.get("time_domain") == "continuous"
            and row.get("scheme") in ("direct_gradient", "indirect_gradient")
            and false == ["delta_v_ok"] and row.get("exit_status") == 3)


def check_row(row: dict, member: dict, reference: dict,
              batch: bool) -> list[Failure]:
    name = member["name"]
    if row.get("name") != name:
        return [Failure(name, f"row is for {row.get('name')!r}")]
    if batch and row.get("status") != "ok":
        return [Failure(name, f"status {row.get('status')!r}")]
    out = []
    if row.get("steps") != member["horizon"] + 1 or row.get("diverged"):
        out.append(Failure(name, f"steps {row.get('steps')}, "
                                 f"diverged {row.get('diverged')}"))
    ref = reference.get(name)
    if ref is None:
        out.append(Failure(name, "no reference values"))
    else:
        for key in REFERENCE_KEYS:
            if not values_match(row.get(key), ref[key]):
                out.append(Failure(name, f"{key} {row.get(key)!r} != "
                                         f"reference {ref[key]!r}"))
    false = sorted(k for k, v in row.get("invariants", {}).items()
                   if v is False)
    if false or row.get("exit_status") != 0:
        out.append(Failure(name, f"exit_status {row.get('exit_status')}, "
                                 f"false invariants {false}",
                           known=is_known_defect(row)))
    return out


def check_rows(rows, members: list[dict], reference: dict,
               batch: bool) -> list[Failure]:
    if not isinstance(rows, list) or len(rows) != len(members):
        return [Failure(m["name"], "missing from the output") for m in members]
    out = []
    for row, member in zip(rows, members):
        out += check_row(row, member, reference, batch)
    return out


def check_trace(path: str, header: str, rows: int):
    """(problems, sha256, byte count) for one trace CSV."""
    problems = []
    digest = hashlib.sha256()
    count = 0
    size = 0
    first = None
    with open(path, "rb") as fh:
        for line in fh:
            digest.update(line)
            size += len(line)
            if first is None:
                first = line
            else:
                count += 1
    if first is None or first.decode("utf-8").rstrip("\n") != header:
        problems.append(f"trace header {first!r} != {header!r}")
    if count != rows:
        problems.append(f"trace has {count} rows, expected {rows}")
    return problems, digest.hexdigest(), size
