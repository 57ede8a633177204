#!/usr/bin/env python3
"""Regenerate ``reference.json``: the expected outputs of every member any
seed can produce, taken from the program as it is now.

    python3 bench/make_reference.py

Run it only when a change is meant to alter the numbers, and say so with
the change: the gate compares every run against this file.
"""

import contextlib
import json
import os
import sys
import tempfile

import gate
import run
import workloads as wl


def main() -> int:
    items = [m for w in wl.WORKLOADS for m in wl.pool_members(w)]
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as work:
        spec = os.path.join(work, "spec.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"configs": items}, fh)
        code, _, _, stdout = run.spawn(
            ["-m", "mrac", "batch", spec, "--jobs", "1"], work)
    with contextlib.suppress(OSError):
        os.rmdir(run.WORK)
    if code != 0:
        print(f"mrac batch exited with {code}", file=sys.stderr)
        return 1
    members = {row["name"]: {k: row[k] for k in gate.REFERENCE_KEYS}
               for row in json.loads(stdout)}
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"members": members}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(members)} members -> {gate.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
