#!/usr/bin/env python3
"""Which lines of the ``mrac`` package a run executes.

Runs ``mrac run`` in-process on every member of the benchmark's input pool
(``bench/workloads.pool_members``), then ``mrac batch`` on the whole pool of
each batch workload, every run cut to 50 steps, under a ``sys.settrace``
line tracer, and prints the executable lines each module of ``src/mrac``
reached. The batch leg reaches the lockstep groups: the ``mimo-sweep`` pool
steps as two groups of 32 same-shape members. Outputs go to a temporary
directory that is removed afterwards.

    python scripts/reach.py

Exits 1 when a run or a batch exits nonzero, or when a module other than
``__main__.py`` (which an in-process run never executes) reaches no line:
such a module ships code that no run uses.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402

HORIZON = 50
# the workloads whose input is a batch spec
BATCH_WORKLOADS = ("mimo-sweep", "ct-schemes")


def executable_lines(path):
    """Line numbers of the instructions compiled from ``path``."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, types.CodeType))
    return lines


def run_pool(out_dir, reached):
    """Run every pool member alone and every batch workload's pool as one
    batch, recording the package lines each executes in ``reached`` (path
    -> set of lines); returns the runs that exited nonzero."""
    from_files = set(reached)

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename in from_files:
            reached[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    failed = []

    def call(label, command, doc):
        path = os.path.join(out_dir, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            status = main([command, path, "--out", out_dir])
        if status != 0:
            failed.append(f"{label}: exit {status}")

    sys.settrace(on_call)
    try:
        from mrac.cli import main
        for workload in workloads.WORKLOADS:
            pool = [dict(data, horizon=HORIZON)
                    for data in workloads.pool_members(workload)]
            for data in pool:
                call(f"{workload}/{data['name']}", "run", data)
            if workload in BATCH_WORKLOADS:
                call(f"{workload} batch", "batch", {"configs": pool})
    finally:
        sys.settrace(None)
    return failed


def main():
    package = os.path.dirname(importlib.util.find_spec("mrac").origin)
    modules = sorted(name for name in os.listdir(package)
                     if name.endswith(".py"))
    paths = {name: os.path.join(package, name) for name in modules}
    reached = {path: set() for path in paths.values()}
    with tempfile.TemporaryDirectory() as out_dir:
        failed = run_pool(out_dir, reached)
    total_hit = total_lines = 0
    idle = []
    print(f"{'module':<16} {'reached':>8} {'lines':>6}")
    for name in modules:
        lines = executable_lines(paths[name])
        hit = len(reached[paths[name]] & lines)
        total_hit, total_lines = total_hit + hit, total_lines + len(lines)
        print(f"{name:<16} {hit:>8} {len(lines):>6}")
        if hit == 0 and name != "__main__.py":
            idle.append(name)
    print(f"{'total':<16} {total_hit:>8} {total_lines:>6}")
    for line in failed:
        print(f"run failed: {line}", file=sys.stderr)
    for name in idle:
        print(f"no run reaches {name}", file=sys.stderr)
    return 1 if failed or idle else 0


if __name__ == "__main__":
    sys.exit(main())
