#!/usr/bin/env python3
"""Digests that show whether two checkouts run byte-identically.

Prints one sha256 per member of the benchmark's input pool
(``bench/workloads.pool_members``), over the member's record arrays, its V
series, ``diverged_at``, ``summary_dict`` and the invariants (or over the
error, when the member does not load or run), then a ``pool`` digest over
those lines, then a ``cli`` digest over the bytes the command line writes:
``mrac example --paper`` with and without ``--two-tone``, ``mrac run`` on
the seed-0 ``paper-run`` input (stdout, trace CSV and ``summary.json``) and
``mrac batch`` on the seed-0 ``mimo-sweep`` and ``ct-schemes`` inputs
(stdout). Outputs go to a temporary directory that is removed afterwards.

    python scripts/fingerprint.py [--horizon N]

``--horizon N`` cuts every run to N steps; by default each member runs its
own horizon. Compare two checkouts by diffing their outputs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

import workloads  # noqa: E402
from mrac.cli import main as cli  # noqa: E402
from mrac.errors import ToolkitError  # noqa: E402
from mrac.scenario import (config_from_dict, run_scenario,  # noqa: E402
                           summary_dict)

RECORDS = ("t", "x", "x_m", "e", "u", "eps", "m", "theta", "rho", "x_hat",
           "V", "dV", "proj_fired", "proj_g2", "proj_f2")
SERIES = ("V", "dV", "decrement", "gamma0")


def _add(digest, name, value):
    """Feed ``name`` and ``value`` (an array, by dtype, shape and bytes, or
    anything else by its repr) to ``digest``."""
    if hasattr(value, "tobytes"):
        digest.update(f"{name}:{value.dtype}:{value.shape}:".encode())
        digest.update(value.tobytes())
    else:
        digest.update(f"{name}:{value!r};".encode())


def member_digest(data):
    digest = hashlib.sha256()
    try:
        run = run_scenario(config_from_dict(data))
    except ToolkitError as exc:
        _add(digest, "error", f"{type(exc).__name__}: {exc}")
        return digest.hexdigest()
    trace = run.trace
    for name in RECORDS:
        _add(digest, name, getattr(trace, name))
    if trace.series is not None:
        for name in SERIES:
            _add(digest, "series." + name, getattr(trace.series, name))
    _add(digest, "rest", json.dumps(
        {"diverged_at": trace.diverged_at, "summary": summary_dict(run),
         "invariants": run.invariants}, sort_keys=True))
    return digest.hexdigest()


def _cut(data, horizon):
    return data if horizon is None else dict(data, horizon=horizon)


def _inputs(workload, directory, horizon):
    """The seed-0 input file of ``workload`` in ``directory``, every run cut
    to ``horizon`` steps when it is given."""
    path = workloads.write_inputs(workload, 0, directory)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc = ({"configs": [_cut(d, horizon) for d in doc["configs"]]}
           if "configs" in doc else _cut(doc, horizon))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def cli_digest(horizon):
    digest = hashlib.sha256()

    def call(label, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli(list(argv))
        _add(digest, label, (status, out.getvalue(), err.getvalue()))

    with tempfile.TemporaryDirectory() as work:
        call("example", "example", "--paper")
        call("two-tone", "example", "--paper", "--two-tone")
        out = os.path.join(work, "out")
        paper = _inputs("paper-run", os.path.join(work, "paper"), horizon)
        call("paper-run", "run", paper, "--out", out)
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                _add(digest, name, fh.read())
        for workload in ("mimo-sweep", "ct-schemes"):
            call(workload, "batch",
                 _inputs(workload, os.path.join(work, workload), horizon))
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--horizon", type=int, default=None,
                        help="cut every run to this many steps")
    args = parser.parse_args(argv)
    pool = hashlib.sha256()
    for workload in workloads.WORKLOADS:
        for data in workloads.pool_members(workload):
            line = (f"{member_digest(_cut(data, args.horizon))}  "
                    f"{workload}/{data['name']}")
            pool.update(line.encode() + b"\n")
            print(line)
    print(f"{pool.hexdigest()}  pool")
    print(f"{cli_digest(args.horizon)}  cli")
    return 0


if __name__ == "__main__":
    sys.exit(main())
