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
Last comes a ``riding`` digest over runs whose projection acts, which no
pool member's does: four discrete n=3, M=2 indirect members, each firing
on bounds of its own, run alone and as one lockstep group, and a
continuous-time ``indirect_gradient`` and a ``lyapunov_indirect`` member
that ride their bounds. Their horizons are fixed.

    python scripts/fingerprint.py [--horizon N]

``--horizon N`` cuts every pool and command-line run to N steps; by
default each member runs its own horizon. Compare two checkouts by diffing
their outputs.
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

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from mrac import benchmark_config, random_matchable_instance  # noqa: E402
from mrac.cli import main as cli  # noqa: E402
from mrac.errors import ToolkitError  # noqa: E402
from mrac.scenario import (config_from_dict, run_lockstep,  # noqa: E402
                           run_scenario, summary_dict)

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
    try:
        run = run_scenario(config_from_dict(data))
    except ToolkitError as exc:
        run = exc
    return run_digest(run)


def run_digest(run):
    """The digest of a ScenarioRun, or of the ToolkitError in its place."""
    digest = hashlib.sha256()
    if isinstance(run, ToolkitError):
        _add(digest, "error", f"{type(run).__name__}: {run}")
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


def _discrete_rider(seed, k2_upper):
    """An n=3, M=2 discrete indirect member on instance ``seed`` whose
    bound, ``k2_upper`` |k2*|, excludes theta2*, so that its projection
    fires; 300 steps span three 128-row chunks alone and ten 32-row ones
    in a group of four."""
    plant, ref, _, K2 = random_matchable_instance(3, 2, seed, "discrete")
    k2 = np.diag(K2)
    data = benchmark_config().to_dict()
    data.update(
        name=f"rider-s{seed}", scheme="indirect_gradient", horizon=300,
        plant={"A": plant.A.tolist(), "B": plant.B.tolist()},
        reference={"A_m": ref.A_m.tolist(), "B_m": ref.B_m.tolist()},
        signal={"kind": "sum_of_sinusoids", "amplitudes": [[1.0], [0.8]],
                "frequencies": [[0.13], [0.29]]},
        gains={"Gamma": 1.0}, init={"theta_scale": 1.15},
        projection={"signs": np.sign(k2).tolist(),
                    "k2_upper": (k2_upper * np.abs(k2)).tolist()})
    return data


def _ct_riders():
    """A continuous-time ``indirect_gradient`` and a ``lyapunov_indirect``
    member on the plant x' = A x + b u matched to A_m by k1* = [-1.5, -1],
    k2* = 0.5, each started at or just above a bound on theta2 that theta2*
    = 2 reaches or breaks, so that the flow presses onto it."""
    A_m, b_m, b = [[0.0, 1.0], [-2.0, -3.0]], [[0.0], [1.0]], [[0.0], [2.0]]
    A = (np.array(A_m) - np.array(b) @ [[-1.5, -1.0]]).tolist()
    base = {"time_domain": "continuous", "plant": {"A": A, "B": b},
            "reference": {"A_m": A_m, "B_m": b_m}, "ct_step": 0.01,
            "init": {"x0": [1.0, -0.5]}}
    gradient = dict(
        base, name="ct-rider", scheme="indirect_gradient", horizon=600,
        signal={"kind": "sum_of_sinusoids", "amplitudes": [[1.0]],
                "frequencies": [[0.5]]},
        gains={"Gamma": 4.0}, projection={"signs": 1, "k2_upper": 0.5},
        init={"theta0": [[-1.0], [0.2], [2.02]]})
    lyapunov = dict(
        base, name="lyapunov-rider", scheme="lyapunov_indirect",
        horizon=1000, signal={"kind": "sum_of_sinusoids",
                              "amplitudes": [[1.0]], "frequencies": [[0.7]]},
        gains={"Gamma1": 1.0, "Gamma2": 1.0},
        projection={"signs": 1, "k2_upper": 0.45},
        init={"theta0": [[-3.0], [-2.0], [1.0 / 0.45]], "x0": [1.0, -0.5]})
    return [gradient, lyapunov]


def riding_digest():
    """The digest of the riding runs (see the module docstring)."""
    riders = [_discrete_rider(seed, k2_upper) for seed, k2_upper
              in ((0, 0.9), (1, 0.95), (2, 0.88), (3, 0.92))]
    runs = [member_digest(data) for data in riders + _ct_riders()]
    runs += map(run_digest, run_lockstep(
        [config_from_dict(data) for data in riders]))
    return hashlib.sha256("\n".join(runs).encode()).hexdigest()


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
    print(f"{riding_digest()}  riding")
    return 0


if __name__ == "__main__":
    sys.exit(main())
