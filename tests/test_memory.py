"""What a run holds: the preflight estimate bounds the memory a run grows
by per step, a run's peak is little more than the trace it returns, and
the work done a block of rows at a time gives the bytes of one block."""

import json
import os
import tracemalloc

import numpy as np
import pytest

import mrac._rows
import mrac.cli
from mrac.cli import write_trace_csv
from mrac.scenario import (benchmark_config, config_from_dict,
                           memory_estimate, run_scenario, summary_dict)
from test_scenario_cli import SCHEME_CASES, THETA0, mimo_dict

THREE_TONES = {"kind": "sum_of_sinusoids", "amplitudes": [[1.0, 0.8, 0.6]],
               "frequencies": [[0.13, 0.79, 1.9]]}


def _lyapunov_mimo(scheme):
    if scheme == "lyapunov_direct":
        data = mimo_dict("direct_gradient", "continuous")
        k2 = np.array(data["gains"]["sign_k2"])
        gains = {"S_p": np.diag(k2 * [1.0, 2.0]).tolist()}
    else:
        data = mimo_dict("indirect_gradient", "continuous")
        gains = {"Gamma1": 1.0, "Gamma2": 1.0}
    data.update(scheme=scheme, gains=gains)
    return data


def _cases():
    """Every scheme in every time domain it runs in, at n=2, M=1 and n=3,
    M=2; the first member samples a three-tone signal."""
    cases = {f"{name}-n2": json.loads(json.dumps(data))
             for name, data in SCHEME_CASES.items()}
    cases["direct-discrete-n2"]["signal"] = THREE_TONES
    for scheme in ("direct_gradient", "indirect_gradient"):
        for domain in ("discrete", "continuous"):
            cases[f"{scheme}-{domain}-n3"] = mimo_dict(scheme, domain)
    for scheme in ("lyapunov_direct", "lyapunov_indirect"):
        cases[f"{scheme}-n3"] = _lyapunov_mimo(scheme)
    return cases


CASES = _cases()


def _traced_peak(data, horizon, directory):
    """The tracemalloc peak of running ``data`` for ``horizon`` steps,
    summarizing the run and writing its trace, with the run."""
    cfg = config_from_dict(dict(data, horizon=horizon))
    tracemalloc.start()
    try:
        run = run_scenario(cfg)
        summary_dict(run)
        write_trace_csv(run.trace, os.path.join(directory, "trace.csv"))
        return tracemalloc.get_traced_memory()[1], run
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", sorted(CASES))
def test_estimate_bounds_the_growth_per_step(case, tmp_path, monkeypatch):
    # the rows a run keeps in flight (the row buffer with its views, the
    # blocks of the reductions, the writer's chunk) are a fixed number,
    # cut here so that a few hundred steps outweigh them and show what a
    # step adds at the run's peak
    monkeypatch.setattr(mrac._rows, "CHUNK", 2)
    monkeypatch.setattr(mrac._rows, "BLOCK", 4)
    monkeypatch.setattr(mrac.cli, "TRACE_CHUNK", 2)
    data = CASES[case]
    # the first run imports the scheme's module and compiles the writer
    _traced_peak(data, 20, tmp_path)
    short, _ = _traced_peak(data, 150, tmp_path)
    long, run = _traced_peak(data, 300, tmp_path)
    assert not run.trace.diverged
    n, M = run.trace.x.shape[1], run.trace.u.shape[1]
    per_step = memory_estimate(0, n, M, run.config.time_domain)
    assert (long - short) / 150 <= per_step


def _held(trace) -> int:
    """Bytes of the arrays ``trace`` and its V series hold, each base array
    counted once."""
    bases = {}
    for value in (*trace, *(trace.series or ())):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            bases[id(value)] = value.nbytes
    return sum(bases.values())


def test_a_run_peaks_near_what_it_returns():
    # a long run's temporaries are the size of a block of rows, not of the
    # horizon: the peak of the run and its summary stays within 1.3 times
    # the run's own arrays (1.57 times when both made full-horizon copies)
    data = benchmark_config().to_dict()
    data["horizon"] = 20000
    cfg = config_from_dict(data)
    run_scenario(cfg._replace(horizon=20))
    tracemalloc.start()
    try:
        run = run_scenario(cfg)
        summary_dict(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = _held(run.trace)
    assert held >= 20001 * 8 * 12  # the records alone
    assert peak <= 1.3 * held


def _arrays(run):
    """Every array of ``run``'s trace and series, by name, and its summary
    and invariants."""
    trace = run.trace
    arrays = {name: value for name, value in trace._asdict().items()
              if isinstance(value, np.ndarray)}
    if trace.series is not None:
        arrays.update(("series." + name, value) for name, value
                      in trace.series._asdict().items()
                      if isinstance(value, np.ndarray))
    return arrays, summary_dict(run), run.invariants


def _unmatchable(case):
    """``case`` on a plant no gain matches, which runs without a V
    series."""
    data = json.loads(json.dumps(SCHEME_CASES[case]))
    data["plant"].update(A=[[0.0, 0.0], [0.0, 0.0]], B=[[1.0], [0.0]])
    data["reference"]["B_m"] = [[1.0], [0.0]]
    data["init"] = {"theta0": THETA0}
    return data


@pytest.mark.parametrize("case", sorted(CASES) + [
    "unmatchable-direct", "unmatchable-indirect"])
def test_blocks_of_rows_give_the_bytes_of_one(case, monkeypatch):
    # 7-row blocks, the last of 8 rows when one would be left alone,
    # against one block of the whole run
    data = (_unmatchable(case.split("-")[1] + "-discrete")
            if case.startswith("unmatchable") else CASES[case])
    cfg = config_from_dict(dict(data, horizon=99))
    monkeypatch.setattr(mrac._rows, "BLOCK", 10**9)
    whole, summary, invariants = _arrays(run_scenario(cfg))
    monkeypatch.setattr(mrac._rows, "BLOCK", 7)
    blocks, summary_b, invariants_b = _arrays(run_scenario(cfg))
    assert summary_b == summary and invariants_b == invariants
    assert ("series.V" in whole) != case.startswith("unmatchable")
    assert blocks.keys() == whole.keys()
    for name, value in whole.items():
        assert blocks[name].tobytes() == value.tobytes(), name


def test_row_blocks_leave_no_row_alone(monkeypatch):
    monkeypatch.setattr(mrac._rows, "BLOCK", 4)
    assert [list(mrac._rows.row_blocks(steps)) for steps in range(11)] == [
        [], [(0, 1)], [(0, 2)], [(0, 3)], [(0, 4)], [(0, 5)],
        [(0, 4), (4, 6)], [(0, 4), (4, 7)], [(0, 4), (4, 8)],
        [(0, 4), (4, 9)], [(0, 4), (4, 8), (8, 10)]]
