"""The chunked trace writers against the per-value loops they replaced:
the same bytes on every kind of trace, and memory bounded by the chunk."""

import dataclasses
import functools
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import trace_oracle
from conftest import mimo_indirect_case
from mrac import ProjectionConfig, run_indirect_scenario
from mrac.cli import TRACE_CHUNK, write_gnuplot_dat, write_trace_csv
from mrac.diagnostics import SimulationTrace
from mrac.scenario import benchmark_config, config_from_dict, run_scenario

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the record arrays of a trace, each one row per step
RECORDS = ("t", "x", "x_m", "e", "u", "eps", "m", "theta", "rho", "x_hat",
           "V", "dV", "proj_fired", "proj_g2", "proj_f2")


def cut(trace, steps):
    """The first ``steps`` rows of ``trace``."""
    return dataclasses.replace(trace, **{
        name: getattr(trace, name)[:steps] for name in RECORDS
        if getattr(trace, name) is not None})


def _ct_dict(scheme, gains, horizon=200, ct_step=0.01, projection=None):
    data = benchmark_config().to_dict()
    data.update(scheme=scheme, time_domain="continuous", horizon=horizon,
                ct_step=ct_step, gains=gains, projection=projection)
    data["plant"]["A"] = [[0.0, 1.0], [1.0, -1.0]]
    data["reference"]["A_m"] = [[0.0, 1.0], [-2.0, -3.0]]
    data["init"] = {"theta_scale": 1.25}
    return data


@functools.cache
def benchmark_trace():
    return run_scenario(benchmark_config()).trace


@functools.cache
def projected_mimo_trace():
    # the projection bound sits at |k2*| itself, so the estimates reach it
    case = mimo_indirect_case(1)
    k2 = np.diag(case["K2_true"])
    proj = ProjectionConfig.from_k2_upper(np.abs(k2), np.sign(k2))
    return run_indirect_scenario(case["plant"], case["ref"], case["signal"],
                                 case["gains"], proj, case["init"], 300)


@functools.cache
def unmatchable_trace():
    data = benchmark_config().to_dict()
    data.update(horizon=300, init={"theta0": [[-0.4], [-1.0], [0.6]],
                                   "rho0": [2.0]})
    data["reference"]["A_m"] = [[0.5, 0.0], [0.0, 0.5]]
    return run_scenario(config_from_dict(data)).trace


@functools.cache
def lyapunov_trace():
    return run_scenario(config_from_dict(_ct_dict(
        "lyapunov_direct", {"Gamma": 1.0, "gamma": 1.0, "sign_k2": 1.0}))).trace


@functools.cache
def diverged_trace():
    data = _ct_dict("direct_gradient", {"Gamma": 1.0, "gamma": 1.0,
                                        "sign_k2": 1.0, "k2_lower": 0.5},
                    ct_step=10.0)
    data["init"] = {"theta_scale": 0.5}
    return run_scenario(config_from_dict(data)).trace


def special_values_trace():
    # every float repr corner: signed zero, exponent forms, the smallest
    # subnormal and the non-finite values
    special = np.array([-0.0, 1e-05, 1e16, 5e-324, np.inf, -np.inf, np.nan,
                        0.1, 123456789.123, -2.5e-300])
    steps = special.size
    col = lambda k: np.roll(special, k)
    two = lambda k: np.stack([col(k), col(k + 1)], axis=1)
    return SimulationTrace(
        scheme="direct_gradient", time_domain="discrete", horizon=steps - 1,
        dt=1.0, t=col(0), x=two(1), x_m=two(2), e=two(3), u=two(4)[:, :1],
        eps=two(5), m=col(6), theta=np.zeros((steps, 3, 1)), V=col(7),
        dV=col(8), proj_fired=special > 0.0)


TRACES = {
    "benchmark": benchmark_trace,
    "projected-mimo": projected_mimo_trace,
    "unmatchable": unmatchable_trace,
    "lyapunov": lyapunov_trace,
    "diverged": diverged_trace,
    "one-row": lambda: cut(benchmark_trace(), 1),
    "one-chunk": lambda: cut(benchmark_trace(), TRACE_CHUNK),
    "chunk-plus-one": lambda: cut(benchmark_trace(), TRACE_CHUNK + 1),
    "special-values": special_values_trace,
}


def test_the_traces_cover_their_cases():
    fired = projected_mimo_trace().proj_fired
    assert 0 < fired.sum() < fired.size
    assert unmatchable_trace().V is None
    assert np.all(np.isnan(lyapunov_trace().eps))
    div = diverged_trace()
    assert div.diverged and div.steps == div.diverged_at < div.horizon + 1
    assert [cut(benchmark_trace(), k).steps
            for k in (1, TRACE_CHUNK, TRACE_CHUNK + 1)] == [
                1, TRACE_CHUNK, TRACE_CHUNK + 1]


@pytest.mark.parametrize("name", sorted(TRACES))
def test_writers_match_the_per_value_loops(name, tmp_path):
    trace = TRACES[name]()
    for new, old in ((write_trace_csv, trace_oracle.write_trace_csv),
                     (write_gnuplot_dat, trace_oracle.write_gnuplot_dat)):
        new(trace, tmp_path / "new")
        old(trace, tmp_path / "old")
        got = (tmp_path / "new").read_bytes()
        assert got == (tmp_path / "old").read_bytes()
        assert got.count(b"\n") == trace.steps + 1


def test_writer_memory_does_not_grow_with_the_horizon(tmp_path):
    data = benchmark_config().to_dict()
    data["horizon"] = 20000
    trace = run_scenario(config_from_dict(data)).trace
    assert trace.steps == 20001 and trace.x.shape[1] == 2
    tracemalloc.start()
    try:
        write_trace_csv(trace, tmp_path / "trace.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # formatting the whole table as one chunk peaks near 20 MiB here
    assert peak < 4 * 2**20


def test_run_benchmark_script_writes_the_oracle_bytes(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_benchmark.py"),
         "--out", str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    for two_tone in (False, True):
        run = run_scenario(benchmark_config(two_tone=two_tone))
        oracle = tmp_path / "oracle.csv"
        trace_oracle.write_trace_csv(run.trace, oracle)
        written = tmp_path / f"{run.config.name}.trace.csv"
        assert written.read_bytes() == oracle.read_bytes()
