"""The chunked trace writers against the per-value loops they replaced:
the same bytes on every kind of trace, and memory bounded by the chunk."""

import functools
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    return trace._replace(**{
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
    # formatting the whole table as one chunk peaks near 20 MiB here, and
    # one chunk of TRACE_CHUNK rows near 0.3 MiB
    assert peak < 2**20


def grid_trace(grid, fired):
    """An n=2, M=1 trace whose 13 float columns, in the order of the trace
    CSV, are the columns of ``grid``."""
    steps = grid.shape[0]
    return SimulationTrace(
        scheme="direct_gradient", time_domain="discrete", horizon=steps - 1,
        dt=1.0, t=grid[:, 0], x=grid[:, 1:3], x_m=grid[:, 3:5],
        e=grid[:, 5:7], u=grid[:, 7:8], eps=grid[:, 8:10], m=grid[:, 10],
        theta=np.zeros((steps, 3, 1)), V=grid[:, 11], dV=grid[:, 12],
        proj_fired=fired)


def assert_writers_match(values, tmp_path, fired=None):
    """Both writers against the per-value loops, with ``values`` filling
    every float column of the trace CSV and the (t, e) columns of the
    gnuplot layout row by row (repeated to fill the last row)."""
    values = np.asarray(values, dtype=float)
    csv = np.resize(values, (-(-values.size // 13), 13))
    gnu = np.zeros((-(-values.size // 3), 13))
    gnu[:, [0, 5, 6]] = np.resize(values, (gnu.shape[0], 3))
    for grid, new, old in (
            (csv, write_trace_csv, trace_oracle.write_trace_csv),
            (gnu, write_gnuplot_dat, trace_oracle.write_gnuplot_dat)):
        flags = (np.resize(fired, grid.shape[0]) if fired is not None
                 else np.arange(grid.shape[0]) % 3 == 0)
        trace = grid_trace(grid, flags)
        new(trace, tmp_path / "new")
        old(trace, tmp_path / "old")
        assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


def float_corpus(seed=0, patterns=20000):
    """Where float spellings differ: first 15 edge cases (signed zeros, the
    non-finite values, the thresholds where orjson's spelling changes) and
    their negations, then every decade from 1e-324 to 1e308 with its two
    neighbours at both signs, the 1e-5 <= |x| < 1e-4 band, random
    subnormals and random 64-bit patterns (NaN payloads and infinities
    among them)."""
    rng = np.random.default_rng(seed)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 1e-5,
             np.nextafter(1e-5, 0.0), np.nextafter(1e-4, 0.0), 1e-4, 1e16,
             np.nextafter(1e16, 0.0), 1e-9, np.nextafter(1e-9, 0.0)]
    decades = np.array([float(f"1e{k}") for k in range(-324, 309)])
    decades = np.concatenate([decades, np.nextafter(decades, 0.0),
                              np.nextafter(decades, np.inf)])
    band = np.concatenate([rng.uniform(1e-5, 1e-4, 2000),
                           np.geomspace(1e-5, 1e-4, 500)])
    subnormal = rng.integers(1, 2**52, 500, dtype=np.uint64).view(np.float64)
    bits = rng.integers(0, 2**64, patterns, dtype=np.uint64).view(np.float64)
    body = np.concatenate([decades, band, subnormal])
    body = np.concatenate([body, -body, bits])
    return np.concatenate([edges, -np.array(edges), rng.permutation(body)])


def test_the_float_corpus_covers_its_cases():
    values = float_corpus()
    with np.errstate(invalid="ignore"):
        mag = np.abs(values)
    assert np.isnan(values).sum() > 2 and np.isposinf(values).any()
    assert np.isneginf(values).any() and np.signbit(values[values == 0]).any()
    assert ((mag > 0) & (mag < 2.2250738585072014e-308)).sum() > 1000
    assert ((mag >= 1e-5) & (mag < 1e-4)).sum() > 5000
    assert (mag >= 1e16).sum() > 1000 and ((mag > 0) & (mag < 1e-9)).any()
    # more rows than a chunk in both layouts
    assert values.size > 13 * TRACE_CHUNK


@pytest.mark.parametrize("rows", ["one", "many"])
def test_writers_spell_every_float_as_repr(rows, tmp_path):
    values = float_corpus()
    # one row of the trace CSV, one row of the gnuplot layout, and each
    # edge case alone, so that no other value of its chunk is respelled
    parts = [values[:13], values[:3], *values[:30, None]]
    for part in (parts if rows == "one" else [values]):
        assert_writers_match(part, tmp_path)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(), min_size=1, max_size=60),
       st.lists(st.booleans(), min_size=1, max_size=5))
def test_writers_spell_generated_floats_as_repr(values, fired):
    with tempfile.TemporaryDirectory() as tmp:
        assert_writers_match(values, pathlib.Path(tmp), np.array(fired))


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
