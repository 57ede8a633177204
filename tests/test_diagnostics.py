import math
import struct

import numpy as np
import pytest

from mrac import (InitialConditions, LyapunovSeries, SimulationTrace,
                  check_delta_V, direct_V_series, gamma0_direct,
                  indirect_V_series, run_direct_scenario, summarize,
                  tracking_metrics)
from mrac.scenario import config_from_dict, run_scenario
from conftest import K1_TRUE, K2_TRUE
from test_lockstep import member
from test_scenario_cli import SCHEME_CASES


def synth_trace(e_rows, diverged=False):
    steps = len(e_rows)
    e = np.asarray(e_rows, float).reshape(steps, -1)
    n = e.shape[1]
    z = np.zeros((steps, n))
    return SimulationTrace(
        scheme="direct_gradient", time_domain="discrete", horizon=steps - 1,
        dt=1.0, t=np.arange(steps, dtype=float), x=z.copy(), x_m=z.copy(),
        e=e, u=np.zeros((steps, 1)), eps=z.copy(), m=np.ones(steps),
        theta=np.zeros((steps, 2, 1)), rho=np.zeros((steps, 1)),
        diverged=diverged, diverged_at=steps if diverged else None)


@pytest.fixture
def bench_run(bench_plant, bench_ref, bench_signal, bench_gains):
    init = InitialConditions(
        theta0=1.25 * np.array([*K1_TRUE, K2_TRUE]).reshape(3, 1),
        rho0=1.25 / K2_TRUE)
    return run_direct_scenario(bench_plant, bench_ref, bench_signal,
                               bench_gains, init, 2000)


def V_direct(theta, rho, theta_star, rho_star, Gamma, gamma):
    """V of one single-input direct state, through the series."""
    one = np.ones((1, 1))
    return direct_V_series(np.reshape(theta, (1, -1, 1)), rho * one,
                           np.reshape(theta_star, (-1, 1)), [rho_star], Gamma,
                           gamma, np.zeros((1, 1)), one).V[0]


class TestValueFunctions:
    def test_zero_at_truth(self):
        v = V_direct([1.0, 2.0, 3.0], 0.5, [1.0, 2.0, 3.0], 0.5,
                     0.5 * np.eye(3), 1.5)
        assert v == 0.0

    def test_direct_example(self):
        # theta error [1,0,0], Gamma=0.5I, rho*=2, rho error 0 -> V = 2/0.5 = 4
        v = V_direct([1.0, 0.0, 0.0], 2.0, [0.0, 0.0, 0.0], 2.0,
                     0.5 * np.eye(3), 1.0)
        assert v == pytest.approx(4.0, abs=1e-12)

    def test_gain_scaling_homogeneity(self):
        theta = np.array([0.3, -0.7, 1.1])
        base = V_direct(theta, 2.0, np.zeros(3), 2.0, np.eye(3), 1.0)
        scaled = V_direct(theta, 2.0, np.zeros(3), 2.0, 4.0 * np.eye(3), 1.0)
        assert scaled == pytest.approx(base / 4.0, rel=1e-12)

    def test_indirect_quadratic(self):
        series = indirect_V_series(np.ones((1, 2, 1)), np.zeros((2, 1)),
                                   2.0 * np.eye(2), np.zeros((1, 1)),
                                   np.ones(1))
        assert series.V[0] == pytest.approx(1.0, abs=1e-14)

    def test_gamma0_from_actual_gains(self):
        g0 = gamma0_direct(0.5 * np.eye(3), 1.5, [2.0])
        assert g0 == pytest.approx(1.5, abs=1e-14)
        g0 = gamma0_direct(0.5 * np.eye(3), 0.2, [2.0])
        assert g0 == pytest.approx(1.0, abs=1e-14)


class TestDeltaVCheck:
    def test_constant_v_passes(self):
        T = 50
        series = LyapunovSeries(V=np.ones(T), dV=np.r_[np.zeros(T - 1), np.nan],
                                decrement=np.zeros(T), gamma0=1.5)
        ok, first = check_delta_V(series)
        assert ok and first is None

    def test_corrupted_step_is_caught(self):
        T = 50
        dec = np.full(T, 0.01)
        V = 5.0 - 0.02 * np.arange(T, dtype=float)
        dV = np.r_[np.diff(V), np.nan]
        series = LyapunovSeries(V=V, dV=dV, decrement=dec, gamma0=1.5)
        ok, first = check_delta_V(series)
        assert ok
        series.dV[17] = +0.2  # inject a rise against nonzero decrement
        ok, first = check_delta_V(series)
        assert not ok and first == 17

    def test_benchmark_run_passes(self, bench_run, bench_gains):
        from mrac import direct_V_series
        series = direct_V_series(bench_run.theta, bench_run.rho,
                                 np.array([*K1_TRUE, K2_TRUE]).reshape(3, 1),
                                 [1.0 / K2_TRUE], bench_gains.Gamma,
                                 bench_gains.gamma, bench_run.eps, bench_run.m)
        ok, _ = check_delta_V(series, tolerance=1e-10)
        assert ok


class TestAccumulators:
    def test_frozen_run_sums_to_zero(self, bench_plant, bench_ref,
                                     bench_signal, bench_gains):
        init = InitialConditions(
            theta0=np.array([*K1_TRUE, K2_TRUE]).reshape(3, 1),
            rho0=1.0 / K2_TRUE)
        trace = run_direct_scenario(bench_plant, bench_ref, bench_signal,
                                    bench_gains, init, 300)
        # the decimal gain literals carry a 1-ulp matching defect, so the
        # sums are rounding dust rather than exact zeros
        assert trace.summary.sum_eps2_over_m2 <= 1e-20
        assert trace.summary.sum_dtheta_sq <= 1e-25

    def test_telescoping_bound(self, bench_run, bench_gains):
        g0 = gamma0_direct(bench_gains.Gamma, bench_gains.gamma, [1.0 / K2_TRUE])
        assert (bench_run.summary.sum_eps2_over_m2
                <= bench_run.V[0] / (2.0 - g0) + 1e-8)

    def test_tail_fraction_shrinks_with_horizon(self, bench_plant, bench_ref,
                                                bench_signal, bench_gains):
        init = InitialConditions(
            theta0=1.25 * np.array([*K1_TRUE, K2_TRUE]).reshape(3, 1),
            rho0=1.25 / K2_TRUE)
        short = run_direct_scenario(bench_plant, bench_ref, bench_signal,
                                    bench_gains, init, 1000)
        long = run_direct_scenario(bench_plant, bench_ref, bench_signal,
                                   bench_gains, init, 2000)
        assert long.summary.tail_frac_eps < short.summary.tail_frac_eps

    def test_v_telescopes_against_dv(self, bench_run):
        total = np.nansum(bench_run.dV[:-1])
        budget = 1e-9 * bench_run.steps / 1000.0
        assert abs((bench_run.V[-1] - bench_run.V[0]) - total) <= budget


class TestTrackingMetrics:
    def test_nominal_run_is_zero(self, bench_plant, bench_ref, bench_signal,
                                 bench_gains):
        init = InitialConditions(
            theta0=np.array([*K1_TRUE, K2_TRUE]).reshape(3, 1),
            rho0=1.0 / K2_TRUE)
        trace = run_direct_scenario(bench_plant, bench_ref, bench_signal,
                                    bench_gains, init, 500)
        metrics = tracking_metrics(trace)
        assert metrics.sup_e <= 1e-12
        assert metrics.last_window_max <= 1e-12

    def test_geometric_decay_settling(self):
        # e(t) = 0.5^t crosses 1e-3 for good at t = 10 (0.5^10 ~ 9.77e-4)
        trace = synth_trace(0.5 ** np.arange(40.0))
        metrics = tracking_metrics(trace, settle_threshold=1e-3)
        assert metrics.settling_index == 10
        assert metrics.sup_e == 1.0

    def test_never_settling(self):
        trace = synth_trace(np.ones(20))
        metrics = tracking_metrics(trace, settle_threshold=0.5)
        assert metrics.settling_index is None

    def test_diverged_trace_reports_infinities(self):
        trace = synth_trace(np.ones(5), diverged=True)
        metrics = tracking_metrics(trace, settle_threshold=1e-3)
        assert math.isinf(metrics.sup_e)
        assert math.isinf(metrics.last_window_max)
        assert metrics.settling_index is None


def assert_same_fields(got, want):
    """``got`` and ``want`` (namedtuples of one type) agree field by field,
    a float bit for bit, so that a NaN equals itself and 0.0 is not -0.0."""
    assert type(got) is type(want)
    for name, a, b in zip(want._fields, got, want):
        assert type(a) is type(b), name
        if isinstance(b, float):
            assert struct.pack("<d", a) == struct.pack("<d", b), name
        else:
            assert a == b, name


# the runs whose post-hoc reductions are checked: each scheme case, a run
# diverging mid-block (r jumps at step 1099, so m^2 overflows at 1100),
# and a run whose projection fires
REDUCED_RUNS = {
    **SCHEME_CASES,
    "diverging-mid-block": dict(
        SCHEME_CASES["direct-discrete"], horizon=2048,
        signal={"kind": "custom", "samples": [[0.3]] * 1099 + [[1e306]]}),
    "firing-projection": dict(member(0, "indirect_gradient", k2_upper=0.9),
                              horizon=1100),
}


class TestSummary:
    def test_summary_matches_recomputation(self, bench_run):
        assert_same_fields(summarize(bench_run), bench_run.summary)
        assert_same_fields(bench_run.summarize(), bench_run.summary)

    @pytest.mark.parametrize("case", sorted(REDUCED_RUNS))
    def test_a_post_hoc_reduction_is_the_run_s_own(self, case):
        trace = run_scenario(config_from_dict(REDUCED_RUNS[case])).trace
        if case == "diverging-mid-block":
            assert trace.diverged_at == 1100
        if case == "firing-projection":
            assert trace.proj_fired.any()
        assert_same_fields(summarize(trace), trace.summary)
        assert_same_fields(tracking_metrics(trace), trace.metrics)

    def test_record_count(self, bench_run):
        assert bench_run.steps == bench_run.horizon + 1
        assert bench_run.t.shape[0] == bench_run.x.shape[0]
