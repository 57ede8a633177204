import math

import numpy as np
import pytest

from discrete_oracle import (assert_replayed, control_direct, direct_step,
                             epsilon_direct, replay_direct)
from mrac import (DirectGainConfig, GainError, InitialConditions, ModelError,
                  ReferenceSignal, RegressorFrame, check_delta_V,
                  direct_V_series, gamma0_direct, integrate_ct,
                  run_direct_scenario, solve_matching, stack_controller_gains)
from conftest import K1_TRUE, K2_TRUE, ct_instance, mimo_direct_case


def toy_frame(zeta, xi, m):
    return RegressorFrame(zeta=np.asarray(zeta, float),
                          xi=np.asarray(xi, float), m=float(m))


class TestControl:
    """The oracle's control law, and the runner's refusal of a misshapen
    estimate."""

    def test_true_gains(self):
        theta = np.array([[*K1_TRUE, K2_TRUE]]).T
        u = control_direct(theta, np.array([1.0, 1.0]), np.array([2.0]))
        assert u[0] == pytest.approx(-0.575, abs=1e-14)

    def test_zero_estimate(self):
        u = control_direct(np.zeros((3, 1)), np.array([5.0, -3.0]),
                           np.array([2.0]))
        assert u[0] == 0.0

    def test_mimo_passthrough(self):
        theta = stack_controller_gains(np.zeros((3, 2)), np.eye(2))
        u = control_direct(theta, np.zeros(3), np.array([1.0, 2.0]))
        assert np.allclose(u, [1.0, 2.0])

    def test_dimension_check(self, bench_plant, bench_ref, bench_signal,
                             bench_gains):
        with pytest.raises(ModelError, match="theta must have shape"):
            run_direct_scenario(bench_plant, bench_ref, bench_signal,
                                bench_gains, InitialConditions(
                                    theta0=np.zeros(4)), 10)


class TestEpsilon:
    def test_zero_rho(self):
        e = np.array([1.0, -2.0])
        assert np.allclose(epsilon_direct(e, np.zeros(1), np.zeros((2, 1))), e)

    def test_zero_everything(self):
        out = epsilon_direct(np.zeros(2), np.ones(1), np.zeros((2, 1)))
        assert np.allclose(out, 0.0)

    def test_arithmetic(self):
        out = epsilon_direct(np.array([1.0, -1.0]), np.array([2.0]),
                             np.array([[0.5], [0.25]]))
        assert np.allclose(out, [2.0, -0.5])


class TestDiscreteUpdate:
    """The oracle's gradient step, by hand."""

    def _gains(self, sign=1.0):
        return DirectGainConfig(Gamma=0.3 * np.eye(2), gamma=0.3,
                                sign_k2=sign, k2_lower=0.2,
                                time_domain="discrete")

    def test_zero_epsilon_is_fixed_point(self):
        frame = toy_frame(np.ones((2, 1, 3)), np.ones((2, 1)), 2.0)
        gains = DirectGainConfig(Gamma=0.3 * np.eye(3), gamma=0.3,
                                 sign_k2=1.0, k2_lower=0.2,
                                 time_domain="discrete")
        dth, drho = direct_step(gains, np.zeros(2), frame)
        assert np.all(dth == 0.0) and np.all(drho == 0.0)

    def test_scalar_toy_arithmetic(self):
        # n=1: zeta=[1,0], xi=1, eps=0.5, m^2=3 -> dtheta=[-0.05,0], drho=-0.05
        frame = toy_frame([[[1.0, 0.0]]], [[1.0]], math.sqrt(3.0))
        dth, drho = direct_step(self._gains(), np.array([0.5]), frame)
        assert np.allclose(dth[:, 0], [-0.05, 0.0], atol=1e-15)
        assert drho[0] == pytest.approx(-0.05, abs=1e-15)

    def test_sign_flip_negates_theta_step(self):
        frame = toy_frame([[[1.0, 0.5]]], [[1.0]], 1.5)
        d1, r1 = direct_step(self._gains(1.0), np.array([0.5]), frame)
        d2, r2 = direct_step(self._gains(-1.0), np.array([0.5]), frame)
        assert np.allclose(d1, -d2, atol=0)
        assert np.allclose(r1, r2, atol=0)

    def test_scaling_epsilon_scales_steps(self):
        frame = toy_frame([[[1.0, -0.5]]], [[0.7]], 1.3)
        d1, r1 = direct_step(self._gains(), np.array([0.4]), frame)
        d3, r3 = direct_step(self._gains(), np.array([1.2]), frame)
        assert np.allclose(3.0 * d1, d3, rtol=1e-14)
        assert np.allclose(3.0 * r1, r3, rtol=1e-14)


class TestGainGate:
    def test_simo_gamma_bound(self):
        with pytest.raises(GainError, match="2\\*k2_lower"):
            DirectGainConfig(Gamma=1.2 * np.eye(3), gamma=1.0, sign_k2=1.0,
                             k2_lower=0.5, time_domain="discrete")

    def test_rho_gain_bound(self):
        with pytest.raises(GainError, match="outside"):
            DirectGainConfig(Gamma=0.3 * np.eye(3), gamma=2.0, sign_k2=1.0,
                             k2_lower=0.5, time_domain="discrete")

    def test_asymmetric_rejected(self):
        G = np.array([[0.3, 0.1], [0.0, 0.3]])
        with pytest.raises(GainError, match="symmetric"):
            DirectGainConfig(Gamma=G, gamma=0.5, sign_k2=1.0, k2_lower=1.0,
                             time_domain="discrete")

    def test_mimo_conservative_bound(self):
        with pytest.raises(GainError, match="k2_lower"):
            DirectGainConfig(Gamma=np.stack([0.6 * np.eye(5)] * 2),
                             gamma=[1.0, 1.0], sign_k2=[1.0, -1.0],
                             k2_lower=[0.5, 0.5], time_domain="discrete")

    def test_continuous_only_needs_positivity(self):
        cfg = DirectGainConfig(Gamma=50.0 * np.eye(3), gamma=9.0, sign_k2=1.0,
                               k2_lower=0.5, time_domain="continuous")
        assert cfg.n_inputs == 1

    def test_bad_sign(self):
        with pytest.raises(GainError, match="sign"):
            DirectGainConfig(Gamma=0.3 * np.eye(3), gamma=0.5, sign_k2=0.0,
                             k2_lower=0.5, time_domain="discrete")


class TestContinuousUpdate:
    """The same step as the continuous-time derivative."""

    def test_zero_epsilon_unchanged(self):
        # at the true parameters with matched initial states eps stays 0,
        # so the continuous-time runner leaves the estimates where they are
        plant, ref = ct_instance()
        sol = solve_matching(plant, ref)
        gains = DirectGainConfig(Gamma=np.eye(3), gamma=1.0, sign_k2=1.0,
                                 k2_lower=0.5, time_domain="continuous")
        init = InitialConditions(
            theta0=stack_controller_gains(sol.K1, sol.K2), rho0=1.0 / sol.k2)
        sig = ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.5]])
        trace = run_direct_scenario(plant, ref, sig, gains, init, 200, h=0.01)
        assert np.max(np.abs(trace.eps)) <= 1e-12
        assert np.max(np.abs(trace.theta - trace.theta[0])) <= 1e-12
        assert np.max(np.abs(trace.rho - trace.rho[0])) <= 1e-12

    def test_exponential_toy(self):
        # constructed so eps*zeta = theta with m=1 -> dtheta/dt = -theta
        gains = DirectGainConfig(Gamma=np.eye(3), gamma=1.0, sign_k2=1.0,
                                 k2_lower=0.5, time_domain="continuous")
        z = np.zeros((2, 1, 3))
        z[0, 0, 0] = 1.0
        frame = toy_frame(z, np.zeros((2, 1)), 1.0)

        def rhs(_t, theta):
            return direct_step(gains, np.array([theta[0], 0.0]),
                               frame)[0][:, 0]

        out = integrate_ct(rhs, np.array([1.0, 0.0, 0.0]), 0.1)
        assert out[0] == pytest.approx(math.exp(-0.1), abs=1e-7)


class TestScenario:
    def test_nominal_start_stays_exact(self, bench_plant, bench_ref,
                                       bench_signal, bench_gains):
        sol = solve_matching(bench_plant, bench_ref)
        init = InitialConditions(
            theta0=np.array([*sol.k1, sol.k2]).reshape(3, 1),
            rho0=1.0 / sol.k2)
        trace = run_direct_scenario(bench_plant, bench_ref, bench_signal,
                                    bench_gains, init, 200)
        assert np.max(np.abs(trace.e)) <= 1e-12
        assert np.max(np.abs(trace.eps)) <= 1e-12
        assert np.max(np.abs(trace.theta - trace.theta[0])) <= 1e-14

    def test_delta_v_bound_every_step(self, bench_plant, bench_ref,
                                      bench_signal, bench_gains):
        init = InitialConditions(theta0=1.25 * np.array([*K1_TRUE, K2_TRUE]).reshape(3, 1),
                                 rho0=1.25 / K2_TRUE)
        trace = run_direct_scenario(bench_plant, bench_ref, bench_signal,
                                    bench_gains, init, 500)
        series = direct_V_series(trace.theta, trace.rho,
                                 np.array([*K1_TRUE, K2_TRUE]).reshape(3, 1),
                                 np.array([1.0 / K2_TRUE]),
                                 bench_gains.Gamma, bench_gains.gamma,
                                 trace.eps, trace.m)
        assert series.gamma0 == pytest.approx(1.5, abs=1e-12)
        ok, first = check_delta_V(series, tolerance=1e-10)
        assert ok, f"bound violated at step {first}"

    def test_boundedness_sums(self, bench_plant, bench_ref, bench_signal,
                              bench_gains):
        init = InitialConditions(theta0=1.25 * np.array([*K1_TRUE, K2_TRUE]).reshape(3, 1),
                                 rho0=1.25 / K2_TRUE)
        trace = run_direct_scenario(bench_plant, bench_ref, bench_signal,
                                    bench_gains, init, 5000)
        g0 = gamma0_direct(bench_gains.Gamma, bench_gains.gamma, [1.0 / K2_TRUE])
        assert trace.summary.sum_eps2_over_m2 <= trace.V[0] / (2.0 - g0) + 1e-8
        dtheta_tail = np.sum(np.diff(trace.theta[-501:], axis=0) ** 2)
        drho_tail = np.sum(np.diff(trace.rho[-501:], axis=0) ** 2)
        assert dtheta_tail < 1e-6
        assert drho_tail < 1e-6
        assert trace.summary.sup_theta < 10.0

    def test_runner_matches_op_composition(self, bench_plant, bench_ref,
                                           bench_signal, bench_gains):
        theta0 = 1.25 * np.array([*K1_TRUE, K2_TRUE]).reshape(3, 1)
        args = (bench_plant, bench_ref, bench_signal, bench_gains,
                InitialConditions(theta0=theta0, rho0=1.25 / K2_TRUE), 150)
        records, diverged_at = replay_direct(*args)
        assert diverged_at is None
        assert_replayed(run_direct_scenario(*args), records,
                        ("theta", "e", "eps", "m", "u"))

    def test_runner_matches_op_composition_mimo(self):
        # n=3, M=2 with diagonal K2 enforced; long enough to cross the
        # runner's record chunks
        case = mimo_direct_case(4)
        assert case["gains"].enforce_diagonal_k2
        args = (case["plant"], case["ref"], case["signal"], case["gains"],
                case["init"], 300)
        trace = run_direct_scenario(*args)
        records, diverged_at = replay_direct(*args)
        assert diverged_at is None and not trace.diverged
        assert_replayed(trace, records,
                        ("theta", "rho", "x", "x_m", "e", "eps", "m", "u"))
        off = trace.theta[:, 3:, :] * (1.0 - np.eye(2))[None]
        assert np.all(off == 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seed", [0, 4])
    def test_divergence_step_matches_op_composition(self, seed):
        # both seeds first overflow the filter energy m^2, while every
        # element of x and u is finite; divergence is reported through the
        # marker only
        case = mimo_direct_case(seed)
        blow = ReferenceSignal.from_samples(
            np.geomspace(1.0, 1e300, 400)[:, None] * np.array([[1.0, -0.5]]))
        args = (case["plant"], case["ref"], blow, case["gains"],
                case["init"], 399)
        trace = run_direct_scenario(*args)
        records, diverged_at = replay_direct(*args)
        assert diverged_at is not None
        assert trace.diverged and trace.diverged_at == diverged_at
        assert trace.steps == diverged_at
        assert np.all(np.isfinite(trace.x))

    def test_mimo_diagonal_enforcement(self):
        case = mimo_direct_case(0)
        trace = run_direct_scenario(case["plant"], case["ref"], case["signal"],
                                    case["gains"], case["init"], 1200)
        K2blk = trace.theta[:, 3:, :]
        off = K2blk * (1.0 - np.eye(2))[None]
        assert np.all(off == 0.0)
        assert not trace.diverged

    def test_domain_mismatch_rejected(self, bench_plant, bench_signal,
                                      bench_gains):
        ct_plant, ct_ref = ct_instance()
        with pytest.raises(ModelError):
            run_direct_scenario(bench_plant, ct_ref, bench_signal,
                                bench_gains, InitialConditions(), 10)

    def test_divergence_truncates_with_marker(self, bench_plant, bench_ref,
                                              bench_gains):
        # an absurd custom reference drives the loop into overflow
        blow = ReferenceSignal.from_samples(
            np.geomspace(1.0, 1e300, 400).reshape(-1, 1))
        trace = run_direct_scenario(bench_plant, bench_ref, blow, bench_gains,
                                    InitialConditions(), 399)
        assert trace.diverged
        assert trace.diverged_at is not None
        assert trace.steps == trace.diverged_at
        assert np.all(np.isfinite(trace.x))

    def test_ct_gradient_keeps_v_nonincreasing(self):
        plant, ref = ct_instance()
        sol = solve_matching(plant, ref)
        gains = DirectGainConfig(Gamma=np.eye(3), gamma=1.0, sign_k2=1.0,
                                 k2_lower=0.25, time_domain="continuous")
        init = InitialConditions(
            theta0=1.25 * np.array([*sol.k1, sol.k2]).reshape(3, 1),
            rho0=1.25 / sol.k2)
        sig = ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.5]])
        trace = run_direct_scenario(plant, ref, sig, gains, init, 1500, h=0.01)
        assert not trace.diverged
        assert np.all(trace.dV[:-1] <= 1e-6)
