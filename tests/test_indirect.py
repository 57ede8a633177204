import math
from types import SimpleNamespace

import numpy as np
import pytest

from discrete_oracle import (RegressorFrame, assert_replayed,
                             epsilon_indirect, estimator_step, indirect_step,
                             recover_gains, replay_indirect)
from mrac import (GainError, IndirectGainConfig, InitialConditions,
                  PlantModel, ProjectionConfig, ProjectionError,
                  ReferenceModel, ReferenceSignal, SingularGainError,
                  check_delta_V, indirect_V_series, integrate_ct,
                  run_indirect_scenario, solve_matching,
                  stack_controller_gains, theta_star_indirect)
from ct_oracle import projection_rate
from conftest import K1_TRUE, K2_TRUE, ct_instance, mimo_indirect_case

THETA1_TRUE = np.array([-0.95, -2.2])  # k1*/k2*
THETA2_TRUE = 2.0  # 1/k2*


def toy_frame(zeta, xi, m):
    return RegressorFrame(zeta=np.asarray(zeta, float),
                          xi=np.asarray(xi, float), m=float(m))


def bench_setup():
    plant = PlantModel(A=[[1.0, -1.0], [2.0, 1.0]], B=[[0.0], [2.0]])
    ref = ReferenceModel(A_m=[[1.0, -1.0], [1.05, -1.2]], B_m=[[0.0], [1.0]])
    sig = ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.13]])
    return plant, ref, sig


class TestEstimator:
    """The oracle's estimator step; the runner's is checked on its records
    in ``TestScenario.test_estimator_step_on_the_records``."""

    def test_exact_parameters_track_the_plant(self, bench_plant, bench_ref):
        theta = stack_controller_gains(THETA1_TRUE, [[THETA2_TRUE]])
        x = x_hat = np.array([0.3, -0.7])
        rng = np.random.default_rng(0)
        for _ in range(60):
            u = rng.normal(size=1)
            x_hat = estimator_step(bench_ref, theta, x_hat, x, u)
            x = bench_plant.A @ x + bench_plant.B @ u
            assert np.max(np.abs(x_hat - x)) <= 1e-9 * max(1.0, np.max(np.abs(x)))

    def test_homogeneous_decay(self, bench_ref):
        theta = stack_controller_gains(np.zeros(2), [[1.0]])
        x_hat = e = np.array([1.0, -1.0])
        for _ in range(30):
            x_hat = estimator_step(bench_ref, theta, x_hat, np.zeros(2),
                                   np.zeros(1))
            e = bench_ref.A_m @ e
            assert np.allclose(x_hat, e, atol=1e-14)

    def test_arithmetic_example(self, bench_ref):
        theta = stack_controller_gains([1.0, 0.0], [[2.0]])
        out = estimator_step(bench_ref, theta, np.array([1.0, 0.0]),
                             np.array([1.0, 1.0]), np.array([0.5]))
        assert np.allclose(out, [1.0, 1.05])


class TestEpsilon:
    def test_zero_xi(self):
        out = epsilon_indirect(np.array([0.2, -0.1]), np.zeros((2, 1)))
        assert np.allclose(out, [0.2, -0.1])

    def test_all_zero(self):
        assert np.allclose(epsilon_indirect(np.zeros(2), np.zeros((2, 1))), 0.0)

    def test_arithmetic(self):
        out = epsilon_indirect(np.array([0.2, -0.1]), np.array([[0.05], [0.05]]))
        assert np.allclose(out, [0.25, -0.05])


class TestProjection:
    """The projection landing by hand, in the oracle and in
    ``ProjectionConfig.landing``, the runners' hook, which must agree with
    it; the runner's use of it is checked in
    ``TestScenario.test_projection_fires_and_invariants_hold``."""

    def _gains(self):
        return IndirectGainConfig(Gamma=np.eye(2), time_domain="discrete")

    def _landed(self, proj, theta, eps, frame):
        # the oracle's step, and the hook landing its gradient step's theta2
        # in a row holding two copies of it
        nxt, g2, f2 = indirect_step(self._gains(), proj, np.array(theta),
                                    eps, frame)
        row = np.full(2, theta[1][0] + g2[0])
        law = SimpleNamespace(W=slice(0, 2), theta2=lambda W: (W[:1], W[1:]))
        f2_rec = np.zeros((3, 1))
        proj.landing(law, f2_rec)(row, 1)()
        assert np.array_equal(row, [nxt[1, 0]] * 2)
        assert np.array_equal(f2_rec, [[0.0], f2, [0.0]])
        return nxt, g2, f2

    def _step(self, theta, sign, zeta_1, eps):
        proj = ProjectionConfig(theta2_lower=1.0, signs=sign)
        z = np.zeros((1, 1, 2))
        z[0, 0, 1] = zeta_1
        frame = toy_frame(z, np.zeros((1, 1)), 1.0)
        return self._landed(proj, theta, eps, frame)

    def test_interior_zero_epsilon(self):
        theta = np.array([[0.5], [1.5]])
        proj = ProjectionConfig(theta2_lower=1.0, signs=1.0)
        frame = toy_frame(np.ones((1, 1, 2)), np.zeros((1, 1)), 1.0)
        nxt, g2, f2 = self._landed(proj, theta, np.array([0.0]), frame)
        assert np.all(nxt == theta)
        assert f2[0] == 0.0

    def test_landing_on_the_bound(self):
        # g2 = -0.5 pulls theta2 from 1.0 to 0.5; projection lands it on 1.0
        nxt, g2, f2 = self._step([[0.0], [1.0]], 1.0, 0.5, np.array([1.0]))
        assert g2[0] == pytest.approx(-0.5, abs=1e-15)
        assert f2[0] == pytest.approx(0.5, abs=1e-15)
        assert nxt[1, 0] == 1.0

    def test_no_clip_branch(self):
        nxt, g2, f2 = self._step([[0.0], [1.5]], 1.0, 0.2, np.array([1.0]))
        assert g2[0] == pytest.approx(-0.2, abs=1e-15)
        assert f2[0] == 0.0
        assert nxt[1, 0] == pytest.approx(1.3, abs=1e-15)

    def test_negative_sign_lands_on_negative_bound(self):
        # raw step g2 = +0.3, toward zero
        nxt, g2, f2 = self._step([[0.0], [-1.05]], -1.0, -0.3, np.array([1.0]))
        assert g2[0] == pytest.approx(0.3, abs=1e-15)
        assert nxt[1, 0] == -1.0
        # (theta2 - theta2* + g2 + f2) f2 <= 0 whenever |theta2*| >= bound
        for theta2_star in (-1.0, -1.7, -2.5):
            assert (-1.05 - theta2_star + g2[0] + f2[0]) * f2[0] <= 1e-15

    def test_bad_initial_estimate_rejected(self):
        plant, ref, sig = bench_setup()
        gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="discrete")
        proj = ProjectionConfig(theta2_lower=1.0, signs=1.0)
        init = InitialConditions(
            theta0=stack_controller_gains([0.0, 0.0], [[0.5]]))
        with pytest.raises(ProjectionError):
            run_indirect_scenario(plant, ref, sig, gains, proj, init, 10)

    def test_gain_structure_enforced(self):
        with pytest.raises(GainError, match="block diagonal"):
            IndirectGainConfig(Gamma=np.array([[1.0, 0.0, 0.1],
                                               [0.0, 1.0, 0.0],
                                               [0.1, 0.0, 1.0]]),
                               time_domain="discrete")
        with pytest.raises(GainError, match="spectral bound"):
            IndirectGainConfig(Gamma=2.5 * np.eye(3), time_domain="discrete")


class TestControlRecovery:
    def test_true_parameters_reproduce_nominal_control(self):
        theta = stack_controller_gains(THETA1_TRUE, [[THETA2_TRUE]])
        K1, K2 = recover_gains(theta, np.ones(1))
        u = K1.T @ np.array([1.0, 1.0]) + K2 @ np.ones(1)
        assert u[0] == pytest.approx(-1.075, abs=1e-14)
        nominal = K1_TRUE @ np.array([1.0, 1.0]) + K2_TRUE * 1.0
        assert u[0] == pytest.approx(nominal, abs=1e-14)

    def test_unit_theta2_passes_reference_through(self):
        K1, K2 = recover_gains(stack_controller_gains([0.0, 0.0], [[1.0]]),
                               np.full(1, 1e-12))
        u = K1.T @ np.zeros(2) + K2 @ np.array([3.0])
        assert u[0] == 3.0

    def test_mimo_diagonal_inverse(self):
        theta = stack_controller_gains(np.zeros((3, 2)), np.diag([2.0, 4.0]))
        K1, K2 = recover_gains(theta, np.full(2, 1e-12))
        assert np.allclose(K2, np.diag([0.5, 0.25]))
        u = K1.T @ np.zeros(3) + K2 @ np.ones(2)
        assert np.allclose(u, [0.5, 0.25])

    def test_singularity_without_projection(self):
        theta = stack_controller_gains([0.0, 0.0], [[1e-15]])
        with pytest.raises(SingularGainError):
            recover_gains(theta, np.full(1, 1e-12))


class TestContinuousUpdate:
    def test_interior_zero_unchanged(self):
        # at the true parameters with matched initial states eps stays 0,
        # so the continuous-time runner leaves the estimates where they are
        plant, ref = ct_instance()
        sol = solve_matching(plant, ref)
        gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="continuous")
        init = InitialConditions(theta0=theta_star_indirect(sol.K1, sol.K2))
        sig = ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.5]])
        trace = run_indirect_scenario(plant, ref, sig, gains, None, init, 200,
                                      h=0.01)
        assert np.max(np.abs(trace.eps)) <= 1e-12
        assert np.max(np.abs(trace.theta - trace.theta[0])) <= 1e-12

    def test_boundary_outward_derivative_freezes(self):
        # on the bound, an outward theta2 rate is cancelled and an inward
        # one is left alone
        proj = ProjectionConfig(theta2_lower=1.0, signs=1.0)
        out = proj.rate(np.array([1.0]), np.array([-0.5]))
        assert out[0] == 0.5
        assert proj.rate(np.array([1.0]), np.array([0.5]))[0] == 0.0
        assert proj.rate(np.array([1.5]), np.array([-0.5]))[0] == 0.0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rate_rule_matches_the_oracle_at_its_edges(self, sign):
        # theta2 on the edge lower + 1e-12 still counts as on the bound, one
        # ulp past it does not; a zero rate is not outward
        proj = ProjectionConfig(theta2_lower=[1.0, 2.0], signs=[sign, sign])
        edge = proj.theta2_lower + 1e-12
        for t2, g2, fired in (
                (edge, [-0.5, -0.25], True),
                (np.nextafter(edge, np.inf), [-0.5, -0.25], False),
                (proj.theta2_lower, [0.5, 0.0], False),
                (0.5 * proj.theta2_lower, [-0.5, -0.25], True),
                (proj.theta2_lower, [-0.0, -1e-300], True)):
            theta2, g2 = sign * np.asarray(t2), sign * np.asarray(g2)
            out = proj.rate(theta2, g2)
            assert np.array_equal(out, projection_rate(theta2, g2, proj))
            assert np.any(out != 0.0) == fired

    def test_interior_exponential_toy(self):
        # constructed so eps*zeta = theta with m=1 -> dtheta/dt = -theta
        gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="continuous")
        z = np.zeros((2, 1, 3))
        z[0, 0, 0] = 1.0
        frame = toy_frame(z, np.zeros((2, 1)), 1.0)

        def rhs(_t, theta):
            th = theta.reshape(3, 1)
            return indirect_step(gains, None, th, np.array([th[0, 0], 0.0]),
                                 frame)[0].ravel() - theta

        out = integrate_ct(rhs, np.array([1.0, 0.0, 5.0]), 0.1)
        assert out[0] == pytest.approx(math.exp(-0.1), abs=1e-7)


class TestScenario:
    def test_estimator_equals_reference_model(self):
        plant, ref, sig = bench_setup()
        gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="discrete")
        proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
        theta0 = 1.25 * stack_controller_gains(THETA1_TRUE, [[THETA2_TRUE]])
        init = InitialConditions(theta0=theta0, xhat0=np.zeros(2))
        trace = run_indirect_scenario(plant, ref, sig, gains, proj, init, 800)
        assert np.max(np.abs(trace.x_hat - trace.x_m)) <= 1e-12

    def test_exact_parameters_freeze(self):
        plant, ref, sig = bench_setup()
        gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="discrete")
        theta0 = stack_controller_gains(THETA1_TRUE, [[THETA2_TRUE]])
        init = InitialConditions(theta0=theta0)
        trace = run_indirect_scenario(plant, ref, sig, gains, None, init, 300)
        assert np.max(np.abs(trace.x_hat - trace.x)) <= 1e-10
        assert np.max(np.abs(trace.theta - trace.theta[0])) <= 1e-10

    @pytest.mark.parametrize("case", ["siso", "mimo"])
    def test_estimator_step_on_the_records(self, case):
        # xhat(t+1) = A_m xhat + B_m (Theta2 u - Theta1^T x), with the
        # estimates and signals the runner recorded at step t
        if case == "siso":
            plant, ref, sig = bench_setup()
            gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="discrete")
            proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
            init = InitialConditions(
                theta0=1.25 * stack_controller_gains(THETA1_TRUE, [[THETA2_TRUE]]),
                x0=[0.5, -0.3], xhat0=[-0.2, 0.4])
        else:
            c = mimo_indirect_case(2)
            plant, ref, sig, gains, proj = (c["plant"], c["ref"], c["signal"],
                                            c["gains"], c["projection"])
            init = InitialConditions(theta0=c["init"].theta0,
                                     x0=[0.5, -0.3, 0.2], xhat0=[0.1, 0, 0])
        tr = run_indirect_scenario(plant, ref, sig, gains, proj, init, 300)
        v = np.einsum("tcj,tc->tj", tr.theta[:-1],
                      np.concatenate([-tr.x[:-1], tr.u[:-1]], axis=1))
        want = tr.x_hat[:-1] @ ref.A_m.T + v @ ref.B_m.T
        assert np.max(np.abs(tr.x_hat[1:] - want)) <= 1e-12

    def test_projection_fires_and_invariants_hold(self):
        plant, ref, sig = bench_setup()
        proj = ProjectionConfig.from_k2_upper(0.5, 1.0)  # bound sits at 2.0
        gains = IndirectGainConfig(Gamma=np.diag([1.5, 1.5, 1.5]),
                                   time_domain="discrete")
        init = InitialConditions(theta0=np.array([[-0.5], [-1.0], [2.05]]))
        trace = run_indirect_scenario(plant, ref, sig, gains, proj, init, 2000)
        assert trace.proj_fired.sum() > 0
        theta2 = trace.theta[:, 2, 0]
        assert np.all(theta2 >= 2.0 - 1e-12)
        assert np.all(np.sign(theta2) == 1.0)
        # a fired step lands theta2 on the bound, up to the rounding of
        # the gradient-then-correction sum
        landed = theta2[1:][trace.proj_fired[:-1]]
        assert np.max(np.abs(landed - 2.0)) <= 4.0 * np.finfo(float).eps
        prod = (theta2[:-1] - THETA2_TRUE + trace.proj_g2[:-1, 0]
                + trace.proj_f2[:-1, 0]) * trace.proj_f2[:-1, 0]
        assert np.max(prod) <= 1e-12
        series = indirect_V_series(trace.theta,
                                   stack_controller_gains(THETA1_TRUE, [[THETA2_TRUE]]),
                                   gains.Gamma, trace.eps, trace.m)
        ok, first = check_delta_V(series, tolerance=1e-10)
        assert ok, f"bound violated at step {first} despite projection"

    def test_boundedness_tails(self):
        plant, ref, sig = bench_setup()
        gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="discrete")
        proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
        theta0 = 1.25 * stack_controller_gains(THETA1_TRUE, [[THETA2_TRUE]])
        init = InitialConditions(theta0=theta0)
        trace = run_indirect_scenario(plant, ref, sig, gains, proj, init, 5000)
        assert trace.summary.sup_theta < 10.0
        assert np.sum(np.diff(trace.theta[-501:], axis=0) ** 2) < 1e-6

    def test_runner_matches_op_composition(self):
        plant, ref, sig = bench_setup()
        gains = IndirectGainConfig(Gamma=np.diag([0.8, 0.8, 1.2]),
                                   time_domain="discrete")
        proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
        theta0 = 1.25 * stack_controller_gains(THETA1_TRUE, [[THETA2_TRUE]])
        args = (plant, ref, sig, gains, proj,
                InitialConditions(theta0=theta0), 120)
        records, singular_at = replay_indirect(*args)
        assert singular_at is None
        assert_replayed(run_indirect_scenario(*args), records,
                        ("theta", "eps", "m", "u", "x_hat"))

    def test_runner_matches_op_composition_mimo(self):
        # n=3, M=2 with the Theta2 bound above the true value and the start
        # just above the bound, so the projection fires on both channels
        # (signs -1 and +1); long enough to cross the runner's record chunks
        case = mimo_indirect_case(1)
        theta_star = case["theta_star"]
        theta0 = theta_star.copy()
        theta0[:3] *= 1.3
        theta0[3:] *= 1.155
        proj = ProjectionConfig(
            theta2_lower=1.1 * np.abs(np.diag(theta_star[3:])),
            signs=case["projection"].signs)
        gains = IndirectGainConfig(Gamma=np.stack([1.8 * np.eye(5)] * 2),
                                   time_domain="discrete")
        args = (case["plant"], case["ref"], case["signal"], gains, proj,
                InitialConditions(theta0=theta0), 300)
        trace = run_indirect_scenario(*args)
        records, singular_at = replay_indirect(*args)
        assert singular_at is None
        assert not trace.diverged
        assert_replayed(trace, records, ("theta", "x_hat", "x", "x_m", "e",
                                         "eps", "m", "u", "proj_g2", "proj_f2"))
        fired = np.array([np.any(rec["proj_f2"] != 0.0) for rec in records])
        assert np.array_equal(trace.proj_fired, fired)
        assert np.all(np.any(trace.proj_f2 != 0.0, axis=0))

    @pytest.mark.parametrize("seed", [3, 6])
    def test_singular_step_matches_op_composition(self, seed):
        # projection off, guard just below the true Theta2: the estimate
        # crosses it and the controller recovery refuses to invert
        case = mimo_indirect_case(seed)
        theta_star = case["theta_star"]
        theta0 = theta_star.copy()
        theta0[:3] *= 1.6
        proj = ProjectionConfig(
            theta2_lower=0.98 * np.abs(np.diag(theta_star[3:])),
            signs=case["projection"].signs, enabled=False)
        gains = IndirectGainConfig(Gamma=np.stack([1.9 * np.eye(5)] * 2),
                                   time_domain="discrete")
        args = (case["plant"], case["ref"], case["signal"], gains, proj,
                InitialConditions(theta0=theta0), 400)
        _, singular_at = replay_indirect(*args)
        assert singular_at is not None
        with pytest.raises(SingularGainError, match=f"at step {singular_at}$"):
            run_indirect_scenario(*args)

    def test_mimo_theta2_stays_diagonal(self):
        case = mimo_indirect_case(1)
        trace = run_indirect_scenario(case["plant"], case["ref"],
                                      case["signal"], case["gains"],
                                      case["projection"], case["init"], 1500)
        T2blk = trace.theta[:, 3:, :]
        off = T2blk * (1.0 - np.eye(2))[None]
        assert np.all(off == 0.0)
        theta2 = np.stack([trace.theta[:, 3 + j, j] for j in range(2)], axis=1)
        proj = case["projection"]
        assert np.all(proj.signs[None] * theta2 >= proj.theta2_lower[None] - 1e-12)

    def test_ct_projection_rides_the_boundary(self):
        # start just above a tight bound so the flow presses onto it; stage
        # evaluations may dip inside, but emitted steps must sit on the bound
        plant, ref = ct_instance()
        gains = IndirectGainConfig(Gamma=4.0 * np.eye(3),
                                   time_domain="continuous")
        proj = ProjectionConfig.from_k2_upper(0.5, 1.0)  # bound = |theta2*| = 2
        init = InitialConditions(theta0=np.array([[-1.0], [0.2], [2.02]]))
        sig = ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.5]])
        trace = run_indirect_scenario(plant, ref, sig, gains, proj, init,
                                      2000, h=0.01)
        assert not trace.diverged
        theta2 = trace.theta[:, 2, 0]
        assert np.all(theta2 >= 2.0 - 1e-12)
        assert trace.proj_fired.sum() > 0
        assert np.all(trace.dV[:-1] <= 1e-6)

    def test_ct_indirect_v_nonincreasing(self):
        plant, ref = ct_instance()
        sol = solve_matching(plant, ref)
        gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="continuous")
        proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
        theta0 = 1.25 * theta_star_indirect(sol.K1, sol.K2)
        init = InitialConditions(theta0=theta0)
        sig = ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.5]])
        trace = run_indirect_scenario(plant, ref, sig, gains, proj, init,
                                      1500, h=0.01)
        assert not trace.diverged
        assert np.all(trace.dV[:-1] <= 1e-6)
        theta2 = trace.theta[:, 2, 0]
        assert np.all(theta2 >= 1.0 - 1e-12)
