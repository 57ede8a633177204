import math

import numpy as np
import pytest

from mrac import (GainError, IndirectGainConfig,
                  InitialConditions, ProjectionConfig,
                  ProjectionError, ReferenceModel, RegressorFrame,
                  SingularGainError,
                  check_delta_V, control_indirect, epsilon_indirect,
                  indirect_V_series, make_indirect_state,
                  recover_controller_gains, run_indirect_scenario,
                  solve_matching, stack_plant_estimate, step_estimator,
                  theta_star_indirect, update_indirect_ct,
                  update_indirect_discrete)
from mrac.indirect import IndirectControllerState, indirect_step_values
from conftest import K1_TRUE, K2_TRUE, mimo_indirect_case

THETA1_TRUE = np.array([-0.95, -2.2])  # k1*/k2*
THETA2_TRUE = 2.0  # 1/k2*


def toy_frame(zeta, xi, m):
    return RegressorFrame(zeta=np.asarray(zeta, float),
                          xi=np.asarray(xi, float), m=float(m))


def replay_indirect(plant, ref, signal, gains, projection, init, horizon):
    """Replay a discrete indirect run from the component ops (filter bank,
    epsilon_indirect, control_indirect, indirect_step_values,
    step_estimator).

    Returns one dict of recorded signals per step and the step at which
    controller recovery refused to invert Theta2 (None when it never did).
    """
    n, M = plant.n, plant.n_inputs
    x, xm, theta0, _, xhat0 = init.resolved(n, n + M, M)
    state = make_indirect_state(ref, theta0, xhat0=xhat0,
                                projection=projection)
    proj_on = projection is not None and projection.enabled
    records = []
    for t in range(horizon + 1):
        r = signal.at(t)
        frame = state.bank.frame(state.theta, include_xi_in_m=M > 1)
        eps = epsilon_indirect(state.x_hat - x, frame.xi)
        try:
            u = control_indirect(state, projection, x, r)
        except SingularGainError:
            return records, t
        rec = dict(theta=state.theta, x_hat=state.x_hat, x=x, x_m=xm,
                   e=x - xm, eps=eps, m=frame.m, u=u, proj_g2=np.zeros(M),
                   proj_f2=np.zeros(M))
        records.append(rec)
        if t == horizon:
            break
        theta_next, g2, f2 = indirect_step_values(state.theta, gains,
                                                  projection, eps, frame)
        if proj_on:
            rec.update(proj_g2=g2, proj_f2=f2)
        new_state = IndirectControllerState(
            theta=theta_next, x_hat=step_estimator(state, ref, x, u),
            bank=state.bank)
        state.bank.advance(np.concatenate([-x, u]), state.theta)
        state = new_state
        x = plant.A @ x + plant.B @ u
        xm = ref.A_m @ xm + ref.B_m @ r
    return records, None


class TestEstimator:
    def test_exact_parameters_track_the_plant(self, bench_plant, bench_ref):
        theta = stack_plant_estimate(THETA1_TRUE, [[THETA2_TRUE]])
        state = make_indirect_state(bench_ref, theta, xhat0=[0.3, -0.7])
        x = np.array([0.3, -0.7])
        rng = np.random.default_rng(0)
        for _ in range(60):
            u = rng.normal()
            nxt = step_estimator(state, bench_ref, x, u)
            x = bench_plant.A @ x + bench_plant.B[:, 0] * u
            state.x_hat = nxt
            assert np.max(np.abs(state.x_hat - x)) <= 1e-9 * max(1.0, np.max(np.abs(x)))

    def test_homogeneous_decay(self, bench_ref):
        theta = stack_plant_estimate(np.zeros(2), [[1.0]])
        state = make_indirect_state(bench_ref, theta, xhat0=[1.0, -1.0])
        e = np.array([1.0, -1.0])
        for _ in range(30):
            state.x_hat = step_estimator(state, bench_ref, np.zeros(2), 0.0)
            e = bench_ref.A_m @ e
            assert np.allclose(state.x_hat, e, atol=1e-14)

    def test_arithmetic_example(self, bench_ref):
        theta = stack_plant_estimate([1.0, 0.0], [[2.0]])
        state = make_indirect_state(bench_ref, theta, xhat0=[1.0, 0.0])
        out = step_estimator(state, bench_ref, [1.0, 1.0], 0.5)
        assert np.allclose(out, [1.0, 1.05])


class TestEpsilon:
    def test_zero_xi(self):
        assert np.allclose(epsilon_indirect([0.2, -0.1], np.zeros((2, 1))),
                           [0.2, -0.1])

    def test_all_zero(self):
        assert np.allclose(epsilon_indirect(np.zeros(2), np.zeros((2, 1))), 0.0)

    def test_arithmetic(self):
        out = epsilon_indirect([0.2, -0.1], [[0.05], [0.05]])
        assert np.allclose(out, [0.25, -0.05])


class TestProjection:
    def _gains(self):
        return IndirectGainConfig(Gamma=np.eye(2), time_domain="discrete")

    def test_interior_zero_epsilon(self):
        theta = np.array([[0.5], [1.5]])
        proj = ProjectionConfig(theta2_lower=1.0, signs=1.0)
        frame = toy_frame(np.ones((1, 1, 2)), np.zeros((1, 1)), 1.0)
        nxt, g2, f2 = indirect_step_values(theta, self._gains(), proj,
                                           [0.0], frame)
        assert np.all(nxt == theta)
        assert f2[0] == 0.0

    def test_landing_on_the_bound(self):
        # g2 = -0.5 pulls theta2 from 1.0 to 0.5; projection lands it on 1.0
        theta = np.array([[0.0], [1.0]])
        proj = ProjectionConfig(theta2_lower=1.0, signs=1.0)
        z = np.zeros((1, 1, 2))
        z[0, 0, 1] = 0.5
        frame = toy_frame(z, np.zeros((1, 1)), 1.0)
        nxt, g2, f2 = indirect_step_values(theta, self._gains(), proj,
                                           [1.0], frame)
        assert g2[0] == pytest.approx(-0.5, abs=1e-15)
        assert f2[0] == pytest.approx(0.5, abs=1e-15)
        assert nxt[1, 0] == 1.0

    def test_no_clip_branch(self):
        theta = np.array([[0.0], [1.5]])
        proj = ProjectionConfig(theta2_lower=1.0, signs=1.0)
        z = np.zeros((1, 1, 2))
        z[0, 0, 1] = 0.2
        frame = toy_frame(z, np.zeros((1, 1)), 1.0)
        nxt, g2, f2 = indirect_step_values(theta, self._gains(), proj,
                                           [1.0], frame)
        assert g2[0] == pytest.approx(-0.2, abs=1e-15)
        assert f2[0] == 0.0
        assert nxt[1, 0] == pytest.approx(1.3, abs=1e-15)

    def test_negative_sign_lands_on_negative_bound(self):
        theta = np.array([[0.0], [-1.05]])
        proj = ProjectionConfig(theta2_lower=1.0, signs=-1.0)
        z = np.zeros((1, 1, 2))
        z[0, 0, 1] = -0.3  # raw step g2 = +0.3, toward zero
        frame = toy_frame(z, np.zeros((1, 1)), 1.0)
        nxt, g2, f2 = indirect_step_values(theta, self._gains(), proj,
                                           [1.0], frame)
        assert g2[0] == pytest.approx(0.3, abs=1e-15)
        assert nxt[1, 0] == -1.0
        # (theta2 - theta2* + g2 + f2) f2 <= 0 whenever |theta2*| >= bound
        for theta2_star in (-1.0, -1.7, -2.5):
            assert (theta[1, 0] - theta2_star + g2[0] + f2[0]) * f2[0] <= 1e-15

    def test_bad_initial_estimate_rejected(self, bench_ref):
        proj = ProjectionConfig(theta2_lower=1.0, signs=1.0)
        with pytest.raises(ProjectionError):
            make_indirect_state(bench_ref,
                                stack_plant_estimate([0.0, 0.0], [[0.5]]),
                                projection=proj)

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
        theta = stack_plant_estimate(THETA1_TRUE, [[THETA2_TRUE]])
        state = make_indirect_state(
            ReferenceModel(A_m=[[1.0, -1.0], [1.05, -1.2]], B_m=[[0.0], [1.0]]),
            theta)
        proj = ProjectionConfig(theta2_lower=1.0, signs=1.0)
        u = control_indirect(state, proj, [1.0, 1.0], 1.0)
        assert u[0] == pytest.approx(-1.075, abs=1e-14)
        nominal = K1_TRUE @ np.array([1.0, 1.0]) + K2_TRUE * 1.0
        assert u[0] == pytest.approx(nominal, abs=1e-14)

    def test_unit_theta2_passes_reference_through(self, bench_ref):
        state = make_indirect_state(bench_ref,
                                    stack_plant_estimate([0.0, 0.0], [[1.0]]))
        u = control_indirect(state, None, [0.0, 0.0], 3.0)
        assert u[0] == pytest.approx(3.0, abs=0)

    def test_mimo_diagonal_inverse(self):
        theta = stack_plant_estimate(np.zeros((3, 2)), np.diag([2.0, 4.0]))
        K1, K2 = recover_controller_gains(theta, None)
        assert np.allclose(K2, np.diag([0.5, 0.25]))
        u = K1.T @ np.zeros(3) + K2 @ np.ones(2)
        assert np.allclose(u, [0.5, 0.25])

    def test_singularity_without_projection(self):
        theta = stack_plant_estimate([0.0, 0.0], [[1e-15]])
        with pytest.raises(SingularGainError):
            recover_controller_gains(theta, None)


class TestContinuousUpdate:
    def _gains(self):
        return IndirectGainConfig(Gamma=np.eye(2), time_domain="continuous")

    def test_interior_zero_unchanged(self, bench_ref):
        state = make_indirect_state(bench_ref,
                                    stack_plant_estimate([0.2, 0.2], [[1.5]]))
        frame = toy_frame(np.ones((2, 1, 3)), np.zeros((2, 1)), 1.0)
        gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="continuous")
        out = update_indirect_ct(state, gains, None,
                                 lambda th: (np.zeros(2), frame), 0.1)
        assert np.allclose(out.theta, state.theta)

    def test_boundary_outward_derivative_freezes(self):
        ref = None
        theta = np.array([[0.0], [1.0]])
        proj = ProjectionConfig(theta2_lower=1.0, signs=1.0)
        gains = self._gains()

        def frame_eval(th):
            z = np.zeros((1, 1, 2))
            z[0, 0, 0] = 0.5
            z[0, 0, 1] = 1.0  # raw derivative on theta2 is -eps/m^2 < 0
            return np.array([1.0]), toy_frame(z, np.zeros((1, 1)), 1.0)

        refm = ReferenceModel(A_m=[[0.9]], B_m=[[1.0]])
        state = make_indirect_state(refm, theta, projection=proj)
        out = update_indirect_ct(state, gains, proj, frame_eval, 0.1)
        assert out.theta[1, 0] == 1.0
        assert out.theta[0, 0] != 0.0  # theta1 still moves

    def test_interior_exponential_toy(self, bench_ref):
        gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="continuous")
        state = make_indirect_state(bench_ref,
                                    stack_plant_estimate([1.0, 0.0], [[5.0]]))

        def frame_eval(th):
            z = np.zeros((2, 1, 3))
            z[0, 0, 0] = 1.0
            return np.array([th[0, 0], 0.0]), toy_frame(z, np.zeros((2, 1)), 1.0)

        out = update_indirect_ct(state, gains, None, frame_eval, 0.1)
        assert out.theta[0, 0] == pytest.approx(math.exp(-0.1), abs=1e-7)


class TestScenario:
    def _setup(self):
        from mrac import PlantModel, ReferenceModel, ReferenceSignal
        plant = PlantModel(A=[[1.0, -1.0], [2.0, 1.0]], B=[[0.0], [2.0]])
        ref = ReferenceModel(A_m=[[1.0, -1.0], [1.05, -1.2]], B_m=[[0.0], [1.0]])
        sig = ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.13]])
        return plant, ref, sig

    def test_estimator_equals_reference_model(self):
        plant, ref, sig = self._setup()
        gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="discrete")
        proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
        theta0 = 1.25 * stack_plant_estimate(THETA1_TRUE, [[THETA2_TRUE]])
        init = InitialConditions(theta0=theta0, xhat0=np.zeros(2))
        trace = run_indirect_scenario(plant, ref, sig, gains, proj, init, 800)
        assert np.max(np.abs(trace.x_hat - trace.x_m)) <= 1e-12

    def test_exact_parameters_freeze(self):
        plant, ref, sig = self._setup()
        gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="discrete")
        theta0 = stack_plant_estimate(THETA1_TRUE, [[THETA2_TRUE]])
        init = InitialConditions(theta0=theta0)
        trace = run_indirect_scenario(plant, ref, sig, gains, None, init, 300)
        assert np.max(np.abs(trace.x_hat - trace.x)) <= 1e-10
        assert np.max(np.abs(trace.theta - trace.theta[0])) <= 1e-10

    def test_projection_fires_and_invariants_hold(self):
        plant, ref, sig = self._setup()
        proj = ProjectionConfig.from_k2_upper(0.5, 1.0)  # bound sits at 2.0
        gains = IndirectGainConfig(Gamma=np.diag([1.5, 1.5, 1.5]),
                                   time_domain="discrete")
        init = InitialConditions(theta0=np.array([[-0.5], [-1.0], [2.05]]))
        trace = run_indirect_scenario(plant, ref, sig, gains, proj, init, 2000)
        assert trace.proj_fired.sum() > 0
        theta2 = trace.theta[:, 2, 0]
        assert np.all(theta2 >= 2.0 - 1e-12)
        assert np.all(np.sign(theta2) == 1.0)
        prod = (theta2[:-1] - THETA2_TRUE + trace.proj_g2[:-1, 0]
                + trace.proj_f2[:-1, 0]) * trace.proj_f2[:-1, 0]
        assert np.max(prod) <= 1e-12
        series = indirect_V_series(trace.theta,
                                   stack_plant_estimate(THETA1_TRUE, [[THETA2_TRUE]]),
                                   gains.Gamma, trace.eps, trace.m)
        ok, first = check_delta_V(series, tolerance=1e-10)
        assert ok, f"bound violated at step {first} despite projection"

    def test_boundedness_tails(self):
        plant, ref, sig = self._setup()
        gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="discrete")
        proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
        theta0 = 1.25 * stack_plant_estimate(THETA1_TRUE, [[THETA2_TRUE]])
        init = InitialConditions(theta0=theta0)
        trace = run_indirect_scenario(plant, ref, sig, gains, proj, init, 5000)
        assert trace.summary.sup_theta < 10.0
        assert np.sum(np.diff(trace.theta[-501:], axis=0) ** 2) < 1e-6

    def test_runner_matches_op_composition(self):
        plant, ref, sig = self._setup()
        gains = IndirectGainConfig(Gamma=np.diag([0.8, 0.8, 1.2]),
                                   time_domain="discrete")
        proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
        theta0 = 1.25 * stack_plant_estimate(THETA1_TRUE, [[THETA2_TRUE]])
        init = InitialConditions(theta0=theta0)
        horizon = 120
        trace = run_indirect_scenario(plant, ref, sig, gains, proj, init, horizon)
        state = make_indirect_state(ref, theta0, xhat0=np.zeros(2),
                                    projection=proj)
        x = np.zeros(2)
        for t in range(horizon + 1):
            r = sig.at(t)
            frame = state.bank.frame(state.theta, include_xi_in_m=False)
            eps = epsilon_indirect(state.x_hat - x, frame.xi)
            u = control_indirect(state, proj, x, r)
            assert np.max(np.abs(trace.theta[t] - state.theta)) <= 1e-12
            assert np.max(np.abs(trace.eps[t] - eps)) <= 1e-12
            assert abs(trace.m[t] - frame.m) <= 1e-12
            assert np.max(np.abs(trace.u[t] - u)) <= 1e-12
            assert np.max(np.abs(trace.x_hat[t] - state.x_hat)) <= 1e-12
            if t == horizon:
                break
            omega = np.concatenate([-x, u])
            new_state = update_indirect_discrete(state, gains, proj, eps, frame)
            new_state.x_hat = step_estimator(state, ref, x, u)
            state.bank.advance(omega, state.theta)
            state = new_state
            x = plant.A @ x + plant.B @ u

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
        assert not trace.diverged and trace.steps == len(records)
        for name in ("theta", "x_hat", "x", "x_m", "e", "eps", "m", "u",
                     "proj_g2", "proj_f2"):
            expected = np.array([rec[name] for rec in records])
            assert np.max(np.abs(getattr(trace, name) - expected)) <= 1e-12, name
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
        from conftest import ct_instance
        from mrac import ReferenceSignal
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
        from conftest import ct_instance
        from mrac import ReferenceSignal
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
