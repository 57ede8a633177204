"""The fused continuous-time runners against the unfused algebra, and the
order of the integration they step through."""

import numpy as np
import pytest

import ct_oracle
from mrac import (DirectGainConfig, IndirectGainConfig, InitialConditions,
                  LyapunovDirectGains, LyapunovIndirectGains, ProjectionConfig,
                  ReferenceSignal, SingularGainError, random_matchable_instance,
                  run_direct_scenario, run_indirect_scenario,
                  run_lyapunov_scenario, solve_matching, sp_from_signs,
                  stack_controller_gains, theta_star_indirect)
from mrac.scenario import config_from_dict, run_scenario
from conftest import ct_instance

TWO_TONE = dict(amplitudes=[[1.0, 0.8, 0.6], [1.0, 0.8, 0.6]],
                frequencies=[[0.13, 0.79, 1.9], [0.29, 1.1, 2.3]])
# long enough to cross the runners' record chunks twice
HORIZON = 300


def assert_records_match(trace, records, diverged_at):
    assert trace.diverged_at == diverged_at
    for name, expected in records.items():
        got = getattr(trace, name)
        assert got.shape == expected.shape, name
        if name == "V":
            assert np.max(np.abs(got - expected) / np.abs(expected)) <= 1e-12
        elif name == "proj_fired":
            assert np.array_equal(got, expected)
        else:
            assert np.max(np.abs(got - expected), initial=0.0) <= 1e-12, name


def siso_signal():
    return ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.5]])


def direct_siso():
    plant, ref = ct_instance()
    sol = solve_matching(plant, ref)
    gains = DirectGainConfig(Gamma=np.eye(3), gamma=1.0, sign_k2=1.0,
                             k2_lower=0.25, time_domain="continuous")
    init = InitialConditions(
        theta0=1.25 * stack_controller_gains(sol.K1, sol.K2),
        rho0=1.25 / sol.k2, x0=[0.4, -0.2])
    return plant, ref, siso_signal(), gains, init


def direct_mimo(enforce=True):
    plant, ref, K1s, K2s = random_matchable_instance(3, 2, 0, "continuous")
    k2a = 0.5 * np.abs(np.diag(K2s))
    gains = DirectGainConfig(
        Gamma=np.stack([0.9 * k2a[j] * np.eye(5) for j in range(2)]),
        gamma=[1.2, 1.2], sign_k2=np.sign(np.diag(K2s)), k2_lower=k2a,
        time_domain="continuous", enforce_diagonal_k2=enforce)
    init = InitialConditions(theta0=1.15 * stack_controller_gains(K1s, K2s),
                             rho0=1.15 / np.diag(K2s), x0=[0.3, -0.2, 0.1])
    return plant, ref, ReferenceSignal.sinusoids(**TWO_TONE), gains, init


def indirect_siso():
    plant, ref = ct_instance()
    sol = solve_matching(plant, ref)
    gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="continuous")
    proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
    init = InitialConditions(theta0=1.25 * theta_star_indirect(sol.K1, sol.K2),
                             xhat0=[0.3, 0.2])
    return plant, ref, siso_signal(), gains, proj, init


def indirect_mimo():
    plant, ref, K1s, K2s = random_matchable_instance(3, 2, 0, "continuous")
    gains = IndirectGainConfig(Gamma=np.stack([1.2 * np.eye(5)] * 2),
                               time_domain="continuous")
    proj = ProjectionConfig.from_k2_upper(2.0 * np.abs(np.diag(K2s)),
                                          np.sign(np.diag(K2s)))
    init = InitialConditions(theta0=1.15 * theta_star_indirect(K1s, K2s))
    return plant, ref, ReferenceSignal.sinusoids(**TWO_TONE), gains, proj, init


def lyapunov_siso(mode):
    plant, ref = ct_instance()
    sol = solve_matching(plant, ref)
    if mode == "direct":
        gains = LyapunovDirectGains(Gamma=np.eye(2), gamma=1.0, sign_k2=1.0)
        init = InitialConditions(
            theta0=1.25 * stack_controller_gains(sol.K1, sol.K2),
            x0=[1.0, -0.5])
        return plant, ref, siso_signal(), gains, None, init
    gains = LyapunovIndirectGains(Gamma1=np.eye(2), Gamma2=[[1.0]])
    proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
    init = InitialConditions(theta0=1.3 * theta_star_indirect(sol.K1, sol.K2),
                             x0=[1.0, -0.5], xhat0=[0.3, 0.2])
    return plant, ref, siso_signal(), gains, proj, init


def riding_case(enabled=True):
    # a tight bound (|theta2*| = 2) and a start just above it, so the flow
    # presses onto the bound
    plant, ref = ct_instance()
    gains = IndirectGainConfig(Gamma=4.0 * np.eye(3), time_domain="continuous")
    proj = ProjectionConfig.from_k2_upper(0.5, 1.0, enabled=enabled)
    init = InitialConditions(theta0=np.array([[-1.0], [0.2], [2.02]]))
    return plant, ref, siso_signal(), gains, proj, init


class TestFusedGradient:
    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("case", ["siso", "mimo", "mimo-full-k2"])
    def test_direct_matches_oracle(self, case, method):
        args = (direct_siso() if case == "siso"
                else direct_mimo(enforce=case == "mimo"))
        trace = run_direct_scenario(*args, HORIZON, h=0.01, method=method)
        assert_records_match(
            trace, *ct_oracle.replay_direct_ct(*args, HORIZON, 0.01, method))

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("case", [indirect_siso, indirect_mimo])
    def test_indirect_matches_oracle(self, case, method):
        args = case()
        trace = run_indirect_scenario(*args, HORIZON, h=0.01, method=method)
        assert_records_match(
            trace, *ct_oracle.replay_indirect_ct(*args, HORIZON, 0.01, method))

    def test_indirect_projection_records_match_oracle(self):
        args = riding_case()
        trace = run_indirect_scenario(*args, 600, h=0.01)
        records, diverged_at = ct_oracle.replay_indirect_ct(*args, 600)
        assert records["proj_fired"].sum() > 20
        assert_records_match(trace, records, diverged_at)

    @pytest.mark.parametrize("scheme", ["direct", "indirect",
                                        "lyapunov_direct",
                                        "lyapunov_indirect"])
    def test_blow_up_step_matches_oracle(self, scheme):
        # a reference input growing to 1e300 over 3 s drives the loop into
        # overflow
        blow = ReferenceSignal.from_samples(np.geomspace(1.0, 1e300, 3)[:, None])
        if scheme == "direct":
            plant, ref, _, gains, init = direct_siso()
            args = (plant, ref, blow, gains, init)
            run, replay = run_direct_scenario, ct_oracle.replay_direct_ct
        elif scheme == "indirect":
            plant, ref, _, gains, proj, init = indirect_siso()
            args = (plant, ref, blow, gains, proj, init)
            run, replay = run_indirect_scenario, ct_oracle.replay_indirect_ct
        else:
            mode = scheme.split("_")[1]
            plant, ref, _, gains, proj, init = lyapunov_siso(mode)
            args = (plant, ref, blow, mode, gains, proj, init)
            run, replay = run_lyapunov_scenario, ct_oracle.replay_lyapunov
        trace = run(*args, 400, h=0.01)
        records, diverged_at = replay(*args, 400)
        assert diverged_at is not None and trace.diverged
        assert trace.diverged_at == diverged_at == trace.steps
        assert np.all(np.isfinite(trace.x))
        for name in [name for name in ("x", "u", "theta", "m")
                     if name in records]:
            expected = records[name]
            assert np.allclose(getattr(trace, name), expected, rtol=1e-12,
                               atol=1e-12), name

    def test_singular_gain_step_matches_oracle(self, monkeypatch):
        # with the projection off, theta2 leaves through its bound; the run
        # must raise during the same step
        import mrac.indirect
        args = riding_case(enabled=False)
        steps = []
        for module, run in ((mrac.indirect, run_indirect_scenario),
                            (ct_oracle, ct_oracle.replay_indirect_ct)):
            calls = []
            real = module.integrate_ct

            def counted(*a, **kw):
                calls.append(1)
                return real(*a, **kw)

            monkeypatch.setattr(module, "integrate_ct", counted)
            with pytest.raises(SingularGainError):
                run(*args, 2000, h=0.01)
            steps.append(len(calls))
        assert steps[0] == steps[1] > 1


class TestFusedLyapunov:
    @pytest.mark.parametrize("method", ["rk4", "euler"])
    def test_direct_siso_matches_oracle(self, method):
        plant, ref, sig, gains, _, init = lyapunov_siso("direct")
        args = (plant, ref, sig, "direct", gains, None, init)
        trace = run_lyapunov_scenario(*args, HORIZON, h=0.01, method=method)
        assert_records_match(
            trace, *ct_oracle.replay_lyapunov(*args, HORIZON, 0.01, method))

    def test_direct_mimo_matches_oracle(self):
        plant, ref, K1s, K2s = random_matchable_instance(3, 2, 7, "continuous")
        gains = LyapunovDirectGains(S_p=sp_from_signs(np.sign(np.diag(K2s)),
                                                      [1.0, 2.0]))
        init = InitialConditions(theta0=0.8 * stack_controller_gains(K1s, K2s))
        args = (plant, ref, ReferenceSignal.sinusoids(**TWO_TONE), "direct",
                gains, None, init)
        trace = run_lyapunov_scenario(*args, HORIZON, h=0.01)
        assert_records_match(trace, *ct_oracle.replay_lyapunov(*args, HORIZON))

    @pytest.mark.parametrize("law", ["standard", "transposed"])
    def test_indirect_with_projection_matches_oracle(self, law):
        # theta2 starts on a bound above |theta2*| = 2 and the estimator
        # error first pushes it outward, so the projection holds it there
        plant, ref = ct_instance()
        sol = solve_matching(plant, ref)
        gains = LyapunovIndirectGains(Gamma1=np.eye(2 if law == "standard" else 1),
                                      Gamma2=[[4.0]], theta1_law=law)
        proj = ProjectionConfig(theta2_lower=2.1, signs=1.0)
        theta0 = theta_star_indirect(sol.K1, sol.K2) * [[1.2], [0.8], [1.05]]
        init = InitialConditions(theta0=theta0, x0=[1.0, -0.5],
                                 xhat0=[0.5, -1.5])
        args = (plant, ref, siso_signal(), "indirect", gains, proj, init)
        trace = run_lyapunov_scenario(*args, HORIZON, h=0.01)
        records, diverged_at = ct_oracle.replay_lyapunov(*args, HORIZON)
        assert np.sum(records["theta"][:, 2, 0] == 2.1) > 20
        assert_records_match(trace, records, diverged_at)


def _ct_member(scheme, mimo):
    """The continuous-time members of the repository benchmark."""
    if mimo:
        plant, ref, _, K2s = random_matchable_instance(3, 2, 0, "continuous")
        k2 = np.diag(K2s)
        data = {"plant": {"A": plant.A.tolist(), "B": plant.B.tolist()},
                "reference": {"A_m": ref.A_m.tolist(), "B_m": ref.B_m.tolist()},
                "signal": dict(kind="sum_of_sinusoids", **TWO_TONE)}
        if scheme == "direct_gradient":
            k2a = 0.5 * np.abs(k2)
            data["gains"] = {
                "Gamma": [(0.9 * k2a[j] * np.eye(5)).tolist() for j in range(2)],
                "gamma": [1.2, 1.2], "sign_k2": np.sign(k2).tolist(),
                "k2_lower": k2a.tolist()}
            data["init"] = {"theta_scale": 1.15, "rho_scale": 1.15}
        else:
            data["gains"] = {"Gamma": [(1.2 * np.eye(5)).tolist()] * 2}
            data["projection"] = {"signs": np.sign(k2).tolist(),
                                  "k2_upper": (2.0 * np.abs(k2)).tolist()}
            data["init"] = {"theta_scale": 1.15}
    else:
        data = {"plant": {"A": [[0.0, 1.0], [1.0, -1.0]], "B": [[0.0], [2.0]]},
                "reference": {"A_m": [[0.0, 1.0], [-2.0, -3.0]],
                              "B_m": [[0.0], [1.0]]},
                "signal": {"kind": "sum_of_sinusoids", "amplitudes": [[1.0]],
                           "frequencies": [[0.5]]},
                "init": {"theta_scale": 1.25}}
        projection = {"signs": [1.0], "k2_upper": 1.0}
        if scheme == "direct_gradient":
            data["gains"] = {"Gamma": 1.0, "gamma": 1.0, "sign_k2": 1.0,
                             "k2_lower": 0.25}
            data["init"]["rho_scale"] = 1.25
        elif scheme == "indirect_gradient":
            data["gains"] = {"Gamma": 1.0}
            data["projection"] = projection
        elif scheme == "lyapunov_direct":
            data["gains"] = {"Gamma": 1.0, "gamma": 1.0, "sign_k2": 1.0}
        else:
            data["gains"] = {"Gamma1": 1.0, "Gamma2": 1.0}
            data["projection"] = projection
    data.update(scheme=scheme, time_domain="continuous", seed=0)
    return data


@pytest.mark.parametrize("method, low, high", [("rk4", 14.0, 18.5),
                                               ("euler", 1.8, 2.2)])
@pytest.mark.parametrize("scheme, mimo", [
    ("direct_gradient", False), ("indirect_gradient", False),
    ("lyapunov_direct", False), ("lyapunov_indirect", False),
    ("direct_gradient", True), ("indirect_gradient", True)])
def test_integration_keeps_its_order(scheme, mimo, method, low, high):
    # halving h divides the global error by 2^order: the differences of
    # the final [x, theta] between h, h/2 and h/4 shrink by that ratio. An
    # input held at r(t_k) over the mid stages would make RK4 first order.
    finals = []
    for h in (0.02, 0.01, 0.005):
        data = dict(_ct_member(scheme, mimo), horizon=round(4.0 / h),
                    ct_step=h, integrator=method)
        trace = run_scenario(config_from_dict(data)).trace
        assert not trace.diverged and not trace.proj_fired.any()
        finals.append(np.concatenate([trace.x[-1], trace.theta[-1].ravel()]))
    coarse = np.max(np.abs(finals[0] - finals[1]))
    fine = np.max(np.abs(finals[1] - finals[2]))
    assert low <= coarse / fine <= high
