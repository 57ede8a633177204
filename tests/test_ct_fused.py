"""The fused continuous-time runners against the unfused algebra, and the
order of the integration they step through."""

import numpy as np
import pytest

import ct_oracle
from mrac import (DirectGainConfig, IndirectGainConfig, InitialConditions,
                  LyapunovDirectGains, LyapunovIndirectGains, ProjectionConfig,
                  ReferenceSignal, SingularGainError, random_matchable_instance,
                  run_direct_scenario, run_indirect_scenario,
                  run_lyapunov_scenario, solve_matching,
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
        gains = LyapunovDirectGains(
            S_p=np.diag(np.sign(np.diag(K2s)) * [1.0, 2.0]))
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

    def test_indirect_projection_is_recorded_and_checked(self):
        # theta2 starts on its bound 1/0.45 above |theta2*| = 2, where the
        # projection holds it; the run records its rate, the correction and
        # where it fired as the gradient scheme's run does, and checks the
        # bound among its invariants
        plant, ref = ct_instance()
        sol = solve_matching(plant, ref)
        gains = LyapunovIndirectGains(Gamma1=np.eye(2), Gamma2=[[1.0]])
        proj = ProjectionConfig.from_k2_upper(0.45, 1.0)
        theta0 = theta_star_indirect(sol.K1, sol.K2)
        theta0[2, 0] = 1.0 / 0.45
        init = InitialConditions(theta0=theta0, x0=[1.0, -0.5])
        signal = ReferenceSignal.sinusoids(amplitudes=[[1.0]],
                                           frequencies=[[0.7]])
        args = (plant, ref, signal, "indirect", gains, proj, init)
        trace = run_lyapunov_scenario(*args, 2000, h=0.01)
        records, diverged_at = ct_oracle.replay_lyapunov(*args, 2000)
        assert records["proj_fired"].sum() > 100
        assert_records_match(trace, records, diverged_at)

        data = {"name": "riding", "scheme": "lyapunov_indirect",
                "time_domain": "continuous",
                "plant": {"A": plant.A.tolist(), "B": plant.B.tolist()},
                "reference": {"A_m": ref.A_m.tolist(),
                              "B_m": ref.B_m.tolist()},
                "signal": {"kind": "sum_of_sinusoids", "amplitudes": [[1.0]],
                           "frequencies": [[0.7]]},
                "gains": {"Gamma1": 1.0, "Gamma2": 1.0},
                "projection": {"signs": 1, "k2_upper": 0.45},
                "init": {"theta0": theta0.tolist(), "x0": [1.0, -0.5]},
                "horizon": 2000, "ct_step": 0.01}
        run = run_scenario(config_from_dict(data))
        # theta* lies outside the bound, so V may rise while it holds
        assert run.invariants["projection_ok"] is True
        assert np.array_equal(run.trace.proj_fired, trace.proj_fired)


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


def _ct_runs():
    """The four continuous-time schemes on the second-order instance: the
    module whose ``integrate_ct`` each runner steps through, the runner,
    its oracle and the runner's arguments."""
    import mrac.direct
    import mrac.indirect
    import mrac.lyapunov
    plant, ref, sig, gains, init = direct_siso()
    yield (mrac.direct, run_direct_scenario, ct_oracle.replay_direct_ct,
           (plant, ref, sig, gains, init))
    yield (mrac.indirect, run_indirect_scenario, ct_oracle.replay_indirect_ct,
           indirect_siso())
    for mode in ("direct", "indirect"):
        plant, ref, sig, gains, proj, init = lyapunov_siso(mode)
        yield (mrac.lyapunov, run_lyapunov_scenario, ct_oracle.replay_lyapunov,
               (plant, ref, sig, mode, gains, proj, init))


def _count_integrations(monkeypatch, module):
    """Count the calls of ``module.integrate_ct`` that return a state."""
    done = []
    real = module.integrate_ct

    def counted(*a, **kw):
        out = real(*a, **kw)
        done.append(1)
        return out

    monkeypatch.setattr(module, "integrate_ct", counted)
    return done


class TestOneIntegrationPerStep:
    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("case", range(4), ids=[
        "direct", "indirect", "lyapunov_direct", "lyapunov_indirect"])
    def test_each_step_calls_its_module_integrate_ct_once(
            self, monkeypatch, case, method):
        module, run, _, args = list(_ct_runs())[case]
        done = _count_integrations(monkeypatch, module)
        trace = run(*args, HORIZON, h=0.01, method=method)
        assert not trace.diverged
        assert len(done) == HORIZON


class TestTheta2Positions:
    @pytest.mark.parametrize("M", [1, 2])
    def test_indirect_positions_name_every_theta2_copy(self, M):
        from mrac.indirect import _carry, _floor, _indirect_law
        plant, ref, K1s, K2s = random_matchable_instance(3, M, 4, "continuous")
        gains = IndirectGainConfig(Gamma=np.stack([np.eye(3 + M)] * M),
                                   time_domain="continuous")
        P = theta_star_indirect(K1s, K2s).T.copy()
        law = _indirect_law(plant.A, plant.B, ref.A_m, ref.B_m, gains, P,
                            np.zeros(3), np.zeros(3), np.zeros(3))
        NW = law.W.stop - law.W.start
        assert law.theta2_at.shape == (2, M)
        # the positions are exactly the entries law.theta2 names
        W = np.zeros(NW)
        for copy in law.theta2(W):
            copy += 1.0
        assert np.array_equal(np.flatnonzero(W),
                              np.sort(law.theta2_at.ravel()))
        # and each holds theta2_j of the initial state
        W0 = law.z0[law.nF:]
        for copy in W0[law.theta2_at]:
            assert np.array_equal(copy, np.diag(P[:, 3:]))

        # the clamp lands a copy below its bound on s * lower and leaves
        # every other entry of z alone
        signs = np.sign(np.diag(K2s))
        lower = 0.5 * np.abs(np.diag(K2s))
        proj = ProjectionConfig(theta2_lower=lower, signs=signs)
        _carry(law, proj, _floor(proj, M, stage=True))
        _, clamp = law.ct_guards()
        z = np.random.default_rng(M).normal(size=law.z0.shape[0])
        at = law.nF + law.theta2_at
        # the first copies inside the bound, the second outside it
        z[at] = signs * lower * np.array([[0.5] * M, [2.0] * M])
        before = z.copy()
        clamp(z)
        assert np.array_equal(z[at[0]], signs * lower)
        rest = np.delete(np.arange(z.shape[0]), at[0])
        assert np.array_equal(z[rest], before[rest])

    @pytest.mark.parametrize("M", [1, 2])
    def test_lyapunov_positions_name_the_theta2_diagonal(self, M):
        from mrac.lyapunov import build_lyapunov_loop
        plant, ref, K1s, K2s = random_matchable_instance(3, M, 5, "continuous")
        signal = ReferenceSignal.constant(np.ones(M))
        gains = LyapunovIndirectGains(Gamma1=np.eye(3), Gamma2=np.eye(M))
        signs, lower = np.ones(M), np.full(M, 1.5)
        proj = ProjectionConfig(theta2_lower=lower, signs=signs)
        loop = build_lyapunov_loop(plant, ref, signal, "indirect", gains, proj)
        law = loop.law
        T2 = np.diag(1.0 + np.arange(M))
        z = loop.pack(np.ones(3), np.ones(3), np.ones((3, M)), T2, np.ones(3))
        at = law.nF + law.theta2_at
        assert np.array_equal(z[at], np.diag(T2))
        # the step reads theta2 (its views' entry 14) at the same positions
        row = np.zeros(law.width)
        row[law.W] = z[law.nF:]
        assert np.array_equal(law.views(row, row[law.dF])[14], np.diag(T2))
        # and so do the guards, through law.th2
        assert np.array_equal(row[law.W][law.th2], np.diag(T2))

        # the runner's clamp, which the law carries with the projection
        _, clamp = law.ct_guards()
        before = z.copy()
        clamp(z)
        assert z[at[0]] == 1.5
        assert np.array_equal(np.delete(z, at[:1]), np.delete(before, at[:1]))


    def test_the_guards_take_a_block_of_members(self):
        # a stacked law's clamp and rate check act on a (2, ...) block of
        # two members with bounds of their own as each member's law acts
        # on its own row
        from mrac import SingularGainError, _rows
        from mrac.indirect import _carry, _floor, _indirect_law
        M = 2
        plant, ref, K1s, K2s = random_matchable_instance(3, M, 4, "continuous")
        gains = IndirectGainConfig(Gamma=np.stack([np.eye(3 + M)] * M),
                                   time_domain="continuous")
        P = theta_star_indirect(K1s, K2s).T.copy()
        signs = np.sign(np.diag(K2s))
        laws = []
        for scale in (0.5, 0.8):
            law = _indirect_law(plant.A, plant.B, ref.A_m, ref.B_m, gains, P,
                                np.zeros(3), np.zeros(3), np.zeros(3))
            proj = ProjectionConfig(scale * np.abs(np.diag(K2s)), signs)
            _carry(law, proj, _floor(proj, M, stage=True))
            laws.append(law)
        group = _rows.stack(laws)
        lower = np.stack([law.theta2_lower for law in laws])
        at = group.nF + group.theta2_at
        rng = np.random.default_rng(4)
        # the first copies inside the bound, the second outside it
        z = rng.normal(size=(2, group.z0.shape[-1]))
        z[:, at] = (signs * lower)[:, None, :] * np.array([[0.9], [1.5]])
        clamped = z.copy()
        group.ct_guards()[1](clamped)
        assert not np.array_equal(clamped, z)
        rows = np.zeros((2, group.width))
        # theta2 on the bound, its rate outward for input 0 only
        rows[:, group.W] = z[:, group.nF:]
        rows[:, group.W.start + group.theta2_at] = (signs * lower)[:, None]
        rows[:, group.dW] = rng.normal(size=(2, group.dW.stop
                                             - group.dW.start))
        rows[:, group.dW.start + group.theta2_at] = signs * [-1.0, 1.0]
        dz = slice(group.dF.start, group.dW.stop)

        def views(row):
            return row[..., group.W][..., group.th2], \
                row[..., group.dW][..., group.th2]

        rates = group.ct_guards()[0](views(rows), rows[:, dz])
        assert np.any(rates != rows[:, dz])
        for b, law in enumerate(laws):
            alone = z[b].copy()
            law.ct_guards()[1](alone)
            assert np.array_equal(clamped[b], alone)
            guard = law.ct_guards()[0]
            assert np.array_equal(rates[b], guard(views(rows[b]),
                                                  rows[b, dz]))
        # a member below its floor stops the block
        rows[1, group.W.start + group.theta2_at[0]] = 0.1 * lower[1]
        with pytest.raises(SingularGainError):
            group.ct_guards()[0](views(rows), rows[:, dz])


class TestDivergenceOnTheInputs:
    @pytest.mark.parametrize("case", range(4), ids=[
        "direct", "indirect", "lyapunov_direct", "lyapunov_indirect"])
    def test_first_nonfinite_in_u_or_m2_matches_oracle(self, monkeypatch,
                                                       case):
        # r is 0 until t = 1 and 1e306 from then on, with zero states, so
        # only the last stage of step 99 sees it and step 100's state is
        # finite; then m^2 (gradient) or, with a large x gain, u
        # (Lyapunov) overflows at step 100, before any state does
        module, run, replay, args = list(_ct_runs())[case]
        jump = ReferenceSignal.from_samples([[0.0], [1e306]])
        theta0 = args[-1].theta0.copy()
        if run is run_lyapunov_scenario:
            theta0[1] = 1e6
        init = InitialConditions(theta0=theta0, rho0=args[-1].rho0)
        args = (*args[:2], jump, *args[3:-1], init)
        done = _count_integrations(monkeypatch, module)
        trace = run(*args, HORIZON, h=0.01)
        records, diverged_at = replay(*args, HORIZON)
        assert trace.diverged_at == diverged_at == 100
        # every step before 100 integrated to a finite state, x included
        assert len(done) == 100
        assert_records_match(trace, records, diverged_at)
