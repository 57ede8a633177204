"""Every runner checks its inputs against the plant's n and M before the
first step, and the value types behave as plain Python values: validating
types by identity, records as immutable namedtuples."""

import numpy as np
import pytest

from mrac import (DirectGainConfig, GainError, IndirectGainConfig,
                  InitialConditions, LyapunovDirectGains,
                  LyapunovIndirectGains, ModelError, PlantModel,
                  ProjectionConfig, ProjectionError, ReferenceSignal,
                  direct_V_series, gamma0_direct, random_matchable_instance,
                  run_direct_scenario, run_indirect_scenario,
                  run_lyapunov_scenario)
from mrac.scenario import benchmark_config, run_scenario


def instance(n=2, M=2, time_domain="discrete", seed=3):
    plant, ref, _, _ = random_matchable_instance(n, M, seed, time_domain)
    return plant, ref, ReferenceSignal.constant([1.0] * M)


def test_direct_sign_k2_must_give_every_input_a_sign():
    plant, ref, sig = instance()
    gains = DirectGainConfig(Gamma=0.1 * np.eye(4), gamma=1.0, sign_k2=[1],
                             k2_lower=1.0)
    with pytest.raises(GainError, match=r"^sign_k2 must have shape \(2,\) "
                       r"on a plant with n=2, M=2, got \(1,\)$"):
        run_direct_scenario(plant, ref, sig, gains, InitialConditions(), 10)


def test_direct_gamma_blocks_must_be_n_plus_m_square():
    plant, ref, sig = instance()
    gains = DirectGainConfig(Gamma=0.1 * np.eye(3), gamma=1.0,
                             sign_k2=[1, 1], k2_lower=1.0)
    with pytest.raises(GainError, match=r"^Gamma must have shape "
                       r"\(2, 4, 4\) .*got \(2, 3, 3\)$"):
        run_direct_scenario(plant, ref, sig, gains, InitialConditions(), 10)


def test_indirect_single_gamma_block_is_one_input():
    plant, ref, sig = instance()
    with pytest.raises(GainError, match=r"^Gamma must have shape "
                       r"\(2, 4, 4\) .*got \(1, 4, 4\)$"):
        run_indirect_scenario(plant, ref, sig,
                              IndirectGainConfig(Gamma=0.5 * np.eye(4)), None,
                              InitialConditions(), 10)


def test_lyapunov_indirect_gamma2_is_not_spread_over_the_inputs():
    # this run used to reach its horizon with Gamma2 broadcast
    plant, ref, sig = instance(time_domain="continuous")
    gains = LyapunovIndirectGains(Gamma1=np.eye(2), Gamma2=np.eye(1))
    with pytest.raises(GainError, match=r"^Gamma2 must have shape \(2, 2\) "
                       r".*got \(1, 1\)$"):
        run_lyapunov_scenario(plant, ref, sig, "indirect", gains, None,
                              InitialConditions(), 10)


def test_lyapunov_direct_s_p_is_m_square():
    plant, ref, sig = instance(time_domain="continuous")
    with pytest.raises(GainError, match=r"^S_p must have shape \(2, 2\) "
                       r".*got \(3, 3\)$"):
        run_lyapunov_scenario(plant, ref, sig, "direct",
                              LyapunovDirectGains(S_p=np.eye(3)), None,
                              InitialConditions(), 10)


@pytest.mark.parametrize("law, side", [("standard", 2), ("transposed", 1)])
def test_lyapunov_indirect_gamma1_fits_its_law(law, side):
    plant, ref, sig = instance(M=1, time_domain="continuous")
    gains = LyapunovIndirectGains(Gamma1=np.eye(3), Gamma2=np.eye(1),
                                  theta1_law=law)
    with pytest.raises(GainError, match=rf"^Gamma1 must have shape "
                       rf"\({side}, {side}\) .*got \(3, 3\)$"):
        run_lyapunov_scenario(plant, ref, sig, "indirect", gains, None,
                              InitialConditions(), 10)


def test_lyapunov_reference_of_another_order_is_named():
    # the run used to fail solving for P with Q of the plant's order
    plant, _, sig = instance(M=1, time_domain="continuous")
    _, ref, _ = instance(n=3, M=1, time_domain="continuous")
    gains = LyapunovDirectGains(Gamma=np.eye(2), gamma=1.0, sign_k2=1.0)
    with pytest.raises(ModelError, match="^plant and reference model "
                       "dimensions differ$"):
        run_lyapunov_scenario(plant, ref, sig, "direct", gains, None,
                              InitialConditions(), 10)


@pytest.mark.parametrize("M, init, message", [
    (2, InitialConditions(x0=[1.0, 2.0, 3.0]),
     r"^x0 must have shape \(2,\), got \(3,\)$"),
    (1, InitialConditions(rho0=[1.0, 2.0]),
     r"^rho0 must have shape \(1,\), got \(2,\)$")])
def test_initial_states_must_fit(M, init, message):
    plant, ref, sig = instance(M=M)
    gains = DirectGainConfig(Gamma=0.1 * np.eye(2 + M), gamma=1.0,
                             sign_k2=[1.0] * M, k2_lower=1.0)
    with pytest.raises(ModelError, match=message):
        run_direct_scenario(plant, ref, sig, gains, init, 10)


@pytest.mark.parametrize("make, error, message", [
    (lambda: DirectGainConfig(0.1 * np.eye(4), gamma=[1, 1, 1],
                              sign_k2=[1, 1], k2_lower=[0.5, 0.5]),
     GainError, r"^gamma must have shape \(2,\), got \(3,\)$"),
    (lambda: DirectGainConfig(0.1 * np.eye(4), gamma=1.0, sign_k2=[1, 1],
                              k2_lower=[0.5, 0.5, 0.5]),
     GainError, r"^k2_lower must have shape \(2,\), got \(3,\)$"),
    (lambda: ProjectionConfig([0.1, 0.2, 0.3], [1, 1]),
     ProjectionError, r"^theta2_lower must have shape \(2,\), got \(3,\)$"),
    (lambda: gamma0_direct(np.eye(3), [1, 1, 1], [1, 2]),
     GainError, r"^gamma must have shape \(2,\), got \(3,\)$"),
    (lambda: direct_V_series(np.zeros((3, 3, 2)), np.zeros((3, 2)),
                             np.zeros((3, 2)), [1, 2], np.eye(3), [1, 1, 1],
                             np.zeros((3, 1)), np.ones(3)),
     GainError, r"^gamma must have shape \(2,\), got \(3,\)$")],
    ids=["DirectGainConfig.gamma", "DirectGainConfig.k2_lower",
         "ProjectionConfig.theta2_lower", "gamma0_direct", "direct_V_series"])
def test_a_per_input_vector_of_another_size_is_named(make, error, message):
    # one entry or one per input; numpy's broadcast error used to escape
    with pytest.raises(error, match=message):
        make()


@pytest.mark.parametrize("h, method, message", [
    (0.0, "rk4", r"^h must be positive and finite, got 0\.0$"),
    (float("nan"), "rk4", r"^h must be positive and finite, got nan$"),
    (float("inf"), "rk4", r"^h must be positive and finite, got inf$"),
    (0.01, "foo", r"^method must be 'rk4' or 'euler', got 'foo'$")],
    ids=["zero", "nan", "inf", "method"])
@pytest.mark.parametrize("scheme", ["direct", "indirect", "lyapunov"])
def test_a_continuous_step_and_method_are_checked_first(scheme, h, method,
                                                        message):
    # each used to fail inside the first step, or report a divergence at
    # step 0, after set-up
    plant, ref, sig = instance(M=1, time_domain="continuous")
    domain = "continuous"
    if scheme == "direct":
        run = run_direct_scenario
        args = (DirectGainConfig(np.eye(3), 1.0, [1.0], 1.0, domain),)
    elif scheme == "indirect":
        run = run_indirect_scenario
        args = (IndirectGainConfig(np.eye(3), domain), None)
    else:
        run = run_lyapunov_scenario
        args = ("indirect", LyapunovIndirectGains(np.eye(2), np.eye(1)), None)
    with pytest.raises(ModelError, match=message):
        run(plant, ref, sig, *args, InitialConditions(), 10, h=h,
            method=method)
    # a discrete run has no step size or integrator to check
    if scheme != "lyapunov":
        plant, ref, sig = instance(M=1)
        args = ((DirectGainConfig(0.1 * np.eye(3), 1.0, [1.0], 1.0),)
                if scheme == "direct" else (IndirectGainConfig(np.eye(3)),
                                            None))
        init = InitialConditions(theta0=[[0.0], [0.0], [1.0]])
        assert run(plant, ref, sig, *args, init, 10, h=h,
                   method=method).steps == 11


def test_one_rho0_entry_stands_for_every_input():
    x0, xm0, theta0, rho0, xhat0 = InitialConditions(
        x0=[[1.0], [2.0]], rho0=0.5).resolved(2, 4, 2)
    assert x0.tolist() == [1.0, 2.0] and xhat0.tolist() == [1.0, 2.0]
    assert rho0.tolist() == [0.5, 0.5]
    assert not xm0.any() and theta0.shape == (4, 2) and not theta0.any()


def test_a_sinusoid_channel_needs_a_tone():
    for amplitudes in ([[]], [], np.zeros((2, 0))):
        with pytest.raises(ModelError, match="at least one tone"):
            ReferenceSignal.sinusoids(amplitudes, amplitudes)


def test_validating_types_compare_by_identity():
    A, B = [[1.0, -1.0], [2.0, 1.0]], [[0.0], [2.0]]
    plant = PlantModel(A, B)
    gains = DirectGainConfig(0.5 * np.eye(3), 1.5, 1.0, 0.5)
    # the generated equality compared arrays and raised
    assert plant == plant and plant != PlantModel(A, B)
    assert gains != DirectGainConfig(0.5 * np.eye(3), 1.5, 1.0, 0.5)
    assert len({plant, gains, plant}) == 2
    assert repr(plant).startswith("<mrac.systems.PlantModel object at ")


def test_lyapunov_direct_gains_keep_what_they_are_given():
    gains = LyapunovDirectGains(Gamma=[[2.0]], gamma=1.0, S_p=1.0)
    assert gains.Gamma == [[2.0]] and gains.gamma == 1.0
    assert gains.sign_k2 is None and gains.S_p.tolist() == [[1.0]]
    single = LyapunovDirectGains(Gamma=2.0, gamma=1.0, sign_k2=-1.0)
    assert single.Gamma.tolist() == [[2.0]] and single.S_p is None


def test_records_are_immutable_and_replace_copies():
    run = run_scenario(benchmark_config())
    trace = run.trace
    with pytest.raises(AttributeError):
        trace.diverged = True
    with pytest.raises(AttributeError):
        run.exit_status = 3
    changed = trace._replace(diverged=True)
    assert changed is not trace and changed.diverged and not trace.diverged
    assert changed.x is trace.x and changed.summary is trace.summary
    # to_dict copies, so editing it leaves the config as it was
    data = run.config.to_dict()
    data["gains"]["Gamma"] = 0.1
    assert run.config.gains["Gamma"] == 0.5
