"""The shared row layout of the gradient laws on more shapes: each runner
against its oracle in both domains, and the filter columns of a discrete
run against the reference filter bank."""

import numpy as np
import pytest

import ct_oracle
from discrete_oracle import assert_replayed, replay_direct, replay_indirect
from mrac import (ChannelFilterBank, DirectGainConfig, IndirectGainConfig,
                  InitialConditions, ProjectionConfig, ReferenceSignal,
                  random_matchable_instance, run_direct_scenario,
                  run_indirect_scenario, stack_controller_gains,
                  theta_star_indirect)
from mrac import _rows
from mrac.direct import _direct_law
from mrac.indirect import _indirect_law
from test_ct_fused import assert_records_match

SHAPES = [(1, 1), (4, 1), (4, 3)]
# past one 128-row chunk of the runners
DISCRETE_HORIZON = 200
CT_HORIZON = 140


def signal(M):
    return ReferenceSignal.sinusoids(
        amplitudes=[[1.0, 0.6]] * M,
        frequencies=[[0.13 + 0.11 * j, 1.1 + 0.4 * j] for j in range(M)])


def direct_case(n, M, domain):
    plant, ref, K1s, K2s = random_matchable_instance(n, M, n + M, domain)
    k2a = 0.5 * np.abs(np.diag(K2s))
    gains = DirectGainConfig(
        Gamma=np.stack([0.9 * k2a[j] * np.eye(n + M) for j in range(M)]),
        gamma=np.full(M, 1.2), sign_k2=np.sign(np.diag(K2s)), k2_lower=k2a,
        time_domain=domain)
    init = InitialConditions(theta0=1.15 * stack_controller_gains(K1s, K2s),
                             rho0=1.15 / np.diag(K2s),
                             x0=np.linspace(0.3, -0.2, n))
    return plant, ref, signal(M), gains, init


def indirect_case(n, M, domain):
    plant, ref, K1s, K2s = random_matchable_instance(n, M, n + M, domain)
    gains = IndirectGainConfig(Gamma=np.stack([1.2 * np.eye(n + M)] * M),
                               time_domain=domain)
    proj = ProjectionConfig.from_k2_upper(2.0 * np.abs(np.diag(K2s)),
                                          np.sign(np.diag(K2s)))
    init = InitialConditions(theta0=1.15 * theta_star_indirect(K1s, K2s),
                             x0=np.linspace(0.3, -0.2, n))
    return plant, ref, signal(M), gains, proj, init


@pytest.mark.parametrize("n, M", SHAPES)
def test_discrete_direct_matches_replay(n, M):
    args = (*direct_case(n, M, "discrete"), DISCRETE_HORIZON)
    records, diverged_at = replay_direct(*args)
    assert diverged_at is None
    assert_replayed(run_direct_scenario(*args), records,
                    ("theta", "rho", "x", "x_m", "e", "eps", "m", "u"))


@pytest.mark.parametrize("n, M", SHAPES)
def test_discrete_indirect_matches_replay(n, M):
    args = (*indirect_case(n, M, "discrete"), DISCRETE_HORIZON)
    records, singular_at = replay_indirect(*args)
    assert singular_at is None
    assert_replayed(run_indirect_scenario(*args), records,
                    ("theta", "x_hat", "x", "x_m", "e", "eps", "m", "u",
                     "proj_g2", "proj_f2"))


@pytest.mark.parametrize("n, M", SHAPES)
def test_ct_direct_matches_oracle(n, M):
    args = direct_case(n, M, "continuous")
    trace = run_direct_scenario(*args, CT_HORIZON, h=0.01)
    assert_records_match(
        trace, *ct_oracle.replay_direct_ct(*args, CT_HORIZON, 0.01))


@pytest.mark.parametrize("n, M", SHAPES)
def test_ct_indirect_matches_oracle(n, M):
    args = indirect_case(n, M, "continuous")
    trace = run_indirect_scenario(*args, CT_HORIZON, h=0.01)
    assert_records_match(
        trace, *ct_oracle.replay_indirect_ct(*args, CT_HORIZON, 0.01))


@pytest.mark.parametrize("scheme", ["direct", "indirect"])
def test_filter_columns_match_the_bank(scheme):
    # the S and q columns the fused loop steps are the states of the bank
    # that criterion 1 certifies, driven by the run's own omega and theta
    n, M = 3, 2
    if scheme == "direct":
        plant, ref, sig, gains, init = direct_case(n, M, "discrete")
        x0, xm0, theta0, rho0, _ = init.resolved(n, n + M, M)
        law = _direct_law(plant.A, plant.B, ref.A_m, ref.B_m, gains, True,
                          theta0.T, rho0, x0, xm0)
        q_sign = -1.0  # the direct layout holds -q
    else:
        plant, ref, sig, gains, _, init = indirect_case(n, M, "discrete")
        x0, xm0, theta0, _, xhat0 = init.resolved(n, n + M, M)
        law = _indirect_law(plant.A, plant.B, ref.A_m, ref.B_m, gains,
                            theta0.T, x0, xm0, xhat0)
        q_sign = 1.0
    C = n + M
    F = law.F.start + np.arange(law.nK).reshape(law.K, n)
    cols = dict(law.cols, S=F[:M * C].T, q=F[M * C:M * C + M].T)
    rec, store = _rows.records(cols, DISCRETE_HORIZON + 1)
    r = sig.sample(np.arange(DISCRETE_HORIZON + 1, dtype=float))
    assert _rows.run(law, r, store) is None
    bank = ChannelFilterBank(ref, C)
    for t in range(DISCRETE_HORIZON + 1):
        assert np.max(np.abs(rec["S"][t] - bank.S)) <= 1e-12, t
        assert np.max(np.abs(q_sign * rec["q"][t] - bank.q)) <= 1e-12, t
        x = rec["x"][t]
        omega = (np.concatenate([x, r[t]]) if scheme == "direct"
                 else np.concatenate([-x, rec["u"][t]]))
        bank.advance(omega, rec["theta"][t])
