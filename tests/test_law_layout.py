"""The shared row layout of the gradient laws on more shapes: each runner
against its oracle in both domains, the divergence rule on a run that grows
past 1e155, the filter columns of a discrete run against the reference
filter bank, and the projection's records, which every indirect law reads
off its own row."""

import ast
import os

from types import SimpleNamespace

import numpy as np
import pytest

import ct_oracle
from discrete_oracle import (ChannelFilterBank, assert_replayed,
                             replay_direct, replay_indirect)
from mrac import (DirectGainConfig, IndirectGainConfig, InitialConditions,
                  LyapunovIndirectGains, PlantModel, ProjectionConfig,
                  ReferenceModel, ReferenceSignal, build_lyapunov_loop,
                  random_matchable_instance, run_direct_scenario,
                  run_indirect_scenario, run_lyapunov_scenario,
                  stack_controller_gains, theta_star_indirect)
from mrac import _rows
from mrac.diagnostics import TraceSpec
from mrac.direct import _direct_law
from mrac.gains import _theta2
from mrac.indirect import _indirect_law, _indirect_member
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


def blow_up_case(scheme, domain):
    """An unstable scalar plant (x grows tenfold a step, or as e^(100 t))
    whose adaptation is too slow to matter, under a reference model with a
    tiny B_m: m^2 stays finite while |x| passes 1e155."""
    a, a_m = (10.0, 0.5) if domain == "discrete" else (100.0, -1.0)
    plant = PlantModel(A=[[a]], B=[[1e-10]], time_domain=domain)
    ref = ReferenceModel(A_m=[[a_m]], B_m=[[1e-10]], time_domain=domain)
    if scheme == "direct":
        gains = DirectGainConfig(Gamma=1e-20 * np.eye(2), gamma=1e-20,
                                 sign_k2=1.0, k2_lower=1.0, time_domain=domain)
        return plant, ref, signal(1), gains, InitialConditions(x0=[1.0])
    gains = IndirectGainConfig(Gamma=1e-20 * np.eye(2), time_domain=domain)
    init = InitialConditions(x0=[1.0], theta0=[[0.0], [1.0]])
    return plant, ref, signal(1), gains, None, init


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme, domain", [("direct", "discrete"),
                                            ("direct", "continuous"),
                                            ("indirect", "continuous")])
def test_divergence_waits_for_an_element_to_overflow(scheme, domain):
    # |x|^2 overflows near |x| = 1.3e154, so a rule over m^2 + |x|^2 +
    # |u|^2 would cut the run there; the run goes on until m^2 overflows
    args = blow_up_case(scheme, domain)
    run = run_direct_scenario if scheme == "direct" else run_indirect_scenario
    if domain == "discrete":
        trace = run(*args, 200)
        replayed, diverged_at = replay_direct(*args, 200)
        records = {name: np.array([rec[name] for rec in replayed])
                   for name in ("x", "u", "m", "theta")}
    else:
        trace = run(*args, 450, h=0.01)
        replay = (ct_oracle.replay_direct_ct if scheme == "direct"
                  else ct_oracle.replay_indirect_ct)
        records, diverged_at = replay(*args, 450, 0.01)
    assert diverged_at is not None
    assert trace.diverged_at == diverged_at == trace.steps
    assert np.max(np.abs(trace.x)) > 1e155
    for name in ("x", "u", "m", "theta"):
        got = getattr(trace, name)
        assert np.all(np.isfinite(got)), name
        assert np.allclose(got, records[name], rtol=1e-12, atol=0.0), name


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
    law.cols = dict(law.cols, S=F[:M * C].T, q=F[M * C:M * C + M].T)
    rec = {name: np.zeros((DISCRETE_HORIZON + 1,) + np.shape(at))
           for name, at in law.cols.items()}
    r = sig.sample(np.arange(DISCRETE_HORIZON + 1, dtype=float))

    stored = [0]  # a member's store receives its rows in order

    def store(rows):
        t0 = stored[0]
        for name, block in rows.items():
            rec[name][t0:t0 + block.shape[0]] = block
        stored[0] += rows["x"].shape[0]

    # a lone run is a group of one; the runner reads the set-up run's law,
    # store, signal and spec
    spec = TraceSpec(scheme, "discrete", DISCRETE_HORIZON, 1.0)
    run = SimpleNamespace(law=law, store=store, signal=sig, spec=spec)
    assert _rows.run([run]) == [None]
    bank = ChannelFilterBank(ref, C)
    for t in range(DISCRETE_HORIZON + 1):
        assert np.max(np.abs(rec["S"][t] - bank.S)) <= 1e-12, t
        assert np.max(np.abs(q_sign * rec["q"][t] - bank.q)) <= 1e-12, t
        x = rec["x"][t]
        omega = (np.concatenate([x, r[t]]) if scheme == "direct"
                 else np.concatenate([-x, rec["u"][t]]))
        bank.advance(omega, rec["theta"][t])


def indirect_run(scheme, domain, projection):
    """An n=3, M=2 indirect law (``scheme`` "gradient" or "lyapunov") under
    ``projection`` ("enabled", "disabled" or None), and its trace."""
    plant, ref, sig, gains, proj, init = indirect_case(3, 2, domain)
    proj = {"enabled": proj, None: None,
            "disabled": ProjectionConfig(proj.theta2_lower, proj.signs,
                                         enabled=False)}[projection]
    horizon = DISCRETE_HORIZON if domain == "discrete" else CT_HORIZON
    if scheme == "gradient":
        law = _indirect_member(plant, ref, sig, gains, proj, init, horizon,
                               1.0 if domain == "discrete" else 0.01).law
        return law, run_indirect_scenario(plant, ref, sig, gains, proj, init,
                                          horizon)
    gains = LyapunovIndirectGains(Gamma1=np.eye(3), Gamma2=np.eye(2))
    return (build_lyapunov_loop(plant, ref, sig, "indirect", gains, proj),
            run_lyapunov_scenario(plant, ref, sig, "indirect", gains, proj,
                                  init, horizon))


@pytest.mark.parametrize("projection", [None, "disabled"])
@pytest.mark.parametrize("scheme, domain", [("gradient", "discrete"),
                                            ("gradient", "continuous"),
                                            ("lyapunov", "continuous")])
def test_an_unprojected_law_records_zero_projection_columns(scheme, domain,
                                                            projection):
    # the records are the law's f2 columns, which closes its row and which
    # nothing writes without an enabled projection
    law, trace = indirect_run(scheme, domain, projection)
    f2 = np.arange(law.f2.start, law.f2.stop)
    assert law.f2.stop <= law.width and law.width % 2 == 0
    for name in ("proj_g2", "proj_f2"):
        assert np.array_equal(law.cols[name], f2)
        record = getattr(trace, name)
        assert record.shape == (len(trace.e), 2) and not record.any()
    assert law.landing() is None


@pytest.mark.parametrize("scheme, domain", [("gradient", "discrete"),
                                            ("gradient", "continuous"),
                                            ("lyapunov", "continuous")])
def test_a_projected_law_records_the_raw_theta2_rate(scheme, domain):
    law, trace = indirect_run(scheme, domain, "enabled")
    assert np.array_equal(law.cols["proj_g2"],
                          np.arange(law.dW.start, law.dW.stop)[law.th2])
    assert np.array_equal(law.cols["proj_f2"],
                          np.arange(law.f2.start, law.f2.stop))
    assert trace.proj_g2.any()
    if domain == "discrete":
        # theta2(t + 1) = (theta2 + g2) + f2, the raw step then its
        # correction, byte for byte
        theta2 = _theta2(trace.theta)
        assert np.array_equal(theta2[1:], (theta2[:-1] + trace.proj_g2[:-1])
                              + trace.proj_f2[:-1])


def test_the_lyapunov_module_imports_no_gradient_indirect_code():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "src", "mrac",
                        "lyapunov.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    # each module named and each name imported from one, dotted
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported |= {module} | {f"{module}.{alias.name}".lstrip(".")
                                    for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert imported.isdisjoint({"indirect", "mrac.indirect"})
