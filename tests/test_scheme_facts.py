"""The facts of each scheme that its runs check: the structure key of the
block of theta a law keeps diagonal, and the value function V with its
decrement constant gamma0, pinned against the public references."""

import json

import numpy as np
import pytest

from mrac import (SimulationTrace, direct_V_series, gamma0_direct,
                  indirect_V_series, stack_controller_gains,
                  theta_star_indirect)
from mrac.lyapunov import build_lyapunov_loop
from mrac.scenario import Invariants, config_from_dict, run_scenario
from test_scenario_cli import SCHEME_CASES, lyapunov_mimo_dict, mimo_dict


def _config(scheme, M, enforce=None):
    """A matchable config of ``scheme`` on an M-input plant, with
    ``enforce_diagonal_k2`` set when it is not None."""
    if M == 1:
        case = {"direct_gradient": "direct-discrete",
                "indirect_gradient": "indirect-discrete"}.get(scheme, scheme)
        data = json.loads(json.dumps(SCHEME_CASES[case]))
    elif scheme.startswith("lyapunov"):
        data = lyapunov_mimo_dict(scheme)
    else:
        data = mimo_dict(scheme)
    if enforce is not None:
        data["gains"]["enforce_diagonal_k2"] = enforce
    return config_from_dict(dict(data, horizon=20))


# (scheme, M, enforce_diagonal_k2 or None when the scheme does not read
# it, the structure key its runs report)
STRUCTURE = [
    ("direct_gradient", 1, True, None),
    ("direct_gradient", 1, False, None),
    ("direct_gradient", 2, True, "k2_diag_ok"),
    ("direct_gradient", 2, False, None),
    ("indirect_gradient", 1, None, None),
    ("indirect_gradient", 2, None, "theta2_diag_ok"),
    ("lyapunov_direct", 1, None, None),
    ("lyapunov_direct", 2, None, None),
    ("lyapunov_indirect", 1, None, None),
    ("lyapunov_indirect", 2, None, "theta2_diag_ok"),
]


@pytest.mark.parametrize("scheme,M,enforce,key", STRUCTURE)
def test_structure_key_of_each_scheme(scheme, M, enforce, key):
    cfg = _config(scheme, M, enforce)
    run = run_scenario(cfg)
    diag_keys = {k for k in run.invariants if k.endswith("_diag_ok")}
    assert diag_keys == ({key} if key else set())
    if key:
        assert run.invariants[key] is True
    # one record whose theta2 (or K2^T) has an off-diagonal entry
    b = cfg.built
    n = b.plant.n
    theta = np.zeros((1, n + M, M))
    theta[0, n:, :] = np.eye(M)
    if M > 1:
        theta[0, n, 1] = 0.25
    checks = Invariants(cfg)
    checks.add(SimulationTrace(cfg.scheme, cfg.time_domain, 0, 1.0,
                               t=np.zeros(1), theta=theta), 0, 1)
    report = checks.report()
    assert {k for k in report if k.endswith("_diag_ok")} == (
        {key} if key else set())
    if key:
        assert report[key] is False


GRADIENT_CASES = {
    "direct-discrete": SCHEME_CASES["direct-discrete"],
    "direct-continuous": SCHEME_CASES["direct-continuous"],
    "indirect-discrete": SCHEME_CASES["indirect-discrete"],
    "indirect-continuous": SCHEME_CASES["indirect-continuous"],
    "direct-mimo": mimo_dict("direct_gradient"),
    "indirect-mimo": mimo_dict("indirect_gradient"),
}


@pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
def test_gradient_series_is_the_public_reference(case):
    # 1100 rows: the streamed series is made in two blocks
    cfg = config_from_dict(dict(GRADIENT_CASES[case], horizon=1099))
    trace = run_scenario(cfg).trace
    assert trace.steps == 1100 and not trace.diverged
    b = cfg.built
    K1, K2 = b.match.K1, b.match.K2
    if cfg.scheme == "direct_gradient":
        want = direct_V_series(trace.theta, trace.rho,
                               stack_controller_gains(K1, K2),
                               1.0 / np.diag(K2), b.gains.Gamma,
                               b.gains.gamma, trace.eps, trace.m)
    else:
        want = indirect_V_series(trace.theta, theta_star_indirect(K1, K2),
                                 b.gains.Gamma, trace.eps, trace.m)
    got = trace.series
    for name in ("V", "dV", "decrement"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert trace.V.tobytes() == want.V.tobytes()
    # a numpy scalar and a float of one value digest differently
    assert type(got.gamma0) is type(want.gamma0)
    assert got.gamma0 == want.gamma0


@pytest.mark.parametrize("gamma, want", [(0.2, 1.0), ([1.5], 1.5)],
                         ids=["eigenvalue-largest", "gamma-largest"])
def test_gamma0_direct_is_a_float(gamma, want):
    # lambda_max(|rho*| Gamma) = 2 * 0.5 = 1 against gamma
    got = gamma0_direct(0.5 * np.eye(3), gamma, [2.0])
    assert type(got) is float and got == want


def test_the_bundled_benchmark_s_gamma0_is_a_float():
    # gamma = 1.5 is its largest term
    cfg = config_from_dict(dict(SCHEME_CASES["direct-discrete"], horizon=20))
    gamma0 = run_scenario(cfg).trace.series.gamma0
    assert type(gamma0) is float and gamma0 == 1.5


LYAPUNOV_CASES = {
    "lyapunov_direct": SCHEME_CASES["lyapunov_direct"],
    "lyapunov_indirect": SCHEME_CASES["lyapunov_indirect"],
    "lyapunov_direct-mimo": lyapunov_mimo_dict("lyapunov_direct"),
    "lyapunov_indirect-mimo": lyapunov_mimo_dict("lyapunov_indirect"),
}


@pytest.mark.parametrize("case", sorted(LYAPUNOV_CASES))
def test_lyapunov_V_is_the_law_V_of_the_packed_records(case):
    cfg = config_from_dict(dict(LYAPUNOV_CASES[case], horizon=200))
    trace = run_scenario(cfg).trace
    assert not trace.diverged
    b = cfg.built
    law = build_lyapunov_loop(b.plant, b.reference, b.signal,
                              cfg.scheme.removeprefix("lyapunov_"), b.gains,
                              b.projection, b.cert, b.match)
    n = b.plant.n
    for k in (0, 1, 117, trace.steps - 1):
        theta = trace.theta[k]
        x_hat = None if trace.x_hat is None else trace.x_hat[k]
        z = law.pack(trace.x[k], trace.x_m[k], theta[:n], theta[n:].T, x_hat)
        assert law.V(z) == trace.V[k], k
    assert np.isnan(trace.series.gamma0)
    assert np.all(np.isnan(trace.series.decrement))
