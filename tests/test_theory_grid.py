"""The theory's run checks on a grid of random matchable instances: every
scheme, in each time domain it has, on n = 1..4 states and 1 <= M <= n
inputs, keeps the per-step dV bound (discrete time), V non-increasing
(continuous time), its projection bounds and its diagonal block, from
e(0) = 0.

Each instance is ``random_matchable_instance(n, M, seed, domain)``; the
gradient gains follow the recipe of the benchmark's n=3, M=2 members
(``bench/workloads.py``), and every projection's K2 upper bound is twice
|k2*|, so that it holds theta2*."""

import json

import numpy as np
import pytest

from mrac import random_matchable_instance
from mrac.scenario import config_from_dict, run_scenario

SHAPES = [(n, M) for n in range(1, 5) for M in range(1, n + 1)]
SEEDS = (0, 1, 2)
HORIZON = 300
SCHEMES = {
    "discrete": ("direct_gradient", "indirect_gradient"),
    "continuous": ("direct_gradient", "indirect_gradient",
                   "lyapunov_direct", "lyapunov_indirect"),
}
GRID = [(domain, scheme, n, M, seed) for domain, schemes in SCHEMES.items()
        for scheme in schemes for n, M in SHAPES for seed in SEEDS]


def grid_config(domain, scheme, n, M, seed) -> dict:
    """A config of ``scheme`` on the instance (n, M, seed) of ``domain``,
    whose state, model state and estimator state all start at 0."""
    plant, ref, _, K2 = random_matchable_instance(n, M, seed, domain)
    k2 = np.diag(K2)
    signs = np.sign(k2).tolist()
    data = {
        "name": f"grid-{domain}-{scheme}-n{n}-m{M}-s{seed}",
        "scheme": scheme,
        "time_domain": domain,
        "plant": {"A": plant.A.tolist(), "B": plant.B.tolist()},
        "reference": {"A_m": ref.A_m.tolist(), "B_m": ref.B_m.tolist()},
        "signal": {"kind": "sum_of_sinusoids",
                   "amplitudes": [[1.0, 0.8, 0.6]] * M,
                   "frequencies": [[0.13 + 0.16 * j, 0.79 + 0.31 * j,
                                    1.9 + 0.4 * j] for j in range(M)]},
        "horizon": HORIZON,
        "seed": seed,
        "init": {"theta_scale": 1.15},
    }
    projection = {"signs": signs, "k2_upper": (2.0 * np.abs(k2)).tolist()}
    if scheme == "direct_gradient":
        k2_lower = 0.5 * np.abs(k2)
        scale = 1.8 if domain == "discrete" and M == 1 else 0.9
        data["gains"] = {
            "Gamma": [(scale * k2_lower[j] * np.eye(n + M)).tolist()
                      for j in range(M)],
            "gamma": [1.2] * M, "sign_k2": signs,
            "k2_lower": k2_lower.tolist()}
        data["init"]["rho_scale"] = 1.15
    elif scheme == "indirect_gradient":
        data["gains"] = {"Gamma": [(1.2 * np.eye(n + M)).tolist()] * M}
        data["projection"] = projection
    elif scheme == "lyapunov_direct":
        # K2* S_p = |K2*| is symmetric positive definite
        data["gains"] = {"S_p": np.diag(signs).tolist()}
    else:
        data["gains"] = {"Gamma1": 1.0, "Gamma2": 1.0}
        data["projection"] = projection
    if domain == "continuous":
        data.update(ct_step=0.01, integrator="rk4")
    return data


def expected_checks(domain, scheme, M) -> set:
    """The keys of the checks a run of ``scheme`` reports."""
    keys = {"delta_v_ok" if domain == "discrete" else "v_nonincreasing_ok"}
    if "indirect" in scheme:
        keys.add("projection_ok")
        if M > 1:
            keys.add("theta2_diag_ok")
    elif scheme == "direct_gradient" and M > 1:
        keys.add("k2_diag_ok")
    return keys


@pytest.mark.parametrize(
    "domain, scheme, n, M, seed", GRID,
    ids=[f"{d}-{s}-n{n}-m{M}-s{seed}" for d, s, n, M, seed in GRID])
def test_every_check_holds(domain, scheme, n, M, seed):
    run = run_scenario(config_from_dict(
        grid_config(domain, scheme, n, M, seed)))
    checks = {k: v for k, v in run.invariants.items() if k.endswith("_ok")}
    assert checks == dict.fromkeys(expected_checks(domain, scheme, M), True)
    assert run.exit_status == 0 and not run.trace.diverged


# the instances of the change of coordinates: seed 0 of every scheme,
# domain and shape
MAPPED = [case for case in GRID if case[-1] == 0]


def mapped_config(data: dict, T, p) -> dict:
    """``data``, a ``grid_config``, in the state coordinates T x and with
    the inputs relabelled, u_p[j] being input j: the plant, the model, the
    signal's channels, each per-input gain and the projection."""
    n, M = len(T), len(p)
    R = np.zeros((n + M, n + M))  # omega = [x, r] in the new coordinates
    R[:n, :n], R[n:, n:] = T, np.eye(M)[p]
    out = {**data, "plant": {"A": T @ data["plant"]["A"] @ T.T,
                             "B": (T @ data["plant"]["B"])[:, p]},
           "reference": {"A_m": T @ data["reference"]["A_m"] @ T.T,
                         "B_m": (T @ data["reference"]["B_m"])[:, p]},
           "signal": {key: value if key == "kind" else np.asarray(value)[p]
                      for key, value in data["signal"].items()}}
    # Gamma1 and Gamma2 of the Lyapunov indirect scheme are scalars here,
    # which neither map moves
    gains = dict(data["gains"])
    if "Gamma" in gains:
        gains["Gamma"] = [R @ gains["Gamma"][j] @ R.T for j in p]
    for key in ("gamma", "sign_k2", "k2_lower"):
        if key in gains:
            gains[key] = np.asarray(gains[key])[p]
    if "S_p" in gains:
        gains["S_p"] = np.asarray(gains["S_p"])[np.ix_(p, p)]
    out["gains"] = gains
    if "projection" in data:
        out["projection"] = {key: np.asarray(value)[p]
                             for key, value in data["projection"].items()}
    return json.loads(json.dumps(out, default=np.ndarray.tolist))


def _close(a, b):
    """Whether ``a`` equals ``b`` within 1e-12 of b's largest entry, NaN
    where b is NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(b)
    scale = max(np.max(np.abs(b[~nan]), initial=0.0), 1e-300)
    return (np.array_equal(np.isnan(a), nan)
            and np.max(np.abs(a - b)[~nan], initial=0.0) <= 1e-12 * scale)


@pytest.mark.parametrize(
    "domain, scheme, n, M, seed", MAPPED,
    ids=[f"{d}-{s}-n{n}-m{M}" for d, s, n, M, _ in MAPPED])
def test_the_schemes_commute_with_a_change_of_coordinates(domain, scheme, n,
                                                          M, seed):
    # an orthogonal T and, with two inputs or more, a permutation that is
    # not the identity; every gain of the grid is isotropic, so the mapped
    # run is the run mapped: T x, e and eps, u relabelled, and the same m,
    # V and invariants
    rng = np.random.default_rng(n * 10 + M)
    T, upper = np.linalg.qr(rng.standard_normal((n, n)))
    T *= np.sign(np.diag(upper))
    p = rng.permutation(M)
    if M > 1 and np.array_equal(p, np.arange(M)):
        p = np.roll(p, 1)
    data = grid_config(domain, scheme, n, M, seed)
    run = run_scenario(config_from_dict(data))
    mapped = run_scenario(config_from_dict(mapped_config(data, T, p)))
    tr, tm = run.trace, mapped.trace
    assert not tr.diverged and tm.steps == tr.steps
    for name in ("x", "e", "eps"):
        assert _close(getattr(tm, name), getattr(tr, name) @ T.T), name
    assert _close(tm.u, tr.u[:, p])
    for name in ("m", "V"):
        assert _close(getattr(tm, name), getattr(tr, name)), name
    assert mapped.invariants.keys() == run.invariants.keys()
    for key, value in run.invariants.items():
        assert (_close(mapped.invariants[key], value)
                if isinstance(value, float) else
                mapped.invariants[key] == value), key
