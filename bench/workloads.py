"""Seeded inputs for the three benchmark workloads.

Every input is built here from the workload seed with numpy alone, so the
program under test receives only the generated JSON files and a change to
``src/`` cannot change what the benchmark feeds it. Seeds index fixed pools
(initial offsets, instance draws), which is what lets ``reference.json``
hold the expected outputs of every member any seed can produce.

- ``paper-run``: ``mrac run <config> --out DIR`` on the bundled
  second-order benchmark (discrete, direct gradient, n=2, M=1). It is the
  documented single-run path and the only workload that writes a trace.
- ``mimo-sweep``: ``mrac batch <spec> --jobs 1`` over seeded n=3, M=2
  discrete instances, half direct and half indirect with projection. The
  per-step loops and the V series dominate and no trace is written.
- ``ct-schemes``: ``mrac batch <spec> --jobs 1`` over all four
  continuous-time schemes on the second-order CT instance plus both
  gradient schemes on one seeded n=3, M=2 CT instance. Every step makes
  four RK4 stage calls, and it is the only workload that reaches
  ``lyapunov.py``.
"""

from __future__ import annotations

import json
import os

import numpy as np

PAPER_HORIZON = 20000
PAPER_OFFSETS = 8          # initial offsets 1.10, 1.15, ..., 1.45
MIMO_HORIZON = 4000
MIMO_POOL = 32             # instance seeds 0..31
MIMO_INSTANCES = 4         # instances per sweep, each run direct + indirect
CT_HORIZON = 1000
CT_STEP = 0.01
CT_POOL = 16               # instance seeds 0..15 for the n=3, M=2 members

WORKLOADS = ("paper-run", "mimo-sweep", "ct-schemes")

PAPER_HEADER = ("t,x_1,x_2,xm_1,xm_2,e_1,e_2,u_1,eps_1,eps_2,"
                "m,V,dV,proj_fired")

# both MIMO families share this two-channel, three-tone reference input
_MIMO_SIGNAL = {
    "kind": "sum_of_sinusoids",
    "amplitudes": [[1.0, 0.8, 0.6], [1.0, 0.8, 0.6]],
    "frequencies": [[0.13, 0.79, 1.9], [0.29, 1.1, 2.3]],
}


def matchable_instance(n: int, M: int, seed: int, time_domain: str):
    """(A, B, A_m, B_m, k2) with diagonal K2* = diag(k2); the same draw as
    ``mrac.systems.random_matchable_instance``, kept here so the inputs do
    not depend on the code being measured."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n))
    if time_domain == "discrete":
        A_m = raw * (0.7 / float(np.max(np.abs(np.linalg.eigvals(raw)))))
    else:
        A_m = raw - (np.max(np.linalg.eigvals(raw).real) + 1.0) * np.eye(n)
    Qb, _ = np.linalg.qr(rng.normal(size=(n, M)))
    B_m = Qb * rng.uniform(0.8, 1.2, size=M)
    K1 = rng.normal(scale=0.5, size=(n, M))
    k2 = rng.uniform(0.7, 1.5, size=M) * rng.choice([-1.0, 1.0], size=M)
    B = B_m @ np.diag(1.0 / k2)
    A = A_m - B @ K1.T
    return A, B, A_m, B_m, k2


def paper_config(seed: int) -> dict:
    i = seed % PAPER_OFFSETS
    scale = round(1.10 + 0.05 * i, 2)
    return {
        "name": f"paper-run-o{i}",
        "scheme": "direct_gradient",
        "time_domain": "discrete",
        "plant": {"A": [[1.0, -1.0], [2.0, 1.0]], "B": [[0.0], [2.0]]},
        "reference": {"A_m": [[1.0, -1.0], [1.05, -1.2]],
                      "B_m": [[0.0], [1.0]]},
        "signal": {"kind": "sum_of_sinusoids", "amplitudes": [[1.0]],
                   "frequencies": [[0.13]]},
        "gains": {"Gamma": 0.5, "gamma": 1.5, "sign_k2": 1.0,
                  "k2_lower": 0.5},
        "init": {"theta_scale": scale, "rho_scale": scale},
        "horizon": PAPER_HORIZON,
        "seed": 0,
    }


def _mimo_member(scheme: str, k: int, time_domain: str, horizon: int,
                 prefix: str) -> dict:
    A, B, A_m, B_m, k2 = matchable_instance(3, 2, k, time_domain)
    k2abs = np.abs(k2)
    signs = np.sign(k2)
    data = {
        "name": f"{prefix}-{scheme.split('_')[0]}-s{k:02d}",
        "scheme": scheme,
        "time_domain": time_domain,
        "plant": {"A": A.tolist(), "B": B.tolist()},
        "reference": {"A_m": A_m.tolist(), "B_m": B_m.tolist()},
        "signal": _MIMO_SIGNAL,
        "horizon": horizon,
        "seed": k,
    }
    if scheme == "direct_gradient":
        k2a = 0.5 * k2abs
        data["gains"] = {
            "Gamma": [(0.9 * k2a[j] * np.eye(5)).tolist() for j in range(2)],
            "gamma": [1.2, 1.2], "sign_k2": signs.tolist(),
            "k2_lower": k2a.tolist()}
        data["init"] = {"theta_scale": 1.15, "rho_scale": 1.15}
    else:
        data["gains"] = {"Gamma": [(1.2 * np.eye(5)).tolist()] * 2}
        data["projection"] = {"signs": signs.tolist(),
                              "k2_upper": (2.0 * k2abs).tolist()}
        data["init"] = {"theta_scale": 1.15}
    if time_domain == "continuous":
        data["ct_step"] = CT_STEP
        data["integrator"] = "rk4"
    return data


def mimo_members(seed: int) -> list[dict]:
    out = []
    for j in range(MIMO_INSTANCES):
        k = (MIMO_INSTANCES * seed + j) % MIMO_POOL
        for scheme in ("direct_gradient", "indirect_gradient"):
            out.append(_mimo_member(scheme, k, "discrete", MIMO_HORIZON,
                                    "mimo"))
    return out


def _ct_second_order(scheme: str) -> dict:
    # unstable plant matched to a Hurwitz model by k1* = [-1.5, -1], k2* = 0.5
    data = {
        "name": f"ct-{scheme}",
        "scheme": scheme,
        "time_domain": "continuous",
        "plant": {"A": [[0.0, 1.0], [1.0, -1.0]], "B": [[0.0], [2.0]]},
        "reference": {"A_m": [[0.0, 1.0], [-2.0, -3.0]],
                      "B_m": [[0.0], [1.0]]},
        "signal": {"kind": "sum_of_sinusoids", "amplitudes": [[1.0]],
                   "frequencies": [[0.5]]},
        "init": {"theta_scale": 1.25},
        "horizon": CT_HORIZON,
        "ct_step": CT_STEP,
        "integrator": "rk4",
        "seed": 0,
    }
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
    return data


def ct_members(seed: int) -> list[dict]:
    k = seed % CT_POOL
    out = [_ct_second_order(s) for s in ("direct_gradient",
                                         "indirect_gradient",
                                         "lyapunov_direct",
                                         "lyapunov_indirect")]
    out += [_mimo_member(s, k, "continuous", CT_HORIZON, "ct-mimo")
            for s in ("direct_gradient", "indirect_gradient")]
    return out


def members(workload: str, seed: int) -> list[dict]:
    if workload == "paper-run":
        return [paper_config(seed)]
    if workload == "mimo-sweep":
        return mimo_members(seed)
    if workload == "ct-schemes":
        return ct_members(seed)
    raise ValueError(f"unknown workload {workload!r}")


def pool_members(workload: str) -> list[dict]:
    """Every member any seed can produce, for building ``reference.json``."""
    size = {"paper-run": PAPER_OFFSETS,
            "mimo-sweep": MIMO_POOL // MIMO_INSTANCES,
            "ct-schemes": CT_POOL}[workload]
    seen: dict[str, dict] = {}
    for seed in range(size):
        for data in members(workload, seed):
            seen.setdefault(data["name"], data)
    return list(seen.values())


def write_inputs(workload: str, seed: int, directory: str) -> str:
    """Write the workload's input file and return its path: the config for
    ``paper-run``, an inline batch spec for the batch workloads."""
    os.makedirs(directory, exist_ok=True)
    items = members(workload, seed)
    if workload == "paper-run":
        path, doc = os.path.join(directory, "config.json"), items[0]
    else:
        path, doc = os.path.join(directory, "spec.json"), {"configs": items}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path
