"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with -s to see them on success)."""

import json
import math
import time

import numpy as np

from mrac import (DirectGainConfig, IndirectGainConfig,
                  InitialConditions, LyapunovDirectGains,
                  LyapunovIndirectGains, PlantModel, ProjectionConfig,
                  ReferenceModel, ReferenceSignal, check_delta_V,
                  direct_V_series, gamma0_direct, gamma1_indirect,
                  indirect_V_series, integrate_ct, random_matchable_instance,
                  run_direct_scenario, run_indirect_scenario,
                  run_lyapunov_scenario, solve_matching, spectral_radius,
                  stack_controller_gains, theta_star_indirect,
                  tracking_metrics)
from mrac.cli import main as cli_main
from mrac.lyapunov import build_lyapunov_loop
from mrac.scenario import benchmark_config, load_config, serialize_config

from discrete_oracle import ChannelFilterBank
from conftest import (A_PLANT, A_REF, DEN_REF, K1_TRUE, K2_TRUE, ct_instance,
                      mimo_direct_case, mimo_indirect_case)
from test_filters import tf_impulse


def _report(num, name, failures):
    ok = not failures
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}): " + " | ".join(failures)


def _bench_models():
    plant = PlantModel(A=A_PLANT, B=[[0.0], [2.0]])
    ref = ReferenceModel(A_m=A_REF, B_m=[[0.0], [1.0]])
    return plant, ref


def test_criterion_1_matching_reproduction():
    failures = []
    t0 = time.perf_counter()
    plant, ref = _bench_models()
    sol = solve_matching(plant, ref)
    if np.max(np.abs(sol.k1 - K1_TRUE)) > 1e-12:
        failures.append(f"k1 error {np.max(np.abs(sol.k1 - K1_TRUE)):.3g}")
    if abs(sol.k2 - K2_TRUE) > 1e-12:
        failures.append(f"k2 error {abs(sol.k2 - K2_TRUE):.3g}")

    bank = ChannelFilterBank(ref, 1)
    outputs = []
    drive = 1.0
    for _ in range(20):
        from discrete_oracle import advance_zeta
        z = advance_zeta(bank, [drive])
        outputs.append(z[:, 0, 0].copy())
        drive = 0.0
    realized = np.array(outputs)
    gap1 = np.max(np.abs(realized[:, 0] - tf_impulse([-1.0], DEN_REF, 20)))
    gap2 = np.max(np.abs(realized[:, 1] - tf_impulse([1.0, -1.0], DEN_REF, 20)))
    if gap1 > 1e-10:
        failures.append(f"first transfer impulse gap {gap1:.3g}")
    if gap2 > 1e-10:
        failures.append(f"second transfer impulse gap {gap2:.3g}")

    if abs(spectral_radius(ref.A_m) - 0.5) > 1e-9:
        failures.append("spectral radius off 0.5")
    if time.perf_counter() - t0 > 0.5:
        failures.append("took longer than milliseconds-scale budget")
    _report(1, "matching reproduction", failures)


def test_criterion_2_nominal_exactness():
    failures = []
    plant, ref = _bench_models()
    sol = solve_matching(plant, ref)
    gains = DirectGainConfig(Gamma=0.5 * np.eye(3), gamma=1.5, sign_k2=1.0,
                             k2_lower=0.5, time_domain="discrete")
    init = InitialConditions(
        theta0=stack_controller_gains(sol.K1, sol.K2), rho0=1.0 / sol.k2)
    sig = ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.13]])
    trace = run_direct_scenario(plant, ref, sig, gains, init, 1000)
    worst = float(np.max(np.linalg.norm(trace.e, axis=1)))
    if worst > 1e-10:
        failures.append(f"nominal tracking error {worst:.3g} above 1e-10")
    _report(2, "nominal exactness", failures)


def _direct_benchmark_checks(two_tone, failures, label):
    plant, ref = _bench_models()
    freqs = [[0.13, 1.3]] if two_tone else [[0.13]]
    amps = [[1.0, 1.0]] if two_tone else [[1.0]]
    sig = ReferenceSignal.sinusoids(amplitudes=amps, frequencies=freqs)
    gains = DirectGainConfig(Gamma=0.5 * np.eye(3), gamma=1.5, sign_k2=1.0,
                             k2_lower=0.5, time_domain="discrete")
    theta_star = stack_controller_gains(K1_TRUE.reshape(2, 1), [[K2_TRUE]])
    init = InitialConditions(theta0=1.25 * theta_star, rho0=1.25 / K2_TRUE)
    t0 = time.perf_counter()
    trace = run_direct_scenario(plant, ref, sig, gains, init, 5000)
    elapsed = time.perf_counter() - t0
    series = direct_V_series(trace.theta, trace.rho, theta_star,
                             [1.0 / K2_TRUE], gains.Gamma, gains.gamma,
                             trace.eps, trace.m)
    ok, first = check_delta_V(series, tolerance=1e-10)
    if not ok:
        failures.append(f"{label}: dV bound violated at step {first}")
    g0 = gamma0_direct(gains.Gamma, gains.gamma, [1.0 / K2_TRUE])
    total = float(np.sum(series.decrement))
    if total > series.V[0] / (2.0 - g0) + 1e-8:
        failures.append(f"{label}: eps^2/m^2 sum {total:.6g} above telescoped budget")
    tail_e = float(np.max(np.abs(trace.e[-500:])))
    if tail_e > 1e-2:
        failures.append(f"{label}: last-500 tracking {tail_e:.3g} above 1e-2")
    dtheta_sq = np.sum(np.diff(trace.theta, axis=0) ** 2, axis=(1, 2))
    tail_frac = float(np.sum(dtheta_sq[-500:]) / np.sum(dtheta_sq))
    if tail_frac > 1e-4:
        failures.append(f"{label}: dtheta tail fraction {tail_frac:.3g} above 1e-4")
    if elapsed > 1.0:
        failures.append(f"{label}: runtime {elapsed:.2f}s above 1s")


def test_criterion_3_direct_gradient_benchmark():
    failures = []
    _direct_benchmark_checks(False, failures, "single-tone")
    _direct_benchmark_checks(True, failures, "two-tone")
    _report(3, "direct gradient benchmark scenario", failures)


def test_criterion_4_indirect_gradient_benchmark():
    failures = []
    plant, ref = _bench_models()
    sig = ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.13]])
    gains = IndirectGainConfig(Gamma=np.eye(3), time_domain="discrete")
    proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
    theta_star = theta_star_indirect(K1_TRUE.reshape(2, 1), [[K2_TRUE]])
    init = InitialConditions(theta0=1.25 * theta_star)
    trace = run_indirect_scenario(plant, ref, sig, gains, proj, init, 5000)

    series = indirect_V_series(trace.theta, theta_star, gains.Gamma,
                               trace.eps, trace.m)
    ok, first = check_delta_V(series, tolerance=1e-10)
    if not ok:
        failures.append(f"dV bound violated at step {first}")
    g1 = gamma1_indirect(gains.Gamma)
    total = float(np.sum(series.decrement))
    if total > series.V[0] / (2.0 - g1) + 1e-8:
        failures.append("eps^2/m^2 sum above telescoped budget")
    tail_e = float(np.max(np.abs(trace.e[-500:])))
    if tail_e > 1e-2:
        failures.append(f"last-500 tracking {tail_e:.3g} above 1e-2")

    theta2 = trace.theta[:, 2, 0]
    if not np.all(np.sign(theta2) == 1.0):
        failures.append("theta2 sign flipped")
    if not np.all(theta2 >= 1.0 - 1e-15):
        failures.append(f"theta2 fell to {theta2.min():.6g}, below the bound 1")
    prod = (theta2[:-1] - theta_star[2, 0] + trace.proj_g2[:-1, 0]
            + trace.proj_f2[:-1, 0]) * trace.proj_f2[:-1, 0]
    if float(np.max(prod, initial=0.0)) > 1e-12:
        failures.append("projection inequality violated")
    gap = float(np.max(np.abs(trace.x_hat - trace.x_m)))
    if gap > 1e-12:
        failures.append(f"estimator strayed {gap:.3g} from the reference model")
    _report(4, "indirect gradient benchmark scenario", failures)


def test_criterion_5_mimo_suite():
    failures = []
    # warm the compiled kernels so the timed section measures the runs
    warm_d = mimo_direct_case(999)
    run_direct_scenario(warm_d["plant"], warm_d["ref"], warm_d["signal"],
                        warm_d["gains"], warm_d["init"], 8000)
    warm_i = mimo_indirect_case(999)
    run_indirect_scenario(warm_i["plant"], warm_i["ref"], warm_i["signal"],
                          warm_i["gains"], warm_i["projection"],
                          warm_i["init"], 8000)

    t0 = time.perf_counter()
    for seed in range(20):
        case = mimo_direct_case(seed)
        trace = run_direct_scenario(case["plant"], case["ref"], case["signal"],
                                    case["gains"], case["init"], 10000)
        if trace.diverged:
            failures.append(f"direct seed {seed} diverged")
            continue
        rho_star = 1.0 / np.diag(case["K2_true"])
        series = direct_V_series(trace.theta, trace.rho, case["theta_star"],
                                 rho_star, case["gains"].Gamma,
                                 case["gains"].gamma, trace.eps, trace.m)
        ok, first = check_delta_V(series, tolerance=1e-10)
        if not ok:
            failures.append(f"direct seed {seed}: dV violated at {first}")
        K2blk = trace.theta[:, 3:, :]
        if np.any(K2blk * (1.0 - np.eye(2))[None] != 0.0):
            failures.append(f"direct seed {seed}: K2 off-diagonal nonzero")
        win = tracking_metrics(trace).last_window_max
        if win > 5e-2:
            failures.append(f"direct seed {seed}: window tracking {win:.3g}")

        case = mimo_indirect_case(seed)
        trace = run_indirect_scenario(case["plant"], case["ref"],
                                      case["signal"], case["gains"],
                                      case["projection"], case["init"], 10000)
        if trace.diverged:
            failures.append(f"indirect seed {seed} diverged")
            continue
        series = indirect_V_series(trace.theta, case["theta_star"],
                                   case["gains"].Gamma, trace.eps, trace.m)
        ok, first = check_delta_V(series, tolerance=1e-10)
        if not ok:
            failures.append(f"indirect seed {seed}: dV violated at {first}")
        proj = case["projection"]
        theta2 = np.stack([trace.theta[:, 3 + j, j] for j in range(2)], axis=1)
        if not np.all(proj.signs[None] * theta2
                      >= proj.theta2_lower[None] - 1e-12):
            failures.append(f"indirect seed {seed}: projection bound broken")
        T2blk = trace.theta[:, 3:, :]
        if np.any(T2blk * (1.0 - np.eye(2))[None] != 0.0):
            failures.append(f"indirect seed {seed}: Theta2 off-diagonal nonzero")
        win = tracking_metrics(trace).last_window_max
        if win > 5e-2:
            failures.append(f"indirect seed {seed}: window tracking {win:.3g}")
    elapsed = time.perf_counter() - t0
    if elapsed > 10.0:
        failures.append(f"suite runtime {elapsed:.1f}s above 10s")
    _report(5, "multi-input random suite (20 seeds)", failures)


def _refinement_ratio(mode):
    plant, ref = ct_instance()
    sig = ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.7]])
    if mode == "direct":
        gains = LyapunovDirectGains(Gamma=np.eye(2), gamma=1.0, sign_k2=1.0)
        proj = None
        init = InitialConditions(theta0=np.zeros((3, 1)), x0=[1.0, -0.5])
    else:
        sol = solve_matching(plant, ref)
        gains = LyapunovIndirectGains(Gamma1=np.eye(2), Gamma2=[[1.0]])
        proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
        init = InitialConditions(theta0=1.3 * theta_star_indirect(sol.K1, sol.K2),
                                 x0=[1.0, -0.5], xhat0=[0.3, 0.2])
    loop = build_lyapunov_loop(plant, ref, sig, mode, gains, proj)
    trace = run_lyapunov_scenario(plant, ref, sig, mode, gains, proj, init,
                                  300, h=0.01)
    h = 0.02
    best = None
    for k in (5, 20, 60, 120, 250):
        if mode == "direct":
            z = loop.pack(trace.x[k], trace.x_m[k], trace.theta[k][:2],
                          trace.theta[k][2:].T)
            err = trace.x[k] - trace.x_m[k]
        else:
            z = loop.pack(trace.x[k], trace.x_m[k], trace.theta[k][:2],
                          trace.theta[k][2:].T, trace.x_hat[k])
            err = trace.x_hat[k] - trace.x[k]
        base = float(err @ (loop.ct.Q @ err))
        V0 = loop.V(z)
        c1 = (loop.V(integrate_ct(loop.rhs, z, h, t=trace.t[k])) - V0) + h * base
        c2 = (loop.V(integrate_ct(loop.rhs, z, h / 2, t=trace.t[k])) - V0) + h / 2 * base
        if best is None or abs(c1) > abs(best[0]):
            best = (c1, c2)
    return loop.ct.residual, best[0] / best[1]


def test_criterion_6_continuous_time_suites():
    failures = []
    for mode in ("direct", "indirect"):
        residual, ratio = _refinement_ratio(mode)
        if residual > 1e-9:
            failures.append(f"{mode}: certificate residual {residual:.3g}")
        if not (3.5 <= ratio <= 4.5):
            failures.append(f"{mode}: refinement ratio {ratio:.3f} outside [3.5, 4.5]")

    # gradient variants: V must not increase by more than 1e-6 per step
    plant, ref = ct_instance()
    sol = solve_matching(plant, ref)
    sig = ReferenceSignal.sinusoids(amplitudes=[[1.0]], frequencies=[[0.5]])
    g_dir = DirectGainConfig(Gamma=np.eye(3), gamma=1.0, sign_k2=1.0,
                             k2_lower=0.25, time_domain="continuous")
    init_dir = InitialConditions(
        theta0=1.25 * stack_controller_gains(sol.K1, sol.K2),
        rho0=1.25 / sol.k2)
    tr = run_direct_scenario(plant, ref, sig, g_dir, init_dir, 1500, h=0.01)
    if tr.diverged or not np.all(tr.dV[:-1] <= 1e-6):
        failures.append("single-input direct gradient V increased")

    g_ind = IndirectGainConfig(Gamma=np.eye(3), time_domain="continuous")
    proj = ProjectionConfig.from_k2_upper(1.0, 1.0)
    init_ind = InitialConditions(theta0=1.25 * theta_star_indirect(sol.K1, sol.K2))
    tri = run_indirect_scenario(plant, ref, sig, g_ind, proj, init_ind,
                                1500, h=0.01)
    if tri.diverged or not np.all(tri.dV[:-1] <= 1e-6):
        failures.append("single-input indirect gradient V increased")

    plantM, refM, K1M, K2M = random_matchable_instance(
        3, 2, 11, time_domain="continuous")
    sigM = ReferenceSignal.sinusoids(amplitudes=[[1.0], [0.8]],
                                     frequencies=[[0.5], [0.9]])
    gM = DirectGainConfig(
        Gamma=np.stack([np.eye(5)] * 2), gamma=[1.0, 1.0],
        sign_k2=np.sign(np.diag(K2M)), k2_lower=0.5 * np.abs(np.diag(K2M)),
        time_domain="continuous")
    initM = InitialConditions(theta0=1.2 * stack_controller_gains(K1M, K2M),
                              rho0=1.2 / np.diag(K2M))
    trM = run_direct_scenario(plantM, refM, sigM, gM, initM, 800, h=0.01)
    if trM.diverged or not np.all(trM.dV[:-1] <= 1e-6):
        failures.append("multi-input direct gradient V increased")

    gMi = IndirectGainConfig(Gamma=np.stack([np.eye(5)] * 2),
                             time_domain="continuous")
    projM = ProjectionConfig.from_k2_upper(2.0 * np.abs(np.diag(K2M)),
                                           np.sign(np.diag(K2M)))
    initMi = InitialConditions(theta0=1.2 * theta_star_indirect(K1M, K2M))
    trMi = run_indirect_scenario(plantM, refM, sigM, gMi, projM, initMi,
                                 800, h=0.01)
    if trMi.diverged or not np.all(trMi.dV[:-1] <= 1e-6):
        failures.append("multi-input indirect gradient V increased")
    _report(6, "continuous-time suites", failures)


def test_criterion_7_property_suites(tmp_path):
    failures = []

    # frozen-estimate xi vanishing, 50 seeds x 200 steps
    ref = ReferenceModel(A_m=A_REF, B_m=[[0.0], [1.0]])
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        bank = ChannelFilterBank(ref, 3)
        theta = rng.normal(size=3)
        for _ in range(200):
            frame = bank.frame(theta)
            worst = max(worst, float(np.max(np.abs(frame.xi))))
            bank.advance(rng.normal(size=3), theta)
    if worst > 1e-12:
        failures.append(f"frozen-estimate xi reached {worst:.3g}")

    # estimation-error reconstruction after the start-up transient
    plant, _ = _bench_models()
    sol = solve_matching(plant, ref)
    theta_star = np.array([*sol.k1, sol.k2])
    rho_star = 1.0 / sol.k2
    bank = ChannelFilterBank(ref, 3)
    x = np.array([1.0, -1.0])
    xm = np.array([0.0, 0.5])
    gap = 0.0
    for t in range(200):
        r = math.sin(0.13 * t)
        theta = theta_star * (1.0 + 0.1 * math.sin(0.05 * t))
        rho = rho_star * (1.0 + 0.1 * math.cos(0.08 * t))
        frame = bank.frame(theta)
        eps = (x - xm) + rho * frame.xi[:, 0]
        predicted = (rho_star * frame.zeta[:, 0, :] @ (theta - theta_star)
                     + (rho - rho_star) * frame.xi[:, 0])
        if t >= 100:
            gap = max(gap, float(np.max(np.abs(eps - predicted))))
        omega = np.array([x[0], x[1], r])
        u = float(theta @ omega)
        bank.advance(omega, theta)
        x = plant.A @ x + plant.B[:, 0] * u
        xm = ref.A_m @ xm + ref.B_m[:, 0] * r
    if gap > 1e-10:
        failures.append(f"reconstruction gap {gap:.3g} after transient")

    # matching round-trip on random instances
    for seed in range(25):
        domain = "discrete" if seed % 2 == 0 else "continuous"
        plant_r, ref_r, K1r, K2r = random_matchable_instance(3, 2, seed, domain)
        sol_r = solve_matching(plant_r, ref_r)
        if (np.max(np.abs(sol_r.K1 - K1r)) > 1e-10
                or np.max(np.abs(sol_r.K2 - K2r)) > 1e-10
                or sol_r.residual > 1e-10):
            failures.append(f"round-trip seed {seed} ({domain}) drifted")

    # determinism: identical config, bit-identical trace bytes
    cfg_path = tmp_path / "bench.json"
    cli_main(["example", "--paper", "--out", str(cfg_path)])
    data = json.loads(cfg_path.read_text())
    data["horizon"] = 400
    cfg_path.write_text(json.dumps(data))
    cli_main(["run", str(cfg_path), "--out", str(tmp_path / "r1")])
    cli_main(["run", str(cfg_path), "--out", str(tmp_path / "r2")])
    b1 = (tmp_path / "r1" / "second-order-benchmark.trace.csv").read_bytes()
    b2 = (tmp_path / "r2" / "second-order-benchmark.trace.csv").read_bytes()
    if b1 != b2:
        failures.append("re-run produced different trace bytes")

    # config round-trip
    cfg = benchmark_config(two_tone=True)
    if load_config(serialize_config(load_config(serialize_config(cfg)))) != cfg:
        failures.append("config serialization is lossy")

    _report(7, "standalone property suites", failures)
