import ast
import errno
import gc
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from mrac import ConfigError, random_matchable_instance
from mrac.cli import main, trace_header, worker_count
from mrac.scenario import (MEMORY_BUDGET_BYTES, benchmark_config,
                           config_from_dict, load_config, memory_estimate,
                           run_scenario, serialize_config, summary_dict)


def bench_dict(**overrides):
    data = benchmark_config().to_dict()
    data.update(overrides)
    return data


def ct_dict(scheme, gains, projection=None):
    data = bench_dict(scheme=scheme, time_domain="continuous",
                      horizon=400, ct_step=0.01)
    data["plant"]["A"] = [[0.0, 1.0], [1.0, -1.0]]
    data["reference"]["A_m"] = [[0.0, 1.0], [-2.0, -3.0]]
    data["signal"] = {"kind": "sum_of_sinusoids", "amplitudes": [[1.0]],
                      "frequencies": [[0.5]]}
    data["gains"] = gains
    data["projection"] = projection
    data["init"] = {"theta_scale": 1.25}
    return data


# the overrides that make a bench_dict config an indirect-gradient one
INDIRECT = {"scheme": "indirect_gradient", "gains": {"Gamma": 1.0},
            "init": {"theta_scale": 1.25}}


def edited(data, section, **fields):
    """``data`` with ``fields`` set in its ``section``."""
    data[section] = dict(data[section], **fields)
    return data


def mimo_dict(scheme, time_domain="discrete"):
    """A matchable n=3, M=2 config of a gradient scheme."""
    plant, ref, _, K2 = random_matchable_instance(3, 2, 0, time_domain)
    k2 = np.diag(K2)
    data = bench_dict(scheme=scheme, time_domain=time_domain, horizon=50)
    data["plant"] = {"A": plant.A.tolist(), "B": plant.B.tolist()}
    data["reference"] = {"A_m": ref.A_m.tolist(), "B_m": ref.B_m.tolist()}
    data["signal"] = {"kind": "sum_of_sinusoids",
                      "amplitudes": [[1.0], [0.8]],
                      "frequencies": [[0.13], [0.29]]}
    data["init"] = {"theta_scale": 1.15}
    if scheme == "direct_gradient":
        data["gains"] = {"Gamma": 0.2, "gamma": 1.2,
                         "sign_k2": np.sign(k2).tolist(),
                         "k2_lower": (0.5 * np.abs(k2)).tolist()}
    else:
        data["gains"] = {"Gamma": 1.0}
        data["projection"] = {"signs": np.sign(k2).tolist(),
                              "k2_upper": (2.0 * np.abs(k2)).tolist()}
    return data


def lyapunov_mimo_dict(scheme, S_p=None):
    """A matchable n=3, M=2 config of a Lyapunov scheme: lyapunov_direct
    with ``S_p``, by default sign(k2*) diag(1, 2), which makes K2* S_p
    symmetric positive definite, and lyapunov_indirect with a projection."""
    data = mimo_dict("indirect_gradient", "continuous")
    signs = np.array(data["projection"]["signs"])
    data.update(scheme=scheme, horizon=400, ct_step=0.01)
    if scheme == "lyapunov_direct":
        data["projection"] = None
        data["gains"] = {"S_p": (np.diag(signs * [1.0, 2.0]) if S_p is None
                                 else np.asarray(S_p)).tolist()}
    else:
        data["gains"] = {"Gamma1": 1.0, "Gamma2": 1.0}
    return data


class TestConfigLoading:
    def test_benchmark_round_trips(self):
        cfg = benchmark_config()
        again = load_config(serialize_config(cfg))
        assert again == cfg
        assert again.scheme == "direct_gradient"
        assert again.time_domain == "discrete"
        third = load_config(serialize_config(again))
        assert third == again

    def test_replace_loads_the_changed_config(self):
        # the copy used to keep no built objects, and running it raised
        # AttributeError
        cfg = benchmark_config()._replace(horizon=10)
        assert cfg.built is not None and cfg.horizon == 10
        assert run_scenario(cfg).trace.steps == 11
        with pytest.raises(ConfigError) as info:
            benchmark_config()._replace(horizon=0)
        assert info.value.errors == [
            "horizon: expected a positive integer, got 0"]

    def test_parse_error_reports_position(self):
        with pytest.raises(ConfigError) as err:
            load_config('{"scheme": "direct_gradient",,}')
        assert "line 1" in err.value.errors[0]

    def test_gain_bound_rejected_with_reason(self):
        data = bench_dict()
        data["gains"] = dict(data["gains"], Gamma=3.0 * 0.5)  # 3 k2_lower
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert any("2*k2_lower" in e for e in err.value.errors)

    def test_missing_field_is_named(self):
        data = bench_dict()
        del data["reference"]["B_m"]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert any("B_m" in e for e in err.value.errors)

    def test_unstable_reference_rejected_before_stepping(self):
        data = bench_dict()
        data["reference"]["A_m"] = [[1.1, 0.0], [0.0, 0.5]]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert any("unstable" in e for e in err.value.errors)

    def test_all_errors_collected(self):
        data = bench_dict()
        data["scheme"] = "banana"
        data["horizon"] = -3
        del data["plant"]["B"]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert len(err.value.errors) >= 3

    def test_prior_fields_are_required(self):
        data = bench_dict()
        del data["gains"]["sign_k2"]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert any("sign_k2" in e for e in err.value.errors)
        data = bench_dict(scheme="indirect_gradient")
        data["gains"] = {"Gamma": 1.0}
        data["projection"] = {"k2_upper": 1.0}
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert any("signs" in e for e in err.value.errors)

    def test_lyapunov_requires_continuous(self):
        data = bench_dict(scheme="lyapunov_direct")
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert any("continuous" in e for e in err.value.errors)

    def test_scale_shorthand_requires_matchable_plant(self):
        data = bench_dict()
        data["plant"]["A"] = [[0.0, 0.0], [0.0, 0.0]]
        data["plant"]["B"] = [[1.0], [0.0]]
        data["reference"]["B_m"] = [[1.0], [0.0]]
        with pytest.raises(ConfigError) as err:
            config_from_dict(data)
        assert any("matchable" in e for e in err.value.errors)


class TestRunScenario:
    def test_benchmark_runs_clean(self):
        run = run_scenario(benchmark_config())
        assert run.exit_status == 0
        assert run.trace.steps == 5001
        assert run.invariants["delta_v_ok"] is True

    def test_nominal_parameters_give_zero_error(self):
        data = bench_dict()
        data["init"] = {"theta_scale": 1.0, "rho_scale": 1.0}
        data["horizon"] = 400
        run = run_scenario(config_from_dict(data))
        assert run.trace.summary.sup_e <= 1e-10

    def test_summary_contains_tail_metrics(self):
        data = bench_dict(horizon=1500)
        run = run_scenario(config_from_dict(data))
        s = summary_dict(run)
        assert s["steps"] == 1501
        assert s["tail_frac_dtheta"] < 1e-3
        assert s["invariants"]["delta_v_ok"] is True

    def test_lyapunov_direct_through_config(self):
        data = ct_dict("lyapunov_direct",
                       {"Gamma": 1.0, "gamma": 1.0, "sign_k2": 1.0,
                        "Q": [[2.0, 0.0], [0.0, 2.0]]})
        run = run_scenario(config_from_dict(data))
        assert run.exit_status == 0
        assert run.invariants["v_nonincreasing_ok"] is True
        assert not run.trace.diverged

    def test_lyapunov_direct_s_p_runs_strict(self, tmp_path):
        # the multi-input gains of lyapunov_direct, through the CLI
        data = mimo_dict("direct_gradient", "continuous")
        k2 = np.array(data["gains"]["sign_k2"])
        data.update(scheme="lyapunov_direct", horizon=400, ct_step=0.01,
                    gains={"S_p": np.diag(k2 * [1.0, 2.0]).tolist()})
        cfg = tmp_path / "s_p.json"
        cfg.write_text(json.dumps(data))
        assert main(["run", str(cfg), "--strict", "--out", str(tmp_path)]) == 0
        base = tmp_path / data["name"]
        summary = json.loads(base.with_suffix(".summary.json").read_text())
        assert summary["invariants"]["v_nonincreasing_ok"] is True
        with open(base.with_suffix(".trace.csv"), encoding="utf-8") as fh:
            col = fh.readline().rstrip("\n").split(",").index("V")
            V = [float(line.split(",")[col]) for line in fh]
        assert len(V) == 401 and V[-1] < V[0]

    def test_lyapunov_indirect_through_config(self):
        # a number for Gamma1 scales the M x M identity under the
        # transposed law; it used to scale the n x n one and raise in run
        for law in ("standard", "transposed"):
            data = ct_dict("lyapunov_indirect",
                           {"Gamma1": 1.0, "Gamma2": 1.0, "theta1_law": law},
                           projection={"k2_upper": 1.0, "signs": 1.0})
            run = run_scenario(config_from_dict(data))
            assert run.exit_status == 0
            assert run.invariants["v_nonincreasing_ok"] is True
            theta2 = run.trace.theta[:, 2, 0]
            assert np.all(theta2 >= 1.0 - 1e-12)

    def test_ct_gradient_runs_pass_their_invariants(self):
        # continuous time guarantees only V non-increase; the discrete
        # per-step bound with its (2 - gamma0) factor does not apply
        data = ct_dict("indirect_gradient", {"Gamma": 1.0},
                       projection={"k2_upper": 1.0, "signs": 1.0})
        runs = [run_scenario(config_from_dict(data))]
        plant, ref, _, K2 = random_matchable_instance(3, 2, 1, "continuous")
        k2 = np.diag(K2)
        data = bench_dict(time_domain="continuous", horizon=400,
                          ct_step=0.01)
        data["plant"] = {"A": plant.A.tolist(), "B": plant.B.tolist()}
        data["reference"] = {"A_m": ref.A_m.tolist(), "B_m": ref.B_m.tolist()}
        data["signal"] = {"kind": "sum_of_sinusoids",
                          "amplitudes": [[1.0], [0.8]],
                          "frequencies": [[0.13], [0.29]]}
        data["gains"] = {"Gamma": 0.5, "gamma": 1.2,
                         "sign_k2": np.sign(k2).tolist(),
                         "k2_lower": (0.5 * np.abs(k2)).tolist()}
        data["init"] = {"theta_scale": 1.15, "rho_scale": 1.15}
        runs.append(run_scenario(config_from_dict(data)))
        for run in runs:
            assert run.exit_status == 0
            assert run.invariants["v_nonincreasing_ok"] is True
            assert "delta_v_ok" not in run.invariants
            assert run.trace.V[-1] < run.trace.V[0]

    def test_constant_and_custom_signals_through_config(self):
        data = bench_dict(horizon=5)
        data["signal"] = {"kind": "constant", "level": [0.5]}
        run = run_scenario(config_from_dict(data))
        # x(0) = 0, so u(0) = k2(0) r(0) = 1.25 * 0.5 * 0.5
        assert run.trace.u[0, 0] == pytest.approx(0.3125, abs=1e-15)
        data["signal"] = {"kind": "custom", "samples": [[0.5]] * 10}
        run = run_scenario(config_from_dict(data))
        assert run.trace.u[0, 0] == pytest.approx(0.3125, abs=1e-15)

    def test_a_sinusoid_signal_without_tones_is_invalid(self, tmp_path,
                                                         capsys):
        # it used to validate and track r = 0
        bad = tmp_path / "bad.json"
        data = bench_dict(horizon=200)
        data["signal"].update(amplitudes=[[]], frequencies=[[]])
        bad.write_text(json.dumps(data))
        for verb in ("validate", "run"):
            assert main([verb, str(bad)]) == 1
            assert capsys.readouterr().err == (
                "invalid: signal: a sum of sinusoids needs at least one tone "
                "per channel\n")

    def test_euler_integrator_option(self):
        data = bench_dict(time_domain="continuous", horizon=300,
                          integrator="euler", ct_step=0.005)
        data["reference"]["A_m"] = [[0.0, 1.0], [-2.0, -3.0]]
        data["plant"]["A"] = [[0.0, 1.0], [1.0, -1.0]]
        data["gains"] = {"Gamma": 1.0, "gamma": 1.0, "sign_k2": 1.0,
                         "k2_lower": 0.25}
        run_e = run_scenario(config_from_dict(data))
        data["integrator"] = "rk4"
        run_r = run_scenario(config_from_dict(data))
        assert not run_e.trace.diverged and not run_r.trace.diverged
        # the two integrators agree to first order at this step size
        gap = float(np.max(np.abs(run_e.trace.x - run_r.trace.x)))
        assert 0.0 < gap < 1e-2

    def test_phased_signal_through_config(self):
        import math
        data = bench_dict(horizon=50)
        data["signal"]["phases"] = [[0.5]]
        run = run_scenario(config_from_dict(data))
        # u(0) = k2(0) * r(0) with x(0) = 0
        k2_0 = 1.25 * 0.5
        assert run.trace.u[0, 0] == pytest.approx(k2_0 * math.sin(0.5), rel=1e-12)


PROJECTION = {"signs": 1.0, "k2_upper": 1.0}
# every scheme in every time domain it runs in, on the n=2, M=1 benchmark
# plant or its continuous-time variant, each set to start from theta_scale
SCHEME_CASES = {
    "direct-discrete": bench_dict(),
    "direct-continuous": ct_dict("direct_gradient", {
        "Gamma": 1.0, "gamma": 1.0, "sign_k2": 1.0, "k2_lower": 0.5}),
    "indirect-discrete": bench_dict(projection=PROJECTION, **INDIRECT),
    "indirect-continuous": ct_dict("indirect_gradient", {"Gamma": 1.0},
                                   PROJECTION),
    "lyapunov_direct": ct_dict("lyapunov_direct", {
        "Gamma": 1.0, "gamma": 1.0, "sign_k2": 1.0}),
    "lyapunov_indirect": ct_dict("lyapunov_indirect", {
        "Gamma1": 1.0, "Gamma2": 1.0}, PROJECTION),
}
# an estimate every scheme's run accepts: theta2 = 1 meets the projection
THETA0 = [0.0, 0.0, 1.0]


def _scheme_case(case, **init):
    data = json.loads(json.dumps(dict(SCHEME_CASES[case], horizon=20)))
    if init:
        data["init"] = init
    return data


class TestBuiltOnce:
    """Validation builds each domain object once and the run uses it."""

    @pytest.mark.parametrize("scaled", [True, False],
                             ids=["theta_scale", "theta0"])
    @pytest.mark.parametrize("case", sorted(SCHEME_CASES))
    def test_one_matching_and_lyapunov_solve_per_run(self, monkeypatch,
                                                     case, scaled):
        import mrac.gains
        import mrac.systems
        calls = {"solve_matching": 0, "solve_lyapunov_ct": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in ("scenario", "direct", "indirect", "lyapunov"):
            monkeypatch.setattr(f"mrac.{module}.solve_matching",
                                counted(mrac.systems.solve_matching))
        # validation solves through mrac.scenario's name, a run through
        # mrac.lyapunov's when it is given no certificate
        for module in ("scenario", "lyapunov"):
            monkeypatch.setattr(f"mrac.{module}.solve_lyapunov_ct",
                                counted(mrac.gains.solve_lyapunov_ct))
        data = _scheme_case(case) if scaled else _scheme_case(
            case, theta0=THETA0)
        run = run_scenario(config_from_dict(data))
        assert run.exit_status == 0
        assert run.trace.V is not None
        assert calls == {"solve_matching": 1,
                         "solve_lyapunov_ct": int(case.startswith("lyap"))}

    @pytest.mark.parametrize("plant, B_m", [
        ({"A": [[0.0, 0.0], [0.0, 0.0]], "B": [[1.0], [0.0]]}, [[1.0], [0.0]]),
        (None, [[0.0], [0.0]]),  # K2* = 0: solve_matching raises
        ({"B": [[0.0], [-1e-308]]}, None),  # K1* overflows
    ], ids=["unmatchable", "singular-K2", "near-singular-B"])
    @pytest.mark.parametrize("case", sorted(SCHEME_CASES))
    def test_runs_without_a_matching_solution(self, case, plant, B_m):
        data = _scheme_case(case, theta0=THETA0)
        data["plant"].update(plant or {})
        if B_m is not None:
            data["reference"]["B_m"] = B_m
        run = run_scenario(config_from_dict(data))
        assert run.exit_status == 0
        assert run.trace.V is None


class TestCli:
    def test_example_emits_loadable_config(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["example", "--paper", "--out", str(out)]) == 0
        cfg = load_config(str(out))
        assert cfg.scheme == "direct_gradient"
        assert main(["validate", str(out)]) == 0
        assert capsys.readouterr().out.strip().endswith("ok")

    @pytest.mark.parametrize("where", ["a directory", "under a missing one",
                                       "empty", "a NUL", "a lone surrogate"])
    def test_example_out_that_cannot_be_written_is_invalid(
            self, tmp_path, capsys, monkeypatch, where):
        # the first two used to escape as IsADirectoryError or
        # FileNotFoundError; an empty path printed the config to stdout, a
        # NUL ended in a ValueError and a lone surrogate in a
        # UnicodeEncodeError
        monkeypatch.chdir(tmp_path)
        out = {"a directory": str(tmp_path),
               "under a missing one": str(tmp_path / "no" / "x"),
               "empty": "", "a NUL": "x\0y",
               "a lone surrogate": "x\ud800"}[where]
        assert main(["example", "--paper", "--out", out]) == 1
        captured = capsys.readouterr()
        [err] = captured.err.splitlines()
        assert err.startswith("invalid: --out: ")
        assert out in err or where in ("a NUL", "a lone surrogate")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_run_writes_trace_with_header_and_rows(self, tmp_path):
        cfg_path = tmp_path / "bench.json"
        main(["example", "--paper", "--out", str(cfg_path)])
        data = json.loads(cfg_path.read_text())
        data["horizon"] = 250
        cfg_path.write_text(json.dumps(data))
        rc = main(["run", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 0
        trace_path = tmp_path / "second-order-benchmark.trace.csv"
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 252  # header + horizon + 1
        assert lines[0].split(",") == trace_header(2, 1)
        summary = json.loads((tmp_path / "second-order-benchmark.summary.json").read_text())
        assert summary["exit_status"] == 0

    def test_run_is_bit_deterministic(self, tmp_path):
        cfg_path = tmp_path / "bench.json"
        main(["example", "--paper", "--out", str(cfg_path)])
        data = json.loads(cfg_path.read_text())
        data["horizon"] = 300
        cfg_path.write_text(json.dumps(data))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["run", str(cfg_path), "--out", str(out1)])
        main(["run", str(cfg_path), "--out", str(out2)])
        t1 = (out1 / "second-order-benchmark.trace.csv").read_bytes()
        t2 = (out2 / "second-order-benchmark.trace.csv").read_bytes()
        assert t1 == t2

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        data = bench_dict()
        del data["reference"]["B_m"]
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 1
        assert main(["run", str(bad)]) == 1
        assert "B_m" in capsys.readouterr().err
        # JSON true loads as a bool, which Python would count as the int 1
        for field in ("horizon", "seed", "ct_step"):
            bad.write_text(json.dumps(bench_dict(**{field: True})))
            assert main(["validate", str(bad)]) == 1
            [err] = capsys.readouterr().err.splitlines()
            assert err.startswith(f"invalid: {field}: ")
            assert err.endswith(", got True")
        # malformed values that used to escape validation as tracebacks
        for field, edit in [
                ("reference.A_m", lambda d: d["reference"]["A_m"][
                    0].__setitem__(0, float("nan"))),
                ("signal.level", lambda d: d.__setitem__(
                    "signal", {"kind": "constant"})),
                ("gains.Gamma", lambda d: d["gains"].__setitem__(
                    "Gamma", "big")),
                ("projection.k2_upper", lambda d: d.update(
                    INDIRECT, projection={"signs": [1.0], "k2_upper": "x"}))]:
            data = bench_dict()
            edit(data)
            bad.write_text(json.dumps(data))
            for verb in ("validate", "run"):
                assert main([verb, str(bad)]) == 1
                [err] = capsys.readouterr().err.splitlines()
                assert err.startswith(f"invalid: {field}: ")
        # every error is listed, not just the first
        data = bench_dict()
        data["signal"] = {"kind": "sum_of_sinusoids", "amplitudes": "loud"}
        data["gains"] = dict(data["gains"], Gamma="big", gamma=[None])
        bad.write_text(json.dumps(data))
        assert main(["validate", str(bad)]) == 1
        fields = [line.split(": ")[1]
                  for line in capsys.readouterr().err.splitlines()]
        assert fields == ["signal.amplitudes", "signal.frequencies",
                          "gains.Gamma", "gains.gamma"]
        # gain and projection vectors of the wrong shape, each of which used
        # to raise in validate or in run
        lyap_ind = lambda: ct_dict(
            "lyapunov_indirect", {"Gamma1": 1.0, "Gamma2": 1.0},
            projection={"k2_upper": 1.0, "signs": 1.0})
        for field, data in [
                ("gains.sign_k2", edited(mimo_dict("direct_gradient"),
                                         "gains", sign_k2=[1.0])),
                ("projection.k2_upper", edited(mimo_dict("indirect_gradient"),
                                               "projection", k2_upper=[])),
                ("gains.Gamma1", edited(lyap_ind(), "gains", Gamma1=[])),
                ("gains.Gamma1", edited(lyap_ind(), "gains", Gamma1=[[1.0]],
                                        Gamma2=[[1.0]])),
                ("gains.gamma", ct_dict("lyapunov_direct", {
                    "Gamma": 1.0, "gamma": [1.0], "sign_k2": 1.0})),
                ("projection.signs", ct_dict(
                    "indirect_gradient", {"Gamma": 1.0},
                    projection={"k2_upper": 1.0, "signs": []}))]:
            bad.write_text(json.dumps(data))
            for verb in ("validate", "run"):
                assert main([verb, str(bad)]) == 1
                [err] = capsys.readouterr().err.splitlines()
                assert err.startswith(f"invalid: {field}: ")
        # every shape error is listed
        direct = mimo_dict("direct_gradient")
        direct["gains"].update(sign_k2=[1.0], k2_lower=[1.0, 1.0, 1.0],
                               gamma=[[1.2]])
        indirect = mimo_dict("indirect_gradient")
        indirect["projection"] = {"signs": [],
                                  "theta2_lower": [1.0, 1.0, 1.0]}
        for data, want in [
                (direct, ["gains.gamma", "gains.k2_lower", "gains.sign_k2"]),
                (indirect, ["projection.signs", "projection.theta2_lower"])]:
            bad.write_text(json.dumps(data))
            assert main(["validate", str(bad)]) == 1
            fields = [line.split(": ")[1]
                      for line in capsys.readouterr().err.splitlines()]
            assert fields == want

    def test_malformed_batch_specs_and_out_paths(self, tmp_path, capsys):
        # each used to end in a traceback, --out only after the simulation
        good = tmp_path / "good.json"
        good.write_text(json.dumps(bench_dict(horizon=20)))
        spec = tmp_path / "spec.json"
        missing = str(tmp_path / "missing.json")
        blocked = str(good / "out")
        for doc, out, want in [
                (5, None, ["invalid batch spec: expected an object with "
                           "'configs' or 'base', got a number"]),
                # a config, a number as a member and an object as configs
                # used to be spelled out whole, each on one line
                (bench_dict(), None, [
                    "invalid batch spec: expected an object with 'configs' "
                    "or 'base', got a scenario config (run it with 'mrac "
                    "run')"]),
                ({"configs": [123, missing]}, None,
                 ["invalid batch spec: configs[0]: expected a config object "
                  "or a path, got a number",
                  "invalid batch spec: configs[1]: [Errno 2]"]),
                ({"configs": {"a": bench_dict()}}, None,
                 ["invalid batch spec: configs: expected a list, got an "
                  "object"]),
                ({"base": str(good), "sweep": 5}, None,
                 ["invalid batch spec: sweep: expected an object, got a "
                  "number"]),
                ({"base": missing, "sweep": {"gains.Gamma": 5}}, blocked,
                 ["invalid batch spec: base: [Errno 2]",
                  "invalid batch spec: sweep.gains.Gamma: expected a list",
                  "invalid: --out: "]),
                ({"configs": [str(good)]}, blocked, ["invalid: --out: "])]:
            spec.write_text(json.dumps(doc))
            argv = ["batch", str(spec)] + (["--out", out] if out else [])
            assert main(argv) == 1
            captured = capsys.readouterr()
            lines = captured.err.splitlines()
            assert captured.out == "" and len(lines) == len(want)
            assert all(map(str.startswith, lines, want))
            assert max(map(len, lines)) < 160
        assert main(["run", str(good), "--out", blocked]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid: --out: {good} is not a directory\n"

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_batch_spec_is_not_a_config(self, tmp_path, capsys, command):
        # it used to list "configs: unknown key" and seven missing fields
        good = tmp_path / "good.json"
        good.write_text(json.dumps(bench_dict(horizon=20)))
        spec = tmp_path / "spec.json"
        for doc in ({"configs": [str(good)]},
                    {"base": str(good), "sweep": {"seed": [1, 2]}}):
            spec.write_text(json.dumps(doc))
            assert main([command, str(spec)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "invalid: expected a scenario config, got a batch spec (run "
                "it with 'mrac batch')\n")
        # a config with a stray key is still a config
        spec.write_text(json.dumps(dict(bench_dict(horizon=20), configs=[])))
        assert main([command, str(spec)]) == 1
        assert capsys.readouterr().err == "invalid: configs: unknown key\n"

    def test_an_unreadable_spec_does_not_hide_the_flag_errors(self, tmp_path,
                                                              capsys):
        afile = tmp_path / "afile"
        afile.write_text("")
        missing = tmp_path / "missing.json"
        assert main(["batch", str(missing), "--jobs", "0",
                     "--out", str(afile / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"invalid batch spec: [Errno 2] No such file or directory: "
            f"{str(missing)!r}",
            f"invalid: --out: {afile} is not a directory",
            "invalid: --jobs: expected a positive integer, got 0"]

    def test_jobs_below_one_are_rejected_before_any_run(self, tmp_path, capsys,
                                                       monkeypatch):
        # --jobs 0 and --jobs -4 used to run silently with one worker
        import mrac.cli as cli_mod
        ran = []
        real = cli_mod.run_scenario

        def recorded(cfg):
            ran.append(cfg.name)
            return real(cfg)

        monkeypatch.setattr(cli_mod, "run_scenario", recorded)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(bench_dict(horizon=20)))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"configs": [str(good)]}))
        blocked = str(good / "out")
        out_error = f"invalid: --out: {good} is not a directory"
        for jobs, out, want in [("0", None, []), ("-4", None, []),
                                ("0", blocked, [out_error])]:
            argv = ["batch", str(spec), "--jobs", jobs]
            assert main(argv + (["--out", out] if out else [])) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == want + [
                f"invalid: --jobs: expected a positive integer, got {jobs}"]
        assert ran == []

    def test_output_section_is_checked_at_load(self, tmp_path, capsys):
        # a blocked output.dir used to end a run in a traceback after the
        # simulation, and output values of any type were taken
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = tmp_path / "cfg.json"
        for output, want in [
                ({"dir": str(blocker / "sub")},
                 [f"output.dir: {blocker} is not a directory"]),
                ({"dir": 5, "trace": "no"},
                 ["output.dir: expected a directory path or null, got 5",
                  "output.trace: expected true or false, got 'no'"]),
                ({"dir": "", "summary": 1, "gnuplot": None},
                 ["output.dir: expected a directory path or null, got ''",
                  "output.summary: expected true or false, got 1",
                  "output.gnuplot: expected true or false, got None"]),
                ({"dir": "a\0b"},
                 ["output.dir: expected a directory path or null, "
                  "got 'a\\x00b'"])]:
            cfg.write_text(json.dumps(bench_dict(horizon=20, output=output)))
            assert main(["run", str(cfg), "--out", str(tmp_path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"invalid: {w}" for w in want]
        # in a batch the member gets an invalid row and the others run
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"configs": [
            bench_dict(horizon=20, name="bad",
                       output={"dir": str(blocker / "sub")}),
            bench_dict(horizon=20, name="good")]}))
        assert main(["batch", str(spec)]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in rows] == ["invalid", "ok"]
        assert rows[0]["errors"] == [f"output.dir: {blocker} is not a directory"]

    def test_unknown_keys_are_reported(self, tmp_path, capsys):
        # a misspelt key used to be dropped silently
        data = bench_dict(horizon=20, horizn=5, output={"dirr": "out"})
        data["gains"]["Gamm"] = 3
        data["plant"]["C"] = [[1.0, 0.0]]
        data["signal"]["level"] = [1.0]  # not a sinusoid's field
        data["init"]["theta"] = 1.0
        # the indirect law reads Gamma alone, a projection not "enable"
        mimo = mimo_dict("indirect_gradient")
        mimo["gains"]["gamma"] = 1.0
        mimo["projection"]["enable"] = False
        cfg = tmp_path / "cfg.json"
        for doc, want in [
                (data, ["horizn: unknown key", "plant.C: unknown key",
                        "signal.level: not read by sum_of_sinusoids",
                        "gains.Gamm: unknown key", "init.theta: unknown key",
                        "output.dirr: unknown key"]),
                (mimo, ["gains.gamma: not read by indirect_gradient",
                        "projection.enable: unknown key"])]:
            cfg.write_text(json.dumps(doc))
            for verb in ("validate", "run"):
                assert main([verb, str(cfg)]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.splitlines() == [
                    f"invalid: {line}" for line in want]
        # in a batch the member gets an invalid row and the others run
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"configs": [
            bench_dict(horizon=20, name="bad", horizn=5),
            bench_dict(horizon=20, name="good")]}))
        assert main(["batch", str(spec)]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in rows] == ["invalid", "ok"]
        assert rows[0]["errors"] == ["horizn: unknown key"]

    def test_memory_preflight(self, tmp_path, capsys):
        bad = tmp_path / "huge.json"
        bad.write_text(json.dumps(bench_dict(horizon=10**10)))
        assert main(["validate", str(bad)]) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err == ("invalid: horizon: 10000000000 steps need about "
                       "1.71e+3 GiB of records and reference samples, above "
                       "the 1 GiB budget")
        # the largest horizon within the budget validates
        per_step = memory_estimate(0, 2, 1, "discrete")
        bad.write_text(json.dumps(bench_dict(
            horizon=MEMORY_BUDGET_BYTES // per_step - 1)))
        assert main(["validate", str(bad)]) == 0
        # continuous time samples r at four stage times per step
        assert memory_estimate(9, 3, 2, "continuous") == 8 * 10 * (
            5 * 2 + 5 * 3 + 3 * 2 + 6 + 4 * 2)

    @pytest.mark.parametrize("field, edit", [
        ("init.x0", lambda d: d["init"].update(x0=[1.0])),
        ("init.theta_scale", lambda d: d["init"].update(theta_scale="a")),
        ("init.rho_scale", lambda d: d["init"].update(rho_scale=float("inf"))),
        ("init.theta0", lambda d: d.__setitem__(
            "init", {"theta0": [[1.0, 2.0]]})),
        ("init.rho0", lambda d: d["init"].update(rho0=[1.0, 2.0])),
        ("init.xhat0", lambda d: d["init"].update(xhat0="z")),
        ("signal.frequencies", lambda d: d["signal"].update(
            frequencies=[[float("nan")]])),
        ("signal.phases", lambda d: d["signal"].update(
            phases=[[float("inf")]])),
        ("signal.level", lambda d: d.__setitem__(
            "signal", {"kind": "constant", "level": [float("nan")]})),
        ("signal.samples", lambda d: d.__setitem__(
            "signal", {"kind": "custom", "samples": [1.0, float("nan")]})),
        ("signal.amplitudes", lambda d: d["signal"].update(
            amplitudes=[[[1.0]]])),
        ("ct_step", lambda d: d.update(ct_step=float("inf"))),
        # a subnormal bound has no finite reciprocal
        ("projection", lambda d: d.update(
            INDIRECT, projection={"signs": 1.0, "k2_upper": 5e-324})),
        # integers too large for a float
        ("horizon", lambda d: d.update(horizon=10**400)),
        ("gains.gamma", lambda d: d["gains"].update(gamma=10**400)),
        pytest.param("ct_step", lambda d: d.update(ct_step=10**400),
                     id="ct_step-huge-int"),
        pytest.param("signal.samples", lambda d: d.__setitem__(
            "signal", {"kind": "custom", "samples": 0.5}),
                     id="signal.samples-scalar"),
    ])
    def test_configs_that_would_crash_fail_validation(self, tmp_path, capsys,
                                                      field, edit):
        # each of these used to validate and then raise in run, or
        # "diverge" at step 0
        data = bench_dict(horizon=20)
        edit(data)
        self._assert_invalid(tmp_path, capsys, data, field)

    def test_indefinite_lyapunov_q_fails_validation(self, tmp_path, capsys):
        # it used to validate and then fail the run with exit 2
        data = bench_dict(scheme="lyapunov_direct", time_domain="continuous",
                          horizon=20)
        data["plant"]["A"] = [[0.0, 1.0], [1.0, -1.0]]
        data["reference"]["A_m"] = [[0.0, 1.0], [-2.0, -3.0]]
        data["gains"] = {"Gamma": 1.0, "gamma": 1.0, "sign_k2": 1.0,
                         "Q": [[1.0, 0.0], [0.0, -1.0]]}
        data["init"] = {"theta_scale": 1.25}
        self._assert_invalid(tmp_path, capsys, data, "gains.Q")
        # a barely Hurwitz A_m makes P overflow; it used to warn
        data["gains"]["Q"] = [[2.0, 0.0], [0.0, 2.0]]
        data["reference"]["A_m"] = [[0.0, 1.0], [-2.0, -1e-308]]
        self._assert_invalid(tmp_path, capsys, data, "gains.Q")

    def test_near_singular_plant_is_not_matchable(self, tmp_path, capsys):
        # the matching gains of this B overflow; it used to warn
        data = bench_dict(horizon=20)
        data["plant"]["B"] = [[0.0], [-1e-308]]
        self._assert_invalid(tmp_path, capsys, data, "init.theta_scale")

    def test_null_gain_fields_count_as_absent(self, tmp_path, capsys):
        gains = {"Gamma": 1.0, "gamma": None, "sign_k2": 1.0}
        path = tmp_path / "lyap.json"
        path.write_text(json.dumps(dict(ct_dict("lyapunov_direct", gains),
                                        horizon=20)))
        assert main(["run", str(path)]) == 0
        capsys.readouterr()
        gains.update(gamma=1.0, sign_k2=None)
        self._assert_invalid(tmp_path, capsys,
                             ct_dict("lyapunov_direct", gains),
                             "gains.sign_k2")

    def test_huge_finite_records_do_not_warn(self, tmp_path, capsys):
        # V and the summary square records that are finite but near the
        # overflow edge; the run reports divergence, and a numpy warning
        # would fail the suite
        data = ct_dict("indirect_gradient", {"Gamma": 1.0},
                       projection={"signs": 1.0, "k2_upper": 1.0})
        stiff = ct_dict("lyapunov_indirect", {"Gamma1": 1.0, "Gamma2": 1.0},
                        projection={"signs": 1.0, "k2_upper": 1.0})
        stiff["plant"]["A"] = [[0.0, 1.0], [1.0, -999999.0]]
        stiff["signal"]["frequencies"] = 943537.6684347435
        for cfg in (dict(data, horizon=12, ct_step=939872.376325319),
                    dict(stiff, horizon=12)):
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(cfg))
            assert main(["run", str(path), "--strict"]) == 2
            assert "diverged at step" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_times_report_divergence_only(self, tmp_path, capsys):
        # r(t) and the stage times overflow; the run reports divergence
        # through the marker, without a numpy warning
        discrete = bench_dict(horizon=20)
        discrete["signal"]["frequencies"] = [[1e308]]
        ct = ct_dict("direct_gradient", {"Gamma": 1.0, "gamma": 1.0,
                                         "sign_k2": 1.0, "k2_lower": 0.5})
        for cfg in (discrete, dict(ct, horizon=20, ct_step=1e308)):
            path = tmp_path / "overflow.json"
            path.write_text(json.dumps(cfg))
            assert main(["run", str(path), "--out", str(tmp_path)]) == 2
            assert "diverged at step" in capsys.readouterr().err

    def test_json_booleans_are_not_numbers(self, tmp_path, capsys):
        # true used to read as 1.0 and report a gain bound instead
        data = bench_dict(horizon=20)
        data["gains"]["Gamma"] = True
        self._assert_invalid(tmp_path, capsys, data, "gains.Gamma")
        data = bench_dict(horizon=20)
        data["plant"]["A"] = [[1.0, False], [2.0, 1.0]]
        self._assert_invalid(tmp_path, capsys, data, "plant.A")

    def test_default_lyapunov_q_is_checked_at_load(self, tmp_path, capsys):
        # without gains.Q the run solves with Q = I; a barely Hurwitz A_m
        # used to validate and then exit 2
        data = ct_dict("lyapunov_direct",
                       {"Gamma": 1.0, "gamma": 1.0, "sign_k2": 1.0})
        data["reference"]["A_m"] = [[0.0, 1.0], [-2.0, -1e-308]]
        self._assert_invalid(tmp_path, capsys, data, "gains.Q (default I)")

    def test_projection_start_is_checked_at_load(self, tmp_path, capsys):
        # the runners' start check used to run only in run, so validate
        # accepted a start that run then refused with exit 2
        tight = {"signs": 1, "k2_upper": 0.1}
        discrete = dict(bench_dict(**INDIRECT, horizon=20), projection=tight,
                        init={"theta_scale": 1.0})
        ct = dict(ct_dict("lyapunov_indirect", {"Gamma1": 1.0, "Gamma2": 1.0},
                          projection=tight), horizon=20)

        def error(theta2):
            return (f"init: initial theta2[0]={theta2} violates sign/lower-"
                    "bound (need sign +1, magnitude >= 10)")

        path = tmp_path / "start.json"
        for data, theta2 in ((discrete, "2"), (ct, "2.5")):
            path.write_text(json.dumps(data))
            for verb in ("validate", "run"):
                assert main([verb, str(path)]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.splitlines() == [
                    f"invalid: {error(theta2)}"]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"configs": [
            dict(discrete, name="bad"), bench_dict(horizon=20, name="good")]}))
        assert main(["batch", str(spec)]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in rows] == ["invalid", "ok"]
        assert rows[0]["errors"] == [error("2")]
        # a start on the bound runs
        path.write_text(json.dumps(dict(
            discrete, projection={"signs": 1, "theta2_lower": 2.0},
            init={"theta0": [[-0.95], [-2.2], [2.0]]})))
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("time_domain", ["discrete", "continuous"])
    def test_theta2_floor_is_checked_at_load(self, tmp_path, capsys,
                                             time_domain):
        # the gradient law's invertibility floor at step 0 used to be
        # checked only by the run, which then failed with exit 2
        if time_domain == "discrete":
            base = bench_dict(**INDIRECT, horizon=20)
        else:
            base = dict(ct_dict("indirect_gradient", {"Gamma": 1.0}),
                        horizon=20)
        # a disabled projection keeps its floor theta2_lower = 10 above
        # theta2(0) = 2; without a projection or init theta2(0) = 0
        disabled = dict(base, projection={"signs": 1, "k2_upper": 0.1,
                                          "enabled": False},
                        init={"theta_scale": 1.0})
        bare = {key: value for key, value in base.items()
                if key not in ("projection", "init")}
        path = tmp_path / "floor.json"
        for data, theta2 in ((disabled, "2."), (bare, "0.")):
            path.write_text(json.dumps(data))
            for verb in ("validate", "run"):
                assert main([verb, str(path)]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.splitlines() == [
                    f"invalid: init: theta2 diagonal [{theta2}] below the "
                    "invertibility threshold at step 0"]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"configs": [disabled, bare]}))
        assert main(["batch", str(spec)]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in rows] == ["invalid", "invalid"]
        # a disabled projection with theta2(0) = 2.5 above its floor 1 loads
        # and runs
        path.write_text(json.dumps(dict(
            base, projection={"signs": 1, "k2_upper": 1.0, "enabled": False},
            init={"theta_scale": 1.25})))
        assert main(["validate", str(path)]) == 0
        assert main(["run", str(path), "--out", str(tmp_path)]) == 0

    @staticmethod
    def _assert_invalid(tmp_path, capsys, data, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for verb in ("validate", "run"):
            assert main([verb, str(bad)]) == 1
            [err] = capsys.readouterr().err.splitlines()
            assert err.startswith(f"invalid: {field}: ")

    def test_divergence_exit_code(self, tmp_path, capsys):
        # a continuous-time run with an absurd step size blows up
        data = bench_dict(scheme="direct_gradient", time_domain="continuous",
                          horizon=200, ct_step=10.0)
        data["gains"] = {"Gamma": 1.0, "gamma": 1.0, "sign_k2": 1.0,
                         "k2_lower": 0.5}
        data["reference"]["A_m"] = [[0.0, 1.0], [-2.0, -3.0]]
        data["plant"]["A"] = [[0.0, 1.0], [1.0, -1.0]]
        data["init"] = {"theta_scale": 0.5}
        cfg = tmp_path / "diverge.json"
        cfg.write_text(json.dumps(data))
        assert main(["run", str(cfg), "--out", str(tmp_path)]) == 2

    def test_summaries_are_strict_json(self, tmp_path, capsys):
        # from 1e5 times the true parameters the run diverges at step 61,
        # with an infinite sum_eps2_over_m2 and a NaN tail_frac_eps, which
        # strict JSON (RFC 8259) has no literal for. These three hold on
        # every OpenBLAS kernel (SkylakeX, Haswell, Sandybridge, Nehalem,
        # Katmai) and for any scale within 1e-6 of it, relative; from 400
        # times, the step moved with the kernel and with one ulp of the
        # scale
        data = bench_dict(init={"theta_scale": 1e5, "rho_scale": 1.25},
                          horizon=300)
        cfg, spec = tmp_path / "cfg.json", tmp_path / "spec.json"
        cfg.write_text(json.dumps(data))
        spec.write_text(json.dumps({"configs": [data]}))

        def strict(text):
            def refuse(constant):
                raise ValueError(f"{constant} is not JSON")
            return json.loads(text, parse_constant=refuse)

        assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 2
        summary = strict(capsys.readouterr().out)
        assert summary["steps"] == 61
        assert summary["sum_eps2_over_m2"] == "inf"
        assert summary["tail_frac_eps"] == "nan"
        path = tmp_path / "run" / f"{data['name']}.summary.json"
        assert strict(path.read_text()) == summary
        assert main(["batch", str(spec)]) == 2
        [row] = strict(capsys.readouterr().out)
        assert row == dict(summary, status="diverged")
        # every float of the block takes the one spelling
        run = run_scenario(config_from_dict(data))
        trace = run.trace._replace(summary=run.trace.summary._replace(
            final_V=-np.inf, sum_dtheta_sq=np.nan))
        spelled = summary_dict(run._replace(trace=trace))
        assert (spelled["final_V"], spelled["sum_dtheta_sq"]) == ("-inf",
                                                                  "nan")

    def test_strict_invariant_exit_code(self, tmp_path, monkeypatch, capsys):
        import mrac.cli as cli_mod
        cfg_path = tmp_path / "bench.json"
        main(["example", "--paper", "--out", str(cfg_path)])
        real = cli_mod.run_scenario

        def doctored(cfg, *outputs):
            run = real(cfg, *outputs)._replace(exit_status=3)
            run.invariants["delta_v_ok"] = False
            return run

        monkeypatch.setattr(cli_mod, "run_scenario", doctored)
        assert main(["run", str(cfg_path), "--strict"]) == 3
        assert main(["run", str(cfg_path)]) == 0  # without --strict

    def test_gnuplot_layout(self, tmp_path):
        cfg_path = tmp_path / "bench.json"
        main(["example", "--paper", "--out", str(cfg_path)])
        data = json.loads(cfg_path.read_text())
        data["horizon"] = 50
        data["output"] = {"dir": None, "trace": False, "summary": False,
                          "gnuplot": True}
        cfg_path.write_text(json.dumps(data))
        main(["run", str(cfg_path), "--out", str(tmp_path)])
        lines = (tmp_path / "second-order-benchmark.dat").read_text().splitlines()
        assert lines[0].startswith("# t e_1 e_2")
        assert len(lines) == 52
        assert len(lines[1].split()) == 3


LYAP_DIRECT = {"Gamma": 1.0, "gamma": 1.0, "sign_k2": 1.0}
PROJECTION = {"signs": 1.0, "k2_upper": 1.0}


class TestSchema:
    """Each key is checked against the one table entry that declares it:
    which schemes read it, which keys it excludes, and its kind."""

    @staticmethod
    def _assert_errors(tmp_path, capsys, data, want):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        for verb in ("validate", "run"):
            assert main([verb, str(bad), "--out", str(tmp_path / "out")]
                        if verb == "run" else [verb, str(bad)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [f"invalid: {w}" for w in want]
        assert not (tmp_path / "out").exists()

    def test_projection_is_read_by_the_indirect_schemes_only(self, tmp_path,
                                                             capsys):
        # a projection on a direct scheme used to validate and be ignored
        for scheme, data in [
                ("direct_gradient", bench_dict(projection=PROJECTION)),
                ("lyapunov_direct", ct_dict("lyapunov_direct", LYAP_DIRECT,
                                            PROJECTION))]:
            self._assert_errors(tmp_path, capsys, data,
                                [f"projection: not read by {scheme}"])
        # null is no projection; serialize_config emits it for every scheme
        for data in (bench_dict(projection=None),
                     ct_dict("lyapunov_direct", LYAP_DIRECT),
                     ct_dict("indirect_gradient", {"Gamma": 1.0}),
                     ct_dict("lyapunov_indirect", {"Gamma1": 1.0},
                             PROJECTION)):
            cfg = config_from_dict(data)
            assert load_config(serialize_config(cfg)) == cfg

    def test_s_p_excludes_the_single_input_gains(self, tmp_path, capsys):
        # S_p used to win silently over a contradictory sign_k2
        gains = {"S_p": 1.0, "Gamma": 5.0, "gamma": 3.0, "sign_k2": -1.0}
        self._assert_errors(
            tmp_path, capsys, ct_dict("lyapunov_direct", gains),
            [f"gains.{key}: cannot be combined with S_p"
             for key in ("Gamma", "gamma", "sign_k2")])
        config_from_dict(ct_dict("lyapunov_direct", {"S_p": 1.0}))

    def test_init_keys_follow_the_schemes_that_read_them(self, tmp_path,
                                                         capsys):
        # the direct runner discards xhat0, the others rho0 and rho_scale
        data = bench_dict(horizon=20)
        data["init"].update(xhat0=[0.0, 0.0])
        self._assert_errors(tmp_path, capsys, data,
                            ["init.xhat0: not read by direct_gradient"])
        for scheme, gains, projection in [
                ("indirect_gradient", {"Gamma": 1.0}, PROJECTION),
                ("lyapunov_direct", LYAP_DIRECT, None),
                ("lyapunov_indirect", {}, PROJECTION)]:
            data = ct_dict(scheme, gains, projection)
            data["init"].update(rho0=[1.0], rho_scale=1.0)
            self._assert_errors(tmp_path, capsys, data, [
                f"init.{key}: not read by {scheme}"
                for key in ("rho_scale", "rho0")])
        data = bench_dict(init={"theta_scale": 1.0, "theta0": [0.0] * 3})
        self._assert_errors(tmp_path, capsys, data,
                            ["init.theta0: cannot be combined with "
                             "theta_scale"])

    def test_continuous_time_keys_stay_valid_in_discrete_time(self):
        # the round trip emits ct_step and integrator for every config
        data = bench_dict(ct_step=0.5, integrator="euler")
        assert data["time_domain"] == "discrete"
        cfg = config_from_dict(data)
        assert load_config(serialize_config(cfg)) == cfg

    def test_flags_must_be_json_booleans(self, tmp_path, capsys):
        # bool("false") is True: the string used to switch projection on
        data = bench_dict(horizon=20, **INDIRECT)
        data["projection"] = dict(PROJECTION, enabled="false")
        self._assert_errors(tmp_path, capsys, data, [
            "projection.enabled: expected true or false, got 'false'"])
        data = bench_dict(horizon=20)
        data["gains"]["enforce_diagonal_k2"] = "false"
        self._assert_errors(tmp_path, capsys, data, [
            "gains.enforce_diagonal_k2: expected true or false, got 'false'"])

    @pytest.mark.parametrize("name", [5, "", ".", "..", "sub/x", "../x",
                                      "a\0b", ["x"]])
    def test_name_must_be_a_file_name(self, tmp_path, capsys, name):
        # "../x" used to write x.trace.csv outside --out, "sub/x" and
        # "a\0b" to end in a traceback, and 5 to be read as "5"
        self._assert_errors(tmp_path, capsys,
                            bench_dict(horizon=20, name=name),
                            [f"name: expected a file name, got {name!r}"])
        assert os.listdir(tmp_path) == ["bad.json"]

    def test_swept_members_keep_a_bad_name(self, tmp_path, capsys):
        # a sweep used to end in a traceback appending its tags to 5
        base = tmp_path / "base.json"
        base.write_text(json.dumps(bench_dict(horizon=20, name=5)))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"base": str(base),
                                    "sweep": {"gains.gamma": [0.5, 1.0]}}))
        assert main(["batch", str(spec)]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert [row["errors"] for row in rows] == [
            ["name: expected a file name, got 5"]] * 2

    @staticmethod
    def _sized_name(size):
        # two-byte characters, so that bytes of UTF-8 count, not characters
        return "\u00e9" * (size // 2) + "x" * (size % 2)

    def test_a_name_whose_files_fit_runs(self, tmp_path, capsys):
        # <name>.summary.json of a 242-byte name is 255 bytes long
        name = self._sized_name(242)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bench_dict(horizon=20, name=name)))
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert sorted(os.listdir(out)) == [name + ".summary.json",
                                           name + ".trace.csv"]

    def test_a_name_too_long_for_its_files_is_invalid(self, tmp_path,
                                                      capsys):
        # a 245-byte name used to write its trace, then end in an OSError
        # traceback opening its summary
        name = self._sized_name(243)
        want = ("name: 243 bytes of UTF-8, above the limit of 242 that keeps "
                "<name>.summary.json within a 255-byte file name")
        self._assert_errors(tmp_path, capsys,
                            bench_dict(horizon=20, name=name), [want])
        # as a batch member its row is invalid, and the others still run
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"configs": [
            bench_dict(horizon=20, name="a"), bench_dict(horizon=20, name=name),
            bench_dict(horizon=20, name="b")]}))
        out = tmp_path / "out"
        assert main(["batch", str(spec), "--out", str(out)]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in rows] == ["ok", "invalid", "ok"]
        assert rows[1]["errors"] == [want]
        assert sorted(os.listdir(out)) == [
            "a.summary.json", "a.trace.csv", "b.summary.json", "b.trace.csv"]

    def test_a_lone_surrogate_names_no_file(self, tmp_path, capsys):
        # JSON spells "\ud800", which has no UTF-8 bytes: both used to
        # validate, then end in a UnicodeEncodeError traceback
        self._assert_errors(tmp_path, capsys,
                            bench_dict(horizon=20, name="x\ud800"),
                            ["name: expected a file name, got 'x\\ud800'"])
        self._assert_errors(
            tmp_path, capsys, edited(bench_dict(horizon=20), "output",
                                     dir="x\ud800"),
            ["output.dir: expected a directory path or null, got "
             "'x\\ud800'"])


class TestSweepChecks:
    """A sweep is checked and sized before ``cli._sweep`` makes a member: a
    key whose path runs through a value of the base that is not an object,
    a key inside another swept key, and a batch above BATCH_MEMBERS_MAX
    are one ``invalid batch spec`` line each, with exit 1."""

    GAINS = {"Gamma": 0.5, "gamma": 1.0, "k2_lower": 0.5, "sign_k2": 1.0}

    @pytest.fixture
    def unbuilt(self, monkeypatch):
        """No sweep is expanded, and no member of a config list read."""
        import mrac.cli as cli_mod
        read = cli_mod._document

        def refused(base, sweep):
            raise AssertionError("a sweep was expanded")

        def document(item, where, errors):
            assert where == "base", "a member was read"
            return read(item, where, errors)

        monkeypatch.setattr(cli_mod, "_sweep", refused)
        monkeypatch.setattr(cli_mod, "_document", document)

    @staticmethod
    def _refused(tmp_path, capsys, spec, want):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["batch", str(path), "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err and captured.out == ""
        assert captured.err.splitlines() == [f"invalid batch spec: {line}"
                                             for line in want]

    @pytest.mark.parametrize("overrides, sweep, want", [
        # each ended in a TypeError traceback from cli._set_dotted
        ({"gains": 1.0}, {"gains.Gamma": [0.5]},
         ["sweep.gains.Gamma: gains is a number, not an object"]),
        ({}, {"plant.A.x": [1.0]},
         ["sweep.plant.A.x: plant.A is an array, not an object"]),
        ({}, {"output.trace.x": [1]},
         ["sweep.output.trace.x: output.trace is a boolean, not an object"]),
        # the member named gamma=0.5 ran with the swept gains' gamma, 1.0
        ({}, {"gains": [GAINS], "gains.gamma": [0.5, 1.0]},
         ["sweep.gains.gamma: inside the swept key gains"]),
        # every such key is listed, each once
        ({}, {"name.x": [1], "x.y.z": [1], "x.y": [2], "seed": [1]},
         ["sweep.name.x: name is a string, not an object",
          "sweep.x.y.z: inside the swept key x.y"]),
    ])
    def test_a_key_no_member_can_take_is_refused(self, tmp_path, capsys,
                                                 unbuilt, overrides, sweep,
                                                 want):
        self._refused(tmp_path, capsys, {
            "base": bench_dict(horizon=20, **overrides), "sweep": sweep},
            want)

    def test_a_refusal_has_no_traceback(self, tmp_path):
        # as the command line runs it, with every warning an error
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"base": bench_dict(gains=1.0),
                                    "sweep": {"gains.Gamma": [0.5, 1.0]}}))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "mrac", "batch", str(spec)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == ("invalid batch spec: sweep.gains.Gamma: gains "
                               "is a number, not an object\n")

    def test_a_null_on_the_path_counts_as_absent(self, tmp_path, capsys):
        # projection: null ended in the same traceback
        base = bench_dict(horizon=20, projection=None, **INDIRECT)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"base": base, "sweep": {
            "projection.signs": [[1.0]], "projection.k2_upper": [[1.0]]}}))
        assert main(["batch", str(spec), "--out", str(tmp_path)]) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["status"] == "ok"
        assert row["invariants"]["projection_ok"] is True

    def test_each_swept_gain_is_its_own(self, tmp_path, capsys):
        base = bench_dict(horizon=200, gains=self.GAINS)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"base": base,
                                    "sweep": {"gains.gamma": [0.5, 1.0]}}))
        assert main(["batch", str(spec), "--out", str(tmp_path)]) == 0
        rows = json.loads(capsys.readouterr().out)
        for row, gamma in zip(rows, (0.5, 1.0)):
            alone = run_scenario(config_from_dict(
                edited(dict(base), "gains", gamma=gamma)))
            assert row["sum_eps2_over_m2"] == summary_dict(
                alone)["sum_eps2_over_m2"]
        assert rows[0]["sum_eps2_over_m2"] != rows[1]["sum_eps2_over_m2"]

    def test_a_batch_above_the_cap_is_refused_unbuilt(self, tmp_path, capsys,
                                                      unbuilt):
        from mrac.cli import BATCH_MEMBERS_MAX
        values = list(range(1000))
        start = time.perf_counter()
        self._refused(tmp_path, capsys, {"base": bench_dict(), "sweep": {
            "seed": values, "horizon": values, "ct_step": values}},
            [f"sweep: {1000 ** 3} members, above the {BATCH_MEMBERS_MAX} "
             "a batch may have"])
        assert time.perf_counter() - start < 1.0
        self._refused(tmp_path, capsys,
                      {"configs": [{}] * (BATCH_MEMBERS_MAX + 1)},
                      [f"configs: {BATCH_MEMBERS_MAX + 1} members, above the "
                       f"{BATCH_MEMBERS_MAX} a batch may have"])

    def test_a_batch_at_the_cap_is_expanded(self, tmp_path, capsys,
                                            monkeypatch):
        import mrac.cli as cli_mod
        assert cli_mod.BATCH_MEMBERS_MAX == MEMORY_BUDGET_BYTES // (12 << 10)
        made = []
        monkeypatch.setattr(cli_mod, "_sweep",
                            lambda base, sweep: made.append(sweep) or [])
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"base": bench_dict(), "sweep": {
            "seed": list(range(cli_mod.BATCH_MEMBERS_MAX))}}))
        assert main(["batch", str(spec)]) == 0
        assert capsys.readouterr().out == "[]\n" and len(made) == 1

    @pytest.mark.parametrize("spec, want", [
        ({"base": bench_dict(horizon=20),
          "sweeps": {"gains.gamma": [0.5, 1.0]}}, ["sweeps: unknown key"]),
        ({"configs": [bench_dict(horizon=20)],
          "sweep": {"gains.gamma": [0.5, 1.0]}},
         ["sweep: cannot be combined with configs"]),
        ({"base": bench_dict(horizon=20), "configs": [bench_dict(horizon=20)]},
         ["base: cannot be combined with configs"]),
        ({"configs": 5, "base": 5, "sweep": 5, "sweeps": 5},
         ["base: cannot be combined with configs",
          "sweep: cannot be combined with configs", "sweeps: unknown key",
          "configs: expected a list, got a number"]),
    ], ids=["misspelt-sweep", "configs-and-sweep", "configs-and-base",
            "every-line"])
    def test_a_key_the_spec_does_not_read_is_refused(self, tmp_path, capsys,
                                                    ran, spec, want):
        # the first three each ran one member and exited 0, leaving the
        # sweep or the base unread
        self._refused(tmp_path, capsys, spec, want)
        assert ran == []


@pytest.fixture
def ran(monkeypatch):
    """The calls of the CLI's runners, which run nothing."""
    import mrac.cli as cli_mod
    ran = []
    monkeypatch.setattr(cli_mod, "run_scenario",
                        lambda *args: ran.append(args))
    monkeypatch.setattr(cli_mod, "run_lockstep",
                        lambda *args: ran.append(args))
    return ran


class TestOutputDirectories:
    """A directory that cannot be made at --out or output.dir is one line:
    a path component longer than a file name is invalid before anything
    runs, and any other OSError making it fails the run or the member."""

    TOO_LONG = ("a path component of 256 bytes, above the limit of 255 of a "
                "file name")

    def test_a_component_of_255_bytes_runs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bench_dict(horizon=20)))
        out = tmp_path / ("d" * 255)
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert sorted(os.listdir(out)) == [
            "second-order-benchmark.summary.json",
            "second-order-benchmark.trace.csv"]

    @pytest.mark.parametrize("role", ["run --out", "batch --out",
                                      "validate output.dir", "run output.dir",
                                      "member output.dir"])
    def test_a_component_of_256_bytes_is_invalid(self, tmp_path, capsys, ran,
                                                 role):
        # used to pass validation, then end in an OSError traceback from
        # os.makedirs
        long = str(tmp_path / ("d" * 256) / "out")
        verb, where = role.split()
        data = bench_dict(horizon=20)
        if where == "output.dir":
            data = edited(data, "output", dir=long)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        if verb in ("batch", "member"):
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"configs": [str(path)]}))
            verb, path = "batch", spec
        argv = [verb, str(path)] + (["--out", long] if where == "--out"
                                    else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        if role == "member output.dir":
            [row] = json.loads(captured.out)
            assert captured.err == "" and row["status"] == "invalid"
            assert row["errors"] == [f"output.dir: {self.TOO_LONG}"]
        else:
            assert captured.out == ""
            assert captured.err == f"invalid: {where}: {self.TOO_LONG}\n"
        assert ran == [] and not os.path.exists(long)

    @pytest.mark.parametrize("verb", ["run", "batch"])
    @pytest.mark.parametrize("out", ["", "x\ud800", "x\0y"],
                             ids=["empty", "surrogate", "nul"])
    def test_an_out_that_output_dir_refuses_is_invalid(
            self, tmp_path, capsys, monkeypatch, ran, verb, out):
        # an empty --out used to write nothing and exit 0, a lone surrogate
        # to end in a UnicodeEncodeError traceback and a NUL in a
        # ValueError one
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(edited(bench_dict(horizon=20), "output",
                                          dir=out)))
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"invalid: output.dir: expected a directory path or null, got "
            f"{out!r}\n")
        path.write_text(json.dumps(bench_dict(horizon=20)))
        if verb == "batch":
            path = tmp_path / "spec.json"
            path.write_text(json.dumps({"configs": [str(tmp_path /
                                                        "cfg.json")]}))
        assert main([verb, str(path), "--out", out]) == 1
        assert capsys.readouterr() == (
            "", f"invalid: --out: expected a directory path, got {out!r}\n")
        assert ran == [] and sorted(os.listdir(tmp_path)) == sorted(
            {"cfg.json", path.name})

    def test_a_directory_that_cannot_be_made_is_one_line(self, tmp_path,
                                                         capsys, monkeypatch):
        denied, real = str(tmp_path / "denied"), os.makedirs

        def makedirs(path, *args, **kwargs):
            if path == denied:
                raise PermissionError(13, "Permission denied", path)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(os, "makedirs", makedirs)
        why = f"[Errno 13] Permission denied: {denied!r}"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(bench_dict(horizon=20)))
        assert main(["run", str(cfg), "--out", denied]) == 1
        assert capsys.readouterr() == ("", f"invalid: --out: {why}\n")
        cfg.write_text(json.dumps(edited(bench_dict(horizon=20), "output",
                                         dir=denied)))
        assert main(["run", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"invalid: output.dir: {why}\n")
        # the member fails and the others run
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"configs": [
            bench_dict(horizon=20, name="a"), str(cfg),
            edited(bench_dict(horizon=20, name="b"), "output",
                   dir=str(tmp_path / "b"))]}))
        assert main(["batch", str(spec)]) == 1
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert captured.err == ""
        assert [row["status"] for row in rows] == ["ok", "failed", "ok"]
        assert rows[1]["errors"] == [f"output.dir: {why}"]
        assert sorted(os.listdir(tmp_path / "b")) == ["b.summary.json",
                                                      "b.trace.csv"]
        assert main(["batch", str(spec), "--out", denied]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert [row["errors"] for row in rows] == [[f"--out: {why}"]] * 3


class TestBlockedOutputs:
    """A member's files move into place together or not at all: a
    destination that refuses its file, a directory in the way of it among
    others, fails the run, or the member, in one line that names it, and
    leaves none of its files, temporary or moved; the other members of a
    batch write theirs."""

    SUFFIXES = (".trace.csv", ".summary.json", ".dat")

    @staticmethod
    def member(name):
        return edited(bench_dict(name=name, horizon=20), "output",
                      gnuplot=True)

    @staticmethod
    def blocked(out, suffix):
        """The member x's file of ``suffix`` in ``out``, a directory, and
        the line that names it."""
        path = os.path.join(out, f"x{suffix}")
        os.makedirs(path)
        return path, (f"--out: [Errno {errno.EISDIR}] "
                      f"{os.strerror(errno.EISDIR)}: {path!r}")

    @pytest.mark.parametrize("suffix", SUFFIXES)
    def test_a_run_moves_none_of_its_files(self, tmp_path, capsys, suffix):
        # these used to end in a traceback, the first two after the trace
        # had been moved into place, the second naming the .part file
        cfg, out = tmp_path / "cfg.json", str(tmp_path / "out")
        cfg.write_text(json.dumps(self.member("x")))
        path, line = self.blocked(out, suffix)
        assert main(["run", str(cfg), "--out", out]) == 2
        assert capsys.readouterr() == ("", f"run failed: {line}\n")
        assert os.listdir(out) == [os.path.basename(path)]

    def test_a_refused_move_takes_back_the_files_moved(self, tmp_path,
                                                      capsys, monkeypatch):
        # the last file is refused for another reason than a directory in
        # its way, once the trace and the summary are in place
        cfg, out = tmp_path / "cfg.json", str(tmp_path / "out")
        cfg.write_text(json.dumps(self.member("x")))
        path, replace = os.path.join(out, "x.dat"), os.replace

        def refuse(src, dst):
            if os.fspath(dst) == path:
                raise PermissionError(errno.EACCES,
                                      os.strerror(errno.EACCES), src)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", refuse)
        assert main(["run", str(cfg), "--out", out]) == 2
        line = (f"--out: [Errno {errno.EACCES}] "
                f"{os.strerror(errno.EACCES)}: {path!r}")
        assert capsys.readouterr() == ("", f"run failed: {line}\n")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("others", [1, 3], ids=["lone", "lockstep"])
    @pytest.mark.parametrize("suffix", SUFFIXES)
    def test_a_batch_member_moves_none_of_its_files(self, tmp_path, capsys,
                                                    suffix, others):
        # with three others, x runs in a lockstep group of four
        names = [f"y{i}" for i in range(others)]
        spec, out = tmp_path / "spec.json", str(tmp_path / "out")
        spec.write_text(json.dumps({"configs": [
            self.member(name) for name in ["x", *names]]}))
        path, line = self.blocked(out, suffix)
        assert main(["batch", str(spec), "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = json.loads(captured.out)
        assert rows[0] == {"name": "x", "status": "failed", "errors": [line]}
        assert [row["status"] for row in rows[1:]] == ["ok"] * others
        assert sorted(os.listdir(out)) == sorted(
            [os.path.basename(path)]
            + [name + s for name in names for s in self.SUFFIXES])


class TestFailedWrites:
    """A lockstep member whose row file cannot be written, while it runs or
    as it finishes, fails alone: its row is ``failed`` with the error line,
    the other members of its group write their files, the batch exits 1,
    and no temporary file is left."""

    @pytest.mark.parametrize("failing, member", [(3, 2), (10, 1)],
                             ids=["first-block", "last-block"])
    def test_a_member_that_cannot_write_fails_alone(self, tmp_path, capsys,
                                                    monkeypatch, failing,
                                                    member):
        # the bundled config at 3,001 rows gives each member of one group
        # of four three blocks, the last in its finish: the third write is
        # member 2's first block, the tenth member 1's last. Both used to
        # end the batch in a traceback from diagnostics.Stream._block
        import mrac.cli as cli_mod
        add, writes, lines = cli_mod.RowFile.add, [], []

        def add_or_fail(self, rows, lo, end=None):
            writes.append(self.temp)
            if len(writes) == failing:  # as a removed directory gives
                exc = FileNotFoundError(errno.ENOENT,
                                        os.strerror(errno.ENOENT), self.temp)
                lines.append(str(exc))
                raise exc
            add(self, rows, lo, end)

        monkeypatch.setattr(cli_mod.RowFile, "add", add_or_fail)
        spec, out = tmp_path / "spec.json", tmp_path / "out"
        spec.write_text(json.dumps({
            "base": bench_dict(horizon=3000),
            "sweep": {"init.theta_scale": [1.1, 1.2, 1.3, 1.4]}}))
        assert main(["batch", str(spec), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        rows = json.loads(captured.out)
        names = [row["name"] for row in rows]
        assert rows[member] == {"name": names[member], "status": "failed",
                                "errors": lines}
        assert [row["status"] for b, row in enumerate(rows)
                if b != member] == ["ok"] * 3
        assert sorted(os.listdir(out)) == sorted(
            name + suffix for b, name in enumerate(names) if b != member
            for suffix in (".trace.csv", ".summary.json"))


class TestInputDocuments:
    """Configs, batch specs, batch members and sweep bases are read by one
    reader: UTF-8 with or without a byte-order mark, and every document
    that cannot be read is an ``invalid`` line, never a traceback."""

    BAD = {
        "utf-16": json.dumps(bench_dict(horizon=20)).encode("utf-16"),
        "not-utf-8": b'{"name": "\xff"}',
        "deep": b"[" * 100_000,
        "digits": b'{"horizon": ' + b"1" * 5000 + b"}",
    }

    @staticmethod
    def _argv(role, path, tmp_path):
        out = ["--out", str(tmp_path / "out")]
        if role in ("validate", "run"):
            return [role, path] + (out if role == "run" else [])
        if role == "spec":
            return ["batch", path] + out
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"configs": [path]} if role == "member"
            else {"base": path, "sweep": {"gains.gamma": [0.5, 1.0]}}))
        return ["batch", str(spec)] + out

    @pytest.mark.parametrize("role", ["validate", "run", "spec", "member",
                                      "base"])
    @pytest.mark.parametrize("kind", sorted(BAD) + ["missing", "directory"])
    def test_an_unreadable_document_is_invalid(self, tmp_path, capsys, ran,
                                               role, kind):
        # a UTF-16 or non-UTF-8 file used to end in a UnicodeDecodeError
        # traceback, deep nesting in a RecursionError one and an integer
        # of more digits than int() takes in a ValueError one
        path = tmp_path / "doc.json"
        if kind in self.BAD:
            path.write_bytes(self.BAD[kind])
        elif kind == "directory":
            path.mkdir()
        assert main(self._argv(role, str(path), tmp_path)) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("invalid")
        assert ran == [] and not (tmp_path / "out").exists()

    def test_the_reader_names_each_failure(self, tmp_path):
        path = tmp_path / "doc.json"
        for content, want in [
                (self.BAD["utf-16"], "cannot read config file: 'utf-8' "
                 "codec can't decode byte 0xff in position 0"),
                (self.BAD["deep"], "parse error: maximum recursion depth "
                 "exceeded"),
                (b'{"a": 1,}', "parse error at line 1, column 9: Expecting "
                 "property name enclosed in double quotes"),
                (b"[1, 2]", "config document must be a JSON object")]:
            path.write_bytes(content)
            with pytest.raises(ConfigError) as info:
                load_config(str(path))
            [error] = info.value.errors
            assert error.startswith(want)

    def test_a_spec_parse_error_has_its_position(self, tmp_path, capsys):
        # a batch spec's or member's JSON error now reads as load_config's
        spec = tmp_path / "spec.json"
        spec.write_text('{"configs": [\n  1,,\n]}')
        assert main(["batch", str(spec)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid batch spec: parse error at line 2, column 5: Expecting "
            "value"]
        member = tmp_path / "member.json"
        member.write_text("{")
        spec.write_text(json.dumps({"configs": [str(member)]}))
        assert main(["batch", str(spec)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid batch spec: configs[0]: parse error at line 1, column "
            "2: Expecting property name enclosed in double quotes"]

    def test_a_byte_order_mark_or_a_brace_in_the_path_changes_nothing(
            self, tmp_path, capsys):
        # a UTF-8 byte-order mark used to be refused, and any path holding
        # a "{" was read as JSON text
        text = json.dumps(bench_dict(horizon=300))
        plain = tmp_path / "plain.json"
        plain.write_text(text, encoding="utf-8")
        bom = tmp_path / "bom.json"
        bom.write_text(text, encoding="utf-8-sig")
        (tmp_path / "a{b}").mkdir()
        brace = tmp_path / "a{b}" / "plain.json"
        brace.write_text(text, encoding="utf-8")
        got = []
        for i, path in enumerate([plain, bom, brace]):
            out = tmp_path / f"out{i}"
            assert main(["validate", str(path)]) == 0
            assert main(["run", str(path), "--out", str(out)]) == 0
            spec = tmp_path / f"spec{i}.json"
            spec.write_text(json.dumps({"configs": [str(path)]}),
                            encoding="utf-8-sig" if path == bom else "utf-8")
            assert main(["batch", str(spec)]) == 0
            files = {name: (out / name).read_bytes()
                     for name in sorted(os.listdir(out))}
            got.append((capsys.readouterr(), files))
        assert len(got[0][1]) == 2 and got[0] == got[1] == got[2]
        assert load_config(str(brace)) == load_config(text)

    def test_only_a_str_that_starts_with_a_brace_is_json_text(self, tmp_path):
        text = json.dumps(bench_dict(horizon=20))
        assert load_config(" \n\t" + text) == load_config(text)
        with pytest.raises(ConfigError) as info:
            load_config("x" + text)
        [error] = info.value.errors
        assert error.startswith("cannot read config file: [Errno")

    def test_member_and_base_strings_stay_paths(self, tmp_path, capsys):
        # JSON text given where a path goes is not read as a config; a
        # path with a NUL used to end in a ValueError traceback
        text = json.dumps({"name": "inline"})
        spec = tmp_path / "spec.json"
        for path, want in [(text, "[Errno 2]"), ("a\0b", "embedded null")]:
            for doc, where in [({"configs": [path]}, "configs[0]"),
                               ({"base": path, "sweep": {}}, "base")]:
                spec.write_text(json.dumps(doc))
                assert main(["batch", str(spec)]) == 1
                [line] = capsys.readouterr().err.splitlines()
                assert line.startswith(f"invalid batch spec: {where}: {want}")
        with pytest.raises(ConfigError) as info:
            load_config("a\0b")
        assert info.value.errors == [
            "cannot read config file: embedded null byte"]


class TestBatchExitRule:
    """1 if any member is invalid or failed, else 2 if any diverged, else
    0; every row is printed either way."""

    @staticmethod
    def _diverging():
        data = ct_dict("direct_gradient", {"Gamma": 1.0, "gamma": 1.0,
                                           "sign_k2": 1.0, "k2_lower": 0.5})
        data.update(ct_step=10.0, horizon=200, name="diverging")
        data["init"] = {"theta_scale": 0.5}
        return data

    def _batch(self, tmp_path, capsys, members):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"configs": members}))
        code = main(["batch", str(spec)])
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == len(members)
        return code, [row["status"] for row in rows]

    def test_statuses_set_the_exit_code(self, tmp_path, capsys, monkeypatch):
        good = bench_dict(horizon=20, name="good")
        bad = bench_dict(horizon=20, name="bad", horizn=5)
        assert self._batch(tmp_path, capsys, [good, self._diverging()]) == (
            2, ["ok", "diverged"])
        assert self._batch(tmp_path, capsys, [self._diverging(), bad]) == (
            1, ["diverged", "invalid"])
        import mrac.cli as cli_mod
        from mrac import ToolkitError
        real = cli_mod.run_scenario

        def failing(cfg, *outputs):
            if cfg.name == "boom":
                raise ToolkitError("boom")
            return real(cfg, *outputs)

        monkeypatch.setattr(cli_mod, "run_scenario", failing)
        boom = bench_dict(horizon=20, name="boom")
        assert self._batch(tmp_path, capsys, [good, boom]) == (
            1, ["ok", "failed"])
        assert self._batch(tmp_path, capsys, [good, good]) == (0, ["ok", "ok"])


def test_readme_config_example_validates():
    # the jsonc block of the README, its // comments stripped
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        block = fh.read().split("```jsonc\n", 1)[1].split("```", 1)[0]
    cfg = config_from_dict(json.loads(re.sub(r"//.*", "", block)))
    assert load_config(serialize_config(cfg)) == cfg


def test_discrete_direct_run_compiles_one_scheme(tmp_path):
    # the other schemes are never imported
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(bench_dict(horizon=20)))
    probe = ("import sys; from mrac.cli import main; main(['run', sys.argv[1]])"
             "; print(sorted(m for m in sys.modules if m.startswith('mrac')))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", probe, str(cfg)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    loaded = set(ast.literal_eval(proc.stdout.splitlines()[-1]))
    assert "mrac.direct" in loaded
    assert not loaded & {"mrac.indirect", "mrac.lyapunov"}


def test_validation_compiles_no_stepping_module(tmp_path):
    # every scheme's config, the indirect ones with an enabled projection,
    # is validated by config_from_dict and by mrac validate, and neither
    # imports the stepping modules; nor does importing load_config argparse
    paths = []
    for case in sorted(SCHEME_CASES):
        paths.append(tmp_path / f"{case}.json")
        paths[-1].write_text(json.dumps(_scheme_case(case)))
    probe = "\n".join([
        "import json, sys",
        "from mrac.cli import load_config",
        "seen = ['argparse' in sys.modules]",
        "from mrac.cli import main",
        "from mrac.scenario import config_from_dict",
        "stepping = ('mrac._rows', 'mrac.diagnostics', 'mrac.indirect',"
        " 'mrac.lyapunov')",
        "for path in sys.argv[1:]:",
        "    with open(path) as fh:",
        "        config_from_dict(json.load(fh))",
        "    seen.append([m for m in stepping if m in sys.modules])",
        "    seen.append([main(['validate', path])]"
        " + [m for m in stepping if m in sys.modules])",
        "print(seen)"])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", probe,
                           *map(str, paths)],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[:-1] == ["ok"] * len(paths)
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == [False] + [
        [], [0]] * len(paths)


def test_orjson_is_imported_only_to_write_a_trace(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(bench_dict(horizon=20)))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"configs": [str(cfg)]}))
    probe = ("import sys; from mrac.cli import main"
             "; seen = ['orjson' in sys.modules]"
             "; main(['batch', sys.argv[1]])"
             "; seen.append('orjson' in sys.modules)"
             "; main(['run', sys.argv[2], '--out', sys.argv[3]])"
             "; print(seen + ['orjson' in sys.modules])")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", probe, str(spec), str(cfg), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    # after the import, after a batch writing nothing, after a traced run
    assert ast.literal_eval(proc.stdout.splitlines()[-1]) == [
        False, False, True]
    assert (tmp_path / "second-order-benchmark.trace.csv").exists()


def test_the_program_entry_writes_what_main_writes(tmp_path, capsys):
    # python -m mrac runs src/mrac/__main__.py, which calls main() on
    # sys.argv, the one path on which main freezes the collector
    cfg = tmp_path / "bench.json"
    cfg.write_text(serialize_config(benchmark_config()))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "mrac", "run", str(cfg),
         "--out", str(tmp_path / "entry")],
        capture_output=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert main(["run", str(cfg), "--out", str(tmp_path / "main")]) == 0
    assert proc.stdout.decode() == capsys.readouterr().out

    def files(directory):
        return {path.name: path.read_bytes()
                for path in sorted(directory.iterdir())}

    written = files(tmp_path / "entry")
    assert sorted(written) == ["second-order-benchmark.summary.json",
                               "second-order-benchmark.trace.csv"]
    assert written == files(tmp_path / "main")


def test_only_a_process_of_one_command_freezes_the_collector(monkeypatch,
                                                             capsys):
    # main() parsing sys.argv itself (python -m mrac, the mrac script)
    # freezes what the process holds, so that no collection, the one at
    # exit included, scans it; a caller passing argv keeps collecting
    assert gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["mrac", "example", "--paper"])
    try:
        assert main() == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert main(["example", "--paper"]) == 0
    assert gc.get_freeze_count() == 0
    capsys.readouterr()


class TestLyapunovPremise:
    """The multi-input lyapunov_direct law needs S_p, and K2* S_p symmetric
    positive definite on a matchable plant: checked at load, with the
    matching solution, as the runner checks it."""

    NOT_SPD = "gains.S_p: K2* S_p is not symmetric positive definite"

    def _config(self, tmp_path, **gains):
        # k2* has one sign per input, so -I leaves K2* S_p indefinite
        data = lyapunov_mimo_dict("lyapunov_direct", S_p=-np.eye(2))
        if gains:
            data["gains"] = gains
        path = tmp_path / "s_p.json"
        path.write_text(json.dumps(data))
        return data, path

    def test_validate_and_run_exit_1(self, tmp_path, capsys):
        _, path = self._config(tmp_path)
        out = tmp_path / "out"
        for argv in (["validate", str(path)],
                     ["run", str(path), "--out", str(out)]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.splitlines() == [f"invalid: {self.NOT_SPD}"]
            assert captured.out == ""
        assert not out.exists()
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert info.value.errors == [self.NOT_SPD]

    def test_batch_member_is_invalid(self, tmp_path, capsys):
        data, _ = self._config(tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"configs": [data]}))
        assert main(["batch", str(spec)]) == 1
        [row] = json.loads(capsys.readouterr().out)
        assert row["status"] == "invalid"
        assert row["errors"] == [self.NOT_SPD]

    def test_missing_s_p_is_invalid(self, tmp_path, capsys):
        _, path = self._config(tmp_path, sign_k2=1.0)
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "invalid: gains.S_p: multi-input direct scheme needs S_p"]

    def test_the_runner_still_raises(self, tmp_path):
        from mrac import GainError, LyapunovDirectGains, run_lyapunov_scenario
        cfg = config_from_dict(lyapunov_mimo_dict("lyapunov_direct"))
        b = cfg.built
        with pytest.raises(GainError,
                           match=r"^K2\* S_p is not symmetric positive "):
            run_lyapunov_scenario(b.plant, b.reference, b.signal, "direct",
                                  LyapunovDirectGains(S_p=-np.eye(2)), None,
                                  b.init, 20)


def test_no_module_imports_dataclasses():
    # the value types are namedtuples and plain classes, so building them
    # costs no dataclass code generation at start-up
    probe = ("import sys, mrac.cli, mrac.scenario, mrac.indirect, "
             "mrac.lyapunov; print('dataclasses' in sys.modules)")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


class TestBatch:
    def _write_base(self, tmp_path, horizon=400):
        data = bench_dict(horizon=horizon)
        path = tmp_path / "base.json"
        path.write_text(json.dumps(data))
        return path

    def test_sweep_expands_and_passes(self, tmp_path, capsys):
        base = self._write_base(tmp_path)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "base": str(base),
            "sweep": {"gains.gamma": [0.5, 1.0, 1.5]},
        }))
        assert main(["batch", str(spec)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 3
        assert all(r["status"] == "ok" for r in rows)
        assert all(r["invariants"]["delta_v_ok"] for r in rows)

    def test_empty_batch(self, tmp_path, capsys):
        spec = tmp_path / "empty.json"
        spec.write_text(json.dumps({"configs": []}))
        assert main(["batch", str(spec)]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_invalid_member_is_isolated(self, tmp_path, capsys):
        good = bench_dict(horizon=200)
        bad = bench_dict(horizon=200)
        del bad["plant"]["B"]
        bad["name"] = "broken"
        spec = tmp_path / "mixed.json"
        spec.write_text(json.dumps({"configs": [good, bad, good]}))
        assert main(["batch", str(spec)]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert [r["status"] for r in rows] == ["ok", "invalid", "ok"]

    def test_members_do_not_share_files(self, tmp_path, capsys):
        # two members of one name used to write the same files, the second
        # run's over the first's
        first = bench_dict(horizon=300)
        second = bench_dict(horizon=300, init={"theta_scale": 1.5,
                                               "rho_scale": 1.5})
        spec = tmp_path / "same.json"
        spec.write_text(json.dumps({"configs": [first, second]}))
        out = tmp_path / "out"
        assert main(["batch", str(spec), "--out", str(out)]) == 1
        rows = json.loads(capsys.readouterr().out)
        assert [r["status"] for r in rows] == ["ok", "invalid"]
        base = os.path.realpath(out / first["name"])
        assert rows[1]["errors"] == [
            f"name: member 0 writes its files at {base} too"]
        summary = json.loads((out / f"{first['name']}.summary.json")
                             .read_text())
        assert summary == summary_dict(run_scenario(config_from_dict(first)))
        # members that write no files never conflict
        assert main(["batch", str(spec)]) == 0
        capsys.readouterr()

    def test_parallel_jobs_match_sequential(self, tmp_path, capsys):
        base = self._write_base(tmp_path, horizon=200)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "base": str(base),
            "sweep": {"gains.gamma": [0.5, 1.5]},
        }))
        assert main(["batch", str(spec)]) == 0
        seq = json.loads(capsys.readouterr().out)
        assert main(["batch", str(spec), "--jobs", "2"]) == 0
        par = json.loads(capsys.readouterr().out)
        assert par == seq

    def test_swept_paths_name_members_by_file_names(self, tmp_path, capsys,
                                                    monkeypatch):
        # a swept value holding "/" used to make its member's name a path,
        # and the member invalid
        monkeypatch.chdir(tmp_path)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "base": str(self._write_base(tmp_path, horizon=20)),
            "sweep": {"output.dir": ["o1", "sub/o2"]},
        }))
        assert main(["batch", str(spec)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["status"] for row in rows] == ["ok", "ok"]
        for directory, tag in (("o1", "o1"), ("sub/o2", "sub_o2")):
            name = f"second-order-benchmark[dir={tag}]"
            assert sorted(os.listdir(tmp_path / directory)) == [
                f"{name}.summary.json", f"{name}.trace.csv"]

    def test_worker_count_is_clamped(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert worker_count(10**6, 3) == 3
        assert worker_count(10**6, 100) == 4
        assert worker_count(2, 100) == 2
        assert worker_count(0, 5) == 1
        assert worker_count(8, 0) == 1
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert worker_count(10**6, 100) == 1

    def test_example_needs_the_flag(self, capsys):
        assert main(["example"]) == 1
        assert "--paper" in capsys.readouterr().err

    def test_batch_rows_equal_single_run_summaries(self, tmp_path, capsys):
        data = bench_dict(horizon=300)
        spec = tmp_path / "one.json"
        spec.write_text(json.dumps({"configs": [data]}))
        main(["batch", str(spec)])
        row = json.loads(capsys.readouterr().out)[0]
        row.pop("status")
        single = summary_dict(run_scenario(config_from_dict(data)))
        assert row == single

    def test_one_summary_per_run(self, tmp_path, capsys, monkeypatch):
        # run --out and batch --out used to build the summary twice: once
        # for the file, once for stdout or the row
        import mrac.cli as cli_mod
        calls = []
        real = cli_mod.summary_dict

        def counted(run):
            calls.append(run.config.name)
            return real(run)

        monkeypatch.setattr(cli_mod, "summary_dict", counted)
        data = dict(bench_dict(horizon=300), output={"trace": False})
        cfg = tmp_path / "one.json"
        cfg.write_text(json.dumps(data))
        single = summary_dict(run_scenario(config_from_dict(data)))
        text = json.dumps(single, indent=2, sort_keys=True) + "\n"
        name = data["name"] + ".summary.json"

        assert main(["run", str(cfg), "--out", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().out == text
        assert (tmp_path / "run" / name).read_text() == text
        assert calls == [data["name"]]

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"configs": [data]}))
        assert main(["batch", str(spec), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / name).read_text() == text
        assert capsys.readouterr().out == json.dumps(
            [dict(single, status="ok")], indent=2, sort_keys=True) + "\n"
        assert calls == [data["name"]] * 2
