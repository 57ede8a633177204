"""Lockstep groups of ``mrac batch``: same-shape discrete gradient members
stepped together on one stacked law (``scenario.run_lockstep``) give each
member the row, trace and records of its lone run, byte for byte."""

import json
import os
import platform
import subprocess
import sys
import weakref

import numpy as np
import pytest

import mrac.cli as cli_mod
from conftest import assert_block_step_is_each_lone_step
from mrac import (DirectGainConfig, IndirectGainConfig, InitialConditions,
                  ProjectionConfig, ReferenceSignal, ToolkitError,
                  random_matchable_instance, stack_controller_gains,
                  theta_star_indirect)
from mrac.cli import LOCKSTEP_MIN, batch_units, main, worker_count
from mrac.direct import _direct_member
from mrac.indirect import _indirect_member
from mrac.scenario import (benchmark_config, config_from_dict,
                           lockstep_key, run_lockstep, run_scenario,
                           streamed_bytes)

# several chunks of rows: 128 rows each alone, 128 // B in a group of B
HORIZON = 300


def member(seed, scheme, k2_upper=2.0, enabled=True, name=None,
           domain="discrete"):
    """An n=3, M=2 member on instance ``seed``; an indirect one has a
    projection with k2_upper = ``k2_upper`` |k2*|, which excludes theta2*
    and fires below 1."""
    plant, ref, _, K2 = random_matchable_instance(3, 2, seed, domain)
    k2 = np.diag(K2)
    data = benchmark_config().to_dict()
    data.update(
        name=name or f"{scheme.split('_')[0]}-s{seed}", scheme=scheme,
        time_domain=domain, horizon=HORIZON,
        plant={"A": plant.A.tolist(), "B": plant.B.tolist()},
        reference={"A_m": ref.A_m.tolist(), "B_m": ref.B_m.tolist()},
        signal={"kind": "sum_of_sinusoids", "amplitudes": [[1.0], [0.8]],
                "frequencies": [[0.13], [0.29]]},
        init={"theta_scale": 1.15})
    if scheme == "direct_gradient":
        data["gains"] = {"Gamma": 0.2, "gamma": 1.2,
                         "sign_k2": np.sign(k2).tolist(),
                         "k2_lower": (0.5 * np.abs(k2)).tolist(),
                         "enforce_diagonal_k2": True}
    else:
        data["gains"] = {"Gamma": 1.0}
        data["projection"] = {"signs": np.sign(k2).tolist(),
                              "k2_upper": (k2_upper * np.abs(k2)).tolist(),
                              "enabled": enabled}
    return data


def diverging(seed):
    """A direct member whose r jumps to 1e306 at step 200, so that m^2
    overflows at step 201, inside a chunk: row 73 of 128 alone, row 1 of
    25 in a group of five."""
    data = member(seed, "direct_gradient", name=f"direct-diverging-s{seed}")
    data["signal"] = {"kind": "custom",
                      "samples": [[0.0, 0.0]] * 200 + [[1e306, 1e306]]}
    return data


def spec_members():
    """Three groups: five direct members (one diverging), four indirect
    ones with a projection (two of them firing it) and five without (one
    of them raising SingularGainError)."""
    direct = [member(s, "direct_gradient") for s in range(4)] + [diverging(4)]
    projected = [member(s, "indirect_gradient", k2_upper=0.9 if s < 2 else 2.0,
                        name=f"indirect-projected-s{s}") for s in range(4)]
    free = [member(s, "indirect_gradient", enabled=False,
                   name=f"indirect-free-s{s}") for s in range(4)]
    free.append(member(4, "indirect_gradient", k2_upper=0.9, enabled=False,
                       name="indirect-singular-s4"))
    return direct + projected + free


def batch(tmp_path, capsys, members, tag, *flags):
    """The rows ``mrac batch`` prints for ``members``, with --out into
    ``tmp_path / tag``, and its exit code."""
    spec = tmp_path / f"{tag}.json"
    spec.write_text(json.dumps({"configs": members}))
    code = main(["batch", str(spec), "--out", str(tmp_path / tag), *flags])
    return code, capsys.readouterr().out


class TestStackedLaws:
    """Gradient laws of one form stack into a group's law, whose one step
    acts on a (B, width) block of rows as each member's law acts on its own
    row, byte for byte, as ``test_lyapunov.TestStackedLaws`` pins for the
    Lyapunov laws."""

    # inputs, scheme, and K2 enforcement (direct) or a projection (indirect)
    FORMS = {"direct-M1": (1, "direct", False),
             "direct-M2-K2": (2, "direct", True),
             "indirect-M1": (1, "indirect", False),
             "indirect-M2-projected": (2, "indirect", True)}

    def _laws(self, form, seeds=range(3)):
        """One discrete law of ``form`` per seed, each of its own n=3 plant
        and gains."""
        M, scheme, option = self.FORMS[form]
        laws = []
        for seed in seeds:
            plant, ref, K1s, K2s = random_matchable_instance(3, M, seed)
            k2, scale = np.diag(K2s), 0.5 + 0.2 * seed
            signal = ReferenceSignal.constant(np.ones(M))
            if scheme == "direct":
                k2a = 0.5 * np.abs(k2)
                gains = DirectGainConfig(
                    Gamma=np.stack([scale * k2a[j] * np.eye(3 + M)
                                    for j in range(M)]),
                    gamma=np.full(M, scale), sign_k2=np.sign(k2),
                    k2_lower=k2a, enforce_diagonal_k2=option)
                init = InitialConditions(
                    theta0=1.15 * stack_controller_gains(K1s, K2s),
                    rho0=1.15 / k2)
                run = _direct_member(plant, ref, signal, gains, init, 10, 1.0)
            else:
                gains = IndirectGainConfig(
                    Gamma=np.stack([scale * np.eye(3 + M)] * M))
                proj = (ProjectionConfig.from_k2_upper(2.0 * np.abs(k2),
                                                       np.sign(k2))
                        if option else None)
                init = InitialConditions(
                    theta0=1.15 * theta_star_indirect(K1s, K2s))
                run = _indirect_member(plant, ref, signal, gains, proj, init,
                                       10, 1.0)
            laws.append(run.law)
        return laws

    @pytest.mark.parametrize("form", FORMS)
    def test_a_block_step_is_each_lone_step(self, form):
        assert_block_step_is_each_lone_step(self._laws(form))


# the block-step checks of the M = 1 direct laws, whose rows are the
# narrowest, in a process of their own
SSE_PROBE = """
import test_lockstep, test_lyapunov
from conftest import assert_block_step_is_each_lone_step
for case, form in ((test_lockstep, "direct-M1"),
                   (test_lyapunov, "direct-Gamma")):
    assert_block_step_is_each_lone_step(case.TestStackedLaws()._laws(form))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE forces a kernel on x86-64 only")
def test_a_block_step_is_each_lone_step_on_an_sse_kernel():
    # Prescott's kernels sum a product whose first operand element sits
    # off a 16-byte boundary in another order; every row of a block must
    # start aligned, as a lone row does, for its bytes to be the lone ones
    here = os.path.dirname(__file__)
    path = os.pathsep.join([os.path.join(here, os.pardir, "src"), here])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", SSE_PROBE], capture_output=True,
        text=True, timeout=60,
        env=dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_grouped_rows_and_traces_equal_lone_runs(tmp_path, capsys,
                                                 monkeypatch):
    members = spec_members()
    lone_calls = []
    real = cli_mod.run_scenario

    def recorded(cfg, *outputs):
        lone_calls.append(cfg.name)
        return real(cfg, *outputs)

    monkeypatch.setattr(cli_mod, "run_scenario", recorded)
    code, out = batch(tmp_path, capsys, members, "group")
    # every member ran in one of the three groups
    assert lone_calls == []
    rows = json.loads(out)
    by_name = {row["name"]: row for row in rows}
    assert by_name["direct-diverging-s4"]["status"] == "diverged"
    assert by_name["direct-diverging-s4"]["steps"] == 201
    assert by_name["indirect-singular-s4"]["status"] == "failed"
    assert "invertibility threshold" in by_name["indirect-singular-s4"][
        "errors"][0]
    assert code == 1

    for i, data in enumerate(members):
        lone_code, lone_out = batch(tmp_path, capsys, [data], f"lone{i}")
        assert lone_calls[-1:] == [data["name"]]
        # the row, every summary byte and the status
        assert json.dumps(rows[i], indent=2, sort_keys=True) == json.dumps(
            json.loads(lone_out)[0], indent=2, sort_keys=True)
        trace = f"{data['name']}.trace.csv"
        if rows[i]["status"] != "failed":
            assert (tmp_path / "group" / trace).read_bytes() == (
                tmp_path / f"lone{i}" / trace).read_bytes()


def test_the_projection_fires_in_the_projected_group():
    members = spec_members()[5:9]
    runs = list(run_lockstep([config_from_dict(data) for data in members]))
    assert [int(run.trace.proj_fired.sum()) > 0 for run in runs] == [
        True, True, False, False]
    assert all(run.invariants["projection_ok"] for run in runs)


@pytest.mark.parametrize("group", [slice(0, 5), slice(5, 9), slice(9, 14),
                                   slice(5, 6)],
                         ids=["direct", "projected", "free", "one"])
def test_records_equal_run_scenario(group):
    cfgs = [config_from_dict(data) for data in spec_members()[group]]
    if len(cfgs) == 1:
        # a group of one keeps its own law, and so the lone .dot step
        law = cfgs[0].built.gains.member(cfgs[0].built, cfgs[0].horizon).law
        assert law.stack([]) is law
    runs = list(run_lockstep(cfgs))
    assert len(runs) == len(cfgs)
    for cfg, grouped in zip(cfgs, runs):
        try:
            lone = run_scenario(cfg)
        except ToolkitError as exc:
            assert type(grouped) is type(exc) and str(grouped) == str(exc)
            continue
        assert grouped.trace.diverged_at == lone.trace.diverged_at
        assert grouped.invariants == lone.invariants
        assert grouped.exit_status == lone.exit_status
        for name, value in lone.trace._asdict().items():
            if isinstance(value, np.ndarray):
                got = getattr(grouped.trace, name)
                assert got.dtype == value.dtype and got.shape == value.shape
                assert got.tobytes() == value.tobytes(), name
        assert grouped.trace.summary == lone.trace.summary


class TestUnits:
    def _loaded(self, members):
        return [(i, data, config_from_dict(data))
                for i, data in enumerate(members)]

    def test_groups_need_lockstep_min_members_of_one_key(self):
        direct = [member(s, "direct_gradient") for s in range(LOCKSTEP_MIN)]
        units = batch_units(self._loaded(direct[:-1]))
        assert [len(unit) for unit in units] == [1] * (LOCKSTEP_MIN - 1)
        units = batch_units(self._loaded(direct))
        assert [len(unit) for unit in units] == [LOCKSTEP_MIN]

    def test_the_key_parts_split_groups(self):
        base = member(0, "indirect_gradient")
        other = [dict(base, horizon=HORIZON + 1),
                 member(0, "indirect_gradient", enabled=False),
                 member(0, "direct_gradient"),
                 member(0, "indirect_gradient", domain="continuous")]
        keys = {lockstep_key(config_from_dict(data)) for data in other}
        assert len(keys) == 4 and None in keys
        assert lockstep_key(config_from_dict(base)) not in keys
        # the continuous-time member runs alone, however many there are
        ct = self._loaded([member(0, "indirect_gradient",
                                  domain="continuous")] * 5)
        assert [len(unit) for unit in batch_units(ct)] == [1] * 5

    def test_a_group_holds_what_its_streamed_members_hold(self):
        # 64 members of the bundled benchmark at 10^5 steps: their records
        # and traces would need 1.18 GB, above the 1 GiB budget, while a
        # streamed member holds its summary's two series and a fixed
        # number of rows, about 2.4 MB
        data = benchmark_config().to_dict()
        members = [dict(data, horizon=100000, name=f"m{i}")
                   for i in range(64)]
        loaded = self._loaded(members)
        assert 64 * streamed_bytes(loaded[0][2]) < cli_mod.MEMORY_BUDGET_BYTES
        assert [len(unit) for unit in batch_units(loaded)] == [64]

    def test_groups_split_at_the_memory_budget(self, tmp_path, capsys,
                                               monkeypatch):
        members = [member(s % 4, "direct_gradient", name=f"d{s}")
                   for s in range(8)]
        need = streamed_bytes(config_from_dict(members[0]))
        sizes = []
        real = cli_mod.run_lockstep

        def recorded(cfgs, *outputs):
            sizes.append(len(cfgs))
            return real(cfgs, *outputs)

        monkeypatch.setattr(cli_mod, "run_lockstep", recorded)
        outs = []
        # the whole group fits; four members fit; three members fit, so
        # every member runs alone
        for budget, want in ((8 * need, [8]), (int(4.5 * need), [4, 4]),
                             (int(3.5 * need), [])):
            monkeypatch.setattr(cli_mod, "MEMORY_BUDGET_BYTES", budget)
            sizes.clear()
            code, out = batch(tmp_path, capsys, members, f"b{budget}")
            assert code == 0 and sizes == want
            outs.append(out)
        assert outs[0] == outs[1] == outs[2]


def test_jobs_send_whole_groups_and_print_the_same_bytes(tmp_path, capsys,
                                                         monkeypatch):
    members = [member(s, "direct_gradient") for s in range(4)]
    members += [member(0, "indirect_gradient"),
                dict(member(1, "direct_gradient", name="ct-direct",
                            domain="continuous"), horizon=50)]
    units = batch_units([(i, data, config_from_dict(data))
                         for i, data in enumerate(members)])
    assert [len(unit) for unit in units] == [4, 1, 1]
    with monkeypatch.context() as patch:
        patch.setattr("os.cpu_count", lambda: 8)
        assert worker_count(8, len(units)) == 3
    code1, out1 = batch(tmp_path, capsys, members, "one", "--jobs", "1")
    code2, out2 = batch(tmp_path, capsys, members, "two", "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    for data in members:
        trace = f"{data['name']}.trace.csv"
        assert (tmp_path / "one" / trace).read_bytes() == (
            tmp_path / "two" / trace).read_bytes()


def test_a_batch_frees_each_unit_once_it_has_run(tmp_path, capsys,
                                                 monkeypatch):
    # three members run alone, each on a custom signal, whose samples a
    # loaded config holds
    data = benchmark_config().to_dict()
    members = [dict(data, horizon=20, name=f"m{i}",
                    signal={"kind": "custom", "samples": [[0.1 * i]] * 21})
               for i in range(3)]
    samples, alive = [], []
    load, unit = cli_mod.config_from_dict, cli_mod._batch_unit

    def loaded(data):
        cfg = load(data)
        samples.append(weakref.ref(cfg.built.signal.values))
        return cfg

    def run(payload):
        alive.append(samples[0]() is not None)
        return unit(payload)

    monkeypatch.setattr(cli_mod, "config_from_dict", loaded)
    monkeypatch.setattr(cli_mod, "_batch_unit", run)
    code, out = batch(tmp_path, capsys, members, "freed", "--jobs", "1")
    assert code == 0 and len(json.loads(out)) == 3
    # the first member's config is gone before the second unit runs
    assert alive == [True, False, False]
