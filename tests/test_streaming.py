"""``mrac run`` and ``mrac batch`` stream each run's rows to the outputs
they feed (``diagnostics.Stream``): the bytes they write equal those made
from the collected trace of ``run_scenario`` (``write_trace_csv``,
``write_gnuplot_dat``, ``summary_dict``) at every edge of the chunks of
rows and of the blocks the streamed reductions work on."""

import contextlib
import io
import json
import os

import pytest

import mrac._rows
import mrac.diagnostics
from mrac.cli import main, write_gnuplot_dat, write_trace_csv
from mrac.scenario import config_from_dict, run_scenario, summary_dict
from test_lockstep import member
from test_scenario_cli import SCHEME_CASES, mimo_dict

# one chunk (128 rows) less one row and exactly; one block (1024 rows), one
# block and a lone last row, one block and two rows; two blocks
EDGES = (127, 128, 1023, 1024, 1025, 2048)
# the same edges of 8-row chunks and 64-row blocks, for the continuous-time
# schemes, whose steps cost about eight times a discrete one's
SMALL = {"CHUNK": 8, "BLOCK": 64}
SMALL_EDGES = (7, 8, 63, 64, 65, 128)


def _cli(argv):
    """The exit code and stdout of ``mrac`` with ``argv``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _files(directory) -> dict:
    return {name: (directory / name).read_bytes()
            for name in sorted(os.listdir(directory))}


def _streamed(data, tmp_path):
    """The exit code, stdout and files of ``mrac run --out`` on ``data``,
    with every output switched on."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(data, output={"gnuplot": True})))
    out = tmp_path / "streamed"
    code, stdout = _cli(["run", str(path), "--out", str(out)])
    return code, stdout, _files(out)


def _collected(data, tmp_path):
    """The stdout and files ``mrac run --out`` writes, made from the
    collected trace of ``run_scenario``."""
    run = run_scenario(config_from_dict(data))
    out = tmp_path / "collected"
    out.mkdir()
    base = out / data["name"]
    write_trace_csv(run.trace, f"{base}.trace.csv")
    summary = summary_dict(run)
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    (out / f"{data['name']}.summary.json").write_text(text)
    write_gnuplot_dat(run.trace, f"{base}.dat")
    return run, text, _files(out)


def _same_bytes(data, tmp_path):
    """Assert that the streamed run writes the collected run's bytes;
    returns the collected run."""
    code, stdout, files = _streamed(data, tmp_path)
    run, text, want = _collected(data, tmp_path)
    assert stdout == text
    assert files.keys() == want.keys() and len(files) == 3
    for name, content in want.items():
        assert files[name] == content, name
    assert code == (2 if run.trace.diverged else 0)
    return run


@pytest.mark.parametrize("horizon", EDGES)
@pytest.mark.parametrize("case", ["direct-discrete", "indirect-discrete"])
def test_discrete_edges(case, horizon, tmp_path):
    _same_bytes(dict(SCHEME_CASES[case], horizon=horizon), tmp_path)


@pytest.mark.parametrize("horizon", SMALL_EDGES)
@pytest.mark.parametrize("case", ["direct-continuous", "indirect-continuous",
                                  "lyapunov_direct", "lyapunov_indirect"])
def test_continuous_edges(case, horizon, tmp_path, monkeypatch):
    for name, rows in SMALL.items():
        monkeypatch.setattr(mrac._rows, name, rows)
    _same_bytes(dict(SCHEME_CASES[case], horizon=horizon), tmp_path)


@pytest.mark.parametrize("horizon", [1024, 1025])
@pytest.mark.parametrize("scheme", ["direct_gradient", "indirect_gradient"])
def test_two_inputs(scheme, horizon, tmp_path):
    # M = 2: the V series' products have two terms per row
    _same_bytes(dict(mimo_dict(scheme), horizon=horizon), tmp_path)


@pytest.mark.parametrize("horizon,jump", [
    (h, None) for h in range(6, 19)] + [(40, j) for j in (7, 8, 9, 16, 17)])
def test_streamed_blocks_are_the_row_blocks(horizon, jump, monkeypatch):
    # a one-row block may take another BLAS routine than the rows' own
    # block, whose last bits may differ: the streamed blocks are those of
    # row_blocks over the steps the run reaches, ended early or not
    for name, rows in (("CHUNK", 4), ("BLOCK", 8)):
        monkeypatch.setattr(mrac._rows, name, rows)
    blocks, trace_rows = [], mrac.diagnostics.trace_rows

    def recorded(spec, rec, lo):
        blocks.append((lo, lo + rec["x"].shape[0]))
        return trace_rows(spec, rec, lo)

    monkeypatch.setattr(mrac.diagnostics, "trace_rows", recorded)
    data = dict(SCHEME_CASES["direct-discrete"], horizon=horizon)
    run = run_scenario(config_from_dict(
        data if jump is None else _jump(data, jump - 1)), [])
    assert run.trace.steps == (horizon + 1 if jump is None else jump)
    assert blocks == list(mrac._rows.row_blocks(run.trace.steps))


def _jump(data, step):
    """``data``, a single-input config, with r jumping to 1e306 at
    ``step``, so that m^2 overflows and the run diverges at step + 1."""
    return dict(data, signal={"kind": "custom",
                              "samples": [[0.3]] * step + [[1e306]]})


@pytest.mark.parametrize("step", [1024, 1025, 1100],
                         ids=["block-boundary", "lone-last-row", "mid-chunk"])
@pytest.mark.parametrize("case", ["direct-discrete", "indirect-discrete"])
def test_divergence(case, step, tmp_path):
    data = _jump(dict(SCHEME_CASES[case], horizon=2048), step - 1)
    run = _same_bytes(data, tmp_path)
    assert run.trace.diverged_at == step


def test_diverging_continuous_run(tmp_path, monkeypatch):
    for name, rows in SMALL.items():
        monkeypatch.setattr(mrac._rows, name, rows)
    data = _jump(dict(SCHEME_CASES["direct-continuous"], horizon=200), 1)
    run = _same_bytes(dict(data, ct_step=0.5), tmp_path)
    assert run.trace.diverged_at is not None


def test_a_firing_projection(tmp_path):
    data = dict(member(0, "indirect_gradient", k2_upper=0.9), horizon=1100)
    run = _same_bytes(data, tmp_path)
    assert run.trace.proj_fired.sum() > 0
    assert run.invariants["projection_ok"]


def _group():
    """Four n=3, M=2 indirect members without a projection, of one
    lockstep group: one diverging and one raising SingularGainError after
    the first block, two clean."""
    free = [member(s, "indirect_gradient", enabled=False,
                   name=f"free-s{s}") for s in range(2)]
    diverging = member(2, "indirect_gradient", enabled=False,
                       name="diverging-s2")
    diverging["signal"] = {"kind": "custom", "samples": [[0.3, 0.2]] * 1049
                           + [[1e306, 1e306]]}
    # r stays 0, and so the estimates, until step 1050
    singular = member(4, "indirect_gradient", k2_upper=0.9, enabled=False,
                      name="singular-s4")
    singular["signal"] = {"kind": "custom", "samples": [[0.0, 0.0]] * 1050
                          + [[1.0, 0.8]]}
    return [dict(data, horizon=1100) for data in
            (free[0], diverging, singular, free[1])]


def _batch(tmp_path, members, tag):
    spec = tmp_path / f"{tag}.json"
    spec.write_text(json.dumps({"configs": members}))
    code, out = _cli(["batch", str(spec), "--out", str(tmp_path / tag)])
    return code, json.loads(out), _files(tmp_path / tag)


def test_a_group_with_a_diverging_and_a_failing_member(tmp_path):
    members = _group()
    code, rows, files = _batch(tmp_path, members, "group")
    assert code == 1
    assert [row["status"] for row in rows] == ["ok", "diverged", "failed",
                                               "ok"]
    assert rows[1]["steps"] == 1050
    assert rows[2]["errors"][0].endswith(
        "below the invertibility threshold at step 1054")
    # the failed member left no file, temporary or not
    assert not any(name.startswith(("singular", ".")) for name in files)
    for i, data in enumerate(members):
        _, lone, lone_files = _batch(tmp_path, [data], f"lone{i}")
        assert lone == [rows[i]]
        for name, content in lone_files.items():
            assert files[name] == content, name


def test_a_failing_run_leaves_no_file(tmp_path):
    data = _group()[2]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(["run", str(path), "--out", str(out)]) == 2
    assert err.getvalue().startswith("run failed: ")
    assert os.listdir(out) == []
