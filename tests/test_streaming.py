"""Every run streams its rows (``diagnostics.Stream``): ``mrac run`` and
``mrac batch`` to the outputs they feed, the Python API to a ``Keep`` of
them. The bytes the command line writes equal those made from the kept
trace of ``run_scenario`` (``write_trace_csv``, ``write_gnuplot_dat``,
``summary_dict``) at every edge of the chunks of rows and of the blocks
the streamed reductions work on."""

import contextlib
import io
import json
import os
from collections import Counter

import numpy as np
import pytest

import mrac._rows
import mrac.diagnostics
from mrac import SingularGainError, ToolkitError, run_indirect_scenario
from mrac.cli import main, write_gnuplot_dat, write_trace_csv
from mrac.scenario import (benchmark_config, config_from_dict, run_lockstep,
                           run_scenario, summary_dict)
from mrac.systems import ReferenceSignal
from test_lockstep import member
from test_scenario_cli import SCHEME_CASES, lyapunov_mimo_dict, mimo_dict

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
    """The stdout and files ``mrac run --out`` writes, made from the kept
    trace of ``run_scenario``."""
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


@pytest.mark.parametrize("scheme", ["direct_gradient", "indirect_gradient",
                                    "lyapunov_direct", "lyapunov_indirect"])
def test_the_block_size_changes_no_byte(scheme, tmp_path, monkeypatch):
    # the direct V series sums its M = 2 terms in numpy: a BLAS product
    # gives the rows at its tail other last bits, so that a row's V would
    # take the bits of its place in its block; the Lyapunov runners take
    # the V of each block the run's sink gives them whole
    data = dict(mimo_dict(scheme) if scheme.endswith("_gradient")
                else lyapunov_mimo_dict(scheme), horizon=99)
    runs = []
    # (CHUNK, BLOCK): chunks that a block cuts, or not
    for sizes in ((128, 4096), (128, 7), (9, 8), (5, 16)):
        for name, rows in zip(("CHUNK", "BLOCK"), sizes):
            monkeypatch.setattr(mrac._rows, name, rows)
        where = tmp_path / "-".join(map(str, sizes))
        where.mkdir()
        runs.append(_streamed(data, where))
    assert all(run == runs[0] for run in runs[1:])


@pytest.mark.parametrize("case", ["lone", "group", "continuous"])
def test_a_chunk_keeps_to_its_block_which_samples_r_once(case, monkeypatch):
    # RowBuffer.run samples each member's r once per row_blocks block and
    # cuts the block into chunks that end at its end: at 9-row chunks and
    # 8-row blocks, a lone run's chunks are its blocks, of 8 rows and 9
    # last, and a group of three steps chunks of 3 rows, the last of each
    # block shorter
    for name, rows in (("CHUNK", 9), ("BLOCK", 8)):
        monkeypatch.setattr(mrac._rows, name, rows)
    spans, sampled = [], Counter()
    store, sample = mrac._rows.RowBuffer.store, ReferenceSignal.sample

    def stored(self, rows, t0, *args):
        spans.append((t0, t0 + rows.shape[0]))
        return store(self, rows, t0, *args)

    def counted(self, times):
        sampled[id(self)] += 1
        return sample(self, times)

    monkeypatch.setattr(mrac._rows.RowBuffer, "store", stored)
    monkeypatch.setattr(ReferenceSignal, "sample", counted)
    horizon = 4 * 8  # 33 rows: four blocks, a lone last row in the fourth
    if case == "group":
        runs = list(run_lockstep([config_from_dict(dict(
            member(seed, "direct_gradient"), horizon=horizon))
            for seed in range(3)]))
    else:
        data = SCHEME_CASES["direct-discrete" if case == "lone"
                            else "indirect-continuous"]
        runs = [run_scenario(config_from_dict(dict(data, horizon=horizon)))]
    assert [run.trace.steps for run in runs] == [horizon + 1] * len(runs)
    blocks = list(mrac._rows.row_blocks(horizon + 1))
    assert blocks[-1] == (24, 33)
    assert list(sampled.values()) == [len(blocks)] * len(runs)
    assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
    assert spans[-1][1] == horizon + 1
    for lo, hi in spans:
        assert any(start <= lo < hi <= stop for start, stop in blocks), spans


class Spy:
    """A consumer that records the (lo, hi) of each block of rows it is
    given, the block's V and dV as given, and its dV itself."""

    def __init__(self):
        self.blocks, self.V, self.dV, self.given = [], [], [], []

    def add(self, rows, lo, end=None):
        self.blocks.append((lo, lo + rows.steps))
        self.V.append(rows.V.copy())
        self.dV.append(rows.dV.copy())
        self.given.append(rows.dV)


@pytest.mark.parametrize("horizon,jump", [
    (h, None) for h in range(6, 19)] + [(40, j) for j in (7, 8, 9, 16, 17)])
def test_streamed_blocks_are_the_row_blocks(horizon, jump, monkeypatch):
    # a one-row block may take another BLAS routine than the rows' own
    # block, whose last bits may differ: the blocks given on are those of
    # row_blocks over the steps the run reaches, ended early or not, and
    # each block's trace rows are made of its own rows, with at most the
    # next row, never of a lone row unless the run has one
    for name, rows in (("CHUNK", 4), ("BLOCK", 8)):
        monkeypatch.setattr(mrac._rows, name, rows)
    made, trace_rows = [], mrac.diagnostics.trace_rows

    def recorded(spec, law, rec, lo):
        made.append((lo, lo + rec["x"].shape[0]))
        return trace_rows(spec, law, rec, lo)

    monkeypatch.setattr(mrac.diagnostics, "trace_rows", recorded)
    data = dict(SCHEME_CASES["direct-discrete"], horizon=horizon)
    spy = Spy()
    run = run_scenario(config_from_dict(
        data if jump is None else _jump(data, jump - 1)), [spy])
    steps = run.trace.steps
    assert steps == (horizon + 1 if jump is None else jump)
    assert spy.blocks == list(mrac._rows.row_blocks(steps))
    assert len(made) == len(spy.blocks)
    for (lo, hi), (start, stop) in zip(spy.blocks, made):
        assert start == lo and stop in (hi, hi + 1) and stop <= steps
        assert stop - start > 1 or steps == 1


def test_one_consumer_call_per_block():
    # the bundled config at 20,000 steps: one call per block of
    # row_blocks, and every dV is final when its row is given
    cfg = benchmark_config()._replace(horizon=20000)
    spy = Spy()
    run = run_scenario(cfg, [spy])
    assert len(spy.blocks) == len(list(mrac._rows.row_blocks(20001))) == 20
    V, dV = np.concatenate(spy.V), np.concatenate(spy.dV)
    assert V.shape == dV.shape == (run.trace.steps,)
    assert dV[:-1].tobytes() == (V[1:] - V[:-1]).tobytes()
    assert np.isnan(dV[-1])
    assert np.concatenate(spy.given).tobytes() == dV.tobytes()


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


@pytest.mark.parametrize("case", ["direct-discrete", "indirect-continuous"])
def test_a_run_ending_at_step_0(case, tmp_path):
    # u overflows at step 0: the kept trace has rows of no step, of their
    # widths, and the files hold their headers alone
    data = dict(SCHEME_CASES[case], init={"x0": [1e300, 1e300],
                                          "theta_scale": 1e300})
    trace = _same_bytes(data, tmp_path).trace
    assert trace.diverged_at == 0
    assert trace.x.shape == (0, 2) and trace.theta.shape == (0, 3, 1)


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


@pytest.fixture
def sinks(monkeypatch):
    """The records each run's sink (``Stream``) is given, one list of
    stores per sink, the sinks in the order they are made."""
    given = {}
    Stream = mrac.diagnostics.Stream
    init, store = Stream.__init__, Stream.store

    def made(self, *args):
        init(self, *args)
        given[self] = []

    def stored(self, rows):
        given[self].append({name: block.copy()
                            for name, block in rows.items()})
        return store(self, rows)

    monkeypatch.setattr(Stream, "__init__", made)
    monkeypatch.setattr(Stream, "store", stored)
    return given


def _received(stores):
    """The records of a sink's stores, joined in the order given."""
    return {name: np.concatenate([rows[name] for rows in stores])
            for name in stores[0]}


def _whole(received, trace):
    """Assert that a sink received each row of ``trace`` once, in order,
    and no other: the rows before its divergence row, if any."""
    assert received["x"].shape[0] == trace.steps
    for name in ("x", "u", "theta"):
        assert received[name].tobytes() == getattr(trace, name).tobytes()
    assert np.all(np.isfinite(received["u"]))


def test_a_lone_sink_receives_each_row_before_the_divergence_once(sinks):
    # the diverging member of _group alone, and the failing one, which
    # raises at step 1054, in the 128-row chunk of steps 1024 onward
    members = _group()
    run = run_scenario(config_from_dict(members[1]))
    assert run.trace.diverged_at == 1050
    [stores] = sinks.values()
    _whole(_received(stores), run.trace)
    sinks.clear()
    with pytest.raises(ToolkitError, match="at step 1054$"):
        run_scenario(config_from_dict(members[2]))
    [stores] = sinks.values()
    assert _received(stores)["x"].shape[0] == 1024


def test_each_sink_of_a_group_receives_its_own_rows_once(sinks):
    # a group of four steps 32-row chunks: the failing member's sink
    # receives nothing of the chunk of steps 1024..1055 that failed
    members = [config_from_dict(data) for data in _group()]
    runs = list(run_lockstep(members))
    grouped = [_received(stores) for stores in sinks.values()]
    assert len(grouped) == 4 and isinstance(runs[2], ToolkitError)
    assert [run.trace.steps for run in runs[:2] + runs[3:]] == [1101, 1050,
                                                               1101]
    for run, received in zip(runs[:2] + runs[3:], grouped[:2] + grouped[3:]):
        _whole(received, run.trace)
    assert grouped[2]["x"].shape[0] == 1024
    # the rows are those each member's lone run gives its sink
    for cfg, received in zip(members, grouped):
        sinks.clear()
        try:
            run_scenario(cfg)
        except ToolkitError:
            pass
        [stores] = sinks.values()
        alone = _received(stores)
        assert all(alone[name].tobytes() == received[name].tobytes()
                   for name in received)


def test_a_continuous_sink_receives_each_row_once(sinks):
    # a clean run over several chunks, and one whose rate check refuses a
    # rate of step 395, in the 128-row chunk of steps 384 onward
    from test_ct_fused import riding_case
    data = dict(SCHEME_CASES["indirect-continuous"], horizon=300)
    run = run_scenario(config_from_dict(data))
    [stores] = sinks.values()
    assert len(stores) == 3
    _whole(_received(stores), run.trace)
    sinks.clear()
    with pytest.raises(SingularGainError, match="at step 395$"):
        run_indirect_scenario(*riding_case(enabled=False), 2000, h=0.01)
    [stores] = sinks.values()
    assert _received(stores)["x"].shape[0] == 384
