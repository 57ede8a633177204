"""Tests of the benchmark itself.

    python3 -m pytest bench
"""

import contextlib
import importlib
import io
import json
import sys

import pytest

import gate
import run
import tracer as tr
import workloads as wl

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = wl.write_inputs(workload, 5, str(tmp_path / "a"))
    second = wl.write_inputs(workload, 5, str(tmp_path / "b"))
    other = wl.write_inputs(workload, 6, str(tmp_path / "c"))
    with open(first, "rb") as a, open(second, "rb") as b, \
            open(other, "rb") as c:
        data = a.read()
        assert data == b.read()
        assert data != c.read()


def test_every_pool_member_has_reference_values():
    reference = gate.load_reference()
    names = {m["name"] for w in wl.WORKLOADS for m in wl.pool_members(w)}
    assert names == set(reference)


def test_layer_metrics_are_the_ones_benchmark_json_lists():
    names = set(tr.layer_metrics(tr.Tracer(), [{"scheme": "x"}]))
    names |= {"mrac.import_s", "bench.trace_overhead_s", "failed_share"}
    assert names == set(run.metric_units(trace=1))


def test_self_time_is_span_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    t = tr.Tracer(clock=lambda: next(ticks))
    inner = t.span(lambda: None, "inner")
    other = t.span(lambda: None, "other")

    def body():
        inner()   # 1.0 -> 3.0
        other()   # 4.0 -> 4.5
    t.span(body, "outer")()  # 0.0 -> 10.0
    assert t.self_s == {"inner": 2.0, "other": 0.5, "outer": 7.5}
    assert t.calls == {"inner": 1, "other": 1, "outer": 1}


def test_nested_same_name_spans_do_not_double_count():
    ticks = iter([0.0, 2.0, 5.0, 6.0])
    t = tr.Tracer(clock=lambda: next(ticks))
    leaf = t.span(lambda: None, "load")
    t.span(leaf, "load")()
    assert t.self_s["load"] == 6.0


def _small_spec(tmp_path):
    """A few steps of every member kind, covering every wrapped layer."""
    items = []
    for workload in ("mimo-sweep", "ct-schemes"):
        for data in wl.members(workload, 0)[:2 if workload == "mimo-sweep"
                                            else None]:
            items.append(dict(data, horizon=20))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"configs": items}))
    paper = tmp_path / "paper.json"
    paper.write_text(json.dumps(dict(wl.paper_config(0), horizon=50)))
    return str(path), str(paper), items


def _traced_counts(spec, paper, items, out_dir):
    import mrac.cli
    t = tr.Tracer()
    with contextlib.redirect_stdout(io.StringIO()), tr.instrument(t):
        assert mrac.cli.main(["batch", spec]) == 0
        assert mrac.cli.main(["run", paper, "--out", out_dir]) == 0
    return tr.layer_metrics(t, items + [{"scheme": "direct_gradient"}])


def test_exact_counts_repeat_and_wrappers_are_restored(tmp_path):
    originals = {(m, a): getattr(importlib.import_module(m), a)
                 for m, a, _ in tr.WRAP_POINTS}
    spec, paper, items = _small_spec(tmp_path)
    first = _traced_counts(spec, paper, items, str(tmp_path / "a"))
    second = _traced_counts(spec, paper, items, str(tmp_path / "b"))
    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(module), attr) is original
    for name in tr.EXACT_COUNTS:
        assert first[name] == second[name], name
    assert first["systems.integrate_ct_calls"] == 6 * 20
    assert first["cli.trace_rows"] == 51
    assert first["lyapunov.steps"] == 2 * 21
    for runner in tr.RUNNERS:
        assert first[runner + "_us_per_step"] > 0, runner


def test_wrappers_are_restored_when_the_run_raises():
    import mrac.cli
    original = mrac.cli.run_scenario
    with pytest.raises(RuntimeError):
        with tr.instrument(tr.Tracer()):
            assert mrac.cli.run_scenario is not original
            raise RuntimeError("boom")
    assert mrac.cli.run_scenario is original


def test_known_defect_is_only_the_ct_gradient_dv_flag():
    row = {"name": "ct-indirect_gradient", "time_domain": "continuous",
           "scheme": "indirect_gradient",
           "invariants": {"delta_v_ok": False, "projection_ok": True},
           "exit_status": 3}
    assert gate.is_known_defect(row)
    assert gate.is_known_defect(dict(row, name="ct-mimo-indirect-s03"))
    assert gate.is_known_defect(dict(row, name="ct-mimo-direct-s03",
                                     scheme="direct_gradient"))
    assert not gate.is_known_defect(dict(row, name="ct-direct_gradient",
                                         scheme="direct_gradient"))
    assert not gate.is_known_defect(dict(row, time_domain="discrete"))
    assert not gate.is_known_defect(dict(row, scheme="lyapunov_indirect"))
    assert not gate.is_known_defect(dict(
        row, invariants={"delta_v_ok": False, "projection_ok": False}))


def test_reference_comparison_is_relative():
    assert gate.values_match(1.0 + 5e-10, 1.0)
    assert not gate.values_match(1.0 + 5e-9, 1.0)
    assert gate.values_match(None, None)
    assert not gate.values_match(None, 1.0)


def test_trace_check_counts_rows_and_header(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"a,b\n1,2\n3,4\n")
    problems, digest, size = gate.check_trace(str(path), "a,b", 2)
    assert problems == [] and size == 12
    problems, _, _ = gate.check_trace(str(path), "a,c", 3)
    assert len(problems) == 2
    assert len(digest) == 64
