"""Mutated configs and raw documents never escape the CLI as a traceback.

Each example starts from a valid config of one scheme and domain and
applies one to three mutations: delete a key, swap in a value of the wrong
type, change a list's length or a matrix's shape, or swap in NaN, an
infinity or a finite number up to 1e308 in magnitude. ``validate`` must exit
0, or exit 1 with only ``invalid:`` lines; a config that validates must
``run`` to exit 0, 2 or 3.

A fixed set of raw documents (UTF-16 and byte-order-marked copies of each
valid config, bytes that are not UTF-8, nesting 100,000 deep, a name too
long for its files) goes to ``validate``, ``run`` and ``batch``, the last
both as the spec and as a member: each exits 0 or 1 with only ``invalid``
lines on stderr, and a copy with a byte-order mark exits 0.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mrac.cli import main
from test_scenario_cli import PROJECTION, bench_dict, ct_dict, mimo_dict

BASES = {name: dict(data, horizon=12) for name, data in {
    "direct-discrete": bench_dict(),
    "indirect-discrete-mimo": mimo_dict("indirect_gradient"),
    "direct-ct-mimo": mimo_dict("direct_gradient", "continuous"),
    "indirect-ct": ct_dict("indirect_gradient", {"Gamma": 1.0}, PROJECTION),
    "lyapunov-direct": ct_dict("lyapunov_direct", {
        "Gamma": 1.0, "gamma": 1.0, "sign_k2": 1.0,
        "Q": [[2.0, 0.0], [0.0, 2.0]]}),
    "lyapunov-indirect": ct_dict("lyapunov_indirect", {
        "Gamma1": [[1.0, 0.0], [0.0, 1.0]], "Gamma2": 1.0}, PROJECTION),
}.items()}

WRONG_TYPES = ["x", None, True, {}, [], 1.0, [1.0], [[1.0]],
               "false", "a/b", "../x", "a\0b"]


def _paths(node, prefix=()):
    """Every key/index path below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(data, draw):
    path = draw(st.sampled_from(sorted(_paths(data), key=repr)))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    kind = draw(st.sampled_from(
        ["delete", "type", "shape", "nonfinite", "magnitude"]))
    if kind == "delete":
        del parent[key]
    elif kind == "type":
        parent[key] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
    elif kind == "shape":
        if isinstance(value, list) and value:
            parent[key] = draw(st.sampled_from(
                [value[:-1], value + value[-1:], [value], value[0]]))
        else:
            parent[key] = draw(st.sampled_from([[value], [value, value]]))
    elif kind == "nonfinite":
        parent[key] = draw(st.sampled_from(
            [float("nan"), float("inf"), -float("inf")]))
    else:
        parent[key] = draw(st.floats(-1e308, 1e308, allow_nan=False))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue().splitlines()


@pytest.mark.parametrize("base", sorted(BASES))
def test_base_configs_run_clean(base, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASES[base]))
    assert _cli(["validate", str(path)])[0] == 0
    assert _cli(["run", str(path), "--strict"])[0] == 0


@pytest.mark.parametrize("base", sorted(BASES))
@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_configs_fail_cleanly(base, data):
    config = copy.deepcopy(BASES[base])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(config, data.draw)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        code, _, err = _cli(["validate", path])
        assert code in (0, 1)
        if code == 1:
            assert err and all(line.startswith("invalid: ") for line in err)
            return
        assert err == []
        code, _, err = _cli(["run", path, "--strict", "--out", tmp])
        assert code in (0, 2, 3), err


# (label, the JSON value written, its encoding), or (label, bytes, None)
# for bytes written as they are, whatever the role of the document
RAW = ([(f"{base}-utf-16", BASES[base], "utf-16") for base in sorted(BASES)]
       + [(f"{base}-bom", BASES[base], "utf-8-sig") for base in sorted(BASES)]
       + [("not-utf-8", b'{"name": "\xff\xfe"}', None),
          ("deep", b"[" * 100_000, None),
          ("long-name", dict(BASES["direct-discrete"], name="x" * 243),
           "utf-8")])


@pytest.mark.parametrize("doc,encoding", [raw[1:] for raw in RAW],
                         ids=[raw[0] for raw in RAW])
def test_raw_documents_fail_cleanly(doc, encoding, tmp_path):
    def write(name, value):
        path = tmp_path / name
        path.write_bytes(value if encoding is None
                         else json.dumps(value).encode(encoding))
        return str(path)

    config = write("cfg.json", doc)
    spec = write("spec.json", doc if encoding is None else {"configs": [doc]})
    members = tmp_path / "members.json"
    members.write_text(json.dumps({"configs": [config]}))
    out = ["--out", str(tmp_path / "out")]
    for argv in (["validate", config], ["run", config] + out,
                 ["batch", spec] + out, ["batch", str(members)] + out):
        code, _, err = _cli(argv)
        assert code == 0 if encoding == "utf-8-sig" else code in (0, 1)
        assert all(line.startswith("invalid") for line in err), err
