"""The names other code reaches as module attributes resolve in a fresh
interpreter: every wrap point of the benchmark's tracer, and every public
name through ``mrac``, through its home module and through the module that
was its home before ``gains`` took it over."""

import ast
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# the names that moved into mrac.gains, by the module they moved from; each
# stays importable from it
MOVED_FROM = {
    "DirectGainConfig": "direct", "InitialConditions": "direct",
    "stack_controller_gains": "direct", "IndirectGainConfig": "indirect",
    "ProjectionConfig": "indirect", "theta_star_indirect": "indirect",
    "LyapunovCertificate": "lyapunov", "LyapunovDirectGains": "lyapunov",
    "LyapunovIndirectGains": "lyapunov", "solve_lyapunov_ct": "lyapunov",
}

PROBE = """
import importlib, json, sys
points, moved = json.loads(sys.argv[1]), json.loads(sys.argv[2])
missing = []
for module, attr, _ in points:  # in the tracer's order
    try:
        getattr(importlib.import_module(module), attr)
    except AttributeError:
        missing.append(f"{module}.{attr}")
import mrac
differ = []
for name in mrac.__all__:
    value = getattr(mrac, name)
    for home in (mrac._HOME[name], moved.get(name, mrac._HOME[name])):
        if getattr(importlib.import_module(f"mrac.{home}"), name) is not value:
            differ.append(f"mrac.{home}.{name}")
print(json.dumps([missing, differ]))
"""


def wrap_points():
    """``WRAP_POINTS`` of bench/tracer.py, read without importing it."""
    with open(os.path.join(ROOT, "bench", "tracer.py"),
              encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    [points] = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["WRAP_POINTS"]]
    return ast.literal_eval(points)


def test_wrap_points_and_public_names_resolve():
    import mrac
    assert {name for name in mrac.__all__
            if mrac._HOME[name] == "gains"} == set(MOVED_FROM)
    points = wrap_points()
    assert len(points) > 20
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", PROBE, json.dumps(points),
         json.dumps(MOVED_FROM)], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], []]
