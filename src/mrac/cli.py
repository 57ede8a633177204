"""Command-line surface: validate, run, batch, example.

Exit codes: 0 success, 1 validation error, 2 runtime divergence,
3 invariant violation under --strict. ``batch`` prints every row, then
exits 1 if any member is invalid or failed, else 2 if any diverged, else 0.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys

import numpy as np

from .diagnostics import SimulationTrace
from .errors import ConfigError, ToolkitError
from .scenario import (PATH_CHARS, ScenarioRun, benchmark_config,
                       blocked_dir, config_from_dict, load_config,
                       run_scenario, serialize_config, summary_dict)

TRACE_COLUMNS_DOC = ("t, x_1..x_n, xm_1..xm_n, e_1..e_n, u_1..u_M, "
                     "eps_1..eps_n, m, V, dV, proj_fired")


def trace_header(n: int, M: int) -> list[str]:
    cols = ["t"]
    cols += [f"x_{i+1}" for i in range(n)]
    cols += [f"xm_{i+1}" for i in range(n)]
    cols += [f"e_{i+1}" for i in range(n)]
    cols += [f"u_{j+1}" for j in range(M)]
    cols += [f"eps_{i+1}" for i in range(n)]
    cols += ["m", "V", "dV", "proj_fired"]
    return cols


# rows formatted per write: formatting one chunk peaks near 1.7 MiB at n=2
# (tracemalloc), and the per-chunk numpy and regex overhead is amortised
# over it
TRACE_CHUNK = 1024


def _write_rows(fh, columns, sep: str, flags=None) -> None:
    """Write row k of the stacked ``columns`` as shortest round-trip reprs
    joined by ``sep``, then ``sep`` and 1 or 0 when ``flags`` is given, then
    a newline, to the binary file ``fh``. One write per ``TRACE_CHUNK``
    rows, so memory does not grow with the row count.

    orjson prints the shortest round-trip digits, as ``repr`` does, but
    writes ``null`` for a non-finite value, a positional ``0.0000x`` for
    1e-5 <= |x| < 1e-4 and its exponents without a sign or a leading zero;
    the first two get their ``repr`` as a string, the exponents are
    respelled in the bytes."""
    # imported and compiled here, so that runs writing no trace never pay
    import orjson
    # orjson spells exponents 1e16 and 1e-9 where repr spells 1e+16 and 1e-09
    bare_exponent = re.compile(rb"e(?=\d)")
    one_digit_negative_exponent = re.compile(rb"e-(?=\d[,\]])")
    # a regex finds the rare "]" faster than bytes.replace finds "],["
    row_break = re.compile(rb"\],\[")
    steps = len(columns[0])
    sep = sep.encode()
    for lo in range(0, steps, TRACE_CHUNK):
        hi = min(lo + TRACE_CHUNK, steps)
        block = np.column_stack([c[lo:hi] for c in columns])
        rows = block.tolist()
        mag = np.abs(block)
        odd = ~(mag < np.inf) | ((mag >= 1e-5) & (mag < 1e-4))
        for i, j in np.argwhere(odd).tolist():
            rows[i][j] = repr(rows[i][j])
        if flags is not None:
            for row, flag in zip(rows, flags[lo:hi].astype(int).tolist()):
                row.append(flag)
        text = orjson.dumps(rows)
        del rows  # the chunk's Python floats, before its bytes are copied
        # only |x| >= 1e16 has a positive exponent, and only
        # 1e-9 <= |x| < 1e-5 a one-digit negative one
        if (mag >= 1e16).any():
            text = bare_exponent.sub(b"e+", text)
        if ((mag >= 1e-9) & (mag < 1e-5)).any():
            text = one_digit_negative_exponent.sub(b"e-0", text)
        text = row_break.sub(b"\n", text[2:-2].replace(b'"', b""))
        if sep != b",":
            text = text.replace(b",", sep)
        fh.write(text + b"\n")


def write_trace_csv(trace: SimulationTrace, path: str) -> None:
    """One row per recorded step, fixed column order, shortest round-trip
    float formatting (bit-exact across identical runs)."""
    n = trace.x.shape[1]
    M = trace.u.shape[1]
    # stride-0 stand-ins for the optional columns
    nan = np.broadcast_to(np.nan, trace.steps)
    V = trace.V if trace.V is not None else nan
    dV = trace.dV if trace.dV is not None else nan
    fired = (trace.proj_fired if trace.proj_fired is not None
             else np.broadcast_to(False, trace.steps))
    with open(path, "wb") as fh:
        fh.write((",".join(trace_header(n, M)) + "\n").encode())
        _write_rows(fh, [trace.t, trace.x, trace.x_m, trace.e, trace.u,
                         trace.eps, trace.m, V, dV], ",", fired)


def write_gnuplot_dat(trace: SimulationTrace, path: str) -> None:
    """Whitespace-separated (t, e_1..e_n) layout for external plotting."""
    n = trace.x.shape[1]
    with open(path, "wb") as fh:
        fh.write(("# t " + " ".join(f"e_{i+1}" for i in range(n))
                  + "\n").encode())
        _write_rows(fh, [trace.t, trace.e], " ")


def _emit_outputs(run: ScenarioRun, out_dir: str | None) -> None:
    cfg = run.config
    directory = out_dir or cfg.output["dir"]
    if directory is None:
        return
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, cfg.name)
    if cfg.output["trace"]:
        write_trace_csv(run.trace, base + ".trace.csv")
    if cfg.output["summary"]:
        with open(base + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary_dict(run), fh, indent=2, sort_keys=True)
            fh.write("\n")
    if cfg.output["gnuplot"]:
        write_gnuplot_dat(run.trace, base + ".dat")


def cmd_validate(args) -> int:
    try:
        load_config(args.config)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"invalid: {err}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def _out_errors(path) -> list[str]:
    """The ``--out`` problem, as a list: a directory that cannot be made
    because an existing part of ``path`` is not a directory."""
    head = None if path is None else blocked_dir(path)
    return [] if head is None else [f"--out: {head} is not a directory"]


def cmd_run(args) -> int:
    errors = []
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        errors = list(exc.errors)
    errors += _out_errors(args.out)
    if errors:
        for err in errors:
            print(f"invalid: {err}", file=sys.stderr)
        return 1
    try:
        run = run_scenario(cfg)
    except ToolkitError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    _emit_outputs(run, args.out)
    summary = summary_dict(run)
    print(json.dumps(summary, indent=2, sort_keys=True))
    if run.trace.diverged:
        print(f"diverged at step {run.trace.diverged_at}", file=sys.stderr)
        return 2
    if args.strict and run.exit_status == 3:
        print("invariant violation under --strict", file=sys.stderr)
        return 3
    return 0


def _batch_one(payload):
    idx, data, out_dir = payload
    try:
        cfg = config_from_dict(data)
        run = run_scenario(cfg)
        _emit_outputs(run, out_dir)
        row = summary_dict(run)
        row["status"] = "diverged" if run.trace.diverged else "ok"
        return idx, row
    except ConfigError as exc:
        return idx, {"name": data.get("name", f"run-{idx}"),
                     "status": "invalid", "errors": exc.errors}
    except ToolkitError as exc:
        return idx, {"name": data.get("name", f"run-{idx}"),
                     "status": "failed", "errors": [str(exc)]}


def _set_dotted(data: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def _document(item, where: str, errors: list):
    """A config object of a batch spec, given inline or as a path to a JSON
    file; None, with the problem added to ``errors``, when it is neither."""
    if isinstance(item, str):
        try:
            with open(item, "r", encoding="utf-8") as fh:
                item = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            errors.append(f"{where}: {exc}")
            return None
    if not isinstance(item, dict):
        errors.append(f"{where}: expected a config object or a path, "
                      f"got {item!r}")
        return None
    return item


def expand_batch_spec(spec) -> list[dict]:
    """Either an explicit config list or a base config plus a sweep grid;
    a ConfigError lists every problem of the spec."""
    if not isinstance(spec, dict) or not ("configs" in spec or "base" in spec):
        raise ConfigError([f"expected an object with 'configs' or 'base', "
                           f"got {spec!r}"])
    errors: list[str] = []
    if "configs" in spec:
        items = spec["configs"]
        if not isinstance(items, list):
            raise ConfigError([f"configs: expected a list, got {items!r}"])
        members = [_document(item, f"configs[{i}]", errors)
                   for i, item in enumerate(items)]
    else:
        base = _document(spec["base"], "base", errors)
        sweep = spec.get("sweep", {})
        if not isinstance(sweep, dict):
            errors.append(f"sweep: expected an object, got {sweep!r}")
        else:
            errors.extend(f"sweep.{key}: expected a list of values, got "
                          f"{grid!r}" for key, grid in sweep.items()
                          if not isinstance(grid, list))
    if errors:
        raise ConfigError(errors)
    return members if "configs" in spec else _sweep(base, sweep)


def _sweep(base: dict, sweep: dict) -> list[dict]:
    """One copy of ``base`` per point of the ``sweep`` grid, named after
    the swept values."""
    keys = sorted(sweep.keys())
    # the values are spelled into names, which stay file names
    safe = str.maketrans(dict.fromkeys(PATH_CHARS, "_"))
    runs = []
    for combo in itertools.product(*(sweep[k] for k in keys)):
        data = json.loads(json.dumps(base))
        tags = []
        for key, value in zip(keys, combo):
            _set_dotted(data, key, value)
            tags.append(f"{key.split('.')[-1]}={str(value).translate(safe)}")
        # a name that is not a string is left for validation to report
        if tags and isinstance(data.get("name", "run"), str):
            data["name"] = data.get("name", "run") + "[" + ",".join(tags) + "]"
        runs.append(data)
    return runs


def worker_count(jobs: int, members: int) -> int:
    """Pool size for a batch: never more workers than members or CPUs,
    since the fork start method launches every worker up front."""
    return max(1, min(jobs, members, os.cpu_count() or 1))


def cmd_batch(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"invalid batch spec: {exc}", file=sys.stderr)
        return 1
    errors = []
    try:
        members = expand_batch_spec(spec)
    except ConfigError as exc:
        errors = [f"invalid batch spec: {err}" for err in exc.errors]
    errors += [f"invalid: {err}" for err in _out_errors(args.out)]
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    payloads = [(i, data, args.out) for i, data in enumerate(members)]
    rows: list[dict] = [None] * len(payloads)
    jobs = worker_count(args.jobs, len(payloads))
    if jobs > 1:
        # imported here: it costs every other invocation several ms
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            for idx, row in pool.map(_batch_one, payloads):
                rows[idx] = row
    else:
        for payload in payloads:
            idx, row = _batch_one(payload)
            rows[idx] = row
    print(json.dumps(rows, indent=2, sort_keys=True))
    statuses = {row["status"] for row in rows}
    if statuses & {"invalid", "failed"}:
        return 1
    return 2 if "diverged" in statuses else 0


def cmd_example(args) -> int:
    if not args.paper:
        print("nothing to emit; pass --paper for the bundled scenario",
              file=sys.stderr)
        return 1
    text = serialize_config(benchmark_config(two_tone=args.two_tone))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrac",
        description="Adaptive state-tracking scenarios: validate, run, and "
                    "batch-execute; traces land as CSV "
                    f"({TRACE_COLUMNS_DOC}).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a scenario config")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--strict", action="store_true",
                   help="nonzero exit on invariant violations")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("batch", help="run a batch spec (configs or sweep)")
    p.add_argument("spec")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("example", help="emit the bundled benchmark scenario")
    p.add_argument("--paper", action="store_true",
                   help="emit the bundled second-order benchmark scenario")
    p.add_argument("--two-tone", action="store_true",
                   help="use the two-sinusoid reference input variant")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
