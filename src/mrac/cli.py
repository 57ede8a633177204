"""Command-line surface: validate, run, batch, example.

Exit codes: 0 success, 1 validation error, 2 divergence or ``run failed``
(e.g. SingularGainError), 3 invariant violation under --strict. ``batch``
prints every row, then exits 1 if any member is invalid or failed, else 2
if any diverged, else 0.
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
from .scenario import (MEMORY_BUDGET_BYTES, PATH_CHARS, ScenarioRun,
                       benchmark_config, blocked_dir, config_bytes,
                       config_from_dict, load_config, lockstep_key,
                       run_lockstep, run_scenario, serialize_config,
                       summary_dict)

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


# rows formatted per write: formatting one chunk peaks near 0.3 MiB at n=2
# (tracemalloc), and the per-chunk numpy and regex overhead is amortised
# over it
TRACE_CHUNK = 128


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


def _emit_outputs(run: ScenarioRun, out_dir: str | None, summary) -> None:
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
            json.dump(summary, fh, indent=2, sort_keys=True)
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
    summary = summary_dict(run)
    _emit_outputs(run, args.out, summary)
    print(json.dumps(summary, indent=2, sort_keys=True))
    if run.trace.diverged:
        print(f"diverged at step {run.trace.diverged_at}", file=sys.stderr)
        return 2
    if args.strict and run.exit_status == 3:
        print("invariant violation under --strict", file=sys.stderr)
        return 3
    return 0


def _error_row(idx, data, status, errors) -> dict:
    return {"name": data.get("name", f"run-{idx}"), "status": status,
            "errors": errors}


def _row(idx, data, run, out_dir) -> dict:
    """The batch row of member ``idx``, given as ``data``, from its
    post-checked ``run`` or the ToolkitError its run raised; writes the
    member's outputs."""
    if isinstance(run, ToolkitError):
        return _error_row(idx, data, "failed", [str(run)])
    row = summary_dict(run)
    _emit_outputs(run, out_dir, row)
    row["status"] = "diverged" if run.trace.diverged else "ok"
    return row


def _batch_unit(payload):
    """The rows of one unit of a batch: a lone member, which runs through
    ``run_scenario``, or a lockstep group (``run_lockstep``)."""
    unit, out_dir = payload
    if len(unit) == 1:
        [(idx, data, cfg)] = unit
        try:
            run = run_scenario(cfg)
        except ToolkitError as exc:
            run = exc
        return [_row(idx, data, run, out_dir)]
    runs = run_lockstep([cfg for _, _, cfg in unit])
    return [_row(idx, data, run, out_dir)
            for (idx, data, _), run in zip(unit, runs)]


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


def worker_count(jobs: int, units: int) -> int:
    """Pool size for a batch: never more workers than units (lockstep
    groups and lone members, see ``batch_units``) or CPUs, since the fork
    start method launches every worker up front."""
    return max(1, min(jobs, units, os.cpu_count() or 1))


# the fewest same-shape discrete gradient members that run in lockstep. A
# mimic of the n=3, M=2 direct step, on one pinned CPU of a 2-core Xeon VM
# with numpy 2.4.6, measured a batched step, per member, at 0.46-0.53x the
# speed of the lone .dot step for B=1, 0.89-1.05x for B=2, 1.50-1.83x for
# B=4, 2.43-2.92x for B=8 and 3.39-4.09x for B=16: two members only break
# even
LOCKSTEP_MIN = 4


def batch_units(loaded) -> list:
    """``loaded``, the (index, data, config) of each valid member, as the
    units a batch runs: groups of at least LOCKSTEP_MIN members of one
    ``lockstep_key`` whose records fit the memory budget together, and
    every other member alone."""
    keyed = {}
    for item in loaded:
        keyed.setdefault(lockstep_key(item[2]), []).append(item)
    units = []
    for key, items in keyed.items():
        groups, total = [[]], 0
        for item in items:
            need = config_bytes(item[2])
            if key is None or total + need > MEMORY_BUDGET_BYTES:
                groups.append([])
                total = 0
            groups[-1].append(item)
            total += need
        for group in groups:
            units += ([group] if len(group) >= LOCKSTEP_MIN
                      else [[item] for item in group])
    return units


def cmd_batch(args) -> int:
    errors = []
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            members = expand_batch_spec(json.load(fh))
    except (OSError, json.JSONDecodeError) as exc:
        errors = [f"invalid batch spec: {exc}"]
    except ConfigError as exc:
        errors = [f"invalid batch spec: {err}" for err in exc.errors]
    errors += [f"invalid: {err}" for err in _out_errors(args.out)]
    if args.jobs < 1:
        errors.append(f"invalid: --jobs: expected a positive integer, got "
                      f"{args.jobs}")
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    rows, loaded = {}, []
    for idx, data in enumerate(members):
        try:
            loaded.append((idx, data, config_from_dict(data)))
        except ConfigError as exc:
            rows[idx] = _error_row(idx, data, "invalid", exc.errors)
    payloads = [(unit, args.out) for unit in batch_units(loaded)]
    jobs = worker_count(args.jobs, len(payloads))
    if jobs > 1:
        # imported here: it costs every other invocation several ms
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_batch_unit, payloads))
    else:
        done = list(map(_batch_unit, payloads))
    for (unit, _), unit_rows in zip(payloads, done):
        rows.update((idx, row) for (idx, _, _), row in zip(unit, unit_rows))
    rows = [rows[idx] for idx in range(len(members))]
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
