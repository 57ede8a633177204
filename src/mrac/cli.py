"""Command-line surface: validate, run, batch, example.

Exit codes: 0 success, 1 validation error, 2 divergence or ``run failed``
(e.g. SingularGainError), 3 invariant violation under --strict. ``batch``
prints every row, then exits 1 if any member is invalid or failed, else 2
if any diverged, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import os
import re
import sys

import numpy as np

from .diagnostics import SimulationTrace, feed
from .errors import ConfigError, ToolkitError
from .scenario import (MEMORY_BUDGET_BYTES, PATH_CHARS, ScenarioRun,
                       benchmark_config, blocked_dir, config_from_dict,
                       load_config, lockstep_key, read_document, run_lockstep,
                       run_scenario, serialize_config, streamed_bytes,
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


class RowFile:
    """A file of a run's rows, a consumer of its trace's rows (see
    ``diagnostics.feed``): ``header``, then the rows it is given, written
    as they come under a temporary name in ``directory``, each block
    appended, so that no file stays open between blocks. ``columns(rows)``
    gives the columns of a block of rows and ``flags(rows)``, when given,
    the 1/0 flag that ends each row (see ``_write_rows``). ``close(path)``
    renames the file to ``path``; ``discard`` removes it, so that a run
    that does not finish leaves no file."""

    serial = itertools.count()

    def __init__(self, directory, header: str, sep: str, columns,
                 flags=None):
        while True:
            self.temp = os.path.join(
                directory, f".mrac-{os.getpid()}-{next(self.serial)}.part")
            try:
                with open(self.temp, "xb") as fh:
                    fh.write(header.encode())
                break
            except FileExistsError:
                continue
        self.sep, self.columns, self.flags = sep, columns, flags
        self.steps = 0  # rows written

    def add(self, rows: SimulationTrace, lo: int, end=None) -> None:
        with open(self.temp, "ab") as fh:
            _write_rows(fh, self.columns(rows), self.sep,
                        self.flags and self.flags(rows))
        self.steps += rows.steps

    def close(self, path: str) -> None:
        os.replace(self.temp, path)

    def discard(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.temp)


@contextlib.contextmanager
def _discarded_on_error(files):
    """Discard each of the RowFiles ``files`` when the block raises."""
    try:
        yield
    except BaseException:
        for rows in files:
            rows.discard()
        raise


def _trace_columns(rows: SimulationTrace) -> list:
    # stride-0 stand-ins for the optional columns
    nan = np.broadcast_to(np.nan, rows.steps)
    return [rows.t, rows.x, rows.x_m, rows.e, rows.u, rows.eps, rows.m,
            nan if rows.V is None else rows.V,
            nan if rows.dV is None else rows.dV]


def _fired(rows: SimulationTrace):
    return (rows.proj_fired if rows.proj_fired is not None
            else np.broadcast_to(False, rows.steps))


def _trace_file(directory, n: int, M: int) -> RowFile:
    return RowFile(directory, ",".join(trace_header(n, M)) + "\n", ",",
                   _trace_columns, _fired)


def _gnuplot_file(directory, n: int) -> RowFile:
    return RowFile(directory, "# t " + " ".join(
        f"e_{i+1}" for i in range(n)) + "\n", " ", lambda rows: [rows.t,
                                                                rows.e])


def _filled(rows: RowFile, trace: SimulationTrace) -> RowFile:
    """``rows`` with the rows of ``trace`` written."""
    with _discarded_on_error([rows]):
        feed(trace, rows)
    return rows


def write_trace_csv(trace, path: str) -> None:
    """One row per recorded step, fixed column order, shortest round-trip
    float formatting (bit-exact across identical runs), to ``path``.
    ``trace`` is a SimulationTrace, or the RowFile into which a streamed
    run wrote these rows as it went (``_row_files``)."""
    if not isinstance(trace, RowFile):
        trace = _filled(_trace_file(os.path.dirname(path) or ".",
                                    trace.x.shape[1], trace.u.shape[1]),
                        trace)
    trace.close(path)


def write_gnuplot_dat(trace, path: str) -> None:
    """Whitespace-separated (t, e_1..e_n) layout for external plotting;
    ``trace`` as for ``write_trace_csv``."""
    if not isinstance(trace, RowFile):
        trace = _filled(_gnuplot_file(os.path.dirname(path) or ".",
                                      trace.x.shape[1]), trace)
    trace.close(path)


def _directory(cfg, out_dir: str | None):
    return out_dir or cfg.output["dir"]


def _row_files(cfg, out_dir: str | None) -> dict:
    """The RowFiles into which a run of ``cfg`` streams its trace and its
    gnuplot layout (see ``run_scenario``), by kind, in ``out_dir`` or its
    output.dir, which is made here; none without a directory."""
    directory = _directory(cfg, out_dir)
    kinds = ([] if directory is None else
             [kind for kind in ("trace", "gnuplot") if cfg.output[kind]])
    if kinds:
        os.makedirs(directory, exist_ok=True)
    n, M = cfg.built.plant.n, cfg.built.plant.n_inputs
    return {kind: _trace_file(directory, n, M) if kind == "trace"
            else _gnuplot_file(directory, n) for kind in kinds}


def _emit_outputs(run: ScenarioRun, files: dict, out_dir: str | None,
                  summary) -> None:
    """Move the row files ``files`` of ``run`` into place and write its
    summary."""
    cfg = run.config
    directory = _directory(cfg, out_dir)
    if directory is None:
        return
    os.makedirs(directory, exist_ok=True)
    base = os.path.join(directory, cfg.name)
    if "trace" in files:
        write_trace_csv(files["trace"], base + ".trace.csv")
    if cfg.output["summary"]:
        with open(base + ".summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if "gnuplot" in files:
        write_gnuplot_dat(files["gnuplot"], base + ".dat")


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
    files = _row_files(cfg, args.out)
    try:
        with _discarded_on_error(files.values()):
            run = run_scenario(cfg, list(files.values()))
            summary = summary_dict(run)
            _emit_outputs(run, files, args.out, summary)
    except ToolkitError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
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


def _row(idx, data, run, files, out_dir) -> dict:
    """The batch row of member ``idx``, given as ``data``, from its
    post-checked ``run`` or the ToolkitError its run raised; writes the
    member's outputs, its streamed row files ``files`` among them."""
    if isinstance(run, ToolkitError):
        for rows in files.values():
            rows.discard()
        return _error_row(idx, data, "failed", [str(run)])
    row = summary_dict(run)
    _emit_outputs(run, files, out_dir, row)
    row["status"] = "diverged" if run.trace.diverged else "ok"
    return row


def _batch_unit(payload):
    """The rows of one unit of a batch: a lone member, which runs through
    ``run_scenario``, or a lockstep group (``run_lockstep``); each member
    streams its rows to its files."""
    unit, out_dir = payload
    files = [_row_files(cfg, out_dir) for _, _, cfg in unit]
    with _discarded_on_error([rows for member in files
                              for rows in member.values()]):
        if len(unit) == 1:
            [(idx, data, cfg)] = unit
            try:
                run = run_scenario(cfg, list(files[0].values()))
            except ToolkitError as exc:
                run = exc
            return [_row(idx, data, run, files[0], out_dir)]
        runs = run_lockstep([cfg for _, _, cfg in unit],
                            [list(member.values()) for member in files])
        return [_row(idx, data, run, member, out_dir)
                for (idx, data, _), run, member in zip(unit, runs, files)]


def _set_dotted(data: dict, dotted: str, value) -> None:
    keys = dotted.split(".")
    node = data
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value


def _document(item, where: str, errors: list):
    """A config object of a batch spec, given inline or as a path to a JSON
    file; None, with the problem added to ``errors``, when it is neither."""
    try:
        item = read_document(item) if isinstance(item, str) else item
        if isinstance(item, dict):
            return item
        problem = f"expected a config object or a path, got {item!r}"
    except ConfigError as exc:
        [problem] = exc.errors
    errors.append(f"{where}: {problem}")


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
    ``lockstep_key`` that fit the memory budget together, each holding
    what a streamed run holds (``streamed_bytes``), and every other member
    alone."""
    keyed = {}
    for item in loaded:
        keyed.setdefault(lockstep_key(item[2]), []).append(item)
    units = []
    for key, items in keyed.items():
        groups, total = [[]], 0
        for item in items:
            need = streamed_bytes(item[2])
            if key is None or total + need > MEMORY_BUDGET_BYTES:
                groups.append([])
                total = 0
            groups[-1].append(item)
            total += need
        for group in groups:
            units += ([group] if len(group) >= LOCKSTEP_MIN
                      else [[item] for item in group])
    return units


def _clashes(loaded, out_dir) -> dict:
    """The invalid rows, by index, of the members of ``loaded`` whose files
    would land where an earlier member's do, at one resolved base path
    (dir/name), and so overwrite them; a member that writes no files
    clashes with none."""
    rows, firsts = {}, {}
    for idx, data, cfg in loaded:
        directory = _directory(cfg, out_dir)
        if directory is None or not any(cfg.output[kind] for kind
                                        in ("trace", "summary", "gnuplot")):
            continue
        base = os.path.realpath(os.path.join(directory, cfg.name))
        first = firsts.setdefault(base, idx)
        if first != idx:
            rows[idx] = _error_row(idx, data, "invalid", [
                f"name: member {first} writes its files at {base} too"])
    return rows


def cmd_batch(args) -> int:
    errors = []
    try:
        members = expand_batch_spec(read_document(args.spec))
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
    rows.update(_clashes(loaded, args.out))
    loaded = [item for item in loaded if item[0] not in rows]
    count = len(members)
    # from here on only the units hold the members' configs and data
    del members
    payloads = [(unit, args.out) for unit in batch_units(loaded)]
    del loaded
    jobs = worker_count(args.jobs, len(payloads))
    if jobs > 1:
        # imported here: it costs every other invocation several ms
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            done = zip(payloads, pool.map(_batch_unit, payloads))
            for (unit, _), unit_rows in done:
                rows.update((idx, row) for (idx, _, _), row
                            in zip(unit, unit_rows))
    else:
        # each unit's configs and data go once its rows are made
        payloads.reverse()
        while payloads:
            unit, out_dir = payloads.pop()
            unit_rows = _batch_unit((unit, out_dir))
            rows.update((idx, row) for (idx, _, _), row
                        in zip(unit, unit_rows))
    rows = [rows[idx] for idx in range(count)]
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
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"invalid: --out: {exc}", file=sys.stderr)
            return 1
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
    if argv is None:
        # a process of one command: what it holds by now, numpy's modules
        # among it, lives until exit, so no collection, the one at exit
        # included, need scan it; forked workers share it unscanned too
        gc.freeze()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
