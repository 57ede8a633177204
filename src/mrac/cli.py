"""Command-line surface: validate, run, batch, example.

Exit codes: 0 success, 1 validation error or a malformed command line, 2
divergence or ``run failed`` (a SingularGainError, or a file that cannot be
moved into place), 3 invariant violation under --strict. ``batch`` prints
every row, then exits 1 if any member is invalid or failed, else 2 if any
diverged, else 0.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, ToolkitError
from .scenario import (MEMORY_BUDGET_BYTES, PATH_CHARS, ScenarioRun,
                       benchmark_config, config_from_dict, dir_problem,
                       load_config, lockstep_key, read_document, run_lockstep,
                       run_scenario, serialize_config, streamed_bytes,
                       summary_dict)

if TYPE_CHECKING:
    import argparse
    from .diagnostics import SimulationTrace

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


class TempFile:
    """``text`` written under a temporary name in ``directory``.
    ``close(path)`` moves the file to ``path``; ``discard`` removes it
    unless it was moved, so that a run that does not finish leaves no
    file."""

    serial = itertools.count()

    def __init__(self, directory, text: str):
        while True:  # past any name in use
            self.temp = os.path.join(
                directory, f".mrac-{os.getpid()}-{next(self.serial)}.part")
            with contextlib.suppress(FileExistsError), \
                    open(self.temp, "xb") as fh:
                fh.write(text.encode())
                return

    def close(self, path: str) -> None:
        os.replace(self.temp, path)

    def discard(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.temp)


class RowFile(TempFile):
    """A TempFile of a run's rows, a consumer of its trace's rows (see
    ``diagnostics.feed``): ``header``, then the rows it is given, each
    block appended as it comes, so that no file stays open between blocks.
    ``columns(rows)`` gives the columns of a block of rows and
    ``flags(rows)``, when given, the 1/0 flag that ends each row (see
    ``_write_rows``)."""

    def __init__(self, directory, header: str, sep: str, columns,
                 flags=None):
        super().__init__(directory, header)
        self.sep, self.columns, self.flags = sep, columns, flags
        self.steps = 0  # rows written

    def add(self, rows: SimulationTrace, lo: int, end=None) -> None:
        with open(self.temp, "ab") as fh:
            _write_rows(fh, self.columns(rows), self.sep,
                        self.flags and self.flags(rows))
        self.steps += rows.steps


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


def _moved(trace, path: str, make) -> None:
    """Move ``trace``, a RowFile, to ``path``, or a SimulationTrace's rows,
    written into the RowFile ``make(directory)``, removed on a failure."""
    if isinstance(trace, RowFile):
        return trace.close(path)
    from .diagnostics import feed
    rows = make(os.path.dirname(path) or ".")
    try:
        feed(trace, rows)
        rows.close(path)
    finally:
        rows.discard()


def write_trace_csv(trace, path: str) -> None:
    """One row per recorded step, fixed column order, shortest round-trip
    float formatting (bit-exact across identical runs), to ``path``.
    ``trace`` is a SimulationTrace, or the RowFile into which a streamed
    run wrote these rows as it went (``RunFiles``)."""
    _moved(trace, path, lambda directory: _trace_file(
        directory, trace.x.shape[1], trace.u.shape[1]))


def write_gnuplot_dat(trace, path: str) -> None:
    """Whitespace-separated (t, e_1..e_n) layout for external plotting;
    ``trace`` as for ``write_trace_csv``."""
    _moved(trace, path, lambda directory: _gnuplot_file(
        directory, trace.x.shape[1]))


# each output kind's file after a run's base path dir/name
SUFFIXES = {"trace": ".trace.csv", "summary": ".summary.json",
            "gnuplot": ".dat"}


def _base(cfg, out_dir: str | None):
    """dir/name, after which a run of ``cfg`` writes its files, dir being
    ``out_dir`` or its output.dir; None when it writes none."""
    directory = out_dir or cfg.output["dir"]
    if directory is None or not any(map(cfg.output.get, SUFFIXES)):
        return None
    return os.path.join(directory, cfg.name)


class RunFiles(contextlib.AbstractContextManager):
    """The files of a run of ``cfg`` (``_base``) and their directory, made
    here; an OSError names the directory's source. The run streams its
    trace and gnuplot layout into the RowFiles ``rows`` (see
    ``run_scenario``), and ``commit`` moves its files into place. As a
    context manager, it removes on exit every file not moved, so that a
    run that fails leaves none."""

    def __init__(self, cfg, out_dir: str | None):
        self.directory = out_dir or cfg.output["dir"]
        self.source = "--out" if out_dir else "output.dir"
        base = _base(cfg, out_dir)
        self.paths = {} if base is None else {
            kind: base + suffix for kind, suffix in SUFFIXES.items()
            if cfg.output[kind]}
        self.files, n = {}, cfg.built.plant.n
        try:
            if self.paths:
                os.makedirs(self.directory, exist_ok=True)
            if "trace" in self.paths:
                self.files["trace"] = _trace_file(self.directory, n,
                                                  cfg.built.plant.n_inputs)
            if "gnuplot" in self.paths:
                self.files["gnuplot"] = _gnuplot_file(self.directory, n)
        except OSError as exc:
            self.__exit__()
            raise OSError(f"{self.source}: {exc}")
        self.rows = list(self.files.values())

    def __exit__(self, *exc_info):
        for file in self.files.values():
            file.discard()

    def commit(self, run: ScenarioRun) -> dict:
        """The summary of the finished ``run`` (``summary_dict``), once its
        files, the summary too, are moved into place. A file that cannot be
        removes those already moved, so that a run leaves all of its files
        or none, and raises an OSError that names its destination."""
        summary = summary_dict(run)
        moves = {"trace": write_trace_csv, "summary": TempFile.close,
                 "gnuplot": write_gnuplot_dat}
        moved, path = [], self.paths.get("summary")
        try:
            if path:
                self.files["summary"] = TempFile(self.directory, json.dumps(
                    summary, indent=2, sort_keys=True) + "\n")
            for kind, path in self.paths.items():
                moves[kind](self.files[kind], path)
                moved.append(path)
        except OSError as exc:
            for done in moved:
                with contextlib.suppress(OSError):
                    os.remove(done)
            raise OSError(f"{self.source}: "
                          f"{OSError(exc.errno, exc.strerror, path)}")
        return summary


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
    """The ``--out`` problem, as a list: a directory that cannot be made at
    ``path`` (``dir_problem``)."""
    problem = None if path is None else dir_problem(path)
    return [] if problem is None else [f"--out: {problem}"]


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
        files = RunFiles(cfg, args.out)
    except OSError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    try:
        with files:
            run = run_scenario(cfg, files.rows)
            summary = files.commit(run)
    except (ToolkitError, OSError) as exc:
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


def _row(idx, data, run, files: RunFiles) -> dict:
    """The batch row of member ``idx``, given as ``data``, from its
    post-checked ``run``, whose files ``files`` it commits, or from the
    error its run raised."""
    if isinstance(run, Exception):
        return _error_row(idx, data, "failed", [str(run)])
    try:
        row = files.commit(run)
    except OSError as exc:
        return _error_row(idx, data, "failed", [str(exc)])
    row["status"] = "diverged" if run.trace.diverged else "ok"
    return row


def _batch_unit(payload):
    """The rows, by index, of one unit of a batch: a lone member, which runs
    through ``run_scenario``, or a lockstep group (``run_lockstep``); each
    member streams its rows to its files (``RunFiles``), and one whose
    files cannot be made fails without running."""
    unit, out_dir = payload
    rows, files = {}, {}
    with contextlib.ExitStack() as made:
        for idx, data, cfg in unit:
            try:
                files[idx] = made.enter_context(RunFiles(cfg, out_dir))
            except OSError as exc:
                rows[idx] = _error_row(idx, data, "failed", [str(exc)])
        unit = [item for item in unit if item[0] in files]
        if len(unit) == 1:
            [(idx, data, cfg)] = unit
            try:
                run = run_scenario(cfg, files[idx].rows)
            except (ToolkitError, OSError) as exc:
                run = exc
            rows[idx] = _row(idx, data, run, files[idx])
        elif unit:
            runs = run_lockstep([cfg for _, _, cfg in unit],
                                [files[idx].rows for idx, _, _ in unit])
            rows.update((idx, _row(idx, data, run, files[idx]))
                        for (idx, data, _), run in zip(unit, runs))
    return rows


def _set_dotted(data: dict, dotted: str, value) -> None:
    """Set the key path ``dotted`` of ``data`` to ``value``, making an
    object of each part of the path that is absent or null; the path is
    checked first (``_path_errors``)."""
    *path, last = dotted.split(".")
    node = data
    for key in path:
        if node.get(key) is None:
            node[key] = {}
        node = node[key]
    node[last] = value


def _path_errors(base: dict, sweep: dict) -> list[str]:
    """One line per key of ``sweep`` that no member could take as its own:
    a key inside another swept key, whose value would be shared by every
    member made from that value, or a path through a value of ``base``
    that is not an object (a null counts as absent)."""
    errors = []
    for key in sweep:
        parts = key.split(".")
        node = base
        for i, part in enumerate(parts[:-1]):
            head = ".".join(parts[:i + 1])
            if head in sweep:
                errors.append(f"sweep.{key}: inside the swept key {head}")
                break
            node = None if node is None else node.get(part)
            if not isinstance(node, (dict, type(None))):
                errors.append(f"sweep.{key}: {head} is {_kind(node)}, not "
                              "an object")
                break
    return errors


# a batch holds every member from expansion until its rows are printed:
# about 12 KiB each before any stepping, from the child max RSS of `mrac
# batch --jobs 1` over a seed sweep of the bundled config at horizon 2,
# outputs off, on a 2-core Xeon VM (Python 3.11, numpy 2.4): 200 members
# 35.6 MiB, 2,000 69.2 MiB, 8,000 141.6 MiB. So the members a batch may
# have are those that fit the memory budget of one run
BATCH_MEMBERS_MAX = MEMORY_BUDGET_BYTES // (12 << 10)


def _oversized(where: str, count: int) -> list[str]:
    """The line of a batch of ``count`` members given at ``where`` that has
    more than BATCH_MEMBERS_MAX, if it has."""
    return ([f"{where}: {count} members, above the {BATCH_MEMBERS_MAX} a "
             "batch may have"] if count > BATCH_MEMBERS_MAX else [])


def _document(item, where: str, errors: list):
    """A config object of a batch spec, given inline or as a path to a JSON
    file; None, with the problem added to ``errors``, when it is neither."""
    try:
        item = read_document(item) if isinstance(item, str) else item
        if isinstance(item, dict):
            return item
        problem = f"expected a config object or a path, got {_kind(item)}"
    except ConfigError as exc:
        [problem] = exc.errors
    errors.append(f"{where}: {problem}")


def _kind(value) -> str:
    """The JSON type of ``value``, which an error line names in its place."""
    return {dict: "an object", list: "an array", str: "a string",
            bool: "a boolean", type(None): "null"}.get(type(value), "a number")


def expand_batch_spec(spec) -> list[dict]:
    """Either an explicit config list or a base config plus a sweep grid,
    sized before a member is read or made; a ConfigError lists every
    problem of the spec, a key it does not read among them."""
    if not isinstance(spec, dict) or not ("configs" in spec or "base" in spec):
        got = (_kind(spec) if not isinstance(spec, dict)
               else "a scenario config (run it with 'mrac run')"
               if "scheme" in spec else "an object with neither")
        raise ConfigError([f"expected an object with 'configs' or 'base', "
                           f"got {got}"])
    read = ("configs",) if "configs" in spec else ("base", "sweep")
    errors = [f"{key}: cannot be combined with configs"
              if key in ("base", "sweep") else f"{key}: unknown key"
              for key in spec if key not in read]
    if "configs" in spec:
        items = spec["configs"]
        if not isinstance(items, list):
            raise ConfigError(errors + [f"configs: expected a list, got "
                                        f"{_kind(items)}"])
        if oversized := _oversized("configs", len(items)):
            raise ConfigError(errors + oversized)
        members = [_document(item, f"configs[{i}]", errors)
                   for i, item in enumerate(items)]
    else:
        base = _document(spec["base"], "base", errors)
        sweep = spec.get("sweep", {})
        if not isinstance(sweep, dict):
            errors.append(f"sweep: expected an object, got {_kind(sweep)}")
        else:
            grids = [grid for grid in sweep.values() if isinstance(grid, list)]
            errors.extend(f"sweep.{key}: expected a list of values, got "
                          f"{_kind(grid)}" for key, grid in sweep.items()
                          if not isinstance(grid, list))
            errors.extend(_path_errors(base or {}, sweep))
            if len(grids) == len(sweep):
                errors.extend(_oversized("sweep", math.prod(map(len, grids))))
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


def usable_cpus():
    """The CPUs this process may run on, which taskset or a CPU set may
    cut below the host's count; None when unknown."""
    if hasattr(os, "process_cpu_count"):  # Python 3.13
        return os.process_cpu_count()
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())


def worker_count(jobs: int, units: int) -> int:
    """Pool size for a batch: never more workers than units (lockstep
    groups and lone members, see ``batch_units``) or usable CPUs, since
    the fork start method launches every worker up front."""
    return max(1, min(jobs, units, usable_cpus() or 1))


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
        base = _base(cfg, out_dir)
        if base is None:
            continue
        base = os.path.realpath(base)
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
            for unit_rows in pool.map(_batch_unit, payloads):
                rows.update(unit_rows)
    else:
        # each unit's configs and data go once its rows are made
        payloads.reverse()
        while payloads:
            rows.update(_batch_unit(payloads.pop()))
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
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except (OSError, ValueError) as exc:  # a NUL or a lone surrogate
            print(f"invalid: --out: {exc}", file=sys.stderr)
            return 1
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class Parser(argparse.ArgumentParser):
        # a malformed command line exits 1, not 2 (a diverged run's code)
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = Parser(
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
