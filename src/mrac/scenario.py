"""Scenario configuration: parsing, validation, and scheme dispatch.

A scenario is one JSON document (nested sections, matrices as row-major
arrays of arrays). ``load_config`` reports every validation problem it can
find, not just the first, and builds the domain objects a run needs, the
matching solution among them, once. The loaded config carries them for
``run_scenario``; its fields hold plain Python values, which round-trip
losslessly through ``serialize_config``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import namedtuple
from copy import deepcopy
from importlib import import_module
from typing import Any, Optional

import numpy as np

# check_delta_V, direct_V_series, indirect_V_series and tracking_metrics
# stay module attributes: the benchmark's tracer wraps them here by name
from .diagnostics import (Keep, Reduction, SimulationTrace,  # noqa: F401
                          _entries, _stack_gains, check_delta_V,
                          direct_V_series, first_violation, indirect_V_series,
                          tracking_metrics)
from . import _rows
from .direct import (DirectGainConfig, InitialConditions, _direct_member,
                     _matching, run_direct_scenario, stack_controller_gains)
from .errors import ConfigError, GainError, ModelError, ToolkitError
# the benchmark's tracer wraps solve_matching here by name
from .systems import (CONTINUOUS, DISCRETE, PlantModel,  # noqa: F401
                      ReferenceModel, ReferenceSignal, solve_matching)

# the runners whose modules are imported only when a config names their
# scheme; run_scenario reads every runner as a module attribute, so a
# caller may replace it here (the benchmark's tracer does)
_LAZY_RUNNERS = {"run_indirect_scenario": "indirect",
                 "run_lyapunov_scenario": "lyapunov"}


def __getattr__(name):
    if name not in _LAZY_RUNNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY_RUNNERS[name]}", __package__),
                    name)
    globals()[name] = value
    return value

SCHEMES = ("direct_gradient", "indirect_gradient",
           "lyapunov_direct", "lyapunov_indirect")

# the most a run's records, trace and reference samples may take; a config
# estimated above it is invalid
MEMORY_BUDGET_BYTES = 1 << 30

# the blocks of rows (``_rows.BLOCK`` and ``_rows.CHUNK`` rows) whose
# estimate bounds the fixed rows a streamed run holds (``streamed_bytes``):
# a streamed member of a lockstep group was measured to hold 0.13 MB (n=2,
# M=1) and 0.28 MB (n=3, M=2) beyond its two series, under a fifth of it
STREAMED_ROWS = 4


def memory_estimate(horizon: int, n: int, M: int, time_domain: str) -> int:
    """A bound on the bytes a run that keeps its rows (the Python API's,
    ``diagnostics.Keep``) holds at its peak, 8 (T+1) (C M + 5n + 3M + 6 +
    s M) with C = n + M. Per step that is the widest scheme's records
    (theta; x, x_m, eps and x_hat; u and two M-wide columns, rho or the
    projection's proj_g2 and proj_f2; m^2), what the trace adds to them
    (e, t, V, dV, the decrement and proj_fired, a byte counted as a
    float) and r at the s stage times a step samples, 1 in discrete time
    and 4 in continuous time. r is sampled a block of rows at a time, so
    that term is room for the summary's |dtheta|^2 series (and, without V,
    its decrement). Every other array a run makes is a fixed number of
    rows (``_rows.CHUNK``, ``_rows.BLOCK``, the trace writer's chunk). A
    run that keeps only its summary holds far less (``streamed_bytes``)."""
    stages = 4 if time_domain == CONTINUOUS else 1
    return 8 * (horizon + 1) * ((n + M) * M + 5 * n + 3 * M + 6 + stages * M)


def blocked_dir(path: str) -> Optional[str]:
    """The nearest existing ancestor of ``path``, itself included, when it
    is not a directory, so that ``path`` cannot be made as one; else None."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    return None if os.path.isdir(head) else head


def read_document(source, unreadable: str = "", text: bool = False):
    """The JSON value of the UTF-8 file at the path ``source``, byte-order
    mark or not, or, when ``text``, of a str that starts "{" after blanks. A
    failure is one ConfigError line; ``unreadable`` heads a read failure."""
    if not (text and isinstance(source, str) and source.lstrip()[:1] == "{"):
        try:
            with open(os.fspath(source), "rb") as fh:
                source = fh.read().decode("utf-8-sig")
        except (OSError, ValueError) as exc:  # a NUL in the path, not UTF-8
            raise ConfigError([f"{unreadable}{exc}"])
    try:
        return json.loads(source)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"parse error at line {exc.lineno}, column "
                           f"{exc.colno}: {exc.msg}"])
    except (RecursionError, ValueError) as exc:  # too deep, too many digits
        raise ConfigError([f"parse error: {exc}"])


def load_config(source) -> ScenarioConfig:
    """Parse and fully validate a scenario from a path or a JSON string."""
    data = read_document(source, "cannot read config file: ", text=True)
    if not isinstance(data, dict):
        raise ConfigError(["config document must be a JSON object"])
    return config_from_dict(data)


def _floats(value) -> np.ndarray:
    """``value`` as a float array. JSON true/false load as bool and null as
    None, which numpy would read as 1.0/0.0 and NaN, so they raise
    TypeError like other non-numbers."""
    pending = [value]
    while pending:
        item = pending.pop()
        if item is None or isinstance(item, bool):
            raise TypeError("true, false and null are not numbers")
        if isinstance(item, list):
            pending.extend(item)
    return np.asarray(value, dtype=float)


# the characters that make a string a path rather than a file name
PATH_CHARS = tuple(filter(None, ("/", os.sep, os.altsep, "\0")))
# the longest name whose longest file, <name>.summary.json, fits in the 255
# bytes a file name may have on common filesystems, in bytes of UTF-8
NAME_BYTES = 255 - len(".summary.json")


def _surrogate(text: str) -> bool:
    """Whether ``text`` holds a lone surrogate, which JSON can spell but
    which has no UTF-8 bytes to name a file or a directory with."""
    return any("\ud800" <= c <= "\udfff" for c in text)


# what a value of each scalar kind must be, and its test; JSON true/false
# load as bool, which Python counts as an int
_KINDS = {
    "count": ("a positive integer", lambda v: type(v) is int and v >= 1),
    "int": ("an integer", lambda v: type(v) is int),
    "step": ("a positive finite number", lambda v: type(v) in (int, float)
             and 0 < v <= sys.float_info.max),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "name": ("a file name", lambda v: isinstance(v, str)
             and v not in ("", ".", "..")
             and not any(c in v for c in PATH_CHARS) and not _surrogate(v)),
    "dir": ("a directory path or null", lambda v: v is None
            or isinstance(v, str) and v != "" and "\0" not in v
            and not _surrogate(v)),
    "section": ("an object", lambda v: isinstance(v, dict)),
}
_NO_DEFAULT = object()

# One config key. Its kind is "numbers" (finite numbers, of the shapes
# ``shapes(n, M, reader, section)`` lists on an n-state, M-input plant; a
# string stands for any length), a tuple of the allowed values, or a scalar
# kind of _KINDS. It is required (True, or by the readers named) or takes
# its default, it is read by the schemes or signal kinds in read_by (None:
# by all), and its presence excludes the keys in excludes.
Key = namedtuple("Key", "kind shapes default required read_by excludes",
                 defaults=(None, _NO_DEFAULT, False, None, ()))


def _per_input(n, M, *_):
    # one number for all inputs, or one per input
    return [(), (1,), (M,)]


def _one_per_input(n, M, *_):
    # one sign or level per input: one is not spread over M inputs
    return [(), (1,)] if M == 1 else [(M,)]


def _columns(rows, M, *_):
    # rows x M, or a vector of rows for a single input
    return [(rows, M)] + ([(rows,)] if M == 1 else [])


_LYAPUNOV = ("lyapunov_direct", "lyapunov_indirect")
_GRADIENT = ("direct_gradient", "indirect_gradient")
_INDIRECT = ("indirect_gradient", "lyapunov_indirect")
_SIGNAL_KINDS = ("sum_of_sinusoids", "constant", "custom")
_SQUARE = Key("numbers", lambda n, M, *_: [(n, n)], required=True)
_VECTOR = Key("numbers", lambda n, M, *_: [(n,)])
# K sinusoids per input
_SINUSOIDS = Key("numbers", lambda n, M, *_: (
    [(M, "K")] + ([(), ("K",)] if M == 1 else [])),
    required=True, read_by=("sum_of_sinusoids",))

_TOP = {
    "name": Key("name", default="scenario"),
    "scheme": Key(SCHEMES, required=True),
    "time_domain": Key((DISCRETE, CONTINUOUS), required=True),
    "plant": Key("section", required=True),
    "reference": Key("section", required=True),
    "signal": Key("section", required=True),
    "gains": Key("section", required=True),
    "projection": Key("section", default=None, read_by=_INDIRECT),
    "init": Key("section", default={}),
    "horizon": Key("count", required=True),
    "ct_step": Key("step", default=0.01),
    "integrator": Key(("rk4", "euler"), default="rk4"),
    # a label recorded in the config that no run reads; batch inputs, the
    # benchmark's among them, set it per member
    "seed": Key("int", default=0),
    "output": Key("section", default={}),
}
# PlantModel checks the plant's own shapes; the built plant sizes the rest
_PLANT = {"A": Key("numbers", required=True),
          "B": Key("numbers", required=True)}
_REFERENCE = {"A_m": _SQUARE, "B_m": Key("numbers", _columns, required=True)}
_SIGNAL = {
    "kind": Key(_SIGNAL_KINDS, required=True),
    "amplitudes": _SINUSOIDS,
    "frequencies": _SINUSOIDS,
    "phases": _SINUSOIDS._replace(required=False),
    "level": Key("numbers", _one_per_input, required=True,
                 read_by=("constant",)),
    "samples": Key("numbers", lambda n, M, *_: _columns("T", M),
                   required=True, read_by=("custom",)),
}
# the direct gradient law's priors, the sign of k2* and a lower bound on
# it, are assumptions it depends on; refusing to default them keeps
# mistakes loud
_GAINS = {
    "Gamma": Key("numbers", lambda n, M, scheme, _: (
        [(), (n, n)] if scheme == "lyapunov_direct"
        else [(), (n + M, n + M), (M, n + M, n + M)]),
        default=1.0, required=_GRADIENT,
        read_by=_GRADIENT + ("lyapunov_direct",)),
    "gamma": Key("numbers", lambda n, M, scheme, _: (
        [()] if scheme == "lyapunov_direct" else _per_input(n, M)),
        default=1.0, read_by=("direct_gradient", "lyapunov_direct")),
    "k2_lower": Key("numbers", _per_input, required=True,
                    read_by=("direct_gradient",)),
    "sign_k2": Key("numbers", lambda n, M, scheme, _: (
        [()] if scheme == "lyapunov_direct" else _one_per_input(n, M)),
        required=True, read_by=("direct_gradient", "lyapunov_direct")),
    "enforce_diagonal_k2": Key("bool", default=True,
                               read_by=("direct_gradient",)),
    "S_p": Key("numbers", lambda n, M, *_: (
        [(M, M)] if M > 1 else [(), (1,), (1, 1)]),
        read_by=("lyapunov_direct",), excludes=("Gamma", "gamma", "sign_k2")),
    "Gamma1": Key("numbers", lambda n, M, _, gains: [(), (
        (M, M) if gains.get("theta1_law") == "transposed" else (n, n))],
        default=1.0, read_by=("lyapunov_indirect",)),
    "Gamma2": Key("numbers", lambda n, M, *_: [(), (M, M)], default=1.0,
                  read_by=("lyapunov_indirect",)),
    "theta1_law": Key(("standard", "transposed"), default="standard",
                      read_by=("lyapunov_indirect",)),
    "Q": _SQUARE._replace(required=False, read_by=_LYAPUNOV),
}
_PROJECTION = {
    "signs": Key("numbers", _per_input, required=True),
    "theta2_lower": Key("numbers", _per_input, excludes=("k2_upper",)),
    "k2_upper": Key("numbers", _per_input, required=True),
    "enabled": Key("bool", default=True),
}
_INIT = {
    "x0": _VECTOR,
    "xm0": _VECTOR,
    "xhat0": _VECTOR._replace(read_by=_INDIRECT),
    "theta_scale": Key("numbers", lambda *_: [()], excludes=("theta0",)),
    "theta0": Key("numbers", lambda n, M, *_: _columns(n + M, M)),
    "rho_scale": Key("numbers", lambda *_: [()], read_by=("direct_gradient",),
                     excludes=("rho0",)),
    "rho0": Key("numbers", _per_input, read_by=("direct_gradient",)),
}
_OUTPUT = {
    "dir": Key("dir", default=None),
    "trace": Key("bool", default=True),
    "summary": Key("bool", default=True),
    "gnuplot": Key("bool", default=False),
}

# the domain objects validation builds and run_scenario runs; match is
# None when solve_matching raises, cert is the Lyapunov schemes' P > 0
Built = namedtuple("Built", "plant reference signal gains init match "
                   "projection cert", defaults=(None, None))


class ScenarioConfig(namedtuple("ScenarioConfig", list(_TOP))):
    """The loaded config: one field per top-level key, holding plain JSON
    values, so that it round-trips losslessly through serialize_config, and
    ``built``, which config_from_dict sets on the instance and which
    equality does not compare. ``_replace`` loads the changed copy again,
    so that it carries its own ``built``."""

    built = None

    def to_dict(self) -> dict:
        """A deep copy of the fields, by key."""
        return deepcopy(self._asdict())

    def _replace(self, **fields) -> ScenarioConfig:
        """A copy with ``fields`` changed, validated and built again by
        ``config_from_dict``: a bad value raises ConfigError."""
        return config_from_dict({**self.to_dict(), **fields})


def serialize_config(cfg: ScenarioConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)


def _problem(kind, value, shapes) -> Optional[str]:
    """Why ``value`` is not of ``kind`` or of one of ``shapes``, or None."""
    if kind == "numbers":
        try:
            arr = _floats(value)
        except (TypeError, ValueError, OverflowError):
            return f"expected numbers, got {value!r}"
        if not np.all(np.isfinite(arr)):
            return "entries must be finite numbers"
        if shapes is None or any(
                len(shape) == arr.ndim and all(
                    isinstance(want, str) or want == got
                    for want, got in zip(shape, arr.shape))
                for shape in shapes):
            return None
        words = dict.fromkeys(
            "a number" if not shape
            else f"{shape[0]} {'entry' if shape[0] == 1 else 'entries'}"
            if len(shape) == 1 else f"shape ({', '.join(map(str, shape))})"
            for shape in shapes)
        return f"expected {' or '.join(words)}, got shape {arr.shape}"
    if isinstance(kind, tuple):
        want = ", ".join(map(repr, kind[:-1])) + f" or {kind[-1]!r}"
        ok = value in kind
    else:
        want, test = _KINDS[kind]
        ok = test(value)
    return None if ok else f"expected {want}, got {value!r}"


def _walk(path: str, table: dict, section: dict, reader, dims, errors: list):
    """Check the object ``section`` against its ``table`` for ``reader``,
    the scheme or signal kind it serves (None when that is invalid), on a
    plant of ``dims`` = (n, M) (None when unknown; shapes are then not
    checked). Adds one line to ``errors`` per key that is unknown, not read
    by ``reader``, of the wrong kind, not finite, of the wrong shape,
    excluded by another key, or missing. A null array or object counts as
    absent. Returns the checked values, with the defaults of absent keys,
    and whether the section had no problem."""
    count = len(errors)
    prefix = f"{path}." if path else ""
    errors.extend(f"{prefix}{key}: unknown key"
                  for key in section if key not in table)

    def reads(spec):
        return spec.read_by is None or reader in spec.read_by

    given = {key: value for key, value in section.items() if key in table
             and not (value is None and table[key].kind in ("numbers",
                                                            "section"))}
    excluded = {other: key for key in given if reads(table[key])
                for other in table[key].excludes}
    values = {}
    for key, spec in table.items():
        where = prefix + key
        if key in given:
            if reader is not None and not reads(spec):
                errors.append(f"{where}: not read by {reader}")
            elif key in excluded:
                errors.append(f"{where}: cannot be combined with "
                              f"{excluded[key]}")
            elif problem := _problem(spec.kind, given[key], dims and (
                    spec.shapes and spec.shapes(*dims, reader, section))):
                errors.append(f"{where}: {problem}")
            else:
                values[key] = given[key]
        elif reads(spec) and key not in excluded:
            if spec.required is True or reader in (spec.required or ()):
                errors.append(f"{where}: missing field" + "".join(
                    f" (or give {other})" for other, rival in table.items()
                    if key in rival.excludes and reads(rival)))
            elif spec.default is not _NO_DEFAULT:
                values[key] = spec.default
    return values, len(errors) == count


def config_from_dict(data: dict) -> ScenarioConfig:
    """Validate ``data`` and build its domain objects (see ``Built``)."""
    errors: list[str] = []
    scheme = data.get("scheme")
    cfg, _ = _walk("", _TOP, data, scheme if scheme in SCHEMES else None,
                   None, errors)
    size = len(cfg.get("name", "").encode())
    if size > NAME_BYTES:
        errors.append(f"name: {size} bytes of UTF-8, above the limit of "
                      f"{NAME_BYTES} that keeps <name>.summary.json within a "
                      f"255-byte file name")
    scheme, time_domain = cfg.get("scheme"), cfg.get("time_domain")
    if scheme in _LYAPUNOV and time_domain == DISCRETE:
        errors.append(f"scheme {scheme} requires time_domain 'continuous'")

    built = {}  # by Built field
    for name, table, cls in (("plant", _PLANT, PlantModel),
                             ("reference", _REFERENCE, ReferenceModel)):
        if name in cfg:
            plant = built.get("plant")
            cfg[name], ok = _walk(name, table, cfg[name], None,
                                  plant and (plant.n, plant.n_inputs), errors)
            if ok and time_domain is not None:
                try:
                    built[name] = cls(**{
                        key: np.asarray(value, float)
                        for key, value in cfg[name].items()},
                        time_domain=time_domain)
                except ModelError as exc:
                    errors.append(f"{name}: {exc}")
    plant, ref = built.get("plant"), built.get("reference")
    dims = (plant.n, plant.n_inputs) if plant and scheme else None

    # each section's object, built once its table passes
    kind = cfg.get("signal", {}).get("kind")
    passed = {}
    for name, table, reader, build in (
            ("signal", _SIGNAL, kind if kind in _SIGNAL_KINDS else None,
             build_signal),
            ("gains", _GAINS, scheme,
             lambda gains: build_gains(scheme, gains, *dims, time_domain)),
            ("projection", _PROJECTION, None,
             lambda projection: build_projection(projection, dims[1])),
            ("init", _INIT, scheme, None),
            ("output", _OUTPUT, None, None)):
        if isinstance(cfg.get(name), dict):
            cfg[name], passed[name] = _walk(name, table, cfg[name], reader,
                                            dims, errors)
            if passed[name] and dims and build:
                try:
                    built[name] = build(cfg[name])
                except ToolkitError as exc:
                    errors.append(f"{name}: {exc}")

    horizon = cfg.get("horizon")
    if horizon is not None and dims:
        need = memory_estimate(horizon, *dims, time_domain)
        if need > MEMORY_BUDGET_BYTES:
            from decimal import Decimal  # exact for any horizon
            errors.append(
                f"horizon: {horizon} steps need about "
                f"{Decimal(need) / 2**30:.3g} GiB of records and reference "
                f"samples, above the {MEMORY_BUDGET_BYTES / 2**30:g} GiB "
                f"budget")
    if passed.get("gains") and scheme in _LYAPUNOV and ref \
            and time_domain == CONTINUOUS:
        from .lyapunov import solve_lyapunov_ct
        # with Q = I when the config gives none
        Q = cfg["gains"].get("Q")
        try:
            built["cert"] = solve_lyapunov_ct(
                ref.A_m, np.eye(ref.n) if Q is None else np.asarray(Q, float))
        except ModelError as exc:
            errors.append(f"gains.Q{' (default I)' if Q is None else ''}: "
                          f"{exc}")
    if plant and ref:
        match = built["match"] = _matching(plant, ref)
        if scheme == "lyapunov_direct" and "gains" in built:
            try:
                built["gains"].premise(plant.n_inputs, match)
            except GainError as exc:
                errors.append(f"gains.S_p: {exc}")
        if "init" in cfg:
            try:
                built["init"] = resolve_init(cfg["init"], scheme, match)
            except ConfigError as exc:
                errors.extend(exc.errors)
    # the indirect runners' checks of step 0 on the resolved estimates: an
    # enabled projection's start check, the gradient law's floor
    proj, init = built.get("projection"), built.get("init")
    if init is not None and scheme in _INDIRECT:
        from .indirect import _check_floor, _theta2
        n, M = dims
        theta0 = init.resolved(n, n + M, M)[2]
        try:
            if proj is not None and proj.enabled:
                proj.check_start(theta0)
            if scheme == "indirect_gradient":
                _check_floor(_theta2(theta0)[None], proj)
        except ToolkitError as exc:
            errors.append(f"init: {exc}")
    directory = cfg.get("output", {}).get("dir")
    if directory is not None and (head := blocked_dir(directory)):
        errors.append(f"output.dir: {head} is not a directory")

    if errors:
        raise ConfigError(errors)
    # a key the scheme does not read is None
    config = ScenarioConfig(**{key: cfg.get(key) for key in _TOP})
    config.built = Built(**built)
    return config


def build_signal(spec: dict) -> ReferenceSignal:
    """The reference input of a checked signal section."""
    if spec["kind"] == "sum_of_sinusoids":
        return ReferenceSignal.sinusoids(spec["amplitudes"],
                                         spec["frequencies"],
                                         spec.get("phases"))
    if spec["kind"] == "constant":
        return ReferenceSignal.constant(spec["level"])
    return ReferenceSignal.from_samples(spec["samples"])


def _times_eye(value, size: int) -> np.ndarray:
    """A number as that multiple of the identity; a matrix as itself."""
    arr = np.asarray(value, dtype=float)
    return arr * np.eye(size) if arr.ndim == 0 else arr


def build_gains(scheme: str, gains: dict, n: int, M: int, time_domain: str):
    """The gain object of ``scheme`` from a checked gains section."""
    n_w = n + M
    if scheme in _GRADIENT:
        # a number, an (n_w, n_w) matrix or an (M, n_w, n_w) stack
        Gamma = _stack_gains(_times_eye(gains["Gamma"], n_w), M)
        if scheme == "indirect_gradient":
            from .indirect import IndirectGainConfig
            return IndirectGainConfig(Gamma=Gamma, time_domain=time_domain)
        return DirectGainConfig(
            Gamma, gains["gamma"], gains["sign_k2"], gains["k2_lower"],
            time_domain=time_domain,
            enforce_diagonal_k2=gains["enforce_diagonal_k2"])
    from .lyapunov import LyapunovDirectGains, LyapunovIndirectGains
    if scheme == "lyapunov_indirect":
        side = M if gains["theta1_law"] == "transposed" else n
        return LyapunovIndirectGains(Gamma1=_times_eye(gains["Gamma1"], side),
                                     Gamma2=_times_eye(gains["Gamma2"], M),
                                     theta1_law=gains["theta1_law"])
    if "S_p" in gains:
        return LyapunovDirectGains(S_p=np.asarray(gains["S_p"], float))
    # S_p on a multi-input plant is checked with the matching solution
    return LyapunovDirectGains(Gamma=_times_eye(gains["Gamma"], n),
                               gamma=float(gains["gamma"]),
                               sign_k2=float(gains["sign_k2"]))


def build_projection(projection: dict, M: int) -> ProjectionConfig:
    """The projection of an M-input plant from a checked section."""
    from .indirect import ProjectionConfig
    # one sign for every input, or one per input
    signs = _entries(projection["signs"], "signs", M, True)
    if "theta2_lower" in projection:
        return ProjectionConfig(projection["theta2_lower"], signs,
                                projection["enabled"])
    return ProjectionConfig.from_k2_upper(projection["k2_upper"], signs,
                                          projection["enabled"])


def resolve_init(init: dict, scheme: str, match) -> InitialConditions:
    """Concrete initial conditions of a checked init section; the *_scale
    shorthands multiply the true parameters of the matching solution
    ``match`` (None when solve_matching raised)."""
    init = {key: np.asarray(value, float) for key, value in init.items()}
    for name in ("theta", "rho"):
        if f"{name}_scale" not in init:
            continue
        if match is None or not match.matchable():
            why = ("K2 singular" if match is None
                   else f"residual {match.residual:.3g}")
            raise ConfigError([f"init.{name}_scale: plant not matchable "
                               f"({why}), cannot scale the true parameters"])
        if name == "rho":
            star = 1.0 / np.diag(match.K2)
        elif scheme in ("direct_gradient", "lyapunov_direct"):
            star = stack_controller_gains(match.K1, match.K2)
        else:
            from .indirect import theta_star_indirect
            star = theta_star_indirect(match.K1, match.K2)
        init[f"{name}0"] = float(init.pop(f"{name}_scale")) * star
    return InitialConditions(**init)


# exit_status: 0 ok, 2 diverged, 3 invariant violation
ScenarioRun = namedtuple("ScenarioRun", "config trace invariants exit_status")


class Invariants:
    """The invariant checks of a run of ``cfg``, a consumer of its trace's
    rows (see ``diagnostics.feed``), made a block of rows at a time.
    ``report`` gives the checks that apply, by key."""

    def __init__(self, cfg: ScenarioConfig):
        b = cfg.built
        M, n, proj = b.plant.n_inputs, b.plant.n, b.projection
        self.discrete = cfg.time_domain == DISCRETE
        # only the indirect schemes build a projection
        self.proj = proj if proj is not None and proj.enabled else None
        # the multi-input laws keep Theta2, and K2 when enforced, diagonal
        diag_key = ("k2_diag_ok" if cfg.scheme == "direct_gradient"
                    else "theta2_diag_ok" if cfg.scheme in _INDIRECT else None)
        self.diag = (diag_key if diag_key and M > 1
                     and getattr(b.gains, "enforce_diagonal_k2", True)
                     else None)
        self.n, self.off = n, 1.0 - np.eye(M)
        self.steps, self.has_V = 0, False
        self.v_ok = self.proj_ok = self.diag_ok = True
        self.first = None

    def add(self, rows: SimulationTrace, lo: int, end=None) -> None:
        """Check ``rows``, steps lo onward; ``end`` is the trace's step
        count when it is known, since its final row has no increment."""
        steps = rows.steps
        self.steps = lo + steps
        if rows.V is not None:
            self.has_V = True
            # the rows with an increment
            k = steps if end is None else min(steps, end - 1 - lo)
            if k > 0 and self.discrete and self.first is None:
                # the per-step bound dV <= -(2 - gamma0) sum eps^2 / m^2 is
                # a property of the discrete gradient laws only
                series = rows.series
                first = first_violation(series.dV[:k], series.decrement[:k],
                                        series.gamma0, 1e-10)
                self.first = None if first is None else lo + first
            elif k > 0 and not self.discrete:
                # continuous time guarantees only that V does not increase
                self.v_ok = self.v_ok and bool(np.all(rows.dV[:k] <= 1e-6))
        if self.proj is not None:
            self.proj_ok = self.proj_ok and self.proj.holds(rows.theta)
        if self.diag:
            self.diag_ok = self.diag_ok and bool(
                np.all(rows.theta[:, self.n:, :] * self.off == 0.0))

    def report(self) -> dict:
        report: dict[str, Any] = {}
        if self.has_V and self.steps > 1:
            if self.discrete:
                report["delta_v_ok"] = self.first is None
                report["delta_v_first_violation"] = self.first
            else:
                report["v_nonincreasing_ok"] = self.v_ok
        if self.steps and self.proj is not None:
            report["projection_ok"] = self.proj_ok
        if self.diag:
            report[self.diag] = self.diag_ok
        return report


def _consumers(cfg: ScenarioConfig, outputs):
    """The invariant checks of a run of ``cfg`` and the consumers its rows
    stream to: the checks, ``outputs`` and the run's reduction, or, with no
    outputs (None), the checks and a ``Keep``, so that the run's trace
    holds its rows."""
    checks, steps = Invariants(cfg), cfg.horizon + 1
    return checks, ([checks, Keep(steps)] if outputs is None
                    else [checks, *outputs, Reduction(steps)])


def run_scenario(cfg: ScenarioConfig, outputs=None) -> ScenarioRun:
    """Run and post-check the domain objects ``config_from_dict`` built.

    The run streams: as it proceeds, a block of rows at a time, its
    trace's rows go to the invariant checks, to the summary and to each of
    ``outputs``, consumers of them (``add(rows, lo, end)``, see
    ``diagnostics.feed``). Given ``outputs``, the run keeps only what its
    summary needs (about 16 B/step), and its trace holds no rows; without
    them, its trace holds every row."""
    b = cfg.built
    checks, stream = _consumers(cfg, outputs)
    options = dict(h=float(cfg.ct_step), method=cfg.integrator, match=b.match,
                   stream=stream)
    # the other runners are module attributes imported on first use
    module = sys.modules[__name__]
    if cfg.scheme == "direct_gradient":
        trace = run_direct_scenario(b.plant, b.reference, b.signal, b.gains,
                                    b.init, cfg.horizon, **options)
    elif cfg.scheme == "indirect_gradient":
        trace = module.run_indirect_scenario(
            b.plant, b.reference, b.signal, b.gains, b.projection, b.init,
            cfg.horizon, **options)
    else:
        trace = module.run_lyapunov_scenario(
            b.plant, b.reference, b.signal,
            cfg.scheme.removeprefix("lyapunov_"), b.gains, b.projection,
            b.init, cfg.horizon, cert=b.cert, **options)

    return _checked(cfg, trace, checks)


def _checked(cfg: ScenarioConfig, trace: SimulationTrace,
             checks: Invariants) -> ScenarioRun:
    """The run of ``cfg`` that made ``trace``, post-checked by ``checks``,
    which its rows were streamed to."""
    invariants = checks.report()
    if trace.diverged:
        status = 2
    elif any(v is False for v in invariants.values()):
        status = 3
    else:
        status = 0
    return ScenarioRun(config=cfg, trace=trace, invariants=invariants,
                       exit_status=status)


def lockstep_key(cfg: ScenarioConfig):
    """What the configs of one lockstep group share (see ``run_lockstep``):
    the scheme, n, M, the horizon and, indirect, whether the projection is
    enabled; None for a config that always runs alone (continuous time and
    the Lyapunov schemes)."""
    if cfg.time_domain != DISCRETE or cfg.scheme not in _GRADIENT:
        return None
    b = cfg.built
    return (cfg.scheme, b.plant.n, b.plant.n_inputs, cfg.horizon,
            bool(b.projection and b.projection.enabled))


def streamed_bytes(cfg: ScenarioConfig) -> int:
    """A bound on the bytes a run of ``cfg`` that streams its rows holds
    (``run_scenario`` with ``outputs``): the decrement and |dtheta|^2
    series of its summary, 16 (T+1), and a fixed number of rows, bounded by
    ``memory_estimate`` of STREAMED_ROWS blocks of rows and chunks."""
    b = cfg.built
    return 16 * (cfg.horizon + 1) + memory_estimate(
        STREAMED_ROWS * (_rows.BLOCK + _rows.CHUNK) - 1, b.plant.n,
        b.plant.n_inputs, cfg.time_domain)


def _member(cfg: ScenarioConfig, stream=None):
    """The discrete gradient run of ``cfg``, set up (``direct.Member``),
    its rows streamed to ``stream`` (see ``direct._set_up``)."""
    b = cfg.built
    if cfg.scheme == "direct_gradient":
        return _direct_member(b.plant, b.reference, b.signal, b.gains, b.init,
                              cfg.horizon, 1.0, b.match, stream)
    from .indirect import _indirect_member
    return _indirect_member(b.plant, b.reference, b.signal, b.gains,
                            b.projection, b.init, cfg.horizon, 1.0, b.match,
                            stream)


def run_lockstep(cfgs: list, outputs=None):
    """Run the configs ``cfgs``, which share one ``lockstep_key``, in
    lockstep: each member keeps the law, sink, hooks and finish of its
    lone run, and ``_rows.run``, which steps every discrete run, steps them
    all on one stacked law, so that each run is byte for byte the one
    ``run_scenario`` makes. ``outputs``, when given, holds each config's
    consumers of its trace's rows, as for ``run_scenario``. Yields, in
    order, the post-checked ScenarioRun of each config, or the ToolkitError
    its run found. A member is finished only when it is taken, and keeps
    nothing of the group alive, so that a caller that drops each run holds
    one finished trace at a time."""
    streams = [_consumers(cfg, None if outputs is None else outputs[b])
               for b, cfg in enumerate(cfgs)]
    members = [_member(cfg, stream) for cfg, (_, stream)
               in zip(cfgs, streams)]
    ended = _rows.run(members, cfgs[0].horizon + 1)
    for cfg, (checks, _), outcome in zip(cfgs, streams, ended):
        finish = members.pop(0).finish
        yield (outcome if isinstance(outcome, ToolkitError)
               else _checked(cfg, finish(outcome), checks))


def summary_dict(run: ScenarioRun) -> dict:
    """Flat summary block written next to the trace (and used by batch rows)."""
    tr = run.trace
    metrics = tr.metrics
    s = tr.summary
    return {
        "name": run.config.name,
        "scheme": run.config.scheme,
        "time_domain": run.config.time_domain,
        "steps": s.steps,
        "diverged": s.diverged,
        "sup_e": s.sup_e if math.isfinite(s.sup_e) else "inf",
        "last_window_max_e": metrics.last_window_max
        if math.isfinite(metrics.last_window_max) else "inf",
        "sum_eps2_over_m2": s.sum_eps2_over_m2,
        "sum_dtheta_sq": s.sum_dtheta_sq,
        "tail_frac_eps": s.tail_frac_eps,
        "tail_frac_dtheta": s.tail_frac_dtheta,
        "final_V": s.final_V,
        "invariants": run.invariants,
        "exit_status": run.exit_status,
    }


def benchmark_config(two_tone: bool = False) -> ScenarioConfig:
    """The bundled second-order benchmark: an unstable plant matched to
    a stable reference model, direct gradient adaptation from a 1.25x
    parameter offset."""
    freqs = [[0.13, 1.3]] if two_tone else [[0.13]]
    amps = [[1.0, 1.0]] if two_tone else [[1.0]]
    data = {
        "name": "second-order-benchmark" + ("-two-tone" if two_tone else ""),
        "scheme": "direct_gradient",
        "time_domain": "discrete",
        "plant": {"A": [[1.0, -1.0], [2.0, 1.0]], "B": [[0.0], [2.0]]},
        "reference": {"A_m": [[1.0, -1.0], [1.05, -1.2]], "B_m": [[0.0], [1.0]]},
        "signal": {"kind": "sum_of_sinusoids", "amplitudes": amps,
                   "frequencies": freqs},
        "gains": {"Gamma": 0.5, "gamma": 1.5, "sign_k2": 1.0, "k2_lower": 0.5},
        "init": {"theta_scale": 1.25, "rho_scale": 1.25},
        "horizon": 5000,
        "seed": 0,
    }
    return config_from_dict(data)
