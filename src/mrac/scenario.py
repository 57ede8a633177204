"""Scenario configuration: parsing, validation, and scheme dispatch.

A scenario is one JSON document (nested sections, matrices as row-major
arrays of arrays). ``load_config`` reports every validation problem it can
find, not just the first. Loaded configs hold plain Python values so they
round-trip losslessly through ``serialize_config``; numpy objects are built
only when the scenario runs.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field, asdict
from importlib import import_module
from typing import Any, Optional

import numpy as np

# direct_V_series and indirect_V_series stay module attributes: the
# benchmark's tracer wraps them here by name
from .diagnostics import (SimulationTrace, check_delta_V,  # noqa: F401
                          direct_V_series, indirect_V_series, tracking_metrics)
from .direct import (DirectGainConfig, InitialConditions,
                     run_direct_scenario, stack_controller_gains)
from .errors import ConfigError, GainError, ModelError, ProjectionError
from .systems import (CONTINUOUS, DISCRETE, PlantModel, ReferenceModel,
                      ReferenceSignal, solve_matching)

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

# the most a run's record arrays and reference samples may take; a config
# estimated above it is invalid
MEMORY_BUDGET_BYTES = 1 << 30


def memory_estimate(horizon: int, n: int, M: int, tones: int,
                    time_domain: str) -> int:
    """Bytes of a run's records, about (T+1)(C M + 3n + 2M) floats with
    C = n + M, plus the (T+1, M, tones) reference samples built per stage
    time: one set in discrete time, three in continuous time."""
    stages = 3 if time_domain == CONTINUOUS else 1
    return 8 * (horizon + 1) * ((n + M) * M + 3 * n + 2 * M
                                + stages * M * tones)

_DEFAULT_OUTPUT = {"dir": None, "trace": True, "summary": True, "gnuplot": False}


def blocked_dir(path: str) -> Optional[str]:
    """The nearest existing ancestor of ``path``, itself included, when it
    is not a directory, so that ``path`` cannot be made as one; else None."""
    head = os.path.abspath(path)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    return None if os.path.isdir(head) else head


def _output_errors(output: dict) -> list[str]:
    errors = []
    directory = output.get("dir")
    if directory is not None:
        if not isinstance(directory, str) or not directory \
                or "\0" in directory:
            errors.append(f"output.dir: expected a directory path or null, "
                          f"got {directory!r}")
        elif (head := blocked_dir(directory)) is not None:
            errors.append(f"output.dir: {head} is not a directory")
    errors.extend(f"output.{key}: expected true or false, got {output[key]!r}"
                  for key in ("trace", "summary", "gnuplot")
                  if key in output and not isinstance(output[key], bool))
    return errors


@dataclass
class ScenarioConfig:
    scheme: str
    time_domain: str
    plant: dict
    reference: dict
    signal: dict
    gains: dict
    horizon: int
    projection: Optional[dict] = None
    init: dict = field(default_factory=dict)
    ct_step: float = 0.01
    integrator: str = "rk4"
    seed: int = 0
    name: str = "scenario"
    output: dict = field(default_factory=lambda: dict(_DEFAULT_OUTPUT))

    def to_dict(self) -> dict:
        return asdict(self)


def serialize_config(cfg: ScenarioConfig) -> str:
    return json.dumps(cfg.to_dict(), indent=2, sort_keys=True)


def load_config(source) -> ScenarioConfig:
    """Parse and fully validate a scenario from a path or a JSON string."""
    text = source
    if isinstance(source, os.PathLike) or (
            isinstance(source, str) and "{" not in source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError([f"cannot read config file: {exc}"])
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"]
        )
    if not isinstance(data, dict):
        raise ConfigError(["config document must be a JSON object"])
    return config_from_dict(data)


def _floats(value) -> np.ndarray:
    """``value`` as a float array. JSON true/false load as bool, which numpy
    would read as 1.0/0.0, so they raise TypeError like other non-numbers."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, bool):
            raise TypeError("true/false are not numbers")
        if isinstance(item, list):
            pending.extend(item)
    return np.asarray(value, dtype=float)


def _matrix_or_none(data, key, errors, square=False):
    if key not in data or data[key] is None:
        errors.append(f"missing field: {key}")
        return None
    try:
        arr = _floats(data[key])
    except (TypeError, ValueError):
        errors.append(f"{key}: not a numeric matrix")
        return None
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.size == 0:
        errors.append(f"{key}: expected a 2-D array of numbers")
        return None
    if not np.all(np.isfinite(arr)):
        errors.append(f"{key}: entries must be finite numbers")
        return None
    if square and arr.shape[0] != arr.shape[1]:
        errors.append(f"{key}: must be square, got {arr.shape}")
        return None
    return arr


def _is_int(value) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_array(value, key) -> np.ndarray:
    """``value`` as an array of finite floats, or a ConfigError naming
    ``key``."""
    try:
        arr = _floats(value)
    except (TypeError, ValueError):
        raise ConfigError([f"{key}: expected numbers, got {value!r}"])
    if not np.all(np.isfinite(arr)):
        raise ConfigError([f"{key}: entries must be finite numbers"])
    return arr


def _numeric_errors(section: dict, keys) -> list[str]:
    """One message per present key of ``section`` that is not finite
    numbers."""
    errors = []
    for key in keys:
        if section.get(key) is not None:
            try:
                _finite_array(section[key], key)
            except ConfigError as exc:
                errors.extend(exc.errors)
    return errors


# the numeric fields of the gains and projection sections
_GAIN_KEYS = ("Gamma", "gamma", "sign_k2", "k2_lower", "S_p", "Gamma1",
              "Gamma2", "Q")
_PROJECTION_KEYS = ("signs", "theta2_lower", "k2_upper")


def _init_errors(init: dict, n: int, M: int) -> list[str]:
    """Shape and value problems of the initial conditions on an n-state,
    M-input plant."""
    C = n + M
    errors = []
    for key in ("theta_scale", "rho_scale"):
        value = init.get(key)
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, (int, float))
                                  or not math.isfinite(value)):
            errors.append(f"init.{key}: expected a finite number, got {value!r}")
    for key in ("x0", "xm0", "xhat0", "theta0", "rho0"):
        if init.get(key) is None:
            continue
        try:
            arr = _finite_array(init[key], f"init.{key}")
        except ConfigError as exc:
            errors.extend(exc.errors)
            continue
        if key == "theta0":
            shape = arr.reshape(-1, 1).shape if arr.ndim == 1 else arr.shape
            ok, want = shape == (C, M), f"shape ({C}, {M})"
        elif key == "rho0":
            ok = arr.ndim <= 1 and arr.size in (1, M)
            want = "1 entry" if M == 1 else f"1 or {M} entries"
        else:
            ok, want = arr.size == n, f"{n} entries"
        if not ok:
            errors.append(f"init.{key}: expected {want}, got shape {arr.shape}")
    return errors


def config_from_dict(data: dict) -> ScenarioConfig:
    errors: list[str] = []

    scheme = data.get("scheme")
    if scheme not in SCHEMES:
        errors.append(f"scheme: expected one of {SCHEMES}, got {scheme!r}")
    time_domain = data.get("time_domain")
    if time_domain not in (DISCRETE, CONTINUOUS):
        errors.append(f"time_domain: expected 'discrete' or 'continuous', got {time_domain!r}")
    if scheme in ("lyapunov_direct", "lyapunov_indirect") and time_domain == DISCRETE:
        errors.append(f"scheme {scheme} requires time_domain 'continuous'")

    plant = data.get("plant") or {}
    reference = data.get("reference") or {}
    if not isinstance(plant, dict):
        errors.append("plant: must be an object with A and B")
        plant = {}
    if not isinstance(reference, dict):
        errors.append("reference: must be an object with A_m and B_m")
        reference = {}
    A = _matrix_or_none(plant, "A", errors, square=True)
    B = _matrix_or_none(plant, "B", errors)
    Am = _matrix_or_none(reference, "A_m", errors, square=True)
    Bm = _matrix_or_none(reference, "B_m", errors)

    plant_obj = ref_obj = None
    if A is not None and B is not None and time_domain in (DISCRETE, CONTINUOUS):
        try:
            plant_obj = PlantModel(A=A, B=B, time_domain=time_domain)
        except ModelError as exc:
            errors.append(f"plant: {exc}")
    if Am is not None and Bm is not None and time_domain in (DISCRETE, CONTINUOUS):
        try:
            ref_obj = ReferenceModel(A_m=Am, B_m=Bm, time_domain=time_domain)
        except ModelError as exc:
            errors.append(f"reference: {exc}")
    if plant_obj is not None and ref_obj is not None:
        if plant_obj.n != ref_obj.n or plant_obj.n_inputs != ref_obj.n_inputs:
            errors.append("plant and reference dimensions disagree")

    n = plant_obj.n if plant_obj is not None else None
    M = plant_obj.n_inputs if plant_obj is not None else None

    signal = data.get("signal")
    tones = 1
    if not isinstance(signal, dict):
        errors.append("signal: must be an object with a 'kind'")
        signal = {}
    elif M is not None:
        try:
            sig = build_signal(signal, M)
            if sig.amplitudes is not None:
                tones = sig.amplitudes.shape[1]
            if sig.dimension != M:
                errors.append(
                    f"signal: dimension {sig.dimension} != input count {M}")
        except ConfigError as exc:
            errors.extend(f"signal.{err}" for err in exc.errors)
        except (ModelError, ValueError, TypeError) as exc:
            errors.append(f"signal: {exc}")

    horizon = data.get("horizon")
    if not _is_int(horizon) or horizon < 1:
        errors.append(f"horizon: expected a positive integer, got {horizon!r}")
    elif n is not None and time_domain in (DISCRETE, CONTINUOUS):
        need = memory_estimate(horizon, n, M, tones, time_domain)
        if need > MEMORY_BUDGET_BYTES:
            errors.append(
                f"horizon: {horizon} steps need about {need / 2**30:.3g} GiB "
                f"of records and reference samples, above the "
                f"{MEMORY_BUDGET_BYTES / 2**30:g} GiB budget")

    ct_step = data.get("ct_step", 0.01)
    if isinstance(ct_step, bool) or not isinstance(ct_step, (int, float)) \
            or not 0 < ct_step < math.inf:
        errors.append(
            f"ct_step: expected a positive finite number, got {ct_step!r}")
    integrator = data.get("integrator", "rk4")
    if integrator not in ("rk4", "euler"):
        errors.append(f"integrator: expected 'rk4' or 'euler', got {integrator!r}")
    seed = data.get("seed", 0)
    if not _is_int(seed):
        errors.append(f"seed: expected an integer, got {seed!r}")

    gains = data.get("gains")
    if not isinstance(gains, dict):
        errors.append("gains: must be an object")
        gains = {}
    projection = data.get("projection")
    if projection is not None and not isinstance(projection, dict):
        errors.append("projection: must be an object or null")
        projection = None

    projection_errors = (_numeric_errors(projection, _PROJECTION_KEYS)
                         if projection is not None else [])
    errors.extend(f"projection.{err}" for err in projection_errors)
    if projection is not None and M is not None and not projection_errors:
        try:
            build_projection(projection, M)
        except ConfigError as exc:
            errors.extend(f"projection.{err}" for err in exc.errors)
        except ProjectionError as exc:
            errors.append(f"projection: {exc}")

    gain_errors = _numeric_errors(gains, _GAIN_KEYS)
    errors.extend(f"gains.{err}" for err in gain_errors)
    if scheme in SCHEMES and n is not None and not gain_errors \
            and time_domain in (DISCRETE, CONTINUOUS):
        try:
            build_gains(scheme, gains, n, M, time_domain)
        except ConfigError as exc:
            errors.extend(f"gains.{err}" for err in exc.errors)
        except GainError as exc:
            errors.append(f"gains: {exc}")
    if scheme in ("lyapunov_direct", "lyapunov_indirect") and not gain_errors \
            and ref_obj is not None and time_domain == CONTINUOUS:
        from .lyapunov import solve_lyapunov_ct
        # the run solves with Q = I when the config gives none
        Q = gains.get("Q")
        try:
            solve_lyapunov_ct(ref_obj.A_m, np.eye(ref_obj.n) if Q is None
                              else np.asarray(Q, float))
        except ModelError as exc:
            errors.append(f"gains.Q{' (default I)' if Q is None else ''}: "
                          f"{exc}")

    init = data.get("init", {})
    if not isinstance(init, dict):
        errors.append("init: must be an object")
        init = {}
    if init.get("theta_scale") is not None and init.get("theta0") is not None:
        errors.append("init: give either theta_scale or theta0, not both")
    if n is not None:
        errors.extend(_init_errors(init, n, M))
    scaled = [key for key in ("theta_scale", "rho_scale")
              if init.get(key) is not None]
    if scaled and plant_obj is not None and ref_obj is not None:
        try:
            match = solve_matching(plant_obj, ref_obj)
            if not match.matchable():
                errors.append(
                    f"init.{scaled[0]}: plant not matchable (residual {match.residual:.3g}), "
                    "cannot scale the true parameters")
        except ModelError as exc:
            errors.append(f"init.{scaled[0]}: {exc}")

    output = data.get("output", None)
    out = dict(_DEFAULT_OUTPUT)
    if output is not None:
        if not isinstance(output, dict):
            errors.append("output: must be an object")
        else:
            errors.extend(_output_errors(output))
            out.update(output)

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        scheme=scheme, time_domain=time_domain, plant=plant, reference=reference,
        signal=signal, gains=gains, horizon=horizon, projection=projection,
        init=init, ct_step=float(ct_step), integrator=integrator, seed=seed,
        name=str(data.get("name", "scenario")), output=out,
    )


def build_models(cfg: ScenarioConfig):
    plant = PlantModel(A=np.asarray(cfg.plant["A"], float),
                       B=np.asarray(cfg.plant["B"], float),
                       time_domain=cfg.time_domain)
    ref = ReferenceModel(A_m=np.asarray(cfg.reference["A_m"], float),
                         B_m=np.asarray(cfg.reference["B_m"], float),
                         time_domain=cfg.time_domain)
    return plant, ref


# (field, required, most array dimensions) per signal kind
_SIGNAL_FIELDS = {
    "sum_of_sinusoids": (("amplitudes", True, 2), ("frequencies", True, 2),
                         ("phases", False, 2)),
    "constant": (("level", True, 1),),
    "custom": (("samples", True, 2),),
}


def build_signal(spec: dict, M: int) -> ReferenceSignal:
    """The reference input of a signal section; a missing, non-numeric,
    non-finite or too deeply nested field raises a ConfigError that lists
    every such field."""
    kind = spec.get("kind")
    if kind not in _SIGNAL_FIELDS:
        raise ConfigError([f"kind: unknown signal kind {kind!r}"])
    errors, values = [], {}
    for key, required, ndim in _SIGNAL_FIELDS[kind]:
        if spec.get(key) is None:
            if required:
                errors.append(f"{key}: missing field")
            continue
        try:
            values[key] = _finite_array(spec[key], key)
        except ConfigError as exc:
            errors.extend(exc.errors)
            continue
        if values[key].ndim > ndim:
            errors.append(f"{key}: expected at most {ndim} dimensions, "
                          f"got shape {values[key].shape}")
    if errors:
        raise ConfigError(errors)
    if kind == "sum_of_sinusoids":
        return ReferenceSignal.sinusoids(np.atleast_2d(values["amplitudes"]),
                                         np.atleast_2d(values["frequencies"]),
                                         values.get("phases"))
    if kind == "constant":
        return ReferenceSignal.constant(values["level"])
    return ReferenceSignal.from_samples(values["samples"])


def _gamma_stack(raw, n_w: int, M: int) -> np.ndarray:
    """A scalar, an (n_w, n_w) matrix or an (M, n_w, n_w) stack as the
    stack."""
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 0:
        arr = float(arr) * np.eye(n_w)
    return np.broadcast_to(arr, (M, n_w, n_w)).copy()


def _shape_words(shape: tuple) -> str:
    if not shape:
        return "a number"
    if len(shape) == 1:
        return "1 entry" if shape[0] == 1 else f"{shape[0]} entries"
    return f"shape {shape}"


def _shape_errors(raw: dict, allowed: dict) -> list[str]:
    """One message per present field of ``raw`` whose array shape is not
    one of ``allowed[field]``; the shape () stands for a plain number."""
    errors = []
    for key, shapes in allowed.items():
        if raw.get(key) is not None and np.shape(raw[key]) not in shapes:
            want = " or ".join(dict.fromkeys(map(_shape_words, shapes)))
            errors.append(
                f"{key}: expected {want}, got shape {np.shape(raw[key])}")
    return errors


def _gain_shapes(scheme: str, raw: dict, n: int, M: int) -> dict:
    """The array shapes each gain field of ``scheme`` may take on an
    n-state, M-input plant."""
    n_w = n + M
    per_input = [(), (1,), (M,)]
    if scheme in ("direct_gradient", "indirect_gradient"):
        shapes = {"Gamma": [(), (n_w, n_w), (M, n_w, n_w)]}
        if scheme == "direct_gradient":
            # a sign prior per input: one sign is not spread over M inputs
            shapes.update(gamma=per_input, k2_lower=per_input,
                          sign_k2=[(), (1,)] if M == 1 else [(M,)])
        return shapes
    if scheme == "lyapunov_direct":
        if "S_p" in raw:
            return {"S_p": [(M, M)] if M > 1 else [(), (1,), (1, 1)]}
        return {"Gamma": [(), (n, n)], "gamma": [()], "sign_k2": [()]}
    side = M if raw.get("theta1_law") == "transposed" else n
    return {"Gamma1": [(), (side, side)], "Gamma2": [(), (M, M)]}


def build_gains(scheme: str, raw: dict, n: int, M: int, time_domain: str):
    """The gain object of ``scheme``; a null field counts as absent, and a
    field of the wrong shape raises a ConfigError that lists every such
    field."""
    raw = {key: value for key, value in raw.items() if value is not None}
    if scheme in SCHEMES:
        errors = _shape_errors(raw, _gain_shapes(scheme, raw, n, M))
        if errors:
            raise ConfigError(errors)
    n_w = n + M
    if scheme == "direct_gradient":
        # the sign and lower-bound priors are assumptions the law depends
        # on; refusing to default them keeps mistakes loud
        for key in ("Gamma", "sign_k2", "k2_lower"):
            if key not in raw:
                raise GainError(f"missing field: {key}")
        return DirectGainConfig(
            Gamma=_gamma_stack(raw["Gamma"], n_w, M),
            gamma=np.atleast_1d(np.asarray(raw.get("gamma", 1.0), float)),
            sign_k2=np.atleast_1d(np.asarray(raw["sign_k2"], float)),
            k2_lower=np.atleast_1d(np.asarray(raw["k2_lower"], float)),
            time_domain=time_domain,
            enforce_diagonal_k2=bool(raw.get("enforce_diagonal_k2", True)),
        )
    if scheme == "indirect_gradient":
        from .indirect import IndirectGainConfig
        if "Gamma" not in raw:
            raise GainError("missing field: Gamma")
        return IndirectGainConfig(Gamma=_gamma_stack(raw["Gamma"], n_w, M),
                                  time_domain=time_domain)
    from .lyapunov import LyapunovDirectGains, LyapunovIndirectGains
    if scheme == "lyapunov_direct":
        if "S_p" in raw:
            return LyapunovDirectGains(S_p=np.asarray(raw["S_p"], float))
        if M > 1:
            raise GainError("multi-input direct scheme needs S_p")
        if "sign_k2" not in raw:
            raise GainError("missing field: sign_k2 (or give S_p)")
        if isinstance(raw.get("Gamma"), (int, float)):
            G = float(raw["Gamma"]) * np.eye(n)
        else:
            G = np.asarray(raw.get("Gamma", np.eye(n)), float)
        return LyapunovDirectGains(Gamma=G, gamma=float(raw.get("gamma", 1.0)),
                                   sign_k2=float(raw["sign_k2"]))
    if scheme == "lyapunov_indirect":
        if isinstance(raw.get("Gamma1"), (int, float)):
            G1 = float(raw["Gamma1"]) * np.eye(n)
        else:
            G1 = np.asarray(raw.get("Gamma1", np.eye(n)), float)
        if isinstance(raw.get("Gamma2"), (int, float)):
            G2 = float(raw["Gamma2"]) * np.eye(M)
        else:
            G2 = np.asarray(raw.get("Gamma2", np.eye(M)), float)
        return LyapunovIndirectGains(Gamma1=G1, Gamma2=G2,
                                     theta1_law=raw.get("theta1_law", "standard"))
    raise ConfigError([f"unknown scheme {scheme!r}"])


def build_projection(raw: dict, M: int) -> Optional[ProjectionConfig]:
    """The projection of an M-input plant; a null field counts as absent,
    and a field of the wrong shape raises a ConfigError that lists every
    such field."""
    if raw is None:
        return None
    from .indirect import ProjectionConfig
    raw = {key: value for key, value in raw.items() if value is not None}
    if "signs" not in raw:
        raise ProjectionError("projection needs the sign priors ('signs')")
    per_input = [(), (1,), (M,)]
    errors = _shape_errors(raw, dict.fromkeys(_PROJECTION_KEYS, per_input))
    if errors:
        raise ConfigError(errors)
    signs = np.atleast_1d(np.asarray(raw["signs"], float))
    if signs.shape[0] == 1 and M > 1:
        signs = np.repeat(signs, M)
    enabled = bool(raw.get("enabled", True))
    if "theta2_lower" in raw:
        return ProjectionConfig(theta2_lower=np.atleast_1d(
            np.asarray(raw["theta2_lower"], float)), signs=signs, enabled=enabled)
    if "k2_upper" in raw:
        return ProjectionConfig.from_k2_upper(raw["k2_upper"], signs, enabled)
    raise ProjectionError("projection needs theta2_lower or k2_upper")


def _true_parameters(cfg: ScenarioConfig, plant, ref):
    match = solve_matching(plant, ref)
    if not match.matchable():
        raise ConfigError(
            [f"plant not matchable (residual {match.residual:.3g})"])
    if cfg.scheme in ("direct_gradient", "lyapunov_direct"):
        theta_star = stack_controller_gains(match.K1, match.K2)
    else:
        from .indirect import theta_star_indirect
        theta_star = theta_star_indirect(match.K1, match.K2)
    k2d = np.diag(match.K2)
    rho_star = 1.0 / k2d
    return theta_star, rho_star


def resolve_init(cfg: ScenarioConfig, plant, ref) -> InitialConditions:
    """Concrete initial conditions; the *_scale shorthands multiply the true
    parameters obtained from the matching solver."""
    init = cfg.init
    theta0 = init.get("theta0")
    rho0 = init.get("rho0")
    if theta0 is not None:
        theta0 = np.asarray(theta0, float)
    if rho0 is not None:
        rho0 = np.asarray(rho0, float)
    if init.get("theta_scale") is not None or init.get("rho_scale") is not None:
        theta_star, rho_star = _true_parameters(cfg, plant, ref)
        if init.get("theta_scale") is not None:
            theta0 = float(init["theta_scale"]) * theta_star
        if init.get("rho_scale") is not None:
            rho0 = float(init["rho_scale"]) * rho_star
    return InitialConditions(
        x0=np.asarray(init["x0"], float) if init.get("x0") is not None else None,
        xm0=np.asarray(init["xm0"], float) if init.get("xm0") is not None else None,
        theta0=theta0, rho0=rho0,
        xhat0=np.asarray(init["xhat0"], float) if init.get("xhat0") is not None else None,
    )


@dataclass
class ScenarioRun:
    config: ScenarioConfig
    trace: SimulationTrace
    invariants: dict
    exit_status: int  # 0 ok, 2 diverged, 3 invariant violation


def _invariant_report(cfg: ScenarioConfig, trace: SimulationTrace,
                      gains, plant) -> dict:
    report: dict[str, Any] = {}
    if trace.V is not None and trace.steps > 1:
        if cfg.time_domain == DISCRETE:
            # the per-step bound dV <= -(2 - gamma0) sum eps^2 / m^2 is a
            # property of the discrete gradient laws only
            ok, first = check_delta_V(trace.series, tolerance=1e-10)
            report["delta_v_ok"] = ok
            report["delta_v_first_violation"] = first
        else:
            # continuous time guarantees only that V does not increase
            report["v_nonincreasing_ok"] = bool(np.all(trace.dV[:-1] <= 1e-6))
    if cfg.scheme == "indirect_gradient" and trace.steps:
        M = plant.n_inputs
        n = plant.n
        theta2 = np.stack([trace.theta[:, n + j, j] for j in range(M)], axis=1)
        proj = build_projection(cfg.projection, M) if cfg.projection else None
        if proj is not None and proj.enabled:
            ok = bool(np.all(proj.signs[None, :] * theta2
                             >= proj.theta2_lower[None, :] - 1e-12))
            report["projection_ok"] = ok
        if M > 1:
            K2blk = trace.theta[:, n:, :]
            off = K2blk * (1.0 - np.eye(M))[None]
            report["theta2_diag_ok"] = bool(np.all(off == 0.0))
    if cfg.scheme == "direct_gradient" and plant.n_inputs > 1 \
            and getattr(gains, "enforce_diagonal_k2", False):
        M = plant.n_inputs
        K2blk = trace.theta[:, plant.n:, :]
        off = K2blk * (1.0 - np.eye(M))[None]
        report["k2_diag_ok"] = bool(np.all(off == 0.0))
    return report


def run_scenario(cfg: ScenarioConfig) -> ScenarioRun:
    """Build, dispatch, and post-check one validated scenario."""
    plant, ref = build_models(cfg)
    sig = build_signal(cfg.signal, plant.n_inputs)
    gains = build_gains(cfg.scheme, cfg.gains, plant.n, plant.n_inputs,
                        cfg.time_domain)
    proj = build_projection(cfg.projection, plant.n_inputs) if cfg.projection else None
    init = resolve_init(cfg, plant, ref)
    Q = cfg.gains.get("Q")
    Q = np.asarray(Q, float) if Q is not None else None

    # the other runners are module attributes imported on first use
    module = sys.modules[__name__]
    if cfg.scheme == "direct_gradient":
        trace = run_direct_scenario(plant, ref, sig, gains, init, cfg.horizon,
                                    h=cfg.ct_step, method=cfg.integrator)
    elif cfg.scheme == "indirect_gradient":
        trace = module.run_indirect_scenario(
            plant, ref, sig, gains, proj, init, cfg.horizon, h=cfg.ct_step,
            method=cfg.integrator)
    else:
        direct = cfg.scheme == "lyapunov_direct"
        trace = module.run_lyapunov_scenario(
            plant, ref, sig, "direct" if direct else "indirect", gains,
            None if direct else proj, init, cfg.horizon, h=cfg.ct_step,
            method=cfg.integrator, Q=Q)

    invariants = _invariant_report(cfg, trace, gains, plant)
    if trace.diverged:
        status = 2
    elif any(v is False for v in invariants.values()):
        status = 3
    else:
        status = 0
    return ScenarioRun(config=cfg, trace=trace, invariants=invariants,
                       exit_status=status)


def summary_dict(run: ScenarioRun) -> dict:
    """Flat summary block written next to the trace (and used by batch rows)."""
    tr = run.trace
    metrics = tracking_metrics(tr)
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
