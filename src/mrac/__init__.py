"""Adaptive state-tracking control toolkit.

Discrete- and continuous-time model-reference adaptive control with
normalized-gradient and Lyapunov parameter updates, direct and indirect,
single- and multi-input, plus the diagnostics that certify each run.

The names below are re-exported lazily: ``from mrac import X`` imports the
module that defines X on first use, so a run compiles only the modules of
the scheme it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "diagnostics": (
        "LyapunovSeries", "SimulationTrace", "TraceSummary", "TrackingMetrics",
        "check_delta_V", "direct_V_series", "gamma0_direct", "gamma1_indirect",
        "indirect_V_series", "summarize", "tracking_metrics"),
    "direct": ("DirectGainConfig", "InitialConditions", "run_direct_scenario",
               "stack_controller_gains"),
    "errors": ("ConfigError", "GainError", "ModelError", "NumericsError",
               "ProjectionError", "SingularGainError", "ToolkitError"),
    "indirect": ("IndirectGainConfig", "ProjectionConfig",
                 "run_indirect_scenario", "theta_star_indirect"),
    "lyapunov": ("LyapunovCertificate", "LyapunovDirectGains",
                 "LyapunovIndirectGains", "build_lyapunov_loop",
                 "run_lyapunov_scenario", "solve_lyapunov_ct"),
    "scenario": ("ScenarioConfig", "ScenarioRun", "benchmark_config",
                 "config_from_dict", "load_config", "run_scenario",
                 "serialize_config", "summary_dict"),
    "systems": ("CONTINUOUS", "DISCRETE", "MatchingSolution", "PlantModel",
                "ReferenceModel", "ReferenceSignal", "euler_step",
                "integrate_ct", "is_hurwitz", "random_matchable_instance",
                "rk4_step", "solve_matching", "spectral_radius"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
