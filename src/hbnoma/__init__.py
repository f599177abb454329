"""Hybrid-beamforming NOMA downlink simulator."""

from importlib import import_module

__version__ = "0.4.2"

# Public names by submodule. A submodule loads when one of its names is
# first used, so a command imports (and compiles) only the modules it needs.
_EXPORTS = {
    "arrays": (
        "AngleSpec", "ArrayGeometry", "PathGain", "SinglePathChannel", "channel_matrix",
        "fejer_correlation", "normalized_angle", "steering_vector",
    ),
    "bounds": (
        "BoundComponents", "CorrelationReport", "bound_components",
        "decompose_effective_channel", "eta_factor", "hermitian_correlation", "kernel_sum",
        "lower_bound_rate", "max_leakage_eigenvalue",
    ),
    "errors": ("ConfigurationError", "SingularClusteringError"),
    "power": (
        "ClusterPlan", "PowerPlan", "allocate_power", "default_intra_fractions",
        "order_by_gain", "reorder_by_effective_norm",
    ),
    "precoding": (
        "AnalogPrecoder", "BasebandPrecoder", "EffectiveChannelSet",
        "PrecoderDiagnostics", "design_analog_stage", "effective_channels",
        "power_constraint_check", "zero_forcing_precoder",
    ),
    "rates": (
        "RateBreakdown", "beam_gain", "inter_interference", "intra_interference", "sum_rate",
        "user_rate",
    ),
    "scenario": ("ClusterSpec", "ScenarioConfig", "UserSpec", "load_config", "parse_config_text"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
