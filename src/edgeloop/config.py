"""Experiment configuration: a YAML tree mirroring nested dataclasses.

An empty file yields the full default configuration (stock agent
hyperparameters, edge-collab scenario, desk-scale episodes). Unknown keys
and out-of-range values are load errors naming the offending key path.
"""

from __future__ import annotations

import dataclasses
import os
import types
import typing
from dataclasses import dataclass, field

import yaml

from .allocator import AffinityWeights, ControlModule, EdgeResource, check_instance
from .boiler import BoilerConfig
from .dqn import Hyperparams
from .pid import DEFAULT_LEVEL_GAINS, DEFAULT_PRESSURE_GAINS, PidGains
from .simcore import CONTROL_PERIOD_MS

ENV_OUT_VAR = "EDGELOOP_OUT"
CONTROL_MODULE_ID = "boiler-control"
DESK_PRESET_STEPS = 500
DAY_PRESET_STEPS = 17280  # one simulated day of 5 s periods

SCENARIOS = ("edge-collab", "cloud-only")
CONTROLLERS = ("drl", "pid")
EPISODE_PRESETS = {"desk": DESK_PRESET_STEPS, "day": DAY_PRESET_STEPS}

# one-way link delays and per-decision compute time, milliseconds
LATENCY_PRESETS = {
    "default": {
        "cloud_uplink_ms": 700,
        "cloud_downlink_ms": 700,
        "edge_uplink_ms": 100,
        "edge_downlink_ms": 100,
        "inter_edge_ms": 100,
        "compute_ms": 100,
    },
    "slow-cloud": {
        "cloud_uplink_ms": 29950,
        "cloud_downlink_ms": 29950,
        "edge_uplink_ms": 100,
        "edge_downlink_ms": 100,
        "inter_edge_ms": 100,
        "compute_ms": 100,
    },
}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


@dataclass(frozen=True)
class PidConfig:
    level: PidGains = field(default_factory=lambda: DEFAULT_LEVEL_GAINS)
    pressure: PidGains = field(default_factory=lambda: DEFAULT_PRESSURE_GAINS)


@dataclass(frozen=True)
class LatencyConfig:
    """Link delays; unset values fall back to the named preset."""

    preset: str = "default"
    jitter: float = 0.0
    cloud_uplink_ms: int | None = None
    cloud_downlink_ms: int | None = None
    edge_uplink_ms: int | None = None
    edge_downlink_ms: int | None = None
    inter_edge_ms: int | None = None
    compute_ms: int | None = None

    def __post_init__(self):
        if self.preset not in LATENCY_PRESETS:
            raise ConfigError(
                f"preset must be one of {sorted(LATENCY_PRESETS)}, got {self.preset!r}"
            )
        if not (0.0 <= self.jitter < 1.0):
            raise ConfigError(f"jitter must be in [0,1), got {self.jitter}")
        for name in (
            "cloud_uplink_ms",
            "cloud_downlink_ms",
            "edge_uplink_ms",
            "edge_downlink_ms",
            "inter_edge_ms",
            "compute_ms",
        ):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ConfigError(f"{name} must be >= 1 ms, got {v}")
        values = self.resolved()
        if values["compute_ms"] >= CONTROL_PERIOD_MS:
            # a serving node has no queue: each reading must be served before the next is due
            raise ConfigError(
                f"compute_ms must be < {CONTROL_PERIOD_MS} (the control period), "
                f"got {values['compute_ms']}"
            )
        for leg in ("uplink", "downlink"):
            if values[f"cloud_{leg}_ms"] <= values[f"edge_{leg}_ms"]:
                raise ConfigError(f"cloud_{leg}_ms must exceed edge_{leg}_ms")

    def resolved(self) -> dict[str, int]:
        """Concrete delays with preset defaults filled in.

        The edge-to-cloud leg is derived so that a reading forwarded from
        an edge reaches the cloud in exactly the direct sensor-to-cloud
        time; __post_init__ checks that the cloud legs exceed the edge legs.
        """
        values = dict(LATENCY_PRESETS[self.preset])
        for name in values:
            override = getattr(self, name)
            if override is not None:
                values[name] = override
        values["edge_cloud_up_ms"] = values["cloud_uplink_ms"] - values["edge_uplink_ms"]
        values["edge_cloud_down_ms"] = (
            values["cloud_downlink_ms"] - values["edge_downlink_ms"]
        )
        return values


def _default_edges() -> list[EdgeResource]:
    return [
        EdgeResource("edge-0", capacity=6.0, current_load=0.5, bandwidth_mbps=100.0, compute_rating=1.0),
        EdgeResource("edge-1", capacity=6.0, current_load=0.5, bandwidth_mbps=80.0, compute_rating=0.8),
    ]


def _default_background_modules() -> list[ControlModule]:
    return [
        ControlModule("bg-analytics", load=2.0, intensity=0.4),
        ControlModule("bg-telemetry", load=1.5, intensity=0.6),
    ]


@dataclass(frozen=True)
class AllocatorRunConfig:
    """Resource pool, module set, and rebalancing cadence for a run."""

    weights: AffinityWeights = field(default_factory=AffinityWeights)
    edges: list[EdgeResource] = field(default_factory=_default_edges)
    background_modules: list[ControlModule] = field(default_factory=_default_background_modules)
    control_module_load: float = 1.0
    control_module_intensity: float = 1.0
    rebalance_interval_steps: int = 100
    load_drift: float = 0.25  # std of per-interval background-load walk
    load_max: float = 2.0  # background load stays in [0, load_max]

    def __post_init__(self):
        # the allocator's own instance check: at least one edge, unique edge
        # ids and unique module ids (ControlModule checks load and intensity)
        check_instance([self.control_module(), *self.background_modules], self.edges)
        if self.rebalance_interval_steps < 1:
            raise ConfigError("rebalance_interval_steps must be >= 1")
        if self.load_drift < 0:
            raise ConfigError("load_drift must be >= 0")
        if self.load_max < 0:
            raise ConfigError("load_max must be >= 0")

    def control_module(self) -> ControlModule:
        """The module the allocator places for the boiler's control loop."""
        return ControlModule(
            CONTROL_MODULE_ID,
            load=self.control_module_load,
            intensity=self.control_module_intensity,
        )


@dataclass(frozen=True)
class RunConfig:
    scenario: str = "edge-collab"
    controller: str = "drl"
    seeds: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    episodes: int = 300
    episode_preset: str = "desk"
    max_steps: int | None = None  # overrides the preset when set
    eval_episodes: int = 20
    accuracy_sample_every: int = 10
    out_dir: str | None = None
    trace_file: str | None = None
    trace_sensor: str | None = None
    trace_disturbance_scale: float = 0.0  # degrees C per unit trace deviation
    plant: BoilerConfig = field(default_factory=BoilerConfig)
    agent: Hyperparams = field(default_factory=Hyperparams)
    pid: PidConfig = field(default_factory=PidConfig)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    allocator: AllocatorRunConfig = field(default_factory=AllocatorRunConfig)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.controller not in CONTROLLERS:
            raise ConfigError(
                f"controller must be one of {CONTROLLERS}, got {self.controller!r}"
            )
        if not self.seeds:
            raise ConfigError("seeds must contain at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must not repeat a seed, got {self.seeds}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {self.seeds}")
        if self.episodes < 0:
            raise ConfigError(f"episodes must be >= 0, got {self.episodes}")
        if self.episode_preset not in EPISODE_PRESETS:
            raise ConfigError(
                f"episode_preset must be one of {sorted(EPISODE_PRESETS)}, "
                f"got {self.episode_preset!r}"
            )
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.eval_episodes < 0:
            raise ConfigError("eval_episodes must be >= 0")
        if self.accuracy_sample_every < 1:
            raise ConfigError("accuracy_sample_every must be >= 1")
        if self.trace_disturbance_scale < 0:
            raise ConfigError("trace_disturbance_scale must be >= 0")

    @property
    def steps_per_episode(self) -> int:
        if self.max_steps is not None:
            return self.max_steps
        return EPISODE_PRESETS[self.episode_preset]


def _convert(hint, raw, path: str):
    origin = typing.get_origin(hint)
    if origin is typing.Union or origin is types.UnionType:
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if raw is None:
            return None
        return _convert(args[0], raw, path)
    if origin is list:
        if not isinstance(raw, list):
            raise ConfigError(f"{path}: expected a list")
        (item_type,) = typing.get_args(hint)
        return [_convert(item_type, item, f"{path}[{i}]") for i, item in enumerate(raw)]
    if dataclasses.is_dataclass(hint):
        return _build(hint, raw, path)
    if hint is int:
        if isinstance(raw, bool) or not isinstance(raw, int):
            raise ConfigError(f"{path}: expected an integer, got {raw!r}")
        return raw
    if hint is float:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {raw!r}")
        return float(raw)
    if hint is str:
        if not isinstance(raw, str):
            raise ConfigError(f"{path}: expected a string, got {raw!r}")
        return raw
    raise ConfigError(f"{path}: unsupported config field type {hint!r}")


def _build(cls, data, path: str):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, raw in data.items():
        if key not in names:
            raise ConfigError(f"unknown key {path}.{key}" if path else f"unknown key {key}")
        child = f"{path}.{key}" if path else key
        kwargs[key] = _convert(hints[key], raw, child)
    try:
        return cls(**kwargs)
    except ValueError as exc:  # ConfigError included
        prefix, message = f"{path or 'config'}: ", str(exc)
        raise ConfigError(message if message.startswith(prefix) else prefix + message) from exc


def config_from_dict(data: dict | None) -> RunConfig:
    return _build(RunConfig, data or {}, "")


def load_config(path) -> RunConfig:
    """Load and validate a YAML config; an empty file or no path means defaults."""
    if path is None:
        data = {}
    else:
        with open(path) as f:
            try:
                data = yaml.safe_load(f)
            except yaml.YAMLError as exc:
                raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    config = config_from_dict(data)
    if config.trace_file is not None and not os.path.exists(config.trace_file):
        raise ConfigError(f"trace_file does not exist: {config.trace_file}")
    return config


def resolve_out_dir(cli_value: str | None, config: RunConfig) -> str:
    """Output directory precedence: CLI flag, config key, environment, ./out."""
    if cli_value:
        return cli_value
    if config.out_dir:
        return config.out_dir
    env = os.environ.get(ENV_OUT_VAR)
    if env:
        return env
    return "out"
