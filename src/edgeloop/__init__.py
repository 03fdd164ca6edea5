"""Deterministic event-driven testbed for cloud-edge industrial control.

A synthetic boiler plant is closed-loop controlled over a simulated
network, either by a value-learning agent served from edge nodes or by a
tuned PID baseline, with module placement decided by an assignment solver.
"""

__version__ = "0.1.0"

from .allocator import (
    AffinityWeights,
    AssignmentPlan,
    ControlModule,
    EdgeResource,
    affinity,
    solve,
    solve_exact,
    solve_greedy,
    validate,
)
from .boiler import ActuatorCommand, BoilerConfig, BoilerState, SafetyEnvelope
from .config import ConfigError, RunConfig, load_config
from .dqn import Batch, DqnAgent, Hyperparams, MlpPolicy, ReplayBuffer, Transition
from .experiment import (
    MetricsRecord,
    RunResult,
    oracle_action,
    run_experiment,
    run_seed,
)
from .pid import BoilerPid, PidGains, PidState, pid_step, pid_to_action
from .reporting import compare, emit_plot_data, read_metrics, render_table
from .simcore import Kernel
from .traces import ingest_trace, read_trace, resample

__all__ = [
    "ActuatorCommand",
    "AffinityWeights",
    "AssignmentPlan",
    "Batch",
    "BoilerConfig",
    "BoilerPid",
    "BoilerState",
    "ConfigError",
    "ControlModule",
    "DqnAgent",
    "EdgeResource",
    "Hyperparams",
    "Kernel",
    "MetricsRecord",
    "MlpPolicy",
    "PidGains",
    "PidState",
    "ReplayBuffer",
    "RunConfig",
    "RunResult",
    "SafetyEnvelope",
    "Transition",
    "affinity",
    "compare",
    "emit_plot_data",
    "ingest_trace",
    "load_config",
    "oracle_action",
    "pid_step",
    "pid_to_action",
    "read_metrics",
    "read_trace",
    "render_table",
    "resample",
    "run_experiment",
    "run_seed",
    "solve",
    "solve_exact",
    "solve_greedy",
    "validate",
]
