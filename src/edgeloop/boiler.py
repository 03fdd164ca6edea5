"""Synthetic drum-boiler environment stepped at the 5-second control cadence.

The plant is a set of first-order difference equations coupling water
level, pressure, and outlet temperature, with discrete pump/valve
actuators. It is deliberately desk-scale, and deliberately not in
equilibrium at the mid (0.5, 0.5) actuator setting: the feed pump is
slightly oversized relative to the valve, so the level creeps upward
until the controller sheds water. Holding any single actuator setting
eventually breaches the safety envelope; regulation requires actively
duty-cycling the actuators, which is what separates the control policies
under comparison.

Update equations (dt in seconds, applied once per control period):

    outflow      = valve_gain * valve * sqrt(pressure / pressure_setpoint)
    level'       = clamp(level + (pump_gain * pump - outflow) * dt, 0, 1)
    p_target     = pressure_setpoint * (outlet / outlet_setpoint)
                   * (1 + pressure_valve_span * (0.5 - valve))
    pressure'    = max(0, pressure + pressure_rate * (p_target - pressure) * dt)
    temp_target  = inlet + heat_gain_c - level_cooling_c * level
    outlet'      = clamp(outlet + temp_rate * (temp_target - outlet) * dt, 0, 600)
    inlet'       = clamp(inlet + inlet_rate * (inlet_nominal - inlet) * dt
                         + noise, 0, 600)

Process noise enters only through the inlet temperature so the water mass
balance stays exact. The caller draws it (normal, inlet_noise_std_c) and
passes each step's value in, so step() itself draws nothing.

oracle_action is the reference action that action accuracy is scored
against: a one-step lookahead through landed and cost, in step()'s float
order, so its values have the bits plant steps give.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .simcore import CONTROL_PERIOD_S

ACTUATOR_LEVELS = (0.0, 0.5, 1.0)
N_ACTIONS = len(ACTUATOR_LEVELS) ** 2  # joint pump x valve grid
HISTORY_LENGTH = 10
TEMP_MAX_C = 600.0


@dataclass(frozen=True)
class SafetyEnvelope:
    level_min: float = 0.15
    level_max: float = 0.95
    pressure_max_kpa: float = 1600.0  # 1.6 x nominal
    outlet_temp_max_c: float = 420.0  # 1.4 x nominal

    def __post_init__(self):
        if not (0.0 <= self.level_min < self.level_max <= 1.0):
            raise ValueError("level bounds must satisfy 0 <= min < max <= 1")
        if self.pressure_max_kpa <= 0 or self.outlet_temp_max_c <= 0:
            raise ValueError("pressure and temperature bounds must be positive")

    def violates(self, level: float, pressure: float, outlet_temp: float) -> bool:
        return (
            level < self.level_min
            or level > self.level_max
            or pressure > self.pressure_max_kpa
            or outlet_temp > self.outlet_temp_max_c
        )


@dataclass(frozen=True)
class BoilerConfig:
    # setpoints, doubling as the nominal operating point
    level_setpoint: float = 0.5
    pressure_setpoint_kpa: float = 1000.0
    outlet_setpoint_c: float = 300.0
    inlet_nominal_c: float = 100.0
    # dynamics coefficients (per second); the pump is sized above the valve
    # so centered actuators drift the level upward (~0.25% of range per
    # period) and holding still is not a viable policy
    pump_gain: float = 0.0035
    valve_gain: float = 0.0025
    pressure_rate: float = 0.04
    pressure_valve_span: float = 0.4
    temp_rate: float = 0.02
    heat_gain_c: float = 250.0
    level_cooling_c: float = 100.0
    inlet_rate: float = 0.05
    inlet_noise_std_c: float = 2.0
    reset_noise_scale: float = 1.0
    # reward weights on squared normalized deviations plus actuator motion
    w_level: float = 1.0
    w_pressure: float = 0.3
    w_temp: float = 0.2
    w_action: float = 0.1
    failure_penalty: float = 500.0
    deviation_clamp: float = 100.0  # per-term bound keeping rewards finite
    envelope: SafetyEnvelope = SafetyEnvelope()

    def __post_init__(self):
        # costs and observations divide by these; a clamp <= 0 cancels or inverts every cost
        positive = ("level_setpoint", "pressure_setpoint_kpa", "outlet_setpoint_c",
                    "inlet_nominal_c", "deviation_clamp")
        # the nominal state sits at these values, so they must lie inside step()'s clamps
        upper = {"level_setpoint": 1.0, "outlet_setpoint_c": TEMP_MAX_C, "inlet_nominal_c": TEMP_MAX_C}
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if name in positive and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
            if name in upper and value > upper[name]:
                raise ValueError(f"{name} must be <= {upper[name]}, got {value}")
            if name != "envelope" and not value >= 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(slots=True)  # builds at a third of a frozen one's cost; nothing mutates one
class BoilerState:
    """Plant state: step() clamps the level to [0, 1] and temperatures to [0, TEMP_MAX_C]."""

    inlet_temp: float
    outlet_temp: float
    water_level: float
    pressure: float
    pump_pos: float
    valve_pos: float


@dataclass(frozen=True)
class ActuatorCommand:
    pump_level: float
    valve_level: float


# the nine commands, shared, in index order (pump-major)
COMMANDS = tuple(ActuatorCommand(p, v) for p in ACTUATOR_LEVELS for v in ACTUATOR_LEVELS)


def nominal_state(config: BoilerConfig) -> BoilerState:
    return BoilerState(
        inlet_temp=config.inlet_nominal_c,
        outlet_temp=config.outlet_setpoint_c,
        water_level=config.level_setpoint,
        pressure=config.pressure_setpoint_kpa,
        pump_pos=0.5,
        valve_pos=0.5,
    )


def reset(config: BoilerConfig, rng: np.random.Generator) -> BoilerState:
    """Return the nominal operating point perturbed by seeded noise.

    Perturbations are clipped well inside the safety envelope so an episode
    never starts in failure.
    """
    scale = config.reset_noise_scale
    state = nominal_state(config)
    if scale == 0.0:
        return state
    level = state.water_level + rng.normal(0.0, 0.03 * scale)
    pressure = state.pressure + rng.normal(0.0, 20.0 * scale)
    outlet = state.outlet_temp + rng.normal(0.0, 8.0 * scale)
    inlet = state.inlet_temp + rng.normal(0.0, 3.0 * scale)
    return replace(
        state,
        water_level=0.30 if level < 0.30 else (0.70 if level > 0.70 else level),
        pressure=700.0 if pressure < 700.0 else (1300.0 if pressure > 1300.0 else pressure),
        outlet_temp=240.0 if outlet < 240.0 else (360.0 if outlet > 360.0 else outlet),
        inlet_temp=80.0 if inlet < 80.0 else (120.0 if inlet > 120.0 else inlet),
    )


def setpoint_deviations(
    config: BoilerConfig, level: float, pressure: float, outlet: float
) -> tuple[float, float, float]:
    """Level, pressure and outlet-temperature deviations, each relative to its setpoint."""
    return (
        (level - config.level_setpoint) / config.level_setpoint,
        (pressure - config.pressure_setpoint_kpa) / config.pressure_setpoint_kpa,
        (outlet - config.outlet_setpoint_c) / config.outlet_setpoint_c,
    )


def cost(config: BoilerConfig, dl: float, dp: float, dt: float) -> float:
    """A state's control cost from its setpoint_deviations: 0 at the setpoint.

    Each squared deviation is clamped at deviation_clamp, so the cost stays
    bounded for any in-domain state.
    """
    clamp = config.deviation_clamp
    l2, p2, t2 = dl * dl, dp * dp, dt * dt
    # comparisons, not min(), here and below: same operand, no builtin call
    return (
        config.w_level * (clamp if clamp < l2 else l2)
        + config.w_pressure * (clamp if clamp < p2 else p2)
        + config.w_temp * (clamp if clamp < t2 else t2)
    )


def landed(config: BoilerConfig, state: BoilerState, pump: float, valve: float) -> tuple[float, float, float]:
    """The (level, pressure, outlet) step() lands in from state under (pump, valve).

    Noise enters only the inlet temperature, so these are the same with or
    without it.
    """
    pressure = state.pressure
    outflow = config.valve_gain * valve * math.sqrt(
        (0.0 if pressure < 0.0 else pressure) / config.pressure_setpoint_kpa
    )
    level = state.water_level + (config.pump_gain * pump - outflow) * CONTROL_PERIOD_S
    p_target = (
        config.pressure_setpoint_kpa
        * (state.outlet_temp / config.outlet_setpoint_c)
        * (1.0 + config.pressure_valve_span * (0.5 - valve))
    )
    pressure = pressure + config.pressure_rate * (p_target - pressure) * CONTROL_PERIOD_S
    temp_target = state.inlet_temp + config.heat_gain_c - config.level_cooling_c * state.water_level
    outlet = state.outlet_temp + config.temp_rate * (temp_target - state.outlet_temp) * CONTROL_PERIOD_S
    return (
        0.0 if level < 0.0 else (1.0 if level > 1.0 else level),
        pressure if pressure > 0.0 else 0.0,
        0.0 if outlet < 0.0 else (TEMP_MAX_C if outlet > TEMP_MAX_C else outlet),
    )


def step(
    config: BoilerConfig,
    state: BoilerState,
    cmd: ActuatorCommand,
    state_cost: float,
    noise_c: float,
    inlet_disturbance_c: float,
) -> tuple[BoilerState, float, bool]:
    """Advance the plant one control period.

    The caller supplies state's cost (see cost), the step's inlet-noise
    draw as noise_c and its trace offset as inlet_disturbance_c. Returns
    (next_state, reward, failed). Failure is absorbing: stepping an
    envelope-violating state returns it unchanged with the bare penalty.
    The reward is the control reward of the command from state (see the
    module docstring), minus the failure penalty when the step ends in
    failure.
    """
    envelope = config.envelope
    if envelope.violates(state.water_level, state.pressure, state.outlet_temp):
        return state, -config.failure_penalty, True

    pump, valve = cmd.pump_level, cmd.valve_level
    level, pressure, outlet = landed(config, state, pump, valve)
    inlet = (
        state.inlet_temp
        + config.inlet_rate * (config.inlet_nominal_c - state.inlet_temp) * CONTROL_PERIOD_S
        + noise_c
        + inlet_disturbance_c
    )
    inlet = 0.0 if inlet < 0.0 else (TEMP_MAX_C if inlet > TEMP_MAX_C else inlet)

    r = -(state_cost + config.w_action * ((pump - state.pump_pos) ** 2 + (valve - state.valve_pos) ** 2))
    failed = envelope.violates(level, pressure, outlet)
    if failed:
        r -= config.failure_penalty
    return BoilerState(inlet, outlet, level, pressure, pump, valve), r, failed


@functools.lru_cache(maxsize=16)  # runs hold the nine grid positions; drawn states cannot grow it
def _by_motion(pump_pos: float, valve_pos: float) -> tuple[tuple[float, int, float, float], ...]:
    """Each command's (motion, index, pump, valve), sorted: motion is the squared actuator
    travel from (pump_pos, valve_pos), formed as step() forms it."""
    moves = []
    for a, cmd in enumerate(COMMANDS):
        pump, valve = cmd.pump_level, cmd.valve_level
        moves.append(((pump - pump_pos) ** 2 + (valve - valve_pos) ** 2, a, pump, valve))
    return tuple(sorted(moves))


def oracle_action(config: BoilerConfig, state: BoilerState, gamma: float) -> int:
    """Reference action: best immediate reward plus discounted greedy value.

    A one-step lookahead over the 9 commands under the noise-free plant. A
    command's value is its reward plus gamma times the best reward from the
    landed state, which holding the command earns (no motion, so it is minus
    the landed state's cost), or minus the failure penalty if it fails. Ties
    go to the lowest index. Each command is landed by landed() and each
    state costed by cost(), as step() and the episode do, in step()'s float
    order, so every value has the bits nine plant steps give. With gamma >= 0
    and costs >= 0 a value is never above its reward, and a reward falls as
    the motion grows, so the commands are visited in order of motion (then
    index): the search stops at the first reward below the best value, and a
    command whose reward only equals it is landed only if its index is lower
    than the best action's.
    """
    envelope = config.envelope
    level, pressure, outlet = state.water_level, state.pressure, state.outlet_temp
    if envelope.violates(level, pressure, outlet):
        return 0  # every command fails alike from a failed state, so all nine tie
    state_cost = cost(config, *setpoint_deviations(config, level, pressure, outlet))
    best_action = 0
    best_value = -math.inf
    for motion, a, pump, valve in _by_motion(state.pump_pos, state.valve_pos):
        r = -(state_cost + config.w_action * motion)
        if r < best_value:
            break  # no later command's value can reach the best
        if r == best_value and a > best_action:
            continue  # at most a tie, which the lower index wins
        level, pressure, outlet = landed(config, state, pump, valve)
        if envelope.violates(level, pressure, outlet):
            value = (r - config.failure_penalty) + gamma * -config.failure_penalty
        else:
            landed_cost = cost(config, *setpoint_deviations(config, level, pressure, outlet))
            value = r + gamma * -landed_cost
        if value > best_value or (value == best_value and a < best_action):
            best_value = value
            best_action = a
    return best_action


def state_features(config: BoilerConfig, state: BoilerState) -> tuple[float, ...]:
    """Normalized features: deviations from the nominal point, O(1) scale."""
    return (
        state.water_level - config.level_setpoint,
        (state.pressure - config.pressure_setpoint_kpa) / config.pressure_setpoint_kpa,
        (state.outlet_temp - config.outlet_setpoint_c) / config.outlet_setpoint_c,
        (state.inlet_temp - config.inlet_nominal_c) / config.inlet_nominal_c,
        state.pump_pos - 0.5,
        state.valve_pos - 0.5,
    )


N_STATE_FEATURES = 6
OBSERVATION_LENGTH = N_STATE_FEATURES + HISTORY_LENGTH * (N_STATE_FEATURES + 1)


def observe(
    config: BoilerConfig,
    current: BoilerState,
    prev_obs: np.ndarray | None,
    reward: float | None,
) -> np.ndarray:
    """Fixed-length observation: current features plus the last 10 (state, reward) pairs.

    The window is laid out most recent first. The previous observation
    already holds the previous state's features and its window, so the new
    window is that shifted by one slot, headed by the previous state and the
    reward earned since. Without a previous observation the window is zeros
    and the reward is not read.
    """
    if prev_obs is None:
        obs = np.zeros(OBSERVATION_LENGTH)
    else:  # the slots below fill every entry but the current features
        obs = np.empty(OBSERVATION_LENGTH)
        head = 2 * N_STATE_FEATURES  # where the newest reward goes
        obs[N_STATE_FEATURES:head] = prev_obs[:N_STATE_FEATURES]
        obs[head] = reward
        obs[head + 1 :] = prev_obs[N_STATE_FEATURES : -N_STATE_FEATURES - 1]
    obs[:N_STATE_FEATURES] = state_features(config, current)
    return obs
