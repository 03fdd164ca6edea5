"""Classical PID baseline for the boiler.

Two independent loops: water-level error drives the pump, pressure error
drives the valve. Each loop is a `PidLoop`, a textbook PID with a clamped
integral (anti-windup) and saturated output, whose memory (integral, last
error, first-update flag) changes in place on each update, so a step builds
no object. The continuous outputs are then snapped onto the plant's discrete
actuator grid, as an action index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boiler import BoilerConfig, BoilerState
from .simcore import CONTROL_PERIOD_S


@dataclass(frozen=True)
class PidGains:
    kp: float = 1.0
    ki: float = 0.0
    kd: float = 0.0
    out_lo: float = -0.5
    out_hi: float = 0.5
    integral_limit: float = 1.0

    def __post_init__(self):
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ValueError("gains must be non-negative")
        if self.out_lo >= self.out_hi:
            raise ValueError("output limits must satisfy lo < hi")
        if self.integral_limit <= 0:
            raise ValueError("integral_limit must be positive")


class PidLoop:
    """One loop's gains and memory; `update` runs one control period's step in place.

    The derivative term is zero on the first update, and the integral is
    clamped so saturation cannot wind it up.
    """

    __slots__ = ("kp", "ki", "kd", "out_lo", "out_hi", "integral_limit", "integral", "prev_error", "initialized")

    def __init__(self, gains: PidGains):
        self.kp, self.ki, self.kd = gains.kp, gains.ki, gains.kd
        self.out_lo, self.out_hi, self.integral_limit = gains.out_lo, gains.out_hi, gains.integral_limit
        self.integral = self.prev_error = 0.0
        self.initialized = False

    def update(self, setpoint: float, measurement: float) -> float:
        """Advance the memory by one measurement; returns the saturated output."""
        error = setpoint - measurement
        integral = self.integral + error * CONTROL_PERIOD_S
        # comparisons, not min()/max(), here and below: the same bits, no builtin call
        lim = self.integral_limit
        self.integral = integral = -lim if integral < -lim else (lim if integral > lim else integral)
        derivative = 0.0 if not self.initialized else (error - self.prev_error) / CONTROL_PERIOD_S
        self.prev_error = error
        self.initialized = True
        output = self.kp * error + self.ki * integral + self.kd * derivative
        lo, hi = self.out_lo, self.out_hi
        return lo if output < lo else (hi if output > hi else output)


def _quantize(u: float) -> int:
    # index of the nearest of {0, 0.5, 1}, ties round down
    if u <= 0.25:
        return 0
    if u <= 0.75:
        return 1
    return 2


def pid_to_action(pump_output: float, valve_output: float) -> int:
    """Snap continuous outputs onto the discrete actuator grid, saturating past [0, 1] (NaN
    to 1); returns the action index."""
    return 3 * _quantize(pump_output) + _quantize(valve_output)


class BoilerPid:
    """Maps measured plant state to a discrete actuator command.

    The pump loop works on the raw level error; the pressure loop works on
    the setpoint-normalized pressure error so both loops see O(1) signals.
    Loop outputs are biased around the mid actuator setting, which is the
    plant's equilibrium input.
    """

    def __init__(self, config: BoilerConfig, level_gains: PidGains, pressure_gains: PidGains):
        self.config = config
        self.level = PidLoop(level_gains)
        self.pressure = PidLoop(pressure_gains)

    def decide(self, reading) -> int | None:
        """The action for a served experiment.Reading, or None on the episode's done reading."""
        return None if reading.done else self.act(reading.state)

    def act(self, state: BoilerState) -> int:
        cfg = self.config
        level_out = self.level.update(cfg.level_setpoint, state.water_level)
        pressure_out = self.pressure.update(1.0, state.pressure / cfg.pressure_setpoint_kpa)
        # above-setpoint pressure yields a negative loop output, opening the valve; the
        # grid saturates, so the inputs need no clamp to [0, 1]
        return pid_to_action(0.5 + level_out, 0.5 - pressure_out)
