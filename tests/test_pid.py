import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeloop import boiler, pid
from edgeloop.boiler import ActuatorCommand, BoilerConfig
from edgeloop.config import PidConfig
from edgeloop.pid import BoilerPid, PidGains, PidLoop, pid_to_action

import oracles


TUNED = PidConfig()  # the default gains a run passes


def wide(kp=1.0, ki=0.0, kd=0.0, integral_limit=1000.0):
    return PidGains(kp=kp, ki=ki, kd=kd, out_lo=-1000.0, out_hi=1000.0,
                    integral_limit=integral_limit)


# -- the controller law ---------------------------------------------------------


def memory(loop):
    return oracles.PidState(loop.integral, loop.prev_error, loop.initialized)


def test_zero_error_gives_zero_output():
    loop = PidLoop(wide(kp=5.0, ki=0.0, kd=3.0))
    assert loop.update(0.5, 0.5) == 0.0
    assert loop.update(0.5, 0.5) == 0.0


def test_pure_proportional_example():
    assert PidLoop(wide(kp=2.0)).update(1.0, 0.7) == pytest.approx(0.6)


def test_zero_gains_always_output_zero():
    loop = PidLoop(wide(kp=0.0, ki=0.0, kd=0.0))
    for measurement in np.linspace(-5.0, 5.0, 21):
        assert loop.update(0.0, float(measurement)) == 0.0


def test_integral_accumulates_and_clamps():
    loop = PidLoop(wide(kp=0.0, ki=1.0, integral_limit=12.5))
    outputs = []
    for _ in range(10):
        outputs.append(loop.update(1.0, 0.0))
        assert abs(loop.integral) <= 12.5
    # a unit error over the 5 s period ramps the integral 5, 10, then pins it at the clamp
    assert outputs[:4] == [5.0, 10.0, 12.5, 12.5]


def test_derivative_is_zero_on_first_call():
    loop = PidLoop(wide(kp=0.0, kd=100.0))
    assert memory(loop) == oracles.PidState()
    assert loop.update(1.0, 0.0) == 0.0
    assert memory(loop) == (5.0, 1.0, True)  # the integral runs at ki 0 too
    assert loop.update(1.0, 0.5) == pytest.approx(100.0 * (0.5 - 1.0) / 5.0)  # change over the 5 s period


def test_output_saturates_at_limits():
    gains = PidGains(kp=100.0, out_lo=-0.5, out_hi=0.5, integral_limit=1.0)
    assert PidLoop(gains).update(1.0, 0.0) == 0.5
    assert PidLoop(gains).update(0.0, 1.0) == -0.5


def test_saturation_does_not_wind_up_the_integral():
    loop = PidLoop(PidGains(kp=0.0, ki=10.0, out_lo=-0.5, out_hi=0.5, integral_limit=0.2))
    for _ in range(50):
        loop.update(1.0, 0.0)
    assert loop.integral == 0.2
    # reversing the error unwinds promptly instead of fighting stored windup
    assert loop.update(0.0, 1.0) < 0.5


def test_pid_step_is_deterministic():
    gains = wide(kp=1.3, ki=0.2, kd=0.4)
    measurements = list(np.linspace(0.0, 1.0, 30))

    def run():
        loop = PidLoop(gains)
        return [loop.update(0.5, m) for m in measurements], memory(loop)

    assert run() == run()


def test_gain_validation():
    with pytest.raises(ValueError):
        PidGains(kp=-1.0)
    with pytest.raises(ValueError):
        PidGains(out_lo=0.5, out_hi=0.5)
    with pytest.raises(ValueError):
        PidGains(integral_limit=0.0)


# -- quantization ------------------------------------------------------------------


def test_quantizer_examples():
    assert boiler.COMMANDS[pid_to_action(0.74, 0.74)] == ActuatorCommand(0.5, 0.5)
    assert boiler.COMMANDS[pid_to_action(0.76, 0.76)] == ActuatorCommand(1.0, 1.0)
    assert boiler.COMMANDS[pid_to_action(0.25, 0.25)] == ActuatorCommand(0.0, 0.0)  # tie rounds down
    assert boiler.COMMANDS[pid_to_action(0.75, 0.75)] == ActuatorCommand(0.5, 0.5)  # tie rounds down
    assert boiler.COMMANDS[pid_to_action(0.0, 1.0)] == ActuatorCommand(0.0, 1.0)


def test_quantizer_error_is_bounded_over_a_fine_grid():
    for k in range(1001):
        u = k / 1000.0
        cmd = boiler.COMMANDS[pid_to_action(u, u)]
        assert abs(cmd.pump_level - u) <= 0.25
        assert cmd.pump_level in (0.0, 0.5, 1.0)


# -- the two-loop boiler controller ---------------------------------------------------


def test_level_step_settles_within_two_percent_inside_100_steps():
    # zero process noise, tuned default gains, level displaced from setpoint
    cfg = BoilerConfig(inlet_noise_std_c=0.0)
    ctl = BoilerPid(cfg, TUNED.level, TUNED.pressure)
    state = dataclasses.replace(boiler.nominal_state(cfg), water_level=0.35)
    band = 0.02 * cfg.level_setpoint
    in_band_from = None
    for step in range(1, 101):
        cmd = boiler.COMMANDS[ctl.act(state)]
        state, _, failed = boiler.step(cfg, state, cmd, oracles.state_cost(cfg, state), 0.0, 0.0)
        assert not failed
        if abs(state.water_level - cfg.level_setpoint) <= band:
            if in_band_from is None:
                in_band_from = step
        else:
            in_band_from = None
    assert in_band_from is not None, "level never settled"
    assert in_band_from <= 100


def test_controller_regulates_the_drifting_plant_long_term():
    # the tuned loops must hold the envelope where holding still fails
    cfg = BoilerConfig(inlet_noise_std_c=0.0)
    ctl = BoilerPid(cfg, TUNED.level, TUNED.pressure)
    state = boiler.nominal_state(cfg)
    for _ in range(2000):
        cmd = boiler.COMMANDS[ctl.act(state)]
        state, _, failed = boiler.step(cfg, state, cmd, oracles.state_cost(cfg, state), 0.0, 0.0)
        assert not failed
    assert abs(state.water_level - cfg.level_setpoint) <= 0.05


def test_controller_responds_in_the_right_direction():
    cfg = BoilerConfig()

    def fresh_command(**displaced):
        ctl = BoilerPid(cfg, TUNED.level, TUNED.pressure)
        return boiler.COMMANDS[ctl.act(dataclasses.replace(boiler.nominal_state(cfg), **displaced))]

    assert fresh_command(water_level=0.2).pump_level == 1.0
    assert fresh_command(water_level=0.9).pump_level == 0.0
    assert fresh_command(pressure=1500.0).valve_level == 1.0


def test_act_returns_the_command_index():
    cfg = BoilerConfig()
    ctl = BoilerPid(cfg, TUNED.level, TUNED.pressure)
    # at the setpoints both loop outputs are zero, so both actuators sit mid-range
    index = ctl.act(boiler.nominal_state(cfg))
    assert type(index) is int
    assert boiler.COMMANDS[index] == ActuatorCommand(0.5, 0.5)


def test_default_gains_are_the_documented_tuning():
    assert TUNED.level == PidGains(kp=70.0, ki=0.0, kd=0.0)
    assert TUNED.pressure == PidGains(kp=2.0, ki=0.0, kd=0.0)


# -- the clamps: comparisons with min(max())'s bits ---------------------------------


def same_bits(a, b):
    """Equal floats with equal signs, so 0.0 differs from -0.0; any NaN equals any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
BOUND = st.floats(allow_nan=False, allow_infinity=True)
LIMIT = st.floats(min_value=0.0, exclude_min=True, allow_infinity=True)


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(x=ANY_FLOAT, lo=BOUND, hi=BOUND, limit=LIMIT)
# ties at a bound: max() keeps its first argument, min() likewise
@example(x=-0.0, lo=0.0, hi=1.0, limit=0.5)
@example(x=0.0, lo=-1.0, hi=-0.0, limit=0.5)
@example(x=math.nan, lo=-math.inf, hi=math.inf, limit=math.inf)
@example(x=math.inf, lo=-1.0, hi=1.0, limit=math.inf)
def test_pid_step_clamps_give_min_max_bits(x, lo, hi, limit):
    # error -0.0 and a -0.0 derivative leave x unchanged on its way into each clamp
    if not lo < hi:
        lo, hi = -math.inf, math.inf
    loop = PidLoop(PidGains(kp=0.0, ki=0.0, integral_limit=limit))
    loop.integral = x
    loop.update(-0.0, 0.0)
    assert same_bits(loop.integral, min(max(x, -limit), limit))
    loop = PidLoop(PidGains(kp=0.0, ki=1.0, out_lo=lo, out_hi=hi, integral_limit=math.inf))
    loop.integral, loop.initialized = x, True
    out = loop.update(-0.0, 0.0)
    assert same_bits(loop.integral, x)
    assert same_bits(out, min(max(x, lo), hi))


# magnitudes where the clamps bite: gains up to 50 on errors up to 4
GAIN = st.floats(min_value=0.0, max_value=50.0)
SIGNAL = st.floats(min_value=-2.0, max_value=2.0)


@st.composite
def loops_and_inputs(draw):
    """Gains, tight or loose limits, and a sequence of (setpoint, measurement) pairs."""
    lo = draw(st.floats(min_value=-5.0, max_value=0.0))
    gains = PidGains(
        kp=draw(GAIN), ki=draw(GAIN), kd=draw(GAIN),
        out_lo=lo, out_hi=lo + draw(st.floats(min_value=0.01, max_value=10.0)),
        integral_limit=draw(st.floats(min_value=1e-3, max_value=20.0)),
    )
    return gains, draw(st.lists(st.tuples(SIGNAL, SIGNAL), min_size=1, max_size=40))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(loops_and_inputs())
@example((PidGains(kp=0.0, ki=3.0, kd=7.0, out_lo=-0.1, out_hi=0.1, integral_limit=0.01),
          [(1.0, -1.0), (-1.0, 1.0), (0.0, 0.0), (2.0, -2.0)]))
@example((TUNED.level, [(0.5, 0.35), (0.5, 0.9), (0.5, 0.5)]))
def test_pid_loop_updates_its_memory_as_the_reference_law_does(drawn):
    # outputs and memory compared as the bytes of each float after every update
    gains, inputs = drawn
    loop, state = PidLoop(gains), oracles.PidState()
    for setpoint, measurement in inputs:
        expected, state = oracles.pid_step(gains, state, setpoint, measurement)
        out = loop.update(setpoint, measurement)
        assert same_bits(out, expected)
        assert same_bits(loop.integral, state.integral) and same_bits(loop.prev_error, state.prev_error)
        assert loop.initialized is state.initialized
        assert type(out) is float


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(level_out=ANY_FLOAT, pressure_out=ANY_FLOAT)
@example(level_out=-0.5, pressure_out=0.5)  # both actuator inputs exactly 0.0
@example(level_out=0.5, pressure_out=-0.5)  # both exactly 1.0
@example(level_out=-0.25, pressure_out=-0.25)  # 0.25 and 0.75, where the grid rounds down
@example(level_out=math.nan, pressure_out=-math.inf)
@example(level_out=-0.0, pressure_out=math.inf)
def test_boiler_pid_acts_on_the_clamped_loop_outputs(level_out, pressure_out):
    # act passes the unclamped pair to pid_to_action: its grid must already saturate
    outputs = iter([level_out, pressure_out])
    cfg = BoilerConfig()
    with mock.patch.object(pid.PidLoop, "update", lambda loop, *_: next(outputs)):
        action = BoilerPid(cfg, TUNED.level, TUNED.pressure).act(boiler.nominal_state(cfg))
    pump_u = min(max(0.5 + level_out, 0.0), 1.0)
    valve_u = min(max(0.5 - pressure_out, 0.0), 1.0)
    assert action == pid_to_action(pump_u, valve_u)
