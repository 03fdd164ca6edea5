import dataclasses
import math

import numpy as np
import pytest

from edgeloop import boiler
from edgeloop.boiler import (
    ACTUATOR_LEVELS,
    HISTORY_LENGTH,
    N_ACTIONS,
    N_STATE_FEATURES,
    OBSERVATION_LENGTH,
    TEMP_MAX_C,
    ActuatorCommand,
    BoilerConfig,
    BoilerState,
    SafetyEnvelope,
)

from edgeloop.simcore import CONTROL_PERIOD_S

import oracles


def make_state(**overrides):
    cfg = BoilerConfig()
    return dataclasses.replace(boiler.nominal_state(cfg), **overrides)


# -- commands -------------------------------------------------------------------


def test_action_index_round_trip_covers_the_grid():
    seen = set()
    for index in range(N_ACTIONS):
        cmd = boiler.COMMANDS[index]
        assert cmd.pump_level in ACTUATOR_LEVELS
        assert cmd.valve_level in ACTUATOR_LEVELS
        # pump-major: equal to the command built from the index's levels
        assert cmd == ActuatorCommand(ACTUATOR_LEVELS[index // 3], ACTUATOR_LEVELS[index % 3])
        seen.add((cmd.pump_level, cmd.valve_level))
    assert len(seen) == N_ACTIONS


# -- state and envelope -----------------------------------------------------------


def test_state_validation_bounds():
    # the config bounds the setpoints that the nominal state starts at;
    # reset() and step() keep every later state inside the same bounds
    for key, value in (("level_setpoint", 1.2), ("outlet_setpoint_c", 700.0),
                       ("inlet_nominal_c", math.nextafter(TEMP_MAX_C, math.inf))):
        with pytest.raises(ValueError, match=f"{key} must be <= "):
            BoilerConfig(**{key: value})
    edge = BoilerConfig(level_setpoint=1.0, outlet_setpoint_c=TEMP_MAX_C, inlet_nominal_c=TEMP_MAX_C)
    assert boiler.nominal_state(edge).water_level == 1.0


def test_envelope_flags_each_bound():
    env = SafetyEnvelope()
    assert not env.violates(0.5, 1000.0, 300.0)
    assert env.violates(0.1, 1000.0, 300.0)
    assert env.violates(0.96, 1000.0, 300.0)
    assert env.violates(0.5, 1700.0, 300.0)
    assert env.violates(0.5, 1000.0, 430.0)
    # each bound itself is inside
    assert not env.violates(env.level_min, env.pressure_max_kpa, env.outlet_temp_max_c)
    assert not env.violates(env.level_max, env.pressure_max_kpa, env.outlet_temp_max_c)


# -- reset ------------------------------------------------------------------------


def test_reset_zero_scale_is_nominal():
    cfg = BoilerConfig(reset_noise_scale=0.0)
    assert boiler.reset(cfg, np.random.default_rng(0)) == boiler.nominal_state(cfg)


def test_reset_is_seeded_and_safe():
    cfg = BoilerConfig()
    for seed in range(1000):
        state = boiler.reset(cfg, np.random.default_rng(seed))
        assert not cfg.envelope.violates(state.water_level, state.pressure, state.outlet_temp)
        assert 0.30 <= state.water_level <= 0.70
        assert 700.0 <= state.pressure <= 1300.0
        assert 240.0 <= state.outlet_temp <= 360.0
        assert 80.0 <= state.inlet_temp <= 120.0
        assert state.pump_pos == 0.5 and state.valve_pos == 0.5
    a = boiler.reset(cfg, np.random.default_rng(7))
    b = boiler.reset(cfg, np.random.default_rng(7))
    assert a == b


# -- reward -----------------------------------------------------------------------


def package_reward(cfg, state, cmd):
    """boiler.step's reward for cmd from state, with state's cost from boiler.cost."""
    deviations = boiler.setpoint_deviations(cfg, state.water_level, state.pressure, state.outlet_temp)
    return boiler.step(cfg, state, cmd, boiler.cost(cfg, *deviations), 0.0, 0.0)[1]


def test_reward_zero_at_setpoint_without_motion():
    cfg = BoilerConfig()
    nominal, hold = boiler.nominal_state(cfg), ActuatorCommand(0.5, 0.5)
    assert oracles.reward(cfg, nominal, hold) == 0.0
    assert package_reward(cfg, nominal, hold) == 0.0


def test_reward_motion_cost():
    cfg = BoilerConfig()
    state = boiler.nominal_state(cfg)
    r = oracles.reward(cfg, state, ActuatorCommand(1.0, 0.0))
    assert r == pytest.approx(-cfg.w_action * (0.25 + 0.25))
    assert package_reward(cfg, state, ActuatorCommand(1.0, 0.0)) == r


def test_reward_decreases_with_each_deviation():
    cfg = BoilerConfig()
    hold = ActuatorCommand(0.5, 0.5)
    base = oracles.reward(cfg, boiler.nominal_state(cfg), hold)
    for field, values in [
        ("water_level", [0.45, 0.40, 0.35]),
        ("pressure", [1050.0, 1100.0, 1200.0]),
        ("outlet_temp", [310.0, 330.0, 360.0]),
    ]:
        prev = base
        for value in values:
            state = make_state(**{field: value})
            r = oracles.reward(cfg, state, hold)
            assert r < prev, f"{field}={value} should cost more than the previous point"
            assert package_reward(cfg, state, hold) == r
            prev = r


def test_reward_bounded_by_clamp():
    cfg = BoilerConfig()
    worst = make_state(water_level=0.0, pressure=100000.0, outlet_temp=600.0)
    r = oracles.reward(cfg, worst, ActuatorCommand(1.0, 0.0))
    floor = -(
        (cfg.w_level + cfg.w_pressure + cfg.w_temp) * cfg.deviation_clamp
        + cfg.w_action * 2.0
    )
    assert r >= floor
    # the pressure term alone is past the clamp; the package clamps it alike
    deviations = boiler.setpoint_deviations(cfg, worst.water_level, worst.pressure, worst.outlet_temp)
    assert boiler.cost(cfg, *deviations) == oracles.state_cost(cfg, worst)
    assert boiler.cost(cfg, *deviations) == cfg.w_level + cfg.w_pressure * cfg.deviation_clamp + cfg.w_temp


# -- dynamics ----------------------------------------------------------------------


def test_step_matches_recomputed_equations_over_200_steps():
    cfg = BoilerConfig()
    state = boiler.reset(cfg, np.random.default_rng(3))
    twin = np.random.default_rng(11)
    pattern = [boiler.COMMANDS[i] for i in (4, 1, 7, 5, 3, 4, 2, 6)]
    for k in range(200):
        cmd = pattern[k % len(pattern)]
        noise = float(twin.normal(0.0, cfg.inlet_noise_std_c))
        want = oracles.boiler_step(cfg, state, cmd, noise=noise, disturbance=0.3)
        nxt, _, failed = boiler.step(cfg, state, cmd, oracles.state_cost(cfg, state), noise, 0.3)
        assert nxt.inlet_temp == pytest.approx(want[0], abs=1e-12)
        assert nxt.outlet_temp == pytest.approx(want[1], abs=1e-12)
        assert nxt.water_level == pytest.approx(want[2], abs=1e-12)
        assert nxt.pressure == pytest.approx(want[3], abs=1e-12)
        assert nxt.pump_pos == cmd.pump_level and nxt.valve_pos == cmd.valve_level
        if failed:
            break
        state = nxt


def test_step_mass_balance_is_exact():
    # level changes only through pump inflow minus valve outflow
    cfg = BoilerConfig()
    state = boiler.nominal_state(cfg)
    for index in range(N_ACTIONS):
        cmd = boiler.COMMANDS[index]
        nxt, _, _ = boiler.step(cfg, state, cmd, oracles.state_cost(cfg, state), 0.0, 0.0)
        outflow = cfg.valve_gain * cmd.valve_level * math.sqrt(
            state.pressure / cfg.pressure_setpoint_kpa
        )
        want = state.water_level + (cfg.pump_gain * cmd.pump_level - outflow) * CONTROL_PERIOD_S
        assert nxt.water_level == pytest.approx(want, abs=1e-12)


def test_full_pump_fills_until_high_level_failure():
    cfg = BoilerConfig()
    state = boiler.nominal_state(cfg)
    cmd = ActuatorCommand(1.0, 0.0)
    prev = state.water_level
    for k in range(100):
        state, r, failed = boiler.step(cfg, state, cmd, oracles.state_cost(cfg, state), 0.0, 0.0)
        assert state.water_level > prev
        prev = state.water_level
        if failed:
            assert state.water_level > cfg.envelope.level_max
            assert r <= -cfg.failure_penalty
            break
    else:
        pytest.fail("pump-only operation never breached the level ceiling")


def test_full_drain_empties_until_low_level_failure():
    cfg = BoilerConfig()
    state = boiler.nominal_state(cfg)
    cmd = ActuatorCommand(0.0, 1.0)
    prev = state.water_level
    for k in range(200):
        state, r, failed = boiler.step(cfg, state, cmd, oracles.state_cost(cfg, state), 0.0, 0.0)
        assert state.water_level < prev
        prev = state.water_level
        if failed:
            assert state.water_level < cfg.envelope.level_min
            break
    else:
        pytest.fail("valve-only operation never breached the level floor")


def test_holding_centered_actuators_drifts_into_failure():
    # the pump outsizes the valve, so standing still is not a viable policy
    cfg = BoilerConfig()
    state = boiler.nominal_state(cfg)
    cmd = ActuatorCommand(0.5, 0.5)
    failed_at = None
    for k in range(1, 501):
        state, _, failed = boiler.step(cfg, state, cmd, oracles.state_cost(cfg, state), 0.0, 0.0)
        if failed:
            failed_at = k
            break
    assert failed_at is not None, "centered actuators should drift out of envelope"
    assert failed_at > 100, "the drift should be slow enough to be controllable"


def test_failure_is_absorbing():
    cfg = BoilerConfig()
    dead = make_state(water_level=0.05)
    cmd = ActuatorCommand(1.0, 0.0)
    nxt, r, failed = boiler.step(cfg, dead, cmd, oracles.state_cost(cfg, dead), 5.0, 0.0)
    assert failed
    assert nxt == dead
    assert r == -cfg.failure_penalty


def test_step_without_rng_is_deterministic():
    cfg = BoilerConfig()
    state = boiler.nominal_state(cfg)
    # the plant draws nothing itself: equal inputs give equal steps
    cmd, cost = ActuatorCommand(1.0, 0.5), oracles.state_cost(cfg, state)
    a = boiler.step(cfg, state, cmd, cost, 0.0, 0.0)
    b = boiler.step(cfg, state, cmd, cost, 0.0, 0.0)
    assert a == b
    noisy = boiler.step(cfg, state, cmd, cost, -1.5, 0.0)
    assert noisy == boiler.step(cfg, state, cmd, cost, -1.5, 0.0)
    assert noisy[0].inlet_temp == a[0].inlet_temp - 1.5


def test_step_reward_charges_failure_penalty_once():
    cfg = BoilerConfig()
    state = make_state(water_level=0.16)
    cmd = ActuatorCommand(0.0, 1.0)
    nxt, r, failed = boiler.step(cfg, state, cmd, oracles.state_cost(cfg, state), 0.0, 0.0)
    assert failed
    assert r == oracles.reward(cfg, state, cmd) - cfg.failure_penalty


# -- features and observation -------------------------------------------------------


def test_state_features_zero_at_nominal():
    cfg = BoilerConfig()
    np.testing.assert_array_equal(
        boiler.state_features(cfg, boiler.nominal_state(cfg)), np.zeros(N_STATE_FEATURES)
    )


def test_state_features_are_normalized_deviations():
    cfg = BoilerConfig()
    state = make_state(
        water_level=0.6, pressure=1100.0, outlet_temp=330.0, inlet_temp=90.0,
        pump_pos=1.0, valve_pos=0.0,
    )
    feats = boiler.state_features(cfg, state)
    np.testing.assert_allclose(feats, [0.1, 0.1, 0.1, -0.1, 0.5, -0.5], atol=1e-12)


def test_observe_pads_empty_history_with_zeros():
    cfg = BoilerConfig()
    obs = boiler.observe(cfg, boiler.nominal_state(cfg), None, None)
    assert obs.shape == (OBSERVATION_LENGTH,)
    np.testing.assert_array_equal(obs, np.zeros(OBSERVATION_LENGTH))


def test_observe_orders_history_most_recent_first():
    cfg = BoilerConfig()
    older = make_state(water_level=0.40)
    newer = make_state(water_level=0.60)
    obs = boiler.observe(cfg, older, None, None)
    obs = boiler.observe(cfg, newer, obs, -1.0)
    obs = boiler.observe(cfg, boiler.nominal_state(cfg), obs, -2.0)
    span = N_STATE_FEATURES + 1
    slot0 = obs[N_STATE_FEATURES : N_STATE_FEATURES + span]
    slot1 = obs[N_STATE_FEATURES + span : N_STATE_FEATURES + 2 * span]
    np.testing.assert_allclose(slot0[:N_STATE_FEATURES], boiler.state_features(cfg, newer))
    assert slot0[N_STATE_FEATURES] == -2.0
    np.testing.assert_allclose(slot1[:N_STATE_FEATURES], boiler.state_features(cfg, older))
    assert slot1[N_STATE_FEATURES] == -1.0
    np.testing.assert_array_equal(obs[N_STATE_FEATURES + 2 * span :], 0.0)


def test_observe_keeps_only_the_latest_window():
    cfg = BoilerConfig()
    states = [make_state(water_level=0.30 + 0.02 * k) for k in range(15)]
    obs = boiler.observe(cfg, states[0], None, None)
    for k, state in enumerate(states[1:] + [boiler.nominal_state(cfg)]):
        obs = boiler.observe(cfg, state, obs, float(k))
    span = N_STATE_FEATURES + 1
    rewards = [obs[N_STATE_FEATURES + slot * span + N_STATE_FEATURES] for slot in range(HISTORY_LENGTH)]
    assert rewards == [14.0, 13.0, 12.0, 11.0, 10.0, 9.0, 8.0, 7.0, 6.0, 5.0]
    np.testing.assert_array_equal(
        obs[N_STATE_FEATURES : 2 * N_STATE_FEATURES], boiler.state_features(cfg, states[14])
    )


def test_chained_observe_matches_from_scratch_layout():
    # each observation is the previous one shifted by a slot; over 30 random
    # steps that must equal the window laid out afresh from the whole history
    cfg = BoilerConfig()
    rng = np.random.default_rng(30)
    history = []
    obs = None
    for k in range(30):
        current = BoilerState(
            inlet_temp=float(rng.uniform(60.0, 140.0)),
            outlet_temp=float(rng.uniform(200.0, 440.0)),
            water_level=float(rng.uniform(0.0, 1.0)),
            pressure=float(rng.uniform(500.0, 1700.0)),
            pump_pos=float(rng.choice(ACTUATOR_LEVELS)),
            valve_pos=float(rng.choice(ACTUATOR_LEVELS)),
        )
        if obs is None:
            obs = boiler.observe(cfg, current, None, None)
        else:
            obs = boiler.observe(cfg, current, obs, history[-1][1])
        want = oracles.observation_layout(cfg, current, history, HISTORY_LENGTH)
        assert obs.tobytes() == want.tobytes(), k
        history.append((current, float(rng.normal(-1.0, 2.0))))


def test_observation_length_constant():
    assert OBSERVATION_LENGTH == N_STATE_FEATURES + HISTORY_LENGTH * (N_STATE_FEATURES + 1)
    assert OBSERVATION_LENGTH == 76
