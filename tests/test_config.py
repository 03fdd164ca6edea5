import dataclasses
import math

import pytest
import yaml

from edgeloop.config import (
    ConfigError,
    LatencyConfig,
    RunConfig,
    config_from_dict,
    load_config,
)
from edgeloop.dqn import Hyperparams


def test_empty_file_yields_full_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    cfg = load_config(path)
    assert cfg == RunConfig()
    assert cfg == load_config(None)


def test_stock_agent_defaults():
    agent = load_config(None).agent
    assert agent.learning_rate == 0.01
    assert agent.gamma == 0.95
    assert agent.target_update_freq == 100
    assert agent.batch_size == 16
    assert agent.buffer_capacity == 5000
    assert agent.epsilon_start == 1.0
    assert agent.epsilon_end == 0.05
    assert agent.hidden_layers == [64, 64]
    assert agent.epsilon_decay_fraction == 0.3
    assert agent.warmup == 1000
    assert agent.td_error_clip == 10.0


def test_run_agent_settings_are_the_learner_defaults():
    # one declaration: a bare Hyperparams is what an empty config runs with
    assert config_from_dict({}).agent == Hyperparams()
    assert Hyperparams().td_error_clip == 10.0


def test_run_defaults():
    cfg = load_config(None)
    assert cfg.scenario == "edge-collab"
    assert cfg.controller == "drl"
    assert cfg.seeds == [1, 2, 3, 4, 5]
    assert cfg.episodes == 300
    assert cfg.steps_per_episode == 500
    assert cfg.eval_episodes == 20
    assert cfg.latency == LatencyConfig(
        jitter=0.0, cloud_uplink_ms=700, cloud_downlink_ms=700, edge_uplink_ms=100,
        edge_downlink_ms=100, inter_edge_ms=100, compute_ms=100,
    )


def test_episode_presets_and_override():
    assert config_from_dict({"episode_preset": "day"}).steps_per_episode == 17280
    assert config_from_dict({"max_steps": 42}).steps_per_episode == 42
    with pytest.raises(ConfigError):
        config_from_dict({"episode_preset": "week"})


def test_out_of_range_value_names_the_key_path():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"agent": {"gamma": 1.5}})
    assert "gamma" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"plant": {"w_level": -1.0}})
    assert "plant" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"agent": {"epsilon_end": -0.1}})
    assert "agent" in str(exc.value) and "epsilon_end" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"allocator": {"control_module_intensity": 1.5}})
    assert "allocator" in str(exc.value) and "intensity" in str(exc.value)
    # a section's own ConfigError carries the section prefix too, once
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"allocator": {"load_drift": -1}})
    assert str(exc.value) == "allocator: load_drift must be >= 0"
    # a non-finite number is rejected where it is read, for any float key
    for section, key, value in (("plant", "w_action", math.inf), ("plant", "failure_penalty", math.nan),
                                ("allocator", "load_drift", math.inf), ("plant", "w_temp", 10**400)):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({section: {key: value}})
        assert str(exc.value).startswith(f"{section}.{key}: expected a finite number")
    # plant values that would invert every cost, run the plant backwards or divide by zero
    for key, value in (("deviation_clamp", -1.0), ("pump_gain", -1.0),
                       ("inlet_noise_std_c", -2.0), ("level_setpoint", 0.0)):
        with pytest.raises(ConfigError) as exc:
            config_from_dict({"plant": {key: value}})
        assert str(exc.value).startswith(f"plant: {key} must be")
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"latency": {"jitter": 1.0}})
    assert str(exc.value).startswith("latency: jitter")
    # a serving node has no queue, so compute must fit inside the control period
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"controller": "pid", "scenario": "cloud-only",
                          "latency": {"compute_ms": 6000}})
    assert str(exc.value).startswith("latency: compute_ms must be < 5000")
    # the default warmup (1000) is more than a 500-slot buffer holds
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"agent": {"buffer_capacity": 500}})
    assert str(exc.value).startswith("agent: warmup")
    # a repeated seed would run twice into one metrics file; numpy rejects a negative one mid-run
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"seeds": [1, 2, 1]})
    assert str(exc.value).endswith("seeds must not repeat a seed, got [1, 2, 1]")
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"seeds": [-1]})
    assert str(exc.value).endswith("seeds must be >= 0, got [-1]")
    with pytest.raises(ConfigError, match="seeds"):
        dataclasses.replace(load_config(None), seeds=[1, 1])
    # duplicate ids fail when the config is built, in either scenario
    edge = {"id": "a", "capacity": 4.0, "current_load": 0.5,
            "bandwidth_mbps": 100.0, "compute_rating": 1.0}
    module = {"id": "bg", "load": 1.0, "intensity": 0.5}
    for scenario in ("edge-collab", "cloud-only"):
        for allocator in (
            {"edges": [edge, edge]},
            {"background_modules": [module, module]},
            {"background_modules": [{**module, "id": "boiler-control"}]},
        ):
            with pytest.raises(ConfigError) as exc:
                config_from_dict({"scenario": scenario, "allocator": allocator})
            assert str(exc.value).startswith("allocator: duplicate")


def test_unknown_key_names_the_dotted_path():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"agent": {"learning_rt": 0.1}})
    assert "agent.learning_rt" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"bogus": 1})
    assert "bogus" in str(exc.value)
    # allocator.solve falls back to greedy past its size guard; there is no mode key
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"allocator": {"mode": "exact"}})
    assert "allocator.mode" in str(exc.value)


def test_wrong_type_names_the_key():
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"episodes": "many"})
    assert "episodes" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"agent": {"hidden_layers": [16, "x"]}})
    assert "hidden_layers" in str(exc.value)


def test_nested_overrides_apply(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(
        "scenario: cloud-only\n"
        "controller: pid\n"
        "seeds: [3, 9]\n"
        "agent:\n"
        "  hidden_layers: [32, 32]\n"
        "  td_error_clip: null\n"
        "plant:\n"
        "  inlet_noise_std_c: 0.0\n"
        "latency:\n"
        "  jitter: 0.1\n"
        "pid:\n"
        "  level:\n"
        "    kp: 12.5\n"
    )
    cfg = load_config(path)
    assert cfg.scenario == "cloud-only"
    assert cfg.controller == "pid"
    assert cfg.seeds == [3, 9]
    assert cfg.agent.hidden_layers == [32, 32]
    assert cfg.agent.td_error_clip is None
    assert cfg.plant.inlet_noise_std_c == 0.0
    assert cfg.latency.jitter == 0.1
    assert cfg.pid.level.kp == 12.5


def test_round_trip_through_yaml(tmp_path):
    data = {"scenario": "cloud-only", "episodes": 12, "agent": {"batch_size": 8}}
    path = tmp_path / "dump.yaml"
    path.write_text(yaml.safe_dump(data))
    assert load_config(path) == config_from_dict(data)


def test_invalid_yaml_and_shapes(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("scenario: [unterminated\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    listy = tmp_path / "list.yaml"
    listy.write_text("- a\n- b\n")
    with pytest.raises(ConfigError):
        load_config(listy)


def test_cloud_leg_not_longer_than_edge_leg_fails_when_built():
    # caught while building the config, not when a seed starts running
    with pytest.raises(ConfigError, match="latency: cloud_uplink_ms must exceed"):
        config_from_dict({"latency": {"cloud_uplink_ms": 50}})
    with pytest.raises(ConfigError, match="latency: cloud_downlink_ms must exceed"):
        config_from_dict({"latency": {"edge_downlink_ms": 700}})


def test_scenario_and_controller_validation():
    with pytest.raises(ConfigError):
        config_from_dict({"scenario": "fog"})
    with pytest.raises(ConfigError):
        config_from_dict({"controller": "mpc"})
    with pytest.raises(ConfigError):
        config_from_dict({"seeds": []})
    with pytest.raises(ConfigError):
        config_from_dict({"episodes": -1})
