"""Property checks over configs drawn at the edges of their valid ranges.

Each drawn config either fails when it is built, with a ConfigError that
names the offending key, or runs; a run must give finite metrics, a
utilization within [0, 1], and the same bytes when it is run again. A
valid config's run keeps the invariants _CheckedEpisode lists. The
reference action must equal the full two-step enumeration for any valid
plant and any state, inside, at or past the safety envelope, with the
actuators on or off their grid, and reset and step must keep every state
inside the plant's bounds. Two fixed runs at
the edge of the range must finish within a 2 GiB address space: a plant
that fails at once while two edges report every step to a far horizon,
and the widest instance the exact allocator takes.
"""

import dataclasses
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np

from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeloop import allocator, boiler, experiment
from edgeloop.boiler import oracle_action
from edgeloop.config import ConfigError, config_from_dict
from edgeloop.experiment import run_experiment, run_seed
from edgeloop.reporting import read_metrics

import oracles
from test_experiment import run_cli_in_2_gib

TIGHT_EDGE = {"id": "tight", "capacity": 1.0, "current_load": 0.9,
              "bandwidth_mbps": 10.0, "compute_rating": 0.1}


@st.composite
def run_configs(draw):
    """A valid config dict with values at the edges of their ranges.

    Each list starts with its most extreme value, the one hypothesis favours:
    jitter 0.99, for one, reorders messages on every route.
    """
    replay = draw(st.sampled_from([1, 2, 8]))  # buffer = batch = warmup
    config = {
        "scenario": draw(st.sampled_from(["edge-collab", "cloud-only"])),
        "controller": draw(st.sampled_from(["drl", "pid"])),
        "seeds": [draw(st.integers(0, 2**16))],
        "episodes": draw(st.sampled_from([1, 0, 2])),
        "eval_episodes": draw(st.sampled_from([0, 1, 2])),
        "max_steps": draw(st.sampled_from([1, 40, 2, 17])),
        "accuracy_sample_every": draw(st.sampled_from([1, 3, 10])),
        "latency": {
            # a 60 s cloud round trip, or the default 1.4 s
            **draw(st.sampled_from([{"cloud_uplink_ms": 29950, "cloud_downlink_ms": 29950}, {}])),
            "jitter": draw(st.sampled_from([0.99, 0.0, 0.1, 0.5])),
            "compute_ms": draw(st.sampled_from([4999, 1, 100])),
        },
        "plant": {"inlet_noise_std_c": draw(st.sampled_from([40.0, 0.0, 2.0]))},
        "agent": {"hidden_layers": [4], "batch_size": replay,
                  "buffer_capacity": replay, "warmup": replay},
        "allocator": {"rebalance_interval_steps": draw(st.sampled_from([1, 7]))},
    }
    if draw(st.booleans()):
        config["allocator"]["edges"] = [TIGHT_EDGE]
    return config


@st.composite
def edge_configs(draw):
    """A config dict and, when a value is out of range, the start of its error."""
    config = draw(run_configs())
    replay = config["agent"]["warmup"]
    # about one config in four has one value just past its range
    if draw(st.integers(0, 3)) < 3:
        return config, None
    section, key, value = draw(st.sampled_from(
        [("latency", "jitter", 1.0), ("latency", "compute_ms", 5000),
         ("agent", "warmup", replay + 1), (None, "max_steps", 0),
         ("plant", "w_action", math.inf), ("plant", "failure_penalty", math.nan),
         ("plant", "deviation_clamp", -1.0), ("plant", "pump_gain", -1.0),
         ("plant", "inlet_noise_std_c", -2.0), ("plant", "level_setpoint", 0.0),
         ("plant", "level_setpoint", 1.5), ("latency", "cloud_uplink_ms", 2**31),
         ("allocator", "load_drift", math.inf)]
    ))
    (config[section] if section else config)[key] = value
    if isinstance(value, float) and not math.isfinite(value):
        return config, f"{section}.{key}: "  # rejected as it is read, by its dotted path
    return config, f"{section or 'config'}: {key}"


def _run_bytes(cfg, out_dir):
    """The run's result and the bytes of each file it wrote, by file name."""
    result = run_experiment(cfg, str(out_dir))
    paths = [Path(p) for p in (*result.metrics_paths.values(), result.summary_path)]
    return result, {p.name: p.read_bytes() for p in paths}


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(edge_configs())
def test_edge_of_range_configs_fail_by_key_or_run_cleanly(tmp_path_factory, drawn):
    data, broken = drawn
    try:
        cfg = config_from_dict(data)
    except ConfigError as exc:
        assert broken is not None and str(exc).startswith(broken), (str(exc), broken)
        return
    assert broken is None, f"{broken} out of range was accepted"
    result, first = _run_bytes(cfg, tmp_path_factory.mktemp("a"))
    _, second = _run_bytes(cfg, tmp_path_factory.mktemp("b"))
    assert first == second
    for seed_result in result.results.values():
        for rec in seed_result.records:
            assert 0.0 <= rec.utilization <= 1.0
            for name, value in vars(rec).items():
                if isinstance(value, float):
                    assert math.isfinite(value), (name, value)


def test_a_plant_that_fails_at_once_reports_to_the_horizon_in_2_gib(tmp_path):
    # the plant fails at step 3, and both edges' report ticks run on to step
    # 100,000: about 200,000 reports, each drawing its edge's drift
    proc = run_cli_in_2_gib(
        tmp_path,
        "scenario: edge-collab\ncontroller: pid\nseeds: [1]\nepisodes: 0\neval_episodes: 1\n"
        "max_steps: 100000\nplant: {pump_gain: 1.0}\nallocator: {rebalance_interval_steps: 1}\n",
    )
    assert proc.returncode == 0, proc.stderr
    (rec,) = read_metrics(tmp_path / "out" / "metrics_edge-collab_pid_seed1.jsonl")
    assert (rec.failure_count, rec.uninterrupted_steps) == (1, 3)


def _one_edge_config(background):
    return {
        "scenario": "edge-collab", "controller": "pid", "seeds": [1], "episodes": 0,
        "eval_episodes": 1, "max_steps": 40,
        "allocator": {
            "rebalance_interval_steps": 1,
            "edges": [{"id": "edge-0", "capacity": 6.0, "current_load": 0.5}],
            # distinct loads, 6.2 with the control module's: just past what the edge takes
            "background_modules": [{"id": f"bg-{k}", "load": round(0.1 + 0.013 * k, 3)}
                                   for k in range(background)],
        },
    }


def test_the_widest_exact_instance_runs_with_its_full_table_in_2_gib(tmp_path):
    # one edge and 23 modules: 2^23 placements, the most the exact search
    # takes, and a subset-sum table of 2^23 - 1 floats (64 MiB)
    data = _one_edge_config(22)
    proc = run_cli_in_2_gib(tmp_path, json.dumps(data))
    assert proc.returncode == 0, proc.stderr
    (rec,) = read_metrics(tmp_path / "out" / "metrics_edge-collab_pid_seed1.jsonl")
    assert rec.uninterrupted_steps == 40

    def table(cfg):
        pool = cfg.allocator
        modules = [pool.control_module(), *pool.background_modules]
        return allocator.prepare(modules, pool.edges, pool.weights).sums

    assert table(config_from_dict(data)).shape == (2**23 - 1,)
    # one module more is past the guard: greedy, and no table
    assert table(config_from_dict(_one_edge_config(23))) is None


MESSAGES = (experiment.Reading, experiment.Command, experiment.Report)


class _CheckedEpisode(experiment._Episode):
    """An episode that checks the run invariants on what its kernel delivers.

    Every command's latency is at least the minimum delay of the route its
    reading and command took plus the compute time (and at most its maximum
    delay plus the compute time); the steps of the commands the plant
    applies strictly increase; and once the kernel has drained, every
    message sent was delivered (the ticks are scheduled, not sent).
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.server_of = {}  # reading step -> the node that served it
        self.applied = []
        self.sent = 0
        self.delivered = 0
        send = self.kernel.send

        def counted_send(*args, **kwargs):
            self.sent += 1
            return send(*args, **kwargs)

        self.kernel.send = counted_send

    def _route_ms(self, step):
        """The least and the most a loop over this reading's route can take."""
        run = self.run
        sensor, entry, server = run.sensor_node, run.entry_node, self.server_of[step]
        hops = [(sensor, entry), (entry, sensor)]
        if server != entry:
            hops += [(entry, server), (server, entry)]
        ranges = [run.links[hop] for hop in hops]
        return (run.compute_ms + sum(low for low, _ in ranges),
                run.compute_ms + sum(high for _, high in ranges))

    def handle(self, node, body):
        # a tick carries the plant's step (an int) or, at an edge, None
        self.delivered += isinstance(body, MESSAGES)
        if node == self.run.sensor_node and isinstance(body, experiment.Command):
            latency = self.kernel.clock - body.emit_ms
            least, most = self._route_ms(body.step)
            assert least <= latency <= most, (latency, least, most, body)
        before = self.cmd_step
        super().handle(node, body)
        if self.cmd_step != before:
            self.applied.append(self.cmd_step)

    def _serve(self, node, reading):
        self.server_of[reading.step] = node
        super()._serve(node, reading)

    def run_to_completion(self):
        record = super().run_to_completion()
        assert all(a < b for a, b in zip(self.applied, self.applied[1:])), self.applied
        assert len(self.latencies) >= len(self.applied)
        assert self.sent == self.delivered > 0
        return record


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(run_configs())
def test_runs_keep_their_invariants_on_jittered_and_slow_routes(data):
    cfg = config_from_dict(data)
    with mock.patch.object(experiment, "_Episode", _CheckedEpisode):
        run_seed(cfg, cfg.seeds[0], [])


@st.composite
def plants_and_states(draw):
    """A valid plant, a state near one of its envelope bounds, and a discount.

    The weights are sometimes all zero, or zero on motion only, so that many
    commands tie; the two small deviation clamps bind on most states.
    """
    weights = {"w_level": 1.0, "w_pressure": 0.3, "w_temp": 0.2, "w_action": 0.1}
    zeroed = draw(st.sampled_from([(), ("w_action",), tuple(weights)]))
    for name in weights:
        weights[name] = 0.0 if name in zeroed else draw(st.sampled_from([weights[name], 2.5, 0.01]))
    level_min = draw(st.sampled_from([0.15, 0.0, 0.45]))
    envelope = boiler.SafetyEnvelope(
        level_min=level_min,
        level_max=draw(st.sampled_from([0.95, 1.0, level_min + 0.3])),
        pressure_max_kpa=draw(st.sampled_from([1600.0, 1000.0, 1250.0])),
        outlet_temp_max_c=draw(st.sampled_from([420.0, 300.0, 360.0])),
    )
    cfg = boiler.BoilerConfig(
        level_setpoint=draw(st.sampled_from([0.5, 0.3, 0.8])),
        pressure_setpoint_kpa=draw(st.sampled_from([1000.0, 600.0, 1400.0])),
        outlet_setpoint_c=draw(st.sampled_from([300.0, 200.0, 410.0])),
        pump_gain=draw(st.sampled_from([0.0035, 0.0, 0.01])),
        valve_gain=draw(st.sampled_from([0.0025, 0.0, 0.01])),
        pressure_rate=draw(st.sampled_from([0.04, 0.0, 0.1])),
        pressure_valve_span=draw(st.sampled_from([0.4, 0.0, 1.0])),
        temp_rate=draw(st.sampled_from([0.02, 0.0, 0.1])),
        heat_gain_c=draw(st.sampled_from([250.0, 0.0, 300.0])),
        level_cooling_c=draw(st.sampled_from([100.0, 0.0, 300.0])),
        failure_penalty=draw(st.sampled_from([500.0, 0.0, 1.0])),
        deviation_clamp=draw(st.sampled_from([100.0, 0.02, 1e-4])),
        envelope=envelope,
        **weights,
    )
    # uniform inside the envelope, where st.floats would favour the ends
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def inside(low, high):
        return float(rng.uniform(low, high))

    values = {
        "water_level": inside(envelope.level_min, envelope.level_max),
        "pressure": inside(0.5 * cfg.pressure_setpoint_kpa, envelope.pressure_max_kpa),
        "outlet_temp": inside(0.7 * cfg.outlet_setpoint_c, envelope.outlet_temp_max_c),
    }
    # move one value to just inside, onto or past one bound; the others stay inside
    field, bound, outward = draw(st.sampled_from([
        ("water_level", envelope.level_min, -1.0),
        ("water_level", envelope.level_max, 1.0),
        ("pressure", envelope.pressure_max_kpa, 1.0),
        ("outlet_temp", envelope.outlet_temp_max_c, 1.0),
    ]))
    where = draw(st.sampled_from(["drawn", "at", "inside", "drawn", "inside", "past", "far"]))
    if where != "drawn":
        value = {
            "at": bound,
            "inside": math.nextafter(bound, -outward * math.inf),
            "past": math.nextafter(bound, outward * math.inf),
            "far": bound + outward * 0.05 * max(bound, 1.0),
        }[where]
        top = 1.0 if field == "water_level" else (2500.0 if field == "pressure" else boiler.TEMP_MAX_C)
        values[field] = min(max(value, 0.0), top)
    state = boiler.BoilerState(
        inlet_temp=inside(50.0, 150.0),
        pump_pos=draw(st.sampled_from(boiler.ACTUATOR_LEVELS)),
        valve_pos=draw(st.sampled_from(boiler.ACTUATOR_LEVELS)),
        **values,
    )
    return cfg, state, draw(st.sampled_from([0.95, 0.0, 0.5, 1.0]))


_PLANT = boiler.BoilerConfig()
_UNWEIGHTED = boiler.BoilerConfig(w_level=0.0, w_pressure=0.0, w_temp=0.0, w_action=0.0)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(plants_and_states())
# myopic, one step below the level ceiling while pumping in: holding the
# actuators moves least but fails, so only the failure penalty decides
@example((_PLANT, boiler.BoilerState(100.0, 300.0, 0.949, 1000.0, 1.0, 0.0), 0.0))
# no weights: all nine commands tie at 0.0 and the lowest index must win
@example((_UNWEIGHTED, boiler.nominal_state(_UNWEIGHTED), 0.95))
def test_oracle_action_equals_two_step_enumeration_on_any_plant(drawn):
    cfg, state, gamma = drawn
    assert oracle_action(cfg, state, gamma) == oracles.brute_force_oracle_action(cfg, state, gamma)


@st.composite
def plants_and_off_grid_states(draw):
    """plants_and_states' plants, states and discounts, with both actuators anywhere in [0, 1]."""
    cfg, state, gamma = draw(plants_and_states())
    pump, valve = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, 1.0, size=2)
    return cfg, dataclasses.replace(state, pump_pos=float(pump), valve_pos=float(valve)), gamma


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(plants_and_off_grid_states())
def test_oracle_action_equals_two_step_enumeration_off_the_actuator_grid(drawn):
    # runs only hold the nine grid positions; off them every motion differs,
    # so the search's visit order and its stop differ from state to state
    cfg, state, gamma = drawn
    assert oracle_action(cfg, state, gamma) == oracles.brute_force_oracle_action(cfg, state, gamma)


def _in_bounds(state):
    return (0.0 <= state.water_level <= 1.0 and state.pressure >= 0.0
            and 0.0 <= state.inlet_temp <= boiler.TEMP_MAX_C
            and 0.0 <= state.outlet_temp <= boiler.TEMP_MAX_C)


_HOT = boiler.BoilerConfig(heat_gain_c=1000.0, temp_rate=0.2)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(plants_and_states())
# one step aims the outlet at 1,050 C, past the ceiling the drawn plants never reach
@example((_HOT, boiler.nominal_state(_HOT), 0.95))
def test_reset_and_step_keep_the_state_in_bounds(drawn):
    # the bounds the plant code relies on, which no run-time check guards
    cfg, state, _ = drawn
    for plant in (cfg, dataclasses.replace(cfg, reset_noise_scale=0.0)):
        assert _in_bounds(boiler.reset(plant, np.random.default_rng(0)))
    for cmd in boiler.COMMANDS:
        for noise in (0.0, 1e6, -1e6):
            landed = boiler.step(cfg, state, cmd, oracles.state_cost(cfg, state), noise, 0.0)[0]
            assert _in_bounds(landed), (cmd, noise)
