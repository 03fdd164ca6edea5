import dataclasses
import multiprocessing
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import edgeloop
from edgeloop import allocator, boiler, dqn, experiment, simcore
from edgeloop.boiler import ActuatorCommand, oracle_action
from edgeloop.config import config_from_dict, load_config
from edgeloop.experiment import load_disturbance, metrics_filename, run_experiment, run_seed
from edgeloop.pid import BoilerPid
from edgeloop.reporting import MetricsRecord, percentile, read_metrics, write_metrics

import oracles

# the two cloud legs of a 60 s cloud round trip, past the 5 s control period
SLOW_CLOUD = {"cloud_uplink_ms": 29950, "cloud_downlink_ms": 29950}


def pid_config(**overrides):
    base = {
        "controller": "pid",
        "episodes": 0,
        "eval_episodes": 2,
        "max_steps": 40,
        "seeds": [1],
    }
    base.update(overrides)
    return config_from_dict(base)


# -- reference action and accuracy ----------------------------------------------------


def test_oracle_action_is_deterministic_and_in_range():
    cfg = load_config(None).plant
    state = boiler.reset(cfg, np.random.default_rng(4))
    a = oracle_action(cfg, state, 0.95)
    assert a == oracle_action(cfg, state, 0.95)
    assert 0 <= a < boiler.N_ACTIONS


def test_oracle_action_holds_the_setpoint():
    # at the nominal point every deviation term is zero, so any actuator
    # motion is pure cost and the reference action is to hold
    cfg = load_config(None).plant
    assert boiler.COMMANDS[oracle_action(cfg, boiler.nominal_state(cfg), 0.95)] == ActuatorCommand(0.5, 0.5)


def test_oracle_action_keeps_correcting_once_in_position():
    # with the actuators already at the corrective setting, moving away
    # costs motion and slows recovery, so the reference keeps them there
    cfg = load_config(None).plant
    low = dataclasses.replace(
        boiler.nominal_state(cfg), water_level=0.22, pump_pos=1.0, valve_pos=0.0
    )
    cmd = boiler.COMMANDS[oracle_action(cfg, low, 0.95)]
    assert cmd.pump_level == 1.0
    assert cmd.valve_level == 0.0

    high = dataclasses.replace(
        boiler.nominal_state(cfg), water_level=0.9, pump_pos=0.0, valve_pos=1.0
    )
    cmd = boiler.COMMANDS[oracle_action(cfg, high, 0.95)]
    assert cmd.pump_level == 0.0
    assert cmd.valve_level == 1.0


def test_oracle_action_matches_two_step_brute_force():
    # random states over the whole envelope, a third of them hugging or past
    # one of its bounds, where failing follow-ups decide the action
    cfg = load_config(None).plant
    env = cfg.envelope
    rng = np.random.default_rng(515)
    edges = [
        ("water_level", env.level_min), ("water_level", env.level_max),
        ("pressure", env.pressure_max_kpa), ("outlet_temp", env.outlet_temp_max_c),
    ]
    for k in range(600):
        state = boiler.BoilerState(
            inlet_temp=float(rng.uniform(60.0, 140.0)),
            outlet_temp=float(rng.uniform(200.0, 440.0)),
            water_level=float(rng.uniform(0.1, 1.0)),
            pressure=float(rng.uniform(500.0, 1700.0)),
            pump_pos=float(rng.choice(boiler.ACTUATOR_LEVELS)),
            valve_pos=float(rng.choice(boiler.ACTUATOR_LEVELS)),
        )
        if k % 3 == 0:
            field, bound = edges[int(rng.integers(0, len(edges)))]
            state = dataclasses.replace(state, **{field: bound * float(rng.uniform(0.97, 1.03))})
        gamma = float(rng.uniform(0.5, 0.99))
        want = oracles.brute_force_oracle_action(cfg, state, gamma)
        assert oracle_action(cfg, state, gamma) == want, (k, state)


def test_oracle_action_avoids_certain_failure():
    cfg = load_config(None).plant
    near_ceiling = dataclasses.replace(boiler.nominal_state(cfg), water_level=0.94)
    cmd = boiler.COMMANDS[oracle_action(cfg, near_ceiling, 0.95)]
    cost = oracles.state_cost(cfg, near_ceiling)
    nxt, _, failed = boiler.step(cfg, near_ceiling, cmd, cost, 0.0, 0.0)
    assert not failed


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 0.95) == 95.0
    assert percentile([7], 0.95) == 7.0
    assert percentile([1, 2], 0.5) == 1.0


# -- latency bookkeeping ----------------------------------------------------------------


def test_cloud_only_loop_latency_is_exact_without_jitter():
    result = run_seed(pid_config(scenario="cloud-only"), 1, [])
    assert len(result.records) == 2
    for rec in result.records:
        assert rec.mean_latency_ms == 1500.0
        assert rec.p95_latency_ms == 1500.0
        assert rec.latency_samples == 40
        assert rec.uninterrupted_steps == 40
        assert rec.failure_count == 0


@pytest.mark.parametrize(
    "overrides, expected_ms",
    [
        ({}, 300.0),  # the entry edge serves: sensor -> edge -> sensor
        # the module fits on no edge, so the cloud serves through the entry
        # edge: sensor -> edge -> cloud -> edge -> sensor
        ({"allocator": {"control_module_load": 7.0}}, 1500.0),
        # the relay legs follow the cloud legs: 900 up + 700 down + 100 compute
        ({"latency": {"cloud_uplink_ms": 900}, "allocator": {"control_module_load": 7.0}}, 1700.0),
    ],
    ids=["edge-served", "cloud-served", "cloud-served-longer-uplink"],
)
def test_edge_collab_loop_latency_is_exact_without_jitter(overrides, expected_ms):
    result = run_seed(pid_config(scenario="edge-collab", **overrides), 1, [])
    for rec in result.records:
        assert rec.mean_latency_ms == expected_ms
        assert rec.p95_latency_ms == expected_ms


def test_jittered_latency_stays_within_link_bounds():
    cfg = pid_config(scenario="cloud-only", latency={"jitter": 0.1}, max_steps=100)
    result = run_seed(cfg, 3, [])
    for rec in result.records:
        assert 1350.0 <= rec.mean_latency_ms <= 1650.0
        assert rec.p95_latency_ms <= 1640.0  # 700*1.1 up + down + 100 compute


def test_plant_keeps_the_newest_command_when_commands_arrive_out_of_order(monkeypatch):
    # a ~60 s cloud round trip with 10% jitter lets a command overtake an
    # older one en route; the older one must not replace the newer at the plant
    newest: dict = {}
    counts = {"commands": 0, "overtaken": 0}
    handle = experiment._Episode.handle

    def checked(self, node, body):
        out = handle(self, node, body)
        if node == self.run.sensor_node and isinstance(body, experiment.Command):
            counts["commands"] += 1
            step, action = body.step, body.action
            if step > newest.get(self, (-1, None))[0]:
                newest[self] = (step, action)
            else:
                counts["overtaken"] += 1
            assert self.pending_cmd == boiler.COMMANDS[newest[self][1]]
        return out

    monkeypatch.setattr(experiment._Episode, "handle", checked)
    cfg = pid_config(
        scenario="cloud-only",
        eval_episodes=3,
        max_steps=300,
        latency={**SLOW_CLOUD, "jitter": 0.1},
    )
    records = run_seed(cfg, 1, []).records
    assert counts["overtaken"] > 0
    # every command's latency is still recorded, applied or not
    assert sum(r.latency_samples for r in records) == counts["commands"]


def test_plan_sees_only_the_loads_the_cloud_has_received(monkeypatch):
    # on slow-cloud a load report takes ~29.85 s to reach the cloud, so the
    # edges drift again while older reports are still in flight; every
    # solve must plan on the last load the cloud received from each edge
    cfg = pid_config(
        scenario="edge-collab",
        max_steps=60,
        latency={**SLOW_CLOUD, "jitter": 0.3},
        allocator={"rebalance_interval_steps": 3, "load_drift": 0.8, "load_max": 3.0},
    )
    received = {e.id: e.current_load for e in cfg.allocator.edges}
    receive_report, solve = experiment._SeedRun.receive_report, allocator.solve
    planned = []

    def recorded_receive(self, report):
        received[report.edge] = report.load
        return receive_report(self, report)

    def checked_solve(scored, headroom):
        planned.append(headroom == [e.capacity - received[e.id] for e in cfg.allocator.edges])
        return solve(scored, headroom)

    monkeypatch.setattr(experiment._SeedRun, "receive_report", recorded_receive)
    monkeypatch.setattr(allocator, "solve", checked_solve)
    run_seed(cfg, 5, [])
    assert len(planned) > 10
    assert all(planned)


def test_utilization_is_compute_share_of_the_period():
    result = run_seed(pid_config(), 1, [])
    for rec in result.records:
        assert rec.utilization == pytest.approx(100 / 5000)


# -- determinism --------------------------------------------------------------------------


def test_run_seed_is_reproducible():
    cfg = pid_config(scenario="edge-collab", latency={"jitter": 0.2})
    a = run_seed(cfg, 9, [])
    b = run_seed(cfg, 9, [])
    assert a.records == b.records


def test_drl_run_is_reproducible_and_trains():
    cfg = config_from_dict(
        {
            "controller": "drl",
            "scenario": "edge-collab",
            "episodes": 2,
            "eval_episodes": 1,
            "max_steps": 30,
            "seeds": [2],
            "agent": {"hidden_layers": [16], "warmup": 16},
        }
    )
    a = run_seed(cfg, 2, [])
    b = run_seed(cfg, 2, [])
    assert a.records == b.records
    assert a.divergence is None
    assert [r.phase for r in a.records] == ["train", "train", "eval"]


def test_pid_eval_episodes_replay_the_drl_arms_plants():
    # both controllers see the same eval-phase reset states: the plant stream
    # is derived from (seed, phase, episode), not from the controller
    drl_cfg = config_from_dict(
        {
            "controller": "drl",
            "episodes": 1,
            "eval_episodes": 1,
            "max_steps": 10,
            "seeds": [5],
            "agent": {"hidden_layers": [8]},
        }
    )
    pid_cfg = pid_config(eval_episodes=1, max_steps=10, seeds=[5])
    plant = load_config(None).plant
    drl_reset = boiler.reset(plant, np.random.default_rng([5, 1, 0]))
    pid_reset = boiler.reset(plant, np.random.default_rng([5, 1, 0]))
    assert drl_reset == pid_reset
    # and the harness actually runs both to completion on that stream
    assert run_seed(drl_cfg, 5, []).records[-1].phase == "eval"
    assert run_seed(pid_cfg, 5, []).records[-1].phase == "eval"


def test_plant_steps_apply_the_plant_streams_scalar_draws_in_order(monkeypatch):
    # the episode draws its inlet noise up front; step k must still get the
    # k-th scalar draw after the reset, exactly as drawing per step would
    applied = []
    step = boiler.step

    def recording(config, state, cmd, state_cost, noise_c, inlet_disturbance_c):
        # every call is a plant step: the reference action does not step the plant
        applied.append(noise_c)
        return step(config, state, cmd, state_cost, noise_c, inlet_disturbance_c)

    monkeypatch.setattr(boiler, "step", recording)
    phase_codes = {"train": experiment.PHASE_TRAIN, "eval": experiment.PHASE_EVAL}
    for std in (2.0, 35.0, 0.0):
        applied.clear()
        cfg = pid_config(episodes=1, max_steps=30, seeds=[7], plant={"inlet_noise_std_c": std})
        expected = []
        for rec in run_seed(cfg, 7, []).records:
            twin = np.random.default_rng([7, phase_codes[rec.phase], rec.episode])
            boiler.reset(cfg.plant, twin)
            draws = [float(twin.normal(0.0, std)) for _ in range(rec.uninterrupted_steps)]
            expected += draws if std > 0.0 else [0.0] * rec.uninterrupted_steps
        assert applied == expected
        assert all(type(noise) is float for noise in applied)
        assert applied and (set(applied) == {0.0}) == (std == 0.0)


def test_inlet_noise_drawn_in_chunks_equals_one_long_draw(monkeypatch):
    # the episode draws CHUNK steps of noise at a time; across the chunk
    # boundaries each step gets the value one draw of every step gives it
    applied = []
    step = boiler.step

    def recording(config, state, cmd, state_cost, noise_c, inlet_disturbance_c):
        applied.append(noise_c)
        return step(config, state, cmd, state_cost, noise_c, inlet_disturbance_c)

    monkeypatch.setattr(boiler, "step", recording)
    steps = 2 * simcore.CHUNK + 76
    cfg = pid_config(eval_episodes=1, max_steps=steps, seeds=[7])
    (rec,) = run_seed(cfg, 7, []).records
    assert rec.uninterrupted_steps == steps
    twin = np.random.default_rng([7, experiment.PHASE_EVAL, 0])
    boiler.reset(cfg.plant, twin)
    assert applied == twin.normal(0.0, cfg.plant.inlet_noise_std_c, steps).tolist()


@pytest.mark.parametrize("load_drift", [0.8, 0.0])
def test_load_drift_drawn_in_chunks_equals_one_scalar_draw_per_report(monkeypatch, load_drift):
    # the seed draws CHUNK reports of drift at a time; two episodes of two edges
    # reporting every step cross a refill and an episode boundary, and each
    # report must carry the load a scalar draw per report gives it
    reports = []
    emit_report = experiment._SeedRun.emit_report

    def recorded(self, node):
        report = emit_report(self, node)
        reports.append((node, report))
        return report

    monkeypatch.setattr(experiment._SeedRun, "emit_report", recorded)
    cfg = pid_config(
        scenario="edge-collab",
        max_steps=150,
        allocator={"rebalance_interval_steps": 1, "load_drift": load_drift, "load_max": 3.0},
    )
    run_seed(cfg, 5, [])
    assert len(reports) == 2 * 2 * 150 > simcore.CHUNK
    twin = np.random.default_rng([5, experiment._STREAM_DRIFT])
    loads = {e.id: e.current_load for e in cfg.allocator.edges}
    for node, report in reports:
        edge = cfg.allocator.edges[node - 1].id
        drifted = loads[edge] + twin.normal(0.0, load_drift)
        loads[edge] = min(max(drifted, 0.0), cfg.allocator.load_max)
        assert report == (edge, loads[edge])
    assert (loads == {e.id: e.current_load for e in cfg.allocator.edges}) == (load_drift == 0.0)


def run_cli_in_2_gib(tmp_path, config_text):
    """`edgeloop run` on config_text in a child process limited to a 2 GiB address space."""
    resource = pytest.importorskip("resource")
    config = tmp_path / "run.yaml"
    config.write_text(config_text)
    src = str(Path(edgeloop.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def cap_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30, 2 * 2**30))

    return subprocess.run(
        [sys.executable, "-m", "edgeloop.cli", "run", "--config", str(config), "--out", str(tmp_path / "out")],
        env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=120,
    )


def test_a_huge_step_limit_holds_nothing_per_step_up_front(tmp_path):
    # the plant fails within a few steps; a run that drew or kept anything for
    # each of the ten billion allowed steps would fail under a 2 GiB address space
    proc = run_cli_in_2_gib(
        tmp_path,
        "scenario: cloud-only\ncontroller: pid\nseeds: [1]\nepisodes: 0\n"
        "eval_episodes: 2\nmax_steps: 10000000000\nplant: {pump_gain: 1.0}\n",
    )
    assert proc.returncode == 0, proc.stderr
    records = read_metrics(tmp_path / "out" / "metrics_cloud-only_pid_seed1.jsonl")
    assert [r.failure_count for r in records] == [1, 1]
    assert all(r.uninterrupted_steps < 10 for r in records)


@pytest.mark.parametrize("seeds", ["[1]", "[1, 2]"])  # two seeds fork on a host with two CPUs or more
@pytest.mark.parametrize("agent", ["{buffer_capacity: 10000000000000}", "{hidden_layers: [1000000000000]}"])
def test_a_learner_too_large_to_allocate_is_a_config_error(tmp_path, agent, seeds):
    # both ask for more than a 47-bit address space, so the allocation fails at
    # once; the 2 GiB cap keeps any attempt from reserving memory either way
    proc = run_cli_in_2_gib(
        tmp_path,
        f"scenario: cloud-only\ncontroller: drl\nseeds: {seeds}\nepisodes: 1\n"
        f"eval_episodes: 1\nmax_steps: 10\nagent: {agent}\n",
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("edgeloop: config: agent: the learner does not fit in memory: ")
    assert not (tmp_path / "out").exists()  # the run made it, and wrote nothing into it


def test_a_run_that_stops_before_writing_leaves_an_existing_output_directory(tmp_path):
    (tmp_path / "out").mkdir()
    proc = run_cli_in_2_gib(
        tmp_path,
        "scenario: cloud-only\ncontroller: drl\nseeds: [1]\nepisodes: 1\n"
        "eval_episodes: 1\nmax_steps: 10\nagent: {buffer_capacity: 10000000000000}\n",
    )
    assert proc.returncode == 2, proc.stderr
    assert (tmp_path / "out").is_dir()
    assert list((tmp_path / "out").iterdir()) == []


def test_served_states_are_never_changed_in_place(monkeypatch):
    # BoilerState is mutable; every step must build a new one and leave the old alone
    served = []  # (the state object, its values when served)
    serve = experiment._Episode._serve

    def recorded(self, node, reading):
        served.append((reading.state, dataclasses.astuple(reading.state)))
        serve(self, node, reading)

    monkeypatch.setattr(experiment._Episode, "_serve", recorded)
    drl = {"controller": "drl", "episodes": 1, "eval_episodes": 1, "max_steps": 40, "seeds": [3],
           "agent": {"hidden_layers": [8], "warmup": 4, "batch_size": 4}}
    for cfg in (pid_config(max_steps=60), config_from_dict(drl)):
        served.clear()
        run_seed(cfg, 3, [])
        assert len(served) > 60
        assert all(dataclasses.astuple(state) == values for state, values in served)
        states = [state for state, _ in served]
        assert all(a is not b for a, b in zip(states, states[1:]))


def test_each_step_is_passed_its_from_state_cost(monkeypatch, tmp_path):
    # the episode carries each state's cost from the tick that made it to the
    # step from it; it must have the bits of the cost recomputed from the state
    passed = []  # (the cost passed, the from-state's cost from scratch), as bytes
    step = boiler.step

    def checked(cfg, state, cmd, state_cost, noise_c, inlet_disturbance_c):
        passed.append((struct.pack("<d", state_cost), struct.pack("<d", oracles.state_cost(cfg, state))))
        return step(cfg, state, cmd, state_cost, noise_c, inlet_disturbance_c)

    monkeypatch.setattr(boiler, "step", checked)
    trace = tmp_path / "inlet.csv"
    rows = [f"{60 * k},t,{100.0 + 7.0 * (k % 3)},C" for k in range(4)]
    trace.write_text("\n".join(["timestamp,sensor_id,value,unit", *rows]) + "\n")
    with_trace = pid_config(max_steps=60, trace_file=str(trace), trace_disturbance_scale=3.0)
    drl = {"controller": "drl", "episodes": 1, "eval_episodes": 1, "max_steps": 40, "seeds": [3],
           "agent": {"hidden_layers": [8], "warmup": 4, "batch_size": 4}}
    for cfg, disturbance in ((with_trace, load_disturbance(with_trace)), (config_from_dict(drl), [])):
        passed.clear()
        run_seed(cfg, 3, disturbance)
        assert len(passed) > 60
        assert all(got == want for got, want in passed)
        assert len({got for got, _ in passed}) > 30  # the costs move from step to step


# -- episode mechanics ----------------------------------------------------------------------


def test_failure_ends_the_episode_early_with_the_penalty():
    # an unactuated plant (zero-gain controller) drifts out of the envelope
    cfg = pid_config(
        max_steps=400,
        pid={"level": {"kp": 0.0}, "pressure": {"kp": 0.0}},
        plant={"inlet_noise_std_c": 0.0},
    )
    result = run_seed(cfg, 1, [])
    for rec in result.records:
        assert rec.failure_count == 1
        assert rec.uninterrupted_steps < 400
        assert rec.cumulative_reward < -400.0  # integrates the failure penalty
        assert rec.latency_samples == rec.uninterrupted_steps


def test_episode_that_no_command_reaches_reports_zero_latency_over_zero_samples():
    # on slow-cloud at jitter 0.99 the final reading overtakes the first, so
    # nothing is served before the episode is done
    cfg = config_from_dict({
        "controller": "drl", "scenario": "cloud-only", "episodes": 1, "eval_episodes": 0,
        "max_steps": 1, "seeds": [0], "agent": {"hidden_layers": [4]},
        "latency": {**SLOW_CLOUD, "jitter": 0.99, "compute_ms": 4999},
    })
    (rec,) = run_seed(cfg, 0, []).records
    assert rec.latency_samples == 0
    assert (rec.mean_latency_ms, rec.p95_latency_ms, rec.action_accuracy) == (0.0, 0.0, 0.0)


def test_episode_metrics_record_shape():
    rec = run_seed(pid_config(), 1, []).records[0]
    assert rec.scenario == "edge-collab"
    assert rec.controller == "pid"
    assert rec.phase == "eval"
    assert rec.episode == 0
    assert 0.0 <= rec.action_accuracy <= 1.0
    assert rec.control_loss >= 0.0


def test_accuracy_sampling_interval_sets_the_sample_count():
    # steps 0,10,20,30 of a 40-step episode are scored against the oracle
    cfg = pid_config(accuracy_sample_every=10)
    rec = run_seed(cfg, 1, []).records[0]
    hits = round(rec.action_accuracy * 4)
    assert rec.action_accuracy == pytest.approx(hits / 4)


def test_report_ticks_keep_the_event_queue_bounded_and_outlast_the_plant(monkeypatch):
    # each edge's report tick queues that edge's next one, so the queue holds
    # a few events at a report every step; the ticks still run to the
    # horizon after the plant fails at step 3
    peak = [0]
    handle = experiment._Episode.handle

    def watched(self, node, body):
        # the queue as it stood before this event was taken from it
        peak[0] = max(peak[0], len(self.kernel._queue) + 1)
        return handle(self, node, body)

    reports = []
    emit_report = experiment._SeedRun.emit_report

    def counted(self, node):
        reports.append(node)
        return emit_report(self, node)

    monkeypatch.setattr(experiment._Episode, "handle", watched)
    monkeypatch.setattr(experiment._SeedRun, "emit_report", counted)
    cfg = pid_config(
        scenario="edge-collab",
        eval_episodes=1,
        max_steps=2000,
        plant={"pump_gain": 1.0},
        allocator={"rebalance_interval_steps": 1},
    )
    (rec,) = run_seed(cfg, 1, []).records
    assert rec.uninterrupted_steps < 10
    assert len(reports) == 2 * 2000
    assert 2 <= peak[0] <= 8


# -- the controllers -------------------------------------------------------------------------


def test_learner_records_each_closed_transition_and_acts_on_each_open_reading(monkeypatch):
    log = []  # per served reading: (phase is training, done, [agent calls it made])
    decide = experiment._Learner.decide

    def served(self, reading):
        log.append((self.training, reading.done, []))
        return decide(self, reading)

    monkeypatch.setattr(experiment._Learner, "decide", served)
    for name in ("record", "train", "act"):
        def called(self, *args, _name=name, _real=getattr(dqn.DqnAgent, name), **kwargs):
            log[-1][2].append((_name, args[4]) if _name == "record" else _name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(dqn.DqnAgent, name, called)
    cfg = config_from_dict({
        "controller": "drl", "scenario": "cloud-only", "episodes": 1, "eval_episodes": 1,
        "max_steps": 30, "seeds": [3], "agent": {"hidden_layers": [8], "warmup": 4, "batch_size": 4},
    })
    records = run_seed(cfg, 3, []).records
    assert [r.phase for r in records] == ["train", "eval"]
    train = [calls for training, _, calls in log if training]
    evals = [calls for training, _, calls in log if not training]
    assert [done for _, done, _ in log] == ([False] * 30 + [True]) * 2
    # the first reading closes no transition, and the done reading closes one but gets no action
    assert train[0] == ["act"]
    assert train[1:-1] == [[("record", False), "train", "act"]] * 29
    assert train[-1] == [("record", True), "train"]
    assert evals == [["act"]] * 30 + [[]]


def test_each_episode_starts_its_pid_from_zero_loop_state(monkeypatch):
    # the default gains are proportional only, so the loop state moves no
    # outcome; an integral gain makes it carry from one reading to the next
    first_states = {}  # controller -> the memory of its loops at its first act
    act = BoilerPid.act

    def memory(loop):
        return loop.integral, loop.prev_error, loop.initialized

    def recorded(self, state):
        first_states.setdefault(self, (memory(self.level), memory(self.pressure)))
        return act(self, state)

    monkeypatch.setattr(BoilerPid, "act", recorded)
    cfg = pid_config(eval_episodes=3, max_steps=20, pid={"level": {"kp": 70.0, "ki": 0.5}})
    run_seed(cfg, 1, [])
    assert len(first_states) == 3
    assert all(states == ((0.0, 0.0, False),) * 2 for states in first_states.values())
    assert all(ctl.level.integral != 0.0 for ctl in first_states)
    # no loop object is shared between episodes, or between an episode's two loops
    loops = [loop for ctl in first_states for loop in (ctl.level, ctl.pressure)]
    assert len({id(loop) for loop in loops}) == 6


# -- disturbance wiring -----------------------------------------------------------------------


def test_load_disturbance_scales_trace_deviations(tmp_path):
    trace = tmp_path / "inlet.csv"
    trace.write_text(
        "timestamp,sensor_id,value,unit\n0,t,100.0,C\n60,t,102.0,C\n"
    )
    cfg = config_from_dict(
        {"trace_file": str(trace), "trace_sensor": "t", "trace_disturbance_scale": 2.0}
    )
    offsets = load_disturbance(cfg)
    assert len(offsets) == 24
    assert offsets[:12] == [0.0] * 12
    assert offsets[12:] == [4.0] * 12


@pytest.mark.parametrize(
    "b_first_ts",
    [10, 0],
    ids=["earliest-first-sample", "equal-first-samples-take-the-smaller-id"],
)
def test_unset_trace_sensor_uses_the_earliest_sampled_sensor(tmp_path, b_first_ts):
    # b is listed first; a is sampled earlier, or at the same time with the smaller id
    trace = tmp_path / "inlet.csv"
    trace.write_text(
        "timestamp,sensor_id,value,unit\n"
        f"{b_first_ts},b,50.0,C\n0,a,100.0,C\n{b_first_ts + 60},b,40.0,C\n60,a,102.0,C\n"
    )

    def offsets(sensor):
        return load_disturbance(config_from_dict(
            {"trace_file": str(trace), "trace_sensor": sensor, "trace_disturbance_scale": 2.0}
        ))

    assert offsets(None) == offsets("a") == [0.0] * 12 + [4.0] * 12
    assert offsets("b") == [0.0] * 12 + [-20.0] * 12


def test_disturbance_stops_at_the_episode_length(tmp_path):
    # held in full, the first reading would fill 2 x 10^11 slots
    trace = tmp_path / "inlet.csv"
    trace.write_text("timestamp,sensor_id,value,unit\n0,t,100.0,C\n1000000000000,t,102.0,C\n")
    cfg = pid_config(trace_file=str(trace), trace_disturbance_scale=2.0)
    assert load_disturbance(cfg) == [0.0] * cfg.steps_per_episode


def test_no_trace_means_no_disturbance():
    assert load_disturbance(load_config(None)) == []


def test_disturbed_run_differs_from_undisturbed(tmp_path):
    trace = tmp_path / "inlet.csv"
    rows = ["timestamp,sensor_id,value,unit"]
    rows += [f"{60 * k},t,{100.0 + 5.0 * (k % 3)},C" for k in range(4)]
    trace.write_text("\n".join(rows) + "\n")
    base = pid_config(plant={"inlet_noise_std_c": 0.0})
    disturbed = dataclasses.replace(
        base, trace_file=str(trace), trace_sensor="t", trace_disturbance_scale=3.0
    )
    a = run_seed(base, 1, [])
    b = run_seed(disturbed, 1, load_disturbance(disturbed))
    assert a.records != b.records


# -- persistence ----------------------------------------------------------------------------


def test_metrics_round_trip_and_filenames(tmp_path):
    cfg = pid_config()
    result = run_seed(cfg, 1, [])
    path = tmp_path / metrics_filename(cfg, 1)
    assert path.name == "metrics_edge-collab_pid_seed1.jsonl"
    write_metrics(result.records, path)
    loaded = read_metrics(path)
    assert loaded == result.records
    assert MetricsRecord(**dataclasses.asdict(result.records[0])) == result.records[0]


def test_run_experiment_writes_files_per_seed(tmp_path):
    cfg = pid_config(seeds=[1, 2])
    result = run_experiment(cfg, out_dir=str(tmp_path))
    assert sorted(result.metrics_paths) == [1, 2]
    for seed, path in result.metrics_paths.items():
        assert read_metrics(path) == result.results[seed].records
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("seed,scenario,controller,diverged")
    assert len(summary) == 3
    assert all(r.phase == "eval" for r in result.results[1].records + result.results[2].records)


# -- seeds in forked workers ------------------------------------------------------------


def _children(pid: int) -> set[int]:
    """The live child pids of every thread of process pid, from /proc."""
    found = set()
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found |= {int(p) for p in path.read_text().split()}
        except FileNotFoundError:
            pass  # the thread exited
    return found


def _cpus(monkeypatch, n: int) -> None:
    # run_experiment takes one worker per CPU this process may use
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


SWEEPS = {
    "pid": pid_config(seeds=[1, 2, 3], scenario="edge-collab", latency={"jitter": 0.2}),
    "drl": config_from_dict(
        {
            "controller": "drl",
            "episodes": 2,
            "eval_episodes": 1,
            "max_steps": 30,
            "seeds": [4, 2],
            "agent": {"hidden_layers": [16], "warmup": 16},
        }
    ),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_parallel_sweep_equals_each_seed_run_in_process(monkeypatch, tmp_path, name):
    cfg = SWEEPS[name]
    _cpus(monkeypatch, len(cfg.seeds))
    parallel = run_experiment(cfg, str(tmp_path / "parallel"))
    assert parallel.results == {seed: run_seed(cfg, seed, []) for seed in cfg.seeds}
    assert list(parallel.results) == cfg.seeds
    _cpus(monkeypatch, 1)
    serial = run_experiment(cfg, str(tmp_path / "serial"))
    assert serial.results == parallel.results
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "parallel").iterdir())
    assert len(names) == len(cfg.seeds) + 1
    for file_name in names:
        assert (tmp_path / "parallel" / file_name).read_bytes() == (
            tmp_path / "serial" / file_name
        ).read_bytes()


def _flaky_run_seed(failure):
    real = experiment.run_seed

    def run(cfg, seed, disturbance):
        if seed == 2:
            failure()
        return real(cfg, seed, disturbance)

    return run


def _raise():
    raise RuntimeError("seed 2 broke")


@pytest.mark.parametrize(
    "failure, expected",
    [
        (_raise, "seed 2 broke"),
        # a worker that dies without sending must not leave the parent waiting
        (lambda: os._exit(3), "worker for seed 2 exited with code 3 before sending"),
    ],
)
def test_failing_seed_re_raises_in_the_parent_and_leaves_no_worker(monkeypatch, tmp_path, failure, expected):
    before = _children(os.getpid())
    monkeypatch.setattr(experiment, "run_seed", _flaky_run_seed(failure))  # forked workers inherit it
    _cpus(monkeypatch, 3)
    cfg = pid_config(seeds=[1, 2, 3], eval_episodes=20, max_steps=200)
    with pytest.raises(RuntimeError, match=expected):
        run_experiment(cfg, str(tmp_path))
    assert multiprocessing.active_children() == []
    assert _children(os.getpid()) <= before


def _process_state(pid: int) -> str | None:
    """The one-letter state of process pid, or None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or not Path(f"/proc/{os.getpid()}/task").is_dir(),
    reason="needs /proc and sched_getaffinity",
)
def test_workers_die_with_a_killed_parent(tmp_path):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one CPU: the seeds run in the parent process")
    if not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists():
        pytest.skip("no /proc/<pid>/task/<tid>/children on this kernel")
    config = tmp_path / "run.yaml"
    config.write_text(
        "scenario: cloud-only\ncontroller: pid\nseeds: [1, 2]\n"
        "episodes: 0\neval_episodes: 1000\nmax_steps: 500\n"
    )
    src = str(Path(edgeloop.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    parent = subprocess.Popen(
        [sys.executable, "-m", "edgeloop.cli", "run", "--config", str(config), "--out", str(tmp_path / "out")],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    workers: set[int] = set()
    alive: set[int] = set()
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline and parent.poll() is None:
            workers = _children(parent.pid)
            time.sleep(0.02)
        assert len(workers) == 2, f"found workers {workers}"
        parent.send_signal(signal.SIGKILL)
        parent.wait()
        deadline = time.monotonic() + 5
        alive = workers
        while alive and time.monotonic() < deadline:
            alive = {pid for pid in workers if _process_state(pid) not in (None, "Z")}
            time.sleep(0.05)
        assert alive == set()
    finally:
        if parent.poll() is None:
            parent.kill()
            parent.wait()
        for pid in alive:  # only workers that outlived the deadline
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
