import dataclasses
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import edgeloop
from edgeloop import allocator, boiler, experiment
from edgeloop.boiler import ActuatorCommand
from edgeloop.config import config_from_dict, load_config
from edgeloop.experiment import (
    _percentile,
    load_disturbance,
    metrics_filename,
    oracle_action,
    run_experiment,
    run_seed,
    write_metrics,
)
from edgeloop.reporting import read_metrics

import oracles


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
    assert oracle_action(cfg, boiler.nominal_state(cfg), 0.95) == ActuatorCommand(0.5, 0.5).to_index()


def test_oracle_action_keeps_correcting_once_in_position():
    # with the actuators already at the corrective setting, moving away
    # costs motion and slows recovery, so the reference keeps them there
    cfg = load_config(None).plant
    low = dataclasses.replace(
        boiler.nominal_state(cfg), water_level=0.22, pump_pos=1.0, valve_pos=0.0
    )
    cmd = ActuatorCommand.from_index(oracle_action(cfg, low, 0.95))
    assert cmd.pump_level == 1.0
    assert cmd.valve_level == 0.0

    high = dataclasses.replace(
        boiler.nominal_state(cfg), water_level=0.9, pump_pos=0.0, valve_pos=1.0
    )
    cmd = ActuatorCommand.from_index(oracle_action(cfg, high, 0.95))
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
    cmd = ActuatorCommand.from_index(oracle_action(cfg, near_ceiling, 0.95))
    nxt, _, failed = boiler.step(cfg, near_ceiling, cmd)
    assert not failed


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert _percentile(values, 0.95) == 95.0
    assert _percentile([7], 0.95) == 7.0
    assert _percentile([1, 2], 0.5) == 1.0


# -- latency bookkeeping ----------------------------------------------------------------


def test_cloud_only_loop_latency_is_exact_without_jitter():
    result = run_seed(pid_config(scenario="cloud-only"), seed=1)
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
    ],
    ids=["edge-served", "cloud-served"],
)
def test_edge_collab_loop_latency_is_exact_without_jitter(overrides, expected_ms):
    result = run_seed(pid_config(scenario="edge-collab", **overrides), seed=1)
    for rec in result.records:
        assert rec.mean_latency_ms == expected_ms
        assert rec.p95_latency_ms == expected_ms


def test_jittered_latency_stays_within_link_bounds():
    cfg = pid_config(scenario="cloud-only", latency={"jitter": 0.1}, max_steps=100)
    result = run_seed(cfg, seed=3)
    for rec in result.records:
        assert 1350.0 <= rec.mean_latency_ms <= 1650.0
        assert rec.p95_latency_ms <= 1640.0  # 700*1.1 up + down + 100 compute


def test_plant_keeps_the_newest_command_when_commands_arrive_out_of_order(monkeypatch):
    # a ~60 s cloud round trip with 10% jitter lets a command overtake an
    # older one en route; the older one must not replace the newer at the plant
    newest: dict = {}
    counts = {"commands": 0, "overtaken": 0}
    handle_sensor = experiment._Episode.handle_sensor

    def checked(self, event):
        out = handle_sensor(self, event)
        if event.kind == "control-command":
            counts["commands"] += 1
            step, action = event.body["step"], event.body["action"]
            if step > newest.get(self, (-1, None))[0]:
                newest[self] = (step, action)
            else:
                counts["overtaken"] += 1
            assert self.pending_cmd == ActuatorCommand.from_index(newest[self][1])
        return out

    monkeypatch.setattr(experiment._Episode, "handle_sensor", checked)
    cfg = pid_config(
        scenario="cloud-only",
        eval_episodes=3,
        max_steps=300,
        latency={"preset": "slow-cloud", "jitter": 0.1},
    )
    records = run_seed(cfg, 1).records
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
        latency={"preset": "slow-cloud", "jitter": 0.3},
        allocator={"rebalance_interval_steps": 3, "load_drift": 0.8, "load_max": 3.0},
    )
    received = {e.id: e.current_load for e in cfg.allocator.edges}
    receive_report, solve = experiment._SeedRun.receive_report, allocator.solve
    planned = []

    def recorded_receive(self, body):
        received[body["edge"]] = body["load"]
        return receive_report(self, body)

    def checked_solve(modules, resources, weights):
        planned.append({r.id: r.current_load for r in resources} == received)
        return solve(modules, resources, weights)

    monkeypatch.setattr(experiment._SeedRun, "receive_report", recorded_receive)
    monkeypatch.setattr(allocator, "solve", checked_solve)
    run_seed(cfg, seed=5)
    assert len(planned) > 10
    assert all(planned)


def test_utilization_is_compute_share_of_the_period():
    result = run_seed(pid_config(), seed=1)
    for rec in result.records:
        assert rec.utilization == pytest.approx(100 / 5000)


# -- determinism --------------------------------------------------------------------------


def test_run_seed_is_reproducible():
    cfg = pid_config(scenario="edge-collab", latency={"jitter": 0.2})
    a = run_seed(cfg, seed=9)
    b = run_seed(cfg, seed=9)
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
    a = run_seed(cfg, seed=2)
    b = run_seed(cfg, seed=2)
    assert a.records == b.records
    assert not a.diverged
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
    assert run_seed(drl_cfg, 5).records[-1].phase == "eval"
    assert run_seed(pid_cfg, 5).records[-1].phase == "eval"


def test_plant_steps_apply_the_plant_streams_scalar_draws_in_order(monkeypatch):
    # the episode draws its inlet noise up front; step k must still get the
    # k-th scalar draw after the reset, exactly as drawing per step would
    applied = []
    step = boiler.step

    def recording(config, state, cmd, noise_c=None, inlet_disturbance_c=0.0):
        if noise_c is not None:  # the oracle's probes pass no noise
            applied.append(noise_c)
            return step(config, state, cmd, noise_c, inlet_disturbance_c)
        return step(config, state, cmd, inlet_disturbance_c=inlet_disturbance_c)

    monkeypatch.setattr(boiler, "step", recording)
    phase_codes = {"train": experiment.PHASE_TRAIN, "eval": experiment.PHASE_EVAL}
    for std in (2.0, 35.0, 0.0):
        applied.clear()
        cfg = pid_config(episodes=1, max_steps=30, seeds=[7], plant={"inlet_noise_std_c": std})
        expected = []
        for rec in run_seed(cfg, 7).records:
            twin = np.random.default_rng([7, phase_codes[rec.phase], rec.episode])
            boiler.reset(cfg.plant, twin)
            draws = [float(twin.normal(0.0, std)) for _ in range(rec.uninterrupted_steps)]
            expected += draws if std > 0.0 else [0.0] * rec.uninterrupted_steps
        assert applied == expected
        assert all(type(noise) is float for noise in applied)
        assert applied and (set(applied) == {0.0}) == (std == 0.0)


# -- episode mechanics ----------------------------------------------------------------------


def test_failure_ends_the_episode_early_with_the_penalty():
    # an unactuated plant (zero-gain controller) drifts out of the envelope
    cfg = pid_config(
        max_steps=400,
        pid={"level": {"kp": 0.0}, "pressure": {"kp": 0.0}},
        plant={"inlet_noise_std_c": 0.0},
    )
    result = run_seed(cfg, seed=1)
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
        "latency": {"preset": "slow-cloud", "jitter": 0.99, "compute_ms": 4999},
    })
    (rec,) = run_seed(cfg, 0).records
    assert rec.latency_samples == 0
    assert (rec.mean_latency_ms, rec.p95_latency_ms, rec.action_accuracy) == (0.0, 0.0, 0.0)


def test_episode_metrics_record_shape():
    rec = run_seed(pid_config(), seed=1).records[0]
    assert rec.scenario == "edge-collab"
    assert rec.controller == "pid"
    assert rec.phase == "eval"
    assert rec.episode == 0
    assert 0.0 <= rec.action_accuracy <= 1.0
    assert rec.control_loss >= 0.0


def test_accuracy_sampling_interval_sets_the_sample_count():
    # steps 0,10,20,30 of a 40-step episode are scored against the oracle
    cfg = pid_config(accuracy_sample_every=10)
    rec = run_seed(cfg, seed=1).records[0]
    hits = round(rec.action_accuracy * 4)
    assert rec.action_accuracy == pytest.approx(hits / 4)


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
    a = run_seed(base, seed=1)
    b = run_seed(disturbed, seed=1)
    assert a.records != b.records


# -- persistence ----------------------------------------------------------------------------


def test_metrics_round_trip_and_filenames(tmp_path):
    cfg = pid_config()
    result = run_seed(cfg, seed=1)
    path = tmp_path / metrics_filename(cfg, 1)
    assert path.name == "metrics_edge-collab_pid_seed1.jsonl"
    write_metrics(result.records, path)
    loaded = read_metrics(path)
    assert loaded == result.records
    assert experiment.MetricsRecord(**dataclasses.asdict(result.records[0])) == result.records[0]


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


def test_run_experiment_without_out_dir_writes_nothing(tmp_path):
    result = run_experiment(pid_config())
    assert result.metrics_paths == {}
    assert result.summary_path is None
    assert result.results[1].records


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
    assert parallel.results == {seed: run_seed(cfg, seed) for seed in cfg.seeds}
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

    def run(cfg, seed, disturbance=None):
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
def test_failing_seed_re_raises_in_the_parent_and_leaves_no_worker(monkeypatch, failure, expected):
    before = _children(os.getpid())
    monkeypatch.setattr(experiment, "run_seed", _flaky_run_seed(failure))  # forked workers inherit it
    _cpus(monkeypatch, 3)
    cfg = pid_config(seeds=[1, 2, 3], eval_episodes=20, max_steps=200)
    with pytest.raises(RuntimeError, match=expected):
        run_experiment(cfg)
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
