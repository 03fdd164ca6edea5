"""Scenario orchestration: seeded sweeps of networked control episodes.

Each episode drives the boiler through the event kernel. The plant node
emits a reading every control period; the serving node (an edge server
or the cloud, chosen by the allocator in edge-collab, always the cloud in
cloud-only) computes a command; the command is applied at the next period
boundary. Control-loop latency is the simulated time from a reading's
emission to its command's delivery at the plant.

Everything is seeded and integer-timed: per-episode generator streams are
derived from (seed, phase, episode), so a PID arm replays the exact reset
states and process noise of a learning arm's evaluation episodes, and two
runs of the same config produce byte-identical metrics files. An episode
draws its plant stream up front: the reset, then the inlet noise of every
step in one call.

Seeds share nothing, so a sweep runs each seed in its own forked process,
as many at once as the process may use CPUs; the results are collected in
seed order, so the files are the same bytes for any number of workers.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import allocator, boiler, dqn, traces
from .boiler import ActuatorCommand, BoilerState
from .config import CONTROL_MODULE_ID, RunConfig
from .pid import BoilerPid
from .simcore import CONTROL_PERIOD_MS, Kernel, Link

CLOUD_NODE = 0

# stream labels for per-run generator derivation
PHASE_TRAIN = 0
PHASE_EVAL = 1
_STREAM_INIT = 11
_STREAM_EXPLORE = 12
_STREAM_REPLAY = 13
_STREAM_DRIFT = 14
_STREAM_JITTER = 21  # + phase


@dataclass(frozen=True)
class MetricsRecord:
    """Per-episode aggregates, one JSONL row."""

    seed: int
    scenario: str
    controller: str
    phase: str
    episode: int
    uninterrupted_steps: int
    failure_count: int
    cumulative_reward: float
    mean_latency_ms: float
    p95_latency_ms: float
    latency_samples: int
    control_loss: float
    action_accuracy: float
    utilization: float


@dataclass
class SeedResult:
    seed: int
    records: list[MetricsRecord]
    diverged: bool


@dataclass
class RunResult:
    results: dict[int, SeedResult]
    metrics_paths: dict[int, str]
    summary_path: str | None


def phase_records(records: list[MetricsRecord], phase: str | None) -> list[MetricsRecord]:
    """The records of one phase, or all of them when phase is None."""
    return [r for r in records if phase is None or r.phase == phase]


def mean(values) -> float:
    return sum(values) / len(values)


def oracle_action(cfg: boiler.BoilerConfig, state: BoilerState, gamma: float) -> int:
    """Reference action: best immediate reward plus discounted greedy value.

    Brute force over the 9 actions under the noise-free plant; the value of
    the landed state is the best single-step reward available from it.
    Ties go to the lowest action index.
    """
    best_action = 0
    best_value = -math.inf
    for a, cmd in enumerate(boiler.COMMANDS):
        nxt, r, failed = boiler.step(cfg, state, cmd)
        # the best follow-up holds cmd: the landed actuators already sit at
        # cmd, so its motion term is 0.0 and every other command's is >= 0
        follow = -cfg.failure_penalty if failed else boiler.reward(cfg, nxt, cmd)
        value = r + gamma * follow
        if value > best_value:
            best_value = value
            best_action = a
    return best_action


def _percentile(sorted_values: list[int], fraction: float) -> float:
    # nearest-rank percentile on a pre-sorted list
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return float(sorted_values[rank - 1])


def load_disturbance(config: RunConfig) -> list[float]:
    """Inlet-temperature offsets replayed from the configured sensor trace.

    The resampled readings of one sensor become per-step offsets relative
    to that sensor's first reading, scaled by trace_disturbance_scale.
    """
    if config.trace_file is None or config.trace_disturbance_scale == 0.0:
        return []
    rows = traces.ingest_trace(config.trace_file)
    if not rows:
        return []
    sensor = config.trace_sensor or rows[0].sensor_id
    values = traces.sensor_values(rows, sensor)
    if not values:
        raise ValueError(f"trace has no rows for sensor {sensor!r}")
    base = values[0]
    return [config.trace_disturbance_scale * (v - base) for v in values]


class _Episode:
    """One episode's mutable state plus the node handlers that drive it."""

    def __init__(self, run: "_SeedRun", phase_code: int, phase_name: str, index: int):
        self.run = run
        self.cfg = run.cfg
        self.plant_cfg = run.cfg.plant
        self.phase_code = phase_code
        self.phase_name = phase_name
        self.index = index
        self.training = run.cfg.controller == "drl" and phase_code == PHASE_TRAIN
        self.greedy = run.cfg.controller == "pid" or phase_code == PHASE_EVAL

        plant_rng = np.random.default_rng([run.seed, phase_code, index])
        jitter_rng = np.random.default_rng([run.seed, _STREAM_JITTER + phase_code, index])
        self.kernel = Kernel(run.links, rng=jitter_rng)

        if run.pid is not None:
            run.pid.reset()
        self.state = boiler.reset(self.plant_cfg, plant_rng)
        # the rest of the plant stream: every step's inlet noise, drawn at once
        std, n = self.plant_cfg.inlet_noise_std_c, run.max_steps
        self.inlet_noise = plant_rng.normal(0.0, std, n) if std > 0.0 else np.zeros(n)
        self.pending_cmd = ActuatorCommand(self.state.pump_pos, self.state.valve_pos)
        self.cmd_step = -1  # step of the newest command the plant has taken
        self.ctl_pending: tuple[np.ndarray, int] | None = None
        self.ctl_last_step = -1

        self.steps = 0
        self.failed = False
        self.done = False
        self.cumulative_reward = 0.0
        self.loss_sum = 0.0
        self.latencies: list[int] = []
        self.busy_ms = 0
        self.acc_hits = 0
        self.acc_n = 0

    # -- plant node ---------------------------------------------------------

    def handle_sensor(self, event):
        if event.kind == "control-command":
            body = event.body
            self.latencies.append(self.kernel.clock - body["emit_ms"])
            if body["step"] > self.cmd_step:  # a command overtaken en route stays unapplied
                self.cmd_step = body["step"]
                self.pending_cmd = ActuatorCommand.from_index(body["action"])
        else:
            self._tick(event.body["step"])

    def _tick(self, step: int):
        reward = None
        if step > 0:
            disturbance = self.run.disturbance_at(step - 1)
            self.state, reward, self.failed = boiler.step(
                self.plant_cfg,
                self.state,
                self.pending_cmd,
                self.inlet_noise.item(step - 1),
                inlet_disturbance_c=disturbance,
            )
            self.steps = step
            self.cumulative_reward += reward
            dl, dp, dt = boiler.setpoint_deviations(self.plant_cfg, self.state)
            self.loss_sum += dl * dl + dp * dp + dt * dt
            self.done = self.failed or step == self.run.max_steps
        run = self.run
        body = {
            "step": step,
            "state": self.state,
            "reward": reward,
            "done": self.done,
            "emit_ms": self.kernel.clock,
            "server": run.serving_node(),
        }
        # the next tick is scheduled before the reading is sent: event seq
        # numbers break ties in the queue
        if not self.done:
            self.kernel.schedule(
                self.kernel.clock + CONTROL_PERIOD_MS,
                run.sensor_node,
                "sensor-reading",
                {"step": step + 1},
            )
        self.kernel.send(run.sensor_node, run.entry_node, "sensor-reading", body)

    # -- edge and cloud nodes ------------------------------------------------
    # The sensor sends each reading to the entry node, which serves it or
    # relays it to the reading's server; the command returns through the
    # entry node.

    def handle_edge(self, event):
        node, kind, body = event.target, event.kind, event.body
        if kind == "state-report":  # the edge's own report tick
            self.kernel.send(node, CLOUD_NODE, kind, self.run.emit_report(node))
        elif kind == "control-command":  # only the entry edge gets commands
            self.kernel.send(node, self.run.sensor_node, kind, body)
        elif body["server"] != node:
            self.kernel.send(node, body["server"], kind, body)
        else:
            self._serve(event)

    def handle_cloud(self, event):
        if event.kind == "sensor-reading":
            self._serve(event)
        else:
            self.run.receive_report(event.body)

    def _serve(self, event):
        body = event.body
        step = body["step"]
        if step <= self.ctl_last_step:
            return  # stale reading overtaken en route
        self.ctl_last_step = step
        state = body["state"]
        action = self._decide(state, body["reward"], body["done"], step)
        if action is None:
            return
        if step % self.cfg.accuracy_sample_every == 0:
            reference = oracle_action(self.plant_cfg, state, self.cfg.agent.gamma)
            self.acc_n += 1
            self.acc_hits += 1 if action == reference else 0
        run = self.run
        self.busy_ms += run.compute_ms
        command = {"step": step, "action": action, "emit_ms": body["emit_ms"]}
        node = event.target
        dst = run.sensor_node if node == run.entry_node else run.entry_node
        self.kernel.send(node, dst, "control-command", command, depart_delay_ms=run.compute_ms)

    def _decide(self, state: BoilerState, reward, done: bool, step: int):
        agent = self.run.agent
        if agent is None:
            if done:
                return None
            return self.run.pid.act(state)
        # only the first served reading has no pending decision; later ones carry a reward
        if self.ctl_pending is None:
            obs = boiler.observe(self.plant_cfg, state)
        else:
            prev_obs, prev_action = self.ctl_pending
            obs = boiler.observe(self.plant_cfg, state, prev_obs, reward)
            if self.phase_code == PHASE_TRAIN:
                agent.record(dqn.Transition(prev_obs, prev_action, reward, obs, done))
                if self.training:
                    agent.train()
        if done:
            self.ctl_pending = None
            return None
        action = agent.act(obs, greedy=self.greedy)
        self.ctl_pending = (obs, action)
        return action

    # -- driving -------------------------------------------------------------

    def run_to_completion(self) -> MetricsRecord:
        kernel = self.kernel
        kernel.register_handler(self.run.sensor_node, self.handle_sensor)
        kernel.register_handler(CLOUD_NODE, self.handle_cloud)
        for node in self.run.edge_nodes:
            kernel.register_handler(node, self.handle_edge)
        kernel.schedule(0, self.run.sensor_node, "sensor-reading", {"step": 0})
        self.run.schedule_reports(kernel)
        kernel.run()

        # readings all overtaken en route leave nothing to average: 0.0 over 0 samples
        ordered = sorted(self.latencies)
        duration_ms = self.steps * CONTROL_PERIOD_MS
        return MetricsRecord(
            seed=self.run.seed,
            scenario=self.cfg.scenario,
            controller=self.cfg.controller,
            phase=self.phase_name,
            episode=self.index,
            uninterrupted_steps=self.steps,
            failure_count=1 if self.failed else 0,
            cumulative_reward=self.cumulative_reward,
            mean_latency_ms=sum(ordered) / len(ordered) if ordered else 0.0,
            p95_latency_ms=_percentile(ordered, 0.95) if ordered else 0.0,
            latency_samples=len(ordered),
            control_loss=self.loss_sum / self.steps,
            action_accuracy=self.acc_hits / self.acc_n if self.acc_n else 0.0,
            utilization=self.busy_ms / duration_ms,
        )


class _SeedRun:
    """All per-seed state: the learner, allocation registry, and streams."""

    def __init__(self, cfg: RunConfig, seed: int, disturbance: list[float]):
        self.cfg = cfg
        self.seed = seed
        self.disturbance = disturbance
        self.max_steps = cfg.steps_per_episode
        latency = cfg.latency.resolved()
        self.latency = latency
        self.compute_ms = latency["compute_ms"]

        self.edge_nodes = list(range(1, len(cfg.allocator.edges) + 1))
        self.sensor_node = len(cfg.allocator.edges) + 1
        self.attached_edge = 1
        # the node the sensor sends every reading to
        self.entry_node = CLOUD_NODE if cfg.scenario == "cloud-only" else self.attached_edge
        self.node_for_resource = {
            e.id: self.edge_nodes[i] for i, e in enumerate(cfg.allocator.edges)
        }

        self.links = self._build_links()

        if cfg.controller == "drl":
            total_actions = cfg.episodes * self.max_steps
            decay = max(1, round(cfg.agent.epsilon_decay_fraction * total_actions))
            layers = [boiler.OBSERVATION_LENGTH, *cfg.agent.hidden_layers, boiler.N_ACTIONS]
            self.agent = dqn.DqnAgent(
                layers,
                cfg.agent,
                epsilon_decay_steps=decay,
                init_rng=np.random.default_rng([seed, _STREAM_INIT]),
                explore_rng=np.random.default_rng([seed, _STREAM_EXPLORE]),
                replay_rng=np.random.default_rng([seed, _STREAM_REPLAY]),
            )
            self.pid = None
        else:
            self.agent = None
            self.pid = BoilerPid(cfg.plant, cfg.pid.level, cfg.pid.pressure)

        self.drift_rng = np.random.default_rng([seed, _STREAM_DRIFT])
        # each edge's own drifting load, and the last load the cloud has received from it
        self.edge_loads = {e.id: e.current_load for e in cfg.allocator.edges}
        self.reported_loads = dict(self.edge_loads)
        self.plan_stale = cfg.scenario == "edge-collab"
        self.serving = CLOUD_NODE

    # -- allocation ----------------------------------------------------------

    def _resources(self) -> list[allocator.EdgeResource]:
        return [
            dataclasses.replace(e, current_load=self.reported_loads[e.id])
            for e in self.cfg.allocator.edges
        ]

    def _modules(self) -> list[allocator.ControlModule]:
        return [self.cfg.allocator.control_module(), *self.cfg.allocator.background_modules]

    def serving_node(self) -> int:
        """The node that serves the next reading; a stale plan is re-solved first.

        Readings are the plan's only reader, so solving here gives the same
        routes as solving on every report.
        """
        if self.plan_stale:
            self.plan_stale = False
            plan = allocator.solve(self._modules(), self._resources(), self.cfg.allocator.weights)
            resource = plan.assignment().get(CONTROL_MODULE_ID)
            self.serving = CLOUD_NODE if resource is None else self.node_for_resource[resource]
        return self.serving

    def schedule_reports(self, kernel: Kernel) -> None:
        """Queue the per-edge load-report ticks for one episode."""
        if self.cfg.scenario != "edge-collab":
            return
        interval_ms = self.cfg.allocator.rebalance_interval_steps * CONTROL_PERIOD_MS
        horizon_ms = self.max_steps * CONTROL_PERIOD_MS
        t = interval_ms
        while t <= horizon_ms:
            for node in self.edge_nodes:
                # offset into the period so reports never share a timestamp
                # with control traffic emission
                kernel.schedule(t + CONTROL_PERIOD_MS // 2, node, "state-report", {})
            t += interval_ms

    def emit_report(self, edge_node: int) -> dict:
        """Drift this edge's background load; returns the report for the cloud."""
        resource = self.cfg.allocator.edges[edge_node - 1]
        drifted = self.edge_loads[resource.id] + self.drift_rng.normal(
            0.0, self.cfg.allocator.load_drift
        )
        self.edge_loads[resource.id] = float(
            np.clip(drifted, 0.0, self.cfg.allocator.load_max)
        )
        return {"edge": resource.id, "load": self.edge_loads[resource.id]}

    def receive_report(self, body) -> None:
        """Record the load the cloud received; the next reading re-solves the placement."""
        self.reported_loads[body["edge"]] = body["load"]
        self.plan_stale = True

    def _build_links(self) -> dict[tuple[int, int], Link]:
        lat = self.latency
        jitter = self.cfg.latency.jitter
        sensor, edge = self.sensor_node, self.attached_edge
        delays = {
            (sensor, CLOUD_NODE): lat["cloud_uplink_ms"],
            (CLOUD_NODE, sensor): lat["cloud_downlink_ms"],
            (sensor, edge): lat["edge_uplink_ms"],
            (edge, sensor): lat["edge_downlink_ms"],
        }
        for node in self.edge_nodes:
            delays[node, CLOUD_NODE] = lat["edge_cloud_up_ms"]
            delays[CLOUD_NODE, node] = lat["edge_cloud_down_ms"]
            for other in self.edge_nodes:
                if other != node:
                    delays[node, other] = lat["inter_edge_ms"]
        return {pair: Link(base_ms, jitter) for pair, base_ms in delays.items()}

    def disturbance_at(self, step_index: int) -> float:
        if not self.disturbance:
            return 0.0
        return self.disturbance[step_index % len(self.disturbance)]

    # -- phases ---------------------------------------------------------------

    def run(self) -> SeedResult:
        records: list[MetricsRecord] = []
        diverged = False
        phases = [(PHASE_TRAIN, "train", self.cfg.episodes)]
        if self.cfg.eval_episodes > 0:
            phases.append((PHASE_EVAL, "eval", self.cfg.eval_episodes))
        for phase_code, phase_name, count in phases:
            if diverged:
                break
            for index in range(count):
                episode = _Episode(self, phase_code, phase_name, index)
                try:
                    records.append(episode.run_to_completion())
                except dqn.DivergenceError:
                    diverged = True
                    break
        return SeedResult(seed=self.seed, records=records, diverged=diverged)


def run_seed(cfg: RunConfig, seed: int, disturbance: list[float] | None = None) -> SeedResult:
    if disturbance is None:
        disturbance = load_disturbance(cfg)
    return _SeedRun(cfg, seed, disturbance).run()


def metrics_filename(cfg: RunConfig, seed: int) -> str:
    return f"metrics_{cfg.scenario}_{cfg.controller}_seed{seed}.jsonl"


def write_metrics(records: list[MetricsRecord], path) -> None:
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(dataclasses.asdict(rec)) + "\n")


def write_summary(results: dict[int, SeedResult], cfg: RunConfig, path) -> None:
    """Run-level CSV: one row per seed."""
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            [
                "seed",
                "scenario",
                "controller",
                "diverged",
                "train_episodes",
                "eval_episodes",
                "train_reward_mean",
                "eval_reward_mean",
                "total_failures",
                "mean_latency_ms",
            ]
        )
        for seed in sorted(results):
            res = results[seed]
            train = phase_records(res.records, "train")
            evals = phase_records(res.records, "eval")
            all_recs = res.records
            writer.writerow(
                [
                    seed,
                    cfg.scenario,
                    cfg.controller,
                    int(res.diverged),
                    len(train),
                    len(evals),
                    repr(mean([r.cumulative_reward for r in train])) if train else "",
                    repr(mean([r.cumulative_reward for r in evals])) if evals else "",
                    sum(r.failure_count for r in all_recs),
                    repr(mean([r.mean_latency_ms for r in all_recs])) if all_recs else "",
                ]
            )


def _seed_worker(cfg: RunConfig, seed: int, disturbance: list[float], conn, parent: int) -> None:
    """Forked worker body: run one seed and send (result, None) or (exception, traceback)."""
    import ctypes
    import signal
    import traceback

    # the kernel kills this worker when the parent dies, even by SIGKILL (Linux);
    # a parent that died before the request took effect is caught by the ppid check
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):  # no prctl outside Linux
        pass
    if os.getppid() != parent:
        os._exit(1)
    try:
        conn.send((run_seed(cfg, seed, disturbance), None))
    except BaseException as exc:  # an unpicklable result is sent as its pickling error
        conn.send((exc, traceback.format_exc()))


def _run_forked(cfg: RunConfig, disturbance: list[float], workers: int) -> dict[int, SeedResult]:
    """Each seed in its own forked process, at most `workers` alive at once.

    The first seed to fail re-raises its exception here; the workers still
    running are killed before this returns or raises.
    """
    # imported here, so that a serial run does not pay for them at start-up
    import multiprocessing
    from multiprocessing import connection

    context = multiprocessing.get_context("fork")
    queued = list(cfg.seeds)
    running = {}  # result pipe -> (seed, process)
    results = {}
    try:
        while queued or running:
            while queued and len(running) < workers:
                seed = queued.pop(0)
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(
                    target=_seed_worker, args=(cfg, seed, disturbance, sender, os.getpid())
                )
                process.start()
                sender.close()
                running[receiver] = (seed, process)
            for receiver in connection.wait(list(running)):
                seed, process = running.pop(receiver)
                try:
                    payload, remote_traceback = receiver.recv()
                except EOFError:
                    process.join()
                    raise RuntimeError(
                        f"the worker for seed {seed} exited with code {process.exitcode} "
                        "before sending its result"
                    ) from None
                finally:
                    receiver.close()
                process.join()
                if remote_traceback is not None:
                    raise payload from RuntimeError(f"in the worker for seed {seed}:\n{remote_traceback}")
                results[seed] = payload
    finally:
        for receiver, (_, process) in running.items():
            process.kill()
            process.join()
            receiver.close()
    return {seed: results[seed] for seed in cfg.seeds}


def run_experiment(cfg: RunConfig, out_dir: str | None = None) -> RunResult:
    """Run every configured seed; optionally write metrics files.

    Seeds run in parallel, one forked worker per CPU this process may use
    (`taskset -c 0` gives a serial run). A diverged seed is marked in the
    summary and keeps its completed episodes; remaining seeds still run.
    """
    disturbance = load_disturbance(cfg)
    try:
        workers = min(len(cfg.seeds), len(os.sched_getaffinity(0)))
    except AttributeError:  # no sched_getaffinity on this platform
        workers = 1
    if workers == 1:
        results = {seed: run_seed(cfg, seed, disturbance) for seed in cfg.seeds}
    else:
        results = _run_forked(cfg, disturbance, workers)

    metrics_paths: dict[int, str] = {}
    summary_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for seed, result in results.items():
            path = os.path.join(out_dir, metrics_filename(cfg, seed))
            write_metrics(result.records, path)
            metrics_paths[seed] = path
        summary_path = os.path.join(out_dir, "summary.csv")
        write_summary(results, cfg, summary_path)
    return RunResult(results=results, metrics_paths=metrics_paths, summary_path=summary_path)
