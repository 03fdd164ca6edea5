"""Scenario orchestration: seeded sweeps of networked control episodes.

Each episode drives the boiler through the event kernel. The plant node
emits a Reading every control period; the serving node (an edge server
or the cloud, chosen by the allocator in edge-collab, always the cloud in
cloud-only) computes a Command; the command is applied at the next period
boundary. In edge-collab each edge also sends the cloud a Report of its
background load, which the allocator reads. Two ticks drive the loop: the
plant's period tick carries its step as a bare int, and an edge's report
tick carries None. Control-loop latency is the simulated time from a
reading's emission to its command's delivery at the plant.

Everything is seeded and integer-timed: per-episode generator streams are
derived from (seed, phase, episode), so a PID arm replays the exact reset
states and process noise of a learning arm's evaluation episodes, and two
runs of the same config produce byte-identical metrics files. An episode
draws its plant stream in order: the reset up front, then the inlet noise
CHUNK steps at a time as the steps reach it, so an episode's memory does
not grow with its step limit. A seed's load drift is drawn the same way,
CHUNK reports at a time; a vector draw gives the bits of as many scalar
draws, so either stream is the one a draw per step or report would give.

Seeds share nothing, so a sweep runs each seed in its own forked process,
as many at once as the process may use CPUs; the results are collected in
seed order, so the files are the same bytes for any number of workers.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import allocator, boiler, dqn, traces
from .boiler import COMMANDS, ActuatorCommand, BoilerState, oracle_action
from .config import ConfigError, RunConfig
from .pid import BoilerPid
from .reporting import MetricsRecord, percentile, write_metrics, write_summary
from .simcore import CHUNK, CONTROL_PERIOD_MS, Kernel, delay_range

CLOUD_NODE = 0

# stream labels for per-run generator derivation
PHASE_TRAIN = 0
PHASE_EVAL = 1
_STREAM_INIT = 11
_STREAM_EXPLORE = 12
_STREAM_REPLAY = 13
_STREAM_DRIFT = 14
_STREAM_JITTER = 21  # + phase


class Reading(NamedTuple):
    """The plant's state at a step, sent to the node that serves it."""

    step: int
    state: BoilerState
    reward: float | None  # None at step 0
    done: bool
    emit_ms: int
    server: int


class Command(NamedTuple):
    """The action chosen for a reading, sent back to the plant."""

    step: int
    action: int
    emit_ms: int  # the reading's emission time


class Report(NamedTuple):
    """An edge's background load, sent to the cloud."""

    edge: str
    load: float


class Divergence(NamedTuple):
    """Where a seed's learner diverged, and the DivergenceError's message."""

    message: str
    phase: str
    episode: int
    step: int  # the reading step being served


@dataclass
class SeedResult:
    seed: int
    records: list[MetricsRecord]
    divergence: Divergence | None = None  # None when the seed ran to the end


@dataclass
class RunResult:
    results: dict[int, SeedResult]
    metrics_paths: dict[int, str]
    summary_path: str


def load_disturbance(config: RunConfig) -> list[float]:
    """Per-step inlet-temperature offsets: one trace sensor's held readings, up to an
    episode's steps, less its first reading and scaled by trace_disturbance_scale.
    An unset trace_sensor means the sensor sampled first (the smaller id on a tie)."""
    if config.trace_file is None:
        return []
    sensors = traces.ingest_trace(config.trace_file)
    if not sensors:
        raise ConfigError(f"trace_file has no rows: {config.trace_file}")
    sensor = config.trace_sensor or min(sensors, key=lambda s: (sensors[s][0][0], s))
    if sensor not in sensors:
        raise ConfigError(f"trace_sensor {sensor!r} has no rows in {config.trace_file}")
    base = sensors[sensor][0][1]
    held = itertools.islice(traces.held_values(sensors[sensor]), config.steps_per_episode)
    return [config.trace_disturbance_scale * (v - base) for v in held]


def _normals(rng: np.random.Generator, scale: float) -> list[float]:
    """The generator's next CHUNK normal(0, scale) draws, last first, so pop() takes
    them in drawn order; chunked draws give one long draw's bits."""
    return rng.normal(0.0, scale, CHUNK).tolist()[::-1]


class _Learner:
    """The seed's DQN agent over one episode, with the episode's last served (obs, action)."""

    def __init__(self, agent: dqn.DqnAgent, plant_cfg: boiler.BoilerConfig, training: bool):
        self.agent = agent
        self.plant_cfg = plant_cfg
        self.training = training
        self.pending: tuple[np.ndarray | None, int] = (None, -1)  # no obs before the first reading

    def decide(self, reading: Reading) -> int | None:
        """Learn from the transition a served reading closes, then act on it; None when done."""
        prev_obs, prev_action = self.pending
        obs = boiler.observe(self.plant_cfg, reading.state, prev_obs, reading.reward)
        # only the first served reading closes no transition; later ones carry a reward
        if self.training and prev_obs is not None:
            self.agent.record(prev_obs, prev_action, reading.reward, obs, reading.done)
            self.agent.train()
        if reading.done:
            return None
        action = self.agent.act(obs, greedy=not self.training)
        self.pending = (obs, action)
        return action


class _Episode:
    """One episode's plant and network state plus the event handler that drives it."""

    def __init__(self, run: "_SeedRun", phase_code: int, phase_name: str, index: int):
        self.run = run
        self.cfg = run.cfg
        self.plant_cfg = run.cfg.plant
        self.phase_name = phase_name
        self.index = index
        self.controller = run.new_controller(phase_code == PHASE_TRAIN)

        jitter_rng = np.random.default_rng([run.seed, _STREAM_JITTER + phase_code, index])
        self.kernel = Kernel(run.links, self.handle, jitter_rng)

        # the plant stream: the reset, then the steps' inlet noise (see _draw_noise)
        self.plant_rng = np.random.default_rng([run.seed, phase_code, index])
        self.state = state = boiler.reset(self.plant_cfg, self.plant_rng)
        # the current state's cost, for the step from it; _tick refreshes it with the state
        self.cost = boiler.cost(
            self.plant_cfg,
            *boiler.setpoint_deviations(self.plant_cfg, state.water_level, state.pressure, state.outlet_temp),
        )
        self.inlet_noise: list[float] = []  # drawn inlet noise, in pop order
        self.pending_cmd = ActuatorCommand(state.pump_pos, state.valve_pos)
        self.cmd_step = -1  # step of the newest command the plant has taken
        self.ctl_last_step = -1  # step of the newest reading served

        self.steps = 0
        self.failed = False
        self.done = False
        self.cumulative_reward = 0.0
        self.loss_sum = 0.0
        self.latencies: list[int] = []
        self.busy_ms = 0
        self.acc_hits = 0
        self.acc_n = 0

    # -- the handler of every node -------------------------------------------
    # The sensor sends each reading to the entry node, which serves it or
    # relays it to the reading's server; the command returns through the
    # entry node. Only edges get report ticks, only the cloud gets reports,
    # and only the entry edge gets commands to forward.

    def handle(self, node: int, body):
        run = self.run
        if node == run.sensor_node:
            if isinstance(body, Command):
                self.latencies.append(self.kernel.clock - body.emit_ms)
                if body.step > self.cmd_step:  # a command overtaken en route stays unapplied
                    self.cmd_step = body.step
                    self.pending_cmd = COMMANDS[body.action]
            else:  # the period tick, carrying its step
                self._tick(body)
        elif body is None:  # an edge's report tick, which queues the edge's next one first
            self._schedule_report(node, self.kernel.clock)
            self.kernel.send(node, CLOUD_NODE, run.emit_report(node))
        elif isinstance(body, Report):
            run.receive_report(body)
        elif isinstance(body, Command):
            self.kernel.send(node, run.sensor_node, body)
        elif body.server != node:
            self.kernel.send(node, body.server, body)
        else:
            self._serve(node, body)

    def _tick(self, step: int):
        reward = None
        if step > 0:
            cfg = self.plant_cfg
            if not self.inlet_noise:
                self.inlet_noise = _normals(self.plant_rng, cfg.inlet_noise_std_c)
            state, reward, self.failed = boiler.step(
                cfg,
                self.state,
                self.pending_cmd,
                self.cost,
                self.inlet_noise.pop(),
                self.run.disturbance_at(step - 1),
            )
            self.state = state
            self.steps = step
            self.cumulative_reward += reward
            dl, dp, dt = boiler.setpoint_deviations(cfg, state.water_level, state.pressure, state.outlet_temp)
            self.loss_sum += dl * dl + dp * dp + dt * dt
            self.cost = boiler.cost(cfg, dl, dp, dt)
            self.done = self.failed or step == self.run.max_steps
        run, clock = self.run, self.kernel.clock
        reading = Reading(step, self.state, reward, self.done, clock, run.serving_node())
        # the next tick is scheduled before the reading is sent: event seq
        # numbers break ties in the queue
        if not self.done:
            self.kernel.schedule(clock + CONTROL_PERIOD_MS, run.sensor_node, step + 1)
        self.kernel.send(run.sensor_node, run.entry_node, reading)

    def _serve(self, node: int, reading: Reading):
        step = reading.step
        if step <= self.ctl_last_step:
            return  # stale reading overtaken en route
        self.ctl_last_step = step
        action = self.controller.decide(reading)
        if action is None:
            return
        if step % self.cfg.accuracy_sample_every == 0:
            reference = oracle_action(self.plant_cfg, reading.state, self.cfg.agent.gamma)
            self.acc_n += 1
            self.acc_hits += 1 if action == reference else 0
        run = self.run
        self.busy_ms += run.compute_ms
        dst = run.sensor_node if node == run.entry_node else run.entry_node
        command = Command(step, action, reading.emit_ms)
        self.kernel.send(node, dst, command, depart_delay_ms=run.compute_ms)

    def _schedule_report(self, node: int, after_ms: int) -> None:
        """Queue an edge's report tick one interval after after_ms, unless past the last step's."""
        t = after_ms + self.cfg.allocator.rebalance_interval_steps * CONTROL_PERIOD_MS
        if t <= self.run.max_steps * CONTROL_PERIOD_MS + CONTROL_PERIOD_MS // 2:
            self.kernel.schedule(t, node)

    # -- driving -------------------------------------------------------------

    def run_to_completion(self) -> MetricsRecord:
        kernel = self.kernel
        kernel.schedule(0, self.run.sensor_node, 0)
        if self.cfg.scenario == "edge-collab":
            for node in self.run.edge_nodes:
                # each edge's first report tick, offset into the period so reports
                # never share a timestamp with control traffic emission
                self._schedule_report(node, CONTROL_PERIOD_MS // 2)
        kernel.run()
        # the kernel's handler refers back to this episode: breaking the cycle
        # frees both now, not at the cyclic collector's next full pass
        del self.kernel

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
            p95_latency_ms=percentile(ordered, 0.95) if ordered else 0.0,
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
        self.compute_ms = cfg.latency.compute_ms

        self.edge_nodes = list(range(1, len(cfg.allocator.edges) + 1))
        self.sensor_node = len(cfg.allocator.edges) + 1
        self.attached_edge = 1
        # the node the sensor sends every reading to
        self.entry_node = CLOUD_NODE if cfg.scenario == "cloud-only" else self.attached_edge

        self.links = self._build_links()

        self.agent = None
        if cfg.controller == "drl":
            total_actions = cfg.episodes * self.max_steps
            decay = max(1, round(cfg.agent.epsilon_decay_fraction * total_actions))
            layers = [boiler.OBSERVATION_LENGTH, *cfg.agent.hidden_layers, boiler.N_ACTIONS]
            # the init, explore and replay streams, in DqnAgent's order
            rngs = [np.random.default_rng([seed, s]) for s in (_STREAM_INIT, _STREAM_EXPLORE, _STREAM_REPLAY)]
            try:
                self.agent = dqn.DqnAgent(layers, cfg.agent, decay, *rngs)
            except MemoryError as exc:  # the hidden_layers or buffer_capacity asked for
                raise ConfigError(f"agent: the learner does not fit in memory: {exc}") from None

        self.drift_rng = np.random.default_rng([seed, _STREAM_DRIFT])
        self.drift: list[float] = []  # drawn load drift, in pop order
        # the control module comes first, so a plan's choice[0] places it
        modules = [cfg.allocator.control_module(), *cfg.allocator.background_modules]
        self.scored = allocator.prepare(modules, cfg.allocator.edges, cfg.allocator.weights)
        # each edge's own drifting load, and the last load the cloud has received from it
        self.edge_loads = {e.id: e.current_load for e in cfg.allocator.edges}
        self.reported_loads = dict(self.edge_loads)
        self.plan_stale = cfg.scenario == "edge-collab"
        self.serving = CLOUD_NODE

    def new_controller(self, training: bool) -> BoilerPid | _Learner:
        """An episode's controller: the seed's learner, or a PID from zero loop state."""
        if self.agent is None:
            return BoilerPid(self.cfg.plant, self.cfg.pid.level, self.cfg.pid.pressure)
        return _Learner(self.agent, self.cfg.plant, training)

    # -- allocation ----------------------------------------------------------

    def serving_node(self) -> int:
        """The node that serves the next reading; a stale plan is re-solved first.

        Readings are the plan's only reader, so solving here gives the same
        routes as solving on every report.
        """
        if self.plan_stale:
            self.plan_stale = False
            headroom = [e.capacity - self.reported_loads[e.id] for e in self.cfg.allocator.edges]
            edge = allocator.solve(self.scored, headroom).choice[0]
            self.serving = CLOUD_NODE if edge < 0 else self.edge_nodes[edge]
        return self.serving

    def emit_report(self, edge_node: int) -> Report:
        """Drift this edge's background load; returns the report for the cloud."""
        settings = self.cfg.allocator
        resource = settings.edges[edge_node - 1]
        if not self.drift:
            self.drift = _normals(self.drift_rng, settings.load_drift)
        drifted = self.edge_loads[resource.id] + self.drift.pop()
        load = 0.0 if drifted < 0.0 else (settings.load_max if drifted > settings.load_max else drifted)
        self.edge_loads[resource.id] = load
        return Report(resource.id, load)

    def receive_report(self, report: Report) -> None:
        """Record the load the cloud received; the next reading re-solves the placement."""
        self.reported_loads[report.edge] = report.load
        self.plan_stale = True

    def _build_links(self) -> dict[tuple[int, int], tuple[int, int]]:
        lat = self.cfg.latency
        sensor, edge = self.sensor_node, self.attached_edge
        delays = {
            (sensor, CLOUD_NODE): lat.cloud_uplink_ms,
            (CLOUD_NODE, sensor): lat.cloud_downlink_ms,
            (sensor, edge): lat.edge_uplink_ms,
            (edge, sensor): lat.edge_downlink_ms,
        }
        for node in self.edge_nodes:
            # a reading relayed through an edge reaches the cloud in exactly
            # the direct sensor-to-cloud time, and a command likewise returns
            delays[node, CLOUD_NODE] = lat.cloud_uplink_ms - lat.edge_uplink_ms
            delays[CLOUD_NODE, node] = lat.cloud_downlink_ms - lat.edge_downlink_ms
            for other in self.edge_nodes:
                if other != node:
                    delays[node, other] = lat.inter_edge_ms
        return {pair: delay_range(base_ms, lat.jitter) for pair, base_ms in delays.items()}

    def disturbance_at(self, step_index: int) -> float:
        if not self.disturbance:
            return 0.0
        return self.disturbance[step_index % len(self.disturbance)]

    # -- phases ---------------------------------------------------------------

    def run(self) -> SeedResult:
        records: list[MetricsRecord] = []
        phases = [(PHASE_TRAIN, "train", self.cfg.episodes),
                  (PHASE_EVAL, "eval", self.cfg.eval_episodes)]
        # a diverging learner is reported once, by its Divergence, not also by numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for phase_code, phase_name, count in phases:
                for index in range(count):
                    episode = _Episode(self, phase_code, phase_name, index)
                    try:
                        records.append(episode.run_to_completion())
                    except dqn.DivergenceError as exc:
                        divergence = Divergence(str(exc), phase_name, index, episode.ctl_last_step)
                        return SeedResult(self.seed, records, divergence)
        return SeedResult(self.seed, records)


def run_seed(cfg: RunConfig, seed: int, disturbance: list[float]) -> SeedResult:
    return _SeedRun(cfg, seed, disturbance).run()


def metrics_filename(cfg: RunConfig, seed: int) -> str:
    return f"metrics_{cfg.scenario}_{cfg.controller}_seed{seed}.jsonl"


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


def run_experiment(cfg: RunConfig, out_dir: str) -> RunResult:
    """Run every configured seed and write its metrics files and the summary into out_dir.

    Seeds run in parallel, one forked worker per CPU this process may use
    (`taskset -c 0` gives a serial run). A diverged seed is marked in the
    summary and keeps its completed episodes; remaining seeds still run.
    """
    disturbance = load_disturbance(cfg)
    made, path = [], os.path.abspath(out_dir)  # the directories this run makes, innermost first
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(out_dir, exist_ok=True)  # an unusable out_dir fails before any seed runs
    try:
        workers = min(len(cfg.seeds), len(os.sched_getaffinity(0)))
    except AttributeError:  # no sched_getaffinity on this platform
        workers = 1
    try:
        if workers == 1:
            results = {seed: run_seed(cfg, seed, disturbance) for seed in cfg.seeds}
        else:
            results = _run_forked(cfg, disturbance, workers)
    except BaseException:  # nothing is written yet: take back the directories this run made
        for path in made:
            with contextlib.suppress(OSError):  # one that something else wrote into stays
                os.rmdir(path)
        raise

    metrics_paths = {}
    for seed, result in results.items():
        path = os.path.join(out_dir, metrics_filename(cfg, seed))
        write_metrics(result.records, path)
        metrics_paths[seed] = path
    summary_path = os.path.join(out_dir, "summary.csv")
    write_summary(results, cfg, summary_path)
    return RunResult(results=results, metrics_paths=metrics_paths, summary_path=summary_path)
