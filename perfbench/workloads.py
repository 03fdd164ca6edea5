"""Seeded generators for the benchmark's workloads.

Each generator turns a workload seed into the inputs of one `edgeloop run`:
a config file (JSON, which the YAML loader accepts) and, for alloc-churn, a
minute-sampled sensor trace CSV. The same seed always writes the same bytes.
The program sees only these files.

Every workload uses the desk episode preset (500 simulated steps), so the
input size in simulated control steps is fixed by the episode counts below,
except where plant failures end episodes early (drl-train).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

STEPS_PER_EPISODE = 500  # edgeloop's "desk" episode preset

# drl-train trains one learner on a fixed seed: its trajectory (8,342 steps
# over 30 training and 3 greedy eval episodes) then stays the same for every
# workload seed, which varies only the network and the edge fleet. A learner
# this briefly trained ends in outcomes that differ several-fold from seed to
# seed, so a varied learner seed would drown every host-time comparison.
DRL_LEARNER_SEED = 1
DRL_TRAIN_EPISODES = 30
DRL_EVAL_EPISODES = 3

PID_EVAL_EPISODES = 30  # per seed, two seeds
CHURN_EVAL_EPISODES = 20
CHURN_EDGE_CAPACITY = 3.5
CHURN_MODULE_LOADS = (1.4, 1.2, 1.0)
CHURN_REBALANCE_STEPS = 10
TRACE_MINUTES = 60


@dataclass(frozen=True)
class Workload:
    config_path: Path
    seeds: list[int]
    train_episodes: int
    eval_episodes: int
    steps_per_episode: int = STEPS_PER_EPISODE


def _write_config(path: Path, config: dict) -> None:
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


def _drl_train(rng: random.Random, work: Path) -> Workload:
    # round trip stays far below the 5 s control period, so these draws move
    # loop latency and allocator work but never the control trajectory
    latency = {
        "jitter": 0.0,
        "edge_uplink_ms": rng.randint(98, 102),
        "edge_downlink_ms": rng.randint(98, 102),
        "inter_edge_ms": rng.randint(98, 102),
        "compute_ms": rng.randint(98, 102),
    }
    edges = [
        {
            "id": f"edge-{i}",
            "capacity": round(rng.uniform(5.5, 6.5), 3),
            "current_load": round(rng.uniform(0.3, 0.7), 3),
            "bandwidth_mbps": bandwidth,
            "compute_rating": rating,
        }
        for i, (bandwidth, rating) in enumerate([(100.0, 1.0), (80.0, 0.8)])
    ]
    config = {
        "scenario": "edge-collab",
        "controller": "drl",
        "seeds": [DRL_LEARNER_SEED],
        "episodes": DRL_TRAIN_EPISODES,
        "eval_episodes": DRL_EVAL_EPISODES,
        "episode_preset": "desk",
        "latency": latency,
        "allocator": {"edges": edges},
    }
    path = work / "drl-train.yaml"
    _write_config(path, config)
    return Workload(path, config["seeds"], DRL_TRAIN_EPISODES, DRL_EVAL_EPISODES)


def _pid_cloud_jitter(rng: random.Random, work: Path) -> Workload:
    config = {
        "scenario": "cloud-only",
        "controller": "pid",
        "seeds": sorted(rng.sample(range(1, 1_000_000), 2)),
        "episodes": 0,
        "eval_episodes": PID_EVAL_EPISODES,
        "episode_preset": "desk",
        "latency": {"jitter": 0.1},
    }
    path = work / "pid-cloud-jitter.yaml"
    _write_config(path, config)
    return Workload(path, config["seeds"], 0, PID_EVAL_EPISODES)


def _write_trace(rng: random.Random, path: Path) -> None:
    """One inlet-temperature sensor sampled once a minute as a random walk."""
    lines = ["timestamp,sensor_id,value,unit"]
    value = 100.0
    for minute in range(TRACE_MINUTES + 1):
        lines.append(f"{minute * 60},inlet-temp,{value:.3f},C")
        value += rng.gauss(0.0, 1.0)
    path.write_text("\n".join(lines) + "\n")


def _alloc_churn(rng: random.Random, work: Path) -> Workload:
    # edge-0 hosts the sensor but is the weakest server, so the control
    # module usually lands on another edge and readings take two hops; tight
    # capacities and strong drift make re-solves change the plan often.
    # Capacities and module loads are fixed because they set how many
    # placements the exact solver enumerates, and with it the host time.
    edges = []
    for i in range(3):
        weak = i == 0
        edges.append(
            {
                "id": f"edge-{i}",
                "capacity": CHURN_EDGE_CAPACITY,
                "current_load": round(rng.uniform(0.5, 1.5), 3),
                "bandwidth_mbps": round(rng.uniform(45.0, 55.0) if weak else rng.uniform(85.0, 95.0), 3),
                "compute_rating": round(rng.uniform(0.45, 0.55) if weak else rng.uniform(0.85, 0.95), 3),
            }
        )
    background = [
        {"id": f"bg-{name}", "load": load, "intensity": round(rng.uniform(0.3, 0.7), 3)}
        for name, load in zip(("analytics", "telemetry", "historian"), CHURN_MODULE_LOADS)
    ]
    trace_path = work / "alloc-churn-trace.csv"
    _write_trace(rng, trace_path)
    config = {
        "scenario": "edge-collab",
        "controller": "pid",
        "seeds": [rng.randrange(1, 1_000_000)],
        "episodes": 0,
        "eval_episodes": CHURN_EVAL_EPISODES,
        "episode_preset": "desk",
        "latency": {"jitter": 0.1},
        "trace_file": str(trace_path),
        "trace_sensor": "inlet-temp",
        "trace_disturbance_scale": 0.2,
        "allocator": {
            "edges": edges,
            "background_modules": background,
            "rebalance_interval_steps": CHURN_REBALANCE_STEPS,
            "load_drift": 0.6,
            "load_max": 2.5,
        },
    }
    path = work / "alloc-churn.yaml"
    _write_config(path, config)
    return Workload(path, config["seeds"], 0, CHURN_EVAL_EPISODES)


GENERATORS = {
    "drl-train": _drl_train,
    "pid-cloud-jitter": _pid_cloud_jitter,
    "alloc-churn": _alloc_churn,
}


def build(name: str, seed: int, work: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` into `work`."""
    # string seeds hash deterministically, and keep workloads' streams apart
    return GENERATORS[name](random.Random(f"{name}:{seed}"), work)
