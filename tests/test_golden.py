"""Cross-version golden hashes of the metrics and summary files.

Criterion 7 compares two runs of the same code. These pins compare a run
against the bytes earlier code produced, so a refactor that silently moves
a float fails here. A change that alters outcomes on purpose re-pins the
hashes and says why in CHANGES.md. The DRL pin assumes the numpy and BLAS
build that produced it (numpy 2.4, OpenBLAS 0.3.31); matrix products may
round differently elsewhere.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from edgeloop import allocator
from edgeloop.config import config_from_dict
from edgeloop.experiment import Divergence, run_experiment, run_seed

SRC = Path(__file__).resolve().parent.parent / "src"

# two tight edges, fast drift and a report every 5 steps
TIGHT_EDGES = {
    "edges": [
        {"id": "edge-0", "capacity": 3.0, "current_load": 1.0,
         "bandwidth_mbps": 50.0, "compute_rating": 0.5},
        {"id": "edge-1", "capacity": 3.0, "current_load": 1.0,
         "bandwidth_mbps": 90.0, "compute_rating": 0.9},
    ],
    "rebalance_interval_steps": 5,
    "load_drift": 0.6,
    "load_max": 2.5,
}

CONFIGS = {
    # acceptance criterion 7's config: no load report falls inside 30 steps
    "drl-edge-jitter": {
        "seeds": [9],
        "episodes": 3,
        "eval_episodes": 2,
        "max_steps": 30,
        "agent": {"hidden_layers": [16], "warmup": 16},
        "latency": {"jitter": 0.1},
    },
    "pid-cloud-jitter": {
        "scenario": "cloud-only",
        "controller": "pid",
        "seeds": [1, 2],
        "episodes": 0,
        "eval_episodes": 2,
        "max_steps": 40,
        "latency": {"jitter": 0.1},
    },
    # tight edges and fast drift: the control module moves between edges
    "pid-edge-rebalance": {
        "scenario": "edge-collab",
        "controller": "pid",
        "seeds": [3],
        "episodes": 0,
        "eval_episodes": 2,
        "max_steps": 40,
        "allocator": TIGHT_EDGES,
    },
    # slow cloud, jitter and drifting loads: readings are served by the
    # entry edge, relayed to the other edge, or relayed to the cloud, and a
    # command is overtaken en route; load reports are in flight for ~29.85 s
    "pid-edge-mixed-slow": {
        "scenario": "edge-collab",
        "controller": "pid",
        "seeds": [5],
        "episodes": 0,
        "eval_episodes": 2,
        "max_steps": 60,
        "latency": {"cloud_uplink_ms": 29950, "cloud_downlink_ms": 29950, "jitter": 0.3},
        "allocator": {
            "control_module_load": 4.0,
            "rebalance_interval_steps": 3,
            "load_drift": 0.8,
            "load_max": 3.0,
        },
    },
    # load reports fall inside the episodes and the plan moves between the
    # cloud and both edges while a learner trains and is evaluated
    "drl-edge-rebalance": {
        "seeds": [3],
        "episodes": 2,
        "eval_episodes": 1,
        "max_steps": 60,
        "agent": {"hidden_layers": [16], "warmup": 16},
        "latency": {"jitter": 0.1},
        "allocator": TIGHT_EDGES,
    },
    # an unclipped learner at a huge learning rate diverges on its own, in
    # train episode 1: the records stop there and the summary marks the seed
    "drl-cloud-diverges": {
        "scenario": "cloud-only",
        "seeds": [4],
        "episodes": 3,
        "eval_episodes": 1,
        "max_steps": 40,
        "agent": {"hidden_layers": [16], "warmup": 16, "td_error_clip": None, "learning_rate": 5.0},
    },
    # a trace disturbs the inlet, and 12 modules on 3 edges and the cloud
    # (4**12 placements) are past EXACT_SEARCH_LIMIT, so the greedy solver serves
    "pid-greedy-trace": {
        "scenario": "edge-collab",
        "controller": "pid",
        "seeds": [6],
        "episodes": 0,
        "eval_episodes": 2,
        "max_steps": 60,
        "latency": {"jitter": 0.1},
        "trace_file": "inlet.csv",  # INLET_TRACE, written beside the outputs
        "trace_sensor": "inlet",
        "trace_disturbance_scale": 1.3,
        "allocator": {
            "edges": [
                {"id": "edge-0", "capacity": 2.5, "current_load": 0.8,
                 "bandwidth_mbps": 50.0, "compute_rating": 0.5},
                {"id": "edge-1", "capacity": 2.5, "current_load": 0.8,
                 "bandwidth_mbps": 70.0, "compute_rating": 0.7},
                {"id": "edge-2", "capacity": 2.5, "current_load": 0.8,
                 "bandwidth_mbps": 90.0, "compute_rating": 0.9},
            ],
            "background_modules": [
                {"id": f"bg-{k}", "load": (0.2, 0.25, 0.3, 0.35)[k % 4], "intensity": 0.3 + k / 20}
                for k in range(11)
            ],
            "rebalance_interval_steps": 4,
            "load_drift": 0.5,
            "load_max": 2.0,
        },
    },
}

# one inlet-temperature sensor, sampled once a minute over a 60-step episode
INLET_TRACE = """timestamp,sensor_id,value,unit
0,inlet,100.000,C
60,inlet,105.830,C
120,inlet,111.660,C
180,inlet,101.990,C
240,inlet,107.820,C
300,inlet,98.150,C
"""

GOLDEN = {
    "drl-edge-jitter": {
        "metrics_edge-collab_drl_seed9.jsonl": (
            "79f00f2b12f3750640bac04db5265e34"
            "9a3c6cd2521964b044163bce77a3f21e"
        ),
        "summary.csv": (
            "59b8c8c197e9db6b012ece2479e0e4bb"
            "0a45adf1469a1bc92b1c0b97a2dc95d3"
        ),
    },
    "pid-cloud-jitter": {
        "metrics_cloud-only_pid_seed1.jsonl": (
            "aff5ca8cd3e4c5c00b4d3bc12619946e"
            "127f5eda840c34e402bbb6d1203c72b1"
        ),
        "metrics_cloud-only_pid_seed2.jsonl": (
            "fc23d6ce576b09e62db31fd8e2d28af8"
            "051cf996ca915e658db44b562acb4415"
        ),
        "summary.csv": (
            "0f17e7887f8bf2bade6d45326defe656"
            "d5cf1a4b8e1995d2d2b85db5f6a4167f"
        ),
    },
    "pid-edge-rebalance": {
        "metrics_edge-collab_pid_seed3.jsonl": (
            "a1dbf63c1b68c48218e2692ff160b01b"
            "a462f00d2262f153cdec195e525387f7"
        ),
        "summary.csv": (
            "5d0156f9e4acab2762d156405f8fcfec"
            "e34046bacbcc1383537eb70ae5845536"
        ),
    },
    "pid-edge-mixed-slow": {
        "metrics_edge-collab_pid_seed5.jsonl": (
            "e0d42c59211019a52c2f3ee3749959c4"
            "316e4a7e384c5abc570f38e47245ce9e"
        ),
        "summary.csv": (
            "d99354d9be8b9f5d7b414f34fd58b6da"
            "f1e14cee3d64f17bf91617752726c75c"
        ),
    },
    "drl-cloud-diverges": {
        "metrics_cloud-only_drl_seed4.jsonl": (
            "be291a9a7555cd61e91591028378d313"
            "49fa23236fdc8f34c9fe0b854203b8c6"
        ),
        "summary.csv": (
            "fdf81dd390289700c238480b8e66bc7e"
            "4d166e3f92061b1f8a0fae0a2810a5b7"
        ),
    },
    "drl-edge-rebalance": {
        "metrics_edge-collab_drl_seed3.jsonl": (
            "be5b58402328196c56c66db489264e65"
            "d32e980b7703e11bb651f77c5ac88545"
        ),
        "summary.csv": (
            "3b77de8cf5b510418501dedd2063ab34"
            "41828a01a658c6ea778235c944653bf0"
        ),
    },
    "pid-greedy-trace": {
        "metrics_edge-collab_pid_seed6.jsonl": (
            "4c79c739ef2bd45ff53de120ea87d527"
            "514372e4f31d9347fcc7e64d8e4bac4b"
        ),
        "summary.csv": (
            "4c2603df41edf7b5deefeb1e455dc50e"
            "76ae1337955eae5d31d97b092a7453f2"
        ),
    },
}


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _run(name, tmp_path):
    """Run a pinned config into tmp_path/out, with INLET_TRACE written to tmp_path if it reads one."""
    settings = CONFIGS[name]
    if "trace_file" in settings:
        trace = tmp_path / settings["trace_file"]
        trace.write_text(INLET_TRACE)
        settings = {**settings, "trace_file": str(trace)}
    return run_experiment(config_from_dict(settings), str(tmp_path / "out"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_golden_hashes(name, tmp_path):
    _run(name, tmp_path)
    got = {path.name: _sha256(path) for path in sorted((tmp_path / "out").iterdir())}
    assert got == GOLDEN[name]


DIVERGED_AT = Divergence("non-finite training loss: inf", "train", 1, 37)


def test_diverging_config_stops_where_its_learner_diverged(tmp_path):
    result = _run("drl-cloud-diverges", tmp_path)
    assert result.results[4].divergence == DIVERGED_AT
    assert [(r.phase, r.episode) for r in result.results[4].records] == [("train", 0)]
    with open(result.summary_path) as f:
        assert next(csv.DictReader(f))["diverged"] == "1"


def test_diverging_seed_is_reported_only_by_its_divergence():
    # numpy's overflow warnings from the diverging update would otherwise
    # print before the run's own DIVERGED line
    errors = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_seed(config_from_dict(CONFIGS["drl-cloud-diverges"]), 4, [])
    assert result.divergence == DIVERGED_AT
    assert np.geterr() == errors


def test_drl_pin_has_the_same_bytes_under_a_forced_blas_core(tmp_path):
    # numpy's OpenBLAS picks its kernels by CPU when it loads, and
    # OPENBLAS_CORETYPE forces one; the learner's products may round
    # differently per kernel, but no action and so no metric may change
    script = (
        "import json, sys\n"
        "from edgeloop.config import config_from_dict\n"
        "from edgeloop.experiment import run_experiment\n"
        "run_experiment(config_from_dict(json.loads(sys.argv[1])), sys.argv[2])\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": path}
    forced = tmp_path / "forced"
    argv = [sys.executable, "-c", script, json.dumps(CONFIGS["drl-edge-jitter"]), str(forced)]
    subprocess.run(argv, env=env, check=True, timeout=300)
    _run("drl-edge-jitter", tmp_path)
    for name in GOLDEN["drl-edge-jitter"]:
        assert (forced / name).read_bytes() == (tmp_path / "out" / name).read_bytes(), name


# the stock 76-64-64-9 learner, updating from its 16th transition on, so the
# acting and training products run on the network and batch size runs use
TRAINING_RUN = {
    "seeds": [11],
    "episodes": 2,
    "eval_episodes": 1,
    "max_steps": 40,
    "agent": {"warmup": 16},
    "latency": {"jitter": 0.1},
}


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_a_training_run_has_the_same_bytes_under_a_forced_blas_core(core, tmp_path):
    # the learner's products may round differently under another kernel, but
    # the metrics of a run that acts and trains the stock network may not
    script = (
        "import json, sys\n"
        "from edgeloop.config import config_from_dict\n"
        "from edgeloop.experiment import run_experiment\n"
        "run_experiment(config_from_dict(json.loads(sys.argv[1])), sys.argv[2])\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": path}
    argv = [sys.executable, "-c", script, json.dumps(TRAINING_RUN), str(tmp_path / "forced")]
    subprocess.run(argv, env=env, check=True, timeout=300)
    result = run_experiment(config_from_dict(TRAINING_RUN), str(tmp_path / "here"))
    assert result.results[11].records[-1].phase == "eval"  # no divergence cut the run short
    names = sorted(p.name for p in (tmp_path / "here").iterdir())
    assert names == ["metrics_edge-collab_drl_seed11.jsonl", "summary.csv"]
    for name in names:
        assert (tmp_path / "forced" / name).read_bytes() == (tmp_path / "here" / name).read_bytes(), name


def test_drl_rebalance_config_moves_the_plan_between_cloud_and_both_edges(monkeypatch, tmp_path):
    solve = allocator.solve
    served = []

    def recorded(*args):
        plan = solve(*args)
        served.append(plan.choice[0])
        return plan

    monkeypatch.setattr(allocator, "solve", recorded)
    _run("drl-edge-rebalance", tmp_path)
    assert set(served) == {-1, 0, 1}


def test_greedy_trace_config_is_past_the_exact_search_limit(monkeypatch, tmp_path):
    greedy = allocator.solve_greedy
    calls = []

    def counted(*args):
        calls.append(args)
        return greedy(*args)

    monkeypatch.setattr(allocator, "solve_greedy", counted)
    _run("pid-greedy-trace", tmp_path)
    assert len(calls) > 10


def test_rebalance_config_moves_the_control_module(tmp_path):
    # one edge hop serves in 300 ms and two hops in 500 ms; a mean strictly
    # between them means the serving edge changed inside the episode
    result = run_experiment(config_from_dict(CONFIGS["pid-edge-rebalance"]), str(tmp_path))
    latencies = [r.mean_latency_ms for r in result.results[3].records]
    assert any(300.0 < lat < 500.0 for lat in latencies), latencies


def test_rebalance_config_re_solves_only_when_a_reading_needs_the_plan(monkeypatch, tmp_path):
    # 2 episodes x 8 report rounds x 2 edges reach the cloud, but only a
    # reading after a round re-solves: the first reading of the run, the 7
    # rounds that land inside each episode, and the first episode's last
    # round, which the second episode's first reading picks up
    solve = allocator.solve
    calls = []

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(allocator, "solve", counted)
    run_experiment(config_from_dict(CONFIGS["pid-edge-rebalance"]), str(tmp_path))
    assert len(calls) == 16
    got = {path.name: _sha256(path) for path in sorted(tmp_path.iterdir())}
    assert got == GOLDEN["pid-edge-rebalance"]


# The runs draw from numpy Generator streams through these rules, and the
# golden hashes rest on numpy keeping each of them (NEP 19 allows a release
# to change one). Each pin is the first draws from one fixed seed, so a numpy
# upgrade that changes a rule fails here, by name, and not only at a hash.
# The jitter words have their own rule test in test_simcore.py.
STREAM_RULES = {
    # the plant reset, the inlet noise drawn up front and the edge load drift
    "normal": (lambda rng: rng.normal(0.0, 2.0, 3).tolist(),
               [2.0577137479038026, 3.2838400813423005, 2.2934390591932274]),
    "scalar-normal": (lambda rng: [rng.normal(0.0, 2.0) for _ in range(3)],
                      [2.0577137479038026, 3.2838400813423005, 2.2934390591932274]),
    # the Q-network's initial weights
    "uniform": (lambda rng: rng.uniform(-0.5, 0.5, size=3).tolist(),
                [0.1758313379812818, -0.28567679876174235, -0.1905479691183083]),
    # epsilon-greedy exploration: the coin, then the random action
    "random": (lambda rng: [rng.random() for _ in range(3)],
               [0.6758313379812818, 0.21432320123825765, 0.3094520308816917]),
    "scalar-integers": (lambda rng: [int(rng.integers(0, 9)) for _ in range(8)],
                        [2, 6, 0, 1, 2, 2, 8, 7]),
    # replay sampling
    "choice-without-replacement": (
        lambda rng: rng.choice(5000, size=16, replace=False).tolist(),
        [3369, 393, 392, 1584, 4973, 4337, 1204, 3990, 710, 4570, 4535, 904, 460, 1069, 1544, 829],
    ),
}


@pytest.mark.parametrize("rule", sorted(STREAM_RULES))
def test_generator_stream_rules_are_pinned(rule):
    draw, first = STREAM_RULES[rule]
    assert draw(np.random.default_rng(2024)) == first
