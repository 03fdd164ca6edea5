"""Property checks over configs drawn at the edges of their valid ranges.

Each drawn config either fails when it is built, with a ConfigError that
names the offending key, or runs; a run must give finite metrics, a
utilization within [0, 1], and the same bytes when it is run again.
"""

import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from edgeloop.config import ConfigError, config_from_dict
from edgeloop.experiment import run_experiment

TIGHT_EDGE = {"id": "tight", "capacity": 1.0, "current_load": 0.9,
              "bandwidth_mbps": 10.0, "compute_rating": 0.1}


@st.composite
def edge_configs(draw):
    """A config dict and, when a value is out of range, the start of its error.

    Each list starts with its most extreme value, the one hypothesis favours.
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
            "preset": draw(st.sampled_from(["slow-cloud", "default"])),
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
    # about one config in four has one value just past its range
    if draw(st.integers(0, 3)) < 3:
        return config, None
    section, key, value = draw(st.sampled_from(
        [("latency", "jitter", 1.0), ("latency", "compute_ms", 5000),
         ("agent", "warmup", replay + 1), (None, "max_steps", 0)]
    ))
    (config[section] if section else config)[key] = value
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
