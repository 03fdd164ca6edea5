"""Metrics comparison and plot-series tests."""

import csv
import dataclasses
import json

import numpy as np
import pytest

import oracles
from edgeloop.reporting import (
    COMPARED_METRICS,
    MOVING_AVERAGE_WINDOW,
    MetricsRecord,
    compare,
    emit_plot_data,
    plot_series,
    read_metrics,
    render_table,
    write_metrics,
)


def make_record(**overrides) -> MetricsRecord:
    base = dict(
        seed=1,
        scenario="edge-collab",
        controller="drl",
        phase="eval",
        episode=0,
        uninterrupted_steps=500,
        failure_count=0,
        cumulative_reward=-10.0,
        mean_latency_ms=300.0,
        p95_latency_ms=300.0,
        latency_samples=500,
        control_loss=0.02,
        action_accuracy=0.8,
        utilization=0.02,
    )
    base.update(overrides)
    return MetricsRecord(**base)


def test_identical_runs_compare_to_zero_deltas():
    records = [make_record(episode=i) for i in range(4)]
    comps = compare(records, records)
    assert [c.metric for c in comps] == [m for m, _ in COMPARED_METRICS]
    for comp in comps:
        if comp.mean_b == 0.0:
            assert comp.delta_pct is None
        else:
            assert comp.delta_pct == 0.0
            # zero delta is not an improvement in either direction
            assert comp.improved is None or comp.improved is False


def test_reward_delta_percentage():
    a = [make_record(cumulative_reward=880.0), make_record(cumulative_reward=900.0)]
    b = [make_record(cumulative_reward=740.0), make_record(cumulative_reward=760.0)]
    comp = next(c for c in compare(a, b) if c.metric == "cumulative_reward")
    assert comp.mean_a == 890.0
    assert comp.mean_b == 750.0
    assert comp.delta_pct == pytest.approx(100.0 * 140.0 / 750.0)
    assert comp.improved is True


def test_negative_baseline_uses_magnitude():
    # rewards are typically negative; a move from -600 to -300 is +50%
    a = [make_record(cumulative_reward=-300.0)]
    b = [make_record(cumulative_reward=-600.0)]
    comp = next(c for c in compare(a, b) if c.metric == "cumulative_reward")
    assert comp.delta_pct == pytest.approx(50.0)
    assert comp.improved is True


def test_lower_is_better_for_latency():
    a = [make_record(mean_latency_ms=300.0)]
    b = [make_record(mean_latency_ms=1500.0)]
    comp = next(c for c in compare(a, b) if c.metric == "mean_latency_ms")
    assert comp.delta_pct == pytest.approx(-80.0)
    assert comp.improved is True
    worse = next(c for c in compare(b, a) if c.metric == "mean_latency_ms")
    assert worse.delta_pct == pytest.approx(400.0)
    assert worse.improved is False


def test_zero_baseline_has_no_percentage():
    a = [make_record(failure_count=2)]
    b = [make_record(failure_count=0)]
    comp = next(c for c in compare(a, b) if c.metric == "failure_count")
    assert comp.delta_pct is None
    assert comp.improved is None


def test_neutral_metric_is_never_judged():
    a = [make_record(utilization=0.9)]
    b = [make_record(utilization=0.1)]
    comp = next(c for c in compare(a, b) if c.metric == "utilization")
    assert comp.delta_pct == pytest.approx(800.0)
    assert comp.improved is None


def test_compare_rejects_empty_sides():
    records = [make_record()]
    with pytest.raises(ValueError):
        compare([], records)
    with pytest.raises(ValueError):
        compare(records, [])


def test_render_table_formats_deltas():
    a = [make_record(cumulative_reward=890.0, failure_count=2)]
    b = [make_record(cumulative_reward=750.0, failure_count=0)]
    table = render_table(compare(a, b))
    lines = table.splitlines()
    assert "metric" in lines[0] and "run_a" in lines[0] and "run_b" in lines[0]
    reward_line = next(l for l in lines if l.startswith("cumulative_reward"))
    assert "+18.7%" in reward_line
    assert "better" in reward_line
    failure_line = next(l for l in lines if l.startswith("failure_count"))
    assert "n/a" in failure_line


def test_render_table_rounds_to_one_decimal():
    a = [make_record(cumulative_reward=3820.0)]
    b = [make_record(cumulative_reward=2810.0)]
    table = render_table(compare(a, b))
    reward_line = next(l for l in table.splitlines() if l.startswith("cumulative_reward"))
    # 100 * 1010 / 2810 = 35.94...
    assert "+35.9%" in reward_line


def test_comparison_dict_round_trip():
    # the rows `compare --json` writes: plain values only, in field order
    a = [make_record(cumulative_reward=890.0)]
    b = [make_record(cumulative_reward=750.0, utilization=0.0)]
    rows = [dataclasses.asdict(c) for c in compare(a, b)]
    assert json.loads(json.dumps(rows)) == rows
    assert rows[0]["metric"] == "cumulative_reward"
    assert rows[0]["improved"] is True
    assert rows[-1]["metric"] == "utilization"
    assert rows[-1]["delta_pct"] is None and rows[-1]["improved"] is None


def test_plot_series_matches_trailing_mean_oracle():
    rng = np.random.default_rng(77)
    records = [
        make_record(
            episode=i,
            cumulative_reward=float(rng.normal(-200.0, 80.0)),
            failure_count=int(rng.integers(0, 2)),
        )
        for i in range(120)
    ]
    rows = plot_series(records)
    rewards = [r.cumulative_reward for r in records]
    expected_ma = oracles.trailing_mean(rewards, MOVING_AVERAGE_WINDOW)
    assert len(rows) == 120
    failures = 0
    for i, row in enumerate(rows):
        failures += records[i].failure_count
        assert row["episode"] == i
        assert row["reward"] == rewards[i]
        assert row["reward_ma"] == expected_ma[i]
        assert row["failures_cum"] == failures


def test_plot_series_single_record():
    rows = plot_series([make_record(cumulative_reward=-42.5, failure_count=1)])
    assert len(rows) == 1
    assert rows[0]["reward_ma"] == -42.5
    assert rows[0]["failures_cum"] == 1


def test_emit_plot_data_round_trip(tmp_path):
    records = [
        make_record(episode=i, cumulative_reward=-100.0 + 3.7 * i, failure_count=i % 2)
        for i in range(10)
    ]
    path = tmp_path / "plot.csv"
    emit_plot_data(records, path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["episode", "reward", "reward_ma", "failures_cum"]
    series = plot_series(records)
    assert len(rows) == 11
    for parsed, expected in zip(rows[1:], series):
        assert int(parsed[0]) == expected["episode"]
        assert float(parsed[1]) == expected["reward"]
        assert float(parsed[2]) == expected["reward_ma"]
        assert int(parsed[3]) == expected["failures_cum"]


def test_read_metrics_round_trip(tmp_path):
    records = [make_record(episode=i, cumulative_reward=-1.5 * i) for i in range(5)]
    path = tmp_path / "metrics.jsonl"
    write_metrics(records, path)
    assert read_metrics(path) == records


def test_read_metrics_reports_bad_line(tmp_path):
    path = tmp_path / "metrics.jsonl"
    with open(path, "w") as f:
        f.write(json.dumps(dataclasses.asdict(make_record())) + "\n")
        f.write("{not json\n")
    with pytest.raises(ValueError, match="line 2"):
        read_metrics(path)
