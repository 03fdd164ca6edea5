"""End-to-end command line tests."""

import argparse
import csv
import dataclasses
import hashlib
import json

import pytest

from edgeloop import dqn, experiment
from edgeloop.allocator import (
    AffinityWeights,
    ControlModule,
    EdgeResource,
    plan_to_dict,
    prepare,
    solve_greedy,
)
from edgeloop.cli import _parse_seeds, main
from edgeloop.reporting import COMPARED_METRICS

RUN_YAML = """\
scenario: cloud-only
controller: pid
seeds: [1, 2]
episodes: 0
eval_episodes: 2
max_steps: 20
"""


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_run")
    cfg = root / "run.yaml"
    cfg.write_text(RUN_YAML)
    out = root / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_run_writes_metrics_and_summary(run_outputs):
    for seed in (1, 2):
        path = run_outputs / f"metrics_cloud-only_pid_seed{seed}.jsonl"
        assert path.exists()
        lines = [l for l in path.read_text().splitlines() if l]
        assert len(lines) == 2  # two eval episodes
    summary = run_outputs / "summary.csv"
    assert summary.exists()
    with open(summary, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][0] == "seed"
    assert len(rows) == 3


def test_run_applies_cli_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(RUN_YAML)
    out = tmp_path / "out"
    rc = main(
        [
            "run",
            "--config",
            str(cfg),
            "--scenario",
            "edge-collab",
            "--seeds",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    captured = capsys.readouterr().out
    assert "seed 3:" in captured
    assert "summary ->" in captured
    assert (out / "metrics_edge-collab_pid_seed3.jsonl").exists()


def test_run_without_out_writes_to_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.yaml").write_text(RUN_YAML)
    assert main(["run", "--config", "run.yaml", "--seeds", "1"]) == 0
    assert (tmp_path / "out" / "summary.csv").exists()


def test_run_prints_where_and_why_a_seed_diverged(tmp_path, capsys, monkeypatch):
    # at zero jitter every reading is served in order, and each served reading
    # after an episode's first trains once: call 27 is train episode 1, step 7
    calls = []

    def train(agent):
        calls.append(None)
        if len(calls) == 27:
            raise dqn.DivergenceError("non-finite training loss: nan")

    monkeypatch.setattr(dqn.DqnAgent, "train", train)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(
        "scenario: cloud-only\ncontroller: drl\nseeds: [4]\nepisodes: 3\n"
        "eval_episodes: 1\nmax_steps: 20\nagent: {warmup: 8, batch_size: 8}\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("seed 4: 1 episodes -> ")
    assert line.endswith(" DIVERGED in train episode 1 at step 7: non-finite training loss: nan")
    with open(out / "summary.csv", newline="") as f:
        assert next(csv.DictReader(f))["diverged"] == "1"


def test_compare_prints_table_and_writes_json(run_outputs, tmp_path, capsys):
    a = run_outputs / "metrics_cloud-only_pid_seed1.jsonl"
    b = run_outputs / "metrics_cloud-only_pid_seed2.jsonl"
    json_out = tmp_path / "cmp.json"
    rc = main(["compare", str(a), str(b), "--phase", "eval", "--json", str(json_out)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "cumulative_reward" in captured
    assert "mean_latency_ms" in captured
    rows = json.loads(json_out.read_text())
    assert [row["metric"] for row in rows] == [m for m, _ in COMPARED_METRICS]
    assert list(rows[0]) == ["metric", "mean_a", "mean_b", "delta_pct", "better", "improved"]


def test_alloc_solves_instance(tmp_path, capsys):
    instance = {
        "resources": [
            {
                "id": "edge-0",
                "capacity": 4.0,
                "current_load": 1.0,
                "bandwidth_mbps": 100.0,
                "compute_rating": 1.0,
            },
            {
                "id": "edge-1",
                "capacity": 4.0,
                "current_load": 0.5,
                "bandwidth_mbps": 80.0,
                "compute_rating": 0.8,
            },
        ],
        "modules": [
            {"id": "ctl-a", "load": 1.0, "intensity": 1.0},
            {"id": "ctl-b", "load": 2.0, "intensity": 0.5},
        ],
        "weights": {"bandwidth": 0.5, "cpu": 0.5},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    rc = main(["alloc", "--instance", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == []
    assert set(out["assignment"]) == {"ctl-a", "ctl-b"}
    assert out["unassigned"] == []
    assert out["objective"] > 0.0


def test_alloc_prints_the_greedy_plan_past_the_size_guard(tmp_path, capsys):
    # 9 servers and 8 modules: (9+1)^8 placements exceed the exact search guard
    resources = [EdgeResource(f"r{i}", capacity=1.0, bandwidth_mbps=10.0 + i) for i in range(9)]
    modules = [ControlModule(f"m{j}", load=0.4 + 0.05 * j) for j in range(8)]
    instance = {
        "resources": [dataclasses.asdict(r) for r in resources],
        "modules": [dataclasses.asdict(m) for m in modules],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    rc = main(["alloc", "--instance", str(path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out.pop("violations") == []
    scored = prepare(modules, resources, AffinityWeights())
    assert out == plan_to_dict(solve_greedy(scored, [r.headroom for r in resources]))


def test_alloc_flags_overloaded_instance(tmp_path, capsys):
    instance = {
        "resources": [
            {
                "id": "edge-0",
                "capacity": 1.0,
                "current_load": 2.0,
                "bandwidth_mbps": 100.0,
                "compute_rating": 1.0,
            }
        ],
        "modules": [],
        "weights": {"bandwidth": 0.5, "cpu": 0.5},
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    rc = main(["alloc", "--instance", str(path)])
    assert rc == 1
    out = json.loads(capsys.readouterr().out)
    assert out["violations"]
    assert "over capacity" in out["violations"][0]


def _edge(i, capacity, load, bandwidth, rating):
    return {"id": f"r{i}", "capacity": capacity, "current_load": load,
            "bandwidth_mbps": bandwidth, "compute_rating": rating}


ALLOC_GOLDEN = {
    # two equal servers and three equal modules: every plan that places all three ties
    "tie": (
        {"resources": [_edge(0, 2.5, 0.5, 80.0, 0.7), _edge(1, 2.5, 0.5, 80.0, 0.7)],
         "modules": [{"id": f"m{j}", "load": 1.0, "intensity": 0.4} for j in range(3)],
         "weights": {"bandwidth": 0.5, "cpu": 0.5}},
        0,
        "7e3bb069b727f104f091b31b9e2005cfd164625aa246e5fe02ad30837644b49e",
    ),
    # m2 fits on no server and stays at the cloud
    "unplaceable": (
        {"resources": [_edge(0, 3.0, 0.5, 100.0, 1.0), _edge(1, 2.0, 0.0, 60.0, 0.6)],
         "modules": [{"id": "m0", "load": 1.2, "intensity": 0.9},
                     {"id": "m1", "load": 0.8, "intensity": 0.3},
                     {"id": "m2", "load": 4.0, "intensity": 1.0}],
         "weights": {"bandwidth": 0.3, "cpu": 0.7}},
        0,
        "b021139e8f54523173f92780161dc680f5490124603328934ab24f5df3701e5d",
    ),
    # a withdrawn server (capacity 0) that still carries load: nothing is placed
    # on it, and its overload is reported with exit status 1
    "capacity-zero": (
        {"resources": [_edge(0, 0.0, 0.25, 150.0, 1.0), _edge(1, 3.0, 1.0, 40.0, 0.5)],
         "modules": [{"id": "m0", "load": 1.0, "intensity": 0.5},
                     {"id": "m1", "load": 1.5, "intensity": 0.8}]},
        1,
        "b2c614562dd67c378507e8e0ed3d483a28dda189344f14461e2b278923a54070",
    ),
    # (9+1)^8 placements pass the exact search guard, so the greedy plan prints
    "greedy-fallback": (
        {"resources": [_edge(i, 0.5 + 0.25 * i, 0.1 * (i % 3), 10.0 + 7 * i, 0.3 + 0.07 * i)
                       for i in range(9)],
         "modules": [{"id": f"m{j}", "load": 0.4 + 0.15 * j, "intensity": 0.1 + 0.1 * j}
                     for j in range(8)],
         "weights": {"bandwidth": 0.6, "cpu": 0.4}},
        0,
        "ce51f6a59b8c12a5fef9a21ed52eece989b251ff93377837d2f5974b0a54e763",
    ),
}


@pytest.mark.parametrize("name", list(ALLOC_GOLDEN))
def test_alloc_output_bytes_are_pinned(tmp_path, capsys, name):
    # sha256 of the stdout earlier solver code printed: a solver change that
    # moves any plan, objective bit or output byte fails here
    instance, status, stdout_sha256 = ALLOC_GOLDEN[name]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert main(["alloc", "--instance", str(path)]) == status
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha256


def test_plot_data_writes_series(run_outputs, tmp_path, capsys):
    metrics = run_outputs / "metrics_cloud-only_pid_seed1.jsonl"
    out = tmp_path / "series.csv"
    rc = main(["plot-data", str(metrics), "--out", str(out), "--phase", "eval"])
    assert rc == 0
    assert "csv ->" in capsys.readouterr().out
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["episode", "reward", "reward_ma", "failures_cum"]
    assert len(rows) == 3  # header plus two eval episodes


def test_plot_data_exits_when_nothing_matches(run_outputs, tmp_path, capsys):
    metrics = run_outputs / "metrics_cloud-only_pid_seed1.jsonl"
    out = tmp_path / "series.csv"
    rc = main(["plot-data", str(metrics), "--out", str(out), "--phase", "train"])
    assert rc == 1
    assert "no records matched" in capsys.readouterr().err
    assert not out.exists()


def test_compare_exits_when_nothing_matches(run_outputs, tmp_path, capsys):
    metrics = run_outputs / "metrics_cloud-only_pid_seed1.jsonl"
    json_out = tmp_path / "cmp.json"
    rc = main(["compare", str(metrics), str(metrics), "--phase", "train", "--json", str(json_out)])
    assert rc == 1
    assert capsys.readouterr() == ("", "no records matched\n")
    assert not json_out.exists()


def test_parse_seeds():
    assert _parse_seeds("1,2,3") == [1, 2, 3]
    assert _parse_seeds("7") == [7]
    assert _parse_seeds("1,2,") == [1, 2]
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_seeds("1,x")


def test_unknown_command_is_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "config_text, flags, names",
    [
        (None, ["--controller", "pid", "--seeds", "1,1", "--episodes", "0"], "seeds must not repeat"),
        (None, ["--seeds", ","], "seeds must contain at least one seed"),
        (None, ["--episodes", "-1"], "episodes must be >= 0"),
        ("agent: {buffer_capacity: 500}\n", [], "agent: warmup must be"),
        ("seeds: [1, 1]\n", [], "seeds must not repeat"),
        ("seeds: [1\n", [], "invalid YAML"),
        ("plant: {level_setpoint: 1.5}\n", [], "plant: level_setpoint must be <= 1.0"),
        ("plant: {outlet_setpoint_c: 700.0}\n", [], "plant: outlet_setpoint_c must be <= 600.0"),
        ("latency: {jitter: 0.9, cloud_uplink_ms: 3000000000}\n", [],
         "latency: cloud_uplink_ms must be >= 1 ms and < 2**31 ms"),
        (b"# caf\xff\nseeds: [1]\n", [], "invalid YAML: unacceptable character #x00ff"),
    ],
    ids=["override-repeated-seed", "override-empty-seeds", "override-negative-episodes",
         "file-warmup-past-buffer", "file-repeated-seed", "file-bad-yaml",
         "file-level-setpoint-past-1", "file-outlet-setpoint-past-600", "file-uplink-past-2-31-ms",
         "not-utf-8"],
)
def test_config_errors_print_one_line_and_return_2(tmp_path, capsys, config_text, flags, names):
    argv = ["run", "--out", str(tmp_path / "out"), *flags]
    if config_text is not None:
        path = tmp_path / "run.yaml"
        path.write_bytes(config_text if isinstance(config_text, bytes) else config_text.encode())
        argv += ["--config", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("edgeloop: config: "), lines
    assert not lines[0].startswith("edgeloop: config: config:")
    assert names in lines[0]
    assert not (tmp_path / "out").exists()


def one_error_line(capsys):
    """The one line a rejected input leaves on stderr; nothing is printed on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    return lines[0]


@pytest.mark.parametrize(
    "rows, sensor, kind, names",
    [
        ("0,inlet,100.0,furlong\n", "inlet", "trace", "line 2: unknown unit 'furlong'"),
        ("0,outlet,100.0,C\n", "inlet", "config", "trace_sensor 'inlet' has no rows in"),
        ("0,inlet,100.0,C\n60,inlet,nan,C\n", "inlet", "trace", "line 3: value 'nan' is not finite"),
        ("0,inlet,inf,C\n", "inlet", "trace", "line 2: value 'inf' is not finite"),
        # a header-only trace has no rows for any sensor, named or not
        ("", "inlet", "config", "trace_file has no rows: "),
        ("", None, "config", "trace_file has no rows: "),
        (b"0,inlet\xff,100.0,C\n", "inlet", "trace", "not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    ],
    ids=["unknown-unit", "sensor-without-rows", "nan-value", "infinite-value",
         "empty-trace-named-sensor", "empty-trace", "not-utf-8"],
)
def test_trace_errors_print_one_line_and_return_2(tmp_path, capsys, rows, sensor, kind, names):
    trace = tmp_path / "trace.csv"
    trace.write_bytes(b"timestamp,sensor_id,value,unit\n" + (rows if isinstance(rows, bytes) else rows.encode()))
    path = tmp_path / "run.yaml"
    path.write_text(f"trace_file: {json.dumps(str(trace))}\ntrace_sensor: {json.dumps(sensor)}\n"
                    "trace_disturbance_scale: 1.0\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    line = one_error_line(capsys)
    assert line.startswith(f"edgeloop: {kind}: ") and names in line, line
    assert kind == "config" or line.startswith(f"edgeloop: trace: {trace}"), line
    assert not (tmp_path / "out").exists()


EDGE = {"id": "edge-0", "capacity": 4.0}


@pytest.mark.parametrize(
    "text, names",
    [
        ("not json", "Expecting value"),
        (json.dumps({"weights": {"gpu": 1}}), "malformed instance"),
        (json.dumps({"resources": [EDGE], "modules": [], "weights": {"gpu": 1}}), "'gpu'"),
        (json.dumps({"resources": [], "modules": []}), "instance has no resources"),
        (json.dumps({"resources": [EDGE, EDGE], "modules": []}), "duplicate resource ids"),
        (json.dumps({"resources": [{**EDGE, "capacity": -1.0}], "modules": []}),
         "resource edge-0: capacity must be >= 0"),
        ('{"resources": [{"id": "r", "capacity": NaN}], "modules": [{"id": "m", "load": 1.0}]}',
         "expected a finite number, got NaN"),
        ('{"resources": [{"id": "r", "capacity": 5, "bandwidth_mbps": Infinity}],'
         ' "modules": [{"id": "m", "load": 1.0}]}', "expected a finite number, got Infinity"),
        ('{"resources": [{"id": "r", "capacity": 1e999}], "modules": []}',
         "expected a finite number, got 1e999"),
        ('{"resources": [{"id": "r", "capacity": %s}], "modules": [{"id": "m", "load": 1}]}'
         % ("1" * 401), "expected a finite number, got 111"),
    ],
    ids=["invalid-json", "no-resources-key", "unknown-weights-key", "no-resources",
         "duplicate-ids", "negative-capacity", "nan-capacity", "infinite-bandwidth",
         "overflowing-capacity", "overflowing-integer-capacity"],
)
def test_alloc_bad_instance_prints_one_line_and_returns_2(tmp_path, capsys, text, names):
    path = tmp_path / "instance.json"
    path.write_text(text)
    assert main(["alloc", "--instance", str(path)]) == 2
    line = one_error_line(capsys)
    assert line.startswith(f"edgeloop: instance: {path}: ") and names in line, line


@pytest.mark.parametrize(
    "command, kind",
    [("run", "config"), ("alloc", "instance"), ("trace", "trace"), ("missing-trace", "trace"),
     ("compare", "metrics"), ("plot-data", "metrics")],
    ids=["run-config", "alloc-instance", "trace-file-is-a-directory", "missing-trace-file",
         "compare-metrics", "plot-data-metrics"],
)
def test_unreadable_input_files_print_one_line_and_return_2(run_outputs, tmp_path, capsys, command, kind):
    missing = tmp_path / "nope"
    if command == "run":
        argv = ["run", "--config", str(missing), "--out", str(tmp_path / "out")]
    elif command == "alloc":
        argv = ["alloc", "--instance", str(missing)]
    elif command == "compare":
        argv = ["compare", str(run_outputs / "metrics_cloud-only_pid_seed1.jsonl"), str(missing)]
    elif command == "plot-data":
        argv = ["plot-data", str(missing), "--out", str(tmp_path / "out")]
    else:  # the run reads its trace file, even at the default disturbance scale of 0
        path = tmp_path / "run.yaml"
        if command == "trace":
            missing.mkdir()
            path.write_text(f"trace_file: {json.dumps(str(missing))}\ntrace_disturbance_scale: 1.0\n")
        else:
            path.write_text(f"trace_file: {json.dumps(str(missing))}\n")
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    line = one_error_line(capsys)
    assert line.startswith(f"edgeloop: {kind}: {missing}: "), line
    assert not (tmp_path / "out").exists()


def metrics_row(**fields) -> bytes:
    """One metrics row of valid values, but for the given fields."""
    row = {
        "seed": 1, "scenario": "cloud-only", "controller": "pid", "phase": "eval",
        "episode": 0, "uninterrupted_steps": 20, "failure_count": 0,
        "cumulative_reward": -1.0, "mean_latency_ms": 1500.0, "p95_latency_ms": 1500.0,
        "latency_samples": 20, "control_loss": 0.5, "action_accuracy": 1.0, "utilization": 0.02,
    }
    return json.dumps({**row, **fields}).encode() + b"\n"


@pytest.mark.parametrize("command", ["compare", "plot-data"])
@pytest.mark.parametrize(
    "text, names",
    [
        (b"not json\n", "line 1: bad metrics row: Expecting value"),
        (b'\n{"episode": 1}\n', "line 2: bad metrics row: "),
        (b'\n\n[1, 2]\n', "line 3: bad metrics row: "),
        (b"\xff\n", "line 1: bad metrics row: 'utf-8' codec can't decode byte 0xff"),
        (metrics_row(cumulative_reward="x"), "line 1: bad metrics row: cumulative_reward must be float, got 'x'"),
        (metrics_row(episode=True), "line 1: bad metrics row: episode must be int, got True"),
        (metrics_row(phase=3), "line 1: bad metrics row: phase must be str, got 3"),
    ],
    ids=["invalid-json", "missing-fields", "not-an-object", "not-utf-8",
         "string-for-float", "bool-for-int", "int-for-str"],
)
def test_bad_metrics_files_print_one_line_and_return_2(tmp_path, capsys, command, text, names):
    path = tmp_path / "metrics.jsonl"
    path.write_bytes(text)
    out = tmp_path / "out.csv"
    if command == "compare":
        argv = ["compare", str(path), str(path), "--json", str(out)]
    else:
        argv = ["plot-data", str(path), "--out", str(out)]
    assert main(argv) == 2
    line = one_error_line(capsys)
    assert line.startswith(f"edgeloop: metrics: {path} ") and names in line, line
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare", "plot-data"])
def test_unwritable_output_paths_print_one_line_and_return_2(run_outputs, tmp_path, capsys, monkeypatch, command):
    metrics = str(run_outputs / "metrics_cloud-only_pid_seed1.jsonl")
    if command == "run":  # an existing file where the output directory should be
        out = tmp_path / "out"
        out.write_text("")
        (tmp_path / "run.yaml").write_text(RUN_YAML)
        argv = ["run", "--config", str(tmp_path / "run.yaml"), "--seeds", "1", "--out", str(out)]

        def no_seed_runs(*args):
            raise AssertionError("a seed ran before the output directory was made")

        monkeypatch.setattr(experiment, "run_seed", no_seed_runs)
    elif command == "compare":  # a file in a missing directory
        out = tmp_path / "missing" / "cmp.json"
        argv = ["compare", metrics, metrics, "--json", str(out)]
    else:
        out = tmp_path / "missing" / "series.csv"
        argv = ["plot-data", metrics, "--out", str(out)]
    assert main(argv) == 2
    line = one_error_line(capsys)
    assert line.startswith(f"edgeloop: output: {out}: "), line
