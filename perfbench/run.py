"""edgeloop benchmark: one workload at one seed, as a closed loop of timed runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload's inputs are generated from --seed (see workloads.py). Then
one `edgeloop run` after another is made, each in a fresh Python process
(child.py) started when the previous one has exited, until the next would
end after --seconds; at least three runs are made either way. Runs use the
source tree next to this directory, so nothing needs installing.

Every run's output is read back and checked against the configured episode
counts, and the sha256 of its metrics files must match that of the first
run. A run that raises, diverges, fails a check or differs counts as
failed. The hash is also compared with the one trajectory.json records for
this workload and seed, if any, and the outcome is printed and kept in the
results; a change that only speeds the program up must keep it equal.

With --trace 0 the last stdout line reports the end-to-end metrics: medians
over the runs of host time, throughput, set-up time and peak memory, plus
the simulated outcomes, which repeat exactly. Host times are scaled to the
host's reference speed by a probe timed alongside them (see child.py). With --trace 1, runs
alternate between untraced and traced (see tracing.py) and the line
reports the per-layer metrics of the traced runs and the tracing overhead.
Everything measured, with every run's hash, is also written to
results.json in the run's work directory (see work_dir).
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRAJECTORY = HERE / "trajectory.json"
HARD_LIMIT_S = 170  # a whole invocation must end within 180 s
MIN_UNTRACED = 3
MIN_TRACED = 2

# the declared metrics and their units; a run reports exactly these
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def work_dir(workload: str, seed: int, trace: int) -> Path:
    """Where one invocation keeps its inputs, outputs and results.json."""
    return WORK_ROOT / f"{workload}-seed{seed}-trace{trace}"


def recorded_sha256(workload: str, seed: int) -> str | None:
    """The metrics hash the latest trajectory entry records for this workload and seed."""
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    for entry in reversed(trajectory):
        recorded = entry["workloads"].get(workload, {}).get("metrics_sha256", {})
        if str(seed) in recorded:
            return recorded[str(seed)]
    return None


def run_child(workload: workloads.Workload, work: Path, index: int, traced: bool, timeout: float) -> dict:
    out = work / f"out{index}"
    spec = {
        "src": str(SRC),
        "config": str(workload.config_path),
        "out": str(out),
        "trace": traced,
        "spans_out": str(work / "spans.csv"),
        "expect": {
            "seeds": workload.seeds,
            "train": workload.train_episodes,
            "eval": workload.eval_episodes,
            "steps_per_episode": workload.steps_per_episode,
        },
    }
    spec_path = work / f"spec{index}.json"
    spec_path.write_text(json.dumps(spec))
    command = [sys.executable, str(HERE / "child.py"), str(spec_path)]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        result = {"ok": False, "problems": [f"run did not finish within {timeout:.0f} s"]}
    else:
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"ok": False, "problems": [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]}
    shutil.rmtree(out, ignore_errors=True)
    result["traced"] = traced
    return result


def mark_failures(runs: list[dict]) -> None:
    """Fail runs whose metrics hash, or traced per-step counts, differ from the first."""
    reference = next((r["sha256"] for r in runs if r.get("sha256")), None)
    counts = next((r["trace"]["counts"] for r in runs if r.get("trace")), None)
    for r in runs:
        if r.get("sha256") != reference:
            r["ok"] = False
            r.setdefault("problems", []).append("metrics sha256 differs from the first run")
        if r.get("trace") and r["trace"]["counts"] != counts:
            r["ok"] = False
            r.setdefault("problems", []).append("per-step counts differ from the first traced run")


def end_to_end(good: list[dict]) -> dict[str, float]:
    sim = good[0]["sim"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in good),
        "steps_per_s": statistics.median(sim["steps"] / r["wall_s"] for r in good),
        "setup_s": statistics.median(r["setup_s"] for r in good),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        "sim.eval_cost": sim["eval_cost"],
        "sim.uptime_share": sim["uptime_share"],
        "sim.loop_latency_ms": sim["loop_latency_ms"],
        "sim.action_accuracy": sim["action_accuracy"],
    }


def per_layer(good: list[dict]) -> dict[str, float]:
    traced = [r for r in good if r["traced"]]
    untraced = [r for r in good if not r["traced"]]
    first = traced[0]["trace"]
    metrics = {name: statistics.median(r["trace"]["times"][name] for r in traced) for name in first["times"]}
    metrics.update(first["counts"])
    metrics["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / statistics.median(
        r["wall_s"] for r in untraced
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # turn a termination request into an exception, so subprocess.run kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "edgeloop" / "__init__.py").is_file():
        print(f"no edgeloop source tree at {SRC}", file=sys.stderr)
        return 2

    work = work_dir(args.workload, args.seed, args.trace)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.build(args.workload, args.seed, work)

    runs: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        began = time.perf_counter()
        runs.append(run_child(workload, work, len(runs), traced, HARD_LIMIT_S - (began - start)))
        longest = max(longest, time.perf_counter() - began)
        projected = time.perf_counter() - start + longest
        n_traced = sum(r["traced"] for r in runs)
        enough = len(runs) - n_traced >= MIN_UNTRACED and (not args.trace or n_traced >= MIN_TRACED)
        if (enough and projected > args.seconds) or projected > HARD_LIMIT_S:
            break
    mark_failures(runs)

    for i, r in enumerate(runs):
        status = "ok" if r["ok"] else "FAILED: " + "; ".join(r.get("problems", []))
        kind = "traced" if r["traced"] else "untraced"
        timing = (
            f"wall {r['wall_s']:.4f} s (raw {r['raw_wall_s']:.4f})  setup {r['setup_s']:.4f} s" if "wall_s" in r else ""
        )
        print(f"run {i} ({kind}) {timing}  sha256 {r.get('sha256', '-')[:16]}  {status}")

    good = [r for r in runs if r["ok"]]
    failed = len(runs) - len(good)
    if all(r["traced"] for r in good) or (args.trace and not any(r["traced"] for r in good)):
        print("no run passed its checks", file=sys.stderr)
        return 1
    sim = good[0]["sim"]
    print(
        f"{args.workload} seed {args.seed}: {sim['steps']} simulated steps per run, "
        f"failure share {sim['failure_share']!r}, metrics sha256 {good[0]['sha256']}"
    )
    reference = recorded_sha256(args.workload, args.seed)
    matches_reference = None if reference is None else good[0]["sha256"] == reference
    if reference is None:
        print(f"no metrics sha256 recorded for {args.workload} seed {args.seed} in trajectory.json")
    else:
        print(f"metrics sha256 {'matches' if matches_reference else 'DIFFERS FROM'} the recorded {reference}")
    if args.trace:
        metrics = per_layer(good)
        shares = next(r for r in good if r["traced"])["trace"]["shares"]
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]["self"]):
            print(f"  {name:28s} self {share['self']:7.2%}  inclusive {share['inclusive']:7.2%}")
    else:
        metrics = end_to_end(good)
        shares = None
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(units)}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value!r} {units[name]}")

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config": json.loads(workload.config_path.read_text()),
        "simulated": sim,
        "metrics_sha256": good[0]["sha256"],
        "matches_recorded_sha256": matches_reference,
        "metrics": metrics,
        "shares": shares,
        "env": good[0]["env"],
        "runs": [{k: v for k, v in r.items() if k not in ("env", "trace")} for r in runs],
    }
    (work / "results.json").write_text(json.dumps(results, indent=2) + "\n")
    summary = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
