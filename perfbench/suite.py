"""Run every workload, untraced and traced, and print all metrics and layer checks.

    python3 perfbench/suite.py [--seed N] [--record LABEL]

Each workload is run through run.py exactly as a single benchmark run
would be, one after another, for BENCHMARK.json's run_seconds. The table
lists every end-to-end metric by name and unit, the failure share, the
metrics hash and the per-layer metrics. The checks confirm that every run
passed, that each metrics hash equals the one trajectory.json records for
the seed, and that each workload stresses the layer it was built for. With
--record, the numbers, the hashes and the host environment are appended to
trajectory.json under LABEL.
"""

from __future__ import annotations

import argparse
import datetime
import json
import subprocess
import sys

import run
import workloads

UNITS = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer") for m in run.BENCHMARK[group]}


def run_workload(name: str, seed: int, trace: int) -> dict:
    """Run one workload through run.py and return its results.json."""
    command = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed)]
    command += ["--seconds", str(run.BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{name} --trace {trace} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads((run.work_dir(name, seed, trace) / "results.json").read_text())


def layer_checks(runs: dict) -> dict[str, bool]:
    def shares(name):
        return runs[name][1]["shares"]

    def layer(name, metric):
        return runs[name][1]["metrics"][metric]

    drl_top = max(shares("drl-train").items(), key=lambda kv: kv[1]["self"])[0]
    pid_spans = shares("pid-cloud-jitter")
    churn_solve = shares("alloc-churn").get("allocator.solve", {"inclusive": 0.0})["inclusive"]
    return {
        "drl-train: dqn.train_step has the largest self-time share": drl_top == "dqn.train_step",
        "pid-cloud-jitter: no dqn or allocator spans": not any(
            s.startswith(("dqn.", "allocator.")) for s in pid_spans
        ),
        "alloc-churn: allocator.solve takes at least a tenth of host time": churn_solve >= 0.1,
        "alloc-churn: more sends per step than pid-cloud-jitter": layer("alloc-churn", "simcore.sends_per_step")
        > layer("pid-cloud-jitter", "simcore.sends_per_step"),
        "every run passed its output, hash and count checks": all(
            r["ok"] for pair in runs.values() for results in pair for r in results["runs"]
        ),
        "every metrics sha256 recorded for the seed is matched": all(
            results["matches_recorded_sha256"] is not False for pair in runs.values() for results in pair
        ),
    }


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--record", metavar="LABEL", default=None)
    args = parser.parse_args()

    runs = {}
    for name in workloads.GENERATORS:
        runs[name] = [run_workload(name, args.seed, trace) for trace in (0, 1)]

    for name, (plain, traced) in runs.items():
        print(f"\n{name} (seed {args.seed}, {plain['simulated']['steps']} simulated steps per run)")
        for metric, value in plain["metrics"].items():
            print(f"  {metric:34s} {value:14.6g} {UNITS[metric]}")
        print(f"  {'sim.failure_share':34s} {plain['simulated']['failure_share']:14.6g} ratio")
        print(f"  {'metrics sha256':34s} {plain['metrics_sha256']}")
        for metric, value in traced["metrics"].items():
            print(f"  {metric:34s} {value:14.6g} {UNITS[metric]}")

    checks = layer_checks(runs)
    print()
    for text, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {text}")

    if args.record:
        entry = {
            "label": args.record,
            "commit": git_commit(),
            "date": datetime.date.today().isoformat(),
            "seed": args.seed,
            "seconds": run.BENCHMARK["run_seconds"],
            "env": runs["drl-train"][0]["env"],
            "workloads": {
                name: {
                    "simulated_steps": plain["simulated"]["steps"],
                    "failure_share": plain["simulated"]["failure_share"],
                    "metrics_sha256": {str(args.seed): plain["metrics_sha256"]},
                    "end_to_end": plain["metrics"],
                    "per_layer": traced["metrics"],
                }
                for name, (plain, traced) in runs.items()
            },
            "checks": checks,
        }
        trajectory = json.loads(run.TRAJECTORY.read_text()) if run.TRAJECTORY.exists() else []
        trajectory.append(entry)
        run.TRAJECTORY.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"recorded {args.record!r} in {run.TRAJECTORY.relative_to(run.ROOT)}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
