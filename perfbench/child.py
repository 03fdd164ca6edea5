"""One timed `edgeloop run`, in the fresh process the benchmark starts for it.

    python3 perfbench/child.py SPEC.json

SPEC names the source tree, the generated config, the output directory, the
expected episode counts and whether to trace. The process first times its
set-up (importing edgeloop, loading the config and, where configured, the
disturbance trace), then times `edgeloop.cli.main(["run", ...])`, then
checks the files the run wrote. Its last stdout line is one JSON object.

The host is shared, and its speed swings by up to a half within seconds
and drifts over minutes, for every program alike. So while set-up and the
run are timed, a fixed probe runs every PROBE_INTERVAL_S (on SIGALRM) and
is timed too: interpreter work during set-up, interpreter and small-array
work during the run. `wall_s` and `setup_s` are the raw times less the
probes' time, scaled by the probe's reference time over its mean time:
seconds at the host's reference speed. The probe is the benchmark's own
code, so a change to edgeloop moves these exactly as it moves the raw
times, which are reported as well. Probes that fire inside a traced span
add to that span's time (a few per cent).
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import glob
import hashlib
import heapq
import io
import json
import math
import os
import platform
import resource
import signal
import sys
import time
import traceback
from pathlib import Path


# each probe's typical mean time inside runs on the reference host
# (2 vCPUs, Python 3.11, numpy 2)
INTERPRETER_PROBE_NS = 400_000
MIXED_PROBE_NS = 750_000
PROBE_INTERVAL_S = 0.02


def interpreter_probe() -> None:
    """A fixed piece of interpreter work: dict, float and heap operations."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(1000):
        key = i & 15
        table[key] = table.get(key, 0.0) * 0.5 + math.sin(i * 0.1)
        total += abs(table[key])
    heapq.heapify([total - i for i in range(64)])


def mixed_probe():
    """interpreter_probe plus small-array work like a Q-network's; needs numpy imported."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, w1, w2 = rng.standard_normal((16, 8)), rng.standard_normal((8, 64)), rng.standard_normal((64, 4))

    def probe() -> None:
        interpreter_probe()
        for _ in range(40):
            hidden = np.maximum(x @ w1, 0.0)
            (hidden @ w2).argmax(axis=1)

    return probe


class SpeedSampler:
    """Runs and times `probe` every PROBE_INTERVAL_S while active (SIGALRM)."""

    def __init__(self, probe, reference_ns: int):
        self.probe = probe
        self.reference_ns = reference_ns
        self.samples: list[int] = []

    def _tick(self, *_):
        start = time.perf_counter_ns()
        self.probe()
        self.samples.append(time.perf_counter_ns() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalise(self, elapsed_ns: int) -> tuple[float, float]:
        """(raw seconds without the probes, seconds at the reference speed)."""
        own_ns = elapsed_ns - sum(self.samples)
        if not self.samples:
            return own_ns / 1e9, own_ns / 1e9
        return own_ns / 1e9, own_ns / 1e9 * self.reference_ns * len(self.samples) / sum(self.samples)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs", "libscipy_openblas*"))
    if libs:
        get_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
        get_threads.restype = ctypes.c_int
        threads = get_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def check_outputs(out_dir: Path, expect: dict, reporting) -> tuple[list, list[str]]:
    """Read back every metrics file and the summary; return (records, problems)."""
    problems = []
    records = []
    metrics_files = sorted(out_dir.glob("metrics_*.jsonl"))
    if len(metrics_files) != len(expect["seeds"]):
        problems.append(f"{len(metrics_files)} metrics files for {len(expect['seeds'])} seeds")
    for path in metrics_files:
        seed_records = reporting.read_metrics(path)
        records.extend(seed_records)
        for phase, want in (("train", expect["train"]), ("eval", expect["eval"])):
            got = sum(1 for r in seed_records if r.phase == phase)
            if got != want:
                problems.append(f"{path.name}: {got} {phase} episodes, configured {want}")
        empty = [r.episode for r in seed_records if r.latency_samples <= 0]
        if empty:
            problems.append(f"{path.name}: episodes {empty} have no latency samples")
    with open(out_dir / "summary.csv", newline="") as f:
        summary = list(csv.DictReader(f))
    if len(summary) != len(expect["seeds"]):
        problems.append(f"summary.csv has {len(summary)} rows for {len(expect['seeds'])} seeds")
    diverged = [row["seed"] for row in summary if row["diverged"] != "0"]
    if diverged:
        problems.append(f"seeds {diverged} diverged")
    return records, problems


def metrics_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("metrics_*.jsonl")) + [out_dir / "summary.csv"]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def simulated_outcomes(records, steps_per_episode: int) -> dict:
    evals = [r for r in records if r.phase == "eval"]
    samples = sum(r.latency_samples for r in records)
    steps = sum(r.uninterrupted_steps for r in records)
    return {
        "steps": steps,
        "eval_cost": -sum(r.cumulative_reward for r in evals) / len(evals),
        "uptime_share": steps / (len(records) * steps_per_episode),
        "failure_share": sum(r.failure_count for r in records) / len(records),
        "loop_latency_ms": sum(r.mean_latency_ms * r.latency_samples for r in records) / samples,
        "action_accuracy": sum(r.action_accuracy for r in records) / len(records),
    }


def run(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    # numpy is imported by edgeloop, so set-up is probed without it
    with SpeedSampler(interpreter_probe, INTERPRETER_PROBE_NS) as setup_speed:
        start = time.perf_counter_ns()
        import edgeloop  # noqa: F401  (import time is part of set-up)
        from edgeloop import config, experiment

        cfg = config.load_config(spec["config"])
        experiment.load_disturbance(cfg)
        setup_ns = time.perf_counter_ns() - start
    raw_setup_s, setup_s = setup_speed.normalise(setup_ns)

    from edgeloop import cli, reporting

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.install()
    argv = ["run", "--config", spec["config"], "--out", spec["out"]]
    with contextlib.redirect_stdout(io.StringIO()), SpeedSampler(mixed_probe(), MIXED_PROBE_NS) as run_speed:
        start = time.perf_counter_ns()
        code = cli.main(argv)
        wall_ns = time.perf_counter_ns() - start
    raw_wall_s, wall_s = run_speed.normalise(wall_ns)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out_dir = Path(spec["out"])
    records, problems = check_outputs(out_dir, spec["expect"], reporting)
    if code != 0:
        problems.insert(0, f"edgeloop run exited with {code}")
    result = {
        "ok": not problems,
        "problems": problems,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "raw_setup_s": raw_setup_s,
        "raw_wall_s": raw_wall_s,
        "probe_mean_ns": sum(run_speed.samples) / len(run_speed.samples) if run_speed.samples else None,
        "peak_rss_mb": peak_rss_mb,
        "sha256": metrics_digest(out_dir),
        "sim": simulated_outcomes(records, spec["expect"]["steps_per_episode"]) if records else None,
        "env": environment(),
    }
    if tracer is not None and records:
        steps = result["sim"]["steps"]
        times, counts = tracing.layer_metrics(tracer.spans, steps)
        result["trace"] = {
            "times": times,
            "counts": counts,
            "shares": tracing.shares(tracer.spans, wall_ns),
            "spans": len(tracer.spans),
        }
        tracer.write(spec["spans_out"])
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    try:
        result = run(spec)
    except Exception:
        result = {"ok": False, "problems": [traceback.format_exc()]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
