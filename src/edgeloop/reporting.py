"""The metrics schema: the per-episode record, its JSONL writer and checked
reader, the run's summary.csv, run comparison and plot series."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields

from .config import RunConfig

# metric name and which direction counts as an improvement
COMPARED_METRICS = [
    ("cumulative_reward", "higher"),
    ("uninterrupted_steps", "higher"),
    ("action_accuracy", "higher"),
    ("failure_count", "lower"),
    ("mean_latency_ms", "lower"),
    ("p95_latency_ms", "lower"),
    ("control_loss", "lower"),
    ("utilization", "neutral"),
]

MOVING_AVERAGE_WINDOW = 50

# the values a MetricsRecord field's annotation admits; a bool is never one
FIELD_TYPES = {"int": int, "float": (int, float), "str": str}


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


def phase_records(records: list[MetricsRecord], phase: str | None) -> list[MetricsRecord]:
    """The records of one phase, or all of them when phase is None."""
    return [r for r in records if phase is None or r.phase == phase]


def mean(values) -> float:
    return sum(values) / len(values)


def percentile(sorted_values: list[int], fraction: float) -> float:
    # nearest-rank percentile on a pre-sorted list
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return float(sorted_values[rank - 1])


def write_metrics(records: list[MetricsRecord], path) -> None:
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(asdict(rec)) + "\n")


def write_summary(results: dict, cfg: RunConfig, path) -> None:
    """Run-level CSV: one row per seed, from each seed's result's .records and .divergence."""
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
                    int(res.divergence is not None),
                    len(train),
                    len(evals),
                    repr(mean([r.cumulative_reward for r in train])) if train else "",
                    repr(mean([r.cumulative_reward for r in evals])) if evals else "",
                    sum(r.failure_count for r in all_recs),
                    repr(mean([r.mean_latency_ms for r in all_recs])) if all_recs else "",
                ]
            )


class MetricsError(ValueError):
    """Unreadable or malformed metrics file; message names the file and line."""


def read_metrics(path) -> list[MetricsRecord]:
    records = []
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise MetricsError(f"{path}: {exc.strerror or exc}") from exc
    with f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = MetricsRecord(**json.loads(line))
                for field in fields(MetricsRecord):
                    value = getattr(record, field.name)
                    if isinstance(value, bool) or not isinstance(value, FIELD_TYPES[field.type]):
                        raise TypeError(f"{field.name} must be {field.type}, got {value!r}")
            except (ValueError, TypeError) as exc:  # bad JSON or UTF-8, or not a record's fields
                raise MetricsError(f"{path} line {line_no}: bad metrics row: {exc}") from exc
            records.append(record)
    return records


@dataclass(frozen=True)
class MetricComparison:
    metric: str
    mean_a: float
    mean_b: float
    delta_pct: float | None  # None when the baseline mean is zero
    better: str
    improved: bool | None


def compare(records_a: list[MetricsRecord], records_b: list[MetricsRecord]) -> list[MetricComparison]:
    """Mean metric deltas of run A relative to baseline run B, as percentages."""
    if not records_a or not records_b:
        raise ValueError("compare needs at least one record on each side")
    out = []
    for metric, better in COMPARED_METRICS:
        mean_a = mean([getattr(r, metric) for r in records_a])
        mean_b = mean([getattr(r, metric) for r in records_b])
        if mean_b == 0.0:
            delta = None
        else:
            delta = 100.0 * (mean_a - mean_b) / abs(mean_b)
        if delta is None or better == "neutral":
            improved = None
        elif better == "higher":
            improved = delta > 0
        else:
            improved = delta < 0
        out.append(MetricComparison(metric, mean_a, mean_b, delta, better, improved))
    return out


def render_table(comparisons: list[MetricComparison]) -> str:
    """Run A's and baseline run B's means, A's delta and whether it improves, one metric a row."""
    header = f"{'metric':<22} {'run_a':>14} {'run_b':>14} {'delta':>9}  note"
    lines = [header, "-" * len(header)]
    for c in comparisons:
        delta = "n/a" if c.delta_pct is None else f"{c.delta_pct:+.1f}%"
        if c.improved is None:
            note = ""
        else:
            note = "better" if c.improved else "worse"
        lines.append(
            f"{c.metric:<22} {c.mean_a:>14.4f} {c.mean_b:>14.4f} {delta:>9}  {note}"
        )
    return "\n".join(lines)


def plot_series(records: list[MetricsRecord]) -> list[dict]:
    """Per-episode reward series with a trailing moving average and a
    cumulative failure count, in the order the records were given."""
    rewards = [r.cumulative_reward for r in records]
    rows = []
    failures = 0
    for i, rec in enumerate(records):
        window = rewards[max(0, i - MOVING_AVERAGE_WINDOW + 1) : i + 1]
        failures += rec.failure_count
        rows.append(
            {
                "episode": rec.episode,
                "reward": rec.cumulative_reward,
                "reward_ma": mean(window),
                "failures_cum": failures,
            }
        )
    return rows


def emit_plot_data(records: list[MetricsRecord], path) -> None:
    """Write the plot series as CSV for external tooling to render."""
    rows = plot_series(records)
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["episode", "reward", "reward_ma", "failures_cum"])
        for row in rows:
            writer.writerow(
                [row["episode"], repr(row["reward"]), repr(row["reward_ma"]), row["failures_cum"]]
            )
