"""Metrics post-processing: JSONL loading, run comparison, plot series."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields

from .experiment import MetricsRecord, mean

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
