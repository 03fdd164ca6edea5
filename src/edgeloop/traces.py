"""Sensor trace ingestion and zero-order-hold resampling.

Traces are CSV files with the header `timestamp,sensor_id,value,unit`:
integer second timestamps, free-form sensor ids, float readings, and a
unit tag from a small known set. Minute-sampled sources are expanded to
the 5-second control cadence by repeating each reading until the sensor's
next sample (zero-order hold); the final reading of a sensor is held for
one source period, inferred from its last timestamp gap.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

from .simcore import CONTROL_PERIOD_MS, MS_PER_SECOND

EXPECTED_HEADER = ["timestamp", "sensor_id", "value", "unit"]
KNOWN_UNITS = frozenset({"C", "K", "%", "V", "kPa"})
PERIOD_S = CONTROL_PERIOD_MS // MS_PER_SECOND  # the resampling grid: the control period


class TraceError(ValueError):
    """Malformed trace file; message carries the offending file line."""


@dataclass(frozen=True)
class TraceRow:
    timestamp: int
    sensor_id: str
    value: float
    unit: str


SensorTrace = list[TraceRow]


def read_trace(path) -> SensorTrace:
    """Parse and validate a trace CSV.

    Rejects unknown units, non-integer timestamps, non-finite values, and
    per-sensor timestamps that fail to strictly increase, naming the file line.
    """
    try:
        f = open(path, newline="")
    except OSError as exc:
        raise TraceError(f"{path}: {exc.strerror or exc}") from exc
    with f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceError(f"{path}: missing header row") from None
        if [h.strip() for h in header] != EXPECTED_HEADER:
            raise TraceError(
                f"{path} line 1: expected header {','.join(EXPECTED_HEADER)}"
            )
        rows: SensorTrace = []
        last_seen: dict[str, int] = {}
        for line_no, raw in enumerate(reader, start=2):
            if not raw:
                continue
            if len(raw) != 4:
                raise TraceError(f"{path} line {line_no}: expected 4 columns, got {len(raw)}")
            ts_text, sensor_id, value_text, unit = (c.strip() for c in raw)
            try:
                timestamp = int(ts_text)
            except ValueError:
                raise TraceError(
                    f"{path} line {line_no}: timestamp {ts_text!r} is not an integer"
                ) from None
            try:
                value = float(value_text)
            except ValueError:
                raise TraceError(
                    f"{path} line {line_no}: value {value_text!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise TraceError(f"{path} line {line_no}: value {value_text!r} is not finite")
            if unit not in KNOWN_UNITS:
                raise TraceError(
                    f"{path} line {line_no}: unknown unit {unit!r} "
                    f"(known: {', '.join(sorted(KNOWN_UNITS))})"
                )
            if sensor_id in last_seen and timestamp <= last_seen[sensor_id]:
                raise TraceError(
                    f"{path} line {line_no}: timestamp {timestamp} for sensor "
                    f"{sensor_id!r} does not increase (previous {last_seen[sensor_id]})"
                )
            last_seen[sensor_id] = timestamp
            rows.append(TraceRow(timestamp, sensor_id, value, unit))
    return rows


def resample(rows: SensorTrace) -> SensorTrace:
    """Zero-order-hold expansion onto the PERIOD_S grid per sensor.

    Each reading repeats every PERIOD_S seconds until the sensor's next
    sample; the last reading is held for one inferred source period (its
    final timestamp gap), so a 60 s source expands 12x throughout. A
    sensor with a single sample has no inferable period and passes through
    unexpanded. Output is globally sorted by (timestamp, sensor_id).
    """
    by_sensor: dict[str, SensorTrace] = {}
    for row in rows:
        by_sensor.setdefault(row.sensor_id, []).append(row)

    out: SensorTrace = []
    for sensor_rows in by_sensor.values():
        for row, nxt in zip(sensor_rows, sensor_rows[1:]):
            for ts in range(row.timestamp, nxt.timestamp, PERIOD_S):
                out.append(TraceRow(ts, row.sensor_id, row.value, row.unit))
        last = sensor_rows[-1]
        if len(sensor_rows) > 1:
            period = last.timestamp - sensor_rows[-2].timestamp
            for ts in range(last.timestamp, last.timestamp + period, PERIOD_S):
                out.append(TraceRow(ts, last.sensor_id, last.value, last.unit))
        else:
            out.append(last)
    out.sort(key=lambda r: (r.timestamp, r.sensor_id))
    return out


def ingest_trace(path) -> SensorTrace:
    """Read, validate, and resample a trace file in one step."""
    return resample(read_trace(path))


def sensor_values(rows: SensorTrace, sensor_id: str) -> list[float]:
    """Readings of one sensor in timestamp order."""
    return [r.value for r in rows if r.sensor_id == sensor_id]
