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
import io
import math
from collections.abc import Iterator
from itertools import repeat

from .simcore import CONTROL_PERIOD_MS, MS_PER_SECOND

EXPECTED_HEADER = ["timestamp", "sensor_id", "value", "unit"]
KNOWN_UNITS = frozenset({"C", "K", "%", "V", "kPa"})
PERIOD_S = CONTROL_PERIOD_MS // MS_PER_SECOND  # the resampling grid: the control period

Samples = list[tuple[int, float]]  # one sensor's (timestamp, value) readings in file order


class TraceError(ValueError):
    """Malformed trace file; message carries the offending file line."""


def ingest_trace(path) -> dict[str, Samples]:
    """Parse and validate a trace CSV into each sensor's samples, sensors in file order.

    Rejects unknown units, non-integer timestamps, non-finite values, and
    per-sensor timestamps that fail to strictly increase, naming the file line.
    """
    try:
        with open(path, encoding="utf-8", newline="") as f:
            text = f.read()
    except OSError as exc:
        raise TraceError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:  # a ValueError: the file is readable, its bytes are not text
        raise TraceError(f"{path}: not UTF-8: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise TraceError(f"{path}: missing header row") from None
    if [h.strip() for h in header] != EXPECTED_HEADER:
        raise TraceError(f"{path} line 1: expected header {','.join(EXPECTED_HEADER)}")
    sensors: dict[str, Samples] = {}
    for line_no, raw in enumerate(reader, start=2):
        if not raw:
            continue
        if len(raw) != 4:
            raise TraceError(f"{path} line {line_no}: expected 4 columns, got {len(raw)}")
        ts_text, sensor_id, value_text, unit = (c.strip() for c in raw)
        try:
            timestamp = int(ts_text)
        except ValueError:
            raise TraceError(f"{path} line {line_no}: timestamp {ts_text!r} is not an integer") from None
        try:
            value = float(value_text)
        except ValueError:
            raise TraceError(f"{path} line {line_no}: value {value_text!r} is not a number") from None
        if not math.isfinite(value):
            raise TraceError(f"{path} line {line_no}: value {value_text!r} is not finite")
        if unit not in KNOWN_UNITS:
            raise TraceError(
                f"{path} line {line_no}: unknown unit {unit!r} "
                f"(known: {', '.join(sorted(KNOWN_UNITS))})"
            )
        samples = sensors.setdefault(sensor_id, [])
        if samples and timestamp <= samples[-1][0]:
            raise TraceError(
                f"{path} line {line_no}: timestamp {timestamp} for sensor "
                f"{sensor_id!r} does not increase (previous {samples[-1][0]})"
            )
        samples.append((timestamp, value))
    return sensors


def held_values(samples: Samples) -> Iterator[float]:
    """One sensor's readings on the PERIOD_S grid, by zero-order hold.

    Each reading repeats every PERIOD_S seconds until the sensor's next
    sample; the last reading is held for one inferred source period (its
    final timestamp gap), so a 60 s source expands 12x throughout. A
    sensor with a single sample has no inferable period and is yielded once.
    """
    for (t, value), (end, _) in zip(samples, samples[1:]):
        yield from repeat(value, len(range(t, end, PERIOD_S)))
    if len(samples) > 1:
        (prev, _), (last, value) = samples[-2:]
        yield from repeat(value, len(range(last, last + (last - prev), PERIOD_S)))
    else:
        yield samples[0][1]
