import pytest

from edgeloop.traces import (
    TraceError,
    TraceRow,
    ingest_trace,
    read_trace,
    resample,
    sensor_values,
)

import oracles


def write_csv(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def as_tuples(rows):
    return [(r.timestamp, r.sensor_id, r.value, r.unit) for r in rows]


# -- parsing -----------------------------------------------------------------------


def test_read_valid_trace(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp,sensor_id,value,unit\n"
        "0,temp-1,99.5,C\n"
        "60,temp-1,100.25,C\n"
        "0,level-1,0.52,%\n",
    )
    rows = read_trace(path)
    assert rows == [
        TraceRow(0, "temp-1", 99.5, "C"),
        TraceRow(60, "temp-1", 100.25, "C"),
        TraceRow(0, "level-1", 0.52, "%"),
    ]


def test_read_tolerates_blank_lines_and_spacing(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp, sensor_id, value, unit\n\n10, s, 1.0, C\n\n",
    )
    assert read_trace(path) == [TraceRow(10, "s", 1.0, "C")]


def test_missing_header(tmp_path):
    path = write_csv(tmp_path, "")
    with pytest.raises(TraceError) as exc:
        read_trace(path)
    assert "missing header" in str(exc.value)


def test_wrong_header_names_line_one(tmp_path):
    path = write_csv(tmp_path, "time,sensor,value,unit\n0,s,1.0,C\n")
    with pytest.raises(TraceError) as exc:
        read_trace(path)
    assert "line 1" in str(exc.value)


def test_wrong_column_count_names_its_line(tmp_path):
    path = write_csv(tmp_path, "timestamp,sensor_id,value,unit\n0,s,1.0\n")
    with pytest.raises(TraceError) as exc:
        read_trace(path)
    assert "line 2" in str(exc.value)


def test_bad_timestamp_and_value_name_their_lines(tmp_path):
    path = write_csv(
        tmp_path, "timestamp,sensor_id,value,unit\n0,s,1.0,C\nnoon,s,1.0,C\n"
    )
    with pytest.raises(TraceError) as exc:
        read_trace(path)
    assert "line 3" in str(exc.value) and "timestamp" in str(exc.value)

    path = write_csv(
        tmp_path, "timestamp,sensor_id,value,unit\n0,s,warm,C\n", name="v.csv"
    )
    with pytest.raises(TraceError) as exc:
        read_trace(path)
    assert "line 2" in str(exc.value) and "value" in str(exc.value)


def test_unknown_unit_rejected(tmp_path):
    path = write_csv(tmp_path, "timestamp,sensor_id,value,unit\n0,s,1.0,F\n")
    with pytest.raises(TraceError) as exc:
        read_trace(path)
    assert "unknown unit" in str(exc.value)


def test_non_increasing_timestamps_rejected_per_sensor(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp,sensor_id,value,unit\n60,s,1.0,C\n60,s,2.0,C\n",
    )
    with pytest.raises(TraceError) as exc:
        read_trace(path)
    assert "does not increase" in str(exc.value) and "line 3" in str(exc.value)


def test_interleaved_sensors_only_need_per_sensor_order(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp,sensor_id,value,unit\n60,a,1.0,C\n0,b,2.0,C\n120,a,3.0,C\n",
    )
    assert len(read_trace(path)) == 3


# -- resampling ---------------------------------------------------------------------


def minute_rows(sensor, count, start=0, base=100.0):
    return [
        TraceRow(start + 60 * k, sensor, base + k, "C") for k in range(count)
    ]


def test_minute_trace_expands_twelve_fold():
    rows = minute_rows("t", 5)
    out = resample(rows)
    assert len(out) == 5 * 12
    assert as_tuples(out) == oracles.repeat_expand(rows, 60, 5)


def test_last_sample_held_for_the_inferred_period():
    rows = [TraceRow(0, "t", 1.0, "C"), TraceRow(90, "t", 2.0, "C")]
    out = resample(rows)
    # first sample held for its actual 90 s gap, last for the inferred 90 s
    assert len(out) == 18 + 18
    assert out[-1].timestamp == 90 + 85
    assert all(r.value == 2.0 for r in out if r.timestamp >= 90)


def test_single_sample_sensor_passes_through():
    rows = [TraceRow(30, "lonely", 7.5, "V")]
    assert resample(rows) == rows


def test_multi_sensor_output_is_globally_sorted():
    rows = minute_rows("b", 3) + minute_rows("a", 3, base=50.0)
    out = resample(rows)
    keys = [(r.timestamp, r.sensor_id) for r in out]
    assert keys == sorted(keys)
    assert len(out) == 2 * 3 * 12


def test_uneven_gaps_hold_each_reading_until_the_next():
    rows = [
        TraceRow(0, "t", 1.0, "C"),
        TraceRow(20, "t", 2.0, "C"),
        TraceRow(80, "t", 3.0, "C"),
    ]
    out = resample(rows)
    held = {r.timestamp: r.value for r in out}
    assert held[0] == 1.0 and held[15] == 1.0
    assert held[20] == 2.0 and held[75] == 2.0
    # last gap was 60 s, so the final value holds for 60 more seconds
    assert held[80] == 3.0 and held[135] == 3.0
    assert 140 not in held


def test_ingest_reads_and_resamples(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp,sensor_id,value,unit\n0,t,1.0,C\n60,t,2.0,C\n",
    )
    out = ingest_trace(path)
    assert len(out) == 24
    assert sensor_values(out, "t")[:12] == [1.0] * 12


def test_sensor_values_filters_by_id():
    rows = [
        TraceRow(0, "a", 1.0, "C"),
        TraceRow(0, "b", 9.0, "C"),
        TraceRow(60, "a", 2.0, "C"),
    ]
    assert sensor_values(rows, "a") == [1.0, 2.0]
    assert sensor_values(rows, "missing") == []
