import pytest

from edgeloop.traces import TraceError, held_values, ingest_trace

import oracles


def write_csv(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


# -- parsing -----------------------------------------------------------------------


def test_read_valid_trace(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp,sensor_id,value,unit\n"
        "0,temp-1,99.5,C\n"
        "60,temp-1,100.25,C\n"
        "0,level-1,0.52,%\n",
    )
    assert ingest_trace(path) == {"temp-1": [(0, 99.5), (60, 100.25)], "level-1": [(0, 0.52)]}


def test_read_tolerates_blank_lines_and_spacing(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp, sensor_id, value, unit\n\n10, s, 1.0, C\n\n",
    )
    assert ingest_trace(path) == {"s": [(10, 1.0)]}


def test_missing_header(tmp_path):
    path = write_csv(tmp_path, "")
    with pytest.raises(TraceError) as exc:
        ingest_trace(path)
    assert "missing header" in str(exc.value)


def test_wrong_header_names_line_one(tmp_path):
    path = write_csv(tmp_path, "time,sensor,value,unit\n0,s,1.0,C\n")
    with pytest.raises(TraceError) as exc:
        ingest_trace(path)
    assert "line 1" in str(exc.value)


def test_wrong_column_count_names_its_line(tmp_path):
    path = write_csv(tmp_path, "timestamp,sensor_id,value,unit\n0,s,1.0\n")
    with pytest.raises(TraceError) as exc:
        ingest_trace(path)
    assert "line 2" in str(exc.value)


def test_bad_timestamp_and_value_name_their_lines(tmp_path):
    path = write_csv(
        tmp_path, "timestamp,sensor_id,value,unit\n0,s,1.0,C\nnoon,s,1.0,C\n"
    )
    with pytest.raises(TraceError) as exc:
        ingest_trace(path)
    assert "line 3" in str(exc.value) and "timestamp" in str(exc.value)

    path = write_csv(
        tmp_path, "timestamp,sensor_id,value,unit\n0,s,warm,C\n", name="v.csv"
    )
    with pytest.raises(TraceError) as exc:
        ingest_trace(path)
    assert "line 2" in str(exc.value) and "value" in str(exc.value)


def test_unknown_unit_rejected(tmp_path):
    path = write_csv(tmp_path, "timestamp,sensor_id,value,unit\n0,s,1.0,F\n")
    with pytest.raises(TraceError) as exc:
        ingest_trace(path)
    assert "unknown unit" in str(exc.value)


def test_non_increasing_timestamps_rejected_per_sensor(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp,sensor_id,value,unit\n60,s,1.0,C\n60,s,2.0,C\n",
    )
    with pytest.raises(TraceError) as exc:
        ingest_trace(path)
    assert "does not increase" in str(exc.value) and "line 3" in str(exc.value)


def test_interleaved_sensors_only_need_per_sensor_order(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp,sensor_id,value,unit\n60,a,1.0,C\n0,b,2.0,C\n120,a,3.0,C\n",
    )
    assert ingest_trace(path) == {"a": [(60, 1.0), (120, 3.0)], "b": [(0, 2.0)]}


# -- resampling ---------------------------------------------------------------------


def test_minute_trace_expands_twelve_fold():
    samples = [(60 * k, 100.0 + k) for k in range(5)]
    out = list(held_values(samples))
    assert len(out) == 5 * 12
    rows = [(t, "t", v, "C") for t, v in samples]
    assert out == [value for _, _, value, _ in oracles.repeat_expand(rows, 60, 5)]


def test_last_sample_held_for_the_inferred_period():
    # first sample held for its actual 90 s gap, last for the inferred 90 s
    assert list(held_values([(0, 1.0), (90, 2.0)])) == [1.0] * 18 + [2.0] * 18


def test_single_sample_sensor_passes_through():
    assert list(held_values([(30, 7.5)])) == [7.5]


def test_uneven_gaps_hold_each_reading_until_the_next():
    # 20 s, then 60 s; the last gap was 60 s, so the final value holds for 60 more
    out = list(held_values([(0, 1.0), (20, 2.0), (80, 3.0)]))
    assert out == [1.0] * 4 + [2.0] * 12 + [3.0] * 12


def test_gaps_off_the_grid_round_each_hold_up():
    # a reading covers every grid slot from its timestamp up to the next sample
    assert list(held_values([(0, 1.0), (7, 2.0), (8, 3.0)])) == [1.0] * 2 + [2.0] + [3.0]


def test_ingest_reads_and_resamples(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp,sensor_id,value,unit\n0,t,1.0,C\n60,t,2.0,C\n",
    )
    out = list(held_values(ingest_trace(path)["t"]))
    assert out == [1.0] * 12 + [2.0] * 12


def test_ingest_groups_samples_by_sensor_in_file_order(tmp_path):
    path = write_csv(
        tmp_path,
        "timestamp,sensor_id,value,unit\n0,b,9.0,C\n0,a,1.0,C\n60,a,2.0,C\n",
    )
    sensors = ingest_trace(path)
    assert list(sensors) == ["b", "a"]
    assert sensors["a"] == [(0, 1.0), (60, 2.0)]
