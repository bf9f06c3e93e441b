"""Tests for signal loading, normalization, splits, windows, and fixtures."""

import re
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from flowcast.data import (
    NormStats,
    batch_arrays,
    build_windows,
    load_series,
    prepare_dataset,
    ring_edge_lines,
    split_series,
    synthetic_series,
    zscore_fit,
)
from flowcast.errors import ContractError, InputError
from flowcast.stgraph import load_spatial_graph

from writers import write_edge_list, write_signal_csv


def _write_csv(path, lines):
    path.write_text("\n".join(lines) + "\n")


def _write_two_rows(path, header, values):
    """A signal file of two rows 5 minutes apart that both read values."""
    stamps = ("2024-01-01T00:00:00", "2024-01-01T00:05:00")
    _write_csv(path, [header] + [f"{stamp},{values}" for stamp in stamps])


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_signal_round_trip(tmp_path):
    series = synthetic_series(3, 48, interval_min=60, seed=4, noise=1.0)
    path = tmp_path / "sig.csv"
    write_signal_csv(series, path)
    loaded = load_series([str(path)])

    assert loaded.values.shape == (48, 3, 1)
    np.testing.assert_array_equal(loaded.values, series.values)
    assert loaded.timestamps == series.timestamps
    np.testing.assert_array_equal(loaded.day_of_week, series.day_of_week)
    np.testing.assert_array_equal(loaded.step_in_day, series.step_in_day)
    assert loaded.labels == ["0", "1", "2"]
    assert (loaded.interval_min, loaded.gamma) == (60, 24)


def test_calendar_features(tmp_path):
    # 2024-01-01 is a Monday
    series = synthetic_series(2, 50, interval_min=60)
    assert series.day_of_week[0] == 0
    assert series.day_of_week[23] == 0
    assert series.day_of_week[24] == 1
    np.testing.assert_array_equal(series.step_in_day[:26], list(range(24)) + [0, 1])


def test_load_multi_channel(tmp_path):
    a = tmp_path / "flow.csv"
    b = tmp_path / "speed.csv"
    _write_csv(a, ["timestamp,0,1", "2024-01-01T00:00:00,1.0,2.0", "2024-01-01T00:05:00,3.0,4.0"])
    _write_csv(b, ["timestamp,0,1", "2024-01-01T00:00:00,9.0,8.0", "2024-01-01T00:05:00,7.0,6.0"])
    series = load_series([str(a), str(b)])
    assert series.values.shape == (2, 2, 2)
    assert series.interval_min == 5
    np.testing.assert_array_equal(series.values[:, :, 0], [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(series.values[:, :, 1], [[9.0, 8.0], [7.0, 6.0]])


def test_load_channel_mismatches(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_two_rows(a, "timestamp,0,1", "1.0,2.0")
    _write_csv(b, ["timestamp,0,1", "2024-01-01T00:05:00,1.0,2.0", "2024-01-01T00:10:00,1.0,2.0"])
    with pytest.raises(InputError, match="timestamps"):
        load_series([str(a), str(b)])
    _write_two_rows(b, "timestamp,0,9", "1.0,2.0")
    with pytest.raises(InputError, match="columns"):
        load_series([str(a), str(b)])


@pytest.mark.parametrize("interval", [0, -5, 7, 1441, 0.5])
def test_bad_interval(tmp_path, interval):
    # the first two timestamps, interval minutes apart, set the interval:
    # a repeated or backward step, or one that is not a whole number of
    # minutes dividing the day, is refused naming the file, whatever the
    # later gaps are
    path = tmp_path / "sig.csv"
    first = datetime(2024, 1, 1)
    stamps = [first, first + timedelta(minutes=interval), first + timedelta(minutes=2 * interval)]
    _write_csv(path, ["timestamp,0"] + [f"{stamp.isoformat()},1.0" for stamp in stamps])
    with pytest.raises(InputError, match=r"sig\.csv: the first two timestamps are .* apart; the interval"):
        load_series([str(path)])


@pytest.mark.parametrize("interval", [1, 15, 60, 1440])
def test_the_first_gap_sets_the_interval(tmp_path, interval):
    path = tmp_path / "sig.csv"
    first = datetime(2024, 1, 1)
    stamps = [first + timedelta(minutes=interval * k) for k in range(3)]
    _write_csv(path, ["timestamp,0"] + [f"{stamp.isoformat()},1.0" for stamp in stamps])
    series = load_series([str(path)])
    assert (series.interval_min, series.gamma) == (interval, 1440 // interval)
    assert series.step_in_day.tolist() == [k % (1440 // interval) for k in range(3)]


def _wall_clock(instant):
    """instant, a UTC time, on US Pacific clocks of 2024: UTC-7 from 10:00
    UTC on 10 March to 09:00 UTC on 3 November, UTC-8 otherwise."""
    summer = datetime(2024, 3, 10, 10, tzinfo=timezone.utc) <= instant < datetime(
        2024, 11, 3, 9, tzinfo=timezone.utc
    )
    return instant.astimezone(timezone(timedelta(hours=-7 if summer else -8)))


@pytest.mark.parametrize(
    "change, before, after",
    [
        (datetime(2024, 3, 10, 10, tzinfo=timezone.utc), list(range(12, 24)), list(range(36, 48))),
        (datetime(2024, 11, 3, 9, tzinfo=timezone.utc), list(range(12, 24)), list(range(12, 24))),
    ],
    ids=["spring", "fall"],
)
def test_offset_aware_timestamps_read_across_a_clock_change(tmp_path, change, before, after):
    # the rows are 5 minutes apart as instants while the wall clock jumps
    # an hour ahead in spring and repeats an hour in fall; the interval is
    # still 5 minutes, and each row's step in day follows its own clock
    instants = [change + timedelta(minutes=5 * k) for k in range(-12, 12)]
    path = tmp_path / "sig.csv"
    _write_csv(path, ["timestamp,0"] + [f"{_wall_clock(t).isoformat()},1.0" for t in instants])
    series = load_series([str(path)])
    assert (series.interval_min, series.gamma) == (5, 288)
    assert series.step_in_day.tolist() == before + after
    assert series.day_of_week.tolist() == [6] * 24


def test_no_signal_paths():
    with pytest.raises(InputError):
        load_series([])


def test_missing_file():
    with pytest.raises(InputError, match="not found"):
        load_series(["/nonexistent/sig.csv"])


@pytest.mark.parametrize(
    "stamps, line, kinds",
    [
        (("2024-01-01T00:00:00+00:00", "2024-01-01T00:05:00", "2024-01-01T00:10:00"), 3, ("naive", "offset-aware")),
        (("2024-01-01T00:00:00", "2024-01-01T00:05:00", "2024-01-01T00:10:00+01:00"), 4, ("offset-aware", "naive")),
    ],
)
def test_timestamps_that_mix_offsets_are_refused_at_the_first_odd_row(tmp_path, stamps, line, kinds):
    # a naive and an offset-aware time cannot be subtracted; the file is
    # refused naming the first row whose kind differs from the first row's
    path = tmp_path / "sig.csv"
    _write_csv(path, ["timestamp,0,1"] + [f"{stamp},1.0,2.0" for stamp in stamps])
    message = rf"sig\.csv:{line}: timestamp '{re.escape(stamps[line - 2])}' is {kinds[0]}, but the first data row's is {kinds[1]}"
    with pytest.raises(InputError, match=message):
        load_series([str(path)])


def test_malformed_rows(tmp_path):
    path = tmp_path / "sig.csv"
    _write_csv(path, ["timestamp,0", "not-a-time,1.0"])
    with pytest.raises(InputError, match="ISO-8601"):
        load_series([str(path)])
    _write_csv(path, ["timestamp,0", "2024-01-01T00:00:00,abc"])
    with pytest.raises(InputError, match="non-numeric"):
        load_series([str(path)])
    for bad in ("nan", "inf", "-inf", "NaN", "-Infinity"):
        rows = ["2024-01-01T00:00:00,1.0,2.0", f"2024-01-01T00:05:00,3.0,{bad}"]
        _write_csv(path, ["timestamp,0,1"] + rows)
        with pytest.raises(InputError, match=r"sig\.csv:3: non-finite"):
            load_series([str(path)])
    _write_csv(path, ["timestamp,0", "2024-01-01T00:00:00,1.0,2.0"])
    with pytest.raises(InputError, match="columns"):
        load_series([str(path)])
    _write_csv(path, ["timestamp,0"])
    with pytest.raises(InputError, match=r"sig\.csv: 0 data rows; .* at least two"):
        load_series([str(path)])
    _write_csv(path, ["timestamp,0", "2024-01-01T00:00:00,1.0"])
    with pytest.raises(InputError, match=r"sig\.csv: 1 data rows; .* at least two"):
        load_series([str(path)])
    _write_csv(path, ["timestamp"])
    with pytest.raises(InputError, match="node columns"):
        load_series([str(path)])
    path.write_text("")
    with pytest.raises(InputError, match="empty"):
        load_series([str(path)])


def test_irregular_timestamps(tmp_path):
    path = tmp_path / "sig.csv"
    _write_csv(
        path,
        [
            "timestamp,0",
            "2024-01-01T00:00:00,1.0",
            "2024-01-01T00:05:00,2.0",
            "2024-01-01T00:15:00,3.0",
        ],
    )
    with pytest.raises(InputError, match=r"sig\.csv: .* by the first gap, 5 minutes; data row 3 jumps"):
        load_series([str(path)])


def test_off_grid_start(tmp_path):
    path = tmp_path / "sig.csv"
    _write_csv(path, ["timestamp,0", "2024-01-01T00:07:00,1.0", "2024-01-01T00:12:00,2.0"])
    with pytest.raises(InputError, match=r"sig\.csv: .* the 5-minute grid"):
        load_series([str(path)])


def test_graph_alignment_reorders_columns(tmp_path):
    sig = tmp_path / "sig.csv"
    edges = tmp_path / "edges.txt"
    _write_two_rows(sig, "timestamp,b,a", "1.0,2.0")
    write_edge_list(["a b 1.0"], edges)
    graph = load_spatial_graph(edges)
    assert graph.labels == ["a", "b"]
    series = load_series([str(sig)], graph=graph)
    assert series.labels == ["a", "b"]
    np.testing.assert_array_equal(series.values[0, :, 0], [2.0, 1.0])


def test_graph_alignment_node_count(tmp_path):
    sig = tmp_path / "sig.csv"
    edges = tmp_path / "edges.txt"
    _write_two_rows(sig, "timestamp,0,1,2", "1.0,2.0,3.0")
    write_edge_list(["0 1 1.0"], edges)
    with pytest.raises(InputError, match="node columns"):
        load_series([str(sig)], graph=load_spatial_graph(edges))


def test_graph_alignment_refuses_a_column_the_graph_lacks(tmp_path):
    sig = tmp_path / "sig.csv"
    edges = tmp_path / "edges.txt"
    _write_two_rows(sig, "timestamp,x,y", "1.0,2.0")
    write_edge_list(["a b 1.0"], edges)
    with pytest.raises(InputError, match="column 'x' is not a graph node.*'nodes 2'"):
        load_series([str(sig)], graph=load_spatial_graph(edges))


def test_graph_alignment_refuses_repeated_columns(tmp_path):
    sig = tmp_path / "sig.csv"
    edges = tmp_path / "edges.txt"
    _write_two_rows(sig, "timestamp,a,a", "1.0,2.0")
    write_edge_list(["a b 1.0"], edges)
    with pytest.raises(InputError, match="repeat"):
        load_series([str(sig)], graph=load_spatial_graph(edges))


def test_graph_alignment_binds_by_position_under_a_nodes_directive(tmp_path):
    sig = tmp_path / "sig.csv"
    edges = tmp_path / "edges.txt"
    _write_two_rows(sig, "timestamp,400001,400017,400030", "1.0,2.0,3.0")
    write_edge_list(["nodes 3", "2 1 1.0", "1 0 1.0"], edges)
    series = load_series([str(sig)], graph=load_spatial_graph(edges))
    assert series.labels == ["400001", "400017", "400030"]
    np.testing.assert_array_equal(series.values[0, :, 0], [1.0, 2.0, 3.0])


def test_graph_alignment_refuses_sensor_ids_against_ids_out_of_order(tmp_path):
    sig = tmp_path / "sig.csv"
    edges = tmp_path / "edges.txt"
    _write_two_rows(sig, "timestamp,s0,s1,s2", "1.0,2.0,3.0")
    write_edge_list(["0 2", "2 1"], edges)
    with pytest.raises(InputError, match="column 's0'.*'nodes 3'"):
        load_series([str(sig)], graph=load_spatial_graph(edges))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_zscore_known_values():
    values = np.array([[[0.0], [2.0]]])  # mean 1, std 1
    stats = zscore_fit(values)
    np.testing.assert_allclose(stats.mean, [1.0])
    np.testing.assert_allclose(stats.std, [1.0])
    np.testing.assert_allclose(stats.apply(values), [[[-1.0], [1.0]]])


def test_zscore_round_trip():
    rng = np.random.default_rng(5)
    values = rng.normal(50.0, 7.0, size=(20, 4, 2))
    stats = zscore_fit(values)
    normalized = stats.apply(values)
    np.testing.assert_allclose(normalized.mean(axis=(0, 1)), 0.0, atol=1e-12)
    np.testing.assert_allclose(normalized.std(axis=(0, 1)), 1.0, atol=1e-12)
    np.testing.assert_allclose(stats.invert(normalized), values, atol=1e-10)


def test_zscore_per_channel():
    values = np.zeros((3, 2, 2))
    values[:, :, 0] = [[1, 2], [3, 4], [5, 6]]
    values[:, :, 1] = [[10, 20], [30, 40], [50, 60]]
    stats = zscore_fit(values)
    assert stats.mean[0] == pytest.approx(3.5)
    assert stats.mean[1] == pytest.approx(35.0)


def test_zscore_rejects_constant_channel():
    values = np.ones((4, 3, 2))
    values[:, :, 0] = np.arange(12).reshape(4, 3)
    with pytest.raises(ContractError, match="channel 1"):
        zscore_fit(values)


def test_zscore_shape_errors():
    with pytest.raises(ContractError):
        zscore_fit(np.zeros((3, 4)))
    with pytest.raises(ContractError):
        zscore_fit(np.zeros((0, 3, 1)))


def test_zscore_apply_existing_stats():
    stats = NormStats(mean=np.array([2.0]), std=np.array([4.0]))
    normalized = stats.apply(np.full((1, 1, 1), 10.0))
    np.testing.assert_allclose(normalized, [[[2.0]]])


# ---------------------------------------------------------------------------
# splits and windows
# ---------------------------------------------------------------------------


def test_split_ratios_7_1_2():
    series = synthetic_series(2, 100, interval_min=60)
    segs = split_series(series, ratios=(7.0, 1.0, 2.0))
    assert segs["train"] == range(0, 70)
    assert segs["val"] == range(70, 80)
    assert segs["test"] == range(80, 100)


def test_split_by_days():
    series = synthetic_series(2, 96, interval_min=60)  # 4 days at gamma 24
    segs = split_series(series, days=(2, 1, 1))
    assert segs["train"] == range(0, 48)
    assert segs["val"] == range(48, 72)
    assert segs["test"] == range(72, 96)


def test_split_day_overflow():
    series = synthetic_series(2, 96, interval_min=60)
    with pytest.raises(InputError, match="120"):
        split_series(series, days=(3, 1, 1))


def test_split_rejects_negative_day_counts():
    # (2, -1, 1) fits the 4-day series in total but would start the test
    # range inside the training range
    series = synthetic_series(2, 96, interval_min=60)
    for days in ((2, -1, 1), (-1, 2, 1), (2, 1, -1)):
        with pytest.raises(InputError, match="negative"):
            split_series(series, days=days)


def test_split_bad_ratios():
    series = synthetic_series(2, 10, interval_min=60)
    with pytest.raises(InputError):
        split_series(series, ratios=(-1.0, 1.0, 1.0))
    with pytest.raises(InputError):
        split_series(series, ratios=(0.0, 0.0, 0.0))
    with pytest.raises(InputError):
        split_series(series, ratios=None, days=None)


def test_build_windows_counts_and_contents():
    series = synthetic_series(3, 10, interval_min=60, seed=2, noise=0.5)
    normalized = zscore_fit(series.values).apply(series.values)
    samples = build_windows(series, normalized, range(0, 10), t_in=3, t_out=2)
    assert len(samples) == 6
    assert [s.start for s in samples] == [0, 1, 2, 3, 4, 5]

    s = samples[4]
    np.testing.assert_array_equal(s.values_norm, normalized[4:7].transpose(1, 0, 2))
    np.testing.assert_array_equal(s.day, series.day_of_week[4:7])
    np.testing.assert_array_equal(s.step, series.step_in_day[4:7])
    np.testing.assert_array_equal(s.target_norm, normalized[7:9].transpose(1, 0, 2))
    np.testing.assert_array_equal(s.target_raw, series.values[7:9].transpose(1, 0, 2))
    assert s.values_norm.shape == (3, 3, 1)
    assert s.target_raw.shape == (3, 2, 1)
    # views, not copies, and read-only ones; the series stays writeable
    views = {
        "values_norm": normalized, "target_norm": normalized, "target_raw": series.values,
        "day": series.day_of_week, "step": series.step_in_day,
    }
    for name, base in views.items():
        assert np.shares_memory(getattr(s, name), base), name
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, name)[...] = 0
        assert base.flags.writeable


def test_build_windows_segment_too_short():
    series = synthetic_series(2, 10, interval_min=60)
    normalized = zscore_fit(series.values).apply(series.values)
    assert build_windows(series, normalized, range(4, 8), 3, 2) == []


def test_windows_stay_inside_segment():
    series = synthetic_series(2, 30, interval_min=60)
    normalized = zscore_fit(series.values).apply(series.values)
    samples = build_windows(series, normalized, range(10, 20), t_in=4, t_out=2)
    assert [s.start for s in samples] == [10, 11, 12, 13, 14]


def test_prepare_dataset_fits_stats_on_train_only():
    series = synthetic_series(3, 100, interval_min=60, seed=7, noise=2.0)
    ds = prepare_dataset(series, t_in=4, t_out=2)
    want = zscore_fit(series.values[0:70])
    np.testing.assert_array_equal(ds.stats.mean, want.mean)
    np.testing.assert_array_equal(ds.stats.std, want.std)
    assert len(ds.splits["train"]) == 70 - 6 + 1
    assert len(ds.splits["val"]) == 10 - 6 + 1
    assert len(ds.splits["test"]) == 20 - 6 + 1
    assert split_series(series)["train"] == range(0, 70)


def test_prepare_dataset_empty_train():
    series = synthetic_series(2, 20, interval_min=60)
    with pytest.raises(ContractError, match="train"):
        prepare_dataset(series, 3, 1, ratios=(0.0, 1.0, 1.0))


def test_batch_arrays_shapes():
    series = synthetic_series(3, 20, interval_min=60, seed=1, noise=0.5)
    ds = prepare_dataset(series, t_in=4, t_out=2)
    samples = ds.splits["train"][:5]
    values, day, step, target_norm, target_raw = batch_arrays(samples)
    assert values.shape == (5, 3, 4, 1)
    assert day.shape == (5, 4)
    assert step.shape == (5, 4)
    assert target_norm.shape == (5, 3, 2, 1)
    assert target_raw.shape == (5, 3, 2, 1)
    np.testing.assert_array_equal(values[2], samples[2].values_norm)
    # the same bytes as from windows that hold contiguous copies
    names = ("values_norm", "day", "step", "target_norm", "target_raw")
    copies = [replace(w, **{n: np.ascontiguousarray(getattr(w, n)) for n in names}) for w in samples]
    for got, want in zip(batch_arrays(samples), batch_arrays(copies)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def test_batch_arrays_empty():
    with pytest.raises(ContractError):
        batch_arrays([])


# ---------------------------------------------------------------------------
# synthetic fixtures
# ---------------------------------------------------------------------------


def test_ring_edge_lines():
    assert ring_edge_lines(3) == ["0 1 1.0", "1 2 1.0", "2 0 1.0"]
    graph = load_spatial_graph(ring_edge_lines(5))
    assert graph.n_nodes == 5
    assert all(len(ids) == 2 for ids in graph.neighbor_lists())


def test_synthetic_series_properties():
    series = synthetic_series(4, 200, interval_min=5, seed=3, noise=1.0)
    assert series.values.shape == (200, 4, 1)
    assert series.gamma == 288
    assert series.values.min() > 20.0  # stays clear of the zero mask
    again = synthetic_series(4, 200, interval_min=5, seed=3, noise=1.0)
    np.testing.assert_array_equal(series.values, again.values)
    other = synthetic_series(4, 200, interval_min=5, seed=4, noise=1.0)
    assert np.any(series.values != other.values)


def test_synthetic_series_noise_free_is_smooth():
    series = synthetic_series(2, 48, interval_min=60, noise=0.0)
    # daily component repeats after gamma steps, up to the weekly drift
    diff = np.abs(series.values[24:48] - series.values[0:24]).max()
    assert diff < 4.0
