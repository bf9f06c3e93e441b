"""Signal loading, normalization, window slicing, and synthetic fixtures.

A signal file is a CSV with an ISO-8601 timestamp column followed by one
column per sensor. Multi-channel datasets use one file per channel with
identical timestamps and column order. The first two timestamps set the
interval, which every later one must advance by.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .errors import ContractError, InputError, open_text
from .stgraph import SpatialGraph

MINUTES_PER_DAY = 1440


@dataclass
class TrafficSeries:
    """A multi-channel sensor series with calendar features.

    Loaded against a graph, column k holds graph node k.
    """

    values: np.ndarray  # (steps, n_nodes, channels), raw units
    timestamps: list[datetime]
    day_of_week: np.ndarray  # (steps,), Monday = 0
    step_in_day: np.ndarray  # (steps,)
    interval_min: int
    labels: list[str]

    @property
    def gamma(self) -> int:
        return MINUTES_PER_DAY // self.interval_min

    @property
    def n_steps(self) -> int:
        return self.values.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.values.shape[1]

    @property
    def n_channels(self) -> int:
        return self.values.shape[2]


def _read_signal_csv(path: Path) -> tuple[list[datetime], list[str], np.ndarray]:
    with open_text(path, "signal file", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty signal file")
        if len(header) < 2:
            raise InputError(f"{path}: need a timestamp column plus node columns")
        labels = [h.strip() for h in header[1:]]
        timestamps: list[datetime] = []
        rows: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(
                    f"{path}:{line_no}: expected {len(header)} columns, got {len(row)}"
                )
            try:
                stamp = datetime.fromisoformat(row[0].strip())
            except ValueError:
                raise InputError(f"{path}:{line_no}: bad ISO-8601 timestamp {row[0]!r}")
            if timestamps and (stamp.tzinfo is None) != (timestamps[0].tzinfo is None):
                first, this = ("offset-aware", "naive") if stamp.tzinfo is None else ("naive", "offset-aware")
                raise InputError(
                    f"{path}:{line_no}: timestamp {row[0]!r} is {this}, but the first data row's is {first}"
                )
            timestamps.append(stamp)
            try:
                values = [float(v) for v in row[1:]]
            except ValueError:
                raise InputError(f"{path}:{line_no}: non-numeric value in data row")
            if not all(map(math.isfinite, values)):
                raise InputError(f"{path}:{line_no}: non-finite value (nan or inf) in data row")
            rows.append(values)
    if len(rows) < 2:
        raise InputError(f"{path}: {len(rows)} data rows; the interval needs at least two")
    return timestamps, labels, np.asarray(rows, dtype=np.float64)


def _calendar(timestamps: list[datetime], interval_min: int) -> tuple[np.ndarray, np.ndarray]:
    """The day of week and the step in day of each timestamp."""
    day = np.array([ts.weekday() for ts in timestamps], dtype=np.int64)
    step = np.array(
        [(ts.hour * 60 + ts.minute) // interval_min for ts in timestamps], dtype=np.int64
    )
    return day, step


def load_series(signal_paths: list[str], graph: SpatialGraph | None = None) -> TrafficSeries:
    """Load one file per channel and derive the calendar features.

    The first two timestamps' gap is the interval, a whole number of
    minutes that divides the day; every later gap must equal it, and the
    first timestamp must sit on its grid. Offset-aware timestamps subtract
    as instants, so a file with UTC offsets reads across a daylight-saving
    change, and the step in day follows each row's wall clock, as traffic
    does: it jumps an hour in spring and repeats an hour in fall.

    Given a graph, the columns bind to its nodes by one rule. When the
    column labels are the graph's labels, the columns are put in graph
    order. Otherwise, when the graph's labels are "0" ... "N-1", as a
    'nodes N' directive or ids first seen in order give them, column k
    binds to node k and keeps its label. Any other signal is an
    InputError naming the first column the graph lacks.
    """
    if not signal_paths:
        raise InputError("at least one signal file is required")

    channels = []
    timestamps: list[datetime] | None = None
    labels: list[str] | None = None
    for path in signal_paths:
        ts, lab, vals = _read_signal_csv(Path(path))
        if timestamps is None:
            timestamps, labels = ts, lab
        else:
            if ts != timestamps:
                raise InputError(f"{path}: timestamps differ from the first channel file")
            if lab != labels:
                raise InputError(f"{path}: node columns differ from the first channel file")
        channels.append(vals)
    values = np.stack(channels, axis=-1)  # (steps, nodes, channels)

    delta = timestamps[1] - timestamps[0]
    interval_min, rest = divmod(delta, timedelta(minutes=1))
    if rest or interval_min <= 0 or MINUTES_PER_DAY % interval_min:
        raise InputError(
            f"{signal_paths[0]}: the first two timestamps are {delta} apart; the "
            f"interval must be a whole number of minutes that divides {MINUTES_PER_DAY}"
        )
    for i in range(2, len(timestamps)):
        if timestamps[i] - timestamps[i - 1] != delta:
            raise InputError(
                f"{signal_paths[0]}: timestamps must advance by the first gap, {interval_min} "
                f"minutes; data row {i + 1} jumps from {timestamps[i - 1]} to {timestamps[i]}"
            )
    first = timestamps[0]
    if (first.hour * 60 + first.minute) % interval_min or first.second or first.microsecond:
        raise InputError(f"{signal_paths[0]}: timestamps must sit on the {interval_min}-minute grid")

    day, step = _calendar(timestamps, interval_min)

    if graph is not None:
        if len(labels) != graph.n_nodes:
            raise InputError(
                f"signal has {len(labels)} node columns but the graph has {graph.n_nodes}"
            )
        known = set(graph.labels)
        if set(labels) == known:
            if labels != graph.labels:
                values = values[:, [labels.index(lab) for lab in graph.labels], :]
                labels = list(graph.labels)
        elif graph.labels != [str(i) for i in range(graph.n_nodes)]:
            lacked = [lab for lab in labels if lab not in known]
            what = f"column {lacked[0]!r} is not a graph node" if lacked else "a column repeats"
            raise InputError(
                f"{signal_paths[0]}: signal {what}; label the columns with the graph's "
                f"node ids, or start the edge list with 'nodes {graph.n_nodes}' to bind "
                f"columns by position"
            )

    return TrafficSeries(
        values=values,
        timestamps=timestamps,
        day_of_week=day,
        step_in_day=step,
        interval_min=interval_min,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@dataclass
class NormStats:
    """Per-channel z-score statistics fit on the training segment."""

    mean: np.ndarray  # (channels,)
    std: np.ndarray  # (channels,)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def invert(self, normalized: np.ndarray) -> np.ndarray:
        return normalized * self.std + self.mean


def zscore_fit(values: np.ndarray) -> NormStats:
    """Fit per-channel statistics over all steps and nodes."""
    if values.ndim != 3 or values.shape[0] == 0:
        raise ContractError(f"expected a nonempty (steps, nodes, channels) array, got {values.shape}")
    mean = values.mean(axis=(0, 1))
    std = values.std(axis=(0, 1))
    if np.any(std == 0.0):
        flat = np.flatnonzero(std == 0.0)
        raise ContractError(f"channel {int(flat[0])} is constant; z-score undefined")
    return NormStats(mean=mean, std=std)


# ---------------------------------------------------------------------------
# splits and windows
# ---------------------------------------------------------------------------


def split_series(
    series: TrafficSeries,
    ratios: tuple[float, float, float] | None = (7.0, 1.0, 2.0),
    days: tuple[int, int, int] | None = None,
) -> dict[str, range]:
    """Chronological train/val/test ranges over raw step indices.

    Either proportional ratios or whole-day counts; day counts must be
    non-negative and fit within the series.
    """
    total = series.n_steps
    if days is not None:
        if min(days) < 0:
            raise InputError(f"bad split days {days}: day counts must not be negative")
        per_day = series.gamma
        t, v, s = (d * per_day for d in days)
        if t + v + s > total:
            raise InputError(
                f"day split needs {t + v + s} steps but the series has {total}"
            )
        bounds = (t, t + v, t + v + s)
    else:
        if ratios is None:
            raise InputError("a ratio or day split is required")
        weights = np.asarray(ratios, dtype=np.float64)
        if weights.min() < 0 or weights.sum() <= 0:
            raise InputError(f"bad split ratios {ratios}")
        cut1 = int(math.floor(total * weights[0] / weights.sum()))
        cut2 = int(math.floor(total * (weights[0] + weights[1]) / weights.sum()))
        bounds = (cut1, cut2, total)
    return {
        "train": range(0, bounds[0]),
        "val": range(bounds[0], bounds[1]),
        "test": range(bounds[1], bounds[2]),
    }


@dataclass
class WindowSample:
    """One training example: an input window and its forecast target.

    build_windows makes the arrays read-only views into the series.
    """

    values_norm: np.ndarray  # (n_nodes, t_in, channels)
    day: np.ndarray  # (t_in,)
    step: np.ndarray  # (t_in,)
    target_norm: np.ndarray  # (n_nodes, t_out, channels)
    target_raw: np.ndarray  # (n_nodes, t_out, channels)
    start: int  # raw step index of the first input step


def build_windows(
    series: TrafficSeries,
    normalized: np.ndarray,
    segment: range,
    t_in: int,
    t_out: int,
) -> list[WindowSample]:
    """Stride-1 sliding windows fully contained in the segment.

    A window copies nothing: its arrays are read-only views into
    normalized, the raw series and its calendar arrays.
    """
    normalized, raw, day, step = (
        _read_only(a)
        for a in (normalized, series.values, series.day_of_week, series.step_in_day)
    )
    samples: list[WindowSample] = []
    last_start = segment.stop - (t_in + t_out)
    for start in range(segment.start, last_start + 1):
        mid = start + t_in
        end = mid + t_out
        samples.append(
            WindowSample(
                values_norm=normalized[start:mid].transpose(1, 0, 2),
                day=day[start:mid],
                step=step[start:mid],
                target_norm=normalized[mid:end].transpose(1, 0, 2),
                target_raw=raw[mid:end].transpose(1, 0, 2),
                start=start,
            )
        )
    return samples


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


@dataclass
class Dataset:
    """A series with normalization stats and per-split window lists."""

    series: TrafficSeries
    stats: NormStats
    splits: dict[str, list[WindowSample]]


def prepare_dataset(
    series: TrafficSeries,
    t_in: int,
    t_out: int,
    ratios: tuple[float, float, float] | None = (7.0, 1.0, 2.0),
    days: tuple[int, int, int] | None = None,
) -> Dataset:
    """Split chronologically, fit z-score on train only, build windows."""
    segments = split_series(series, ratios=ratios, days=days)
    train_seg = segments["train"]
    if len(train_seg) == 0:
        raise ContractError("train segment is empty; adjust the split")
    stats = zscore_fit(series.values[train_seg.start : train_seg.stop])
    normalized = stats.apply(series.values)
    splits = {
        name: build_windows(series, normalized, seg, t_in, t_out)
        for name, seg in segments.items()
    }
    return Dataset(series=series, stats=stats, splits=splits)


def batch_arrays(samples: list[WindowSample]):
    """Stack samples into batched C-contiguous arrays for the model."""
    if not samples:
        raise ContractError("cannot batch an empty sample list")
    # np.array lays the batch out in C order; np.stack would keep the
    # windows' transposed strides
    values = np.array([s.values_norm for s in samples])
    day = np.array([s.day for s in samples])
    step = np.array([s.step for s in samples])
    target_norm = np.array([s.target_norm for s in samples])
    target_raw = np.array([s.target_raw for s in samples])
    return values, day, step, target_norm, target_raw


# ---------------------------------------------------------------------------
# synthetic fixtures
# ---------------------------------------------------------------------------


def ring_edge_lines(n_nodes: int) -> list[str]:
    """Edge list lines for an n-node ring."""
    return [f"{i} {(i + 1) % n_nodes} 1.0" for i in range(n_nodes)]


def synthetic_series(
    n_nodes: int,
    n_steps: int,
    interval_min: int = 60,
    seed: int = 0,
    noise: float = 0.0,
    start: str = "2024-01-01T00:00:00",
) -> TrafficSeries:
    """A smooth positive daily/weekly pattern with optional seeded noise.

    Values stay well away from zero so the zero-masking convention does
    not hide points.
    """
    gamma = MINUTES_PER_DAY // interval_min
    rng = np.random.default_rng(seed)
    first = datetime.fromisoformat(start)
    timestamps = [first + timedelta(minutes=interval_min * k) for k in range(n_steps)]
    day, step = _calendar(timestamps, interval_min)

    t_axis = np.arange(n_steps, dtype=np.float64)
    node_phase = 2.0 * np.pi * np.arange(n_nodes, dtype=np.float64) / n_nodes
    daily = 2.0 * np.pi * t_axis / gamma
    weekly = 2.0 * np.pi * t_axis / (7 * gamma)
    base = (
        50.0
        + 10.0 * np.sin(daily[:, None] + node_phase[None, :])
        + 4.0 * np.cos(weekly[:, None] + 0.5 * node_phase[None, :])
    )
    if noise > 0.0:
        base = base + rng.normal(0.0, noise, size=base.shape)
    values = base[:, :, None]

    return TrafficSeries(
        values=values,
        timestamps=timestamps,
        day_of_week=day,
        step_in_day=step,
        interval_min=interval_min,
        labels=[str(i) for i in range(n_nodes)],
    )
