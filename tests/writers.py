"""Write graph and signal files in the layouts the command line reads."""

from __future__ import annotations

import csv
from pathlib import Path

from flowcast.data import TrafficSeries


def write_signal_csv(series: TrafficSeries, path, channel: int = 0) -> None:
    """Write one channel of a series in the standard signal layout."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp"] + series.labels)
        for k, ts in enumerate(series.timestamps):
            row = [ts.isoformat()] + [repr(float(v)) for v in series.values[k, :, channel]]
            writer.writerow(row)


def write_edge_list(lines: list[str], path) -> None:
    Path(path).write_text("\n".join(lines) + "\n")
