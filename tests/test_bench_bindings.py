"""The benchmark's span tracer still finds and reaches every layer it wraps.

perfbench/tracer.py replaces module attributes of flowcast by name. A
refactor that renames, inlines or stops calling one of those bindings
breaks the benchmark; this test catches it on an 8-node fixture in about
a second.
"""

import sys
import warnings
from pathlib import Path

from flowcast import checkpoint, model
from flowcast.data import prepare_dataset, ring_edge_lines, synthetic_series
from flowcast.stgraph import load_spatial_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer


def test_tracer_covers_every_binding(tmp_path):
    spatial = load_spatial_graph(ring_edge_lines(8))
    series = synthetic_series(8, 40, interval_min=60, seed=3, noise=1.0)
    dataset = prepare_dataset(series, t_in=6, t_out=2)
    config = model.ModelConfig(
        n_nodes=8, t_in=6, t_out=2, channels=1, dim=8, spe_modes=4, gamma=24,
        n_blocks=1, n_heads=2, n_subsets=2, seed=3, batch_size=8, epochs=1,
    )
    tracer = Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            built = model.build_model(config, spatial)
            model.train(built, dataset)
            model.evaluate(built, dataset.splits["test"], dataset.stats)
            path = tmp_path / "model.bin"
            checkpoint.save_checkpoint(built, path, epochs_completed=1)
            checkpoint.load_checkpoint(path, spatial)
        tracer.check_coverage()
    finally:
        tracer.uninstall()
