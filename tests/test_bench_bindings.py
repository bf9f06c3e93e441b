"""The benchmark's span tracer still finds and reaches every layer it wraps.

perfbench/tracer.py replaces module attributes of flowcast by name. A
refactor that renames, inlines or stops calling one of those bindings
breaks the benchmark; these tests catch it on an 8-node fixture in about
a second. The traced benchmark also checks that every forward_arrays call
runs one subset_attention call per module, so evaluate must split its
windows between whole forwards and not within one.
"""

import sys
from pathlib import Path

from flowcast import checkpoint, model
from flowcast.data import prepare_dataset, ring_edge_lines, synthetic_series
from flowcast.stgraph import load_spatial_graph

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracer import Tracer


def _fixture(n_blocks=1):
    spatial = load_spatial_graph(ring_edge_lines(8))
    series = synthetic_series(8, 40, interval_min=60, seed=3, noise=1.0)
    dataset = prepare_dataset(series, t_in=6, t_out=2)
    config = model.ModelConfig(
        n_nodes=8, t_in=6, t_out=2, channels=1, dim=8, spe_modes=4, gamma=24,
        n_blocks=n_blocks, n_heads=2, n_subsets=2, seed=3, batch_size=8, epochs=1,
    )
    return spatial, dataset, config


def test_tracer_covers_every_binding(tmp_path):
    spatial, dataset, config = _fixture()
    tracer = Tracer()
    tracer.install()
    try:
        built = model.build_model(config, spatial)
        state = model.train(built, dataset)
        model.evaluate(built, dataset.splits["test"], dataset.stats)
        path = tmp_path / "model.bin"
        checkpoint.save_checkpoint(built, path, state)
        checkpoint.load_checkpoint(path, spatial)
        tracer.check_coverage()
    finally:
        tracer.uninstall()


def test_tracer_counts_every_module_in_each_chunked_forward(monkeypatch):
    spatial, dataset, config = _fixture(n_blocks=2)
    built = model.build_model(config, spatial)
    windows = dataset.splits["train"][:5]
    monkeypatch.setattr(model, "_FORWARD_ROWS", 2 * built.unified.n_elements)
    tracer = Tracer()
    tracer.install()
    try:
        model.evaluate(built, windows, dataset.stats, batch_size=len(windows))
    finally:
        tracer.uninstall()
    counts = tracer.per_call_counts("attention.subset_attention", "model.forward_arrays")
    assert counts == [2 * config.n_blocks] * 3  # chunks of 2, 2 and 1 windows
