"""Tests for model assembly, the forward map, loss, metrics, and training."""

import dataclasses
import platform
import tracemalloc

import numpy as np
import pytest

from flowcast import attention, partition, stgraph, tensor
from flowcast import model as fmodel
from flowcast.data import batch_arrays, prepare_dataset, ring_edge_lines, synthetic_series
from flowcast.errors import ContractError, NumericError
from flowcast.model import (
    ModelConfig,
    build_model,
    evaluate,
    forward_arrays,
    ha_baseline,
    load_params,
    masked_mae_loss,
    metrics_from_arrays,
    predict_windows,
    subset_weights,
    train,
)
from flowcast.stgraph import load_spatial_graph
from flowcast.tensor import Param, Tensor, backward, no_grad

from oracles import metrics_oracle


def _config(**overrides):
    base = dict(
        n_nodes=4,
        t_in=4,
        t_out=2,
        channels=1,
        dim=8,
        spe_modes=2,
        gamma=24,
        n_blocks=1,
        n_heads=2,
        n_subsets=2,
        seed=7,
        learning_rate=0.01,
        batch_size=4,
        epochs=2,
    )
    base.update(overrides)
    return ModelConfig(**base)


def _build(**overrides):
    graph = load_spatial_graph(ring_edge_lines(4), symmetrize=True)
    return build_model(_config(**overrides), graph)


def _dataset(n_steps=60, **kwargs):
    series = synthetic_series(4, n_steps, interval_min=60, seed=3, noise=1.0)
    return prepare_dataset(series, t_in=4, t_out=2, **kwargs)


# ---------------------------------------------------------------------------
# configuration and assembly
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ContractError, match="divisible"):
        _config(dim=6, n_heads=4).validate()
    with pytest.raises(ContractError, match="spe_modes"):
        _config(spe_modes=4).validate()
    with pytest.raises(ContractError, match="n_subsets"):
        _config(n_subsets=5).validate()
    with pytest.raises(ContractError, match="learning_rate"):
        _config(learning_rate=0.0).validate()
    with pytest.raises(ContractError, match="epochs"):
        _config(epochs=-1).validate()
    with pytest.raises(ContractError, match="clip_norm"):
        _config(clip_norm=-1.0).validate()
    with pytest.raises(ContractError, match="t_out"):
        _config(t_out=0).validate()
    _config().validate()


def test_build_rejects_node_count_mismatch():
    graph = load_spatial_graph(ring_edge_lines(5), symmetrize=True)
    with pytest.raises(ContractError, match="nodes"):
        build_model(_config(), graph)


def test_build_sets_tau_and_partitions():
    model = _build()
    assert model.p1.tau >= 4 // 2
    assert model.p2.tau >= model.p1.tau
    assert model.p1.n_elements == 16
    assert model.unified.n_elements == 16


def test_build_leaves_its_config_as_given():
    config = _config()
    before = dataclasses.asdict(config)
    graph = load_spatial_graph(ring_edge_lines(4), symmetrize=True)
    model = build_model(config, graph)
    assert model.config is config
    assert dataclasses.asdict(config) == before


def test_build_is_deterministic():
    a, b = _build(), _build()
    for pa, pb in zip(a.params(), b.params()):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.data, pb.data)
    other = _build(seed=8)
    changed = any(
        pa.shape == po.shape and np.any(pa.data != po.data)
        for pa, po in zip(a.params(), other.params())
    )
    assert changed


def test_build_runs_three_spatial_bfs_tables(monkeypatch):
    # one table for the bases (shared by calibrate_tau and build_p1), one
    # for shift_bases' walk back to each base, one for the shifted bases
    calls = []
    original = stgraph.spatial_hops

    def counted(adjacency, sources):
        calls.append(len(sources))
        return original(adjacency, sources)

    monkeypatch.setattr(stgraph, "spatial_hops", counted)
    monkeypatch.setattr(partition, "spatial_hops", counted)
    model = _build(n_subsets=3)
    assert calls == [3, 3, 3]

    # the shared table assigns exactly what a table per stage does
    flats = partition.make_base_set(model.unified, model.spe, 3, model.config.seed)
    best = partition.min_distances(model.unified.distance_rows(flats))
    tau = partition.calibrate_tau(model.unified, best)
    p1 = partition.build_p1(model.unified, flats, model.unified.distance_rows(flats), best, tau)
    assert (p1.tau, p1.base_flats) == (model.p1.tau, model.p1.base_flats)
    np.testing.assert_array_equal(p1.assignment, model.p1.assignment)


def test_param_dict_rejects_duplicates():
    model = _build()
    table = model.param_dict()
    assert "embed.in.w" in table
    assert "adapter.w_time" in table
    model.adapter.b_out.name = "adapter.w_time"
    with pytest.raises(ContractError, match="duplicate"):
        model.param_dict()


def test_params_walk_fields_in_declaration_order():
    # this order fixes checkpoint layout, Adam slots and gradcheck sampling
    module = [
        "att.w_value", "att.w_query", "att.b_query", "att.w_key", "att.w_out",
        "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2",
        "norm1.gain", "norm1.bias", "norm2.gain", "norm2.bias",
    ]
    assert [p.name for p in _build().params()] == [
        "embed.in.w", "embed.in.b", "embed.spe.w", "embed.spe.b", "embed.tpe.w",
        "embed.tpe.b", "embed.mix.w", "embed.mix.b", "embed.norm.gain", "embed.norm.bias",
        *(f"block0.mod1.{name}" for name in module),
        *(f"block0.mod2.{name}" for name in module),
        "adapter.w_time", "adapter.b_time", "adapter.w_out", "adapter.b_out",
    ]


def test_build_with_explicit_schemes_checks_size():
    model = _build()
    graph = load_spatial_graph(ring_edge_lines(4), symmetrize=True)
    bad = _config(t_in=5)
    with pytest.raises(ContractError, match="elements"):
        build_model(bad, graph, schemes=(model.p1, model.p2))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_shapes():
    model = _build()
    rng = np.random.default_rng(0)
    values = rng.normal(size=(4, 4, 1))
    day = np.zeros(4, dtype=np.int64)
    step = np.arange(4)
    out = forward_arrays(model, values, day, step)
    assert out.shape == (4, 2, 1)

    batched = forward_arrays(model, np.stack([values] * 3), np.stack([day] * 3), np.stack([step] * 3))
    assert batched.shape == (3, 4, 2, 1)
    for b in range(3):
        assert np.max(np.abs(batched.data[b] - out.data)) < 1e-12


def test_forward_window_sample():
    model = _build()
    ds = _dataset()
    sample = ds.splits["train"][0]
    one = forward_arrays(model, sample.values_norm, sample.day, sample.step)
    values, day, step, _, _ = batch_arrays([sample])
    batch = forward_arrays(model, values, day, step)
    assert one.shape == (4, 2, 1) and batch.shape == (1, 4, 2, 1)
    np.testing.assert_allclose(batch.data[0], one.data, rtol=0, atol=1e-12)


def test_forward_captures_attention():
    model = _build()
    rng = np.random.default_rng(1)
    window = (rng.normal(size=(4, 4, 1)), np.zeros(4, dtype=np.int64), np.arange(4))
    for module, scheme in ((1, model.p1), (2, model.p2)):
        assert scheme.n_subsets == 2
        for subset_id, members in enumerate(scheme.subsets):
            alphas = subset_weights(model, *window, 0, module, subset_id)
            assert alphas.shape == (2, len(members), len(members))  # heads
            for alpha in alphas:
                np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-9)
    with pytest.raises(ContractError):
        subset_weights(model, *window, 1, 1, 0)


def test_subset_weights_rejects_subset_ids_outside_the_scheme():
    # -1 would read the last subset and l would index past the list
    model = _build()
    rng = np.random.default_rng(1)
    window = (rng.normal(size=(4, 4, 1)), np.zeros(4, dtype=np.int64), np.arange(4))
    for module, scheme in ((1, model.p1), (2, model.p2)):
        for subset_id in (-1, scheme.n_subsets):
            with pytest.raises(ContractError, match=f"no subset {subset_id}"):
                subset_weights(model, *window, 0, module, subset_id)


def test_subset_weights_read_the_rows_the_forward_attends(monkeypatch):
    # record what each module of a two-block forward feeds subset_attention,
    # in call order: block 0 module 1, block 0 module 2, block 1 module 1, ...
    model = _build(n_blocks=2)
    rng = np.random.default_rng(2)
    window = (rng.normal(size=(3, 4, 4, 1)), np.zeros(4, dtype=np.int64), np.arange(4))
    fed = []
    original = attention.subset_attention

    def spy(x, params, scheme):
        fed.append(x.data.copy())
        return original(x, params, scheme)

    monkeypatch.setattr(attention, "subset_attention", spy)
    forward_arrays(model, *window)
    monkeypatch.undo()
    assert len(fed) == 4
    for b, block in enumerate(model.blocks):
        modules = ((1, model.p1, block.module_one), (2, model.p2, block.module_two))
        for module, scheme, params in modules:
            rows = fed[2 * b + module - 1]
            for subset_id, members in enumerate(scheme.subsets):
                want = tensor.attention_weights(rows[:, members], params.attention)
                got = subset_weights(model, *window, b, module, subset_id)
                assert np.array_equal(got, want)


@pytest.mark.parametrize("n_blocks", [1, 3])
def test_forward_reaches_subset_attention_twice_per_block(monkeypatch, n_blocks):
    # the benchmark counts attention.subset_calls_per_step, and its tracer
    # times spans, by replacing the module attribute: every module's
    # attention must go through it, with the module's own partition
    model = _build(n_blocks=n_blocks)
    rng = np.random.default_rng(3)
    window = (rng.normal(size=(2, 4, 4, 1)), np.zeros(4, dtype=np.int64), np.arange(4))
    schemes = []
    original = attention.subset_attention

    def counted(x, params, scheme):
        schemes.append(scheme)
        return original(x, params, scheme)

    monkeypatch.setattr(attention, "subset_attention", counted)
    forward_arrays(model, *window)
    assert len(schemes) == 2 * n_blocks
    assert all(got is want for got, want in zip(schemes, [model.p1, model.p2] * n_blocks))


# ---------------------------------------------------------------------------
# loss and metrics
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_blocks", [1, 2])
def test_training_step_records_three_op_nodes_plus_four_per_block(n_blocks):
    # the embedding, the adapter and the loss are one tape node each, and
    # each block's two modules two each; leaves have no backward_fn
    model = _build(n_blocks=n_blocks)
    values, day, step, target_norm, target_raw = batch_arrays(_dataset().splits["train"][:4])
    loss = masked_mae_loss(forward_arrays(model, values, day, step), target_norm, target_raw != 0.0)
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    assert sum(node.backward_fn is not None for node in seen.values()) == 3 + 4 * n_blocks


def test_masked_loss_hand_value():
    pred = Param(np.array([[1.0, 2.0], [3.0, 4.0]]), "pred")
    truth = np.array([[2.0, 0.0], [1.0, 4.0]])
    loss = masked_mae_loss(pred, truth)
    assert loss.item() == pytest.approx((1.0 + 2.0 + 0.0) / 3, abs=1e-12)


def test_masked_loss_explicit_mask():
    pred = Param(np.array([[1.0, 2.0], [3.0, 4.0]]), "pred")
    truth = np.array([[2.0, 0.0], [1.0, 4.0]])
    mask = np.array([[True, True], [False, False]])
    loss = masked_mae_loss(pred, truth, mask)
    assert loss.item() == pytest.approx((1.0 + 2.0) / 2, abs=1e-12)


def test_masked_loss_all_masked_is_zero_with_zero_grads():
    pred = Param(np.array([[1.0, -2.0]]), "pred")
    loss = masked_mae_loss(pred, np.zeros((1, 2)))
    assert loss.item() == 0.0
    backward(loss)
    np.testing.assert_array_equal(pred.grad, np.zeros((1, 2)))


def test_masked_loss_shape_errors():
    pred = Param(np.zeros((2, 2)), "pred")
    with pytest.raises(ContractError):
        masked_mae_loss(pred, np.zeros((2, 3)))
    with pytest.raises(ContractError):
        masked_mae_loss(pred, np.zeros((2, 2)), np.ones((1, 2), dtype=bool))


def test_metrics_match_oracle():
    rng = np.random.default_rng(6)
    for _ in range(10):
        truth = rng.normal(50.0, 10.0, size=(5, 4, 2))
        truth[rng.random(truth.shape) < 0.2] = 0.0
        if not np.any(truth != 0.0):
            continue
        pred = truth + rng.normal(0.0, 3.0, size=truth.shape)
        report = metrics_from_arrays(pred, truth)
        mae, mape, rmse = metrics_oracle(pred, truth)
        assert report.mae == pytest.approx(mae, abs=1e-9)
        assert report.mape_percent == pytest.approx(mape, abs=1e-9)
        assert report.rmse == pytest.approx(rmse, abs=1e-9)
        assert report.mae <= report.rmse + 1e-12
        assert report.evaluated_points == int(np.sum(truth != 0.0))
        assert report.excluded_zeros == truth.size - report.evaluated_points


def test_metrics_zero_exclusion_value():
    pred = np.array([1.0, 5.0, 9.0])
    truth = np.array([2.0, 0.0, 10.0])
    report = metrics_from_arrays(pred, truth)
    assert report.mae == pytest.approx(1.0)
    assert report.mape_percent == pytest.approx((0.5 + 0.1) / 2 * 100)
    assert report.rmse == pytest.approx(1.0)
    assert report.excluded_zeros == 1


def test_metrics_all_zero_truth():
    # nothing to score is an empty report, not an error
    report = metrics_from_arrays(np.ones((2, 3)), np.zeros((2, 3)))
    assert report.evaluated_points == 0 and report.excluded_zeros == 6
    assert np.isnan(report.mae) and np.isnan(report.mape_percent) and np.isnan(report.rmse)
    assert report.to_text() == "no nonzero truth points"
    assert metrics_from_arrays(np.empty(0), np.empty(0)).excluded_zeros == 0
    with pytest.raises(ContractError, match="shape"):
        metrics_from_arrays(np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# prediction and evaluation
# ---------------------------------------------------------------------------


def test_predict_windows_denormalizes():
    model = _build()
    ds = _dataset()
    samples = ds.splits["val"]
    preds = predict_windows(model, samples, ds.stats)
    assert preds.shape == (len(samples), 4, 2, 1)
    sample = samples[0]
    one = forward_arrays(model, sample.values_norm, sample.day, sample.step).data
    np.testing.assert_allclose(preds[0], ds.stats.invert(one), atol=1e-12)


def _inverted_forward(model, samples, stats):
    values, day, step, _, _ = batch_arrays(samples)
    with no_grad():
        return stats.invert(forward_arrays(model, values, day, step).data)


def test_predict_windows_chunking_consistent(monkeypatch):
    # at most _FORWARD_ROWS rows and batch_size windows go into one forward,
    # 3 windows leaving a ragged last chunk of 7; every window's prediction
    # is the bits of one forward over all seven
    ds = _dataset()
    samples = ds.splits["train"][:7]
    sizes = []

    def counted(model, values, day, step):
        sizes.append(values.shape[0])
        return forward_arrays(model, values, day, step)

    monkeypatch.setattr(fmodel, "forward_arrays", counted)
    for n_blocks in (1, 2):
        model = _build(n_blocks=n_blocks)
        whole = _inverted_forward(model, samples, ds.stats)
        for budget in (1, 2, 3):
            monkeypatch.setattr(fmodel, "_FORWARD_ROWS", budget * model.unified.n_elements)
            for batch_size in (1, 3, 7, 32):
                sizes.clear()
                preds = predict_windows(model, samples, ds.stats, batch_size=batch_size)
                size = min(budget, batch_size)
                assert sizes == [size] * (7 // size) + [7 % size] * (7 % size > 0)
                assert np.array_equal(preds, whole), (n_blocks, budget, batch_size)


def test_predict_windows_shifts_each_chunk_on_its_own(monkeypatch):
    # The shifted softmax is chosen once per forward. A layer norm ends the
    # embedding, so scaling a window's signal leaves its scores bounded;
    # instead the limit drops between the largest and the next largest
    # score bound of one-window forwards, and only that window needs it.
    model = _build(n_blocks=2)
    ds = _dataset()
    samples = ds.splits["train"][:7]
    shift = tensor._needs_shift
    bounds, decisions = [], []

    def spy(q, k, factor):
        peaks = [max(a.max(initial=0.0), -a.min(initial=0.0)) for a in (q, k)]
        bounds.append(k.shape[-2] * factor * peaks[0] * peaks[1])
        decisions.append(shift(q, k, factor))
        return decisions[-1]

    monkeypatch.setattr(tensor, "_needs_shift", spy)
    own = []
    for sample in samples:
        bounds.clear()
        _inverted_forward(model, [sample], ds.stats)
        own.append(max(bounds))
    second, first = sorted(own)[-2:]
    assert second < first
    monkeypatch.setattr(tensor, "_UNSHIFTED_SCORE_LIMIT", (first + second) / 2)
    alone = []
    for sample, bound in zip(samples, own):
        decisions.clear()
        alone.append(_inverted_forward(model, [sample], ds.stats)[0])
        assert any(decisions) == (bound == first)

    monkeypatch.setattr(fmodel, "_FORWARD_ROWS", 3 * model.unified.n_elements)
    decisions.clear()
    preds = predict_windows(model, samples, ds.stats)
    assert any(decisions)
    for lo in range(0, 7, 3):
        chunk = _inverted_forward(model, samples[lo : lo + 3], ds.stats)
        assert np.array_equal(preds[lo : lo + 3], chunk)
    for pred, one in zip(preds, alone):
        np.testing.assert_allclose(pred, one, rtol=1e-12, atol=0.0)


def test_predict_windows_peak_memory_is_that_of_its_row_budget(monkeypatch):
    # a 30-node ring over 12 steps, 360 rows per window, with a budget of
    # 2 windows: 32 windows at batch_size 32 peak as 32 at batch_size 2 do
    graph = load_spatial_graph(ring_edge_lines(30), symmetrize=True)
    config = _config(n_nodes=30, t_in=12, t_out=3, dim=16, spe_modes=4, n_subsets=4)
    model = build_model(config, graph)
    series = synthetic_series(30, 46, interval_min=60, seed=3, noise=1.0)
    ds = prepare_dataset(series, t_in=12, t_out=3, ratios=(1.0, 0.0, 0.0))
    samples = ds.splits["train"]
    assert len(samples) == 32
    monkeypatch.setattr(fmodel, "_FORWARD_ROWS", 2 * model.unified.n_elements)

    def peak(batch_size):
        predict_windows(model, samples, ds.stats, batch_size=batch_size)
        tracemalloc.start()
        try:
            predict_windows(model, samples, ds.stats, batch_size=batch_size)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(32) <= 1.5 * peak(2)


def test_predict_windows_holds_its_output_once(monkeypatch):
    # an 8-node ring mapping 2 steps to 24, one window per forward: the
    # output outgrows a forward's working set, and 4W windows peak above W
    # windows by the growth of the output alone; a list of chunk outputs
    # and their concatenation held both, about twice that
    graph = load_spatial_graph(ring_edge_lines(8), symmetrize=True)
    model = build_model(_config(n_nodes=8, t_in=2, t_out=24), graph)
    series = synthetic_series(8, 64 + 25, interval_min=60, seed=3, noise=1.0)
    ds = prepare_dataset(series, t_in=2, t_out=24, ratios=(1.0, 0.0, 0.0))
    samples = ds.splits["train"]
    assert len(samples) == 64
    monkeypatch.setattr(fmodel, "_FORWARD_ROWS", model.unified.n_elements)

    def peak_and_size(windows):
        predict_windows(model, samples[:windows], ds.stats)
        tracemalloc.start()
        try:
            preds = predict_windows(model, samples[:windows], ds.stats)
            return tracemalloc.get_traced_memory()[1], preds.nbytes
        finally:
            tracemalloc.stop()

    (peak_one, size_one), (peak_four, size_four) = peak_and_size(16), peak_and_size(64)
    assert (peak_four - peak_one) / (size_four - size_one) <= 1.2


@pytest.mark.parametrize("batch_size", [3, 5])
def test_predict_windows_matches_a_recorded_forward_bit_for_bit(batch_size):
    # predict_windows runs under no_grad; a forward that records its graph
    # must give the same bits, also in the ragged last batch of 7 windows
    model = _build(n_blocks=2)
    ds = _dataset()
    samples = ds.splits["train"][:7]
    chunks = []
    for lo in range(0, len(samples), batch_size):
        values, day, step, _, _ = batch_arrays(samples[lo : lo + batch_size])
        pred = forward_arrays(model, values, day, step)
        assert pred.parents
        chunks.append(ds.stats.invert(pred.data))
    recorded = np.concatenate(chunks, axis=0)
    assert np.array_equal(predict_windows(model, samples, ds.stats, batch_size), recorded)
    truth = np.stack([s.target_raw for s in samples], axis=0)
    assert evaluate(model, samples, ds.stats, batch_size=batch_size) == metrics_from_arrays(
        recorded, truth
    )


def test_predict_windows_empty():
    model = _build()
    ds = _dataset()
    with pytest.raises(ContractError):
        predict_windows(model, [], ds.stats)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_predict_windows_and_evaluate_reject_a_batch_size_below_one(batch_size):
    model = _build()
    ds = _dataset()
    samples = ds.splits["val"]
    with pytest.raises(ContractError, match="batch_size"):
        predict_windows(model, samples, ds.stats, batch_size=batch_size)
    with pytest.raises(ContractError, match="batch_size"):
        evaluate(model, samples, ds.stats, batch_size=batch_size)


def test_evaluate_horizon_slicing():
    model = _build()
    ds = _dataset()
    samples = ds.splits["val"]
    preds = predict_windows(model, samples, ds.stats)
    truth = np.stack([s.target_raw for s in samples], axis=0)

    full = evaluate(model, samples, ds.stats)
    assert full == metrics_from_arrays(preds, truth)

    # a horizon is a slice of the same predictions, and the slices' scored
    # points partition the full report's
    steps = [metrics_from_arrays(preds[:, :, h], truth[:, :, h]) for h in range(2)]
    assert sum(r.evaluated_points for r in steps) == full.evaluated_points
    weighted = sum(r.mae * r.evaluated_points for r in steps) / full.evaluated_points
    assert weighted == pytest.approx(full.mae, abs=1e-12)


def test_evaluate_errors():
    model = _build()
    ds = _dataset()
    with pytest.raises(ContractError, match="empty"):
        evaluate(model, [], ds.stats)


# ---------------------------------------------------------------------------
# historical average
# ---------------------------------------------------------------------------


def test_ha_hand_example():
    values = np.arange(12, dtype=np.float64)[:, None, None] * np.ones((12, 2, 1))
    out = ha_baseline(values, steps_per_week=4, targets=[4, 6, 9])
    np.testing.assert_allclose(out[0], 0.0)  # prior weeks: step 0
    np.testing.assert_allclose(out[1], 2.0)  # step 2
    np.testing.assert_allclose(out[2], 3.0)  # mean of steps 5 and 1


def test_ha_exact_on_periodic_series():
    period = 6
    pattern = np.array([3.0, 7.0, 1.0, 9.0, 4.0, 8.0])
    steps = 4 * period
    values = np.tile(pattern, 4)[:, None, None] * np.ones((steps, 3, 2))
    targets = list(range(period, steps))
    out = ha_baseline(values, period, targets)
    np.testing.assert_array_equal(out, values[targets])


def test_ha_errors():
    values = np.ones((10, 2, 1))
    with pytest.raises(ContractError, match="prior week"):
        ha_baseline(values, 4, [3])
    with pytest.raises(ContractError, match="outside"):
        ha_baseline(values, 4, [10])
    with pytest.raises(ContractError, match="outside"):
        ha_baseline(values, 4, [-1])


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_two_epochs_and_trace():
    model = _build()
    ds = _dataset()
    result = train(model, ds)
    assert [row.epoch for row in result.trace] == [1, 2]
    assert result.epoch == 2
    assert model.norm_stats is ds.stats
    for row in result.trace:
        assert np.isfinite(row.train_loss)
        assert np.isfinite(row.val_mae)


def test_train_is_bit_deterministic():
    results = []
    for _ in range(2):
        model = _build()
        result = train(model, _dataset())
        results.append((result, {p.name: p.data.copy() for p in model.params()}))
    (ra, pa), (rb, pb) = results
    assert [r.to_csv() for r in ra.trace] == [r.to_csv() for r in rb.trace]
    for name in pa:
        np.testing.assert_array_equal(pa[name], pb[name])


def test_train_tracks_best_validation():
    model = _build(epochs=4)
    ds = _dataset(60)
    result = train(model, ds)
    maes = [row.val_mae for row in result.trace]
    assert result.best_val_mae == pytest.approx(min(maes))
    assert result.best_epoch == int(np.argmin(maes)) + 1

    load_params(model, result.best_params)
    report = evaluate(model, ds.splits["val"], ds.stats)
    assert report.mae == pytest.approx(result.best_val_mae, abs=1e-12)


def test_train_empty_validation_split():
    model = _build()
    ds = _dataset(ratios=(8.0, 0.0, 2.0))
    assert ds.splits["val"] == []
    result = train(model, ds)
    for row in result.trace:
        assert np.isnan(row.val_mae) and np.isnan(row.val_mape) and np.isnan(row.val_rmse)
    for p in model.params():
        np.testing.assert_array_equal(result.best_params[p.name], p.data)


def test_train_all_zero_validation_split_counts_as_empty():
    # nothing to score: NaN validation columns and the last epoch's
    # parameters, exactly as with no validation split at all
    ds = _dataset()
    ds.splits["val"] = [
        dataclasses.replace(s, target_raw=np.zeros_like(s.target_raw)) for s in ds.splits["val"]
    ]
    assert ds.splits["val"]
    model = _build(epochs=3)
    result = train(model, ds)
    assert [row.epoch for row in result.trace] == [1, 2, 3]
    for row in result.trace:
        assert np.isnan(row.val_mae) and np.isnan(row.val_mape) and np.isnan(row.val_rmse)
    assert result.best_epoch == 3 and np.isnan(result.best_val_mae)
    for p in model.params():
        np.testing.assert_array_equal(result.best_params[p.name], p.data)

    ds.splits["val"] = []
    reference = _build(epochs=3)
    train(reference, ds)
    for p, q in zip(model.params(), reference.params()):
        np.testing.assert_array_equal(p.data, q.data)


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="the heap is kept through glibc's mallopt; elsewhere it is a no-op",
)
def test_warm_train_call_takes_no_page_faults():
    # each step frees its graph during backward and the freed pages stay
    # in the heap, so the next step's arrays reuse them
    import resource

    series = synthetic_series(8, 78, interval_min=60, seed=1, noise=1.0)
    ds = prepare_dataset(series, t_in=12, t_out=3, ratios=(1.0, 0.0, 0.0))
    config = ModelConfig(
        n_nodes=8, t_in=12, t_out=3, channels=1, dim=16, spe_modes=4, gamma=24,
        n_blocks=1, n_heads=2, n_subsets=2, seed=1, learning_rate=0.005,
        batch_size=8, epochs=2,
    )
    model = build_model(config, load_spatial_graph(ring_edge_lines(8)))
    for _ in range(2):
        train(model, ds)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(model, ds)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 500


def test_train_zero_epochs_keeps_initial_params():
    model = _build(epochs=0)
    initial = {p.name: p.data.copy() for p in model.params()}
    result = train(model, _dataset())
    assert result.trace == []
    assert result.epoch == 0
    for p in model.params():
        np.testing.assert_array_equal(p.data, initial[p.name])


def test_train_requires_windows():
    model = _build()
    ds = _dataset()
    ds.splits["train"] = []
    with pytest.raises(ContractError, match="train split"):
        train(model, ds)


def test_train_raises_on_non_finite_loss():
    model = _build()
    model.embedding.w_in.data[:] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        train(model, _dataset())


def test_train_resume_continues_epoch_numbers():
    model = _build(epochs=4)
    ds = _dataset()
    model.config.epochs = 2
    first = train(model, ds)
    assert [row.epoch for row in first.trace] == [1, 2]
    model.config.epochs = 4
    second = train(model, ds, first)
    assert [row.epoch for row in second.trace] == [3, 4]


def test_train_continued_from_a_state_matches_an_uninterrupted_run():
    # the state carries the moments, step count and best snapshot, so two
    # epochs and then two more are four epochs, bit for bit
    ds = _dataset(80)
    uninterrupted = _build(epochs=4, learning_rate=0.05)
    whole = train(uninterrupted, ds)
    resumed = _build(epochs=2, learning_rate=0.05)
    halfway = train(resumed, ds)
    assert (halfway.epoch, 2 * halfway.step_count) == (2, whole.step_count)
    resumed.config.epochs = 4
    rest = train(resumed, ds, halfway)
    assert rest is halfway and [row.epoch for row in rest.trace] == [3, 4]
    assert [r.to_csv() for r in rest.trace] == [r.to_csv() for r in whole.trace[2:]]
    assert (rest.epoch, rest.step_count) == (whole.epoch, whole.step_count)
    assert rest.moments.tobytes() == whole.moments.tobytes()
    assert (rest.best_epoch, repr(rest.best_val_mae)) == (whole.best_epoch, repr(whole.best_val_mae))
    for p, q in zip(resumed.params(), uninterrupted.params()):
        assert p.data.tobytes() == q.data.tobytes()
        assert rest.best_params[p.name].tobytes() == whole.best_params[q.name].tobytes()


def test_train_decreases_loss_on_easy_series():
    model = _build(epochs=6, learning_rate=0.005)
    ds = _dataset(80)
    result = train(model, ds)
    losses = [row.train_loss for row in result.trace]
    assert losses[-1] < losses[0]


# ---------------------------------------------------------------------------
# parameter loading
# ---------------------------------------------------------------------------


def test_load_params_round_trip():
    a, b = _build(), _build(seed=9)
    table = {p.name: p.data.copy() for p in a.params()}
    load_params(b, table)
    for pa, pb in zip(a.params(), b.params()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_load_params_errors():
    model = _build()
    with pytest.raises(ContractError, match="unknown"):
        load_params(model, {"nope": np.zeros(3)})
    with pytest.raises(ContractError, match="shape"):
        load_params(model, {"adapter.b_out": np.zeros(5)})


def test_load_params_names_every_missing_parameter():
    model = _build()
    before = {p.name: p.data.copy() for p in model.params()}
    table = {p.name: np.zeros(p.shape) for p in model.params()}
    dropped = [model.params()[0].name, model.params()[-1].name]
    for name in dropped:
        del table[name]
    with pytest.raises(ContractError, match="missing parameters: " + ", ".join(dropped) + "$"):
        load_params(model, table)
    with pytest.raises(ContractError, match="missing parameters"):
        load_params(model, {})
    # a rejected table copies nothing
    for p in model.params():
        np.testing.assert_array_equal(p.data, before[p.name])
