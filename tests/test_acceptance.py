"""End-to-end acceptance checks for the package.

Each test covers one numbered criterion and prints a single PASS/FAIL
summary line directly to the terminal (bypassing capture) before asserting,
so a full run always shows the verdict and the measured evidence for every
criterion, green or red.  Tolerances and fixture sizes are pinned here on
purpose; loosening them is not an option when a check goes red.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from flowcast.attention import (
    apply_block,
    apply_module,
    attention_weights,
    init_attention_params,
    init_block_params,
    subset_attention,
)
from flowcast.cli import gradcheck_suite
from flowcast.data import prepare_dataset, ring_edge_lines, synthetic_series
from flowcast.embedding import compute_spe
from flowcast.model import (
    ModelConfig,
    build_model,
    build_partitions,
    evaluate,
    ha_baseline,
    metrics_from_arrays,
    train,
)
from flowcast.partition import PartitionScheme, partition_report
from flowcast.stgraph import build_unified, load_spatial_graph, st_distance
from flowcast.tensor import Param, backward, constant, mul, tensor_sum

from oracles import (
    attention_oracle,
    hop_distances,
    metrics_oracle,
    random_connected_graph,
    unified_dense,
)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _graph_from_adjacency(adj: np.ndarray):
    """Edge-list round trip; repr keeps the weights bit-exact.

    The nodes directive pins label order to the matrix index order, so the
    loaded graph and the raw adjacency agree element for element.
    """
    n = adj.shape[0]
    lines = [f"nodes {n}"] + [
        f"{i} {j} {float(adj[i, j])!r}"
        for i in range(n)
        for j in range(i + 1, n)
        if adj[i, j] != 0.0
    ]
    return load_spatial_graph(lines, symmetrize=True)


def _two_component_adjacency(rng: np.random.Generator, n_total: int) -> np.ndarray:
    n_a = int(rng.integers(2, n_total - 1))
    a = random_connected_graph(rng, n_a, extra_edge_prob=0.2)
    b = random_connected_graph(rng, n_total - n_a, extra_edge_prob=0.2)
    adj = np.zeros((n_total, n_total))
    adj[:n_a, :n_a] = a
    adj[n_a:, n_a:] = b
    return adj


def _unified_as_dense(unified) -> np.ndarray:
    m = unified.n_elements
    dense = np.zeros((m, m))
    for a, b, w in unified.iter_edges():
        dense[a, b] = w
    return dense


def test_criterion_01_unified_graph_matches_elementwise_definition(capsys):
    """Unified adjacency equals the entry-by-entry definition on 100 graphs."""
    rng = np.random.default_rng(41)
    t0 = time.perf_counter()
    checked = 0
    for trial in range(100):
        n = int(rng.integers(2, 9))
        t = int(rng.integers(1, 6))
        if trial % 7 == 3 and n >= 4:
            adj = _two_component_adjacency(rng, n)
        else:
            adj = random_connected_graph(rng, n, extra_edge_prob=0.3)
        unified = build_unified(_graph_from_adjacency(adj), t)
        dense = _unified_as_dense(unified)
        expected = unified_dense(adj, t)
        assert np.array_equal(dense, expected), f"trial {trial}: entries differ"
        nnz = 2 * n * (t - 1) + t * int(np.count_nonzero(adj))
        assert unified.edge_entry_count == nnz, (
            f"trial {trial}: entry count {unified.edge_entry_count} != {nnz}"
        )
        assert np.count_nonzero(dense) == nnz
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 100 and elapsed < 5.0
    _report(capsys, 1, ok, f"{checked} graphs exact, nnz formula holds, {elapsed:.2f}s")
    assert ok


def test_criterion_02_st_distance_matches_matrix_power_definition(capsys):
    """Pairwise hop counts agree with boolean matrix powers on 20 graphs."""
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    pairs = 0
    for trial in range(20):
        n = int(rng.integers(2, 7))
        t = int(rng.integers(1, 7))
        while n * t > 36:
            t -= 1
        if trial % 4 == 1 and n >= 4:
            adj = _two_component_adjacency(rng, n)
        else:
            adj = random_connected_graph(rng, n, extra_edge_prob=0.25)
        unified = build_unified(_graph_from_adjacency(adj), t)
        oracle = hop_distances(unified_dense(adj, t))
        m = unified.n_elements
        for a in range(m):
            row = unified.distances_from(a)
            assert np.array_equal(row, oracle[a]), f"trial {trial}: row {a}"
            ca = unified.flat_to_coord(a)
            for b in range(m):
                d = st_distance(unified, ca, unified.flat_to_coord(b))
                expect = None if oracle[a, b] < 0 else int(oracle[a, b])
                assert d == expect, f"trial {trial}: pair ({a},{b}) {d} != {expect}"
                pairs += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    _report(capsys, 2, ok, f"20 graphs, {pairs} pairs exact, {elapsed:.2f}s")
    assert ok


def _star_lines(n: int) -> list[str]:
    return [f"0 {i} 1.0" for i in range(1, n)]


def _path_lines(n: int) -> list[str]:
    return [f"{i} {i + 1} 1.0" for i in range(n - 1)]


def test_criterion_03_partition_cover_locality_and_overlap_band(capsys):
    """Partitions cover disjointly and stay local; overlap stats are measured.

    The hard structural invariants (disjoint cover, radius floor, every
    element within the calibrated radius of its base) must hold on every
    graph.  The single-subset case must overlap exactly 1.0.  The pinned
    distributional expectation, a [0.25, 0.75] per-subset overlap band on
    at least 80% of subsets, counts every multi-subset graph, stars
    included: the shifted scheme exists so information crosses the
    primary boundaries, on stars as elsewhere.  A star subset with overlap
    0.0 fails outright, since that is the signature of two bases swapping.
    """
    rng = np.random.default_rng(33)
    graphs: list[tuple[str, list[str], int]] = []
    for idx in range(38):
        n = int(rng.integers(3, 21))
        adj = random_connected_graph(rng, n, extra_edge_prob=float(rng.uniform(0.05, 0.5)))
        lines = [f"nodes {n}"] + [
            f"{i} {j} {float(adj[i, j])!r}"
            for i in range(n)
            for j in range(i + 1, n)
            if adj[i, j] != 0.0
        ]
        graphs.append(("random", lines, n))
    for n in (4, 6, 8, 10, 15, 20):
        graphs.append(("ring", ring_edge_lines(n), n))
    for n in (3, 5, 7, 9, 12, 16):
        graphs.append(("path", _path_lines(n), n))
    for n in (6, 9, 14, 20):
        graphs.append(("star", _star_lines(n), n))

    l_cycle = [1, 2, 3, 4]
    star_l = [2, 3, 4, 2]
    band_in = 0
    band_total = 0
    star_overlaps: list[float] = []
    checked = 0
    star_i = 0
    for idx, (kind, lines, n) in enumerate(graphs):
        t = 2 + idx % 5
        l = star_l[star_i] if kind == "star" else min(l_cycle[idx % 4], n)
        if kind == "star":
            star_i += 1
        spatial = load_spatial_graph(lines, symmetrize=True)
        unified = build_unified(spatial, t)
        spe = compute_spe(spatial, min(4, n - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p1, p2 = build_partitions(unified, spe.selected, l, seed=idx)
            rep = partition_report(p1, p2)

        for scheme in (p1, p2):
            sizes = [len(s) for s in scheme.subsets]
            assert sum(sizes) == unified.n_elements, f"graph {idx}: cover broken"
            assert np.all(scheme.assignment >= 0)
            assert scheme.tau >= t // 2, f"graph {idx}: tau {scheme.tau} < {t // 2}"
            for q, base in enumerate(scheme.base_flats):
                dist = unified.distances_from(base)
                members = np.flatnonzero(scheme.assignment == q)
                worst = dist[members].max() if members.size else 0
                assert 0 <= worst <= scheme.tau, (
                    f"graph {idx}: subset {q} reaches {worst} > tau {scheme.tau}"
                )

        if l == 1:
            assert rep.overlap == [1.0], f"graph {idx}: l=1 overlap {rep.overlap}"
        else:
            if kind == "star":
                star_overlaps.extend(rep.overlap)
            for o in rep.overlap:
                band_total += 1
                if 0.25 <= o <= 0.75:
                    band_in += 1
        checked += 1

    band_rate = band_in / band_total if band_total else 0.0
    band_ok = band_rate >= 0.8
    stars_ok = 0.0 not in star_overlaps
    ok = band_ok and stars_ok
    _report(
        capsys, 3, ok,
        f"{checked} graphs: cover/tau/locality hold, l=1 overlap exact; "
        f"band rate {band_rate:.2f} of {band_total} subsets, stars included "
        f"(need >= 0.80); star overlaps {['%.2f' % o for o in star_overlaps]} "
        "(need none 0.0)",
    )
    assert ok, (
        f"overlap band rate {band_rate:.2f} over {band_total} subsets (need >= 0.80); "
        f"star overlaps {star_overlaps} (need none 0.0: a 0.0 means two bases "
        "swapped). Structural invariants all hold."
    )


def test_criterion_04_subset_attention_matches_loop_oracle(capsys):
    """Vectorised attention equals the per-pair loop oracle on 100 draws."""
    rng = np.random.default_rng(44)
    worst_out = 0.0
    worst_row = 0.0
    for trial in range(100):
        n_heads = (1, 2, 4)[trial % 3]
        head_dim = int(rng.integers(1, 5))
        dim = n_heads * head_dim
        m = int(rng.integers(1, 9))
        params = init_attention_params(rng, dim, n_heads, "att")
        params.b_query.data[:] = rng.normal(size=(n_heads, 1, head_dim)) * 0.5
        x = rng.normal(size=(m, dim))
        one_subset = PartitionScheme(
            label="p1", n_elements=m, tau=m, base_flats=[0], assignment=np.zeros(m, dtype=np.int64)
        )
        out = subset_attention(constant(x), params, one_subset)
        weights = attention_weights(constant(x), params).data
        # the oracle gets each head's slices plus a random key bias that the
        # model does not carry: the row softmax cancels it exactly
        heads = [
            (
                params.w_query.data[h],
                params.b_query.data[h, 0],
                params.w_key.data[h],
                rng.normal(size=head_dim) * 0.5,
                params.w_value.data[h],
            )
            for h in range(n_heads)
        ]
        expected, alphas = attention_oracle(x, heads, params.w_out.data)
        worst_out = max(worst_out, float(np.abs(out.data - expected).max()))
        for got, want in zip(weights, alphas):
            worst_out = max(worst_out, float(np.abs(got - want).max()))
            worst_row = max(worst_row, float(np.abs(got.sum(axis=-1) - 1.0).max()))
    ok = worst_out <= 1e-10 and worst_row <= 1e-9
    _report(
        capsys, 4, ok,
        f"100 instances: max output/alpha gap {worst_out:.2e} (tol 1e-10), "
        f"row-sum gap {worst_row:.2e} (tol 1e-9)",
    )
    assert ok


def test_criterion_05_analytic_gradients_match_finite_differences(capsys):
    """Embedding, block, and full-model gradients pass finite differences."""
    t0 = time.perf_counter()
    results = gradcheck_suite(0)
    elapsed = time.perf_counter() - t0
    ok = all(v < 1e-4 for v in results.values()) and elapsed < 60.0
    detail = ", ".join(f"{k} {v:.2e}" for k, v in results.items())
    _report(capsys, 5, ok, f"{detail} (tol 1e-4), {elapsed:.1f}s")
    assert ok, results


def _routing_fixture(kind: str, n: int, t: int, l: int, seed: int):
    if kind == "ring":
        lines = ring_edge_lines(n)
    elif kind == "path":
        lines = _path_lines(n)
    else:
        adj = random_connected_graph(np.random.default_rng(seed + 100), n, 0.3)
        lines = [f"nodes {n}"] + [
            f"{i} {j} {float(adj[i, j])!r}"
            for i in range(n)
            for j in range(i + 1, n)
            if adj[i, j] != 0.0
        ]
    spatial = load_spatial_graph(lines, symmetrize=True)
    unified = build_unified(spatial, t)
    spe = compute_spe(spatial, min(4, n - 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p1, p2 = build_partitions(unified, spe.selected, l, seed=seed)
    return p1, p2


def test_criterion_06_gradients_respect_subset_routing(capsys):
    """No gradient crosses subsets inside one module; blocks do mix them.

    For every target element the loss probes only that element's output row,
    so after backward the input gradient must be exactly zero at every
    element assigned to a different subset.  After a full two-module block
    the second scheme bridges the first, so some cross-subset gradient must
    be nonzero.  Checked exhaustively over all (target, source) pairs.
    """
    # Fixtures chosen so the shifted scheme genuinely straddles the primary
    # one; a pure label swap (common for l=2 on symmetric graphs) leaves no
    # cross-subset path for a block to use.
    dim = 6
    configs = [
        ("ring", 5, 3, 2, 0),
        ("ring", 8, 4, 3, 0),
        ("random", 6, 4, 3, 2),
    ]
    rng = np.random.default_rng(46)
    zero_pairs = 0
    bridged = []
    for kind, n, t, l, seed in configs:
        p1, p2 = _routing_fixture(kind, n, t, l, seed)
        if len(set(p1.assignment)) < 2:
            raise AssertionError(f"{kind}: fixture must have at least 2 subsets")
        block = init_block_params(rng, dim, 2, "b")
        x0 = rng.normal(size=(n * t, dim))  # rows in flat element order
        probes = rng.normal(size=(n * t, dim))

        for scheme, params in ((p1, block.module_one), (p2, block.module_two)):
            for e in range(n * t):
                weights = np.zeros((n * t, dim))
                weights[e] = probes[e]
                x = Param(x0.copy(), "x")
                out = apply_module(x, scheme, params)
                backward(tensor_sum(mul(out, constant(weights))))
                for s in range(n * t):
                    if scheme.subset_of(s) == scheme.subset_of(e):
                        continue
                    grad = x.grad[s]
                    assert np.all(grad == 0.0), (
                        f"{kind}/{scheme.label}: grad leaked {e} <- {s}"
                    )
                    zero_pairs += 1

        found_cross = False
        for e in range(n * t):
            weights = np.zeros((n * t, dim))
            weights[e] = probes[e]
            x = Param(x0.copy(), "x")
            out = apply_block(x, p1, p2, block)
            backward(tensor_sum(mul(out, constant(weights))))
            for s in range(n * t):
                if p1.subset_of(s) != p1.subset_of(e) and np.any(x.grad[s] != 0.0):
                    found_cross = True
        bridged.append(found_cross)

    ok = all(bridged)
    _report(
        capsys, 6, ok,
        f"{zero_pairs} cross-subset pairs exactly zero inside modules; "
        f"block bridges subsets on {sum(bridged)}/{len(configs)} fixtures",
    )
    assert ok


def _overfit_run():
    series = synthetic_series(8, 78, interval_min=60, seed=1, noise=0.0)
    ds = prepare_dataset(series, t_in=12, t_out=3, ratios=(1.0, 0.0, 0.0))
    config = ModelConfig(
        n_nodes=8, t_in=12, t_out=3, channels=1, dim=16, spe_modes=4,
        gamma=24, n_blocks=1, n_heads=2, n_subsets=2, seed=0,
        learning_rate=0.005, batch_size=8, epochs=500,
    )
    spatial = load_spatial_graph(ring_edge_lines(8), symmetrize=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = build_model(config, spatial)
    result = train(model, ds)
    mae = evaluate(model, ds.splits["train"], ds.stats).mae
    trace = "\n".join(row.to_csv() for row in result.trace)
    params = {p.name: p.data.copy() for p in model.params()}
    return mae, trace, params, float(series.values.std())


def test_criterion_07_small_model_overfits_reproducibly(capsys):
    """A small run drives train error well under the signal scale, twice."""
    t0 = time.perf_counter()
    mae_a, trace_a, params_a, sigma = _overfit_run()
    t1 = time.perf_counter()
    mae_b, trace_b, params_b, _ = _overfit_run()
    t2 = time.perf_counter()
    identical = trace_a == trace_b and all(
        np.array_equal(params_a[k], params_b[k]) for k in params_a
    )
    fits = mae_a < 0.05 * sigma
    in_time = (t1 - t0) < 300.0 and (t2 - t1) < 300.0
    ok = identical and fits and in_time
    _report(
        capsys, 7, ok,
        f"64 windows, 500 epochs: train mae {mae_a:.5f} = {mae_a / sigma:.4f} sigma "
        f"(need < 0.05), bit-identical reruns: {identical}, "
        f"{t1 - t0:.0f}s + {t2 - t1:.0f}s",
    )
    assert ok


def test_criterion_08_metrics_match_independent_recomputation(capsys):
    """Reported metrics equal a loop oracle; zeros excluded; MAE <= RMSE."""
    rng = np.random.default_rng(48)
    worst = 0.0
    for trial in range(25):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 6)),
                 int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        truth = rng.normal(loc=3.0, size=shape)
        zeros = rng.random(size=shape) < 0.15
        truth[zeros] = 0.0
        pred = truth + rng.normal(scale=0.7, size=shape)
        if not np.any(truth != 0.0):
            truth.flat[0] = 1.0
        rep = metrics_from_arrays(pred, truth)
        mae, mape, rmse = metrics_oracle(pred, truth)
        worst = max(worst, abs(rep.mae - mae), abs(rep.mape_percent - mape),
                    abs(rep.rmse - rmse))
        assert rep.excluded_zeros == int(np.count_nonzero(truth == 0.0))
        assert rep.evaluated_points == truth.size - rep.excluded_zeros
        assert rep.mae <= rep.rmse, f"trial {trial}: mae {rep.mae} > rmse {rep.rmse}"
    ok = worst <= 1e-9
    _report(capsys, 8, ok,
            f"25 reports: max oracle gap {worst:.2e} (tol 1e-9), "
            "zero exclusion and mae<=rmse hold")
    assert ok


def test_criterion_09_historical_average_is_exact_on_periodic_data(capsys):
    """HA reproduces week-periodic data exactly and a hand fixture to 1e-12."""
    week = synthetic_series(5, 168, interval_min=60, seed=9, noise=0.0).values
    tiled = np.tile(week, (3, 1, 1))
    targets = range(336, 504)
    preds = ha_baseline(tiled, 168, targets)
    rep = metrics_from_arrays(preds, tiled[336:504])
    periodic_exact = rep.mae == 0.0 and rep.rmse == 0.0

    # Twelve steps at a four-step week: target 8 averages steps 4 and 0,
    # target 9 averages 5 and 1, target 11 averages 7 and 3.
    values = (np.arange(12, dtype=np.float64) ** 2).reshape(12, 1, 1)
    got = ha_baseline(values, 4, [8, 9, 11])
    expected = np.array([(16.0 + 0.0) / 2, (25.0 + 1.0) / 2, (49.0 + 9.0) / 2])
    hand_gap = float(np.abs(got.ravel() - expected).max())

    ok = periodic_exact and hand_gap <= 1e-12
    _report(capsys, 9, ok,
            f"periodic mae {rep.mae!r}, hand fixture gap {hand_gap:.2e} (tol 1e-12)")
    assert ok


def test_criterion_10_spectral_modes_solve_the_laplacian(capsys):
    """Eigenpairs satisfy the normalized Laplacian to 1e-8 up to 64 nodes."""
    rng = np.random.default_rng(50)
    worst_res = 0.0
    worst_orth = 0.0
    for n in (3, 5, 8, 13, 21, 34, 48, 64):
        adj = random_connected_graph(rng, n, extra_edge_prob=0.15)
        spatial = _graph_from_adjacency(adj)
        spe = compute_spe(spatial, min(6, n - 1))
        inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1))
        lap = np.eye(n) - inv_sqrt[:, None] * adj * inv_sqrt[None, :]
        residual = lap @ spe.eigvecs - spe.eigvecs * spe.eigvals[None, :]
        worst_res = max(worst_res, float(np.abs(residual).max()))
        gram = spe.eigvecs.T @ spe.eigvecs - np.eye(n)
        worst_orth = max(worst_orth, float(np.abs(gram).max()))

    two = load_spatial_graph(["0 1 1.0"], symmetrize=True)
    pair = compute_spe(two, 1)
    eig_gap = float(np.abs(np.sort(pair.eigvals) - np.array([0.0, 2.0])).max())
    analytic = np.array([1.0, -1.0]) / np.sqrt(2.0)
    sel = pair.selected[:, 0]
    vec_gap = min(float(np.abs(sel - analytic).max()),
                  float(np.abs(sel + analytic).max()))

    ok = worst_res < 1e-8 and worst_orth < 1e-8 and eig_gap < 1e-12 and vec_gap < 1e-12
    _report(capsys, 10, ok,
            f"residual {worst_res:.2e}, orthonormality {worst_orth:.2e} (tol 1e-8); "
            f"two-node pair gap {max(eig_gap, vec_gap):.2e}")
    assert ok


@pytest.mark.optional
def test_criterion_11_desk_scale_training_stays_finite(capsys):
    """A 30-node two-week run trains without NaNs; baseline gap is reported.

    Only finiteness gates this check.  The historical-average comparison is
    informational: the series carries a slow ramp, which a windowed model
    tracks and a weekly average cannot.
    """
    rng = np.random.default_rng(11)
    n = 30
    adj = random_connected_graph(rng, n, extra_edge_prob=0.12)
    spatial = _graph_from_adjacency(adj)
    series = synthetic_series(n, 672, interval_min=30, seed=2, noise=1.0)
    series.values[:] = series.values + 0.03 * np.arange(672)[:, None, None]
    ds = prepare_dataset(series, t_in=6, t_out=3, ratios=None, days=(10, 2, 2))

    config = ModelConfig(
        n_nodes=n, t_in=6, t_out=3, channels=1, dim=16, spe_modes=8,
        gamma=48, n_blocks=1, n_heads=2, n_subsets=4, seed=0,
        learning_rate=0.005, batch_size=16, epochs=3,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = build_model(config, spatial)
    result = train(model, ds)

    finite = all(np.isfinite(p.data).all() for p in model.params())
    finite = finite and all(np.isfinite(row.train_loss) for row in result.trace)
    model_mae = evaluate(model, ds.splits["val"], ds.stats).mae

    steps_per_week = 7 * series.gamma
    samples = ds.splits["val"]
    truth = np.stack([s.target_raw for s in samples])
    ha_pred = np.stack([
        ha_baseline(series.values, steps_per_week,
                    range(s.start + 6, s.start + 9)).transpose(1, 0, 2)
        for s in samples
    ])
    ha_mae = metrics_from_arrays(ha_pred, truth).mae

    _report(capsys, 11, finite,
            f"30 nodes x 672 steps, 3 epochs: all values finite: {finite}; "
            f"val mae {model_mae:.3f} vs historical average {ha_mae:.3f}, "
            f"beats baseline: {model_mae < ha_mae}")
    assert finite
