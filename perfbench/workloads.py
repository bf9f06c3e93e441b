"""Workload inputs, closed-loop callers and output checks.

Every workload is a closed loop: one caller builds the model, then calls
train() or evaluate() on a fixed amount of work and waits for each call to
return before issuing the next. Every timed call starts from the same
parameters, so every call must return bit-identical results; that doubles
as a determinism check. See README.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from flowcast import attention, checkpoint, model as fmodel
from flowcast.data import Dataset, WindowSample, batch_arrays, prepare_dataset, ring_edge_lines, synthetic_series
from flowcast.errors import FlowcastError
from flowcast.model import ModelConfig, load_params, metrics_from_arrays
from flowcast.stgraph import SpatialGraph, load_spatial_graph

from tracer import Tracer

WARMUP_CALLS = 2
MIN_TIMED_CALLS = 3
GRID_ROWS, GRID_COLS = 14, 15
# Typical time of reference_work() on the 2-vCPU Xeon box the benchmark was
# tuned on; timings are reported at this reference speed.
REFERENCE_SECONDS = 0.045
REFERENCE_PASSES = 100
# reference_work()'s arrays, allocated once so that the task never touches
# the allocator that flowcast's calls use.
_REFERENCE_SRC = np.ones(2**18)
_REFERENCE_DST = np.empty(2**18)


def reference_work() -> None:
    """A fixed task that runs no flowcast code, timed after each measured call.

    On a shared machine the speed of the processor drifts by 10-30% over
    tens of seconds. The time of this task, taken before and after each
    call, tracks that drift, and the reported timings divide it out. About half
    of it is interpreter work, like per-op dispatch, and half is streaming
    one 2 MiB array into another. It allocates no array, so its time does
    not depend on the heap a call leaves behind.
    """
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(REFERENCE_PASSES):
        np.add(_REFERENCE_SRC, 1.0, out=_REFERENCE_DST)


@dataclass
class Inputs:
    spatial: SpatialGraph
    config: ModelConfig
    train: Dataset  # what train() runs on: a fixed window slice, no validation split
    eval_windows: list[WindowSample]  # what evaluate() and the output checks run on
    eval_batch: int


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train": timed train() calls; "eval": timed evaluate() calls
    make_inputs: Callable[[int], Inputs]
    setup_reps: int


def _tiny_inputs(seed: int) -> Inputs:
    # The acceptance suite's overfit fixture (8-node ring, 64 windows), with
    # seeded noise; each train() call runs four epochs of eight steps.
    series = synthetic_series(8, 78, interval_min=60, seed=seed, noise=1.0)
    ds = prepare_dataset(series, t_in=12, t_out=3, ratios=(1.0, 0.0, 0.0))
    config = ModelConfig(
        n_nodes=8, t_in=12, t_out=3, channels=1, dim=16, spe_modes=4, gamma=24,
        n_blocks=1, n_heads=2, n_subsets=2, seed=seed, learning_rate=0.005,
        batch_size=8, epochs=4,
    )
    windows = ds.splits["train"]
    return Inputs(
        spatial=load_spatial_graph(ring_edge_lines(8)),
        config=config,
        train=Dataset(series=series, stats=ds.stats, splits={"train": windows}),
        eval_windows=windows,
        eval_batch=8,
    )


def grid_edge_lines(rows: int, cols: int) -> list[str]:
    """Edge list of a rows x cols 4-neighbour grid, node id = row * cols + col."""
    lines = [f"nodes {rows * cols}"]
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                lines.append(f"{i} {i + 1} 1.0")
            if r + 1 < rows:
                lines.append(f"{i} {i + cols} 1.0")
    return lines


def _metr_inputs(seed: int, eval_split: str, eval_windows: int, eval_batch: int) -> Inputs:
    # METR-LA-sized: 210 sensors at 5-minute steps, one day of signal;
    # train() always runs on the first 8 train windows.
    n = GRID_ROWS * GRID_COLS
    series = synthetic_series(n, 288, interval_min=5, seed=seed, noise=2.0)
    ds = prepare_dataset(series, t_in=12, t_out=12)
    config = ModelConfig(
        n_nodes=n, t_in=12, t_out=12, channels=1, dim=16, spe_modes=16, gamma=288,
        n_blocks=1, n_heads=4, n_subsets=40, seed=seed, learning_rate=0.001,
        batch_size=4, epochs=1,
    )
    return Inputs(
        spatial=load_spatial_graph(grid_edge_lines(GRID_ROWS, GRID_COLS)),
        config=config,
        train=Dataset(series=series, stats=ds.stats, splits={"train": ds.splits["train"][:8]}),
        eval_windows=ds.splits[eval_split][:eval_windows],
        eval_batch=eval_batch,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tiny-train", "train", _tiny_inputs, setup_reps=31),
        Workload("metr-train", "train", lambda seed: _metr_inputs(seed, "train", 8, 4), setup_reps=5),
        Workload("metr-eval", "eval", lambda seed: _metr_inputs(seed, "test", 24, 8), setup_reps=15),
    )
}


class Ledger:
    """Counts attempted and failed steps, eval batches and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def ops(self, count: int, ok: bool, what: str) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            self.notes.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, bool(ok), what)


def _build(inputs: Inputs):
    # build_model writes the calibrated tau into its config, so each build
    # gets its own copy.
    return fmodel.build_model(dataclasses.replace(inputs.config), inputs.spatial)


def _is_exact_cover(scheme, n_elements: int) -> bool:
    if scheme.n_elements != n_elements or len(scheme.assignment) != n_elements:
        return False
    members = np.concatenate(scheme.subsets)
    if not np.array_equal(np.sort(members), np.arange(n_elements)):
        return False
    return all(
        np.array_equal(indices, np.flatnonzero(scheme.assignment == p))
        for p, indices in enumerate(scheme.subsets)
    )


def _check_partitions(model, ledger: Ledger) -> None:
    n = model.unified.n_elements
    for scheme in (model.p1, model.p2):
        ledger.check(_is_exact_cover(scheme, n), f"{scheme.label} is not an exact disjoint cover")


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


class Calibrator:
    """Times calls at the reference speed.

    Every call is bracketed by runs of reference_work(), and its time is
    scaled by REFERENCE_SECONDS over the mean of the two reference times.
    """

    def __init__(self) -> None:
        self._before, _ = _timed(reference_work)

    def time(self, fn):
        """(time at the reference speed, measured time, fn's result)."""
        seconds, out = _timed(fn)
        after, _ = _timed(reference_work)
        reference = (self._before + after) / 2
        self._before = after
        return seconds * REFERENCE_SECONDS / reference, seconds, out


def _timed_setup(make, reps: int, ledger: Ledger):
    times = []
    calibrator = Calibrator()
    for _ in range(reps):
        seconds, _, built = calibrator.time(make)
        times.append(seconds)
        built = built[0] if isinstance(built, tuple) else built
        _check_partitions(built, ledger)
    return built, times


def _train_call(model, initial: dict[str, np.ndarray], dataset: Dataset):
    """train() from fixed parameters; (per-epoch losses, final parameters)."""
    load_params(model, initial)
    result = fmodel.train(model, dataset)
    return tuple(row.train_loss for row in result.trace), result.best_params


def _eval_call(model, inputs: Inputs):
    """evaluate() over the eval windows; (metrics report fields, no arrays)."""
    report = fmodel.evaluate(model, inputs.eval_windows, inputs.train.stats, batch_size=inputs.eval_batch)
    return dataclasses.astuple(report), {}


def _finite(result) -> bool:
    numbers, arrays = result
    return all(math.isfinite(v) for v in numbers) and all(np.isfinite(a).all() for a in arrays.values())


def _same(a, b) -> bool:
    return a[0] == b[0] and a[1].keys() == b[1].keys() and all(
        np.array_equal(a[1][k], b[1][k]) for k in a[1]
    )


def graph_size(root) -> tuple[int, int]:
    """Distinct tensors reachable from root, and their .data bytes."""
    seen: set[int] = set()
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.data.nbytes
        stack.extend(node.parents)
    return len(seen), nbytes


def exact_counts(model, inputs: Inputs, kind: str) -> dict[str, float]:
    """Graph and partition counts of one step; exact for a seed."""
    if kind == "train":
        windows, size = inputs.train.splits["train"], inputs.config.batch_size
    else:
        windows, size = inputs.eval_windows, inputs.eval_batch
    values, day, step, target_norm, target_raw = batch_arrays(windows[:size])
    calls = 0
    original = attention.subset_attention

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    attention.subset_attention = counted
    try:
        root = fmodel.forward_arrays(model, values, day, step)
    finally:
        attention.subset_attention = original
    if kind == "train":
        root = fmodel.masked_mae_loss(root, target_norm, target_raw != 0.0)
    nodes, nbytes = graph_size(root)
    out = {
        "tensor.graph_nodes_per_step": nodes,
        "tensor.graph_mb_per_step": nbytes / 2**20,
        "attention.subset_calls_per_step": calls,
    }
    for scheme, tag in ((model.p1, "p1"), (model.p2, "p2")):
        sizes = [len(s) for s in scheme.subsets]
        out[f"partition.{tag}_fill_ratio"] = float(np.mean(sizes)) / max(sizes)
        out[f"partition.{tag}_tau"] = scheme.tau
    return out


def _prepare_in_child(send, inputs: Inputs, ckpt: Path, head: list[WindowSample], traced: bool) -> None:
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    prep = _build(inputs)
    result = _train_call(prep, {p.name: p.data.copy() for p in prep.params()}, inputs.train)
    presave = fmodel.predict_windows(prep, head, inputs.train.stats, inputs.eval_batch)
    checkpoint.save_checkpoint(prep, ckpt)
    send.send((result, presave, tracer.spans if tracer else []))
    send.close()


def prepare_checkpoint(inputs: Inputs, ckpt: Path, head: list[WindowSample], traced: bool):
    """Build a seeded model, train it once and checkpoint it, in a child process.

    Returns the train() result, the pre-save predictions on `head` and the
    child's spans. Training's memory peak stays in the child, so this
    process's ru_maxrss covers only load_checkpoint and evaluate().
    """
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_prepare_in_child, args=(send, inputs, ckpt, head, traced))
    child.start()
    send.close()
    try:
        return receive.recv()
    except EOFError:
        raise RuntimeError("preparing the metr-eval checkpoint failed in the child process") from None
    finally:
        receive.close()
        child.join()


def _timed_loop(call, seconds: float, ops_per_call: int, ledger: Ledger, tracer: Tracer | None):
    """Call until `seconds` have passed; every result must match the first."""
    times, raw_times, plain_times, results = [], [], [], []
    attempts = 0
    calibrator = Calibrator()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempts < MIN_TIMED_CALLS:
        attempts += 1
        try:
            if tracer:
                # Alternate untraced and traced calls: their results must agree
                # bit for bit, and their times give the tracing overhead.
                tracer.uninstall()
                plain_seconds, plain = _timed(call)
                plain_times.append(plain_seconds)
                tracer.install()
            elapsed, raw, result = calibrator.time(call)
        except FlowcastError as exc:
            ledger.ops(ops_per_call, False, f"call raised {exc}")
            continue
        ledger.ops(ops_per_call, _finite(result), "non-finite loss, parameter or metric")
        times.append(elapsed)
        raw_times.append(raw)
        results.append(result)
        ledger.check(_same(result, results[0]), "a repeated call gave a different result")
        if tracer:
            ledger.check(_same(plain, result), "traced and untraced calls differ")
    if not results:
        raise RuntimeError(f"every timed call failed: {ledger.notes[:3]}")
    return times, raw_times, plain_times, results


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    """Run one workload: set up, warm up, timed calls, output checks."""
    inputs = workload.make_inputs(seed)
    ledger = Ledger()
    stats = inputs.train.stats
    tracer = Tracer() if traced else None
    # Exact counts come from their own build, outside any span.
    counts = exact_counts(_build(inputs), inputs, workload.kind) if traced else None
    workdir.mkdir(parents=True, exist_ok=True)
    ckpt = workdir / f"{workload.name}-seed{seed}-pid{os.getpid()}.bin"
    head = inputs.eval_windows[: inputs.eval_batch]
    try:
        if workload.kind == "eval":
            # The checkpoint under test: a seeded model after one train() call.
            prep_result, presave, prep_spans = prepare_checkpoint(inputs, ckpt, head, traced)
            ledger.check(_finite(prep_result), "non-finite loss or parameter before the checkpoint")
            if tracer:
                tracer.absorb(prep_spans)
        if tracer:
            tracer.install()
        if workload.kind == "train":
            model, setup_times = _timed_setup(lambda: _build(inputs), workload.setup_reps, ledger)
            initial = {p.name: p.data.copy() for p in model.params()}
            call = lambda: _train_call(model, initial, inputs.train)
            n_windows = len(inputs.train.splits["train"])
            windows_per_call = n_windows * inputs.config.epochs
            ops_per_call = math.ceil(n_windows / inputs.config.batch_size) * inputs.config.epochs
        else:
            model, setup_times = _timed_setup(
                lambda: checkpoint.load_checkpoint(ckpt, inputs.spatial), workload.setup_reps, ledger
            )
            call = lambda: _eval_call(model, inputs)
            windows_per_call = len(inputs.eval_windows)
            ops_per_call = math.ceil(windows_per_call / inputs.eval_batch)

        for _ in range(WARMUP_CALLS):
            call()
        times, raw_times, plain_times, results = _timed_loop(call, seconds, ops_per_call, ledger, tracer)

        if workload.kind == "train":
            train_loss_final = results[0][0][-1]
            presave = fmodel.predict_windows(model, head, stats, inputs.eval_batch)
            checkpoint.save_checkpoint(model, ckpt)
            model, _ = checkpoint.load_checkpoint(ckpt, inputs.spatial)
            _check_partitions(model, ledger)
            mae = fmodel.evaluate(model, inputs.eval_windows, stats, batch_size=inputs.eval_batch).mae
        else:
            train_loss_final = prep_result[0][-1]
            mae = results[0][0][0]
        preds = fmodel.predict_windows(model, inputs.eval_windows, stats, inputs.eval_batch)
        ledger.check(
            np.array_equal(preds[: len(head)], presave),
            "checkpoint round trip changed the predictions",
        )
        truth = np.stack([s.target_raw for s in inputs.eval_windows], axis=0)
        ledger.check(
            mae == metrics_from_arrays(preds, truth).mae,
            "evaluate() disagrees with metrics_from_arrays on predict_windows",
        )
    finally:
        if tracer:
            tracer.uninstall()
        ckpt.unlink(missing_ok=True)

    out = {
        "ledger": ledger,
        "setup_s": statistics.median(setup_times),
        "windows_per_s": windows_per_call / statistics.median(times),
        "raw_windows_per_s": windows_per_call * len(raw_times) / sum(raw_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": len(times),
    }
    if tracer:
        tracer.check_coverage()
        again = exact_counts(model, inputs, workload.kind)
        ledger.check(again == counts, f"counts changed within one seed: {counts} then {again}")
        per_forward = tracer.per_call_counts("attention.subset_attention", "model.forward_arrays")
        ledger.check(
            set(per_forward) == {counts["attention.subset_calls_per_step"]},
            "traced subset calls per step differ from the exact count",
        )
        out["layers"] = {
            **tracer.layer_metrics(),
            **counts,
            "model.train_loss_final": train_loss_final,
            "trace.overhead_ratio": sum(plain_times) / sum(raw_times),
        }
        out["spans"] = tracer.dump()
    return out
