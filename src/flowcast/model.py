"""The forecaster: embedding, attention blocks, output adapter, training.

Predictions come from a stack of partition-attention blocks on the
embedded window, followed by a per-node temporal remap from T input steps
to the forecast horizon and a channel projection. Training is mini-batch
Adam on the masked absolute error in normalized units; points whose true
value is stored as zero are treated as missing everywhere.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Collection, Iterable

import numpy as np

from .attention import (
    BlockParams,
    apply_block,
    apply_module,
    init_block_params,
)
from .data import Dataset, NormStats, WindowSample, batch_arrays
from .embedding import DAYS_PER_WEEK, compute_spe, embed, init_embedding_params
from .errors import ContractError, FlowcastError, NumericError
from .optim import (
    adam_step,
    clip_global_norm,
    flatten_params,
    glorot_uniform,
    zero_gradients,
    zeros_param,
)
from .partition import (
    PartitionScheme,
    build_p1,
    build_p2,
    calibrate_tau,
    make_base_set,
    min_distances,
    shift_bases,
)
from .stgraph import SpatialGraph, UnifiedGraph, build_unified
from .tensor import (
    AdapterParams,
    EmbeddingParams,
    Param,
    ParamGroup,
    Tensor,
    attention_weights,
    backward,
    masked_mae,
    no_grad,
    output_adapter,
)


def _setting(default, help: str, least, strict: bool = False):
    """A setting's default, its help text and its least allowed value;
    strict means the value must lie above it."""
    return field(default=default, metadata={"help": help, "least": least, "strict": strict})


@dataclass(kw_only=True)
class ModelSettings:
    """The model settings a run may choose, each declared once with its
    default, help text and range. ModelConfig adds the dataset geometry;
    the command line's RunConfig adds its files and splits."""

    t_in: int = _setting(12, "input window length", 1)
    t_out: int = _setting(12, "forecast horizon length", 1)
    dim: int = _setting(16, "model width; a multiple of n_heads", 1)
    spe_modes: int = _setting(16, "spectral position modes; fewer than the nodes", 1)
    n_blocks: int = _setting(4, "attention blocks", 1)
    n_heads: int = _setting(4, "attention heads", 1)
    n_subsets: int = _setting(40, "subsets per partition; at most the nodes", 1)
    seed: int = _setting(0, "seed of the bases, the initial weights and the shuffle", 0)
    learning_rate: float = _setting(0.001, "Adam step size", 0.0, strict=True)
    batch_size: int = _setting(8, "training windows per step", 1)
    epochs: int = _setting(100, "epochs to train in all", 0)
    clip_norm: float = _setting(5.0, "global gradient norm cap; 0 disables clipping", 0.0)

    def check(self, error: type[FlowcastError] = ContractError) -> None:
        """Raise error for a field outside its range, or for a width that
        the heads do not divide."""
        for f in fields(self):
            if "least" not in f.metadata:
                continue
            value, least = getattr(self, f.name), f.metadata["least"]
            if value < least or (f.metadata["strict"] and value == least):
                bound = "above" if f.metadata["strict"] else "at least"
                raise error(f"{f.name} must be {bound} {least}, got {value}")
        if self.dim % self.n_heads != 0:
            raise error(f"dim {self.dim} not divisible by {self.n_heads} heads")

    def check_nodes(
        self,
        n_nodes: int,
        error: type[FlowcastError] = ContractError,
        names: Collection[str] = ("spe_modes", "n_subsets"),
    ) -> None:
        """Raise error for a setting among names that a graph of n_nodes rules out."""
        if "spe_modes" in names and self.spe_modes >= n_nodes:
            raise error(f"spe_modes must be below the {n_nodes} nodes, got {self.spe_modes}")
        if "n_subsets" in names and self.n_subsets > n_nodes:
            raise error(f"n_subsets {self.n_subsets} cannot exceed {n_nodes} nodes")


@dataclass(kw_only=True)
class ModelConfig(ModelSettings):
    """Hyperparameters and dataset geometry for one model."""

    n_nodes: int = _setting(MISSING, "sensors in the graph", 1)
    channels: int = _setting(1, "signal channels", 1)
    gamma: int = _setting(288, "steps per day", 1)

    def validate(self) -> None:
        self.check()
        self.check_nodes(self.n_nodes)


@dataclass
class ForecastModel(ParamGroup):
    """params() walks the fields: the embedding's, each block's, then the
    adapter's parameters; the other fields hold none. spe holds the
    (N, spe_modes) spectral coordinates that the embedding reads."""

    config: ModelConfig
    spatial: SpatialGraph
    unified: UnifiedGraph
    spe: np.ndarray
    embedding: EmbeddingParams
    blocks: list[BlockParams]
    adapter: AdapterParams
    p1: PartitionScheme
    p2: PartitionScheme
    norm_stats: NormStats | None = None

    def param_dict(self) -> dict[str, Param]:
        table: dict[str, Param] = {}
        for p in self.params():
            if p.name in table:
                raise ContractError(f"duplicate parameter name {p.name}")
            table[p.name] = p
        return table


def build_partitions(
    unified: UnifiedGraph, spe_coords: np.ndarray, n_subsets: int, seed: int
) -> tuple[PartitionScheme, PartitionScheme]:
    """P1 around base nodes chosen on the SPE coordinates, with tau
    calibrated for them, and P2 around the same bases shifted, carrying
    shift_bases' notes. The bases' distance stack and its column minima
    are taken once for both calibration and P1."""
    flats = make_base_set(unified, spe_coords, n_subsets, seed)
    stack = unified.distance_rows(flats)
    best = min_distances(stack)
    tau = calibrate_tau(unified, best)
    p1 = build_p1(unified, flats, stack, best, tau)
    shifted, notes = shift_bases(unified, flats, tau)
    return p1, build_p2(unified, shifted, tau, notes)


def build_model(
    config: ModelConfig,
    spatial: SpatialGraph,
    schemes: tuple[PartitionScheme, PartitionScheme] | None = None,
    spe: np.ndarray | None = None,
) -> ForecastModel:
    """Build partitions and spectral coordinates (unless given) and
    initialize all parameters.

    spe, when given, is the (n_nodes, spe_modes) coordinates that
    compute_spe selected for the model, as a checkpoint stores them.
    Initialization order is fixed: embedding, blocks in order, adapter,
    all drawn from one generator seeded by config.seed.
    """
    config.validate()
    if spatial.n_nodes != config.n_nodes:
        raise ContractError(
            f"config says {config.n_nodes} nodes but the graph has {spatial.n_nodes}"
        )
    unified = build_unified(spatial, config.t_in)
    if spe is None:
        spe = compute_spe(spatial, config.spe_modes).selected
    elif spe.shape != (config.n_nodes, config.spe_modes):
        raise ContractError(
            f"spectral coordinates have shape {spe.shape}, expected "
            f"{(config.n_nodes, config.spe_modes)}"
        )

    if schemes is None:
        p1, p2 = build_partitions(unified, spe, config.n_subsets, config.seed)
    else:
        p1, p2 = schemes
        for scheme in (p1, p2):
            if scheme.n_elements != unified.n_elements:
                raise ContractError(
                    f"{scheme.label} covers {scheme.n_elements} elements, expected "
                    f"{unified.n_elements}"
                )

    rng = np.random.default_rng(config.seed)
    embedding = init_embedding_params(
        rng, config.channels, config.dim, config.spe_modes, DAYS_PER_WEEK + config.gamma
    )
    blocks = [
        init_block_params(rng, config.dim, config.n_heads, f"block{b}")
        for b in range(config.n_blocks)
    ]
    adapter = AdapterParams(
        w_time=glorot_uniform(rng, (config.t_out, config.t_in), "adapter.w_time"),
        b_time=zeros_param((config.dim,), "adapter.b_time"),
        w_out=glorot_uniform(rng, (config.dim, config.channels), "adapter.w_out"),
        b_out=zeros_param((config.channels,), "adapter.b_out"),
    )
    return ForecastModel(
        config=config,
        spatial=spatial,
        unified=unified,
        spe=spe,
        embedding=embedding,
        blocks=blocks,
        adapter=adapter,
        p1=p1,
        p2=p2,
    )


def forward_arrays(
    model: ForecastModel, values: np.ndarray, day: np.ndarray, step: np.ndarray
) -> Tensor:
    """Forward over (N, T, C) or batched (B, N, T, C) arrays.

    Between the embedding and the adapter the activations are rows
    (..., T·N, D) in flat element order, time · N + node. The adapter, one
    tape node, views them as (..., T, N·D), remaps T to t_out for every
    node in one product, projects D to C, and returns (..., N, t_out, C).
    """
    x = embed(values, day, step, model.spe, model.embedding)
    for block in model.blocks:
        x = apply_block(x, model.p1, model.p2, block)
    return output_adapter(x, model.adapter)


def subset_weights(
    model: ForecastModel, values: np.ndarray, day: np.ndarray, step: np.ndarray,
    block: int, module: int, subset_id: int,
) -> np.ndarray:
    """Attention weights of one subset in one module, (..., H, m, m).

    module is 1 (primary partition) or 2 (shifted). The forward runs only
    up to that module's input: the embedding, the blocks before block, and
    the block's primary module when module is 2. The subset's rows, in
    ascending flat order, then go through tensor.attention_weights, which
    builds the Q and K maps as the module's ranged_self_attention does,
    with the same range loop, so they are the weights that module attends
    with, and row and column i stand for the subset's i-th element.
    subset_id must lie in [0, l).
    """
    if not 0 <= block < len(model.blocks) or module not in (1, 2):
        raise ContractError(f"no module {module} in block {block}")
    scheme = model.p1 if module == 1 else model.p2
    if not 0 <= subset_id < scheme.n_subsets:
        raise ContractError(f"no subset {subset_id} among the {scheme.n_subsets} of module {module}")
    x = embed(values, day, step, model.spe, model.embedding)
    for params in model.blocks[:block]:
        x = apply_block(x, model.p1, model.p2, params)
    params = model.blocks[block].module_one
    if module == 2:
        x = apply_module(x, model.p1, params)
        params = model.blocks[block].module_two
    return attention_weights(x.data[..., scheme.subsets[subset_id], :], params.attention)


def masked_mae_loss(
    pred: Tensor, truth: np.ndarray, mask: np.ndarray | None = None
) -> Tensor:
    """Mean absolute error over unmasked points, as a scalar tensor.

    By default points where truth == 0 are masked out; an explicit mask
    (True = keep) overrides that, which lets callers train on normalized
    targets while masking on raw zeros. All-masked input gives loss 0. The
    loss is one tape node, tensor.masked_mae.
    """
    truth = np.asarray(truth, dtype=np.float64)
    mask = truth != 0.0 if mask is None else np.asarray(mask)
    return masked_mae(pred, truth, mask)


@dataclass
class MetricsReport:
    mae: float
    mape_percent: float
    rmse: float
    evaluated_points: int
    excluded_zeros: int

    def to_text(self) -> str:
        if self.evaluated_points == 0:
            return "no nonzero truth points"
        return (
            f"mae {self.mae:.6f}  mape {self.mape_percent:.4f}%  rmse {self.rmse:.6f}  "
            f"points {self.evaluated_points} (excluded zeros {self.excluded_zeros})"
        )


def metrics_from_arrays(pred: np.ndarray, truth: np.ndarray) -> MetricsReport:
    """MAE, MAPE (percent), RMSE with zero-truth points excluded from all.

    Inputs are in raw units and must have identical shape. Truth with no
    nonzero point, as in a sensor outage, has nothing to score: the report
    then counts no points and its metrics are NaN.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ContractError(f"pred shape {pred.shape} != truth shape {truth.shape}")
    mask = truth != 0.0
    kept = int(mask.sum())
    if kept == 0:
        nan = float("nan")
        return MetricsReport(nan, nan, nan, evaluated_points=0, excluded_zeros=truth.size)
    diff = pred[mask] - truth[mask]
    mae = float(np.abs(diff).mean())
    mape = float(np.abs(diff / truth[mask]).mean() * 100.0)
    rmse = float(np.sqrt((diff * diff).mean()))
    return MetricsReport(
        mae=mae,
        mape_percent=mape,
        rmse=rmse,
        evaluated_points=kept,
        excluded_zeros=int(truth.size - kept),
    )


# Rows, windows times unified elements, that one forward of predict_windows
# runs at most: 7,560 is 3 windows of a 210-node, 12-step graph. On the
# metr-eval benchmark (24 such windows at batch_size 8; 2-vCPU VM, one BLAS
# thread, medians of 4 runs of 10 s), 1, 2, 3 and 4 windows per forward
# peaked at 48.6, 51.2, 53.8 and 56.3 MiB RSS, against 67.7 MiB for 8, at
# 126, 133, 137 and 138 windows/s, against 137.
_FORWARD_ROWS = 7_560


def predict_windows(
    model: ForecastModel,
    samples: list[WindowSample],
    stats: NormStats,
    batch_size: int = 32,
) -> np.ndarray:
    """De-normalized predictions for a window list; (W, N, t_out, C).

    The forward runs under no_grad, so no graph is kept, over at most
    max(1, _FORWARD_ROWS // n_elements) windows at a time, and batch_size
    is an upper bound on that. The working set is that of a few windows
    however large batch_size is: evaluate over 35 windows of a 210-node
    grid at batch_size 32 peaks at 8.5 MiB under tracemalloc, against
    78.1 MiB for 32-window forwards. Each chunk's predictions are written
    into one (W, N, t_out, C) array allocated before the first chunk, so
    the output is held once. Every window's output is computed on its own,
    so the predictions are the same bits at any chunk size, with one
    exception: the shifted softmax (tensor._needs_shift) is chosen
    once per forward, for all of its windows, so a window whose scores
    pass the unshifted limit shifts the windows it shares a forward with,
    which moves their outputs by rounding.
    """
    if not samples:
        raise ContractError("cannot predict an empty window list")
    if batch_size < 1:
        raise ContractError(f"batch_size must be at least 1, got {batch_size}")
    size = min(batch_size, max(1, _FORWARD_ROWS // model.unified.n_elements))
    config = model.config
    preds = np.empty((len(samples), config.n_nodes, config.t_out, config.channels))
    for lo in range(0, len(samples), size):
        values, day, step, _, _ = batch_arrays(samples[lo : lo + size])
        with no_grad():
            pred = forward_arrays(model, values, day, step).data
        preds[lo : lo + len(pred)] = stats.invert(pred)
    return preds


def evaluate(
    model: ForecastModel,
    samples: list[WindowSample],
    stats: NormStats,
    batch_size: int = 32,
) -> MetricsReport:
    """metrics_from_arrays over a split's windows, all t_out steps.

    The predictions come from predict_windows: batch_size, at least 1, is
    an upper bound on the windows per forward, and _FORWARD_ROWS, 7,560
    rows, bounds it further, which took the working set over 35 windows of
    a 210-node grid from 78.1 to 8.5 MiB at the same MAE. A shifted softmax
    is chosen per forward, as predict_windows says. Per-horizon metrics are
    metrics_from_arrays on slices of predict_windows' output.
    """
    if not samples:
        raise ContractError("cannot evaluate an empty split")
    preds = predict_windows(model, samples, stats, batch_size)
    truth = np.stack([s.target_raw for s in samples], axis=0)
    return metrics_from_arrays(preds, truth)


def ha_baseline(
    values: np.ndarray, steps_per_week: int, targets: Iterable[int]
) -> np.ndarray:
    """Historical average: mean over all prior weeks at the same weekly slot.

    values is the raw series (steps, nodes, channels); each target index
    must have at least one full week of history.
    """
    values = np.asarray(values, dtype=np.float64)
    targets = list(targets)
    out = np.empty((len(targets),) + values.shape[1:], dtype=np.float64)
    for row, s in enumerate(targets):
        if not 0 <= s < values.shape[0]:
            raise ContractError(f"target step {s} outside the series")
        priors = list(range(s - steps_per_week, -1, -steps_per_week))
        if not priors:
            raise ContractError(
                f"target step {s} has no full prior week (period {steps_per_week})"
            )
        out[row] = values[priors].mean(axis=0)
    return out


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TraceRow:
    epoch: int
    train_loss: float
    val_mae: float
    val_mape: float
    val_rmse: float

    def to_csv(self) -> str:
        return ",".join(repr(getattr(self, f.name)) for f in fields(self))

    @staticmethod
    def csv_header() -> str:
        return ",".join(f.name for f in fields(TraceRow))


@dataclass
class TrainState:
    """Everything a run carries from one epoch to the next.

    epoch is the last completed epoch. moments stacks Adam's first and
    second moments over the flat parameter buffer in params() order,
    shaped (2, P), and is None before the first step. best_params is the
    snapshot of the best validation epoch, empty before the first epoch.
    A checkpoint saves every field but trace, the rows of the epochs that
    the last train() call ran.
    """

    epoch: int = 0
    step_count: int = 0
    moments: np.ndarray | None = None
    best_val_mae: float = float("inf")
    best_epoch: int = 0
    best_params: dict[str, np.ndarray] = field(default_factory=dict)
    trace: list[TraceRow] = field(default_factory=list)


def train(
    model: ForecastModel,
    dataset: Dataset,
    state: TrainState | None = None,
    log=None,
) -> TrainState:
    """Mini-batch Adam on masked MAE with per-epoch validation.

    Runs epochs state.epoch + 1 through config.epochs, updating state in
    place (a fresh one when None) and returning it. Deterministic for a
    fixed seed: epoch e shuffles with a generator seeded by (seed, e), so
    the window order never depends on where a run started, and a run
    continued from a saved state matches one that never stopped, bit for
    bit. The best validation MAE snapshot is retained. An epoch whose
    validation report scores no point, because the split is empty or its
    truth is all zero, records NaN validation columns and takes its
    parameters as the snapshot, so the final parameters are the snapshot
    and best_val_mae is NaN.
    """
    config = model.config
    train_windows = dataset.splits["train"]
    val_windows = dataset.splits.get("val", [])
    if not train_windows:
        raise ContractError("train split has no windows")
    model.norm_stats = dataset.stats

    params = model.params()
    data, grad = flatten_params(params)
    state = TrainState() if state is None else state
    state.trace = []
    if state.moments is None:
        state.moments = np.zeros((2, data.size))
    if not state.best_params:
        state.best_params = {p.name: p.data.copy() for p in params}

    for epoch in range(state.epoch + 1, config.epochs + 1):
        rng = np.random.default_rng((config.seed, epoch))
        order = rng.permutation(len(train_windows))
        total_loss = 0.0
        for lo in range(0, len(order), config.batch_size):
            chosen = order[lo : lo + config.batch_size]
            batch = [train_windows[int(i)] for i in chosen]
            values, day, step, target_norm, target_raw = batch_arrays(batch)
            pred = forward_arrays(model, values, day, step)
            loss = masked_mae_loss(pred, target_norm, target_raw != 0.0)
            loss_value = loss.item()
            if not np.isfinite(loss_value):
                raise NumericError(
                    f"non-finite loss {loss_value} at epoch {epoch}, "
                    f"batch starting at {lo} (step {state.step_count + 1})"
                )
            zero_gradients(grad)
            backward(loss)
            if config.clip_norm > 0.0:
                clip_global_norm(grad, config.clip_norm)
            adam_step(state.moments, state.step_count + 1, data, grad, config.learning_rate)
            state.step_count += 1
            total_loss += loss_value * len(batch)

        train_loss = total_loss / len(train_windows)
        if val_windows:
            report = evaluate(model, val_windows, dataset.stats)
        else:
            report = metrics_from_arrays(np.empty(0), np.empty(0))
        row = TraceRow(epoch, train_loss, report.mae, report.mape_percent, report.rmse)
        if report.evaluated_points == 0 or report.mae < state.best_val_mae:
            state.best_val_mae = report.mae
            state.best_params = {p.name: p.data.copy() for p in params}
            state.best_epoch = epoch
        state.epoch = epoch
        state.trace.append(row)
        if log is not None:
            log(row)

    return state


def check_params(model: ForecastModel, table: dict[str, np.ndarray], prefix: str = "") -> dict[str, Param]:
    """The model's parameters by prefix + name, once table names every one
    of them, each once with its shape; ContractError otherwise."""
    own = {prefix + name: p for name, p in model.param_dict().items()}
    for name, array in table.items():
        if name not in own:
            raise ContractError(f"unknown parameter {name}")
        if own[name].data.shape != array.shape:
            raise ContractError(
                f"parameter {name} has shape {own[name].data.shape}, got {array.shape}"
            )
    missing = [name for name in own if name not in table]
    if missing:
        raise ContractError("missing parameters: " + ", ".join(missing))
    return own


def load_params(model: ForecastModel, table: dict[str, np.ndarray]) -> None:
    """Copy arrays into the model's parameters by name; nothing is copied
    unless check_params accepts the table."""
    own = check_params(model, table)
    for name, array in table.items():
        own[name].data[...] = array
