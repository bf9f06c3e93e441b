"""Command line pipeline: graph prep, partitioning, training, evaluation.

Configuration comes from an optional flat key=value file plus flags, with
flags winning. Exit codes: 0 success, 2 input or parse error, 3 contract
violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Collection, get_args, get_origin, get_type_hints

import numpy as np

from .attention import apply_block
from .checkpoint import load_checkpoint, save_checkpoint
from .data import (
    Dataset,
    TrafficSeries,
    WindowSample,
    build_windows,
    load_series,
    prepare_dataset,
    ring_edge_lines,
    split_series,
)
from .embedding import compute_spe, embed
from .errors import ContractError, FlowcastError, InputError, NumericError, open_text
from .files import atomic_write
from .model import (
    ModelConfig,
    ModelSettings,
    TraceRow,
    build_model,
    build_partitions,
    forward_arrays,
    ha_baseline,
    load_params,
    masked_mae_loss,
    metrics_from_arrays,
    predict_windows,
    subset_weights,
    train,
)
from .optim import finite_diff_check
from .partition import partition_report, write_partition
from .stgraph import STCoord, build_unified, load_spatial_graph
from .tensor import Tensor, constant, mul, no_grad, scale, tensor_sum

GRADCHECK_TOLERANCE = 1e-4


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------


def _help(default, text: str):
    return field(default=default, metadata={"help": text})


@dataclass
class RunConfig(ModelSettings):
    """Everything a pipeline command can be told from file or flags: the
    model settings it inherits, then its own files and splits.

    Each field is a config-file key and the flag --key-with-dashes; its
    declared type decides how a raw value is parsed and written back.
    """

    graph: str | None = _help(None, "edge list path")
    signal: tuple[str, ...] = _help((), "comma-separated signal CSVs, one per channel")
    split: tuple[float, float, float] = _help((7.0, 1.0, 2.0), "train:val:test ratios, e.g. 7:1:2")
    split_days: tuple[int, int, int] | None = _help(None, "day counts, e.g. 62:9:21")
    out_dir: str = "out"
    horizons: tuple[int, ...] = _help((3, 6, 12), "comma-separated forecast steps, e.g. 3,6,12")
    symmetrize: bool = _help(True, "true/false, default true")


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise InputError(f"{key} must be true or false, got {raw!r}")


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"{key} must be an integer, got {raw!r}")


def _parse_float(raw: str, key: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise InputError(f"{key} must be a number, got {raw!r}")
    if not np.isfinite(value):
        raise InputError(f"{key} must be finite, got {raw!r}")
    return value


_SCALAR_PARSERS = {
    int: _parse_int, float: _parse_float, bool: _parse_bool, str: lambda raw, key: raw
}


def _parse_as(kind, raw: str, key: str):
    """Parse a stripped raw value by a RunConfig field's declared type."""
    args = get_args(kind)
    if type(None) in args:
        return None if raw == "" else _parse_as(args[0], raw, key)
    if get_origin(kind) is not tuple:
        return _SCALAR_PARSERS[kind](raw, key)
    if args[-1] is Ellipsis:
        return tuple(_parse_as(args[0], p.strip(), key) for p in raw.split(",") if p.strip())
    parts = raw.replace(",", ":").split(":")
    if len(parts) != 3:
        raise InputError(f"{key} needs three fields like 7:1:2, got {raw!r}")
    return tuple(_parse_as(cast, p.strip(), key) for cast, p in zip(args, parts))


def _render_as(kind, value) -> str:
    """The inverse of _parse_as: the text that parses back to value."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        sep = "," if get_args(kind)[-1] is Ellipsis else ":"
        return sep.join(str(v) for v in value)
    return str(value)


_FIELD_TYPES = get_type_hints(RunConfig)


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise InputError(f"unknown config key {key!r}")
    return _parse_as(_FIELD_TYPES[key], raw.strip(), key)


def read_config_file(path) -> dict[str, object]:
    """Parse a flat key=value file; '#' starts a comment anywhere."""
    with open_text(path, "config file") as fh:
        text = fh.read()
    out: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise InputError(f"{path}:{line_no}: unknown config key {key!r}")
        out[key] = _parse_value(key, value)
    return out


def render_effective_config(cfg: RunConfig) -> str:
    """The merged configuration as config-file text, to reproduce the run.

    Each line is read back by read_config_file's rules first; a value that
    would read back as something else (a '#' in it, or a ',' in a signal
    path) is an InputError.
    """
    lines = []
    for key, kind in _FIELD_TYPES.items():
        value = getattr(cfg, key)
        line = f"{key}={_render_as(kind, value)}"
        _, raw = line.splitlines()[0].split("#", 1)[0].split("=", 1)
        if _parse_value(key, raw) != value:
            raise InputError(f"{key} {value!r} would not read back from a config file")
        lines.append(line)
    return "\n".join(lines) + "\n"



def _given(args: argparse.Namespace) -> dict[str, object]:
    """The values set by config file or flag; a flag wins over the file."""
    given = read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in _FIELD_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            given[key] = _parse_value(key, flag)
    return given


def merge_config(given: dict[str, object]) -> RunConfig:
    """The values given by file or flag (see _given) over the defaults."""
    cfg = replace(RunConfig(), **given)
    cfg.check(InputError)
    return cfg


def _add_shared_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value config file")
    for f in fields(RunConfig):
        sub.add_argument("--" + f.name.replace("_", "-"), dest=f.name, help=f.metadata.get("help"))


def _shared(config) -> dict[str, object]:
    """The model settings of a RunConfig or ModelConfig, to copy into the other."""
    return {f.name: getattr(config, f.name) for f in fields(ModelSettings)}


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        value = getattr(cfg, name)
        if value is None or (isinstance(value, tuple) and not value):
            raise InputError(f"{name} is required for this command")


def _load_graph(cfg: RunConfig, checked: Collection[str] = ("spe_modes", "n_subsets")):
    """The sensor graph; of the model settings its node count rules out,
    those named in checked are refused."""
    _require(cfg, "graph")
    spatial = load_spatial_graph(cfg.graph, symmetrize=cfg.symmetrize)
    cfg.check_nodes(spatial.n_nodes, InputError, checked)
    return spatial


def _open_checkpoint(args: argparse.Namespace, path, resume: bool = False):
    """The graph and the checkpoint at path, with the run config that takes
    the checkpoint's model settings; returns (cfg, spatial, model, state).

    Since those settings replace the rest, only node-bound ones given by
    file or flag are checked against the graph. A resume keeps the given
    epochs and refits the statistics; any other use needs the checkpoint's.
    """
    given = _given(args)
    cfg = merge_config(given)
    spatial = _load_graph(cfg, given)
    model, state = load_checkpoint(path, spatial)
    settings = _shared(model.config)
    if resume:
        settings["epochs"] = model.config.epochs = cfg.epochs
    elif model.norm_stats is None:
        raise InputError(f"checkpoint {path} has no normalization statistics; train it first")
    return replace(cfg, **settings), spatial, model, state


def _load_series(cfg: RunConfig, spatial, model=None) -> TrafficSeries:
    """The signal. Given a checkpoint's model, one whose steps per day or
    channel count differ from the model's is refused: its calendar rows
    would tag the wrong time of day, or its signal map would not fit."""
    _require(cfg, "signal")
    series = load_series(list(cfg.signal), spatial)
    if model is None:
        return series
    trained = model.config
    if series.gamma != trained.gamma:
        raise InputError(
            f"the signal has {series.gamma} steps per day ({series.interval_min}-minute "
            f"interval) but the checkpoint was trained on {trained.gamma}"
        )
    if series.n_channels != trained.channels:
        raise InputError(
            f"the signal has {series.n_channels} channels but the checkpoint was "
            f"trained on {trained.channels}"
        )
    return series


def _load_dataset(cfg: RunConfig, spatial, model=None) -> Dataset:
    """The split dataset; a split the data cannot fill is an InputError."""
    series = _load_series(cfg, spatial, model)
    try:
        return prepare_dataset(series, cfg.t_in, cfg.t_out, ratios=cfg.split, days=cfg.split_days)
    except ContractError as exc:
        raise InputError(str(exc)) from None


def _windows(dataset: Dataset, split: str) -> list[WindowSample]:
    samples = dataset.splits[split]
    if not samples:
        raise InputError(f"{split} split has no windows")
    return samples


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_build_graph(args: argparse.Namespace) -> int:
    cfg = merge_config(_given(args))
    spatial = _load_graph(cfg, checked=())
    unified = build_unified(spatial, cfg.t_in)
    nnz = int(np.count_nonzero(spatial.adjacency))
    print(f"nodes: {spatial.n_nodes}")
    print(f"spatial nonzero entries: {nnz}")
    print(f"window length: {cfg.t_in}")
    print(f"unified elements: {unified.n_elements}")
    print(f"unified nonzero entries: {unified.edge_entry_count}")
    if args.export_unified:
        with atomic_write(args.export_unified) as fh:
            for u, v, w in unified.iter_edges():
                fh.write(f"{u} {v} {w!r}\n")
        print(f"unified edge list written to {args.export_unified}")
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    cfg = merge_config(_given(args))
    spatial = _load_graph(cfg)
    unified = build_unified(spatial, cfg.t_in)
    spe = compute_spe(spatial, cfg.spe_modes)
    p1, p2 = build_partitions(unified, spe.selected, cfg.n_subsets, cfg.seed)
    out = _out_dir(cfg)
    write_partition(p1, out / "partition_p1.txt")
    write_partition(p2, out / "partition_p2.txt")
    report = partition_report(p1, p2)
    print(report.to_text())
    print(f"partitions written to {out}")
    return 0


def _write_trace(path: Path, rows: list[TraceRow], append: bool) -> None:
    with atomic_write(path, "a" if append else "w") as fh:
        if not append:
            fh.write(TraceRow.csv_header() + "\n")
        for row in rows:
            fh.write(row.to_csv() + "\n")


def cmd_train(args: argparse.Namespace) -> int:
    model, state = None, None
    if args.resume:
        cfg, spatial, model, state = _open_checkpoint(args, args.resume, resume=True)
        if state.epoch >= cfg.epochs:
            print(f"checkpoint already at epoch {state.epoch}; nothing to train")
            return 0
    else:
        cfg = merge_config(_given(args))
        spatial = _load_graph(cfg)
    # checked before out_dir is created, so a refused run leaves nothing behind
    effective_config = render_effective_config(cfg)
    dataset = _load_dataset(cfg, spatial, model)
    _windows(dataset, "train")
    if model is None:
        series = dataset.series
        geometry = dict(n_nodes=spatial.n_nodes, channels=series.n_channels, gamma=series.gamma)
        model = build_model(ModelConfig(**geometry, **_shared(cfg)), spatial)
    out = _out_dir(cfg)
    if not args.resume:
        write_partition(model.p1, out / "partition_p1.txt")
        write_partition(model.p2, out / "partition_p2.txt")
    with atomic_write(out / "effective_config.txt") as fh:
        fh.write(effective_config)

    trace_path = out / "trace.csv"
    append = args.resume is not None and trace_path.exists()

    def log(row: TraceRow) -> None:
        print(f"epoch {row.epoch}: train_loss {row.train_loss:.6f} val_mae {row.val_mae:.6f}")

    state = train(model, dataset, state, log=log)
    _write_trace(trace_path, state.trace, append)

    save_checkpoint(model, out / "checkpoint.bin", state)
    load_params(model, state.best_params)
    save_checkpoint(model, out / "best.bin")
    print(f"best val mae {state.best_val_mae:.6f} at epoch {state.best_epoch}")
    print(f"checkpoints written to {out}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg, spatial, model, _ = _open_checkpoint(args, args.checkpoint)
    dataset = _load_dataset(cfg, spatial, model)
    samples = _windows(dataset, args.on)
    t_out = model.config.t_out
    for horizon in cfg.horizons:
        if not 1 <= horizon <= t_out:
            raise InputError(f"horizon {horizon} outside the model's forecast steps [1, {t_out}]")

    preds = predict_windows(model, samples, model.norm_stats)
    truth = np.stack([s.target_raw for s in samples], axis=0)
    for horizon in cfg.horizons:
        minutes = horizon * dataset.series.interval_min
        report = metrics_from_arrays(preds[:, :, horizon - 1], truth[:, :, horizon - 1])
        print(f"horizon {horizon} ({minutes} min): {report.to_text()}")
    print(f"all steps: {metrics_from_arrays(preds, truth).to_text()}")
    return 0


def _open_window(args: argparse.Namespace):
    """The checkpoint and the input window that predict and export-attention
    read: t_in signal steps from --window-start, by default the last ones.
    Returns (cfg, model, series, window)."""
    cfg, spatial, model, _ = _open_checkpoint(args, args.checkpoint)
    series = _load_series(cfg, spatial, model)
    t_in = model.config.t_in
    last_valid = series.n_steps - t_in
    start = last_valid if args.window_start is None else args.window_start
    if not 0 <= start <= last_valid:
        raise InputError(f"window start {start} outside [0, {last_valid}]")
    normalized = model.norm_stats.apply(series.values)
    window = build_windows(series, normalized, range(start, start + t_in), t_in, 0)[0]
    return cfg, model, series, window


def cmd_predict(args: argparse.Namespace) -> int:
    cfg, model, series, window = _open_window(args)
    values = predict_windows(model, [window], model.norm_stats)[0]  # (N, t_out, C)
    out = _out_dir(cfg)
    path = out / "predictions.csv"
    with atomic_write(path) as fh:
        fh.write("node,step,channel,value\n")
        for n in range(series.n_nodes):
            for t in range(model.config.t_out):
                for c in range(series.n_channels):
                    fh.write(f"{series.labels[n]},{t + 1},{c},{float(values[n, t, c])!r}\n")
    print(f"predictions for window starting at step {window.start} written to {path}")
    return 0


def cmd_export_attention(args: argparse.Namespace) -> int:
    cfg, model, _, window = _open_window(args)
    if not 0 <= args.block < model.config.n_blocks:
        raise InputError(f"block must be in [0, {model.config.n_blocks})")
    if args.module not in (1, 2):
        raise InputError("module must be 1 (primary) or 2 (shifted)")
    if not 0 <= args.node < model.config.n_nodes:
        raise InputError(f"node must be in [0, {model.config.n_nodes})")
    if not 0 <= args.time < model.config.t_in:
        raise InputError(f"time must be in [0, {model.config.t_in})")

    scheme = model.p1 if args.module == 1 else model.p2
    flat = model.unified.coord_to_flat(STCoord(node=args.node, time=args.time))
    subset_id = scheme.subset_of(flat)
    members = scheme.subsets[subset_id]
    position = int(np.flatnonzero(members == flat)[0])
    with no_grad():
        weights = subset_weights(
            model, window.values_norm, window.day, window.step, args.block, args.module, subset_id
        )
    row = weights[:, position, :].mean(axis=0)

    out = _out_dir(cfg)
    path = out / "attention.csv"
    with atomic_write(path) as fh:
        fh.write("node,time,alpha\n")
        for member, alpha in zip(members, row):
            coord = model.unified.flat_to_coord(int(member))
            fh.write(f"{coord.node},{coord.time},{float(alpha)!r}\n")
    print(
        f"attention row for element (node {args.node}, time {args.time}) in "
        f"subset {subset_id}: {len(members)} weights, sum {row.sum():.9f}"
    )
    print(f"written to {path}")
    return 0


def cmd_baseline_ha(args: argparse.Namespace) -> int:
    cfg = merge_config(_given(args))
    series = _load_series(cfg, None)
    segments = split_series(series, ratios=cfg.split, days=cfg.split_days)
    segment = segments[args.on]
    if len(segment) == 0:
        raise InputError(f"{args.on} split has no steps")
    steps_per_week = 7 * series.gamma
    if segment[0] < steps_per_week:
        raise InputError(f"target step {segment[0]} has no full prior week (period {steps_per_week})")
    targets = list(segment)
    preds = ha_baseline(series.values, steps_per_week, targets)
    truth = series.values[targets]
    report = metrics_from_arrays(preds, truth)
    print(f"historical average on {args.on}: {report.to_text()}")
    return 0


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------


def gradcheck_suite(seed: int = 0) -> dict[str, float]:
    """Three finite-difference checks on a small ring fixture.

    Returns the max relative error for the embedding alone, one block,
    and the full model loss.
    """
    spatial = load_spatial_graph(ring_edge_lines(4), symmetrize=True)
    config = ModelConfig(
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
        seed=seed,
        epochs=0,
    )
    model = build_model(config, spatial)
    rng = np.random.default_rng(seed + 1)
    values = rng.normal(size=(4, 4, 1))
    day = np.array([0, 0, 0, 0])
    step = np.array([5, 6, 7, 8])
    target = rng.normal(size=(4, 2, 1)) + 2.0

    results: dict[str, float] = {}

    # A plain sum is degenerate here: normalized rows sum to a constant,
    # so probe through a fixed random linear functional instead. The small
    # scale keeps the loss, and with it the float noise of a central
    # difference, low enough that a coordinate whose true gradient is
    # tiny does not fail on noise alone.
    probe = constant(rng.normal(size=(16, 8)) * 1e-4)

    def embed_loss() -> Tensor:
        out = embed(values, day, step, model.spe, model.embedding)
        return tensor_sum(mul(out, probe))

    results["embedding"] = finite_diff_check(
        embed_loss, model.embedding.params(), samples=200, seed=seed
    )

    x0 = rng.normal(size=(16, 8))  # rows in flat element order
    block = model.blocks[0]

    def block_loss() -> Tensor:
        out = apply_block(constant(x0), model.p1, model.p2, block)
        return tensor_sum(mul(out, probe))

    results["block"] = finite_diff_check(block_loss, block.params(), samples=200, seed=seed)

    def model_loss() -> Tensor:
        pred = forward_arrays(model, values, day, step)
        return scale(masked_mae_loss(pred, target), 1e-4)

    results["model"] = finite_diff_check(model_loss, model.params(), samples=200, seed=seed)
    return results


def cmd_gradcheck(args: argparse.Namespace) -> int:
    cfg = merge_config(_given(args))
    results = gradcheck_suite(cfg.seed)
    failed = []
    for name, err in results.items():
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{name}: max relative error {err:.3e} [{status}]")
        if err >= GRADCHECK_TOLERANCE:
            failed.append(name)
    if failed:
        raise NumericError(
            f"gradient check failed for {', '.join(failed)} at tolerance {GRADCHECK_TOLERANCE}"
        )
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcast", description="space-time graph attention traffic forecasting"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("build-graph", help="load a graph and report unified sizes")
    _add_shared_flags(p)
    p.add_argument("--export-unified", help="write the unified edge list here")
    p.set_defaults(func=cmd_build_graph)

    p = commands.add_parser("partition", help="build and export both partitions")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_partition)

    p = commands.add_parser("train", help="train a model")
    _add_shared_flags(p)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("evaluate", help="metrics per horizon on a split")
    _add_shared_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--on", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_evaluate)

    p = commands.add_parser("predict", help="forecast from the latest window")
    _add_shared_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--window-start", dest="window_start", type=int,
                   help="raw step index of the input window start")
    p.set_defaults(func=cmd_predict)

    p = commands.add_parser("export-attention", help="dump one attention row")
    _add_shared_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--window-start", dest="window_start", type=int)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--module", type=int, default=1, help="1 primary, 2 shifted")
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--time", type=int, required=True)
    p.set_defaults(func=cmd_export_attention)

    p = commands.add_parser("baseline-ha", help="historical average metrics")
    _add_shared_flags(p)
    p.add_argument("--on", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_baseline_ha)

    p = commands.add_parser("gradcheck", help="finite-difference gradient checks")
    _add_shared_flags(p)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FlowcastError as exc:
        tag = {2: "input", 3: "contract", 4: "numeric"}.get(exc.exit_code, "error")
        print(f"error[{tag}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
