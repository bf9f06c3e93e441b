"""End-to-end tests of the command line pipeline."""

import contextlib
import io
import json
import re
from dataclasses import fields
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcast import cli
from flowcast import model as fmodel
from flowcast.cli import RunConfig, build_parser, main, read_config_file, render_effective_config
from flowcast.data import (
    build_windows,
    load_series,
    prepare_dataset,
    ring_edge_lines,
    synthetic_series,
)
from flowcast.checkpoint import load_checkpoint, save_checkpoint
from flowcast.errors import InputError
from flowcast.model import (
    ModelConfig,
    ModelSettings,
    build_model,
    evaluate,
    metrics_from_arrays,
    predict_windows,
)
from flowcast.embedding import compute_spe
from flowcast.stgraph import build_unified, load_spatial_graph

from writers import write_edge_list, write_signal_csv


@pytest.fixture
def workspace(tmp_path):
    return _write_workspace(tmp_path)


def _write_workspace(tmp_path):
    """A ring graph, an hourly signal, and a shared config file."""
    graph_path = tmp_path / "edges.txt"
    signal_path = tmp_path / "signal.csv"
    out_dir = tmp_path / "out"
    write_edge_list(ring_edge_lines(4), graph_path)
    series = synthetic_series(4, 60, interval_min=60, seed=3, noise=1.0)
    write_signal_csv(series, signal_path)
    config_path = tmp_path / "run.cfg"
    config_path.write_text(
        "\n".join(
            [
                f"graph={graph_path}",
                f"signal={signal_path}",
                "t_in=4",
                "t_out=2  # forecast steps",
                "dim=8",
                "spe_modes=2",
                "n_blocks=1",
                "n_heads=2",
                "n_subsets=2",
                "seed=3",
                "learning_rate=0.01",
                "batch_size=8",
                "epochs=2",
                "horizons=1,2",
                f"out_dir={out_dir}",
            ]
        )
        + "\n"
    )
    return tmp_path, config_path, out_dir


def test_build_graph_reports_counts(workspace, capsys):
    tmp, config, out = workspace
    export = tmp / "unified.txt"
    code = main(["build-graph", "--config", str(config), "--export-unified", str(export)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "nodes: 4" in stdout
    assert "spatial nonzero entries: 8" in stdout
    assert "unified elements: 16" in stdout
    # 2N(T-1) temporal entries plus T spatial copies: 2*4*3 + 4*8
    assert "unified nonzero entries: 56" in stdout
    assert len(export.read_text().splitlines()) == 56


def test_partition_outputs_are_deterministic(workspace, capsys):
    tmp, config, out = workspace
    a, b = tmp / "out_a", tmp / "out_b"
    for target in (a, b):
        code = main(["partition", "--config", str(config), "--out-dir", str(target)])
        assert code == 0
    assert "partitions written" in capsys.readouterr().out
    for name in ("partition_p1.txt", "partition_p2.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_writes_artifacts(workspace, capsys):
    tmp, config, out = workspace
    code = main(["train", "--config", str(config)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "epoch 1:" in stdout and "epoch 2:" in stdout
    assert "best val mae" in stdout

    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "epoch,train_loss,val_mae,val_mape,val_rmse"
    assert len(trace) == 3
    assert trace[1].startswith("1,") and trace[2].startswith("2,")
    assert (out / "checkpoint.bin").exists()
    assert (out / "best.bin").exists()
    assert (out / "partition_p1.txt").exists()
    assert (out / "partition_p2.txt").exists()

    # the effective config reparses and records the merged values
    merged = read_config_file(out / "effective_config.txt")
    assert merged["epochs"] == 2
    assert merged["t_in"] == 4


def test_flag_overrides_config_file(workspace):
    tmp, config, out = workspace
    code = main(["train", "--config", str(config), "--epochs", "1"])
    assert code == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert len(trace) == 2
    merged = read_config_file(out / "effective_config.txt")
    assert merged["epochs"] == 1


def test_train_zero_epochs(workspace):
    tmp, config, out = workspace
    code = main(["train", "--config", str(config), "--epochs", "0"])
    assert code == 0
    assert (out / "trace.csv").read_text().splitlines() == [
        "epoch,train_loss,val_mae,val_mape,val_rmse"
    ]
    assert (out / "checkpoint.bin").exists()


def test_train_resume_appends_trace(workspace, capsys):
    tmp, config, out = workspace
    assert main(["train", "--config", str(config)]) == 0
    checkpoint = out / "checkpoint.bin"
    code = main(
        ["train", "--config", str(config), "--resume", str(checkpoint), "--epochs", "4"]
    )
    assert code == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in trace] == ["epoch", "1", "2", "3", "4"]

    capsys.readouterr()
    code = main(
        ["train", "--config", str(config), "--resume", str(out / "checkpoint.bin")]
    )
    assert code == 0
    assert "nothing to train" in capsys.readouterr().out


def test_resume_continues_the_run_bit_for_bit(tmp_path):
    # at this learning rate the best validation epoch is 2, before the
    # resume point, so the state must keep that epoch's snapshot across the
    # resume; best.bin holds the snapshot with a fresh state
    write_edge_list(ring_edge_lines(6), tmp_path / "edges.txt")
    write_signal_csv(synthetic_series(6, 240, interval_min=60, seed=3, noise=1.0), tmp_path / "signal.csv")
    config = tmp_path / "run.cfg"
    config.write_text(
        f"graph={tmp_path / 'edges.txt'}\nsignal={tmp_path / 'signal.csv'}\n"
        "t_in=4\nt_out=2\ndim=8\nspe_modes=2\nn_blocks=2\nn_heads=2\nn_subsets=2\nseed=3\n"
        "learning_rate=0.2\nbatch_size=8\nepochs=4\n"
    )
    whole, split = tmp_path / "whole", tmp_path / "split"
    argv = ["train", "--config", str(config), "--out-dir"]
    assert main([*argv, str(whole)]) == 0
    assert main([*argv, str(split), "--epochs", "2"]) == 0
    assert main([*argv, str(split), "--resume", str(split / "checkpoint.bin")]) == 0
    for name in ("trace.csv", "checkpoint.bin", "best.bin"):
        assert (split / name).read_bytes() == (whole / name).read_bytes(), name
    spatial = load_spatial_graph(tmp_path / "edges.txt", symmetrize=True)
    _, state = load_checkpoint(whole / "checkpoint.bin", spatial)
    assert (state.epoch, state.best_epoch) == (4, 2)
    best, fresh = load_checkpoint(whole / "best.bin", spatial)
    assert {p.name: p.data.tolist() for p in best.params()} == {
        name: array.tolist() for name, array in state.best_params.items()
    }
    assert (fresh.epoch, fresh.step_count, fresh.best_epoch, fresh.best_val_mae) == (0, 0, 0, float("inf"))
    assert fresh.moments is None and fresh.best_params == {}


def test_resume_refuses_a_negative_epoch_counter(workspace, capsys):
    tmp, config, out = workspace
    assert main(["train", "--config", str(config), "--epochs", "1"]) == 0
    blob = (out / "checkpoint.bin").read_bytes()
    end = 12 + int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:end])
    header["state"]["epoch"] = -1
    raw = json.dumps(header).encode()
    bad = tmp / "bad.bin"
    bad.write_bytes(blob[:8] + len(raw).to_bytes(4, "little") + raw + blob[end:])
    capsys.readouterr()
    argv = ["train", "--config", str(config), "--resume", str(bad), "--out-dir", str(tmp / "refused")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error[input]: {bad}: state epoch must be at least 0, got -1"), err
    assert not (tmp / "refused").exists()


def test_failed_trace_append_leaves_the_previous_trace_intact(workspace, monkeypatch):
    # the resumed run's second new row raises after its first was written
    tmp, config, out = workspace
    assert main(["train", "--config", str(config)]) == 0
    before = (out / "trace.csv").read_text()
    to_csv = cli.TraceRow.to_csv

    def interrupted(row):
        if row.epoch == 4:
            raise RuntimeError("write interrupted")
        return to_csv(row)

    monkeypatch.setattr(cli.TraceRow, "to_csv", interrupted)
    argv = ["train", "--config", str(config), "--resume", str(out / "checkpoint.bin")]
    with pytest.raises(RuntimeError, match="write interrupted"):
        main(argv + ["--epochs", "4"])
    assert (out / "trace.csv").read_text() == before
    assert not list(out.glob("*.partial"))


def test_evaluate_prints_horizons(workspace, capsys):
    tmp, config, out = workspace
    assert main(["train", "--config", str(config)]) == 0
    capsys.readouterr()
    code = main(
        [
            "evaluate",
            "--config",
            str(config),
            "--checkpoint",
            str(out / "best.bin"),
            "--on",
            "test",
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "horizon 1 (60 min):" in stdout
    assert "horizon 2 (120 min):" in stdout
    assert "all steps:" in stdout


def test_evaluate_horizon_out_of_range(workspace, capsys):
    tmp, config, out = workspace
    assert main(["train", "--config", str(config)]) == 0
    code = main(
        [
            "evaluate",
            "--config",
            str(config),
            "--checkpoint",
            str(out / "best.bin"),
            "--horizons",
            "99",
        ]
    )
    assert code == 2
    assert "error[input]:" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_evaluate_nonpositive_horizon_is_input_error(workspace, capsys, horizon):
    tmp, config, out = workspace
    assert main(["train", "--config", str(config)]) == 0
    capsys.readouterr()
    argv = ["evaluate", "--config", str(config), "--checkpoint", str(out / "best.bin")]
    code = main([*argv, f"--horizons={horizon}"])
    assert code == 2
    assert "error[input]:" in capsys.readouterr().err


def test_evaluate_predicts_once_and_matches_model_evaluate(workspace, capsys, monkeypatch):
    tmp, config, out = workspace
    assert main(["train", "--config", str(config)]) == 0
    capsys.readouterr()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return predict_windows(*args, **kwargs)

    monkeypatch.setattr(cli, "predict_windows", counted)
    argv = ["evaluate", "--config", str(config), "--checkpoint", str(out / "best.bin")]
    assert main([*argv, "--horizons", "1,2"]) == 0
    assert len(calls) == 1

    # each horizon's report is metrics_from_arrays on its slice of one
    # predict_windows call, and the full report is the library's evaluate()
    model, samples, stats = calls[0][:3]
    preds = predict_windows(model, samples, stats)
    truth = np.stack([s.target_raw for s in samples], axis=0)
    want = [
        f"horizon {h} ({60 * h} min): "
        + metrics_from_arrays(preds[:, :, h - 1], truth[:, :, h - 1]).to_text()
        for h in (1, 2)
    ] + [f"all steps: {evaluate(model, samples, stats).to_text()}"]
    assert capsys.readouterr().out.splitlines() == want


def test_evaluate_empty_split_is_input_error(workspace, capsys):
    tmp, config, out = workspace
    assert main(["train", "--config", str(config)]) == 0
    code = main(
        [
            "evaluate",
            "--config",
            str(config),
            "--checkpoint",
            str(out / "best.bin"),
            "--on",
            "val",
            "--split",
            "8:0:2",
        ]
    )
    assert code == 2
    assert "error[input]: val split has no windows" in capsys.readouterr().err


def test_evaluate_reports_an_all_zero_horizon_and_goes_on(workspace, capsys):
    tmp, config, out = workspace
    assert main(["train", "--config", str(config)]) == 0
    # the fixture's series; zero every step that is a horizon-2 target of a
    # test window, so horizon 1 keeps one nonzero step and horizon 2 none
    series = synthetic_series(4, 60, interval_min=60, seed=3, noise=1.0)
    test_windows = prepare_dataset(series, 4, 2, ratios=(7.0, 1.0, 2.0)).splits["test"]
    series.values[test_windows[0].start + 4 + 1 :] = 0.0
    write_signal_csv(series, tmp / "signal.csv")
    argv = ["evaluate", "--config", str(config), "--checkpoint", str(out / "best.bin")]
    capsys.readouterr()
    assert main([*argv, "--on", "test"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "horizon 1 (60 min)", "horizon 2 (120 min)", "all steps"
    ]
    assert "points 4 " in lines[0] and "points 4 " in lines[2]
    assert lines[1] == "horizon 2 (120 min): no nonzero truth points"

    series.values[test_windows[0].start :] = 0.0
    write_signal_csv(series, tmp / "signal.csv")
    assert main([*argv, "--on", "test"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "horizon 1 (60 min): no nonzero truth points",
        "horizon 2 (120 min): no nonzero truth points",
        "all steps: no nonzero truth points",
    ]


def test_predict_writes_rows(workspace, capsys):
    tmp, config, out = workspace
    assert main(["train", "--config", str(config)]) == 0
    code = main(
        ["predict", "--config", str(config), "--checkpoint", str(out / "checkpoint.bin")]
    )
    assert code == 0
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[0] == "node,step,channel,value"
    assert len(lines) == 1 + 4 * 2 * 1
    values = [float(line.split(",")[3]) for line in lines[1:]]
    assert all(np.isfinite(values))

    code = main(
        [
            "predict",
            "--config",
            str(config),
            "--checkpoint",
            str(out / "checkpoint.bin"),
            "--window-start",
            "500",
        ]
    )
    assert code == 2


def test_export_attention_row_sums_to_one(workspace, capsys):
    tmp, config, out = workspace
    assert main(["train", "--config", str(config)]) == 0
    capsys.readouterr()
    code = main(
        [
            "export-attention",
            "--config",
            str(config),
            "--checkpoint",
            str(out / "checkpoint.bin"),
            "--node",
            "1",
            "--time",
            "2",
            "--module",
            "2",
        ]
    )
    assert code == 0
    assert "sum 1.000000000" in capsys.readouterr().out
    rows = (out / "attention.csv").read_text().splitlines()[1:]
    total = sum(float(r.split(",")[2]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)

    code = main(
        [
            "export-attention",
            "--config",
            str(config),
            "--checkpoint",
            str(out / "checkpoint.bin"),
            "--node",
            "1",
            "--time",
            "2",
            "--module",
            "3",
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, written",
    [
        (["predict"], "predictions.csv"),
        (["export-attention", "--node", "2", "--time", "1", "--block", "1"], "attention.csv"),
        (
            ["export-attention", "--node", "2", "--time", "1", "--block", "1", "--module", "2"],
            "attention.csv",
        ),
    ],
    ids=["predict", "export-attention", "export-attention-module-2"],
)
def test_inference_output_is_unchanged_by_no_grad(workspace, monkeypatch, argv, written):
    tmp, config, out = workspace
    assert main(["train", "--config", str(config), "--n-blocks", "2"]) == 0
    argv = [*argv, "--config", str(config), "--checkpoint", str(out / "checkpoint.bin")]
    assert main([*argv, "--out-dir", str(tmp / "bare")]) == 0
    # the same command with every op recorded, as before no_grad existed
    monkeypatch.setattr(cli, "no_grad", contextlib.nullcontext)
    monkeypatch.setattr(fmodel, "no_grad", contextlib.nullcontext)
    assert main([*argv, "--out-dir", str(tmp / "recorded")]) == 0
    bare = (tmp / "bare" / written).read_text()
    assert bare == (tmp / "recorded" / written).read_text()
    assert len(bare.splitlines()) > 2


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
def test_refused_train_leaves_no_files(workspace, capsys, resume):
    tmp, config, out = workspace
    argv = ["train", "--config", str(config), "--out-dir", str(tmp / "runs" / "a#1")]
    if resume:
        assert main(["train", "--config", str(config)]) == 0
        argv += ["--resume", str(out / "checkpoint.bin"), "--epochs", "3"]
    capsys.readouterr()
    assert main(argv) == 2
    assert "error[input]: out_dir" in capsys.readouterr().err
    assert not (tmp / "runs").exists()


def test_baseline_ha_is_exact_on_periodic_signal(tmp_path, capsys):
    # the noise-free fixture repeats exactly every 7*gamma steps
    signal = tmp_path / "periodic.csv"
    series = synthetic_series(3, 14 * 24, interval_min=60, noise=0.0)
    write_signal_csv(series, signal)
    code = main(
        [
            "baseline-ha",
            "--signal",
            str(signal),
            "--on",
            "test",
        ]
    )
    assert code == 0
    assert "mae 0.000000" in capsys.readouterr().out


def test_baseline_ha_on_an_all_zero_split_has_nothing_to_score(tmp_path, capsys):
    # ten days of an hourly signal whose last two, the test split under
    # 7:1:2 days, read zero, as in a sensor outage: that is not an error
    series = synthetic_series(4, 10 * 24, interval_min=60, seed=3, noise=1.0)
    series.values[8 * 24 :] = 0.0
    signal = tmp_path / "signal.csv"
    write_signal_csv(series, signal)
    argv = ["baseline-ha", "--signal", str(signal), "--split-days", "7:1:2"]
    assert main([*argv, "--on", "test"]) == 0
    assert capsys.readouterr().out == "historical average on test: no nonzero truth points\n"


def test_gradcheck_passes(workspace, capsys):
    tmp, config, out = workspace
    code = main(["gradcheck", "--seed", "1"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("[ok]") == 3


def test_missing_required_setting(tmp_path, capsys):
    code = main(["build-graph", "--t-in", "4"])
    assert code == 2
    assert "error[input]: graph is required" in capsys.readouterr().err


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery=1\n")
    assert main(["build-graph", "--config", str(bad)]) == 2
    assert "unknown config key" in capsys.readouterr().err

    bad.write_text("epochs=abc\n")
    assert main(["build-graph", "--config", str(bad)]) == 2
    assert "integer" in capsys.readouterr().err

    bad.write_text("no separator here\n")
    assert main(["build-graph", "--config", str(bad)]) == 2
    assert "key=value" in capsys.readouterr().err

    assert main(["build-graph", "--config", str(tmp_path / "absent.cfg")]) == 2
    assert "not found" in capsys.readouterr().err


def test_bad_split_flag(workspace, capsys):
    tmp, config, out = workspace
    code = main(["train", "--config", str(config), "--split", "7:1"])
    assert code == 2
    assert "three fields" in capsys.readouterr().err


def test_partition_on_directed_graph_writes_both_schemes(tmp_path, capsys):
    # edges 0 -> 1 -> 2 -> 3 only: node 0 has no in-edges, so a shifted base
    # must not walk off it, or no shifted base could reach node 0 and P2
    # would have no cover
    graph = tmp_path / "edges.txt"
    write_edge_list(["0 1", "1 2", "2 3"], graph)
    code = main([
        "partition", "--graph", str(graph), "--symmetrize", "false",
        "--t-in", "3", "--n-subsets", "2", "--spe-modes", "2",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = captured.out.splitlines()
    assert "warning: base 3 cannot reach any other base; left unshifted" in out
    assert out[-1].startswith("partitions written")
    for name in ("partition_p1.txt", "partition_p2.txt"):
        rows = [
            line for line in (tmp_path / "out" / name).read_text().splitlines()
            if not line.startswith("#")
        ]
        assert len(rows) == 12  # every element of 4 nodes x 3 steps


def test_partition_notes_are_printed_by_partition_and_not_by_train(tmp_path, capsys):
    # on the 5-node path with 3 subsets, one shifted base lands on another's
    # node and backs off: partition reports it, train runs silently
    lines = [f"{i} {i + 1}" for i in range(4)]
    write_edge_list(lines, tmp_path / "edges.txt")
    write_signal_csv(synthetic_series(5, 60, interval_min=60, seed=3, noise=1.0), tmp_path / "signal.csv")
    config = tmp_path / "run.cfg"
    config.write_text(
        f"graph={tmp_path / 'edges.txt'}\nsignal={tmp_path / 'signal.csv'}\n"
        "t_in=4\nt_out=2\ndim=8\nspe_modes=2\nn_blocks=1\nn_heads=2\nn_subsets=3\nseed=3\n"
        "batch_size=8\nepochs=1\n"
    )
    spatial = load_spatial_graph(lines, symmetrize=True)
    spe = compute_spe(spatial, 2).selected
    _, p2 = fmodel.build_partitions(build_unified(spatial, 4), spe, 3, seed=3)
    notes = p2.notes
    assert any("collided" in note for note in notes)

    assert main(["partition", "--config", str(config), "--out-dir", str(tmp_path / "p")]) == 0
    out = capsys.readouterr().out.splitlines()
    printed = [line for line in out if line.startswith("warning: ")]
    assert printed[: len(notes)] == [f"warning: {note}" for note in notes]

    assert main(["train", "--config", str(config), "--out-dir", str(tmp_path / "t")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "warning" not in captured.out


SHARED_FLAGS = {
    "-h", "--help", "--config", "--graph", "--signal", "--t-in", "--t-out",
    "--dim", "--spe-modes", "--n-blocks", "--n-heads", "--n-subsets", "--seed",
    "--learning-rate", "--batch-size", "--epochs", "--clip-norm", "--split",
    "--split-days", "--out-dir", "--horizons", "--symmetrize",
}


def test_each_command_has_one_flag_per_config_field():
    own = {
        "build-graph": {"--export-unified"},
        "partition": set(),
        "train": {"--resume"},
        "evaluate": {"--checkpoint", "--on"},
        "predict": {"--checkpoint", "--window-start"},
        "export-attention": {
            "--checkpoint", "--window-start", "--block", "--module", "--node", "--time"
        },
        "baseline-ha": {"--on"},
        "gradcheck": set(),
    }
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert set(commands) == set(own)
    for name, sub in commands.items():
        options = [o for action in sub._actions for o in action.option_strings]
        assert len(options) == len(set(options))
        assert set(options) == SHARED_FLAGS | own[name], name


def _every_field_changed() -> RunConfig:
    return RunConfig(
        graph="g.txt", signal=("a.csv", "b.csv"), t_in=6, t_out=3,
        dim=12, spe_modes=5, n_blocks=2, n_heads=3, n_subsets=7, seed=9,
        learning_rate=0.0025, batch_size=5, epochs=11, clip_norm=0.0,
        split=(6.0, 2.5, 1.5), split_days=(62, 9, 21), out_dir="runs/x",
        horizons=(1, 4), symmetrize=False,
    )


@pytest.mark.parametrize("cfg", [RunConfig(), _every_field_changed()], ids=["defaults", "changed"])
def test_effective_config_reads_back_equal(tmp_path, cfg):
    default = RunConfig()
    if cfg != default:
        assert all(getattr(cfg, key) != getattr(default, key) for key in vars(cfg))
    path = tmp_path / "effective_config.txt"
    path.write_text(render_effective_config(cfg))
    assert RunConfig(**read_config_file(path)) == cfg


@pytest.mark.parametrize(
    "change, key",
    [({"out_dir": "runs/a#1"}, "out_dir"), ({"signal": ("x,1.csv",)}, "signal")],
    ids=["hash-in-path", "comma-in-signal"],
)
def test_effective_config_refuses_a_value_that_reads_back_changed(change, key):
    # '#' starts a comment and ',' separates signal paths, so neither value
    # can be written as it is
    with pytest.raises(InputError, match=key):
        render_effective_config(RunConfig(**change))


def test_resume_records_the_checkpoint_config(workspace):
    tmp, config, out = workspace
    first = ["--dim", "4", "--learning-rate", "0.02", "--n-heads", "1", "--seed", "5"]
    assert main(["train", "--config", str(config), *first]) == 0
    code = main(
        ["train", "--config", str(config), "--resume", str(out / "checkpoint.bin"),
         "--epochs", "3"]
    )
    assert code == 0
    merged = read_config_file(out / "effective_config.txt")
    assert (merged["dim"], merged["learning_rate"], merged["n_heads"], merged["seed"]) == (
        4, 0.02, 1, 5
    )
    assert merged["epochs"] == 3


@pytest.mark.parametrize(
    "command, flag",
    [
        ("build-graph", "--graph"),
        ("baseline-ha", "--signal"),
        ("build-graph", "--config"),
        ("evaluate", "--checkpoint"),
    ],
)
def test_directory_in_place_of_a_file_exits_2(workspace, capsys, command, flag):
    tmp, config, out = workspace
    argv = [command, flag, str(tmp)]
    if flag == "--checkpoint":
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert "is not a regular file" in capsys.readouterr().err


def test_empty_graph_flag_means_unset(capsys):
    assert main(["build-graph", "--graph", ""]) == 2
    assert "error[input]: graph is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--dim", "abc", "dim must be an integer"),
        ("--learning-rate", "x", "learning_rate must be a number"),
        ("--clip-norm", "nan", "clip_norm must be finite"),
        ("--split", "7:inf:2", "split must be finite"),
        ("--symmetrize", "maybe", "symmetrize must be true or false"),
        ("--dim", "0", "dim must be at least 1, got 0"),
        ("--epochs", "-1", "epochs must be at least 0, got -1"),
        ("--learning-rate", "0", "learning_rate must be above 0.0, got 0.0"),
        ("--n-heads", "3", "dim 16 not divisible by 3 heads"),
    ],
)
def test_bad_flag_value_is_an_input_error(capsys, flag, value, message):
    assert main(["build-graph", flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"error[input]: {message}")


def test_run_config_declares_no_model_setting_itself():
    # it inherits them, with their defaults, help and ranges
    own = vars(RunConfig).get("__annotations__", {})
    assert not set(own) & {f.name for f in fields(ModelConfig)}


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--t-in", "400"],
        ["train", "--split", "0:1:1"],
        ["train", "--split-days", "0:1:1"],
        ["baseline-ha", "--on", "val", "--split", "8:0:2"],
    ],
    ids=["window-longer-than-train", "empty-train-ratio", "empty-train-days", "baseline-empty-val"],
)
def test_a_split_without_data_exits_2_and_writes_nothing(workspace, capsys, argv):
    tmp, config, out = workspace
    assert main([*argv, "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error[input]: ")
    assert not out.exists()


def test_a_signal_column_the_named_graph_lacks_exits_2_and_writes_nothing(workspace, capsys):
    # the signal's columns are 0..3, the graph's nodes a..d: nothing binds them
    tmp, config, out = workspace
    named = tmp / "named.txt"
    write_edge_list(["a b", "b c", "c d", "d a"], named)
    assert main(["train", "--config", str(config), "--graph", str(named)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error[input]: "), captured.err
    assert "column '0' is not a graph node" in captured.err
    assert "'nodes 4'" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_baseline_ha_on_a_split_without_a_prior_week_exits_2(workspace, capsys):
    # the 60-hour series is shorter than the 168-step week, so no step of a
    # split has a prior week to average
    tmp, config, out = workspace
    assert main(["baseline-ha", "--split-days", "1:0:1", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(
        "error[input]: target step 24 has no full prior week (period 168)"
    )


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """The workspace with a checkpoint trained for one epoch."""
    tmp, config, out = _write_workspace(tmp_path_factory.mktemp("trained"))
    assert main(["train", "--config", str(config), "--epochs", "1"]) == 0
    return tmp, config, out / "checkpoint.bin"


def _out_of_range(name: str):
    """Values of one model setting below its declared range."""
    meta = next(f.metadata for f in fields(ModelSettings) if f.name == name)
    least = meta["least"]
    if get_type_hints(ModelSettings)[name] is float:
        values = st.floats(-1e6, least, allow_nan=False)
        return values if meta["strict"] else values.filter(lambda v: v < least)
    return st.integers(least - 10**6, least - 1)


# the argv of each command that reads a checkpoint, which is at {checkpoint}
_CHECKPOINT_COMMANDS = {
    "evaluate": ["evaluate", "--checkpoint", "{checkpoint}", "--horizons", "1,2"],
    "predict": ["predict", "--checkpoint", "{checkpoint}"],
    "export-attention": [
        "export-attention", "--checkpoint", "{checkpoint}", "--node", "0", "--time", "0"
    ],
    "train-resume": ["train", "--resume", "{checkpoint}", "--epochs", "2"],
}
_INFERENCE_COMMANDS = ["evaluate", "predict", "export-attention"]
# the commands that read model settings: a fresh train and the inference ones
_MODEL_COMMANDS = {"train": ["train"]} | {
    name: _CHECKPOINT_COMMANDS[name] for name in _INFERENCE_COMMANDS
}


def _argv(template: list[str], checkpoint) -> list[str]:
    return [a.format(checkpoint=checkpoint) for a in template]
# each setting below its range, then the values the workspace's 4-node ring
# and width of 8 rule out
_BAD_VALUES = {f.name: _out_of_range(f.name) for f in fields(ModelSettings)} | {
    "spe_modes@nodes": st.integers(4, 1000),
    "n_subsets@nodes": st.integers(5, 1000),
    "n_heads@dim": st.integers(1, 64).filter(lambda h: 8 % h),
}


@pytest.mark.parametrize("setting", sorted(_BAD_VALUES))
@pytest.mark.parametrize("command", sorted(_MODEL_COMMANDS))
@settings(max_examples=4)
@given(data=st.data())
def test_out_of_range_setting_exits_2_before_any_output(trained, command, setting, data):
    tmp, config, checkpoint = trained
    name = setting.split("@")[0]
    value = data.draw(_BAD_VALUES[setting], label=name)
    argv = _argv(_MODEL_COMMANDS[command], checkpoint)
    argv += ["--config", str(config), "--out-dir", str(tmp / "refused")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, f"--{name.replace('_', '-')}={value}"])
    err = stderr.getvalue().splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith("error[input]: "), err
    assert (name if setting != "n_heads@dim" else "divisible") in err[0]
    assert not (tmp / "refused").exists()


@pytest.mark.parametrize("command", _CHECKPOINT_COMMANDS)
def test_checkpoint_command_checks_only_the_settings_it_is_given(trained, capsys, command):
    # the defaults spe_modes=16 and n_subsets=40 do not fit the 4-node ring,
    # but the checkpoint's own settings replace them
    tmp, config, checkpoint = trained
    files = ["--graph", str(tmp / "edges.txt"), "--signal", str(tmp / "signal.csv")]
    files += ["--out-dir", str(tmp / "defaults")]
    argv = _argv(_CHECKPOINT_COMMANDS[command], checkpoint)
    assert main([*argv, *files]) == 0, capsys.readouterr().err


def _series_that_does_not_fit(mismatch: str, signal, scratch) -> tuple[list[str], tuple[str, str]]:
    """Flags that give the hourly one-channel workspace, whose signal is at
    signal, a half-hourly or a two-channel signal, and the two numbers the
    refusal names."""
    if mismatch == "channels":
        return ["--signal", f"{signal},{signal}"], ("2 channels", "trained on 1")
    half_hourly = scratch / "half_hourly.csv"
    write_signal_csv(synthetic_series(4, 120, interval_min=30, seed=3, noise=1.0), half_hourly)
    return ["--signal", str(half_hourly)], ("48 steps per day", "24")


@pytest.mark.parametrize("mismatch", ["steps-per-day", "channels"])
@pytest.mark.parametrize("command", _CHECKPOINT_COMMANDS)
def test_checkpoint_command_refuses_a_series_that_does_not_fit(
    trained, tmp_path, capsys, command, mismatch
):
    # an hourly one-channel checkpoint against half-hourly or two-channel
    # data: calendar rows for the wrong time of day, or a signal map that
    # does not fit, refused before any output exists
    tmp, config, checkpoint = trained
    flags, named = _series_that_does_not_fit(mismatch, tmp / "signal.csv", tmp_path)
    refused = tmp_path / "refused"
    argv = _argv(_CHECKPOINT_COMMANDS[command], checkpoint)
    argv += ["--config", str(config), "--out-dir", str(refused), *flags]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[input]: the signal has "), err
    assert all(number in err[0] for number in named), err
    assert not refused.exists()


@pytest.mark.parametrize("given", ["flag", "config"])
def test_the_removed_interval_setting_exits_2_before_any_output(workspace, capsys, given):
    # the signal file's own timestamps set the interval, so no setting does
    tmp, config, out = workspace
    argv = ["train", "--config", str(config)]
    if given == "flag":
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--interval-min", "60"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --interval-min 60" in capsys.readouterr().err
    else:
        config.write_text(config.read_text() + "interval_min=60\n")
        assert main(argv) == 2
        assert "unknown config key 'interval_min'" in capsys.readouterr().err
    assert not out.exists()


_BAD_SIGNALS = {
    "one-row": (["2024-01-01T00:00:00"], r": 1 data rows; .* at least two"),
    "first-gap": (
        ["2024-01-01T00:00:00", "2024-01-01T00:07:00", "2024-01-01T00:14:00"],
        r": the first two timestamps are 0:07:00 apart",
    ),
    "later-gap": (
        ["2024-01-01T00:00:00", "2024-01-01T01:00:00", "2024-01-01T01:30:00"],
        r": timestamps must advance by the first gap, 60 minutes; data row 3 jumps",
    ),
}


@pytest.mark.parametrize("bad", sorted(_BAD_SIGNALS))
@pytest.mark.parametrize("command", ["train", "baseline-ha", *_INFERENCE_COMMANDS])
def test_a_signal_without_one_interval_exits_2_before_any_output(trained, tmp_path, capsys, command, bad):
    tmp, config, checkpoint = trained
    stamps, message = _BAD_SIGNALS[bad]
    signal = tmp_path / "bad.csv"
    signal.write_text("timestamp,0,1,2,3\n" + "".join(f"{t},1,2,3,4\n" for t in stamps))
    argv = _argv(_MODEL_COMMANDS.get(command, [command]), checkpoint)
    refused = tmp_path / "refused"
    argv += ["--config", str(config), "--signal", str(signal), "--out-dir", str(refused)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(r"error\[input\]: " + re.escape(str(signal)) + message, captured.err), captured.err
    assert not refused.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--block", "1", r"block must be in \[0, 1\)"),
        ("--block", "-1", r"block must be in \[0, 1\)"),
        ("--node", "4", r"node must be in \[0, 4\)"),
        ("--node", "-1", r"node must be in \[0, 4\)"),
        ("--time", "4", r"time must be in \[0, 4\)"),
        ("--time", "-1", r"time must be in \[0, 4\)"),
    ],
)
def test_export_attention_refuses_an_element_outside_the_model(trained, tmp_path, capsys, flag, value, message):
    tmp, config, checkpoint = trained
    argv = ["export-attention", "--config", str(config), "--checkpoint", str(checkpoint)]
    argv += ["--node", "1", "--time", "2", "--out-dir", str(tmp_path), f"{flag}={value}"]
    assert main(argv) == 2
    assert re.match(r"error\[input\]: " + message + "$", capsys.readouterr().err)
    assert not (tmp_path / "attention.csv").exists()


def _untrained_checkpoint(tmp, path):
    """A checkpoint without normalization statistics, as library code saves
    an untrained model, for the workspace at tmp."""
    spatial = load_spatial_graph(tmp / "edges.txt", symmetrize=True)
    config = ModelConfig(
        n_nodes=4, gamma=24, t_in=4, t_out=2, dim=8, spe_modes=2, n_blocks=1, n_heads=2,
        n_subsets=2, seed=3,
    )
    model = build_model(config, spatial)
    assert model.norm_stats is None
    save_checkpoint(model, path)
    return path


@pytest.mark.parametrize("command", _INFERENCE_COMMANDS)
def test_inference_refuses_a_checkpoint_without_statistics(trained, tmp_path, capsys, command):
    tmp, config, _ = trained
    checkpoint = _untrained_checkpoint(tmp, tmp_path / "untrained.bin")
    refused = tmp_path / "refused"
    argv = _argv(_CHECKPOINT_COMMANDS[command], checkpoint)
    assert main([*argv, "--config", str(config), "--out-dir", str(refused)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error[input]: "), err
    assert str(checkpoint) in err[0] and "normalization statistics" in err[0]
    assert not refused.exists()


def test_resume_refits_the_statistics_a_checkpoint_lacks(trained, tmp_path, capsys):
    tmp, config, _ = trained
    checkpoint = _untrained_checkpoint(tmp, tmp_path / "untrained.bin")
    argv = _argv(_CHECKPOINT_COMMANDS["train-resume"], checkpoint)
    assert main([*argv, "--config", str(config), "--out-dir", str(tmp_path / "resumed")]) == 0
    assert "epoch 2:" in capsys.readouterr().out
    spatial = load_spatial_graph(tmp / "edges.txt", symmetrize=True)
    resumed, _ = load_checkpoint(tmp_path / "resumed" / "checkpoint.bin", spatial)
    assert resumed.norm_stats is not None


def test_predict_writes_the_values_of_predict_windows(trained, tmp_path):
    # predict runs the forward evaluate runs: its rows are predict_windows'
    # values for the one window, bit for bit through repr
    tmp, config, checkpoint = trained
    argv = ["predict", "--config", str(config), "--checkpoint", str(checkpoint)]
    assert main([*argv, "--window-start", "3", "--out-dir", str(tmp_path)]) == 0
    spatial = load_spatial_graph(tmp / "edges.txt", symmetrize=True)
    model, _ = load_checkpoint(checkpoint, spatial)
    series = load_series([str(tmp / "signal.csv")], spatial)
    normalized = model.norm_stats.apply(series.values)
    window = build_windows(series, normalized, range(3, 7), 4, 0)[0]
    want = predict_windows(model, [window], model.norm_stats)[0]
    rows = (tmp_path / "predictions.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == [repr(float(v)) for v in want.ravel()]


@pytest.mark.parametrize("command", _CHECKPOINT_COMMANDS)
def test_checkpoint_command_reads_its_config_file_once(trained, tmp_path, monkeypatch, command):
    tmp, config, checkpoint = trained
    reads = []

    def counted(path):
        reads.append(path)
        return read_config_file(path)

    monkeypatch.setattr(cli, "read_config_file", counted)
    argv = _argv(_CHECKPOINT_COMMANDS[command], checkpoint)
    assert main([*argv, "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    assert reads == [str(config)]


class _WriteFails:
    """A file whose third write raises, as a full disk would."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def write(self, text: str) -> int:
        self._writes += 1
        if self._writes == 3:
            raise OSError("no space left on device")
        return self._fh.write(text)


@pytest.mark.parametrize(
    "argv, written",
    [
        (["predict", "--checkpoint", "{checkpoint}"], "out/predictions.csv"),
        (
            ["export-attention", "--checkpoint", "{checkpoint}", "--node", "1", "--time", "2"],
            "out/attention.csv",
        ),
        (["build-graph", "--export-unified", "{tmp}/unified.txt"], "unified.txt"),
    ],
    ids=["predict", "export-attention", "build-graph"],
)
def test_a_failed_output_write_leaves_the_previous_file_intact(workspace, monkeypatch, argv, written):
    tmp, config, out = workspace
    assert main(["train", "--config", str(config)]) == 0
    argv = [a.format(checkpoint=out / "checkpoint.bin", tmp=tmp) for a in argv]
    argv += ["--config", str(config)]
    assert main(argv) == 0
    before = (tmp / written).read_text()
    assert len(before.splitlines()) > 3

    atomic_write = cli.atomic_write

    @contextlib.contextmanager
    def failing(path, mode="w"):
        with atomic_write(path, mode) as fh:
            yield _WriteFails(fh)

    monkeypatch.setattr(cli, "atomic_write", failing)
    with pytest.raises(OSError, match="no space left"):
        main(argv)
    assert (tmp / written).read_text() == before
    assert not list(tmp.rglob("*.partial"))
