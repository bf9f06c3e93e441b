"""flowcast benchmark: one workload per invocation, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload tiny-train --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 is the separate traced run: it wraps flowcast's layer functions,
reports per-layer self times and exact counts, and writes its spans to
perfbench/out/. The last line of standard output is the result object;
the line before it records the environment.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import sys
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

# name -> unit, for every metric this benchmark prints
END_TO_END_UNITS = {
    "setup_s": "s",
    "windows_per_s": "1/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    **{
        name: "ms"
        for name in (
            "stgraph.build_unified_ms",
            "embedding.compute_spe_ms",
            "partition.make_base_set_ms",
            "partition.calibrate_tau_ms",
            "partition.build_p1_ms",
            "partition.shift_bases_ms",
            "partition.build_p2_ms",
            "checkpoint.load_checkpoint_ms",
            "checkpoint.save_checkpoint_ms",
            "attention.p1_module_ms",
            "attention.p2_module_ms",
            "attention.subset_attention_ms",
            "embedding.embed_ms",
            "model.forward_self_ms",
            "tensor.backward_ms",
            "optim.zero_gradients_ms",
            "optim.clip_global_norm_ms",
            "optim.adam_step_ms",
            "model.masked_mae_loss_ms",
            "data.batch_arrays_ms",
        )
    },
    "tensor.graph_nodes_per_step": "count",
    "tensor.graph_mb_per_step": "MiB",
    "attention.subset_calls_per_step": "count",
    "partition.p1_fill_ratio": "ratio",
    "partition.p2_fill_ratio": "ratio",
    "partition.p1_tau": "hops",
    "partition.p2_tau": "hops",
    "model.train_loss_final": "sigma",
    "trace.overhead_ratio": "ratio",
}


def _blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(np, args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(np),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("tiny-train", "metr-train", "metr-eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # The program under test is the source tree next to this directory,
    # never an installed copy.
    if not (SRC_DIR / "flowcast" / "__init__.py").is_file():
        print(f"error: flowcast sources not found under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np
    import flowcast

    if Path(flowcast.__file__).resolve().parent != SRC_DIR / "flowcast":
        print(f"error: imported flowcast from {flowcast.__file__}, not {SRC_DIR}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, run_workload

    warnings.simplefilter("ignore")
    env = environment(np, args)
    traced = bool(args.trace)
    measured = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, traced, OUT_DIR)
    ledger = measured["ledger"]
    if traced:
        values, units = measured["layers"], PER_LAYER_UNITS
    else:
        values, units = measured, END_TO_END_UNITS
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    if traced:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        dump = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps({"env": env, "result": result, "spans": measured["spans"]}))
    for note in ledger.notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps({"env": env, "timed_calls": measured["calls"], "raw_windows_per_s": measured["raw_windows_per_s"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
