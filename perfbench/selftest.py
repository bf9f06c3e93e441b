"""Self-test of the benchmark: every workload at minimal length.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that each workload, untraced and traced, exits 0 and prints as
its last line a passing result that names every metric of BENCHMARK.json
with the unit given there; that two traced runs of the same seed, each in its
own process, report the same exact counts; that the tracer refuses a missing
binding and a layer that was never called; and that the benchmark refuses to
run without the flowcast sources next to it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("tiny-train", "metr-train", "metr-eval")
# Per-layer metrics that are exact for a seed, whatever the machine's speed.
EXACT_METRICS = (
    "tensor.graph_nodes_per_step",
    "tensor.graph_mb_per_step",
    "attention.subset_calls_per_step",
    "partition.p1_fill_ratio",
    "partition.p2_fill_ratio",
    "partition.p1_tau",
    "partition.p2_tau",
    "model.train_loss_final",
)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(spec: dict, workload: str, trace: int) -> dict:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, (workload, trace, proc.stderr)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == expected, f"{workload} trace {trace}: printed {printed}, expected {expected}"
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"]), (name, entry)
    print(f"ok   {workload:10s} trace {trace}: {len(printed)} metrics, {result['attempted']} ops")
    return result["metrics"]


def check_counts_repeat(spec: dict, workload: str, first: dict) -> None:
    # A second process with the same seed; Python's string hashing differs
    # between the two, so an order that depends on it shows up here.
    second = check_result(spec, workload, 1)
    for name in EXACT_METRICS:
        assert first[name]["value"] == second[name]["value"], (
            f"{workload}: {name} differs between two runs of one seed: "
            f"{first[name]['value']} then {second[name]['value']}"
        )
    print(f"ok   {workload:10s} exact counts agree between two processes")


def check_tracer_is_loud() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import tracer

    saved = tracer.BINDINGS
    tracer.BINDINGS = saved + (("model", "no_such_function", "model.no_such_function"),)
    try:
        tracer.Tracer()
    except tracer.TraceError:
        pass
    else:
        raise AssertionError("a missing binding was not refused")
    finally:
        tracer.BINDINGS = saved
    try:
        tracer.Tracer().check_coverage()
    except tracer.TraceError:
        pass
    else:
        raise AssertionError("layers that were never called were not reported")
    print("ok   tracer refuses missing bindings and uncalled layers")


def check_refuses_without_sources() -> None:
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run_bench(bare, WORKLOADS[0], 0)
    assert proc.returncode != 0, "ran without the flowcast sources"
    assert not proc.stdout.strip(), f"printed a result without sources: {proc.stdout!r}"
    print("ok   refuses to run without the flowcast sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    check_tracer_is_loud()
    check_refuses_without_sources()
    for workload in WORKLOADS:
        check_result(spec, workload, 0)
        check_counts_repeat(spec, workload, check_result(spec, workload, 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
