"""In-memory span tracer over flowcast's layer boundaries.

The tracer replaces module attributes with timing wrappers. Each entry of
BINDINGS names the module binding through which build_model, train,
forward_arrays, apply_block, apply_module, evaluate, load_checkpoint or the
benchmark itself calls a layer, so a traced run executes the program's own
code paths. Spans stay in memory as [name, start, end, parent] rows; a
layer's self time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from flowcast import attention, checkpoint, model

MODULES = {"model": model, "attention": attention, "checkpoint": checkpoint}


def _module_span(args, kwargs) -> str:
    scheme = args[1] if len(args) > 1 else kwargs["scheme"]
    return f"attention.{scheme.label.lower()}_module"


# (module, attribute, span name or a function of the call's arguments)
BINDINGS: tuple[tuple[str, str, str | Callable], ...] = (
    ("model", "build_model", "model.build_model"),
    ("checkpoint", "build_model", "model.build_model"),
    ("model", "build_unified", "stgraph.build_unified"),
    ("model", "compute_spe", "embedding.compute_spe"),
    ("model", "make_base_set", "partition.make_base_set"),
    ("model", "calibrate_tau", "partition.calibrate_tau"),
    ("model", "build_p1", "partition.build_p1"),
    ("model", "shift_bases", "partition.shift_bases"),
    ("model", "build_p2", "partition.build_p2"),
    ("model", "train", "model.train"),
    ("model", "batch_arrays", "data.batch_arrays"),
    ("model", "forward_arrays", "model.forward_arrays"),
    ("model", "embed", "embedding.embed"),
    ("attention", "apply_module", _module_span),
    ("attention", "subset_attention", "attention.subset_attention"),
    ("model", "masked_mae_loss", "model.masked_mae_loss"),
    ("model", "zero_gradients", "optim.zero_gradients"),
    ("model", "backward", "tensor.backward"),
    ("model", "clip_global_norm", "optim.clip_global_norm"),
    ("model", "adam_step", "optim.adam_step"),
    ("model", "evaluate", "model.evaluate"),
    ("model", "predict_windows", "model.predict_windows"),
    ("checkpoint", "save_checkpoint", "checkpoint.save_checkpoint"),
    ("checkpoint", "load_checkpoint", "checkpoint.load_checkpoint"),
)

# Span names a traced workload must record at least once; apply_module
# spans are named after the partition scheme they run on.
EXPECTED_SPANS = sorted(
    {name for _, _, name in BINDINGS if isinstance(name, str)}
    | {"attention.p1_module", "attention.p2_module"}
)

# per-layer metric -> span whose median self time per call it reports
SELF_TIME_METRICS = {
    "stgraph.build_unified_ms": "stgraph.build_unified",
    "embedding.compute_spe_ms": "embedding.compute_spe",
    "partition.make_base_set_ms": "partition.make_base_set",
    "partition.calibrate_tau_ms": "partition.calibrate_tau",
    "partition.build_p1_ms": "partition.build_p1",
    "partition.shift_bases_ms": "partition.shift_bases",
    "partition.build_p2_ms": "partition.build_p2",
    "checkpoint.load_checkpoint_ms": "checkpoint.load_checkpoint",
    "checkpoint.save_checkpoint_ms": "checkpoint.save_checkpoint",
    "attention.p1_module_ms": "attention.p1_module",
    "attention.p2_module_ms": "attention.p2_module",
    "embedding.embed_ms": "embedding.embed",
    "model.forward_self_ms": "model.forward_arrays",
    "tensor.backward_ms": "tensor.backward",
    "optim.zero_gradients_ms": "optim.zero_gradients",
    "optim.clip_global_norm_ms": "optim.clip_global_norm",
    "optim.adam_step_ms": "optim.adam_step",
    "model.masked_mae_loss_ms": "model.masked_mae_loss",
    "data.batch_arrays_ms": "data.batch_arrays",
}


class TraceError(RuntimeError):
    """A binding is missing or a layer was never reached."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self._originals: dict[tuple[str, str], Callable] = {}
        for module_name, attr, _ in BINDINGS:
            if not hasattr(MODULES[module_name], attr):
                raise TraceError(f"flowcast.{module_name} has no attribute {attr!r} to trace")

    def _wrap(self, fn: Callable, name) -> Callable:
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            row = [label, clock(), 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                open_spans.pop()

        return traced

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            module = MODULES[module_name]
            original = getattr(module, attr)
            self._originals[(module_name, attr)] = original
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for (module_name, attr), original in self._originals.items():
            setattr(MODULES[module_name], attr, original)
        self._originals.clear()

    def absorb(self, spans: list[list]) -> None:
        """Append the closed spans another process recorded."""
        offset = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])

    def check_coverage(self) -> None:
        seen = {row[0] for row in self.spans}
        missing = [name for name in EXPECTED_SPANS if name not in seen]
        if missing:
            raise TraceError("traced layers never called: " + ", ".join(missing))

    def self_times(self) -> list[float]:
        child_total = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_total[parent] += end - start
        return [end - start - child_total[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def per_call_counts(self, name: str, within: str) -> list[int]:
        """Number of `name` spans under each `within` span."""
        counts = {i: 0 for i, row in enumerate(self.spans) if row[0] == within}
        for row in self.spans:
            if row[0] == name:
                owner = self._ancestor(row[3], within)
                if owner is not None:
                    counts[owner] += 1
        return list(counts.values())

    def _ancestor(self, index: int, name: str) -> int | None:
        while index >= 0 and self.spans[index][0] != name:
            index = self.spans[index][3]
        return index if index >= 0 else None

    def layer_metrics(self) -> dict[str, float]:
        """Median self time in ms for each per-layer span metric."""
        own = self.self_times()
        by_name: dict[str, list[float]] = {}
        for row, t in zip(self.spans, own):
            by_name.setdefault(row[0], []).append(t)
        out = {
            metric: 1e3 * statistics.median(by_name[span])
            for metric, span in SELF_TIME_METRICS.items()
        }
        per_step: dict[int, float] = {
            i: 0.0 for i, row in enumerate(self.spans) if row[0] == "model.forward_arrays"
        }
        for i, row in enumerate(self.spans):
            if row[0] == "attention.subset_attention":
                owner = self._ancestor(row[3], "model.forward_arrays")
                if owner is not None:
                    per_step[owner] += own[i]
        out["attention.subset_attention_ms"] = 1e3 * statistics.median(per_step.values())
        return out

    def dump(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]
