"""Binary checkpoint serialization.

Layout, all little-endian:
  magic "FCST", version u32,
  config block:   u32 count, then (u16 key len, key, u16 value len, value)
  tensor block:   u32 count, then (u16 name len, name, u8 rank, u32 dims...,
                  raw float64 data)
  partition block: u8 count, then per scheme (u16 label len, label, u32 l,
                  u32 tau, u32 base count, u64 base flats..., u32 element
                  count, u32 assignment ids...)

The config block stores every ModelConfig field, the completed epoch
counter and "graph_sha256", which a load checks against its graph. The
tensor block holds every learnable parameter and, when known, the
normalization statistics under the reserved "norm_stats." prefix.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .data import NormStats
from .errors import ContractError, InputError, require_file
from .model import ForecastModel, ModelConfig, build_model, load_params
from .partition import PartitionScheme
from .stgraph import SpatialGraph

MAGIC = b"FCST"
VERSION = 2
NORM_PREFIX = "norm_stats."
GRAPH_KEY = "graph_sha256"
_FIELD_TYPES = get_type_hints(ModelConfig)


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ContractError(f"string too long to serialize: {len(raw)} bytes")
    return struct.pack("<H", len(raw)) + raw


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.blob):
            raise InputError(f"{self.path}: truncated checkpoint")
        out = self.blob[self.pos : self.pos + count]
        self.pos += count
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def string(self) -> str:
        length = struct.unpack("<H", self.take(2))[0]
        return self.take(length).decode("utf-8")

    def floats(self, count: int) -> np.ndarray:
        raw = self.take(8 * count)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def _graph_digest(spatial: SpatialGraph) -> str:
    """SHA-256 over the node labels and the (symmetrized) adjacency."""
    digest = hashlib.sha256(struct.pack("<I", spatial.n_nodes))
    for label in spatial.labels:
        digest.update(_pack_str(label))
    digest.update(np.ascontiguousarray(spatial.adjacency, dtype="<f8").tobytes())
    return digest.hexdigest()


def _config_items(model: ForecastModel, epochs_completed: int) -> list[tuple[str, str]]:
    items = []
    for f in fields(ModelConfig):
        value = getattr(model.config, f.name)
        items.append((f.name, "" if value is None else repr(value)))
    items.append(("epochs_completed", repr(epochs_completed)))
    items.append((GRAPH_KEY, _graph_digest(model.spatial)))
    return items


def _parse_config(pairs: dict[str, str]) -> tuple[ModelConfig, int]:
    kwargs = {}
    for f in fields(ModelConfig):
        if f.name not in pairs:
            raise InputError(f"checkpoint config is missing {f.name}")
        raw = pairs[f.name]
        kinds = get_args(_FIELD_TYPES[f.name]) or (_FIELD_TYPES[f.name],)
        if raw == "" and type(None) in kinds:
            kwargs[f.name] = None
        else:
            kwargs[f.name] = _parse_field(f.name, kinds[0], raw)
    epochs_completed = _parse_field("epochs_completed", int, pairs.get("epochs_completed", "0"))
    return ModelConfig(**kwargs), epochs_completed


def _parse_field(name: str, kind: type, raw: str):
    try:
        return kind(raw)
    except ValueError:
        raise InputError(f"checkpoint config {name} must be {kind.__name__}, got {raw!r}") from None


def _write_scheme(out: list[bytes], scheme: PartitionScheme) -> None:
    out.append(_pack_str(scheme.label))
    out.append(struct.pack("<II", scheme.n_subsets, scheme.tau))
    out.append(struct.pack("<I", len(scheme.base_flats)))
    out.append(struct.pack(f"<{len(scheme.base_flats)}Q", *scheme.base_flats))
    out.append(struct.pack("<I", scheme.n_elements))
    out.append(scheme.assignment.astype("<u4").tobytes())


def _read_scheme(reader: _Reader) -> PartitionScheme:
    label = reader.string()
    n_subsets = reader.u32()
    tau = reader.u32()
    n_bases = reader.u32()
    bases = [reader.u64() for _ in range(n_bases)]
    if n_bases != n_subsets:
        raise InputError(f"{reader.path}: scheme {label} has {n_bases} bases for l={n_subsets}")
    n_elements = reader.u32()
    raw = reader.take(4 * n_elements)
    assignment = np.frombuffer(raw, dtype="<u4").astype(np.int64)
    return PartitionScheme(
        label=label,
        n_elements=n_elements,
        tau=tau,
        base_flats=bases,
        assignment=assignment,
    )


def save_checkpoint(model: ForecastModel, path, epochs_completed: int = 0) -> None:
    """Serialize config, parameters, norm stats, and both partitions."""
    out: list[bytes] = [MAGIC, struct.pack("<I", VERSION)]

    items = _config_items(model, epochs_completed)
    out.append(struct.pack("<I", len(items)))
    for key, value in items:
        out.append(_pack_str(key))
        out.append(_pack_str(value))

    entries: list[tuple[str, np.ndarray]] = [
        (p.name, p.data) for p in model.params()
    ]
    if model.norm_stats is not None:
        entries.append((NORM_PREFIX + "mean", model.norm_stats.mean))
        entries.append((NORM_PREFIX + "std", model.norm_stats.std))
    out.append(struct.pack("<I", len(entries)))
    for name, array in entries:
        out.append(_pack_str(name))
        out.append(struct.pack("<B", array.ndim))
        out.append(struct.pack(f"<{array.ndim}I", *array.shape))
        out.append(np.ascontiguousarray(array, dtype="<f8").tobytes())

    out.append(struct.pack("<B", 2))
    _write_scheme(out, model.p1)
    _write_scheme(out, model.p2)

    Path(path).write_bytes(b"".join(out))


def load_checkpoint(path, spatial: SpatialGraph) -> tuple[ForecastModel, int]:
    """Rebuild a model from a checkpoint and the spatial graph it used.

    A graph whose labels or adjacency differ from the saved one is
    rejected with InputError. The stored partitions are reused as-is;
    spectral and calendar encodings are recomputed deterministically from
    the graph and config. Returns the model and the completed epoch counter.
    """
    path = require_file(path, "checkpoint")
    reader = _Reader(path.read_bytes(), str(path))
    if reader.take(4) != MAGIC:
        raise InputError(f"{path}: not a checkpoint (bad magic)")
    version = reader.u32()
    if version != VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {version}")

    n_kv = reader.u32()
    pairs = {}
    for _ in range(n_kv):
        key = reader.string()
        pairs[key] = reader.string()
    if pairs.get(GRAPH_KEY) != _graph_digest(spatial):
        raise InputError(
            f"{path}: checkpoint was saved for a different graph "
            "(node labels, edges or --symmetrize differ)"
        )
    config, epochs_completed = _parse_config(pairs)

    n_entries = reader.u32()
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_entries):
        name = reader.string()
        rank = reader.u8()
        dims = tuple(reader.u32() for _ in range(rank))
        count = int(np.prod(dims)) if dims else 1
        arrays[name] = reader.floats(count).reshape(dims)

    n_schemes = reader.u8()
    if n_schemes != 2:
        raise InputError(f"{path}: expected 2 partition schemes, found {n_schemes}")
    p1 = _read_scheme(reader)
    p2 = _read_scheme(reader)

    model = build_model(config, spatial, schemes=(p1, p2))
    mean = arrays.pop(NORM_PREFIX + "mean", None)
    std = arrays.pop(NORM_PREFIX + "std", None)
    if mean is not None and std is not None:
        model.norm_stats = NormStats(mean=mean, std=std)
    try:
        load_params(model, arrays)
    except ContractError as exc:
        raise InputError(f"{path}: tensor block does not match the model: {exc}") from None
    return model, epochs_completed
