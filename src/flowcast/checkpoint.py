"""Binary checkpoint serialization.

Layout, all little-endian:
  magic "FCST", version u32, header length u32,
  header:      UTF-8 JSON object with "config" (every ModelConfig field),
               "epochs_completed", "graph_sha256", "tensors" as
               [name, shape] pairs in payload order, and "schemes", one
               {"label", "tau", "base_flats", "n_elements"} per partition
  tensors:     each tensor's float64 data, in header order
  assignments: each scheme's n_elements subset ids as u32, in header order

The tensors are every learnable parameter, then the model's
(n_nodes, spe_modes) spectral coordinates under the reserved name
"spe_coords", then, when known, the normalization statistics under the
reserved "norm_stats." prefix. A load takes the coordinates as stored, so
it runs no eigendecomposition and does not depend on how the host's
LAPACK picks a basis of a repeated eigenvalue's eigenspace. A load checks
"graph_sha256" against its graph. A save writes "<path>.partial" and
renames it over the target, so an interrupted save leaves the previous
checkpoint intact; a save that raises removes "<path>.partial".
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict
from typing import get_args, get_type_hints

import numpy as np

from .data import NormStats
from .errors import ContractError, InputError, require_file
from .files import atomic_write
from .model import ForecastModel, ModelConfig, build_model, load_params
from .partition import PartitionScheme
from .stgraph import SpatialGraph

MAGIC = b"FCST"
VERSION = 4
_PREFIX = struct.Struct("<4sII")
SPE_KEY = "spe_coords"
NORM_PREFIX = "norm_stats."
GRAPH_KEY = "graph_sha256"
_FIELD_TYPES = get_type_hints(ModelConfig)


def _graph_digest(spatial: SpatialGraph) -> str:
    """SHA-256 over the node count, each node label as a u16 byte length
    and its UTF-8 bytes, and the (symmetrized) adjacency."""
    raws = [label.encode("utf-8") for label in spatial.labels]
    labels = b"".join(struct.pack("<H", len(raw)) + raw for raw in raws)
    digest = hashlib.sha256(struct.pack("<I", spatial.n_nodes) + labels)
    digest.update(np.ascontiguousarray(spatial.adjacency, dtype="<f8"))
    return digest.hexdigest()


def _typed(name: str, value, hint):
    """value if JSON gave it one of hint's types (an int widens to float)."""
    kinds = get_args(hint) or (hint,)
    if type(value) is int and float in kinds:
        return float(value)
    if type(value) not in kinds:
        raise InputError(f"checkpoint config {name} must be {kinds[0].__name__}, got {value!r}")
    return value


def _json_scalar(value):
    """json.dumps fallback: a numpy scalar, e.g. a seed of np.int64(5), as
    its Python value."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_checkpoint(model: ForecastModel, path, epochs_completed: int = 0) -> None:
    """Serialize config, parameters, spectral coordinates, norm stats, and
    both partitions."""
    tensors = [(p.name, p.data) for p in model.params()]
    tensors.append((SPE_KEY, model.spe))
    if model.norm_stats is not None:
        tensors.append((NORM_PREFIX + "mean", model.norm_stats.mean))
        tensors.append((NORM_PREFIX + "std", model.norm_stats.std))
    schemes = (model.p1, model.p2)
    header = json.dumps({
        "config": asdict(model.config),
        "epochs_completed": epochs_completed,
        GRAPH_KEY: _graph_digest(model.spatial),
        "tensors": [[name, list(array.shape)] for name, array in tensors],
        "schemes": [
            {"label": s.label, "tau": s.tau, "base_flats": s.base_flats, "n_elements": s.n_elements}
            for s in schemes
        ],
    }, default=_json_scalar).encode("utf-8")

    with atomic_write(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, len(header)) + header)
        for _, array in tensors:
            fh.write(np.ascontiguousarray(array, dtype="<f8"))
        for scheme in schemes:
            fh.write(scheme.assignment.astype("<u4"))


def load_checkpoint(path, spatial: SpatialGraph) -> tuple[ForecastModel, int]:
    """Rebuild a model from a checkpoint and the spatial graph it used.

    A graph whose labels or adjacency differ from the saved one is
    rejected with InputError, as is a file without (n_nodes, spe_modes)
    spectral coordinates. The stored partitions and coordinates are
    reused as-is, so no eigendecomposition runs; the calendar encoding's
    sizes come from the config. Returns the model and the completed epoch
    counter.
    """
    path = require_file(path, "checkpoint")
    blob = path.read_bytes()
    if blob[:4] != MAGIC:
        raise InputError(f"{path}: not a checkpoint (bad magic)")
    if len(blob) < _PREFIX.size:
        raise InputError(f"{path}: truncated checkpoint")
    _, version, header_size = _PREFIX.unpack_from(blob)
    if version != VERSION:
        raise InputError(f"{path}: unsupported checkpoint version {version}")
    offset = _PREFIX.size + header_size
    if len(blob) < offset:
        raise InputError(f"{path}: truncated checkpoint")

    try:
        header = json.loads(blob[_PREFIX.size : offset])
        if header[GRAPH_KEY] != _graph_digest(spatial):
            raise InputError(
                f"{path}: checkpoint was saved for a different graph "
                "(node labels, edges or --symmetrize differ)"
            )
        stored = header["config"]
        config = ModelConfig(**{k: _typed(k, stored[k], hint) for k, hint in _FIELD_TYPES.items()})
        epochs_completed = _typed("epochs_completed", header["epochs_completed"], int)
        if epochs_completed < 0:
            raise InputError(f"{path}: epochs_completed must be at least 0, got {epochs_completed}")
        shapes = [(name, tuple(shape)) for name, shape in header["tensors"]]
        metas = header["schemes"]
        if len(metas) != 2 or any(type(d) is not int or d < 0 for _, s in shapes for d in s):
            raise ValueError("expected 2 schemes and non-negative integer tensor shapes")
        size = sum(8 * math.prod(s) for _, s in shapes) + sum(4 * m["n_elements"] for m in metas)
        if len(blob) < offset + size:
            raise InputError(f"{path}: truncated checkpoint")
        arrays: dict[str, np.ndarray] = {}
        for name, shape in shapes:
            arrays[name] = np.frombuffer(blob, "<f8", math.prod(shape), offset).reshape(shape)
            offset += arrays[name].nbytes
        schemes = []
        for meta in metas:
            assignment = np.frombuffer(blob, "<u4", meta["n_elements"], offset).astype(np.int64)
            offset += 4 * assignment.size
            schemes.append(PartitionScheme(
                label=meta["label"],
                n_elements=meta["n_elements"],
                tau=meta["tau"],
                base_flats=meta["base_flats"],
                assignment=assignment,
            ))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"{path}: malformed checkpoint header ({exc!r})") from None
    except ContractError as exc:
        raise InputError(f"{path}: {exc}") from None

    coords = arrays.pop(SPE_KEY, None)
    if coords is None:
        raise InputError(f"{path}: checkpoint stores no spectral coordinates ({SPE_KEY})")
    try:
        model = build_model(config, spatial, schemes=tuple(schemes), spe=coords.copy())
    except ContractError as exc:
        raise InputError(f"{path}: {exc}") from None
    mean = arrays.pop(NORM_PREFIX + "mean", None)
    std = arrays.pop(NORM_PREFIX + "std", None)
    if mean is not None and std is not None:
        model.norm_stats = NormStats(mean=mean.copy(), std=std.copy())
    try:
        load_params(model, arrays)
    except ContractError as exc:
        raise InputError(f"{path}: tensor block does not match the model: {exc}") from None
    return model, epochs_completed
