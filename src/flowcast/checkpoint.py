"""Binary checkpoint serialization.

Layout, all little-endian:
  magic "FCST", version u32, header length u32,
  header:      UTF-8 JSON object with "config" (every ModelConfig field),
               "state" (TrainState's int and float fields; best_val_mae may
               be Infinity or NaN), "graph_sha256", "tensors" as [name,
               shape] pairs in payload order, "schemes", one {"label",
               "tau", "base_flats", "n_elements"} per partition, and
               "payload_sha256", over every byte after the header
  tensors:     each tensor's float64 data, in header order
  assignments: each scheme's n_elements subset ids as u32, in header order

The tensors are every learnable parameter, then the model's
(n_nodes, spe_modes) spectral coordinates under the reserved name
"spe_coords", then, when known, the normalization statistics under the
reserved "norm_stats." prefix, then, once train() has run, the (2, P) Adam
moments under "adam_moments" and the best-epoch parameters under the
"best_params." prefix. A load takes the coordinates as stored, so it runs
no eigendecomposition and does not depend on how the host's LAPACK picks
a basis of a repeated eigenvalue's eigenspace. A load checks
"graph_sha256" against its graph, and "payload_sha256" before it reads
any tensor. A save writes "<path>.partial" and renames it over the
target, so an interrupted save leaves the previous checkpoint intact; a
save that raises removes "<path>.partial".
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
from .model import ForecastModel, ModelConfig, TrainState, build_model, check_params, load_params
from .partition import PartitionScheme
from .stgraph import SpatialGraph

MAGIC = b"FCST"
VERSION = 6
_PREFIX = struct.Struct("<4sII")
SPE_KEY = "spe_coords"
NORM_PREFIX = "norm_stats."
MOMENTS_KEY = "adam_moments"
BEST_PREFIX = "best_params."
GRAPH_KEY = "graph_sha256"
PAYLOAD_KEY = "payload_sha256"
_FIELD_TYPES = get_type_hints(ModelConfig)
_STATE_TYPES = {k: t for k, t in get_type_hints(TrainState).items() if t in (int, float)}


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
        raise ContractError(f"checkpoint {name} must be {kinds[0].__name__}, got {value!r}")
    return value


def _json_scalar(value):
    """json.dumps fallback: a numpy scalar, e.g. a seed of np.int64(5), as
    its Python value."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def save_checkpoint(model: ForecastModel, path, state: TrainState | None = None) -> None:
    """Serialize config, training state (a fresh one when None), parameters,
    spectral coordinates, norm stats, and both partitions."""
    state = TrainState() if state is None else state
    tensors = [(p.name, p.data) for p in model.params()]
    tensors.append((SPE_KEY, model.spe))
    if model.norm_stats is not None:
        tensors.append((NORM_PREFIX + "mean", model.norm_stats.mean))
        tensors.append((NORM_PREFIX + "std", model.norm_stats.std))
    if state.moments is not None:
        tensors.append((MOMENTS_KEY, state.moments))
    tensors += [(BEST_PREFIX + name, array) for name, array in state.best_params.items()]
    schemes = (model.p1, model.p2)
    payload = b"".join(
        [np.ascontiguousarray(array, dtype="<f8") for _, array in tensors]
        + [scheme.assignment.astype("<u4") for scheme in schemes]
    )
    header = json.dumps({
        "config": asdict(model.config),
        "state": {k: getattr(state, k) for k in _STATE_TYPES},
        GRAPH_KEY: _graph_digest(model.spatial),
        "tensors": [[name, list(array.shape)] for name, array in tensors],
        "schemes": [
            {"label": s.label, "tau": s.tau, "base_flats": s.base_flats, "n_elements": s.n_elements}
            for s in schemes
        ],
        PAYLOAD_KEY: hashlib.sha256(payload).hexdigest(),
    }, default=_json_scalar).encode("utf-8")

    with atomic_write(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, len(header)) + header)
        fh.write(payload)


def load_checkpoint(path, spatial: SpatialGraph) -> tuple[ForecastModel, TrainState]:
    """Rebuild a model from a checkpoint and the spatial graph it used.

    A graph whose labels or adjacency differ from the saved one is
    rejected with InputError, as is a file without (n_nodes, spe_modes)
    spectral coordinates. The stored partitions and coordinates are
    reused as-is, so no eigendecomposition runs; the calendar encoding's
    sizes come from the config. Returns the model and the training state,
    whose moments and snapshot must fit the model's parameters.
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
        config = ModelConfig(**{k: _typed(f"config {k}", stored[k], h) for k, h in _FIELD_TYPES.items()})
        counters = header["state"]
        state = TrainState(**{k: _typed(f"state {k}", counters[k], h) for k, h in _STATE_TYPES.items()})
        for k, h in _STATE_TYPES.items():
            if h is int and getattr(state, k) < 0:
                raise ContractError(f"state {k} must be at least 0, got {getattr(state, k)}")
        shapes = [(name, tuple(shape)) for name, shape in header["tensors"]]
        metas = header["schemes"]
        if len(metas) != 2 or any(type(d) is not int or d < 0 for _, s in shapes for d in s):
            raise ValueError("expected 2 schemes and non-negative integer tensor shapes")
        if hashlib.sha256(memoryview(blob)[offset:]).hexdigest() != header[PAYLOAD_KEY]:
            raise InputError(f"{path}: truncated or corrupt checkpoint: the payload fails its {PAYLOAD_KEY}")
        arrays: dict[str, np.ndarray] = {}
        for name, shape in shapes:
            arrays[name] = np.frombuffer(blob, "<f8", math.prod(shape), offset).reshape(shape)
            offset += arrays[name].nbytes
        schemes = []
        for meta in metas:
            assignment = np.frombuffer(blob, "<u4", meta["n_elements"], offset).astype(np.int64)
            offset += 4 * assignment.size
            schemes.append(PartitionScheme(
                label=meta["label"], n_elements=meta["n_elements"], tau=meta["tau"],
                base_flats=meta["base_flats"], assignment=assignment,
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
    moments = arrays.pop(MOMENTS_KEY, None)
    best = {k: arrays.pop(k) for k in list(arrays) if k.startswith(BEST_PREFIX)}
    try:
        load_params(model, arrays)
        if best:
            check_params(model, best, BEST_PREFIX)
        if moments is not None and moments.shape != (2, sum(p.data.size for p in model.params())):
            raise ContractError(f"adam moments of shape {moments.shape} do not fit the parameters")
    except ContractError as exc:
        raise InputError(f"{path}: tensor block does not match the model: {exc}") from None
    state.best_params = {k[len(BEST_PREFIX) :]: a.copy() for k, a in best.items()}
    state.moments = None if moments is None else moments.copy()
    return model, state
