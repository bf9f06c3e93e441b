"""Input embedding: signal projection plus spatial and temporal encodings.

The spatial encoding comes from eigenvectors of the symmetric normalized
graph Laplacian; the temporal encoding one-hot codes day of week and step
within the day. Both are projected to the model width, broadcast over the
axes they do not index, summed with the projected signal, mixed by a
second linear layer, and layer normalized.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .optim import glorot_uniform, ones_param, zeros_param
from .stgraph import SpatialGraph
from .tensor import Param, ParamGroup, Tensor, add, constant, layer_norm, matmul, reshape

DAYS_PER_WEEK = 7
TRIVIAL_EIGENVALUE_CUTOFF = 1e-8
ISOLATED_DEGREE_EPSILON = 1e-12


@dataclass
class SpePack:
    """Spectral data for the spatial positional encoding."""

    eigvals: np.ndarray
    eigvecs: np.ndarray
    selected: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.selected.shape[1]


def compute_spe(spatial: SpatialGraph, n_modes: int) -> SpePack:
    """Eigendecompose L = I - D^(-1/2) A D^(-1/2) and select coordinates.

    Eigenpairs come back in ascending eigenvalue order. One trivial mode
    per connected component (eigenvalue below 1e-8) is skipped, then the
    next n_modes eigenvectors become the per-node coordinates. Each kept
    column is sign fixed so its largest-magnitude entry is positive, the
    first such entry deciding ties. Isolated nodes get a tiny degree so
    the scaling stays finite.
    """
    n = spatial.n_nodes
    if not 1 <= n_modes < n:
        raise ContractError(f"mode count must be in [1, {n}), got {n_modes}")
    adjacency = spatial.adjacency
    if not np.array_equal(adjacency, adjacency.T):
        warnings.warn("adjacency not symmetric; symmetrized as max(A, A^T)")
        adjacency = np.maximum(adjacency, adjacency.T)

    degree = adjacency.sum(axis=1)
    degree = np.where(degree > 0.0, degree, ISOLATED_DEGREE_EPSILON)
    inv_sqrt = 1.0 / np.sqrt(degree)
    lap = np.eye(n) - inv_sqrt[:, None] * adjacency * inv_sqrt[None, :]
    lap = (lap + lap.T) / 2.0

    eigvals, eigvecs = np.linalg.eigh(lap)
    nontrivial = np.flatnonzero(eigvals >= TRIVIAL_EIGENVALUE_CUTOFF)
    if len(nontrivial) < n_modes:
        raise ContractError(
            f"only {len(nontrivial)} nontrivial modes available "
            f"({n - len(nontrivial)} components in a {n}-node graph), need {n_modes}"
        )
    selected = eigvecs[:, nontrivial[:n_modes]].copy()
    for col in range(selected.shape[1]):
        column = selected[:, col]
        peak = int(np.argmax(np.abs(column)))
        if column[peak] < 0.0:
            selected[:, col] = -column
    return SpePack(eigvals=eigvals, eigvecs=eigvecs, selected=selected)


@dataclass
class TpePack:
    """Sizes for the calendar one-hot code: 7 days and gamma steps per day."""

    gamma: int

    @property
    def width(self) -> int:
        return DAYS_PER_WEEK + self.gamma

    def one_hot(self, day: np.ndarray, step: np.ndarray) -> np.ndarray:
        """Concatenated day/step one-hot rows; shape (..., 7 + gamma)."""
        day = np.asarray(day, dtype=np.int64)
        step = np.asarray(step, dtype=np.int64)
        if day.shape != step.shape:
            raise ContractError(f"day shape {day.shape} != step shape {step.shape}")
        if day.size and (day.min() < 0 or day.max() >= DAYS_PER_WEEK):
            raise ContractError("day of week outside [0, 7)")
        if step.size and (step.min() < 0 or step.max() >= self.gamma):
            raise ContractError(f"step in day outside [0, {self.gamma})")
        out = np.zeros(day.shape + (self.width,), dtype=np.float64)
        np.put_along_axis(out, day[..., None], 1.0, axis=-1)
        np.put_along_axis(out, DAYS_PER_WEEK + step[..., None], 1.0, axis=-1)
        return out


@dataclass
class EmbeddingParams(ParamGroup):
    """Learnable pieces of the input embedding."""

    w_in: Param
    b_in: Param
    w_spe: Param
    b_spe: Param
    w_tpe: Param
    b_tpe: Param
    w_mix: Param
    b_mix: Param
    norm_gain: Param
    norm_bias: Param


def init_embedding_params(
    rng: np.random.Generator, channels: int, dim: int, n_modes: int, tpe_width: int
) -> EmbeddingParams:
    return EmbeddingParams(
        w_in=glorot_uniform(rng, (channels, dim), "embed.in.w"),
        b_in=zeros_param((dim,), "embed.in.b"),
        w_spe=glorot_uniform(rng, (n_modes, dim), "embed.spe.w"),
        b_spe=zeros_param((dim,), "embed.spe.b"),
        w_tpe=glorot_uniform(rng, (tpe_width, dim), "embed.tpe.w"),
        b_tpe=zeros_param((dim,), "embed.tpe.b"),
        w_mix=glorot_uniform(rng, (dim, dim), "embed.mix.w"),
        b_mix=zeros_param((dim,), "embed.mix.b"),
        norm_gain=ones_param((dim,), "embed.norm.gain"),
        norm_bias=zeros_param((dim,), "embed.norm.bias"),
    )


def compute_tpe(
    day: np.ndarray, step: np.ndarray, pack: TpePack, params: EmbeddingParams
) -> Tensor:
    """Project the calendar one-hots to the model width; shape (..., T, D)."""
    onehot = pack.one_hot(day, step)
    return add(matmul(constant(onehot), params.w_tpe), params.b_tpe)


def embed(
    values: np.ndarray,
    day: np.ndarray,
    step: np.ndarray,
    spe: SpePack,
    tpe: TpePack,
    params: EmbeddingParams,
) -> Tensor:
    """Embed a signal window (N, T, C) or a batch of them (B, N, T, C).

    Returns the model's rows, (T·N, D) or (B, T·N, D): row time · N + node
    holds that element, the unified graph's flat id. The input is viewed as
    (..., T, N, C) once, as a constant, so the spatial rows (N, D) broadcast
    over time and the calendar rows (..., T, 1, D) over nodes.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (3, 4):
        raise ContractError(f"expected (N, T, C) or (B, N, T, C), got {values.shape}")
    n_nodes = spe.selected.shape[0]
    if values.shape[-3] != n_nodes:
        raise ContractError(
            f"window has {values.shape[-3]} nodes but the graph has {n_nodes}"
        )
    t_steps = values.shape[-2]
    day = np.asarray(day, dtype=np.int64)
    if day.shape[-1] != t_steps:
        raise ContractError(f"calendar length {day.shape[-1]} != window length {t_steps}")
    if not (day.ndim == 1 or (day.ndim == 2 and values.ndim == 4 and day.shape[0] == values.shape[0])):
        raise ContractError(
            f"calendar shape {day.shape} does not fit window shape {values.shape}"
        )

    x = add(matmul(constant(np.swapaxes(values, -3, -2)), params.w_in), params.b_in)
    x = add(x, add(matmul(constant(spe.selected), params.w_spe), params.b_spe))
    tpe_rows = compute_tpe(day, step, tpe, params)
    dim = tpe_rows.shape[-1]
    x = add(x, reshape(tpe_rows, day.shape + (1, dim)))

    x = add(matmul(x, params.w_mix), params.b_mix)
    x = layer_norm(x, params.norm_gain, params.norm_bias)
    return reshape(x, x.shape[:-3] + (t_steps * n_nodes, dim))
