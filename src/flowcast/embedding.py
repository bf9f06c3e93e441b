"""Input embedding: signal projection plus spatial and temporal encodings.

The spatial encoding comes from eigenvectors of the symmetric normalized
graph Laplacian, projected to the model width. The temporal encoding tags
each step with two learned rows of the calendar map w_tpe: row day for its
day of week and row 7 + step for its step within the day, so w_tpe has
7 + steps-per-day rows. Both broadcast over the axes they do not index and
are summed with the projected signal, mixed by a second linear layer, and
layer normalized, all in one tape node, tensor.embed_rows, which reads
the layer's EmbeddingParams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .optim import glorot_uniform, ones_param, zeros_param
from .stgraph import SpatialGraph
from .tensor import EmbeddingParams, Tensor, embed_rows

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

    A is always max(A, A^T) of the graph's adjacency: the adjacency itself
    when the graph is symmetric, and the undirected support of a directed
    graph kept as given under --symmetrize false. Eigenpairs come back in
    ascending eigenvalue order. One trivial mode per connected component
    (eigenvalue below 1e-8) is skipped, then the next n_modes eigenvectors
    become the per-node coordinates. Each kept column is sign fixed so its
    largest-magnitude entry is positive, the first such entry deciding
    ties. Isolated nodes get a tiny degree so the scaling stays finite.
    """
    n = spatial.n_nodes
    if not 1 <= n_modes < n:
        raise ContractError(f"mode count must be in [1, {n}), got {n_modes}")
    adjacency = np.maximum(spatial.adjacency, spatial.adjacency.T)
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
    selected = eigvecs[:, nontrivial[:n_modes]].copy()  # C order, whatever eigh returns
    peaks = np.abs(selected).argmax(axis=0)
    selected *= np.where(selected[peaks, np.arange(n_modes)] < 0.0, -1.0, 1.0)
    return SpePack(eigvals=eigvals, eigvecs=eigvecs, selected=selected)


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


def embed(
    values: np.ndarray,
    day: np.ndarray,
    step: np.ndarray,
    spe: np.ndarray,
    params: EmbeddingParams,
) -> Tensor:
    """Embed a signal window (N, T, C) or a batch of them (B, N, T, C).

    Returns the model's rows, (T·N, D) or (B, T·N, D): row time · N + node
    holds that element, the unified graph's flat id. day and step, (T,) or
    (B, T), give each step's day of week and step within the day, and spe
    holds each node's (N, K) spectral coordinates, ForecastModel.spe. The
    steps per day are w_tpe's rows past the first 7. Here only the calendar
    indices are checked; tensor.embed_rows, one tape node, checks every
    shape and computes the whole embedding, looking up the calendar rows
    w_tpe[day] + w_tpe[7 + step] + b_tpe.
    """
    day = np.asarray(day, dtype=np.int64)
    step = np.asarray(step, dtype=np.int64)
    steps_per_day = params.w_tpe.shape[0] - DAYS_PER_WEEK
    if day.size and (day.min() < 0 or day.max() >= DAYS_PER_WEEK):
        raise ContractError("day of week outside [0, 7)")
    if step.size and (step.min() < 0 or step.max() >= steps_per_day):
        raise ContractError(f"step in day outside [0, {steps_per_day})")
    values = np.asarray(values, dtype=np.float64)
    return embed_rows(values, spe, day, DAYS_PER_WEEK + step, params)
