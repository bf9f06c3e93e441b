"""Generic taped ops and a unified-graph ball, which the model does not run.

The model's layers are fused tape ops in flowcast.tensor. The tests check
them against the chains of generic ops they replaced: add, matmul, relu,
reshape and layer_norm, each with numpy broadcasting. Unlike oracles.py,
this module calls package internals on purpose: every op records itself on
flowcast's tape and hands its gradients to tensor._accumulate, which takes
only gradients of the parent's exact shape. So each op sums a broadcast
gradient down to the parent's shape first, with _unbroadcast.
"""

from __future__ import annotations

import numpy as np

from flowcast import tensor
from flowcast.errors import ContractError
from flowcast.stgraph import STCoord, UnifiedGraph
from flowcast.tensor import Tensor


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the parent's shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _accumulate(parent: Tensor, grad: np.ndarray) -> None:
    if parent.requires_grad:
        tensor._accumulate(parent, _unbroadcast(grad, parent.data.shape))


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return Tensor(a.data + b.data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the trailing two axes, broadcasting the rest."""
    if a.ndim < 2 or b.ndim < 2:
        raise ContractError(
            f"matmul needs rank >= 2 operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ContractError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ContractError(f"matmul shape mismatch: {a.shape} @ {b.shape}") from exc
    def bwd(g: np.ndarray) -> None:
        # an operand that needs no grad gets no product
        if a.requires_grad:
            _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return Tensor(data, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * (a.data > 0.0))

    return Tensor(np.maximum(a.data, 0.0), (a,), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), (a,), bwd)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then apply
    the learnable elementwise affine. Variance is the population variance."""
    width = a.data.shape[-1]
    if gain.data.shape != (width,) or bias.data.shape != (width,):
        raise ContractError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match width {width}"
        )
    row_mean = np.full((width, 1), 1.0 / width)
    xhat = a.data.copy()
    inv = tensor._norm_rows(xhat, row_mean)
    def bwd(g: np.ndarray) -> None:
        _accumulate(bias, g)
        _accumulate(gain, g * xhat)
        _accumulate(a, tensor._norm_rows_grad(g * gain.data, xhat, inv, row_mean))

    return Tensor(xhat * gain.data + bias.data, (a, gain, bias), bwd)


def ball(graph: UnifiedGraph, center: STCoord, radius: int) -> set[STCoord]:
    """All elements within the given hop radius of the center, inclusive."""
    if radius < 0:
        raise ContractError(f"ball radius must be nonnegative, got {radius}")
    start = graph.coord_to_flat(center)
    dist = graph.distances_from(start)
    hits = np.flatnonzero((dist >= 0) & (dist <= radius))
    return {graph.flat_to_coord(int(f)) for f in hits}
