"""Multi-head attention over partition subsets, with the post-norm module.

Attention is dense within each subset: every element attends to every
other element of its subset, and subsets never exchange information
inside a single module. A module is attention plus residual, layer norm,
a position-wise feed-forward expansion, another residual, and a second
layer norm. A block runs one module on the primary partition and a second
module, with its own parameters, on the shifted partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .optim import glorot_uniform, ones_param, zeros_param
from .partition import PartitionScheme
from .tensor import (
    Param,
    ParamGroup,
    Tensor,
    add,
    add_norm_ffn,
    constant,
    gather_rows,
    matmul,
    ranged_attention,
    reshape,
    transpose,
)

FFN_EXPANSION = 4


@dataclass
class AttentionParams(ParamGroup):
    """Maps stacked over heads: (H, D, d_h), query bias (H, 1, d_h)."""

    w_value: Param
    w_query: Param
    b_query: Param
    w_key: Param
    w_out: Param


@dataclass
class ModuleParams(ParamGroup):
    attention: AttentionParams
    w_ffn1: Param
    b_ffn1: Param
    w_ffn2: Param
    b_ffn2: Param
    norm1_gain: Param
    norm1_bias: Param
    norm2_gain: Param
    norm2_bias: Param


@dataclass
class BlockParams(ParamGroup):
    module_one: ModuleParams
    module_two: ModuleParams


def init_attention_params(
    rng: np.random.Generator, dim: int, n_heads: int, prefix: str
) -> AttentionParams:
    if dim % n_heads != 0:
        raise ContractError(f"width {dim} is not divisible by {n_heads} heads")
    head_dim = dim // n_heads
    stacked = (n_heads, dim, head_dim)
    return AttentionParams(
        w_value=glorot_uniform(rng, stacked, f"{prefix}.w_value"),
        w_query=glorot_uniform(rng, stacked, f"{prefix}.w_query"),
        b_query=zeros_param((n_heads, 1, head_dim), f"{prefix}.b_query"),
        w_key=glorot_uniform(rng, stacked, f"{prefix}.w_key"),
        w_out=glorot_uniform(rng, (dim, dim), f"{prefix}.w_out"),
    )


def init_module_params(
    rng: np.random.Generator, dim: int, n_heads: int, prefix: str
) -> ModuleParams:
    hidden = FFN_EXPANSION * dim
    return ModuleParams(
        attention=init_attention_params(rng, dim, n_heads, f"{prefix}.att"),
        w_ffn1=glorot_uniform(rng, (dim, hidden), f"{prefix}.ffn.w1"),
        b_ffn1=zeros_param((hidden,), f"{prefix}.ffn.b1"),
        w_ffn2=glorot_uniform(rng, (hidden, dim), f"{prefix}.ffn.w2"),
        b_ffn2=zeros_param((dim,), f"{prefix}.ffn.b2"),
        norm1_gain=ones_param((dim,), f"{prefix}.norm1.gain"),
        norm1_bias=zeros_param((dim,), f"{prefix}.norm1.bias"),
        norm2_gain=ones_param((dim,), f"{prefix}.norm2.gain"),
        norm2_bias=zeros_param((dim,), f"{prefix}.norm2.bias"),
    )


def init_block_params(
    rng: np.random.Generator, dim: int, n_heads: int, prefix: str
) -> BlockParams:
    return BlockParams(
        module_one=init_module_params(rng, dim, n_heads, f"{prefix}.mod1"),
        module_two=init_module_params(rng, dim, n_heads, f"{prefix}.mod2"),
    )


def _heads_view(elements: Tensor, params: AttentionParams) -> tuple[Tensor, Tensor, Tensor]:
    """Rows (..., M, D) viewed as (..., 1, M, D), with their query and key
    maps: each stacked map gives (..., H, M, d_h) for all rows at once.
    Keys carry no bias: the softmax would cancel it."""
    if elements.ndim < 2:
        raise ContractError(f"subset needs shape (..., m, D), got {elements.shape}")
    k = elements.ndim - 2  # leading axes before (M, D)
    x = reshape(elements, elements.shape[:k] + (1,) + elements.shape[k:])
    return x, add(matmul(x, params.w_query), params.b_query), matmul(x, params.w_key)


def subset_attention(
    elements: Tensor,
    params: AttentionParams,
    sizes: list[int] | None = None,
) -> Tensor:
    """Dense multi-head attention inside each subset; shape (..., M, D) kept.

    sizes splits the M rows into consecutive subsets, in order; by default
    all rows form one subset. The heads are one tensor axis of the query,
    key and value maps. Inside each subset, scores are scaled dot products
    of the query and key maps, softmaxed per query row, and used to mix
    the value map; tensor.ranged_attention does this for every subset as
    one tape node, and keeps no weights. Head outputs are laid side by
    side and passed through the output matrix.
    """
    x, queries, keys = _heads_view(elements, params)
    n_rows = elements.shape[-2]
    sizes = [n_rows] if sizes is None else list(sizes)
    if min(sizes, default=0) < 1 or sum(sizes) != n_rows:
        raise ContractError(f"subset sizes must be >= 1 and sum to {n_rows}, got {sizes}")
    ends = np.cumsum(sizes).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    mixed = ranged_attention(queries, keys, matmul(x, params.w_value), bounds)
    k = elements.ndim - 2
    side_by_side = transpose(mixed, tuple(range(k)) + (k + 1, k, k + 2))
    return matmul(reshape(side_by_side, elements.shape), params.w_out)


def attention_weights(elements: Tensor, params: AttentionParams) -> Tensor:
    """Softmax weights of one subset's m rows, (..., H, m, m), query-major.

    The query and key maps are subset_attention's, and the core is the
    same ranged_attention call over one range, with identity values: each
    output row is then exactly one query's weights over the subset.
    """
    _, queries, keys = _heads_view(elements, params)
    m = elements.shape[-2]
    identity = constant(np.broadcast_to(np.eye(m), queries.shape[:-1] + (m,)))
    return ranged_attention(queries, keys, identity, [(0, m)])


def apply_module(x: Tensor, scheme: PartitionScheme, params: ModuleParams) -> Tensor:
    """One attention module over a partition; shape (..., n_elements, D) kept.

    Row k of x is the unified graph's element with flat id k, the order
    the scheme's subsets index. One gather by the scheme's subset-major
    order makes every subset a consecutive row range, in subset order, each
    subset's elements in ascending flat order. One subset_attention call
    attends inside every range, and one gather by the scheme's inverse
    permutation puts every row back at its flat id. The merged result then
    goes through residual + norm, feed-forward, residual + norm, as one
    tensor.add_norm_ffn node over cache-sized row tiles.
    """
    if x.ndim < 2 or x.shape[-2] != scheme.n_elements:
        raise ContractError(
            f"partition covers {scheme.n_elements} elements but input has shape {x.shape}"
        )
    attended = subset_attention(gather_rows(x, scheme.order), params.attention, scheme.sizes)
    merged = gather_rows(attended, scheme.inverse)
    return add_norm_ffn(
        merged, x, params.w_ffn1, params.b_ffn1, params.w_ffn2, params.b_ffn2,
        params.norm1_gain, params.norm1_bias, params.norm2_gain, params.norm2_bias,
    )


def apply_block(
    x: Tensor, p1: PartitionScheme, p2: PartitionScheme, params: BlockParams
) -> Tensor:
    """Primary-partition module followed by the shifted-partition module.

    Rows in and out are flat element ids, (..., n_elements, D).
    """
    x = apply_module(x, p1, params.module_one)
    return apply_module(x, p2, params.module_two)
