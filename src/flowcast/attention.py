"""Multi-head attention over partition subsets, with the post-norm module.

Attention is dense within each subset: every element attends to every
other element of its subset, and subsets never exchange information
inside a single module. A module is attention plus residual, layer norm,
a position-wise feed-forward expansion, another residual, and a second
layer norm. A block runs one module on the primary partition and a second
module, with its own parameters, on the shifted partition.

A module records two tape nodes: tensor.ranged_self_attention for its
attention half, with the subset gathers, the projections and the range
loop inside the op, and tensor.add_norm_ffn for the position-wise half.
Each op takes the module's parameter group as it is: the attention half
its AttentionParams, the position-wise half the whole ModuleParams. Both
groups are declared in tensor, beside the ops that read them; this module
nests them into BlockParams and draws their initial values. The probe,
attention_weights, reads one subset's weights through
tensor.attention_weights, which builds the op's operands and runs its
range loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .optim import glorot_uniform, ones_param, zeros_param
from .partition import PartitionScheme
from . import tensor
from .tensor import (
    AttentionParams,
    ModuleParams,
    ParamGroup,
    Tensor,
    add_norm_ffn,
    constant,
    ranged_self_attention,
)

FFN_EXPANSION = 4


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


def subset_attention(x: Tensor, params: AttentionParams, scheme: PartitionScheme) -> Tensor:
    """Dense multi-head attention inside each subset; one tape node.

    Rows in and out are in flat element order, (..., n_elements, D): row k
    is the unified graph's element with flat id k, the order the scheme's
    subsets index. Inside each subset, scores are scaled dot products of
    the query and key maps, softmaxed per query row, and used to mix the
    value map; head outputs are laid side by side and passed through the
    output matrix.

    tensor.ranged_self_attention does all of it as one op: one gather by
    the scheme's subset-major order makes every subset a consecutive row
    range, one GEMM of the packed [W_q | W_k | W_v]^T gives the maps
    feature-major, one range loop attends inside every subset, and the
    output GEMM is followed by one gather by the inverse permutation. The
    op refuses rows that are not (..., n_elements, D), since the subsets'
    ranges must tile them.
    """
    ends = np.cumsum(scheme.sizes).tolist()
    bounds = list(zip([0] + ends[:-1], ends))
    return ranged_self_attention(x, params, bounds, scheme.order, scheme.inverse)


def attention_weights(elements: Tensor, params: AttentionParams) -> Tensor:
    """Softmax weights of one subset's m rows, (..., H, m, m), query-major.

    tensor.attention_weights computes them from the operands
    subset_attention's op builds, the same packed GEMM and query bias, with
    the same range loop, so they are the weights that op attends with.
    """
    return constant(tensor.attention_weights(elements.data, params))


def apply_module(x: Tensor, scheme: PartitionScheme, params: ModuleParams) -> Tensor:
    """One attention module over a partition; shape (..., n_elements, D) kept.

    Rows are in flat element order. One subset_attention call attends
    inside every subset of the scheme and returns the rows in flat order;
    the result then goes through residual + norm, feed-forward, residual +
    norm, as one tensor.add_norm_ffn node over cache-sized row tiles. A
    module records these two tape nodes.
    """
    return add_norm_ffn(subset_attention(x, params.attention, scheme), x, params)


def apply_block(
    x: Tensor, p1: PartitionScheme, p2: PartitionScheme, params: BlockParams
) -> Tensor:
    """Primary-partition module followed by the shifted-partition module.

    Rows in and out are flat element ids, (..., n_elements, D).
    """
    x = apply_module(x, p1, params.module_one)
    return apply_module(x, p2, params.module_two)
