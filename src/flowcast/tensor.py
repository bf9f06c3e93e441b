"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation on an input that requires grad records its inputs and a
backward closure on the output node, so calling backward() on a scalar
loss replays the recorded graph in reverse topological order. The replay
consumes the graph: each interior node drops its gradient, its parents and
its closure, with the forward arrays the closure saved, as soon as its
backward has run, so a graph can be backpropagated once. Inside a
no_grad() block nothing is recorded: each output is a plain constant, and
each intermediate array is freed once the next operation has used it.
All arrays are C-contiguous float64 and every computation is single
threaded and deterministic.

Each layer of the model is one op here, with a hand-written backward:
embed_rows, ranged_self_attention and add_norm_ffn, output_adapter and
masked_mae. An op that has parameters takes its layer's group, a
ParamGroup dataclass declared beside it (EmbeddingParams, AttentionParams,
ModuleParams, AdapterParams); the group's own tensors, in field order, are
the op's parents.

The two ops of an attention module keep only what is costly to
recompute and rebuild the rest in their backward from the same operands
with the same expressions, so the gradients are the same bits as if it
had been kept: ranged_self_attention keeps its head outputs and log
normalizers, D + H floats per row, and add_norm_ffn its second norm's
rows and inverse stds, D + 1. A backward that recomputes reads the
parameters as they are when it runs, so they must not change between
the forward and the backward; train() updates them only after backward.

On import the process heap is told to keep freed memory (glibc's mallopt;
a no-op where it is missing): every step's graph has the same shapes, so
the next step reuses the pages of the last one instead of faulting fresh
ones in from the kernel.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError

# glibc mallopt parameters and the value fixed for both. A high mmap
# threshold carves large arrays from the heap instead of mmapping each one
# fresh; a high trim threshold keeps the freed top of the heap from going
# back to the kernel. Fixing either one turns off glibc's sliding mmap
# threshold and leaves the other at its 128 KiB default, so one alone
# faults more pages than neither.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_RETAIN_BYTES = 1 << 30


def _retain_freed_pages() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for option in (_M_MMAP_THRESHOLD, _M_TRIM_THRESHOLD):
        mallopt(option, _HEAP_RETAIN_BYTES)


_retain_freed_pages()


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    # ascontiguousarray would promote 0-d scalars to shape (1,)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


_recording = True


@contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph inside the block: for forward-only inference."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A float64 array plus the bookkeeping for reverse-mode gradients.

    An op's output keeps its parents and backward_fn only while recording
    is on and some parent requires grad; otherwise it is a constant.
    """

    __slots__ = ("data", "parents", "backward_fn", "requires_grad", "grad")

    def __init__(
        self,
        data,
        parents: Sequence["Tensor"] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
        requires_grad: bool = False,
    ):
        self.data = _as_array(data)
        if _recording and any(p.requires_grad for p in parents):
            self.parents = tuple(parents)
            self.backward_fn = backward_fn
            self.requires_grad = True
        else:
            self.parents = ()
            self.backward_fn = None
            self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Param(Tensor):
    """A named leaf tensor whose gradient persists between backward calls."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(value, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def __repr__(self) -> str:
        return f"Param({self.name!r}, shape={self.shape})"


class ParamGroup:
    """Base for dataclasses of parameters: params() lists every Param in
    field order, descending into nested groups and lists of them."""

    def params(self) -> list[Param]:
        return _params_in([getattr(self, f.name) for f in fields(self)])

    def tensors(self) -> tuple[Tensor, ...]:
        """The group's own tensor fields in field order, nested groups left
        out: what the op that reads the group takes as its parents. The
        dataclass __init__ sets the fields in order, so the instance dict
        holds them in order, and reading it skips fields()' per-call cost."""
        return tuple([v for v in vars(self).values() if isinstance(v, Tensor)])


def _params_in(items: list) -> list[Param]:
    out: list[Param] = []
    for item in items:
        if isinstance(item, Param):
            out.append(item)
        elif isinstance(item, ParamGroup):
            out.extend(item.params())
        elif isinstance(item, list):
            out.extend(_params_in(item))
    return out


def constant(value) -> Tensor:
    """Wrap an array as a non-differentiable leaf."""
    return Tensor(value)


def _accumulate(parent: Tensor, grad: np.ndarray) -> None:
    """Add grad, which must have the parent's exact shape, to its gradient."""
    if grad.shape != parent.data.shape:
        raise ContractError(f"gradient of shape {grad.shape} for a parent of shape {parent.shape}")
    if not parent.requires_grad:
        return
    if parent.grad is None:
        # a copy, never the array: add_norm_ffn and embed_rows hand one to several parents
        parent.grad = np.array(grad, dtype=np.float64, order="C")
    else:
        parent.grad += grad


def _accumulate_windows(parent: Tensor, terms: np.ndarray) -> None:
    """Add a parameter's gradient terms, one per window, (windows, *shape)
    or a reshape of it, to its gradient one window at a time in window
    order: split into calls of whole windows, taken in order, the windows
    of a batch give the same sum, bit for bit, however they were split."""
    terms = terms.reshape((-1,) + parent.data.shape)
    _accumulate(parent, terms[0])
    if parent.requires_grad:
        for term in terms[1:]:
            parent.grad += term


def _consumed(g: np.ndarray) -> None:
    raise ContractError(
        "this graph was already backpropagated; rebuild the loss before calling backward() again"
    )


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad over the recorded graph.

    The loss must be a scalar. Gradients of leaves (Params and other
    tensors with no backward closure) persist until explicitly zeroed. The
    pass consumes the graph: once an interior node's backward has run, the
    node keeps its data but drops its gradient, its parents and its
    closure, so each array is freed as soon as nothing upstream needs it.
    Backpropagating a consumed graph again raises ContractError.
    """
    if loss.data.ndim != 0:
        raise ContractError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    # only op nodes enter the walk: a leaf's gradient arrives through
    # _accumulate, called by the closures of the ops that read it
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent.backward_fn is not None and id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones((), dtype=np.float64)
    while order:
        # popping drops the list's reference, so a node whose children have
        # all run is freed together with what its closure saved
        node = order.pop()
        if node.backward_fn is None:  # a leaf loss
            continue
        if node.grad is not None:
            node.backward_fn(node.grad)
        node.grad, node.parents, node.backward_fn = None, (), _consumed


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of one shape."""
    if a.shape != b.shape:
        raise ContractError(f"mul needs equal shapes, got {a.shape} and {b.shape}")
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return Tensor(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * factor)

    return Tensor(a.data * factor, (a,), bwd)


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of all elements, returned as a scalar tensor."""
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return Tensor(a.data.sum(), (a,), bwd)


# ---------------------------------------------------------------------------
# attention ops
# ---------------------------------------------------------------------------


def _with_column(a: np.ndarray, column: np.ndarray | float) -> np.ndarray:
    """[a | column]: a with one more entry on the last axis."""
    out = np.empty(a.shape[:-1] + (a.shape[-1] + 1,))
    out[..., :-1] = a
    out[..., -1:] = column
    return out


# Scores of magnitude at most this are exponentiated without a shift: every
# weight then lies in [e^-200, e^200], far from overflow and from subnormals,
# and a row total of m such weights stays finite for any m below 10^200.
_UNSHIFTED_SCORE_LIMIT = 200.0
# Shifted exponents are floored here before np.exp. Below about -708 exp
# returns subnormals, which cost some 40 times a normal exp; e^-700 stays a
# normal number after division by a row total of up to e^8.
_EXP_FLOOR = -700.0


def _needs_shift(q: np.ndarray, k: np.ndarray, factor: float) -> np.ndarray:
    """One decision per window: False where d_h * max|q * factor| * max|k|
    over the window, a bound on each of its |scores|, is at most
    _UNSHIFTED_SCORE_LIMIT; a NaN bound, from a non-finite input, fails
    the test too. q and k are the feature-major queries and keys,
    (..., H, d_h, M) each; the decisions are shaped as their leading axes."""
    axes = (-3, -2, -1)
    q_peak, k_peak = (
        np.maximum(a.max(axis=axes, initial=0.0), -a.min(axis=axes, initial=0.0)) for a in (q, k)
    )
    bound = k.shape[-2] * factor * q_peak * k_peak
    return ~(bound <= _UNSHIFTED_SCORE_LIMIT)


def _check_ranges(bounds: list[tuple[int, int]], n_rows: int) -> None:
    edges = [0] + [hi for _, hi in bounds]
    tiled = [lo for lo, _ in bounds] == edges[:-1] and edges[-1] == n_rows
    if not tiled or any(lo >= hi for lo, hi in bounds):
        raise ContractError(f"ranges {bounds} do not tile rows [0, {n_rows}) in order")


@dataclass
class AttentionParams(ParamGroup):
    """The maps of one multi-head attention, stacked over heads: value,
    query and key (H, D, d_h), a query bias (H, 1, d_h) and the output map
    (D, D); ranged_self_attention and attention_weights read them."""

    w_value: Param
    w_query: Param
    b_query: Param
    w_key: Param
    w_out: Param


def _check_maps(op: str, rows_shape: tuple[int, ...], params: AttentionParams) -> None:
    """Raise ContractError naming every map's shape unless the maps, stacked
    over heads as (H, D, d_h) with H * d_h = D, the query bias (H, 1, d_h)
    and the output map (D, D) fit rows (..., M, D)."""
    p = params
    heads, dim, head_dim = p.w_query.shape if p.w_query.ndim == 3 else (0, 0, 0)
    if (
        len(rows_shape) < 2
        or rows_shape[-1] != dim
        or heads * head_dim != dim
        or p.w_key.shape != p.w_query.shape
        or p.w_value.shape != p.w_query.shape
        or p.b_query.shape != (heads, 1, head_dim)
        or p.w_out.shape != (dim, dim)
    ):
        raise ContractError(
            f"{op} maps {p.w_query.shape}/{p.w_key.shape}/{p.w_value.shape}, query bias "
            f"{p.b_query.shape} and output {p.w_out.shape} do not fit rows {tuple(rows_shape)}"
        )


def _block_items(shape: tuple[int, ...], bounds: list[tuple[int, int]]) -> int:
    """Items of the largest range's (..., m, m) weight block for operands
    of shape (..., d, M), which one flat scratch buffer holds."""
    return math.prod(shape[:-2]) * max((hi - lo for lo, hi in bounds), default=0) ** 2


def _block(scratch: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous view of shape over the front of the flat scratch."""
    return scratch[: math.prod(shape)].reshape(shape)


def _attend(
    q_norm_t: np.ndarray,
    k_t: np.ndarray,
    v_one_t: np.ndarray,
    bounds: list[tuple[int, int]],
    shifted: np.ndarray,
    out_t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The forward range loop over feature-major operands.

    q_norm_t is (..., H, d_h + 1, M) with q / sqrt(d_h) in its first d_h
    rows, k_t the keys (..., H, d_h, M), and v_one_t [v | 1]^T,
    (..., H, d_v + 1, M). shifted holds one decision per row of the first
    axis, a window. Each range's scores are key-major, k @ q^T with k a
    transposed view of k_t, and its weights exp(scores), shifted by each
    query's max and floored at _EXP_FLOOR first in the windows whose
    decision is set; when any window's is, the others are shifted by 0.0,
    which with the floor leaves their bounded scores exact. The
    weights are never normalized: one GEMM of [v | 1]^T with them gives
    the outputs and, in the last row, each query's total. The outputs
    divided by the totals go to out_t, (..., H, d_v, M). Returns the
    totals and the shifts, (..., H, 1, M) each, the shifts 0.0 in
    unshifted windows, or None when no window shifts: a query's log
    normalizer is shift + log(total).

    Each range's (..., m, m) weights are one block over all of the call's
    windows, written by its score GEMM into one scratch buffer, sized for
    the largest range and allocated once per call. The callers' row
    budgets bound the windows a call holds, and with them the block.
    """
    d_v = v_one_t.shape[-2] - 1
    q_t = q_norm_t[..., :-1, :]
    mixed = np.empty(v_one_t.shape)
    shift = bool(shifted.any())
    peaks = np.zeros(v_one_t.shape[:-2] + (1, v_one_t.shape[-1])) if shift else None
    scratch = np.empty(_block_items(k_t.shape, bounds), dtype=k_t.dtype)
    for lo, hi in bounds:
        keys = np.swapaxes(k_t[..., lo:hi], -1, -2)
        weights = _block(scratch, keys.shape[:-1] + (hi - lo,))
        np.matmul(keys, q_t[..., lo:hi], out=weights)
        if shift:
            peak = peaks[..., lo:hi]
            np.max(weights, axis=-2, keepdims=True, out=peak)
            peak[~shifted] = 0.0
            weights -= peak
            np.maximum(weights, _EXP_FLOOR, out=weights)
        np.exp(weights, out=weights)
        np.matmul(v_one_t[..., lo:hi], weights, out=mixed[..., lo:hi])
    totals = mixed[..., d_v:, :]
    np.divide(mixed[..., :d_v, :], totals, out=out_t)
    return totals, peaks


def _attend_grad(
    q_norm_t: np.ndarray,
    k_one: np.ndarray,
    v_one_t: np.ndarray,
    g_t: np.ndarray,
    out_t: np.ndarray,
    bounds: list[tuple[int, int]],
    shifted: np.ndarray,
    factor: float,
    grads_t: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """The backward range loop: from [q | -log_norm]^T, the key rows
    [k | 1], _attend's [v | 1]^T and out_t, and the output gradient g_t,
    (..., H, d_v, M), writes the query, key and value gradients
    feature-major into grads_t, (..., H, d, M) each. As in FlashAttention,
    each range's weights are recomputed as exp([k | 1] @ [q | -log_norm]^T),
    one GEMM and one exp, floored at _EXP_FLOOR first when _attend shifted
    any window; the other windows' exponents are at least -400 - log m, so
    the floor leaves them exact. Two scratch buffers allocated once per
    call hold a range's weights and their gradient, as in _attend; grads_t
    may be strided views of one buffer, since each range writes through
    slices of them.
    """
    dq_t, dk_t, dv_t = grads_t
    d_v = g_t.shape[-2]
    # row softmax backward needs <dL/dalpha_i, alpha_i>, which equals
    # <g_i, out_i> because out_i = sum_j alpha_ij v_j; the augmented
    # rows and columns fold it and the log normalizer into the GEMMs
    g_inner_t = np.empty(g_t.shape[:-2] + (d_v + 1, g_t.shape[-1]))
    g_inner_t[..., :d_v, :] = g_t
    np.negative((g_t * out_t).sum(axis=-2, keepdims=True), out=g_inner_t[..., d_v:, :])
    k_t = np.swapaxes(k_one[..., :-1], -1, -2)
    v_one = np.swapaxes(v_one_t, -1, -2)
    shift = bool(shifted.any())
    scratch = np.empty((2, _block_items(k_one.shape, bounds)), dtype=k_one.dtype)
    for lo, hi in bounds:
        keys = k_one[..., lo:hi, :]
        shape = keys.shape[:-1] + (hi - lo,)
        weights, d_scores = _block(scratch[0], shape), _block(scratch[1], shape)
        np.matmul(keys, q_norm_t[..., lo:hi], out=weights)
        if shift:
            np.maximum(weights, _EXP_FLOOR, out=weights)
        np.exp(weights, out=weights)
        np.matmul(g_inner_t[..., :d_v, lo:hi], np.swapaxes(weights, -1, -2), out=dv_t[..., lo:hi])
        np.matmul(v_one[..., lo:hi, :], g_inner_t[..., lo:hi], out=d_scores)
        d_scores *= weights
        np.matmul(k_t[..., lo:hi], d_scores, out=dq_t[..., lo:hi])
        np.matmul(q_norm_t[..., :-1, lo:hi], np.swapaxes(d_scores, -1, -2), out=dk_t[..., lo:hi])
    dq_t *= factor


def _packed_maps(params: AttentionParams) -> np.ndarray:
    """[W_q | W_k | W_v]^T, (3D, D), from the maps stacked over heads,
    (H, D, d_h) each: row h * d_h + j of each block is head h's column j."""
    return np.concatenate([
        np.swapaxes(w.data, -1, -2).reshape(-1, w.shape[-2])
        for w in (params.w_query, params.w_key, params.w_value)
    ])


def _operand_maps(params: AttentionParams) -> tuple[np.ndarray, np.ndarray]:
    """_attention_operands' map stack and query bias: _packed_maps' rows
    plus a zero row after each head's query and value maps, (3D + 2H, D),
    and the query bias as a column over the stack's first H * (d_h + 1)
    rows, zero in each head's spare row."""
    heads, dim, head_dim = params.w_query.shape
    q_end = heads * (head_dim + 1)
    maps = np.zeros((3 * dim + 2 * heads, dim))
    for block, w in ((maps[:q_end], params.w_query), (maps[q_end + dim :], params.w_value)):
        block.reshape(heads, head_dim + 1, dim)[:, :-1] = np.swapaxes(w.data, -1, -2)
    maps[q_end : q_end + dim] = np.swapaxes(params.w_key.data, -1, -2).reshape(dim, dim)
    bias = np.zeros((heads, head_dim + 1, 1))
    bias[:, :-1] = np.swapaxes(params.b_query.data, -1, -2)
    return maps, bias.reshape(q_end, 1)


def _attention_operands(
    rows: np.ndarray,
    params: AttentionParams,
    shifted: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float, np.ndarray]:
    """_attend's operands for rows (..., M, D), views of one GEMM of the
    rows transposed with _operand_maps' stack, (3D + 2H, D):
    [q / sqrt(d_h) | 0]^T, (..., H, d_h + 1, M), its last row left to the
    log normalizers; the keys, (..., H, d_h, M); [v | 1]^T; then
    1 / sqrt(d_h) and _needs_shift's answer, one per window. The bias, the
    scale and the ones row are written in place. A shifted given is
    returned as the answer, and _needs_shift is not asked.
    """
    heads, dim, head_dim = params.w_query.shape
    q_end = heads * (head_dim + 1)
    maps, bias = _operand_maps(params)
    qkv = maps @ np.swapaxes(rows, -1, -2)
    per_head = qkv.shape[:-2] + (heads, -1, rows.shape[-2])
    # bias and scale run over the whole query block, zero rows too: numpy copies a
    # view strided at both the batch and the head axis before updating it in place
    q_block = qkv[..., :q_end, :]
    q_block += bias
    q_norm_t = q_block.reshape(per_head)
    k_t = qkv[..., q_end : q_end + dim, :].reshape(per_head)
    v_one_t = qkv[..., q_end + dim :, :].reshape(per_head)
    v_one_t[..., -1, :] = 1.0
    factor = 1.0 / np.sqrt(float(head_dim))
    if shifted is None:
        shifted = _needs_shift(q_norm_t[..., :-1, :], k_t, factor)
    q_block *= factor
    return q_norm_t, k_t, v_one_t, factor, shifted


def attention_weights(rows: np.ndarray, params: AttentionParams) -> np.ndarray:
    """Softmax weights of rows (..., m, D) attending to one another,
    (..., H, m, m), query-major; forward only. The operands are
    ranged_self_attention's, over the leading axes laid out as one window
    axis, and _attend runs over the one range [0, m) with [I | 1]^T as
    values, so each output row is one query's weights.
    """
    _check_maps("attention_weights", rows.shape, params)
    m = rows.shape[-2]
    _check_ranges([(0, m)], m)
    q_norm_t, k_t, _, _, shifted = _attention_operands(rows.reshape((-1,) + rows.shape[-2:]), params)
    identity_one_t = np.empty(q_norm_t.shape[:-2] + (m + 1, m))
    identity_one_t[..., :m, :] = np.eye(m)
    identity_one_t[..., m, :] = 1.0
    weights = np.empty(k_t.shape[:-2] + (m, m))
    _attend(q_norm_t, k_t, identity_one_t, [(0, m)], shifted, np.swapaxes(weights, -1, -2))
    return weights.reshape(rows.shape[:-2] + weights.shape[1:])


def ranged_self_attention(
    x: Tensor,
    params: AttentionParams,
    bounds: list[tuple[int, int]],
    order: np.ndarray,
    inverse: np.ndarray,
) -> Tensor:
    """Multi-head self-attention inside row ranges, with its projections; one tape node.

    x is (..., M, D). The rows x[..., order, :] are attended range by
    range: a row attends only to rows of its own range, so no value or
    gradient crosses a range. The result goes back through the inverse
    permutation, so the output is (..., M, D) in x's row order. params
    holds the query, key and value maps stacked over heads, (H, D, d_h),
    with a query bias (H, 1, d_h); keys carry no bias, as the softmax would
    cancel it. Head outputs laid side by side go through w_out, (D, D).

    The leading axes of x are laid out as one axis of windows; unbatched
    rows are one window. Once per window, the bound
    d_h * max|q / sqrt(d_h)| * max|k| over the window caps every |score| at
    O(M d_h) cost. When it is at most _UNSHIFTED_SCORE_LIMIT, each range's
    weights are exp(scores) with no shift; otherwise, or when an input is
    not finite, each query's scores are shifted by their exact max and
    floored at _EXP_FLOOR first. So no window's output depends on the
    windows it is batched with.

    The forward is one np.take by order, _attention_operands' GEMM into
    one (W, 3D + 2H, M) buffer, the range loop of _attend over its views
    q^T / sqrt(d_h), k^T and [v | 1]^T, which writes the head outputs as
    (W, H, d_h, M) = (W, D, M), one output GEMM and one np.take by
    inverse; the buffer is freed before the output GEMM. Only when the
    output records a graph does the op keep the head outputs, each
    query's negated log normalizer, (W, H, 1, M), and the shift
    decisions: D + H floats per row.

    The backward recomputes the rest: it gathers x by order, rebuilds the
    operands with the forward's shift decisions, writes the kept log
    normalizers into the spare query rows, recomputes the weights range
    by range in _attend_grad, and writes the query, key and value
    gradients into one (W, 3D, M) buffer. The w_out, query bias and map
    gradients are one term per window (_accumulate_windows). The backward
    reads the parameters as they are when it runs, so they must not change
    between the forward and the backward. Both range loops compute a
    range's (W, H, m, m) weights as one block in scratch allocated once per
    call; the model's row budgets cap W, and with it the block.
    """
    _check_maps("ranged_self_attention", x.shape, params)
    n_rows, dim = x.shape[-2:]
    _check_ranges(bounds, n_rows)
    if not _inverse_permutations(order, inverse, n_rows):
        raise ContractError(f"order and inverse are not inverse permutations of {n_rows} rows")
    parents = (x, *params.tensors())
    w_out = params.w_out
    windows = (-1, n_rows, dim)
    q_norm_t, k_t, v_one_t, factor, shifted = _attention_operands(
        np.take(x.data.reshape(windows), order, axis=1), params
    )
    per_head = k_t.shape
    heads_t = np.empty(per_head[:1] + (dim, n_rows))
    totals, peaks = _attend(q_norm_t, k_t, v_one_t, bounds, shifted, heads_t.reshape(per_head))
    del q_norm_t, k_t, v_one_t
    keep = _recording and any(p.requires_grad for p in parents)
    if keep:
        neg_log_norm = np.log(totals)
        if peaks is not None:
            neg_log_norm += peaks
        np.negative(neg_log_norm, out=neg_log_norm)
    del totals, peaks  # _attend's sums, and with them the operands, go before the output GEMM
    out = np.take(np.swapaxes(heads_t, -1, -2) @ w_out.data, inverse, axis=1).reshape(x.shape)
    if not keep:
        return Tensor(out)

    def bwd(g: np.ndarray) -> None:
        rows = np.take(x.data.reshape(windows), order, axis=1)
        g_rows = np.take(g.reshape(windows), order, axis=1)
        _accumulate_windows(w_out, np.matmul(heads_t, g_rows))
        g_t = w_out.data @ np.swapaxes(g_rows, -1, -2)
        del g_rows
        q_norm_t, k_t, v_one_t, _, _ = _attention_operands(rows, params, shifted)
        q_norm_t[..., -1:, :] = neg_log_norm
        dqkv = np.empty(per_head[:1] + (3,) + per_head[1:])
        _attend_grad(
            q_norm_t, _with_column(np.swapaxes(k_t, -1, -2), 1.0), v_one_t, g_t.reshape(per_head),
            heads_t.reshape(per_head), bounds, shifted, factor, (dqkv[:, 0], dqkv[:, 1], dqkv[:, 2]),
        )
        del q_norm_t, k_t, v_one_t, g_t
        dqkv = dqkv.reshape(per_head[:1] + (3 * dim, n_rows))
        _accumulate_windows(params.b_query, dqkv[:, :dim].sum(axis=-1))
        d_maps = np.matmul(dqkv, rows).reshape(per_head[:1] + (3,) + per_head[1:-1] + (dim,))
        for i, param in enumerate((params.w_query, params.w_key, params.w_value)):
            _accumulate_windows(param, np.swapaxes(d_maps[:, i], -1, -2))
        d_x = np.take(np.swapaxes(dqkv, -1, -2) @ _packed_maps(params), inverse, axis=1)
        _accumulate(x, d_x.reshape(x.shape))

    return Tensor(out, parents, bwd)


def _inverse_permutations(order, inverse, n_rows: int) -> bool:
    """True when order and inverse are index arrays of n_rows entries with
    inverse[order] = 0, 1, ..., n_rows - 1."""
    if {np.shape(order), np.shape(inverse)} != {(n_rows,)}:
        return False
    try:
        return np.array_equal(np.take(inverse, order), np.arange(n_rows))
    except (IndexError, TypeError):
        return False


# ---------------------------------------------------------------------------
# normalization ops
# ---------------------------------------------------------------------------


# Added to each row's variance before its inverse square root.
_NORM_EPS = 1e-5


def _row_tiles(rows: int, *vectors: Tensor) -> np.ndarray:
    """Vectors of one width, each repeated down rows rows: (len(vectors), rows,
    width). An op with a tile runs one contiguous loop where a broadcast
    vector runs one loop per row."""
    return np.repeat(np.array([v.data for v in vectors])[:, None, :], rows, axis=1)


def _norm_rows(a: np.ndarray, row_mean: np.ndarray) -> np.ndarray:
    """Bring each row of a to zero mean and unit population variance in
    place, and return each row's inverse std, (..., 1). row_mean is a
    (width, 1) column of 1/width: BLAS runs the row means as GEMVs faster
    than numpy reduces over the last axis. A GEMV rounds a row by where it
    sits among the GEMV's rows, so callers hand a window's rows as one
    (rows, width) slice of a: then each window rounds alone."""
    a -= a @ row_mean
    inv = (a * a) @ row_mean
    inv += _NORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    a *= inv
    return inv


def _norm_rows_grad(
    gx: np.ndarray,
    xhat: np.ndarray,
    inv: np.ndarray,
    row_mean: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """d(loss)/d(a) for (xhat, inv) = _norm_rows(a), given gx = d(loss)/d(xhat)."""
    term = gx - gx @ row_mean - xhat * ((gx * xhat) @ row_mean)
    return np.multiply(term, inv, out=out)


# Rows per tile of add_norm_ffn. A 512-row tile's (512, 4D) hidden and its
# (512, D) rows stay in a 2 MiB L2 at D = 16. At 20,160 rows and D = 16, on
# one core of a 2-vCPU VM with one OpenBLAS thread, tiles of 128, 256, 512,
# 1024 and 2048 rows ran the forward plus backward in 46.1, 34.2, 32.3, 37.1
# and 38.5 ms, against 49.7 ms in one tile.
_TILE_ROWS = 512


def _window_tiles(n_windows: int, rows: int) -> list[tuple[int, int, int]]:
    """add_norm_ffn's tiles over n_windows windows of rows rows each, as
    (lo, hi, windows) in row order. A tile never spans a window boundary:
    it is a run of as many whole windows as fit in _TILE_ROWS rows, or,
    where one window is larger, a piece of _TILE_ROWS rows or fewer of one
    window. windows counts the tile's whole windows, 1 for a piece."""
    if rows <= _TILE_ROWS:
        per = _TILE_ROWS // max(rows, 1)
        starts = range(0, n_windows, per)
        return [(w * rows, min(w + per, n_windows) * rows, min(per, n_windows - w)) for w in starts]
    return [
        (w * rows + lo, w * rows + min(lo + _TILE_ROWS, rows), 1)
        for w in range(n_windows)
        for lo in range(0, rows, _TILE_ROWS)
    ]


def _by_window(a: np.ndarray, windows: int) -> np.ndarray:
    """A tile's (rows, width) array as (windows, rows / windows, width),
    or as it is for one window."""
    return a if windows == 1 else a.reshape(windows, -1, a.shape[-1])


def _ffn_first_half(
    a: np.ndarray,
    x: np.ndarray,
    row_mean: np.ndarray,
    windows: int,
    g1: np.ndarray,
    beta1: np.ndarray,
    w1: np.ndarray,
    b1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One tile of add_norm_ffn, of windows windows, up to its hidden rows:
    the normalized rows of a + x and their inverse stds,
    y = norm1 * g1 + beta1 and h = relu(y w1 + b1), with g1, beta1 and b1
    in the tile's shape. The forward and the backward, which recomputes
    it, both call this, so both get the same bits."""
    norm1 = a + x
    inv1 = _norm_rows(_by_window(norm1, windows), row_mean).reshape(-1, 1)
    y = norm1 * g1
    y += beta1
    h = y @ w1
    h += b1
    np.maximum(h, 0.0, out=h)
    return norm1, inv1, y, h


@dataclass
class ModuleParams(ParamGroup):
    """One attention module: its attention's maps, which
    ranged_self_attention reads, then the feed-forward weights and both
    layer norms' affines, in the order add_norm_ffn unpacks them."""

    attention: AttentionParams
    w_ffn1: Param
    b_ffn1: Param
    w_ffn2: Param
    b_ffn2: Param
    norm1_gain: Param
    norm1_bias: Param
    norm2_gain: Param
    norm2_bias: Param


def add_norm_ffn(attended: Tensor, x: Tensor, params: ModuleParams) -> Tensor:
    """LN2(relu(y W1 + b1) W2 + b2 + y), where y = LN1(attended + x); one tape node.

    attended and x are (..., D). The op reads the module's own fields, not
    its attention's maps: W1 = w_ffn1 is (D, H), W2 = w_ffn2 (H, D), b1
    (H,), and b2 and each layer norm's gain and bias (D,). The same ops
    taped one by one would stream every (rows, D) and (rows, H)
    intermediate through memory nine times; here the rows run in tiles of _TILE_ROWS, so each
    tile's intermediates stay in cache from the residual to the output.

    The rows (..., M, D) are windows of M rows each, and no tile spans
    two windows (_window_tiles), so each window's rows round alike in any
    batch. Each bias and gain is laid out once per call in a tile's shape,
    and the backward does not keep those. Only when the output records a
    graph does the forward keep, per tile, the second norm's normalized
    rows and their inverse stds, D + 1 floats per row; under no_grad it
    keeps nothing. The backward walks the same tiles and rebuilds the rest
    from attended and x, whose arrays the tape holds anyway, with the
    forward's own expressions on the same tile operands, so with the same
    bits: the first norm's rows and inverse stds, y, and the post-relu
    hidden relu(y W1 + b1). It reads the weights as they are when it runs,
    so they must not change between the forward and the backward. Each
    weight gradient is one GEMM per window of a tile and each bias or gain
    gradient a ones-row GEMV per window, summed over a window's tiles into
    one term per window (_accumulate_windows).
    """
    if attended.shape != x.shape or x.ndim < 1:
        raise ContractError(f"add_norm_ffn needs equal input shapes, got {attended.shape} and {x.shape}")
    weights = params.tensors()
    w1, b1, w2, b2, g1, beta1, g2, beta2 = weights
    width = x.shape[-1]
    hidden = w1.shape[-1] if w1.ndim == 2 else -1
    affine = (b2, g1, beta1, g2, beta2)
    if (
        w1.shape != (width, hidden)
        or b1.shape != (hidden,)
        or w2.shape != (hidden, width)
        or any(p.shape != (width,) for p in affine)
    ):
        raise ContractError(
            f"add_norm_ffn weights {w1.shape}/{b1.shape}/{w2.shape}/{b2.shape} and norm "
            f"affines {'/'.join(str(p.shape) for p in affine[1:])} do not fit width {width}"
        )
    parents = (attended, x, *weights)
    keep = _recording and any(p.requires_grad for p in parents)
    a_rows = attended.data.reshape(-1, width)
    x_rows = x.data.reshape(-1, width)
    n_rows = x_rows.shape[0]
    window = x.shape[-2] if x.ndim > 1 else 1
    n_windows = n_rows // max(window, 1)
    tiles = _window_tiles(n_windows, window)
    row_mean = np.full((width, 1), 1.0 / width)
    out = np.empty(x.data.shape)
    out_rows = out.reshape(-1, width)
    tile_rows = max((hi - lo for lo, hi, _ in tiles), default=0)
    g1_tile, beta1_tile, b2_tile, g2_tile, beta2_tile = _row_tiles(tile_rows, g1, beta1, b2, g2, beta2)
    (b1_tile,) = _row_tiles(tile_rows, b1)
    kept: list[tuple[np.ndarray, ...]] = []
    for lo, hi, k in tiles:
        n = hi - lo
        _, _, y, h = _ffn_first_half(
            a_rows[lo:hi], x_rows[lo:hi], row_mean, k, g1_tile[:n], beta1_tile[:n], w1.data, b1_tile[:n]
        )
        f = h @ w2.data
        f += b2_tile[:n]
        f += y
        inv2 = _norm_rows(_by_window(f, k), row_mean).reshape(-1, 1)
        np.multiply(f, g2_tile[:n], out=out_rows[lo:hi])
        out_rows[lo:hi] += beta2_tile[:n]
        if keep:
            kept.append((f, inv2))

    def bwd(g: np.ndarray) -> None:
        g_rows = g.reshape(-1, width)
        d_rows = np.empty(x_rows.shape)
        # each weight's gradient terms per window, a bias or gain's as rows
        terms = [np.zeros((n_windows,) + (1,) * (p.ndim == 1) + p.shape) for p in weights]
        ones = np.ones((1, tile_rows))
        # BLAS reads a contiguous transpose faster than a transposed view
        w1_t, w2_t = np.ascontiguousarray(w1.data.T), np.ascontiguousarray(w2.data.T)
        g1_tile, beta1_tile = _row_tiles(tile_rows, g1, beta1)
        (b1_tile,) = _row_tiles(tile_rows, b1)
        for (lo, hi, k), (norm2, inv2) in zip(tiles, kept):
            n = hi - lo
            norm1, inv1, y, h = _ffn_first_half(
                a_rows[lo:hi], x_rows[lo:hi], row_mean, k, g1_tile[:n], beta1_tile[:n], w1.data, b1_tile[:n]
            )
            at = slice(lo // window, lo // window + k)  # the tile's windows
            d_w1, d_b1, d_w2, d_b2, d_g1, d_beta1, d_g2, d_beta2 = (t[at] for t in terms)
            g_tile = _by_window(g_rows[lo:hi], k)
            ones_tile = ones[:, : n // k]
            norm2, inv2 = _by_window(norm2, k), _by_window(inv2, k)
            d_beta2 += ones_tile @ g_tile
            d_g2 += ones_tile @ (g_tile * norm2)
            d_f = _norm_rows_grad(g_tile * g2.data, norm2, inv2, row_mean)
            d_b2 += ones_tile @ d_f
            d_w2 += np.swapaxes(_by_window(h, k), -1, -2) @ d_f
            d_h = d_f.reshape(n, width) @ w2_t
            d_h *= h > 0.0
            d_b1 += ones_tile @ _by_window(d_h, k)
            d_w1 += np.swapaxes(_by_window(y, k), -1, -2) @ _by_window(d_h, k)
            d_y = _by_window(d_h @ w1_t, k)
            d_y += d_f
            norm1 = _by_window(norm1, k)
            d_beta1 += ones_tile @ d_y
            d_g1 += ones_tile @ (d_y * norm1)
            _norm_rows_grad(
                d_y * g1.data, norm1, _by_window(inv1, k), row_mean, out=_by_window(d_rows[lo:hi], k)
            )
        d_in = d_rows.reshape(x.data.shape)
        _accumulate(attended, d_in)
        _accumulate(x, d_in)
        for param, grad in zip(weights, terms):
            _accumulate_windows(param, grad)

    return Tensor(out, parents, bwd)


# ---------------------------------------------------------------------------
# model boundary ops: the embedding, the output adapter and the loss
# ---------------------------------------------------------------------------


def _rows(a: np.ndarray) -> np.ndarray:
    """a as rows over its last axis, (-1, width)."""
    return a.reshape(-1, a.shape[-1])


def _calendar_rows(
    w_tpe: np.ndarray, b_tpe: np.ndarray, day_rows: np.ndarray, step_rows: np.ndarray
) -> np.ndarray:
    """w_tpe[day_rows] + w_tpe[step_rows] + b_tpe: the product of the
    calendar's two-hot rows with w_tpe, plus b_tpe, without the one-hot
    GEMM, whose other terms are exact zeros."""
    rows = w_tpe[day_rows]
    rows += w_tpe[step_rows]
    rows += b_tpe
    return rows


@dataclass
class EmbeddingParams(ParamGroup):
    """The input embedding's maps and biases, then the mix and the layer
    norm's affine, in the order embed_rows unpacks them."""

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


def embed_rows(
    values: np.ndarray,
    coords: np.ndarray,
    day_rows: np.ndarray,
    step_rows: np.ndarray,
    params: EmbeddingParams,
) -> Tensor:
    """LN((v W_in + b_in + c W_spe + b_spe + t + b_tpe) W_mix + b_mix) as rows; one tape node.

    values is a signal window (..., N, T, C), coords the nodes' spatial
    coordinates (N, K), and day_rows and step_rows the rows of w_tpe that
    tag each step, (..., T) or one (T,) calendar for every window;
    t = w_tpe[day_rows] + w_tpe[step_rows]. The spatial terms broadcast
    over time and the calendar terms over nodes, and LN is a layer norm
    with the affine norm_gain and norm_bias. The output is (..., T·N, D):
    row time · N + node holds that element.

    The sum before the mix is built in one buffer, the projections are one
    GEMM each over (rows, width) views, and the norm runs in place on the
    mix output, with b_in, b_mix and the norm's affine laid out as (N, D)
    tiles. Only when the output records a graph does the op keep that sum,
    the normalized rows and their inverse stds; under no_grad the sum is
    freed before the norm. The backward takes every parameter's gradient
    as one term per window (_accumulate_windows), on (windows, T·N, D)
    views: the three biases b_in, b_spe and b_tpe share one gradient, a
    ones-row GEMV, and the calendar rows' gradient goes into w_tpe's
    through one GEMM with each window's transposed two-hot code.
    """
    parents = params.tensors()
    w_in, b_in, w_spe, b_spe, w_tpe, b_tpe, w_mix, b_mix, gain, bias = parents
    dim = w_mix.shape[-1] if w_mix.ndim == 2 else -1
    t_steps = values.shape[-2] if values.ndim >= 3 else -1
    inputs_fit = (
        t_steps >= 0
        and coords.ndim == 2
        and w_tpe.ndim == 2
        and coords.shape[0] == values.shape[-3]
        and day_rows.shape == step_rows.shape
        and day_rows.shape in {(t_steps,), values.shape[:-3] + (t_steps,)}
    )
    wanted = (
        (values.shape[-1], dim), (dim,), (coords.shape[-1], dim), (dim,), (w_tpe.shape[0], dim),
        (dim,), (dim, dim), (dim,), (dim,), (dim,),
    ) if inputs_fit else ()
    if not inputs_fit or any(p.shape != shape for p, shape in zip(parents, wanted)):
        raise ContractError(
            f"embed_rows parameters {'/'.join(str(p.shape) for p in parents)} do not fit "
            f"values {values.shape}, coordinates {coords.shape} and calendar "
            f"{day_rows.shape}/{step_rows.shape}"
        )
    keep = _recording and any(p.requires_grad for p in parents)
    signal = np.ascontiguousarray(np.swapaxes(values, -3, -2))  # (..., T, N, C)
    grid = signal.shape[:-1] + (dim,)
    b_in_nodes, b_mix_nodes, gain_nodes, bias_nodes = _row_tiles(grid[-2], b_in, b_mix, gain, bias)
    x = (_rows(signal) @ w_in.data).reshape(grid)
    x += b_in_nodes
    spatial = coords @ w_spe.data
    spatial += b_spe.data
    x += spatial
    x += _calendar_rows(w_tpe.data, b_tpe.data, day_rows, step_rows)[..., None, :]
    norm = (_rows(x) @ w_mix.data).reshape(grid)
    norm += b_mix_nodes
    if not keep:
        x = None
    # on the (..., T, N, D) grid numpy runs the norm's row means as one GEMV
    # per (N, D) slice; one GEMV over all rows would sum in another order
    row_mean = np.full((dim, 1), 1.0 / dim)
    inv = _norm_rows(norm, row_mean)
    out = norm * gain_nodes if keep else np.multiply(norm, gain_nodes, out=norm)
    out += bias_nodes
    flat = out.reshape(grid[:-3] + (-1, dim))
    if not keep:
        return Tensor(flat)

    def bwd(g: np.ndarray) -> None:
        n_steps, n_nodes, dim = grid[-3:]
        windows = (-1, n_steps * n_nodes, dim)
        g_rows, norm_rows = g.reshape(windows), norm.reshape(windows)
        # a ones-row GEMV's (1, D) product per window is a bias or gain term
        ones = np.ones((1, g_rows.shape[1]))
        _accumulate_windows(bias, ones @ g_rows)
        _accumulate_windows(gain, ones @ (g_rows * norm_rows))
        d_mix = _norm_rows_grad((g_rows * gain.data).reshape(grid), norm, inv, row_mean).reshape(windows)
        _accumulate_windows(b_mix, ones @ d_mix)
        _accumulate_windows(w_mix, np.swapaxes(x.reshape(windows), -1, -2) @ d_mix)
        d_x = d_mix @ w_mix.data.T
        d_shared = ones @ d_x
        for shared in (b_in, b_spe, b_tpe):
            _accumulate_windows(shared, d_shared)
        _accumulate_windows(w_in, np.swapaxes(signal.reshape(windows[:2] + signal.shape[-1:]), -1, -2) @ d_x)
        per_step = d_x.reshape(-1, n_steps, n_nodes * dim)  # (windows, steps, N·D)
        d_spatial = (ones[:, :n_steps] @ per_step).reshape(-1, n_nodes, dim)
        _accumulate_windows(w_spe, coords.T @ d_spatial)
        # each step's gradient goes to its day row and its step row
        d_calendar = np.einsum("snd->sd", d_x.reshape(-1, n_nodes, dim)).reshape(-1, n_steps, dim)
        two_hot = np.zeros((len(d_calendar), w_tpe.shape[0], n_steps))
        at = (np.arange(len(two_hot))[:, None], np.arange(n_steps))
        for index in (day_rows, step_rows):
            two_hot[at[0], np.broadcast_to(index, grid[:-2]).reshape(-1, n_steps), at[1]] += 1.0
        _accumulate_windows(w_tpe, two_hot @ d_calendar)

    return Tensor(flat, parents, bwd)


@dataclass
class AdapterParams(ParamGroup):
    """Per-node temporal remap T -> T' and channel projection D -> C, in
    the order output_adapter unpacks them."""

    w_time: Param
    b_time: Param
    w_out: Param
    b_out: Param


def output_adapter(x: Tensor, params: AdapterParams) -> Tensor:
    """(w_time @ x viewed as (..., T, N·D) + b_time) @ w_out + b_out per node; one tape node.

    x is rows (..., T·N, D) in flat element order, time · N + node; w_time
    is (t_out, T), b_time (D,), w_out (D, C) and b_out (C,). The time map
    remaps T to t_out for every node in one product and the channel map
    projects D to C; the output is (..., N, t_out, C). Only when the output
    records a graph does the op keep the time map's output, with b_time
    added; the backward takes every parameter's gradient as one term per
    window (_accumulate_windows), the channel map's over (windows, rows,
    width) views.
    """
    parents = (x, *params.tensors())
    _, w_time, b_time, w_out, b_out = parents
    t_out, t_in = w_time.shape if w_time.ndim == 2 else (0, 0)
    dim = x.shape[-1] if x.ndim >= 2 else -1
    channels = w_out.shape[-1] if w_out.ndim == 2 else -1
    if (
        x.ndim < 2
        or t_in == 0
        or x.shape[-2] % t_in
        or b_time.shape != (dim,)
        or w_out.shape != (dim, channels)
        or b_out.shape != (channels,)
    ):
        raise ContractError(
            f"output_adapter maps {w_time.shape}/{b_time.shape}/{w_out.shape}/{b_out.shape} "
            f"do not fit rows {x.shape}"
        )
    lead, n_nodes = x.shape[:-2], x.shape[-2] // t_in
    x_time = x.data.reshape(lead + (t_in, n_nodes * dim))
    hidden = (w_time.data @ x_time).reshape(lead + (t_out, n_nodes, dim))
    hidden += b_time.data
    y = hidden @ w_out.data
    y += b_out.data
    out = np.ascontiguousarray(np.swapaxes(y, -3, -2))
    if not (_recording and any(p.requires_grad for p in parents)):
        return Tensor(out)

    def bwd(g: np.ndarray) -> None:
        per_window = (-1, t_out * n_nodes)
        g_rows = np.ascontiguousarray(np.swapaxes(g, -3, -2)).reshape(per_window + (channels,))
        hidden_rows = hidden.reshape(per_window + (dim,))
        ones = np.ones((1, g_rows.shape[1]))
        _accumulate_windows(b_out, ones @ g_rows)
        _accumulate_windows(w_out, np.swapaxes(hidden_rows, -1, -2) @ g_rows)
        d_hidden = g_rows @ w_out.data.T
        _accumulate_windows(b_time, ones @ d_hidden)
        d_time = d_hidden.reshape(lead + (t_out, n_nodes * dim))
        _accumulate_windows(w_time, d_time @ np.swapaxes(x_time, -1, -2))
        _accumulate(x, (w_time.data.T @ d_time).reshape(x.data.shape))

    return Tensor(out, parents, bwd)


def masked_mae(
    pred: Tensor,
    truth: np.ndarray,
    mask: np.ndarray,
    kept: int | None = None,
    terms: np.ndarray | None = None,
) -> Tensor:
    """Σ |pred − truth| · mask / max(kept, 1), a scalar; one tape node.

    truth and mask have pred's shape, and kept is Σ mask unless given: a
    training step that runs its batch in chunks gives the whole batch's
    count. The per-point terms |pred − truth| · mask are written into
    terms, an array of pred's shape, when it is given. The gradient is
    sign(pred − truth) · mask / max(kept, 1), zero where pred equals
    truth; only when the output records a graph does the op keep
    sign(pred − truth) · mask for it.
    """
    if truth.shape != pred.shape or mask.shape != pred.shape:
        raise ContractError(
            f"masked_mae needs truth {truth.shape} and mask {mask.shape} shaped as pred {pred.shape}"
        )
    weights = mask.astype(np.float64)
    factor = 1.0 / max(int(mask.sum()) if kept is None else kept, 1)
    error = np.subtract(pred.data, truth, out=terms)
    keep = _recording and pred.requires_grad
    if keep:
        slope = np.sign(error)
        slope *= weights
    np.abs(error, out=error)
    error *= weights
    loss = error.sum() * factor
    if not keep:
        return Tensor(loss)

    def bwd(g: np.ndarray) -> None:
        _accumulate(pred, slope * (g * factor))

    return Tensor(loss, (pred,), bwd)
