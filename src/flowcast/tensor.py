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

On import the process heap is told to keep freed memory (glibc's mallopt;
a no-op where it is missing): every step's graph has the same shapes, so
the next step reuses the pages of the last one instead of faulting fresh
ones in from the kernel.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import fields
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

    # Operator sugar. Scalars are lifted to constant tensors where needed.
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __neg__(self):
        return scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            raise ContractError("tensor division is only supported by a python scalar")
        return scale(self, 1.0 / float(other))

    def __matmul__(self, other):
        return matmul(self, _lift(other))


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


def _lift(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def constant(value) -> Tensor:
    """Wrap an array as a non-differentiable leaf."""
    return Tensor(value)


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
    if not parent.requires_grad:
        return
    grad = _unbroadcast(grad, parent.data.shape)
    if parent.grad is None:
        # a copy, never the array itself: add hands one g to both parents
        parent.grad = np.array(grad, dtype=np.float64, order="C")
    else:
        parent.grad += grad


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
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones((), dtype=np.float64)
    while order:
        # popping drops the list's reference, so a node whose children have
        # all run is freed together with what its closure saved
        node = order.pop()
        if node.backward_fn is None:
            continue
        if node.grad is not None:
            node.backward_fn(node.grad)
        node.grad, node.parents, node.backward_fn = None, (), _consumed


# ---------------------------------------------------------------------------
# elementwise and structural ops
# ---------------------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return Tensor(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, -g)

    return Tensor(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * b.data)
        _accumulate(b, g * a.data)

    return Tensor(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, factor: float) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * factor)

    return Tensor(a.data * factor, (a,), bwd)


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
        _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return Tensor(data, (a, b), bwd)


def relu(a: Tensor) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * (a.data > 0.0))

    return Tensor(np.maximum(a.data, 0.0), (a,), bwd)


def absolute(a: Tensor) -> Tensor:
    """|x| with the sign subgradient, zero exactly at x == 0."""
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g * np.sign(a.data))

    return Tensor(np.abs(a.data), (a,), bwd)


def tensor_sum(a: Tensor) -> Tensor:
    """Sum of all elements, returned as a scalar tensor."""
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, np.broadcast_to(g, a.data.shape))

    return Tensor(a.data.sum(), (a,), bwd)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.data.shape))

    return Tensor(a.data.reshape(shape), (a,), bwd)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(np.argsort(axes))
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, g.transpose(inverse))

    return Tensor(np.ascontiguousarray(a.data.transpose(axes)), (a,), bwd)


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Permute rows along the second-to-last axis: out[..., k, :] = a[..., idx[k], :].

    idx must be a permutation of the rows, so each row's gradient comes
    back through the inverse permutation.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if a.ndim < 2:
        raise ContractError(f"gather_rows needs rank >= 2, got shape {a.shape}")
    inverse = np.argsort(idx)
    if idx.shape != (a.shape[-2],) or not np.array_equal(idx[inverse], np.arange(a.shape[-2])):
        raise ContractError(f"gather_rows needs a permutation of {a.shape[-2]} rows")
    def bwd(g: np.ndarray) -> None:
        _accumulate(a, np.take(g, inverse, axis=-2))

    return Tensor(np.take(a.data, idx, axis=-2), (a,), bwd)


def _with_column(a: np.ndarray, column: np.ndarray | float) -> np.ndarray:
    """[a | column]: a with one more entry on the last axis."""
    out = np.empty(a.shape[:-1] + (a.shape[-1] + 1,))
    out[..., :-1] = a
    out[..., -1:] = column
    return out


def ranged_attention(
    queries: Tensor,
    keys: Tensor,
    values: Tensor,
    bounds: list[tuple[int, int]],
    capture: list[np.ndarray] | None = None,
) -> Tensor:
    """Scaled softmax attention inside each row range [lo, hi); one tape node.

    Inputs are (..., H, M, d_h) and the ranges must tile the M rows. A row
    attends only to rows of its own range, so no value or gradient crosses
    a range. Scores are held key-major, (..., keys, queries), so the
    softmax max runs over axis -2. The exponentiated weights are never
    normalized: one GEMM of their transpose with [v | 1] gives the output
    rows and, in its last column, each row's total, and the (m, d_h)
    output is divided by the total. As in FlashAttention, the forward
    keeps only each row's log normalizer, peak + log(total); the backward
    recomputes a range's weights as exp([k | 1] @ [q | -log_norm]^T), one
    GEMM and one exp. capture, if given, receives one normalized
    (..., m, m) weight array per head per range, query-major, in range
    order.
    """
    if min(queries.ndim, keys.ndim, values.ndim) < 3:
        raise ContractError(
            f"ranged_attention needs (..., H, M, d_h) inputs, got {queries.shape}, "
            f"{keys.shape} and {values.shape}"
        )
    edges = [0] + [hi for _, hi in bounds]
    tiled = [lo for lo, _ in bounds] == edges[:-1] and edges[-1] == queries.shape[-2]
    if not tiled or any(lo >= hi for lo, hi in bounds):
        raise ContractError(f"ranges {bounds} do not tile rows [0, {queries.shape[-2]}) in order")
    factor = 1.0 / np.sqrt(float(queries.shape[-1]))
    q, k, v = queries.data * factor, keys.data, values.data
    out = np.empty(q.shape)
    log_norm = np.empty(q.shape[:-1] + (1,))
    v_one = _with_column(v, 1.0)
    for lo, hi in bounds:
        weights = k[..., lo:hi, :] @ np.swapaxes(q[..., lo:hi, :], -1, -2)
        peak = weights.max(axis=-2, keepdims=True)
        weights -= peak
        np.exp(weights, out=weights)
        mixed = np.swapaxes(weights, -1, -2) @ v_one[..., lo:hi, :]
        total = mixed[..., -1:]
        np.divide(mixed[..., :-1], total, out=out[..., lo:hi, :])
        log_norm[..., lo:hi, :] = np.swapaxes(peak, -1, -2) + np.log(total)
        if capture is not None:
            alphas = np.swapaxes(weights / np.swapaxes(total, -1, -2), -1, -2)
            capture.extend(alphas[..., h, :, :].copy() for h in range(q.shape[-3]))

    def bwd(g: np.ndarray) -> None:
        dq, dk, dv = np.empty(q.shape), np.empty(k.shape), np.empty(v.shape)
        # row softmax backward needs <dL/dalpha_i, alpha_i>, which equals
        # <g_i, out_i> because out_i = sum_j alpha_ij v_j; the augmented
        # columns fold it and the log normalizer into the GEMMs
        q_norm = _with_column(q, -log_norm)
        k_one = _with_column(k, 1.0)
        v_one = _with_column(v, 1.0)
        g_inner = _with_column(g, -(g * out).sum(axis=-1, keepdims=True))
        for lo, hi in bounds:
            weights = k_one[..., lo:hi, :] @ np.swapaxes(q_norm[..., lo:hi, :], -1, -2)
            np.exp(weights, out=weights)
            dv[..., lo:hi, :] = weights @ g[..., lo:hi, :]
            d_scores = v_one[..., lo:hi, :] @ np.swapaxes(g_inner[..., lo:hi, :], -1, -2)
            d_scores *= weights
            dq[..., lo:hi, :] = np.swapaxes(d_scores, -1, -2) @ k[..., lo:hi, :]
            dk[..., lo:hi, :] = d_scores @ q[..., lo:hi, :]
        dq *= factor
        _accumulate(queries, dq)
        _accumulate(keys, dk)
        _accumulate(values, dv)

    return Tensor(out, (queries, keys, values), bwd)


# ---------------------------------------------------------------------------
# normalization ops
# ---------------------------------------------------------------------------


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then apply
    the learnable elementwise affine. Variance is the population variance.

    The four row means, the forward's mean and variance and the
    backward's two, are GEMVs against a (width, 1) column of 1/width;
    BLAS runs them faster than numpy reduces over the last axis."""
    width = a.data.shape[-1]
    if gain.data.shape != (width,) or bias.data.shape != (width,):
        raise ContractError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match width {width}"
        )
    row_mean = np.full((width, 1), 1.0 / width)
    centered = a.data - a.data @ row_mean
    inv = 1.0 / np.sqrt((centered * centered) @ row_mean + eps)
    xhat = centered * inv
    def bwd(g: np.ndarray) -> None:
        _accumulate(bias, g)
        _accumulate(gain, g * xhat)
        gx = g * gain.data
        term = gx - gx @ row_mean - xhat * ((gx * xhat) @ row_mean)
        _accumulate(a, term * inv)

    return Tensor(xhat * gain.data + bias.data, (a, gain, bias), bwd)
