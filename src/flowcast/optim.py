"""Adam optimizer, gradient utilities, and the finite-difference checker."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError
from .tensor import Param, Tensor, backward


BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    """Adam moments over one flat parameter buffer, allocated on first use."""

    learning_rate: float
    step_count: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def flatten_params(params: Sequence[Param]) -> tuple[np.ndarray, np.ndarray]:
    """Move the params into one contiguous (data, grad) buffer pair.

    Values are copied in list order and gradients start at zero; each
    p.data and p.grad is rebound to a view of its slice, so whole-buffer
    updates reach every Param.
    """
    data = np.concatenate([p.data.reshape(-1) for p in params])
    grad = np.zeros_like(data)
    lo = 0
    for p in params:
        hi = lo + p.data.size
        p.data, p.grad = data[lo:hi].reshape(p.data.shape), grad[lo:hi].reshape(p.data.shape)
        lo = hi
    return data, grad


def zero_gradients(grad: np.ndarray) -> None:
    grad.fill(0.0)


def clip_global_norm(grad: np.ndarray, max_norm: float) -> float:
    """Scale a flat gradient buffer in place so its 2-norm is at most
    max_norm. Returns the pre-clip norm.
    """
    norm = float(np.sqrt(grad @ grad))
    if norm > max_norm and norm > 0.0:
        grad *= max_norm / norm
    return norm


def adam_step(state: AdamState, data: np.ndarray, grad: np.ndarray) -> None:
    """One Adam update with bias correction over a whole parameter buffer."""
    if state.m is None:
        state.m, state.v = np.zeros_like(data), np.zeros_like(data)
    if state.m.shape != data.shape:
        raise ContractError(f"adam moments of shape {state.m.shape} do not match buffer {data.shape}")
    state.step_count += 1
    t = state.step_count
    m, v = state.m, state.v
    m[...] = BETA1 * m + (1.0 - BETA1) * grad
    v[...] = BETA2 * v + (1.0 - BETA2) * (grad * grad)
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], name: str) -> Param:
    """Weight matrix drawn uniformly from +-sqrt(6 / (fan_in + fan_out))."""
    if len(shape) < 2:
        raise ContractError(f"glorot_uniform needs a matrix shape, got {shape}")
    fan_in, fan_out = shape[-2], shape[-1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Param(rng.uniform(-limit, limit, size=shape), name)


def zeros_param(shape: tuple[int, ...], name: str) -> Param:
    return Param(np.zeros(shape), name)


def ones_param(shape: tuple[int, ...], name: str) -> Param:
    return Param(np.ones(shape), name)


def finite_diff_check(
    make_loss: Callable[[], Tensor],
    params: Sequence[Param],
    step: float = 1e-5,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central differences.

    make_loss must rebuild the scalar loss from scratch on every call and
    be deterministic: backward() consumes the graph it runs over, and each
    perturbed coordinate needs a forward on the current parameter values.
    Returns the maximum relative error over the sampled coordinates:
    |analytic - central| / max(|analytic|, |central|, 1e-8).
    """
    data, grad = flatten_params(params)
    loss = make_loss()
    zero_gradients(grad)
    backward(loss)
    analytic = grad.copy()

    coords = np.arange(data.size)
    if data.size > samples:
        coords = np.random.default_rng(seed).choice(data.size, size=samples, replace=False)

    worst = 0.0
    for k in coords:
        saved = data[k]
        data[k] = saved + step
        up = make_loss().item()
        data[k] = saved - step
        down = make_loss().item()
        data[k] = saved
        central = (up - down) / (2.0 * step)
        a = float(analytic[k])
        err = abs(a - central) / max(abs(a), abs(central), 1e-8)
        worst = max(worst, err)
    return worst
