"""Independent reference implementations used to check flowcast against.

Everything in this module is written the slow, obvious way (explicit loops,
dense matrices, matrix powers) and deliberately avoids calling into the
package internals being tested, so agreement is meaningful.
"""

from __future__ import annotations

import math

import numpy as np


def matmul_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Triple-loop batched matrix product."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    aa = np.broadcast_to(a, lead + a.shape[-2:])
    bb = np.broadcast_to(b, lead + b.shape[-2:])
    n, k = a.shape[-2], a.shape[-1]
    m = b.shape[-1]
    out = np.zeros(lead + (n, m))
    for idx in np.ndindex(*lead):
        for i in range(n):
            for j in range(m):
                acc = 0.0
                for p in range(k):
                    acc += aa[idx][i, p] * bb[idx][p, j]
                out[idx][i, j] = acc
    return out


def softmax_naive(rows: np.ndarray) -> np.ndarray:
    """Textbook exp/sum softmax over the last axis, no stabilisation."""
    e = np.exp(rows)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_naive(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                     eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gain * (x - mu) / np.sqrt(var + eps) + bias


def adam_reference(grad_fn, x0: float, lr: float, steps: int,
                   beta1: float = 0.9, beta2: float = 0.999,
                   eps: float = 1e-8) -> list[float]:
    """Scalar Adam trace in plain python floats."""
    x, m, v = x0, 0.0, 0.0
    trace = []
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        trace.append(x)
    return trace


def unified_dense(adjacency: np.ndarray, t_steps: int) -> np.ndarray:
    """Dense space-time adjacency built entry by entry from the definition.

    Element (i, t) maps to row t * n + i.  An entry is nonzero iff the two
    elements share a node and sit one step apart (weight 1), or share a time
    step and their nodes are adjacent (the spatial weight).
    """
    n = adjacency.shape[0]
    big = np.zeros((n * t_steps, n * t_steps))
    for t in range(t_steps):
        for i in range(n):
            for u in range(t_steps):
                for j in range(n):
                    if i == j and abs(t - u) == 1:
                        big[t * n + i, u * n + j] = 1.0
                    elif t == u and adjacency[i, j] != 0.0:
                        big[t * n + i, u * n + j] = adjacency[i, j]
    return big


def hop_distances(support: np.ndarray) -> np.ndarray:
    """All-pairs unweighted shortest paths via boolean matrix powers.

    Returns -1 where unreachable.
    """
    m = support.shape[0]
    reach = (support != 0.0)
    np.fill_diagonal(reach, True)
    dist = np.full((m, m), -1, dtype=np.int64)
    dist[np.eye(m, dtype=bool)] = 0
    frontier = np.eye(m, dtype=bool)
    known = np.eye(m, dtype=bool)
    for d in range(1, m):
        frontier = (frontier @ reach) & ~known
        if not frontier.any():
            break
        dist[frontier] = d
        known |= frontier
    return dist


def assign_oracle(dist: np.ndarray, base_flats: list[int],
                  tau: int) -> np.ndarray:
    """Nearest-base assignment with the pinned tie rules, transcribed naively.

    dist: all-pairs element distances (-1 unreachable).  Elements are taken
    in flat order; ties go to the currently smaller subset, then to the
    lower base index.  Returns the subset index per element.
    """
    total = dist.shape[0]
    out = np.full(total, -1, dtype=np.int64)
    sizes = [0] * len(base_flats)
    for e in range(total):
        best = None
        for q, b in enumerate(base_flats):
            d = dist[e, b]
            if d < 0 or d > tau:
                continue
            key = (d, sizes[q], q)
            if best is None or key < best[0]:
                best = (key, q)
        if best is None:
            raise AssertionError(f"element {e} not covered at tau={tau}")
        out[e] = best[1]
        sizes[best[1]] += 1
    return out


def attention_oracle(x: np.ndarray, heads, w_out: np.ndarray) -> tuple:
    """Loop transcription of single-subset multi-head attention.

    heads: sequence of (w_q, b_q, w_k, b_k, w_v) arrays.  Returns
    (output, list of per-head alpha matrices).
    """
    m = x.shape[0]
    parts = []
    alphas = []
    for (w_q, b_q, w_k, b_k, w_v) in heads:
        dh = w_q.shape[1]
        q = x @ w_q + b_q
        k = x @ w_k + b_k
        v = x @ w_v
        scores = np.zeros((m, m))
        for a in range(m):
            for b in range(m):
                scores[a, b] = float(q[a] @ k[b]) / math.sqrt(dh)
        alpha = np.zeros((m, m))
        for a in range(m):
            row = scores[a] - scores[a].max()
            e = np.exp(row)
            alpha[a] = e / e.sum()
        out = np.zeros((m, dh))
        for a in range(m):
            for b in range(m):
                out[a] += alpha[a, b] * v[b]
        parts.append(out)
        alphas.append(alpha)
    return np.concatenate(parts, axis=-1) @ w_out, alphas


def metrics_oracle(pred: np.ndarray, truth: np.ndarray) -> tuple:
    """Loop-based MAE / MAPE(%) / RMSE over nonzero-truth points."""
    abs_sum = 0.0
    pct_sum = 0.0
    sq_sum = 0.0
    count = 0
    for p, t in zip(pred.ravel(), truth.ravel()):
        if t == 0.0:
            continue
        abs_sum += abs(p - t)
        pct_sum += abs(p - t) / abs(t)
        sq_sum += (p - t) ** 2
        count += 1
    if count == 0:
        return 0.0, 0.0, 0.0
    return abs_sum / count, 100.0 * pct_sum / count, math.sqrt(sq_sum / count)


def random_connected_graph(rng: np.random.Generator, n: int,
                           extra_edge_prob: float = 0.3) -> np.ndarray:
    """Random connected weighted adjacency: spanning tree plus extras."""
    adj = np.zeros((n, n))
    order = rng.permutation(n)
    for idx in range(1, n):
        a = order[idx]
        b = order[rng.integers(0, idx)]
        w = float(rng.uniform(0.2, 2.0))
        adj[a, b] = adj[b, a] = w
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i, j] == 0.0 and rng.random() < extra_edge_prob:
                w = float(rng.uniform(0.2, 2.0))
                adj[i, j] = adj[j, i] = w
    return adj


def subset_attention_grad_oracle(x, w_q, b_q, w_k, w_v, w_out, subsets, g) -> tuple:
    """Loop transcription of multi-head attention inside each subset, with
    its backward.

    x is (B, n, D) and g = d(loss)/d(output) has its shape; the maps are
    stacked over heads, (H, D, d_h), b_q is (H, 1, d_h) and w_out (D, D);
    subsets lists each subset's row indices. Every batch entry, subset and
    head runs on its own, and each softmax row is differentiated through
    its Jacobian diag(alpha) - alpha alpha^T. Returns the output and a dict
    of the gradients of x and of each map, keyed by argument name.
    """
    batch, _, dim = x.shape
    dh = w_q.shape[-1]
    side_by_side = np.zeros(x.shape)
    cache = []
    for b in range(batch):
        for idx in subsets:
            rows = x[b, idx]
            for h in range(w_q.shape[0]):
                q = rows @ w_q[h] + b_q[h, 0]
                k = rows @ w_k[h]
                v = rows @ w_v[h]
                alpha = np.zeros((len(idx), len(idx)))
                for a in range(len(idx)):
                    scores = np.array([q[a] @ k[c] for c in range(len(idx))]) / math.sqrt(dh)
                    e = np.exp(scores - scores.max())
                    alpha[a] = e / e.sum()
                side_by_side[b, idx, h * dh:(h + 1) * dh] = alpha @ v
                cache.append((b, idx, h, rows, q, k, v, alpha))
    out = side_by_side @ w_out
    grads = {name: np.zeros(a.shape) for name, a in
             (("x", x), ("w_q", w_q), ("b_q", b_q), ("w_k", w_k), ("w_v", w_v), ("w_out", w_out))}
    for b in range(batch):
        grads["w_out"] += side_by_side[b].T @ g[b]
    d_side = g @ w_out.T
    for b, idx, h, rows, q, k, v, alpha in cache:
        d_head = d_side[b, idx, h * dh:(h + 1) * dh]
        d_alpha = d_head @ v.T
        d_scores = np.zeros(alpha.shape)
        for a in range(len(idx)):
            jacobian = np.diag(alpha[a]) - np.outer(alpha[a], alpha[a])
            d_scores[a] = jacobian @ d_alpha[a] / math.sqrt(dh)
        d_q, d_k, d_v = d_scores @ k, d_scores.T @ q, alpha.T @ d_head
        grads["w_q"][h] += rows.T @ d_q
        grads["b_q"][h, 0] += d_q.sum(axis=0)
        grads["w_k"][h] += rows.T @ d_k
        grads["w_v"][h] += rows.T @ d_v
        grads["x"][b, idx] += d_q @ w_q[h].T + d_k @ w_k[h].T + d_v @ w_v[h].T
    return out, grads


def calendar_one_hot(day: np.ndarray, step: np.ndarray, gamma: int) -> np.ndarray:
    """The calendar code: per entry, a one at column day and one at column
    7 + step of 7 + gamma columns; shape day.shape + (7 + gamma,)."""
    out = np.zeros(np.shape(day) + (7 + gamma,))
    for idx in np.ndindex(*np.shape(day)):
        out[idx][day[idx]] = 1.0
        out[idx][7 + step[idx]] = 1.0
    return out
