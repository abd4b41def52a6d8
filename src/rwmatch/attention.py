"""Similarity kinds and attention matrices, standard and probability-reweighted.

Tokens are stored column-wise: a token matrix has shape (d, n) where column j
is the token of point j.  An attention matrix has shape (n_K, n_Q); entry
(i, j) is the weight that query j puts on key i, and every column sums to 1.

The reweighted variant multiplies each key's similarity by a per-key
probability before normalizing, so keys with zero probability contribute
nothing and their rows are exactly zero.  With uniform probabilities the
weights cancel and the reweighted matrix equals the standard one.

Both similarity kinds reduce to one matrix product of a key operand and a
query operand: softmax logits keys/tau . queries, with log p folded in as
one more row under the keys and a row of ones under the queries, or linear
numerators (phi(keys) * p) . phi(queries).  The matrix functions build that
product as one n_K x n_Q array, shift and exponentiate it in place and
divide each column by its sum.  An attention layer never forms an n_K x n_Q
array: it takes the queries in blocks that fit in cache, and aggregates each
block of unnormalized attention against the values with a row of ones
appended, so the same product yields the column sums, and it divides the
(d + 1) x n_Q aggregate instead of the attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

__all__ = [
    "SoftmaxSim",
    "LinearSim",
    "Similarity",
    "ProbabilityWeights",
    "AttentionHeadParams",
    "FeedForwardParams",
    "AttentionLayerParams",
    "relu",
    "linear_phi",
    "attention_matrix",
    "reweighted_attention_matrix",
    "attention_layer_forward",
]


def relu(x: np.ndarray) -> np.ndarray:
    """Element-wise max(x, 0), the default feed-forward activation."""
    return np.maximum(x, 0.0)


def linear_phi(x: np.ndarray) -> np.ndarray:
    """Element-wise feature map for linear similarity: x + 1 for x >= 0, exp(x) below.

    The map is continuous, monotone, and strictly positive, which keeps every
    pairwise similarity positive and every attention denominator nonzero.
    """
    x = np.asarray(x, dtype=np.float64)
    # exp is evaluated on min(x, 0) so the unused branch cannot overflow
    return np.where(x >= 0.0, x + 1.0, np.exp(np.minimum(x, 0.0)))


@dataclass(frozen=True)
class SoftmaxSim:
    """Exponential dot-product similarity exp(k.q / tau) with temperature tau > 0."""

    tau: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be a positive finite real, got {self.tau}")


@dataclass(frozen=True)
class LinearSim:
    """Feature-map similarity phi(k).phi(q) with a strictly positive phi."""

    phi: Callable[[np.ndarray], np.ndarray] = field(default=linear_phi)


Similarity = Union[SoftmaxSim, LinearSim]


@dataclass(frozen=True)
class ProbabilityWeights:
    """Nonnegative per-key weights, normalized to sum to 1 on construction.

    Zero entries are allowed (those keys are ignored by reweighted attention)
    but at least one entry must be positive.
    """

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("weights must form a nonempty 1-D vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("weights must be finite")
        if np.any(p < 0.0):
            raise ValueError("weights must be nonnegative")
        total = p.sum()
        # finite entries can overflow the total, which would normalize to all zeros
        if not np.isfinite(total):
            raise ValueError("weights must have a finite sum")
        if total <= 0.0:
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "p", p / total)

    def __len__(self) -> int:
        return self.p.size

    @classmethod
    def uniform(cls, n: int) -> "ProbabilityWeights":
        return cls(np.ones(n))

    def log(self) -> np.ndarray:
        """log p with -inf at zero entries, for log-domain accumulation."""
        with np.errstate(divide="ignore"):
            return np.log(self.p)


@dataclass(frozen=True)
class AttentionHeadParams:
    """One attention head: query/key projections and the value-output product."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_vo: np.ndarray

    def __post_init__(self) -> None:
        w_q = np.asarray(self.w_q, dtype=np.float64)
        w_k = np.asarray(self.w_k, dtype=np.float64)
        w_vo = np.asarray(self.w_vo, dtype=np.float64)
        for name, m in (("w_q", w_q), ("w_k", w_k), ("w_vo", w_vo)):
            if m.ndim != 2 or not np.all(np.isfinite(m)):
                raise ValueError(f"{name} must be a finite 2-D matrix")
        if w_q.shape != w_k.shape:
            raise ValueError(
                f"w_q and w_k must share shape, got {w_q.shape} vs {w_k.shape}"
            )
        d = w_vo.shape[0]
        if w_vo.shape != (d, d) or w_q.shape[1] != d:
            raise ValueError(
                "w_vo must be d x d and projections d_h x d with matching d"
            )
        object.__setattr__(self, "w_q", w_q)
        object.__setattr__(self, "w_k", w_k)
        object.__setattr__(self, "w_vo", w_vo)

    @property
    def d(self) -> int:
        return self.w_vo.shape[0]

    @property
    def d_h(self) -> int:
        return self.w_q.shape[0]


@dataclass(frozen=True)
class FeedForwardParams:
    """Two-layer feed-forward block applied point-wise after attention."""

    w_1: np.ndarray
    b_1: np.ndarray
    w_2: np.ndarray
    b_2: np.ndarray
    act: Callable[[np.ndarray], np.ndarray] = field(default=relu)

    def __post_init__(self) -> None:
        w_1 = np.asarray(self.w_1, dtype=np.float64)
        b_1 = np.asarray(self.b_1, dtype=np.float64)
        w_2 = np.asarray(self.w_2, dtype=np.float64)
        b_2 = np.asarray(self.b_2, dtype=np.float64)
        for name, m in (("w_1", w_1), ("b_1", b_1), ("w_2", w_2), ("b_2", b_2)):
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} must be finite")
        d_f, d = w_1.shape
        if b_1.shape != (d_f,) or w_2.shape != (d, d_f) or b_2.shape != (d,):
            raise ValueError("feed-forward shapes are inconsistent")
        object.__setattr__(self, "w_1", w_1)
        object.__setattr__(self, "b_1", b_1)
        object.__setattr__(self, "w_2", w_2)
        object.__setattr__(self, "b_2", b_2)


@dataclass(frozen=True)
class AttentionLayerParams:
    """A full attention layer: H heads, a feed-forward block, and a similarity kind."""

    heads: tuple[AttentionHeadParams, ...]
    ffn: FeedForwardParams
    sim: Similarity

    def __post_init__(self) -> None:
        heads = tuple(self.heads)
        if len(heads) == 0:
            raise ValueError("a layer needs at least one head")
        d, d_h = heads[0].d, heads[0].d_h
        if any(h.d != d or h.d_h != d_h for h in heads):
            raise ValueError("all heads of a layer must share d and d_h")
        if self.ffn.w_1.shape[1] != d:
            raise ValueError("feed-forward width must match token dimension")
        object.__setattr__(self, "heads", heads)

    @property
    def d(self) -> int:
        return self.heads[0].d


def _check_token_matrices(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    keys = np.asarray(keys, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if keys.ndim != 2 or queries.ndim != 2 or keys.shape[0] != queries.shape[0]:
        raise ValueError(
            f"keys and queries must be (d, n) matrices with equal d, "
            f"got {keys.shape} vs {queries.shape}"
        )
    if keys.shape[1] == 0:
        raise ValueError("at least one key is required")
    return keys, queries


# An attention layer takes its queries in blocks of _BLOCK_CELLS // n_K columns,
# so that each n_K x block array of logits (2 MB of float64, a per-core L2
# cache) stays in cache from its matrix product through the exponential to
# the aggregation.  Softmax columns are independent, so blocking is exact.
_BLOCK_CELLS = 1 << 18


def _log_weight_operands(
    sim: Similarity, weights: ProbabilityWeights | None, d_h: int, n_k: int, n_q: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """For weighted softmax, key and query operands of d_h + 1 rows whose last
    rows, log p under the keys and ones under the queries, add log p to the
    logits k_op.T @ q_op; _operands fills the first d_h rows.  None for any
    other attention."""
    if weights is None or not isinstance(sim, SoftmaxSim):
        return None
    k_op = np.empty((d_h + 1, n_k))
    q_op = np.empty((d_h + 1, n_q))
    # log 0 enters as the most negative float: added to a logit it gives that
    # float again, which the column shift sends to an exact 0 under exp, and
    # no infinity reaches BLAS
    k_op[d_h] = np.finfo(np.float64).min
    np.log(weights.p, out=k_op[d_h], where=weights.p > 0.0)
    q_op[d_h] = 1.0
    return k_op, q_op


def _operands(
    keys: np.ndarray,
    queries: np.ndarray,
    sim: Similarity,
    weights: ProbabilityWeights | None,
    log_ops: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Key and query operands whose product k.T @ q is the logits, log p
    included (softmax), or the unnormalized attention, p included (linear).

    Weighted softmax writes keys / tau and the queries into the first rows of
    log_ops, the operands from _log_weight_operands.
    """
    if log_ops is not None:
        k_op, q_op = log_ops
        d_h = keys.shape[0]
        np.divide(keys, sim.tau, out=k_op[:d_h])
        q_op[:d_h] = queries
        return log_ops
    if isinstance(sim, SoftmaxSim):
        return keys / sim.tau, queries
    keys = sim.phi(keys)
    if weights is not None:
        keys = keys * weights.p
    return keys, sim.phi(queries)


def _numerator(
    k_op: np.ndarray, q_op: np.ndarray, sim: Similarity, out: np.ndarray | None = None
) -> np.ndarray:
    """Unnormalized attention of the queries in q_op, n_K x n_Q, in one array.

    Column j is proportional to column j of the attention matrix.  Softmax
    logits are shifted by their column max before the exponential, so no
    entry overflows; the column max is finite because at least one weight is
    positive.
    """
    num = np.matmul(k_op.T, q_op, out=out)
    if isinstance(sim, SoftmaxSim):
        num -= num.max(axis=0)
        np.exp(num, out=num)
    return num


def _attention(
    keys: np.ndarray,
    queries: np.ndarray,
    sim: Similarity,
    weights: ProbabilityWeights | None,
) -> np.ndarray:
    """The normalized attention matrix, computed as a single query block."""
    log_ops = _log_weight_operands(sim, weights, *keys.shape, queries.shape[1])
    num = _numerator(*_operands(keys, queries, sim, weights, log_ops), sim)
    num /= num.sum(axis=0)
    return num


def attention_matrix(keys: np.ndarray, queries: np.ndarray, sim: Similarity) -> np.ndarray:
    """Column-stochastic attention of queries over keys.

    Entry (i, j) is sim(key_i, query_j) normalized over keys, so each column
    sums to 1.  Softmax similarity is computed with a per-column max shift to
    avoid overflow of the exponentials.
    """
    keys, queries = _check_token_matrices(keys, queries)
    return _attention(keys, queries, sim, None)


def reweighted_attention_matrix(
    keys: np.ndarray,
    queries: np.ndarray,
    sim: Similarity,
    weights: ProbabilityWeights,
) -> np.ndarray:
    """Attention with per-key probabilities folded into the normalization.

    Entry (i, j) is p_i * sim(key_i, query_j) / sum_k p_k * sim(key_k, query_j).
    Columns sum to 1 and rows with p_i = 0 are exactly zero.  With uniform
    weights the result equals ``attention_matrix``.
    """
    keys, queries = _check_token_matrices(keys, queries)
    if len(weights) != keys.shape[1]:
        raise ValueError(
            f"weights length {len(weights)} does not match key count {keys.shape[1]}"
        )
    return _attention(keys, queries, sim, weights)


def attention_layer_forward(
    x_q: np.ndarray,
    x_k: np.ndarray,
    x_v: np.ndarray,
    params: AttentionLayerParams,
    weights: ProbabilityWeights | None = None,
) -> np.ndarray:
    """One attention layer with residual paths and a feed-forward block.

    The attended update is x_q + sum_h W_vo^h (x_v A_h) with A_h the
    (reweighted) attention of the projected queries over the projected keys;
    the feed-forward block then adds W_2 act(W_1 x + b_1) + b_2 point-wise.
    Output shape equals the query shape.
    """
    x_q = np.asarray(x_q, dtype=np.float64)
    x_k = np.asarray(x_k, dtype=np.float64)
    x_v = np.asarray(x_v, dtype=np.float64)
    d = params.d
    if x_q.ndim != 2 or x_q.shape[0] != d:
        raise ValueError(f"query tokens must be (d, n_Q) with d={d}, got {x_q.shape}")
    if x_k.shape[0] != d or x_v.shape[0] != d:
        raise ValueError("key and value tokens must share the layer dimension")
    if x_k.shape[1] != x_v.shape[1]:
        raise ValueError(
            f"key and value counts must match, got {x_k.shape[1]} vs {x_v.shape[1]}"
        )
    if weights is not None and len(weights) != x_k.shape[1]:
        raise ValueError("weights length must match the key count")

    sim = params.sim
    n_k, n_q = x_k.shape[1], x_q.shape[1]
    # the last row of v_op @ num holds the column sums of num
    v_op = np.empty((d + 1, n_k))
    v_op[:d] = x_v
    v_op[d] = 1.0
    log_ops = _log_weight_operands(sim, weights, params.heads[0].d_h, n_k, n_q)
    # when one block covers every query, the block buffers and the slicing
    # would cost more than a small layer's attention itself
    blocked = n_k * n_q > _BLOCK_CELLS
    if blocked:
        block = max(1, _BLOCK_CELLS // n_k)
        agg = np.empty((d + 1, n_q))
        num_buf = np.empty(n_k * block)
    x = x_q.copy()
    for head in params.heads:
        k_op, q_op = _operands(head.w_k @ x_k, head.w_q @ x_q, sim, weights, log_ops)
        if not blocked:
            agg = v_op @ _numerator(k_op, q_op, sim)
        else:
            for j in range(0, n_q, block):
                q_blk = q_op[:, j : j + block]
                num = num_buf[: n_k * q_blk.shape[1]].reshape(n_k, -1)
                _numerator(k_op, q_blk, sim, out=num)
                np.matmul(v_op, num, out=agg[:, j : j + block])
        # normalizing the d x n_Q aggregate equals aggregating the normalized
        # n_K x n_Q attention, at a fraction of the cost
        x += head.w_vo @ (agg[:d] / agg[d])

    ffn = params.ffn
    hidden = ffn.w_1 @ x
    hidden += ffn.b_1[:, None]
    out = ffn.w_2 @ ffn.act(hidden)
    out += x
    out += ffn.b_2[:, None]
    return out
