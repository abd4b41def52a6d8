"""Similarity kinds and attention matrices, standard and probability-reweighted.

Tokens are stored column-wise: a token matrix has shape (d, n) where column j
is the token of point j.  An attention matrix has shape (n_K, n_Q); entry
(i, j) is the weight that query j puts on key i, and every column sums to 1.

The reweighted variant multiplies each key's similarity by a per-key
probability before normalizing, so keys with zero probability contribute
nothing and their rows are exactly zero.  With uniform probabilities the
weights cancel and the reweighted matrix equals the standard one.

Every route builds its unnormalized n_K x n_Q matrix once and transforms it
in place.  The matrix functions then divide each column by its sum; an
attention layer never forms the normalized matrix, but aggregates values
against the unnormalized one and divides the d x n_Q result instead.
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


def _attention_numerator(
    keys: np.ndarray,
    queries: np.ndarray,
    sim: Similarity,
    weights: ProbabilityWeights | None,
) -> np.ndarray:
    """Unnormalized (reweighted) attention, n_K x n_Q, built in one array.

    Column j is proportional to column j of the attention matrix.  Softmax
    logits carry log p and are shifted by their column max before the
    exponential, so no entry overflows; -inf logits at zero-weight keys
    exponentiate to exact zeros, and the column max stays finite because at
    least one weight is positive.
    """
    if isinstance(sim, SoftmaxSim):
        num = (keys / sim.tau).T @ queries
        if weights is not None:
            num += weights.log()[:, None]
        num -= num.max(axis=0)
        return np.exp(num, out=num)
    num = sim.phi(keys).T @ sim.phi(queries)
    if weights is not None:
        num *= weights.p[:, None]
    return num


def attention_matrix(keys: np.ndarray, queries: np.ndarray, sim: Similarity) -> np.ndarray:
    """Column-stochastic attention of queries over keys.

    Entry (i, j) is sim(key_i, query_j) normalized over keys, so each column
    sums to 1.  Softmax similarity is computed with a per-column max shift to
    avoid overflow of the exponentials.
    """
    keys, queries = _check_token_matrices(keys, queries)
    num = _attention_numerator(keys, queries, sim, None)
    num /= num.sum(axis=0)
    return num


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
    num = _attention_numerator(keys, queries, sim, weights)
    num /= num.sum(axis=0)
    return num


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

    x = x_q.copy()
    for head in params.heads:
        num = _attention_numerator(head.w_k @ x_k, head.w_q @ x_q, params.sim, weights)
        # normalizing the d x n_Q aggregate equals aggregating the normalized
        # n_K x n_Q attention, at a fraction of the cost
        x += head.w_vo @ ((x_v @ num) / num.sum(axis=0))

    ffn = params.ffn
    hidden = ffn.act(ffn.w_1 @ x + ffn.b_1[:, None])
    return x + ffn.w_2 @ hidden + ffn.b_2[:, None]
