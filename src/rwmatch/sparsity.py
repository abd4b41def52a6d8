"""Sparse detection: score head, losses, gradient-free training, and pruning.

A score head maps each descriptor independently to a score in [0, 1], acting
as a learned detector: the scores become the detection probabilities of the
reweighted pipeline.  Training minimizes a matching loss plus lambda times
the L1 norm of the scores, so larger lambda buys sparser score maps.  The
optimizer is simultaneous-perturbation stochastic approximation (SPSA): each
step estimates a descent direction from two pipeline evaluations at
symmetrically perturbed parameters, which keeps the backbone untouched and
needs no derivatives.

Pruning turns a trained score map into a smaller feature set by threshold,
top-k, or greedy non-maximum suppression on the grid, renormalizing the
surviving scores into probabilities.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .attention import ProbabilityWeights
from .matching import (
    DEFAULT_ALPHA,
    DEFAULT_EPS,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    AugmentedAssignment,
    NumericalError,
    ot_reweighted,
)
from .transformer import FeatureSet, TransformerSpec, _index_array, forward_reweighted

__all__ = [
    "ScoreHeadParams",
    "Threshold",
    "TopK",
    "NMS",
    "PruneRule",
    "SparsityConfig",
    "MatchGroundTruth",
    "random_score_head",
    "random_matching_problem",
    "score_head_forward",
    "sparsity_loss",
    "matching_loss",
    "pipeline_loss",
    "train_score_head",
    "select_survivors",
    "prune",
    "LOSS_FLOOR",
]

LOSS_FLOOR = 1e-30

# SPSA gain sequences of train_score_head; 0.602 and 0.101 are Spall's
# standard exponents (IEEE Trans. Aerosp. Electron. Syst., 1998)
_SPSA_A = 0.1
_SPSA_C = 0.05
_SPSA_STABILITY = 10.0
_SPSA_ALPHA = 0.602
_SPSA_GAMMA = 0.101


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # evaluate exp on the non-positive branch only so neither side overflows
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class ScoreHeadParams:
    """Two affine stages per descriptor: tanh hidden layer, then logistic output.

    The score of descriptor f is sigmoid(w_2 . tanh(w_1 f + b_1) + b_2), in
    [0, 1]: the sigmoid rounds to exactly 1.0 for logits above about 36.7 and
    to exactly 0.0 below about -745.
    """

    w_1: np.ndarray
    b_1: np.ndarray
    w_2: np.ndarray
    b_2: float

    def __post_init__(self) -> None:
        w_1 = np.asarray(self.w_1, dtype=np.float64)
        b_1 = np.asarray(self.b_1, dtype=np.float64)
        w_2 = np.asarray(self.w_2, dtype=np.float64)
        b_2 = float(self.b_2)
        if w_1.ndim != 2 or b_1.shape != (w_1.shape[0],) or w_2.shape != (w_1.shape[0],):
            raise ValueError("score head shapes are inconsistent")
        if not all(np.all(np.isfinite(m)) for m in (w_1, b_1, w_2, [b_2])):
            raise ValueError("score head parameters must be finite")
        object.__setattr__(self, "w_1", w_1)
        object.__setattr__(self, "b_1", b_1)
        object.__setattr__(self, "w_2", w_2)
        object.__setattr__(self, "b_2", b_2)

    def flatten(self) -> np.ndarray:
        return np.concatenate([self.w_1.ravel(), self.b_1, self.w_2, [self.b_2]])

    @classmethod
    def from_flat(cls, vec: np.ndarray, d_desc: int, hidden: int) -> "ScoreHeadParams":
        vec = np.asarray(vec, dtype=np.float64)
        n_w1 = hidden * d_desc
        if vec.shape != (n_w1 + 2 * hidden + 1,):
            raise ValueError("flat vector length does not match the head shape")
        return cls(
            w_1=vec[:n_w1].reshape(hidden, d_desc),
            b_1=vec[n_w1 : n_w1 + hidden],
            w_2=vec[n_w1 + hidden : n_w1 + 2 * hidden],
            b_2=float(vec[-1]),
        )

    @property
    def d_desc(self) -> int:
        return self.w_1.shape[1]

    @property
    def hidden(self) -> int:
        return self.w_1.shape[0]


@dataclass(frozen=True)
class Threshold:
    """Keep every point whose score is at least t."""

    t: float

    def __post_init__(self) -> None:
        if not (0.0 < self.t < 1.0):
            raise ValueError(f"threshold must lie in (0, 1), got {self.t}")


@dataclass(frozen=True)
class TopK:
    """Keep the k highest-scoring points; ties go to the lower index."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")


@dataclass(frozen=True)
class NMS:
    """Greedy non-maximum suppression on grid coordinates.

    Repeatedly keeps the highest-scoring remaining point and suppresses all
    points within Chebyshev distance ``radius`` of it, until ``k`` points are
    kept or none remain.
    """

    radius: float
    k: int

    def __post_init__(self) -> None:
        if not (self.radius > 0.0):
            raise ValueError("radius must be positive")
        if self.k < 1:
            raise ValueError("k must be at least 1")


PruneRule = Union[Threshold, TopK, NMS]


@dataclass(frozen=True)
class SparsityConfig:
    """Sparsity trade-off weight and the pruning rule applied after training."""

    lam: float
    rule: PruneRule

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError("lambda must be a nonnegative finite real")


@dataclass(frozen=True)
class MatchGroundTruth:
    """Ground-truth correspondence: matched pairs and unmatched leftovers.

    pairs holds (i, j) interior index pairs; unmatched_a and unmatched_b list
    points whose ground-truth cell is the opposite side's dustbin.
    """

    pairs: np.ndarray
    unmatched_a: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    unmatched_b: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))

    def __post_init__(self) -> None:
        pairs = _index_array(self.pairs, "ground-truth pairs").reshape(-1, 2)
        unmatched_a = _index_array(self.unmatched_a, "unmatched A indices").ravel()
        unmatched_b = _index_array(self.unmatched_b, "unmatched B indices").ravel()
        if pairs.shape[0] + unmatched_a.size + unmatched_b.size == 0:
            raise ValueError("ground truth must reference at least one cell")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "unmatched_a", unmatched_a)
        object.__setattr__(self, "unmatched_b", unmatched_b)


def random_score_head(
    rng: np.random.Generator, d_desc: int = 6, hidden: int = 8
) -> ScoreHeadParams:
    """Seeded random head, matrices scaled by 1/sqrt(input dim)."""
    return ScoreHeadParams(
        w_1=rng.standard_normal((hidden, d_desc)) / np.sqrt(d_desc),
        b_1=rng.standard_normal(hidden) / np.sqrt(d_desc),
        w_2=rng.standard_normal(hidden) / np.sqrt(hidden),
        b_2=float(rng.standard_normal() / np.sqrt(hidden)),
    )


def random_matching_problem(
    rng: np.random.Generator,
    n_points: int = 12,
    d_desc: int = 6,
    grid: float = 32.0,
    noise: float = 0.1,
) -> tuple[FeatureSet, FeatureSet, MatchGroundTruth]:
    """Seeded toy problem: B is a shuffled copy of A with descriptor noise.

    Column j of B is point perm[j] of A, so the ground truth matches pair
    (perm[j], j) for every j and leaves nothing unmatched.
    """
    from .sampling import random_feature_set

    set_a = random_feature_set(rng, n_points=n_points, d_desc=d_desc, grid=grid)
    perm = rng.permutation(n_points)
    set_b = FeatureSet(
        coords=set_a.coords[:, perm],
        descriptors=set_a.descriptors[:, perm] + noise * rng.standard_normal((d_desc, n_points)),
        probs=ProbabilityWeights(rng.dirichlet(np.ones(n_points))),
        grid=set_a.grid,
    )
    pairs = np.stack([perm, np.arange(n_points)], axis=1)
    return set_a, set_b, MatchGroundTruth(pairs=pairs)


def score_head_forward(params: ScoreHeadParams, fset: FeatureSet) -> np.ndarray:
    """Per-point scores in [0, 1]; point i's score depends only on descriptor i."""
    if fset.descriptors.shape[0] != params.d_desc:
        raise ValueError(
            f"head expects {params.d_desc}-dimensional descriptors, "
            f"got {fset.descriptors.shape[0]}"
        )
    hidden = np.tanh(params.w_1 @ fset.descriptors + params.b_1[:, None])
    return _sigmoid(params.w_2 @ hidden + params.b_2)


def sparsity_loss(scores: np.ndarray) -> float:
    """L1 norm of a score map; scores are nonnegative, so this is their sum."""
    return float(np.sum(scores))


def matching_loss(assignment: AugmentedAssignment, gt: MatchGroundTruth) -> float:
    """Negative mean log-mass of the plan at the ground-truth cells.

    Matched pairs read interior cells; unmatched points read their dustbin
    cells.  Cells with zero mass are clamped to a 1e-30 floor and reported
    through a warning, keeping the loss finite.
    """
    plan = assignment.plan
    n_a, n_b = plan.shape[0] - 1, plan.shape[1] - 1
    if gt.pairs.size and (gt.pairs[:, 0].max() >= n_a or gt.pairs[:, 1].max() >= n_b):
        raise ValueError("ground-truth pair index out of range")
    if gt.unmatched_a.size and gt.unmatched_a.max() >= n_a:
        raise ValueError("unmatched A index out of range")
    if gt.unmatched_b.size and gt.unmatched_b.max() >= n_b:
        raise ValueError("unmatched B index out of range")
    cells = np.concatenate(
        [
            plan[gt.pairs[:, 0], gt.pairs[:, 1]],
            plan[gt.unmatched_a, n_b],
            plan[n_a, gt.unmatched_b],
        ]
    )
    clamped = int(np.count_nonzero(cells < LOSS_FLOOR))
    if clamped:
        warnings.warn(
            f"matching loss clamped {clamped} zero-mass ground-truth cells",
            RuntimeWarning,
            stacklevel=2,
        )
        cells = np.maximum(cells, LOSS_FLOOR)
    return float(-np.mean(np.log(cells)))


def pipeline_loss(
    head: ScoreHeadParams,
    spec: TransformerSpec,
    set_a: FeatureSet,
    set_b: FeatureSet,
    gt: MatchGroundTruth,
    lam: float,
    alpha: float = DEFAULT_ALPHA,
    eps: float = DEFAULT_EPS,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> tuple[float, float, float]:
    """Total, matching, and sparsity loss of the head on the full pipeline.

    The head's scores become the detection probabilities: the reweighted
    network embeds and aggregates both sets under them, the reweighted
    transport matches the resulting tokens, and the plan is scored against
    the ground truth.
    """
    s_a = score_head_forward(head, set_a)
    s_b = score_head_forward(head, set_b)
    p_a = ProbabilityWeights(s_a)
    p_b = ProbabilityWeights(s_b)
    tok_a, tok_b = forward_reweighted(
        spec, set_a.with_probs(p_a), set_b.with_probs(p_b)
    )
    assignment = ot_reweighted(
        tok_a, tok_b, p_a, p_b, alpha=alpha, eps=eps, max_iters=max_iters, tol=tol
    )
    lm = matching_loss(assignment, gt)
    ls = sparsity_loss(s_a) + sparsity_loss(s_b)
    return lm + lam * ls, lm, ls


def train_score_head(
    init: ScoreHeadParams,
    spec: TransformerSpec,
    set_a: FeatureSet,
    set_b: FeatureSet,
    gt: MatchGroundTruth,
    cfg: SparsityConfig,
    steps: int,
    seed: int,
    ot_alpha: float = DEFAULT_ALPHA,
    ot_eps: float = DEFAULT_EPS,
    ot_max_iters: int = DEFAULT_MAX_ITERS,
    ot_tol: float = DEFAULT_TOL,
) -> tuple[ScoreHeadParams, np.ndarray]:
    """SPSA training of the score head; everything else stays frozen.

    Step k perturbs the flattened head by +/- c_k along a random sign vector,
    evaluates the pipeline loss at both points, and descends along the
    finite-difference estimate with gain a_k, where a_k = 0.1 / (k + 11)^0.602
    and c_k = 0.05 / (k + 1)^0.101.  Returns the trained head and the
    (steps, 2) trace of the two probe losses per step.  Identical
    seeds give identical traces.  A non-finite probe loss aborts with the
    trace collected so far attached to the error.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    rng = np.random.default_rng(seed)
    theta = init.flatten()
    d_desc, hidden = init.d_desc, init.hidden

    def evaluate(vec: np.ndarray) -> float:
        head = ScoreHeadParams.from_flat(vec, d_desc, hidden)
        total, _, _ = pipeline_loss(
            head, spec, set_a, set_b, gt, cfg.lam,
            alpha=ot_alpha, eps=ot_eps, max_iters=ot_max_iters, tol=ot_tol,
        )
        return total

    trace = np.empty((steps, 2))
    for k in range(steps):
        c_k = _SPSA_C / (k + 1.0) ** _SPSA_GAMMA
        delta = rng.choice(np.array([-1.0, 1.0]), size=theta.size)
        loss_plus = evaluate(theta + c_k * delta)
        loss_minus = evaluate(theta - c_k * delta)
        trace[k, 0] = loss_plus
        trace[k, 1] = loss_minus
        if not (np.isfinite(loss_plus) and np.isfinite(loss_minus)):
            err = NumericalError(f"non-finite loss at SPSA step {k}")
            err.trace = trace[: k + 1].copy()
            raise err
        gain = _SPSA_A / (k + 1.0 + _SPSA_STABILITY) ** _SPSA_ALPHA
        theta = theta - gain * (loss_plus - loss_minus) / (2.0 * c_k) * delta
    return ScoreHeadParams.from_flat(theta, d_desc, hidden), trace


def select_survivors(
    scores: np.ndarray, rule: PruneRule, coords: np.ndarray | None = None
) -> np.ndarray:
    """Indices kept by a pruning rule, in ascending index order.

    NMS requires ``coords`` (shape (2, n)); threshold and top-k ignore it.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if isinstance(rule, Threshold):
        keep = np.flatnonzero(scores >= rule.t)
    elif isinstance(rule, TopK):
        # stable sort on negated scores: ties resolve to the lower index
        order = np.argsort(-scores, kind="stable")[: rule.k]
        keep = np.sort(order)
    else:
        if coords is None:
            raise ValueError("NMS pruning needs coordinates")
        alive = np.ones(n, dtype=bool)
        kept: list[int] = []
        while alive.any() and len(kept) < rule.k:
            masked = np.where(alive, scores, -np.inf)
            best = int(np.argmax(masked))
            kept.append(best)
            cheb = np.max(np.abs(coords - coords[:, best : best + 1]), axis=0)
            alive &= cheb > rule.radius
        keep = np.sort(np.array(kept, dtype=np.intp))
    if keep.size == 0:
        raise ValueError(f"no points survive pruning with rule {rule}")
    return keep


def prune(fset: FeatureSet, scores: np.ndarray, rule: PruneRule) -> FeatureSet:
    """Subset of the feature set kept by the rule, scores renormalized to probabilities."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (fset.n,):
        raise ValueError("need exactly one score per point")
    keep = select_survivors(scores, rule, fset.coords)
    return FeatureSet(
        coords=fset.coords[:, keep],
        descriptors=fset.descriptors[:, keep],
        probs=ProbabilityWeights(scores[keep]),
        grid=fset.grid,
    )
