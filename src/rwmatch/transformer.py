"""Two-set attention networks over feature sets, standard and reweighted.

A feature set holds every candidate point of one image: grid coordinates, a
descriptor per point, and a probability per point (how likely that point is
to be detected).  A sampled set is a multiset of indices into a feature set,
realizing an i.i.d. draw from those probabilities.

The network embeds each point independently (affine on normalized coordinates
concatenated with the descriptor) and then applies a stack of self and cross
attention layers routed between the two sides.  ``forward`` runs standard
attention on sampled sets: each layer's keys and values are all m sampled
tokens in draw order, duplicates included, while its queries are the
distinct sampled points only, since an output token depends on nothing but
its own query and the keys.  ``forward_reweighted`` runs reweighted attention
on the full sets, weighting each layer by the probabilities of whichever side
supplies the keys.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Union

import numpy as np

from .attention import (
    AttentionHeadParams,
    AttentionLayerParams,
    FeedForwardParams,
    ProbabilityWeights,
    Similarity,
    SoftmaxSim,
    attention_layer_forward,
)

__all__ = [
    "FeatureSet",
    "SampledSet",
    "LayerRoute",
    "AffineEmbed",
    "TransformerSpec",
    "embed",
    "forward",
    "forward_reweighted",
    "random_layer_params",
    "random_transformer_spec",
    "DEFAULT_ROUTING",
]


@dataclass(frozen=True)
class FeatureSet:
    """Ordered set of all candidate points of one image.

    coords has shape (2, n) with values inside [0, grid], descriptors has
    shape (d_desc, n), and probs assigns one detection probability per point.
    Point order is fixed; every index refers to the same point for the life
    of the set.
    """

    coords: np.ndarray
    descriptors: np.ndarray
    probs: ProbabilityWeights
    grid: tuple[float, float]

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=np.float64)
        descriptors = np.asarray(self.descriptors, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[0] != 2:
            raise ValueError(f"coords must have shape (2, n), got {coords.shape}")
        if descriptors.ndim != 2 or descriptors.shape[1] != coords.shape[1]:
            raise ValueError("descriptors must have one column per point")
        if not (np.all(np.isfinite(coords)) and np.all(np.isfinite(descriptors))):
            raise ValueError("coordinates and descriptors must be finite")
        gx, gy = float(self.grid[0]), float(self.grid[1])
        if not (gx > 0 and gy > 0):
            raise ValueError("grid bounds must be positive")
        if np.any(coords[0] < 0) or np.any(coords[0] > gx) or np.any(coords[1] < 0) or np.any(coords[1] > gy):
            raise ValueError("coordinates must lie inside the grid bounds")
        if len(self.probs) != coords.shape[1]:
            raise ValueError("probs length must equal the point count")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "descriptors", descriptors)
        object.__setattr__(self, "grid", (gx, gy))

    @property
    def n(self) -> int:
        return self.coords.shape[1]

    def with_probs(self, probs: ProbabilityWeights) -> "FeatureSet":
        """Same points with a different probability vector."""
        return replace(self, probs=probs)


_INTP_MAX = np.iinfo(np.intp).max


def _index_array(values, what: str) -> tuple[np.ndarray, int]:
    """values as an intp array of nonnegative integers, and its largest entry
    (-1 when it is empty).

    Integral floats pass (an empty float array among them); a negative,
    fractional or non-finite value raises ValueError instead of being
    truncated or wrapped into a valid-looking index.
    """
    arr = np.asarray(values)
    hi = -1
    if arr.size == 0:
        valid = True
    elif arr.dtype.kind == "f":
        valid = np.all(np.isfinite(arr) & (arr == np.trunc(arr)) & (arr >= 0) & (arr < 2.0**63))
        hi = int(arr.max()) if valid else hi
    else:
        valid = arr.dtype.kind in "iu"
        if valid:
            lo, hi = arr.min(), arr.max()
            valid = lo >= 0 and hi <= _INTP_MAX
    if not valid:
        raise ValueError(f"{what} must be nonnegative integers")
    return arr.astype(np.intp, copy=False), int(hi)


@dataclass(frozen=True)
class SampledSet:
    """Multiset of indices into a feature set, in draw order.

    Index k of the sample refers to base point indices[k]; points with zero
    probability never appear.
    """

    base: FeatureSet
    indices: np.ndarray

    def __post_init__(self) -> None:
        indices, hi = _index_array(self.indices, "sample indices")
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError("a sample must contain at least one index")
        if hi >= self.base.n:
            raise ValueError("sample indices must point into the base set")
        # probabilities are finite and nonnegative, so all() means none is zero
        if not self.base.probs.p[indices].all():
            raise ValueError("zero-probability points cannot be sampled")
        object.__setattr__(self, "indices", indices)

    @property
    def n(self) -> int:
        return self.indices.size


class LayerRoute(Enum):
    """Which tokens a layer reads and writes.

    SELF_A updates A from A, SELF_B updates B from B, CROSS_A_FROM_B updates
    A-queries from B-keys (reweighting then uses B's probabilities), and
    CROSS_B_FROM_A the reverse.
    """

    SELF_A = "self-a"
    SELF_B = "self-b"
    CROSS_A_FROM_B = "cross-a-from-b"
    CROSS_B_FROM_A = "cross-b-from-a"


DEFAULT_ROUTING = (
    LayerRoute.SELF_A,
    LayerRoute.SELF_B,
    LayerRoute.CROSS_A_FROM_B,
    LayerRoute.CROSS_B_FROM_A,
)


@dataclass(frozen=True)
class AffineEmbed:
    """Point-wise affine embedding from (normalized coord, descriptor) to a token."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("embedding needs w of shape (d, 2 + d_desc) and b of shape (d,)")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ValueError("embedding parameters must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)

    @property
    def d(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class TransformerSpec:
    """Embedding plus an ordered stack of routed attention layers."""

    embed: AffineEmbed
    layers: tuple[tuple[LayerRoute, AttentionLayerParams], ...]

    def __post_init__(self) -> None:
        layers = tuple((LayerRoute(route), params) for route, params in self.layers)
        d = self.embed.d
        if any(params.d != d for _, params in layers):
            raise ValueError("all layers must share the embedding dimension")
        object.__setattr__(self, "layers", layers)

    @property
    def d(self) -> int:
        return self.embed.d


def _normalized_coords(fset: FeatureSet) -> np.ndarray:
    gx, gy = fset.grid
    scale = np.array([[2.0 / gx], [2.0 / gy]])
    return scale * fset.coords - 1.0


def embed(spec: TransformerSpec, points: Union[FeatureSet, SampledSet]) -> np.ndarray:
    """Token matrix of a feature set or a sample from one.

    Column j depends only on point j.  Sampled tokens are gathered from the
    base set's tokens, so a sampled column equals its base column bitwise.
    """
    if isinstance(points, SampledSet):
        return embed(spec, points.base)[:, points.indices]
    feats = np.vstack([_normalized_coords(points), points.descriptors])
    if feats.shape[0] != spec.embed.w.shape[1]:
        raise ValueError(
            f"embedding expects {spec.embed.w.shape[1]} input rows, got {feats.shape[0]}"
        )
    return spec.embed.w @ feats + spec.embed.b[:, None]


_ROUTE_SIDES = {
    LayerRoute.SELF_A: (0, 0),
    LayerRoute.SELF_B: (1, 1),
    LayerRoute.CROSS_A_FROM_B: (0, 1),
    LayerRoute.CROSS_B_FROM_A: (1, 0),
}


def _run_stack(
    spec: TransformerSpec,
    tokens: tuple[np.ndarray, np.ndarray],
    weights: tuple[ProbabilityWeights | None, ProbabilityWeights | None],
    key_columns: tuple[np.ndarray | None, np.ndarray | None] = (None, None),
) -> tuple[np.ndarray, np.ndarray]:
    """Run the layer stack on the (A, B) tokens.

    Each layer's queries are the current tokens of its query side.  Its keys
    and values are the tokens of its key side, gathered by that side's
    ``key_columns`` when it is given (None: the tokens themselves).
    """
    tokens = list(tokens)
    for route, params in spec.layers:
        q, k = _ROUTE_SIDES[route]
        keys = tokens[k] if key_columns[k] is None else tokens[k][:, key_columns[k]]
        tokens[q] = attention_layer_forward(tokens[q], keys, keys, params, weights[k])
    return tokens[0], tokens[1]


def forward(
    spec: TransformerSpec, sample_a: SampledSet, sample_b: SampledSet
) -> tuple[np.ndarray, np.ndarray]:
    """Standard network on two sampled sets; output columns follow sample order.

    Every layer attends over all m sampled keys, duplicates included, but
    computes one query per distinct point: a token depends only on its own
    query and on the keys, so duplicated sample positions share one column,
    and their outputs are bitwise equal.
    """
    if not isinstance(sample_a, SampledSet) or not isinstance(sample_b, SampledSet):
        raise TypeError("forward expects SampledSet inputs; use forward_reweighted for full sets")
    distinct_a, inverse_a = np.unique(sample_a.indices, return_inverse=True)
    distinct_b, inverse_b = np.unique(sample_b.indices, return_inverse=True)
    out_a, out_b = _run_stack(
        spec,
        (embed(spec, sample_a.base)[:, distinct_a], embed(spec, sample_b.base)[:, distinct_b]),
        (None, None),
        (inverse_a, inverse_b),
    )
    return out_a[:, inverse_a], out_b[:, inverse_b]


def forward_reweighted(
    spec: TransformerSpec, set_a: FeatureSet, set_b: FeatureSet
) -> tuple[np.ndarray, np.ndarray]:
    """Reweighted network on two full sets.

    Every layer uses reweighted attention with the probabilities of the side
    that supplies the keys: self attention over A uses A's probabilities,
    cross attention of A-queries over B-keys uses B's, and symmetrically.
    """
    return _run_stack(spec, (embed(spec, set_a), embed(spec, set_b)), (set_a.probs, set_b.probs))


def random_layer_params(
    rng: np.random.Generator,
    d: int,
    n_heads: int,
    sim: Similarity,
    d_h: int | None = None,
    d_f: int | None = None,
    update_scale: float = 0.3,
) -> AttentionLayerParams:
    """Seeded random layer parameters, each matrix scaled by 1/sqrt(input dim).

    The branches feeding the two residual additions (the per-head
    value-output products and the second feed-forward matrix) carry an extra
    factor update_scale / n_heads and update_scale respectively.  This keeps
    per-layer token growth near 1, so deep stacks do not push the score
    matrices out of the range the matching defaults are tuned for.
    """
    if d_h is None:
        d_h = max(d // n_heads, 1)
    if d_f is None:
        d_f = 2 * d
    heads = tuple(
        AttentionHeadParams(
            w_q=rng.standard_normal((d_h, d)) / np.sqrt(d),
            w_k=rng.standard_normal((d_h, d)) / np.sqrt(d),
            w_vo=rng.standard_normal((d, d)) * (update_scale / (np.sqrt(d) * n_heads)),
        )
        for _ in range(n_heads)
    )
    ffn = FeedForwardParams(
        w_1=rng.standard_normal((d_f, d)) / np.sqrt(d),
        b_1=rng.standard_normal(d_f) / np.sqrt(d),
        w_2=rng.standard_normal((d, d_f)) * (update_scale / np.sqrt(d_f)),
        b_2=rng.standard_normal(d) * (update_scale / np.sqrt(d)),
    )
    return AttentionLayerParams(heads=heads, ffn=ffn, sim=sim)


def random_transformer_spec(
    rng: np.random.Generator,
    d: int = 8,
    n_heads: int = 2,
    depth: int = 2,
    d_desc: int = 6,
    sim: Similarity | None = None,
    routing: tuple[LayerRoute, ...] = DEFAULT_ROUTING,
    embed_scale: float = 0.35,
    update_scale: float = 0.3,
) -> TransformerSpec:
    """Seeded toy network: the routing block repeated ``depth`` times.

    All parameters are drawn from ``rng`` in a fixed order, so identical
    seeds give identical networks.  embed_scale sets the magnitude of the
    embedded tokens and update_scale the per-layer residual updates; the
    defaults land pairwise token scores in roughly [-5, 5], where the default
    transport parameters converge comfortably.
    """
    if sim is None:
        sim = SoftmaxSim()
    d_in = 2 + d_desc
    embed_params = AffineEmbed(
        w=rng.standard_normal((d, d_in)) * (embed_scale / np.sqrt(d_in)),
        b=rng.standard_normal(d) * (embed_scale / np.sqrt(d_in)),
    )
    layers = tuple(
        (route, random_layer_params(rng, d, n_heads, sim, update_scale=update_scale))
        for _ in range(depth)
        for route in routing
    )
    return TransformerSpec(embed=embed_params, layers=layers)
