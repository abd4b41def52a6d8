"""Sampling, index grouping, and Monte-Carlo convergence experiments.

The experiments quantify how fast computations on i.i.d. samples from a
feature set approach the probability-reweighted computation on the full set:

* attention experiments compare per-token network outputs on samples against
  the reweighted outputs of the matched full-set points;
* matching experiments sum uniform transport or dual-softmax entries over the
  groups of samples that share a full-set point and compare the grouped sums
  against the reweighted result.

For sample sizes up to ``expand_threshold`` each trial runs the sampled
computation literally: every attention layer sums over all m sampled keys,
duplicates included, while each distinct point's query runs once (its
duplicates share its output column), and transport and dual-softmax run on
the full m x m score matrix.  Above the threshold the trial switches to an
algebraically identical collapsed form: uniform attention, transport, and
dual-softmax over duplicated points reduce exactly (iteration by iteration,
with matching group sums) to their reweighted counterparts at the empirical
frequencies, so only the unique points need to be processed, as keys too.
The equivalence of the two routes is itself covered by tests; the collapse
changes the arithmetic cost, not the sampled randomness.  A collapsed trial
needs only each point's draw count, so it counts the draws chunk by chunk
and never forms the m-point sample.

Every draw, ``sample_iid``'s too, goes through one inverse-CDF sampler, which
maps each uniform through a lookup table and gives the indices of
``Generator.choice`` with ``p``, draw for draw, from the same stream.  Both
experiments run one trial loop and supply only their two computations.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .attention import LinearSim, ProbabilityWeights, SoftmaxSim
from .matching import (
    DEFAULT_ALPHA,
    DEFAULT_EPS,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    dual_softmax,
    dual_softmax_reweighted,
    ot_reweighted,
    ot_uniform,
    score_matrix,
)
from .transformer import (
    FeatureSet,
    SampledSet,
    TransformerSpec,
    forward,
    forward_reweighted,
)

__all__ = [
    "SizeStats",
    "ConvergenceReport",
    "sample_iid",
    "random_feature_set",
    "run_attention_convergence",
    "run_matching_convergence",
    "EXPAND_THRESHOLD_ATTENTION",
    "EXPAND_THRESHOLD_MATCHING",
]

EXPAND_THRESHOLD_ATTENTION = 1024
EXPAND_THRESHOLD_MATCHING = 512

# cells of the sampler's lookup table, and the most uniforms drawn at once by
# a collapsed trial: 64 KB, below glibc's default mmap threshold of 128 KB, so
# no chunk needs a fresh mapping
_TABLE_CELLS = 4096
_COUNT_CHUNK = 8192


@dataclass(frozen=True)
class SizeStats:
    """Error quantiles over the trials of one sample size."""

    sample_size: int
    trial_count: int
    q25: float
    q50: float
    q75: float
    max_err: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Quantile summary of a convergence experiment, one entry per sample size."""

    experiment: str
    similarity: str
    method: str
    seed: int
    entries: tuple[SizeStats, ...]

    def medians(self) -> np.ndarray:
        return np.array([e.q50 for e in self.entries])

    def rows(self) -> list[dict]:
        """One flat record per sample size, in size order."""
        return [
            {
                "experiment": self.experiment,
                "similarity": self.similarity,
                "method": self.method,
                "sample_size": e.sample_size,
                "trial_count": e.trial_count,
                "q25": e.q25,
                "q50": e.q50,
                "q75": e.q75,
                "max": e.max_err,
                "seed": self.seed,
            }
            for e in self.entries
        ]


def sample_iid(
    fset: FeatureSet, n: int, seed: int | np.random.Generator
) -> SampledSet:
    """Draw n indices independently with the set's detection probabilities.

    The indices equal ``Generator.choice(fset.n, size=n, p=fset.probs.p)`` on
    the same generator, draw for draw, and the generator ends in the same
    state.  Identical seeds give identical samples.  Points with zero
    probability are never drawn.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    # the convergence runners' sampler: every draw in the package takes one path
    return SampledSet(fset, _InverseCdf(fset.probs.p).draw(rng, n))


def random_feature_set(
    rng: np.random.Generator,
    n_points: int = 16,
    d_desc: int = 6,
    grid: float = 32.0,
    min_prob: float = 0.0,
) -> FeatureSet:
    """Seeded synthetic set: distinct integer grid coords, normal descriptors,
    Dirichlet(1) probabilities.

    ``min_prob`` floors the raw Dirichlet draw before normalization, which
    keeps sampling experiments from starving any point.
    """
    side = int(grid)
    if n_points > side * side:
        raise ValueError("more points than grid cells")
    cells = rng.choice(side * side, size=n_points, replace=False)
    coords = np.stack(np.unravel_index(cells, (side, side))).astype(np.float64)
    descriptors = rng.standard_normal((d_desc, n_points))
    probs = rng.dirichlet(np.ones(n_points))
    if min_prob > 0.0:
        probs = np.maximum(probs, min_prob)
    return FeatureSet(
        coords=coords,
        descriptors=descriptors,
        probs=ProbabilityWeights(probs),
        grid=(grid, grid),
    )


def _trial_rng(seed: int, sample_size: int, trial: int) -> np.random.Generator:
    """Independent deterministic stream for one (sample size, trial) cell."""
    return np.random.default_rng(np.random.SeedSequence([seed, sample_size, trial]))


def _similarity_label(spec: TransformerSpec) -> str:
    """Short name of the similarity the network's layers use."""
    if not spec.layers:
        return "none"
    sim = spec.layers[0][1].sim
    if isinstance(sim, SoftmaxSim):
        return "softmax"
    if isinstance(sim, LinearSim):
        return "linear"
    return type(sim).__name__


class _InverseCdf:
    """Index draws with probabilities p, equal to ``Generator.choice`` with p.

    choice binary-searches each uniform u in the normalized cumulative sum.
    Here [0, 1) is cut into ``cells`` equal cells (a power of two, so the cell
    of u is exact), and a table holds the drawn index of every cell that no
    CDF value splits; only the uniforms in split cells are searched.  A draw
    consumes the same uniforms as choice, so the stream stays in step.
    """

    def __init__(self, p: np.ndarray, cells: int = _TABLE_CELLS) -> None:
        # the normalized cumulative sum, built as choice builds it
        self.cdf = cdf = p.cumsum()
        cdf /= cdf[-1]
        self.cells = cells
        edges = np.arange(cells + 1) / cells
        first = cdf.searchsorted(edges[:-1], side="right")
        # the index is constant on a cell iff no CDF value lies strictly inside it
        split = first != cdf.searchsorted(edges[1:], side="left")
        self.table = np.where(split, -1, first)

    def draw(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """m indices, drawn from m uniforms of rng."""
        u = rng.random(m)
        idx = self.table[(u * self.cells).astype(np.intp)]
        split = np.flatnonzero(idx < 0)
        idx[split] = self.cdf.searchsorted(u[split], side="right")
        return idx

    def frequencies(self, rng: np.random.Generator, m: int) -> ProbabilityWeights:
        """Empirical frequencies of m draws, counted chunk by chunk.

        Consumes the uniforms of ``draw(rng, m)`` and equals the normalized
        bincount of its indices bit for bit.
        """
        n = self.cdf.size
        counts = np.zeros(n, dtype=np.intp)
        for start in range(0, m, _COUNT_CHUNK):
            counts += np.bincount(self.draw(rng, min(_COUNT_CHUNK, m - start)), minlength=n)
        return ProbabilityWeights(counts.astype(np.float64))


def _group_sum(values: np.ndarray, ia: np.ndarray, ib: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Sum values[k, l] over all (k, l) with ia[k] == i and ib[l] == j."""
    tmp = np.zeros((n_a, values.shape[1]))
    np.add.at(tmp, ia, values)
    out_t = np.zeros((n_b, n_a))
    np.add.at(out_t, ib, tmp.T)
    return out_t.T


def _check_sizes(sizes) -> tuple[int, ...]:
    sizes = tuple(sizes)
    # bools, fractions and non-finite values raise instead of being truncated
    if len(sizes) == 0 or not all(
        isinstance(m, numbers.Real)
        and not isinstance(m, bool)
        and (isinstance(m, numbers.Integral) or float(m).is_integer())
        and m >= 1
        for m in sizes
    ):
        raise ValueError("sizes must be positive integers")
    sizes = tuple(int(m) for m in sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    return sizes


def _stats(sample_size: int, errors: list[float]) -> SizeStats:
    arr = np.array(errors, dtype=np.float64)
    q25, q50, q75 = np.quantile(arr, [0.25, 0.5, 0.75])
    return SizeStats(
        sample_size=sample_size,
        trial_count=arr.size,
        q25=float(q25),
        q50=float(q50),
        q75=float(q75),
        max_err=float(arr.max()),
    )


def _converge(
    experiment: str,
    method: str,
    spec: TransformerSpec,
    set_a: FeatureSet,
    set_b: FeatureSet,
    sizes,
    trials: int,
    seed: int,
    expand_threshold: int | None,
    reweighted,
    literal,
) -> ConvergenceReport:
    """The trial loop of both convergence experiments.

    ``reweighted(p_a, p_b)`` runs the reweighted computation on the full sets
    at weights p_a and p_b: once at the sets' own probabilities for the
    reference, and for each collapsed trial at the empirical frequencies.
    ``literal(idx_a, idx_b)`` runs the sampled computation on the drawn
    indices.  Both return one (values, cols, points) triple per compared
    quantity: ``values[:, cols]`` holds the values of the full-set points
    ``points``, and a trial's error is their largest absolute difference to
    the reference's values of the same points.
    """
    sizes = _check_sizes(sizes)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    reference = [values for values, _, _ in reweighted(set_a.probs, set_b.probs)]
    sampler_a, sampler_b = _InverseCdf(set_a.probs.p), _InverseCdf(set_b.probs.p)
    entries = []
    for m in sizes:
        errors = []
        for t in range(trials):
            rng = _trial_rng(seed, m, t)
            if expand_threshold is None or m <= expand_threshold:
                got = literal(sampler_a.draw(rng, m), sampler_b.draw(rng, m))
            else:
                got = reweighted(sampler_a.frequencies(rng, m), sampler_b.frequencies(rng, m))
            err = max(
                np.abs(v[:, cols] - ref[:, points]).max()
                for (v, cols, points), ref in zip(got, reference)
            )
            errors.append(float(err))
        entries.append(_stats(m, errors))
    return ConvergenceReport(
        experiment=experiment,
        similarity=_similarity_label(spec),
        method=method,
        seed=seed,
        entries=tuple(entries),
    )


def run_attention_convergence(
    spec: TransformerSpec,
    set_a: FeatureSet,
    set_b: FeatureSet,
    sizes,
    trials: int,
    seed: int,
    expand_threshold: int | None = EXPAND_THRESHOLD_ATTENTION,
) -> ConvergenceReport:
    """Per-token distance between sampled and reweighted network outputs.

    For each size m and trial: draw m-point samples of both sides, run the
    standard network on the samples and the reweighted network on the full
    sets, and record the largest per-token infinity-norm distance between a
    sample's output token and the reweighted output token of its full-set
    point.  Entries report the 25/50/75 percent quantiles and the maximum
    over trials.  ``expand_threshold`` of None always runs the literal
    sampled network.
    """

    # only the tokens of points a trial drew are compared
    def reweighted(p_a, p_b):
        outs = forward_reweighted(spec, set_a.with_probs(p_a), set_b.with_probs(p_b))
        return [(out, seen, seen) for out, seen in zip(outs, (p_a.p > 0.0, p_b.p > 0.0))]

    def literal(idx_a, idx_b):
        outs = forward(spec, SampledSet(set_a, idx_a), SampledSet(set_b, idx_b))
        return [(out, slice(None), idx) for out, idx in zip(outs, (idx_a, idx_b))]

    return _converge(
        "attention-converge", "attention", spec, set_a, set_b,
        sizes, trials, seed, expand_threshold, reweighted, literal,
    )


def run_matching_convergence(
    spec: TransformerSpec,
    set_a: FeatureSet,
    set_b: FeatureSet,
    sizes,
    trials: int,
    seed: int,
    method: str = "ot",
    alpha: float = DEFAULT_ALPHA,
    eps: float = DEFAULT_EPS,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    expand_threshold: int | None = EXPAND_THRESHOLD_MATCHING,
) -> ConvergenceReport:
    """Grouped-sum distance between sampled uniform matching and reweighted matching.

    For each trial: run the standard network on m-point samples of both
    sides, apply uniform matching (entropic transport or dual-softmax) to the
    sampled tokens, sum the resulting entries over all sample pairs that
    refer to the same full-set pair (i, j), and take the largest absolute
    difference to the reweighted matching of the full sets over all interior
    pairs.  Pairs never sampled contribute their reweighted value, since the
    empty group sums to zero.  Dustbins are excluded: grouped sums have no
    dustbin counterpart.
    """
    if method not in ("ot", "dual-softmax"):
        raise ValueError(f"method must be 'ot' or 'dual-softmax', got {method!r}")
    ot_kw = dict(alpha=alpha, eps=eps, max_iters=max_iters, tol=tol)

    # every pair is compared, the never-sampled ones too
    def reweighted(p_a, p_b):
        tok_a, tok_b = forward_reweighted(spec, set_a.with_probs(p_a), set_b.with_probs(p_b))
        if method == "ot":
            grouped = ot_reweighted(tok_a, tok_b, p_a, p_b, **ot_kw).interior
        else:
            grouped = dual_softmax_reweighted(score_matrix(tok_a, tok_b), p_a, p_b)
        return [(grouped, slice(None), slice(None))]

    def literal(idx_a, idx_b):
        tok_a, tok_b = forward(spec, SampledSet(set_a, idx_a), SampledSet(set_b, idx_b))
        if method == "ot":
            sampled = ot_uniform(tok_a, tok_b, **ot_kw).interior
        else:
            sampled = dual_softmax(score_matrix(tok_a, tok_b))
        grouped = _group_sum(sampled, idx_a, idx_b, set_a.n, set_b.n)
        return [(grouped, slice(None), slice(None))]

    return _converge(
        "matching-converge", method, spec, set_a, set_b,
        sizes, trials, seed, expand_threshold, reweighted, literal,
    )
