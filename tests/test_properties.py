"""Property-based invariants of attention, matching, and the config format.

Each property draws problem dimensions and a seed, then generates the actual
arrays with numpy's generator.  Keeping the data generation seeded sidesteps
pathological float inputs (signed zeros, subnormals) that the library
explicitly rejects or that no experiment produces, while hypothesis still
explores the structural corners: minimal sizes, rectangular shapes, skewed
weights, and degenerate supports.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rwmatch.attention import (
    LinearSim,
    ProbabilityWeights,
    SoftmaxSim,
    attention_layer_forward,
    attention_matrix,
    reweighted_attention_matrix,
)
from rwmatch.cli import ExperimentConfig, parse_config, serialize_config
from rwmatch.matching import (
    augment,
    dual_softmax,
    dual_softmax_reweighted,
    marginals,
    sinkhorn,
)
from rwmatch.transformer import random_layer_params

dims = st.integers(min_value=1, max_value=12)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
sims = st.sampled_from([SoftmaxSim(), SoftmaxSim(tau=0.5), SoftmaxSim(tau=4.0), LinearSim()])


def make_weights(rng, n, allow_zeros=True):
    raw = rng.gamma(0.7, size=n)
    if allow_zeros and n > 1 and rng.random() < 0.3:
        dead = rng.choice(n, size=rng.integers(1, n), replace=False)
        raw[dead] = 0.0
    return ProbabilityWeights(raw)


@settings(max_examples=60, deadline=None)
@given(n_k=dims, n_q=dims, d=dims, sim=sims, seed=seeds)
def test_attention_columns_are_stochastic(n_k, n_q, d, sim, seed):
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((d, n_k))
    queries = rng.standard_normal((d, n_q))
    w = make_weights(rng, n_k)
    for attn in (
        attention_matrix(keys, queries, sim),
        reweighted_attention_matrix(keys, queries, sim, w),
    ):
        assert attn.shape == (n_k, n_q)
        assert np.all(attn >= 0.0)
        assert_allclose(attn.sum(axis=0), np.ones(n_q), atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n_k=dims, n_q=dims, d=dims, sim=sims, seed=seeds)
def test_uniform_weights_reduce_to_standard_attention(n_k, n_q, d, sim, seed):
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((d, n_k))
    queries = rng.standard_normal((d, n_q))
    plain = attention_matrix(keys, queries, sim)
    rw = reweighted_attention_matrix(keys, queries, sim, ProbabilityWeights.uniform(n_k))
    assert_allclose(rw, plain, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(n_k=dims, n_q=dims, sim=sims, seed=seeds, scale=st.floats(0.01, 100.0))
def test_weight_scale_invariance(n_k, n_q, sim, seed, scale):
    """Attention depends only on the direction of the weight vector."""
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((4, n_k))
    queries = rng.standard_normal((4, n_q))
    raw = rng.gamma(0.7, size=n_k) + 1e-3
    one = reweighted_attention_matrix(keys, queries, sim, ProbabilityWeights(raw))
    other = reweighted_attention_matrix(
        keys, queries, sim, ProbabilityWeights(scale * raw)
    )
    assert_allclose(other, one, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(n_k=dims, n_q=dims, sim=sims, seed=seeds)
def test_attention_permutation_equivariance(n_k, n_q, sim, seed):
    """Permuting keys permutes rows; permuting queries permutes columns."""
    rng = np.random.default_rng(seed)
    keys = rng.standard_normal((3, n_k))
    queries = rng.standard_normal((3, n_q))
    w = make_weights(rng, n_k, allow_zeros=False)
    attn = reweighted_attention_matrix(keys, queries, sim, w)
    pk = rng.permutation(n_k)
    pq = rng.permutation(n_q)
    permuted = reweighted_attention_matrix(
        keys[:, pk], queries[:, pq], sim, ProbabilityWeights(w.p[pk])
    )
    assert_allclose(permuted, attn[np.ix_(pk, pq)], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n_a=dims, n_b=dims, seed=seeds, alpha=st.floats(-3.0, 3.0))
def test_augmented_sinkhorn_is_feasible(n_a, n_b, seed, alpha):
    """The converged plan satisfies both marginals and carries mass 2."""
    rng = np.random.default_rng(seed)
    p_a = make_weights(rng, n_a)
    p_b = make_weights(rng, n_b)
    scores = rng.uniform(-2.0, 2.0, size=(n_a, n_b))
    a, b = marginals(p_a, p_b)
    result = sinkhorn(augment(scores, alpha), a, b, eps=0.5, max_iters=5000, tol=1e-11)
    assert result.converged
    assert np.all(result.plan >= 0.0)
    assert_allclose(result.plan.sum(axis=1), a, atol=1e-9)
    assert_allclose(result.plan.sum(axis=0), b, atol=1e-9)
    assert abs(result.plan.sum() - 2.0) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(n_a=dims, n_b=dims, seed=seeds)
def test_dual_softmax_bounds_and_reduction(n_a, n_b, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(-4.0, 4.0, size=(n_a, n_b))
    ds = dual_softmax(scores)
    assert np.all(ds >= 0.0) and np.all(ds <= 1.0)
    rw = dual_softmax_reweighted(
        scores, ProbabilityWeights.uniform(n_a), ProbabilityWeights.uniform(n_b)
    )
    assert_allclose(rw, ds, atol=1e-13)
    # row sums of the row-softmax factor bound the weighted matrix by 1
    weighted = dual_softmax_reweighted(
        scores, make_weights(rng, n_a), make_weights(rng, n_b)
    )
    assert np.all(weighted >= 0.0) and np.all(weighted <= 1.0 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(n_a=dims, n_b=dims, seed=seeds)
def test_dual_softmax_duplication_identity(n_a, n_b, seed):
    """Group-summed uniform dual-softmax of duplicated scores equals the
    reweighted dual-softmax at the duplication frequencies."""
    rng = np.random.default_rng(seed)
    scores = rng.uniform(-2.0, 2.0, size=(n_a, n_b))
    mult_a = rng.integers(1, 4, size=n_a)
    mult_b = rng.integers(1, 4, size=n_b)
    rep_a = np.repeat(np.arange(n_a), mult_a)
    rep_b = np.repeat(np.arange(n_b), mult_b)
    ds = dual_softmax(scores[rep_a][:, rep_b])
    grouped = np.zeros((n_a, n_b))
    np.add.at(grouped, (rep_a[:, None], rep_b[None, :]), ds)
    rw = dual_softmax_reweighted(
        scores,
        ProbabilityWeights(mult_a.astype(np.float64)),
        ProbabilityWeights(mult_b.astype(np.float64)),
    )
    assert_allclose(grouped, rw, atol=1e-13)


@settings(max_examples=20, deadline=None)
@given(n_a=dims, n_b=dims, sim=sims, seed=seeds)
def test_kernels_leave_inputs_unchanged(n_a, n_b, sim, seed):
    """The kernels transform their own buffers in place, never the caller's:
    every input is frozen read-only and compared bitwise afterwards."""
    rng = np.random.default_rng(seed)
    x_a = rng.standard_normal((8, n_a))
    x_b = rng.standard_normal((8, n_b))
    scores = rng.uniform(-4.0, 4.0, size=(n_a, n_b))
    p_a = make_weights(rng, n_a)
    p_b = make_weights(rng, n_b)
    a, b = marginals(p_a, p_b)
    sbar = augment(scores, 1.0)
    layer = random_layer_params(rng, d=8, n_heads=2, sim=sim)
    inputs = [x_a, x_b, scores, p_a.p, p_b.p, a, b, sbar]
    inputs += [m for h in layer.heads for m in (h.w_q, h.w_k, h.w_vo)]
    inputs += [layer.ffn.w_1, layer.ffn.b_1, layer.ffn.w_2, layer.ffn.b_2]
    before = [m.copy() for m in inputs]
    for m in inputs:
        m.flags.writeable = False

    attention_matrix(x_a, x_b, sim)
    reweighted_attention_matrix(x_a, x_b, sim, p_a)
    attention_layer_forward(x_b, x_a, x_a, layer)
    attention_layer_forward(x_b, x_a, x_a, layer, p_a)
    attention_layer_forward(x_a, x_a, x_a, layer, p_a)
    dual_softmax(scores)
    dual_softmax_reweighted(scores, p_a, p_b)
    sinkhorn(sbar, a, b, eps=0.1, max_iters=20)
    for m, m0 in zip(inputs, before):
        assert np.array_equal(m, m0)


config_strategy = st.builds(
    ExperimentConfig,
    experiment=st.sampled_from(
        [None, "attention-converge", "matching-converge", "sinkhorn-check", "reduce-check", "sparsify"]
    ),
    seed=st.integers(0, 2**64 - 1),
    sizes=st.lists(st.integers(1, 10**6), min_size=1, max_size=5, unique=True).map(
        lambda xs: tuple(sorted(xs))
    ),
    trials=st.one_of(st.none(), st.integers(1, 10**6)),
    d=st.sampled_from([2, 4, 8, 16, 64]),
    heads=st.sampled_from([1, 2]),
    depth=st.integers(0, 8),
    n_points=st.integers(2, 64),
    grid=st.integers(8, 1024),
    similarity=st.sampled_from(["softmax", "linear"]),
    tau=st.floats(0.01, 100.0),
    method=st.sampled_from(["ot", "dual-softmax"]),
    eps=st.floats(0.001, 10.0),
    alpha=st.floats(-100.0, 100.0),
    iters=st.integers(1, 10**5),
    tol=st.floats(0.0, 1.0),
    lam=st.floats(0.0, 1000.0),
    rule=st.sampled_from(["threshold", "topk", "nms"]),
    rule_t=st.floats(0.01, 0.99),
    rule_k=st.integers(1, 10**4),
    rule_radius=st.floats(0.1, 100.0),
    steps=st.integers(1, 10**5),
)


@settings(max_examples=80, deadline=None)
@given(cfg=config_strategy)
def test_config_serialization_round_trips(cfg):
    assert parse_config(serialize_config(cfg)) == cfg
