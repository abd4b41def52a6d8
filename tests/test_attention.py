"""Unit tests for similarity kinds, (reweighted) attention matrices and layers."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import softmax

from rwmatch.attention import (
    AttentionHeadParams,
    AttentionLayerParams,
    FeedForwardParams,
    LinearSim,
    ProbabilityWeights,
    SoftmaxSim,
    attention_layer_forward,
    attention_matrix,
    linear_phi,
    relu,
    reweighted_attention_matrix,
)


def similarity(sim, k, q):
    """Scalar similarity of one key and one query: the per-entry oracle."""
    if isinstance(sim, SoftmaxSim):
        return float(np.exp(k @ q / sim.tau))
    return float(sim.phi(k) @ sim.phi(q))


def reference_attention(keys, queries, sim, weights=None):
    """The normalized attention matrix built one full-size array per step:
    logits, plus log p, shifted, exponentiated, divided."""
    if isinstance(sim, SoftmaxSim):
        logits = keys.T @ queries / sim.tau
        if weights is not None:
            logits = logits + weights.log()[:, None]
        logits -= logits.max(axis=0, keepdims=True)
        num = np.exp(logits)
    else:
        num = sim.phi(keys).T @ sim.phi(queries)
        if weights is not None:
            num = weights.p[:, None] * num
    return num / num.sum(axis=0, keepdims=True)


def reference_layer_forward(x_q, x_k, x_v, params, weights=None):
    """The layer as a per-head loop that normalizes each attention matrix
    before aggregating the values against it."""
    x = x_q.copy()
    for head in params.heads:
        attn = reference_attention(head.w_k @ x_k, head.w_q @ x_q, params.sim, weights)
        x += head.w_vo @ (x_v @ attn)
    ffn = params.ffn
    hidden = ffn.act(ffn.w_1 @ x + ffn.b_1[:, None])
    return x + ffn.w_2 @ hidden + ffn.b_2[:, None]


def small_layer(rng, d=4, n_heads=2, sim=SoftmaxSim()):
    d_h, d_f = d // n_heads, 2 * d
    heads = tuple(
        AttentionHeadParams(
            w_q=rng.standard_normal((d_h, d)),
            w_k=rng.standard_normal((d_h, d)),
            w_vo=rng.standard_normal((d, d)),
        )
        for _ in range(n_heads)
    )
    ffn = FeedForwardParams(
        w_1=rng.standard_normal((d_f, d)),
        b_1=rng.standard_normal(d_f),
        w_2=rng.standard_normal((d, d_f)),
        b_2=rng.standard_normal(d),
    )
    return AttentionLayerParams(heads=heads, ffn=ffn, sim=sim)


class TestProbabilityWeights:
    def test_normalizes_on_construction(self):
        w = ProbabilityWeights(np.array([2.0, 6.0]))
        assert_allclose(w.p, [0.25, 0.75])
        assert w.p.sum() == pytest.approx(1.0)

    def test_uniform(self):
        w = ProbabilityWeights.uniform(5)
        assert len(w) == 5
        assert_array_equal(w.p, np.full(5, 0.2))

    def test_zero_entries_allowed(self):
        w = ProbabilityWeights(np.array([0.0, 1.0, 3.0]))
        assert w.p[0] == 0.0
        assert w.log()[0] == -np.inf
        assert np.isfinite(w.log()[1:]).all()

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([]),
            np.array([[0.5, 0.5]]),
            np.array([0.0, 0.0]),
            np.array([-0.1, 1.1]),
            np.array([np.nan, 1.0]),
            np.array([np.inf, 1.0]),
        ],
    )
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            ProbabilityWeights(bad)


class TestSimilarity:
    def test_linear_phi_branches(self):
        x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        expected = np.array([np.exp(-2.0), np.exp(-0.5), 1.0, 1.5, 3.0])
        assert_allclose(linear_phi(x), expected)

    def test_linear_phi_positive_and_no_overflow(self):
        # exp underflows to zero only below about -745, far outside token range
        x = np.array([-700.0, -50.0, 1e6])
        out = linear_phi(x)
        assert np.all(out > 0.0)
        assert np.all(np.isfinite(out))

    def test_scalar_values(self):
        rng = np.random.default_rng(0)
        k, q = rng.standard_normal(5), rng.standard_normal(5)
        assert similarity(SoftmaxSim(tau=2.0), k, q) == pytest.approx(np.exp(k @ q / 2.0))
        assert similarity(LinearSim(), k, q) == pytest.approx(linear_phi(k) @ linear_phi(q))
        assert similarity(SoftmaxSim(), k, q) > 0.0
        assert similarity(LinearSim(), k, q) > 0.0

    def test_tau_must_be_positive(self):
        for tau in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                SoftmaxSim(tau=tau)


class TestAttentionMatrix:
    @pytest.mark.parametrize("sim", [SoftmaxSim(), SoftmaxSim(tau=0.5), LinearSim()])
    def test_column_stochastic(self, sim):
        rng = np.random.default_rng(1)
        attn = attention_matrix(rng.standard_normal((6, 9)), rng.standard_normal((6, 5)), sim)
        assert attn.shape == (9, 5)
        assert np.all(attn > 0.0)
        assert_allclose(attn.sum(axis=0), np.ones(5), atol=1e-14)

    def test_softmax_matches_scipy(self):
        rng = np.random.default_rng(2)
        keys, queries = rng.standard_normal((4, 7)), rng.standard_normal((4, 3))
        attn = attention_matrix(keys, queries, SoftmaxSim(tau=1.7))
        assert_allclose(attn, softmax(keys.T @ queries / 1.7, axis=0), atol=1e-14)

    def test_softmax_survives_huge_logits(self):
        keys = np.array([[600.0, -600.0]])
        queries = np.array([[1.0]])
        attn = attention_matrix(keys, queries, SoftmaxSim())
        assert np.all(np.isfinite(attn))
        assert_allclose(attn[:, 0], [1.0, 0.0], atol=1e-200)

    def test_linear_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        keys, queries = rng.standard_normal((4, 6)), rng.standard_normal((4, 2))
        num = linear_phi(keys).T @ linear_phi(queries)
        assert_allclose(
            attention_matrix(keys, queries, LinearSim()),
            num / num.sum(axis=0, keepdims=True),
        )

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            attention_matrix(np.zeros((3, 4)), np.zeros((2, 4)), SoftmaxSim())
        with pytest.raises(ValueError):
            attention_matrix(np.zeros((3, 0)), np.zeros((3, 4)), SoftmaxSim())


class TestReweightedAttention:
    @pytest.mark.parametrize("sim", [SoftmaxSim(), LinearSim()])
    def test_uniform_weights_reduce_to_standard(self, sim):
        rng = np.random.default_rng(4)
        keys, queries = rng.standard_normal((5, 8)), rng.standard_normal((5, 6))
        plain = attention_matrix(keys, queries, sim)
        reweighted = reweighted_attention_matrix(
            keys, queries, sim, ProbabilityWeights.uniform(8)
        )
        assert_allclose(reweighted, plain, atol=1e-14)

    @pytest.mark.parametrize("sim", [SoftmaxSim(tau=0.8), LinearSim()])
    def test_matches_explicit_formula(self, sim):
        rng = np.random.default_rng(5)
        keys, queries = rng.standard_normal((3, 6)), rng.standard_normal((3, 4))
        w = ProbabilityWeights(rng.dirichlet(np.ones(6)))
        expected = np.empty((6, 4))
        for i in range(6):
            for j in range(4):
                expected[i, j] = w.p[i] * similarity(sim, keys[:, i], queries[:, j])
        expected /= expected.sum(axis=0, keepdims=True)
        got = reweighted_attention_matrix(keys, queries, sim, w)
        assert_allclose(got, expected, rtol=1e-12)

    @pytest.mark.parametrize("sim", [SoftmaxSim(), LinearSim()])
    def test_zero_weight_rows_exactly_zero(self, sim):
        rng = np.random.default_rng(6)
        keys, queries = rng.standard_normal((4, 5)), rng.standard_normal((4, 3))
        w = ProbabilityWeights(np.array([0.0, 1.0, 2.0, 0.0, 1.0]))
        attn = reweighted_attention_matrix(keys, queries, sim, w)
        assert_array_equal(attn[0], 0.0)
        assert_array_equal(attn[3], 0.0)
        # the surviving rows match attention restricted to the support
        alive = [1, 2, 4]
        sub = reweighted_attention_matrix(
            keys[:, alive], queries, sim, ProbabilityWeights(w.p[alive])
        )
        assert_allclose(attn[alive], sub, atol=1e-15)

    @pytest.mark.parametrize("sim", [SoftmaxSim(), LinearSim()])
    def test_duplication_collapses_to_weights(self, sim):
        """Attention over duplicated keys, summed per group, equals reweighted
        attention at the duplication frequencies."""
        rng = np.random.default_rng(7)
        keys, queries = rng.standard_normal((4, 5)), rng.standard_normal((4, 3))
        counts = np.array([3, 1, 2, 1, 1])
        expanded = np.repeat(keys, counts, axis=1)
        attn = attention_matrix(expanded, queries, sim)
        grouped = np.zeros((5, 3))
        np.add.at(grouped, np.repeat(np.arange(5), counts), attn)
        reweighted = reweighted_attention_matrix(
            keys, queries, sim, ProbabilityWeights(counts.astype(np.float64))
        )
        assert_allclose(grouped, reweighted, atol=1e-14)

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            reweighted_attention_matrix(
                np.zeros((2, 3)), np.zeros((2, 2)), SoftmaxSim(), ProbabilityWeights.uniform(4)
            )


class TestLayerForward:
    def test_output_shape_and_residual_structure(self):
        rng = np.random.default_rng(8)
        params = small_layer(rng)
        x_q = rng.standard_normal((4, 3))
        x_kv = rng.standard_normal((4, 6))
        out = attention_layer_forward(x_q, x_kv, x_kv, params)
        assert out.shape == (4, 3)
        assert np.all(np.isfinite(out))

    def test_zero_updates_leave_affine_residual(self):
        """With zeroed value-output and second feed-forward matrices the layer
        reduces to x_q plus the constant b_2 column."""
        rng = np.random.default_rng(9)
        base = small_layer(rng)
        heads = tuple(
            AttentionHeadParams(h.w_q, h.w_k, np.zeros_like(h.w_vo)) for h in base.heads
        )
        ffn = FeedForwardParams(
            base.ffn.w_1, base.ffn.b_1, np.zeros_like(base.ffn.w_2), base.ffn.b_2
        )
        params = AttentionLayerParams(heads=heads, ffn=ffn, sim=SoftmaxSim())
        x_q = rng.standard_normal((4, 5))
        x_kv = rng.standard_normal((4, 2))
        out = attention_layer_forward(x_q, x_kv, x_kv, params)
        assert_allclose(out, x_q + ffn.b_2[:, None], atol=1e-15)

    def test_heads_add_up(self):
        """The attended update is the sum of the per-head contributions."""
        rng = np.random.default_rng(10)
        params = small_layer(rng, d=4, n_heads=2)
        zero_ffn = FeedForwardParams(
            np.zeros((8, 4)), np.zeros(8), np.zeros((4, 8)), np.zeros(4)
        )
        x_q = rng.standard_normal((4, 3))
        x_kv = rng.standard_normal((4, 5))

        def run(heads):
            p = AttentionLayerParams(heads=heads, ffn=zero_ffn, sim=params.sim)
            return attention_layer_forward(x_q, x_kv, x_kv, p)

        both = run(params.heads)
        first = run(params.heads[:1])
        second = run(params.heads[1:])
        assert_allclose(both, first + second - x_q, atol=1e-12)

    def test_reweighted_layer_uses_weights(self):
        rng = np.random.default_rng(11)
        params = small_layer(rng)
        x_q = rng.standard_normal((4, 3))
        x_kv = rng.standard_normal((4, 6))
        uniform = attention_layer_forward(
            x_q, x_kv, x_kv, params, ProbabilityWeights.uniform(6)
        )
        plain = attention_layer_forward(x_q, x_kv, x_kv, params)
        skewed = attention_layer_forward(
            x_q, x_kv, x_kv, params, ProbabilityWeights(np.array([9.0, 1, 1, 1, 1, 1]))
        )
        assert_allclose(uniform, plain, atol=1e-13)
        assert np.abs(skewed - plain).max() > 1e-6

    def test_shape_validation(self):
        rng = np.random.default_rng(12)
        params = small_layer(rng)
        good = rng.standard_normal((4, 3))
        with pytest.raises(ValueError):
            attention_layer_forward(rng.standard_normal((5, 3)), good, good, params)
        with pytest.raises(ValueError):
            attention_layer_forward(good, good, rng.standard_normal((4, 2)), params)
        with pytest.raises(ValueError):
            attention_layer_forward(good, good, good, params, ProbabilityWeights.uniform(5))


def _layer_case(kind, sim):
    """A layer, query tokens, key/value tokens and key weights (or None)."""
    rng = np.random.default_rng(19)
    params = small_layer(rng, d=8, n_heads=2, sim=sim)
    x_q = rng.standard_normal((8, 5))
    x_kv = rng.standard_normal((8, 7))
    weights = None
    if kind == "weighted":
        weights = ProbabilityWeights(rng.dirichlet(np.ones(7)))
    elif kind == "zero-weight-keys":
        weights = ProbabilityWeights(np.array([0.0, 2.0, 1.0, 0.0, 1.0, 3.0, 0.0]))
    elif kind == "huge-logits":
        # scaled tokens push the projected logits past +-600
        x_q, x_kv = 8.0 * x_q, 8.0 * x_kv
        logits = [(h.w_k @ x_kv).T @ (h.w_q @ x_q) for h in params.heads]
        assert max(np.abs(l).max() for l in logits) >= 600.0
        assert min(l.min() for l in logits) <= -600.0
    return params, x_q, x_kv, weights


def assert_matches(got, ref, tol=1e-13):
    """Equal within ``tol`` relative to the largest reference entry."""
    assert np.all(np.isfinite(got))
    assert np.abs(got - ref).max() <= tol * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("kind", ["plain", "weighted", "zero-weight-keys", "huge-logits"])
@pytest.mark.parametrize(
    "sim", [SoftmaxSim(), SoftmaxSim(tau=1.7), LinearSim()], ids=["tau1", "tau1.7", "linear"]
)
class TestAgainstReference:
    """The in-place kernels match one full-size array per step, and the layer,
    which divides after aggregating, matches the per-head loop that divides
    each attention matrix first."""

    def test_layer_matches_reference(self, kind, sim):
        params, x_q, x_kv, weights = _layer_case(kind, sim)
        for x_k, w in ((x_kv, weights), (x_q, None)):  # cross and self attention
            got = attention_layer_forward(x_q, x_k, x_k, params, w)
            assert_matches(got, reference_layer_forward(x_q, x_k, x_k, params, w))

    def test_matrices_match_reference(self, kind, sim):
        params, x_q, x_kv, weights = _layer_case(kind, sim)
        head = params.heads[0]
        keys, queries = head.w_k @ x_kv, head.w_q @ x_q
        assert_matches(attention_matrix(keys, queries, sim), reference_attention(keys, queries, sim))
        if weights is not None:
            got = reweighted_attention_matrix(keys, queries, sim, weights)
            assert_matches(got, reference_attention(keys, queries, sim, weights))
            assert_array_equal(got[weights.p == 0.0], 0.0)


class TestParamValidation:
    def test_head_shapes(self):
        with pytest.raises(ValueError):
            AttentionHeadParams(np.zeros((2, 4)), np.zeros((2, 5)), np.zeros((4, 4)))
        with pytest.raises(ValueError):
            AttentionHeadParams(np.zeros((2, 4)), np.zeros((2, 4)), np.zeros((4, 5)))
        with pytest.raises(ValueError):
            AttentionHeadParams(
                np.full((2, 4), np.nan), np.zeros((2, 4)), np.zeros((4, 4))
            )

    def test_ffn_shapes(self):
        with pytest.raises(ValueError):
            FeedForwardParams(np.zeros((8, 4)), np.zeros(7), np.zeros((4, 8)), np.zeros(4))
        with pytest.raises(ValueError):
            FeedForwardParams(np.zeros((8, 4)), np.zeros(8), np.zeros((5, 8)), np.zeros(4))

    def test_layer_needs_consistent_heads(self):
        rng = np.random.default_rng(13)
        ffn = FeedForwardParams(np.zeros((8, 4)), np.zeros(8), np.zeros((4, 8)), np.zeros(4))
        h4 = AttentionHeadParams(np.zeros((2, 4)), np.zeros((2, 4)), np.zeros((4, 4)))
        h3 = AttentionHeadParams(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            AttentionLayerParams(heads=(), ffn=ffn, sim=SoftmaxSim())
        with pytest.raises(ValueError):
            AttentionLayerParams(heads=(h4, h3), ffn=ffn, sim=SoftmaxSim())

    def test_relu(self):
        assert_array_equal(relu(np.array([-1.0, 0.0, 2.5])), [0.0, 0.0, 2.5])
