"""Unit tests for feature sets, sampling containers, and the two-set network."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import rwmatch.transformer as transformer
from rwmatch.attention import LinearSim, ProbabilityWeights, SoftmaxSim, attention_layer_forward
from rwmatch.transformer import (
    DEFAULT_ROUTING,
    FeatureSet,
    LayerRoute,
    SampledSet,
    TransformerSpec,
    embed,
    forward,
    forward_reweighted,
    random_transformer_spec,
)


def full_sample(fset):
    """The identity sample: every point once, in index order."""
    return SampledSet(fset, np.arange(fset.n))


def make_set(rng, n=6, d_desc=5, grid=10.0, probs=None):
    coords = rng.uniform(0.0, grid, size=(2, n))
    descriptors = rng.standard_normal((d_desc, n))
    if probs is None:
        probs = ProbabilityWeights(rng.dirichlet(np.ones(n)))
    return FeatureSet(coords=coords, descriptors=descriptors, probs=probs, grid=(grid, grid))


class TestFeatureSet:
    def test_basic_accessors(self):
        rng = np.random.default_rng(0)
        fset = make_set(rng, n=4)
        assert fset.n == 4

    def test_with_probs_replaces_only_probs(self):
        rng = np.random.default_rng(1)
        fset = make_set(rng, n=4)
        new = fset.with_probs(ProbabilityWeights.uniform(4))
        assert_array_equal(new.coords, fset.coords)
        assert_array_equal(new.descriptors, fset.descriptors)
        assert_array_equal(new.probs.p, np.full(4, 0.25))

    def test_rejects_out_of_grid_coords(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            FeatureSet(
                coords=np.array([[0.0, 11.0], [1.0, 2.0]]),
                descriptors=rng.standard_normal((3, 2)),
                probs=ProbabilityWeights.uniform(2),
                grid=(10.0, 10.0),
            )

    def test_rejects_inconsistent_shapes(self):
        rng = np.random.default_rng(3)
        coords = rng.uniform(0, 10, size=(2, 4))
        with pytest.raises(ValueError):
            FeatureSet(
                coords=coords,
                descriptors=rng.standard_normal((3, 5)),
                probs=ProbabilityWeights.uniform(4),
                grid=(10.0, 10.0),
            )
        with pytest.raises(ValueError):
            FeatureSet(
                coords=coords,
                descriptors=rng.standard_normal((3, 4)),
                probs=ProbabilityWeights.uniform(5),
                grid=(10.0, 10.0),
            )
        with pytest.raises(ValueError):
            FeatureSet(
                coords=coords,
                descriptors=rng.standard_normal((3, 4)),
                probs=ProbabilityWeights.uniform(4),
                grid=(10.0, -1.0),
            )


class TestSampledSet:
    def test_indices_validated(self):
        rng = np.random.default_rng(4)
        fset = make_set(rng, n=5)
        sample = SampledSet(fset, np.array([0, 2, 2, 4]))
        assert sample.n == 4
        with pytest.raises(ValueError):
            SampledSet(fset, np.array([0, 5]))
        with pytest.raises(ValueError):
            SampledSet(fset, np.array([-1]))
        with pytest.raises(ValueError):
            SampledSet(fset, np.array([], dtype=int))

    @pytest.mark.parametrize(
        "indices",
        [[0.7, 2.9], [1.0, np.nan], [np.inf], [-1.0], [True, False], np.array([2**64 - 1], dtype=np.uint64)],
    )
    def test_non_integral_indices_rejected(self, indices):
        """Indices are never truncated or wrapped into the base set."""
        fset = make_set(np.random.default_rng(4), n=5)
        with pytest.raises(ValueError, match="nonnegative integers"):
            SampledSet(fset, np.array(indices))

    def test_integral_float_indices_accepted(self):
        fset = make_set(np.random.default_rng(4), n=5)
        sample = SampledSet(fset, np.array([4.0, 0.0, 4.0]))
        assert sample.indices.dtype == np.intp
        assert_array_equal(sample.indices, [4, 0, 4])

    def test_zero_probability_points_cannot_be_sampled(self):
        rng = np.random.default_rng(5)
        probs = ProbabilityWeights(np.array([0.0, 1.0, 1.0, 1.0]))
        fset = make_set(rng, n=4, probs=probs)
        with pytest.raises(ValueError):
            SampledSet(fset, np.array([0]))


class TestEmbed:
    def test_pointwise_and_gather(self):
        """Embedding acts column by column, and a sample's tokens are bitwise
        copies of its base tokens."""
        rng = np.random.default_rng(7)
        fset = make_set(rng, n=6)
        spec = random_transformer_spec(rng, d=4, n_heads=2, depth=1, d_desc=5)
        tokens = embed(spec, fset)
        assert tokens.shape == (4, 6)
        idx = np.array([3, 3, 0, 5])
        sample = SampledSet(fset, idx)
        assert_array_equal(embed(spec, sample), tokens[:, idx])

    def test_coordinates_are_normalized_to_unit_box(self):
        """Two sets whose coords agree after grid normalization embed identically."""
        rng = np.random.default_rng(8)
        descriptors = rng.standard_normal((5, 3))
        probs = ProbabilityWeights.uniform(3)
        coords = np.array([[0.0, 5.0, 10.0], [2.5, 5.0, 7.5]])
        small = FeatureSet(coords=coords, descriptors=descriptors, probs=probs, grid=(10.0, 10.0))
        large = FeatureSet(coords=4.0 * coords, descriptors=descriptors, probs=probs, grid=(40.0, 40.0))
        spec = random_transformer_spec(rng, d=4, d_desc=5)
        assert_allclose(embed(spec, small), embed(spec, large), atol=1e-15)

    def test_descriptor_width_mismatch_rejected(self):
        rng = np.random.default_rng(9)
        fset = make_set(rng, n=3, d_desc=4)
        spec = random_transformer_spec(rng, d=4, d_desc=5)
        with pytest.raises(ValueError):
            embed(spec, fset)


class TestForward:
    def test_requires_sampled_sets(self):
        rng = np.random.default_rng(10)
        fset = make_set(rng, n=4, d_desc=6)
        spec = random_transformer_spec(rng, d=8)
        with pytest.raises(TypeError):
            forward(spec, fset, fset)

    def test_shapes_and_determinism(self):
        rng = np.random.default_rng(11)
        set_a, set_b = make_set(rng, n=5, d_desc=6), make_set(rng, n=7, d_desc=6)
        spec = random_transformer_spec(rng, d=8)
        sa = SampledSet(set_a, np.array([0, 1, 1, 4]))
        sb = SampledSet(set_b, np.array([2, 6]))
        out_a, out_b = forward(spec, sa, sb)
        assert out_a.shape == (8, 4) and out_b.shape == (8, 2)
        again_a, again_b = forward(spec, sa, sb)
        assert_array_equal(out_a, again_a)
        assert_array_equal(out_b, again_b)

    def test_duplicate_sample_positions_get_identical_tokens(self):
        rng = np.random.default_rng(12)
        set_a, set_b = make_set(rng, n=5, d_desc=6), make_set(rng, n=5, d_desc=6)
        spec = random_transformer_spec(rng, d=8)
        sa = SampledSet(set_a, np.array([3, 0, 3, 3]))
        sb = SampledSet(set_b, np.array([1, 1]))
        out_a, out_b = forward(spec, sa, sb)
        assert_array_equal(out_a[:, 0], out_a[:, 2])
        assert_array_equal(out_a[:, 0], out_a[:, 3])
        assert_array_equal(out_b[:, 0], out_b[:, 1])

    def test_self_only_routing_leaves_other_side_at_embedding(self):
        rng = np.random.default_rng(13)
        set_a, set_b = make_set(rng, n=4, d_desc=6), make_set(rng, n=4, d_desc=6)
        spec = random_transformer_spec(rng, d=8, depth=2, routing=(LayerRoute.SELF_A,))
        sa, sb = full_sample(set_a), full_sample(set_b)
        out_a, out_b = forward(spec, sa, sb)
        assert_array_equal(out_b, embed(spec, sb))
        assert np.abs(out_a - embed(spec, sa)).max() > 1e-8

    def test_cross_routing_depends_on_other_side(self):
        rng = np.random.default_rng(14)
        set_a = make_set(rng, n=4, d_desc=6)
        set_b1 = make_set(rng, n=4, d_desc=6)
        set_b2 = make_set(rng, n=4, d_desc=6)
        spec = random_transformer_spec(rng, d=8, depth=1, routing=(LayerRoute.CROSS_A_FROM_B,))
        sa = full_sample(set_a)
        out_a1, _ = forward(spec, sa, full_sample(set_b1))
        out_a2, _ = forward(spec, sa, full_sample(set_b2))
        assert np.abs(out_a1 - out_a2).max() > 1e-8


def reference_forward(spec, sample_a, sample_b):
    """The literal network: every sample position embedded and run as a
    query, each layer over all m_Q x m_K sample pairs."""
    tokens_a, tokens_b = embed(spec, sample_a), embed(spec, sample_b)
    for route, params in spec.layers:
        if route is LayerRoute.SELF_A:
            tokens_a = attention_layer_forward(tokens_a, tokens_a, tokens_a, params)
        elif route is LayerRoute.SELF_B:
            tokens_b = attention_layer_forward(tokens_b, tokens_b, tokens_b, params)
        elif route is LayerRoute.CROSS_A_FROM_B:
            tokens_a = attention_layer_forward(tokens_a, tokens_b, tokens_b, params)
        else:
            tokens_b = attention_layer_forward(tokens_b, tokens_a, tokens_a, params)
    return tokens_a, tokens_b


def sample_pair(kind, set_a, set_b, rng):
    """Index arrays of one A and one B sample of the given kind."""
    if kind == "heavily-duplicated":
        # m = 64 drawn from 5 points of each side, every one of the 5 present
        def draw(n):
            return np.concatenate([np.arange(5), rng.choice(5, size=59)])[rng.permutation(64)]
        return draw(set_a.n), draw(set_b.n)
    if kind == "duplicate-free":
        return rng.permutation(set_a.n), rng.permutation(set_b.n)[:5]
    return np.array([0, 3, 3, 1, 3, 5, 3]), np.array([2, 4, 2])


SAMPLE_KINDS = ["heavily-duplicated", "duplicate-free", "one-index-repeated"]


class TestDistinctQueries:
    """forward runs one query per distinct sampled point against all m keys."""

    @pytest.mark.parametrize("kind", SAMPLE_KINDS)
    @pytest.mark.parametrize(
        "sim", [SoftmaxSim(), SoftmaxSim(tau=1.7), LinearSim()], ids=["tau1", "tau1.7", "linear"]
    )
    def test_matches_literal_network(self, sim, kind):
        rng = np.random.default_rng(30)
        set_a, set_b = make_set(rng, n=7, d_desc=6), make_set(rng, n=6, d_desc=6)
        spec = random_transformer_spec(rng, d=8, sim=sim)
        idx_a, idx_b = sample_pair(kind, set_a, set_b, rng)
        sa, sb = SampledSet(set_a, idx_a), SampledSet(set_b, idx_b)
        out = forward(spec, sa, sb)
        ref = reference_forward(spec, sa, sb)
        for got, want, idx in zip(out, ref, (idx_a, idx_b)):
            assert got.shape == want.shape == (8, idx.size)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            # duplicated sample positions hold bitwise copies of one column
            _, first, inverse = np.unique(idx, return_index=True, return_inverse=True)
            assert_array_equal(got, got[:, first[inverse]])

    def test_layers_see_distinct_queries_and_all_keys(self, monkeypatch):
        calls = []

        def spy(x_q, x_k, x_v, params, weights=None):
            out = attention_layer_forward(x_q, x_k, x_v, params, weights)
            calls.append((x_q, x_k, x_v, out))
            return out

        monkeypatch.setattr(transformer, "attention_layer_forward", spy)
        rng = np.random.default_rng(31)
        set_a, set_b = make_set(rng, n=7, d_desc=6), make_set(rng, n=6, d_desc=6)
        spec = random_transformer_spec(rng, d=8, depth=2)
        idx_a, idx_b = sample_pair("heavily-duplicated", set_a, set_b, rng)
        idx_b = idx_b[:40]
        forward(spec, SampledSet(set_a, idx_a), SampledSet(set_b, idx_b))
        distinct = (np.unique(idx_a).size, np.unique(idx_b).size)
        sizes = (idx_a.size, idx_b.size)
        sides = {
            LayerRoute.SELF_A: (0, 0),
            LayerRoute.SELF_B: (1, 1),
            LayerRoute.CROSS_A_FROM_B: (0, 1),
            LayerRoute.CROSS_B_FROM_A: (1, 0),
        }
        assert len(calls) == len(spec.layers)
        for (route, _), (x_q, x_k, x_v, _) in zip(spec.layers, calls):
            q, k = sides[route]
            assert x_q.shape[1] == distinct[q]
            assert x_k.shape[1] == x_v.shape[1] == sizes[k]

        # the reweighted network hands each layer the key side's current
        # tokens as they are: no gather, no copy
        calls.clear()
        forward_reweighted(spec, set_a, set_b)
        current = [None, None]
        for (route, _), (x_q, x_k, x_v, out) in zip(spec.layers, calls):
            q, k = sides[route]
            assert x_k is x_v
            if q == k:
                assert x_k is x_q
            if current[k] is not None:
                assert x_k is current[k]
            current[q] = out


class TestForwardReweighted:
    @pytest.mark.parametrize("sim", [SoftmaxSim(), LinearSim()])
    def test_uniform_probs_match_standard_forward(self, sim):
        rng = np.random.default_rng(15)
        set_a = make_set(rng, n=5, d_desc=6, probs=ProbabilityWeights.uniform(5))
        set_b = make_set(rng, n=6, d_desc=6, probs=ProbabilityWeights.uniform(6))
        spec = random_transformer_spec(rng, d=8, sim=sim)
        out_a, out_b = forward_reweighted(spec, set_a, set_b)
        std_a, std_b = forward(spec, full_sample(set_a), full_sample(set_b))
        assert_allclose(out_a, std_a, atol=1e-12)
        assert_allclose(out_b, std_b, atol=1e-12)

    @pytest.mark.parametrize("sim", [SoftmaxSim(), LinearSim()])
    def test_duplication_matches_reweighted(self, sim):
        """The standard network on duplicated points equals the reweighted
        network at the duplication frequencies, token by token."""
        rng = np.random.default_rng(16)
        set_a, set_b = make_set(rng, n=4, d_desc=6), make_set(rng, n=5, d_desc=6)
        spec = random_transformer_spec(rng, d=8, sim=sim)
        mult_a = np.array([2, 1, 3, 2])
        mult_b = np.array([1, 2, 1, 1, 3])
        sa = SampledSet(set_a, np.repeat(np.arange(4), mult_a))
        sb = SampledSet(set_b, np.repeat(np.arange(5), mult_b))
        out_a, out_b = forward(spec, sa, sb)
        rw_a, rw_b = forward_reweighted(
            spec,
            set_a.with_probs(ProbabilityWeights(mult_a.astype(np.float64))),
            set_b.with_probs(ProbabilityWeights(mult_b.astype(np.float64))),
        )
        assert_allclose(out_a, rw_a[:, sa.indices], atol=1e-12)
        assert_allclose(out_b, rw_b[:, sb.indices], atol=1e-12)

    def test_zero_probability_point_is_ignored(self):
        """A zero-probability point must not influence any other token."""
        rng = np.random.default_rng(17)
        set_b = make_set(rng, n=5, d_desc=6)
        coords = rng.uniform(0, 10, size=(2, 5))
        descriptors = rng.standard_normal((6, 5))
        probs = ProbabilityWeights(np.array([1.0, 2.0, 0.0, 1.0, 1.0]))
        set_a = FeatureSet(coords=coords, descriptors=descriptors, probs=probs, grid=(10.0, 10.0))
        spoiled = FeatureSet(
            coords=coords,
            descriptors=descriptors + np.array([0, 0, 100.0, 0, 0])[None, :],
            probs=probs,
            grid=(10.0, 10.0),
        )
        spec = random_transformer_spec(rng, d=8)
        out_a, out_b = forward_reweighted(spec, set_a, set_b)
        alt_a, alt_b = forward_reweighted(spec, spoiled, set_b)
        keep = [0, 1, 3, 4]
        assert_array_equal(out_a[:, keep], alt_a[:, keep])
        assert_array_equal(out_b, alt_b)


class TestRandomSpec:
    def test_structure(self):
        rng = np.random.default_rng(18)
        spec = random_transformer_spec(rng, d=8, n_heads=2, depth=3)
        assert spec.d == 8
        assert len(spec.layers) == 3 * len(DEFAULT_ROUTING)
        routes = [route for route, _ in spec.layers]
        assert routes == list(DEFAULT_ROUTING) * 3
        for _, params in spec.layers:
            assert params.d == 8
            assert len(params.heads) == 2

    def test_seeded_reproducibility(self):
        spec1 = random_transformer_spec(np.random.default_rng(19), d=4)
        spec2 = random_transformer_spec(np.random.default_rng(19), d=4)
        assert_array_equal(spec1.embed.w, spec2.embed.w)
        for (_, p1), (_, p2) in zip(spec1.layers, spec2.layers):
            assert_array_equal(p1.heads[0].w_q, p2.heads[0].w_q)
            assert_array_equal(p1.ffn.w_2, p2.ffn.w_2)

    def test_layer_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(20)
        spec4 = random_transformer_spec(rng, d=4)
        spec8 = random_transformer_spec(rng, d=8)
        with pytest.raises(ValueError):
            TransformerSpec(embed=spec8.embed, layers=spec4.layers)

    def test_depth_zero_is_embedding_only(self):
        rng = np.random.default_rng(21)
        set_a, set_b = make_set(rng, n=3, d_desc=6), make_set(rng, n=3, d_desc=6)
        spec = random_transformer_spec(rng, d=8, depth=0)
        out_a, out_b = forward_reweighted(spec, set_a, set_b)
        assert_array_equal(out_a, embed(spec, set_a))
        assert_array_equal(out_b, embed(spec, set_b))
