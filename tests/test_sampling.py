"""Unit tests for sampling, grouping, and the convergence experiment harness."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rwmatch.attention import LinearSim, ProbabilityWeights, SoftmaxSim
from rwmatch.sampling import (
    ConvergenceReport,
    empirical_weights,
    random_feature_set,
    run_attention_convergence,
    run_matching_convergence,
    sample_iid,
    similarity_label,
    trial_rng,
)
from rwmatch.transformer import SampledSet, random_transformer_spec


def toy_assets(seed, n_points=6, sim=None):
    rng = np.random.default_rng(seed)
    set_a = random_feature_set(rng, n_points=n_points, grid=16.0)
    set_b = random_feature_set(rng, n_points=n_points, grid=16.0)
    spec = random_transformer_spec(rng, d=4, n_heads=2, depth=1, sim=sim)
    return set_a, set_b, spec


class TestSampleIid:
    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(0)
        fset = random_feature_set(rng, n_points=8)
        s1 = sample_iid(fset, 20, seed=42)
        s2 = sample_iid(fset, 20, seed=42)
        assert_array_equal(s1.indices, s2.indices)
        assert s1.base is fset

    def test_respects_probabilities(self):
        """Occurrence frequencies track the detection probabilities."""
        rng = np.random.default_rng(1)
        fset = random_feature_set(rng, n_points=5)
        sample = sample_iid(fset, 200_000, seed=7)
        freqs = np.bincount(sample.indices, minlength=5) / 200_000
        assert_allclose(freqs, fset.probs.p, atol=0.01)

    def test_rejects_empty_sample(self):
        rng = np.random.default_rng(2)
        fset = random_feature_set(rng, n_points=4)
        with pytest.raises(ValueError):
            sample_iid(fset, 0, seed=0)

    def test_generator_argument_advances_state(self):
        rng = np.random.default_rng(3)
        fset = random_feature_set(rng, n_points=4)
        gen = np.random.default_rng(5)
        s1 = sample_iid(fset, 10, gen)
        s2 = sample_iid(fset, 10, gen)
        assert np.any(s1.indices != s2.indices)


class TestGrouping:
    def test_empirical_weights(self):
        w = empirical_weights(np.array([0, 2, 2, 3]), 5)
        assert_allclose(w.p, [0.25, 0.0, 0.5, 0.25, 0.0])


class TestRandomFeatureSet:
    def test_distinct_grid_cells(self):
        rng = np.random.default_rng(7)
        fset = random_feature_set(rng, n_points=30, grid=8.0)
        cells = set(map(tuple, fset.coords.T.astype(int)))
        assert len(cells) == 30
        assert fset.coords.min() >= 0.0
        assert fset.coords.max() <= 8.0

    def test_min_prob_floors_probabilities(self):
        rng = np.random.default_rng(8)
        fset = random_feature_set(rng, n_points=16, min_prob=0.01)
        assert fset.probs.p.min() >= 0.01 / (1.0 + 16 * 0.01)

    def test_too_many_points_rejected(self):
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError):
            random_feature_set(rng, n_points=5, grid=2.0)


class TestTrialRng:
    def test_streams_are_deterministic_and_distinct(self):
        a = trial_rng(1, 64, 3).standard_normal(4)
        b = trial_rng(1, 64, 3).standard_normal(4)
        c = trial_rng(1, 64, 4).standard_normal(4)
        d = trial_rng(1, 128, 3).standard_normal(4)
        assert_array_equal(a, b)
        assert np.any(a != c)
        assert np.any(a != d)


class TestSimilarityLabel:
    def test_labels(self):
        rng = np.random.default_rng(10)
        assert similarity_label(random_transformer_spec(rng, d=4)) == "softmax"
        assert similarity_label(random_transformer_spec(rng, d=4, sim=LinearSim())) == "linear"
        assert similarity_label(random_transformer_spec(rng, d=4, depth=0)) == "none"


class TestAttentionConvergence:
    def test_report_structure(self):
        set_a, set_b, spec = toy_assets(11)
        report = run_attention_convergence(spec, set_a, set_b, (8, 16), 5, seed=1)
        assert isinstance(report, ConvergenceReport)
        assert report.experiment == "attention-converge"
        assert report.similarity == "softmax"
        assert report.method == "attention"
        assert [e.sample_size for e in report.entries] == [8, 16]
        for e in report.entries:
            assert e.trial_count == 5
            assert 0.0 <= e.q25 <= e.q50 <= e.q75 <= e.max_err
        rows = report.rows()
        assert len(rows) == 2 and rows[0]["q50"] == report.entries[0].q50

    def test_errors_shrink_with_sample_size(self):
        set_a, set_b, spec = toy_assets(12)
        report = run_attention_convergence(spec, set_a, set_b, (8, 512), 20, seed=2)
        medians = report.medians()
        assert medians[1] < medians[0] / 2.0

    @pytest.mark.parametrize("sim", [SoftmaxSim(), LinearSim()])
    def test_expanded_and_collapsed_routes_agree(self, sim):
        """Above the expansion threshold the harness switches from running the
        sampled network literally to the reweighted network at the empirical
        frequencies.  Both routes must produce the same statistics."""
        set_a, set_b, spec = toy_assets(13, sim=sim)
        expanded = run_attention_convergence(
            spec, set_a, set_b, (16, 64), 10, seed=3, expand_threshold=None
        )
        collapsed = run_attention_convergence(
            spec, set_a, set_b, (16, 64), 10, seed=3, expand_threshold=0
        )
        for e_exp, e_col in zip(expanded.entries, collapsed.entries):
            assert e_exp.q50 == pytest.approx(e_col.q50, rel=1e-10, abs=1e-12)
            assert e_exp.max_err == pytest.approx(e_col.max_err, rel=1e-10, abs=1e-12)

    def test_invalid_sizes_rejected(self):
        set_a, set_b, spec = toy_assets(14)
        with pytest.raises(ValueError):
            run_attention_convergence(spec, set_a, set_b, (16, 8), 5, seed=0)
        with pytest.raises(ValueError):
            run_attention_convergence(spec, set_a, set_b, (), 5, seed=0)
        with pytest.raises(ValueError):
            run_attention_convergence(spec, set_a, set_b, (8,), 0, seed=0)


class TestMatchingConvergence:
    @pytest.mark.parametrize("method", ["ot", "dual-softmax"])
    def test_report_structure(self, method):
        set_a, set_b, spec = toy_assets(15)
        report = run_matching_convergence(
            spec, set_a, set_b, (8, 16), 4, seed=4, method=method
        )
        assert report.experiment == "matching-converge"
        assert report.method == method
        assert len(report.entries) == 2

    def test_rejects_unknown_method(self):
        set_a, set_b, spec = toy_assets(16)
        with pytest.raises(ValueError):
            run_matching_convergence(spec, set_a, set_b, (8,), 2, seed=0, method="greedy")

    def test_dual_softmax_routes_agree(self):
        set_a, set_b, spec = toy_assets(17)
        expanded = run_matching_convergence(
            spec, set_a, set_b, (16, 64), 8, seed=5,
            method="dual-softmax", expand_threshold=None,
        )
        collapsed = run_matching_convergence(
            spec, set_a, set_b, (16, 64), 8, seed=5,
            method="dual-softmax", expand_threshold=0,
        )
        for e_exp, e_col in zip(expanded.entries, collapsed.entries):
            assert e_exp.q50 == pytest.approx(e_col.q50, rel=1e-10, abs=1e-12)
            assert e_exp.max_err == pytest.approx(e_col.max_err, rel=1e-10, abs=1e-12)

    def test_ot_routes_agree_at_fixed_iterations(self):
        """With tolerance stopping disabled both transport routes follow the
        same scaling trajectory, so the statistics agree to round-off."""
        set_a, set_b, spec = toy_assets(18)
        kwargs = dict(method="ot", max_iters=50, tol=0.0)
        expanded = run_matching_convergence(
            spec, set_a, set_b, (16, 48), 6, seed=6, expand_threshold=None, **kwargs
        )
        collapsed = run_matching_convergence(
            spec, set_a, set_b, (16, 48), 6, seed=6, expand_threshold=0, **kwargs
        )
        for e_exp, e_col in zip(expanded.entries, collapsed.entries):
            assert e_exp.q50 == pytest.approx(e_col.q50, rel=1e-9, abs=1e-12)
            assert e_exp.max_err == pytest.approx(e_col.max_err, rel=1e-9, abs=1e-12)

    def test_ot_routes_agree_with_active_tolerance(self):
        """Tolerance-based stopping can end the two routes at different
        iterations; the statistics then agree only up to the tolerance."""
        set_a, set_b, spec = toy_assets(19)
        kwargs = dict(method="ot", tol=1e-9)
        expanded = run_matching_convergence(
            spec, set_a, set_b, (16, 48), 6, seed=7, expand_threshold=None, **kwargs
        )
        collapsed = run_matching_convergence(
            spec, set_a, set_b, (16, 48), 6, seed=7, expand_threshold=0, **kwargs
        )
        for e_exp, e_col in zip(expanded.entries, collapsed.entries):
            assert e_exp.q50 == pytest.approx(e_col.q50, rel=1e-4, abs=1e-7)

    def test_errors_shrink_with_sample_size(self):
        set_a, set_b, spec = toy_assets(20)
        report = run_matching_convergence(
            spec, set_a, set_b, (8, 512), 12, seed=8, method="dual-softmax"
        )
        medians = report.medians()
        assert medians[1] < medians[0] / 2.0
