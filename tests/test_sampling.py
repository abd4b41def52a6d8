"""Unit tests for sampling, grouping, and the convergence experiment harness."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rwmatch.attention import LinearSim, ProbabilityWeights, SoftmaxSim
from rwmatch.sampling import (
    _COUNT_CHUNK,
    _TABLE_CELLS,
    ConvergenceReport,
    _InverseCdf,
    _similarity_label,
    _trial_rng,
    random_feature_set,
    run_attention_convergence,
    run_matching_convergence,
    sample_iid,
)
from rwmatch.transformer import SampledSet, forward, forward_reweighted, random_transformer_spec


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

    @pytest.mark.parametrize("n_draws", [1, 16, 1000, 3 * _TABLE_CELLS + 7, 70_000])
    def test_matches_generator_choice(self, n_draws):
        """The sample is choice's, and the generator ends in choice's state."""
        rng = np.random.default_rng(4)
        fset = random_feature_set(rng, n_points=16)
        ours, oracle = np.random.default_rng(9), np.random.default_rng(9)
        sample = sample_iid(fset, n_draws, ours)
        assert_array_equal(sample.indices, oracle.choice(16, size=n_draws, p=fset.probs.p))
        assert ours.random() == oracle.random()


class _FixedUniforms:
    """Stands in for a Generator whose uniforms are chosen by the test."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, m):
        assert m == self.u.size
        return self.u.copy()


def assert_draws_like_choice(p, m, seed, cells=_TABLE_CELLS):
    """The sampler's indices equal ``rng.choice`` draw for draw, and both
    generators end in the same state."""
    ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _InverseCdf(p, cells).draw(ours, m)
    want = oracle.choice(p.size, size=m, p=p)
    assert got.dtype == want.dtype
    assert_array_equal(got, want)
    assert ours.random() == oracle.random()


class TestInverseCdf:
    def test_random_cases_match_choice(self):
        """About 200 random (n, m, table size) cases, some with zero
        probabilities, some with m across the counting chunk's boundaries."""
        rng = np.random.default_rng(21)
        for case in range(200):
            n = int(rng.integers(1, 41))
            m = int(rng.integers(1, 70_001))
            if case % 10 == 0:
                m = _COUNT_CHUNK * int(rng.integers(1, 5)) + int(rng.integers(-1, 2))
            raw = rng.dirichlet(np.ones(n))
            if case % 3 == 0:
                raw[rng.random(n) < 0.3] = 0.0
                raw[int(rng.integers(n))] += 0.1
            cells = 1 << int(rng.integers(0, 13))
            assert_draws_like_choice(ProbabilityWeights(raw).p, m, seed=case, cells=cells)

    @pytest.mark.parametrize(
        "raw",
        [
            [0.3, 0.0, 0.7, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.5, 0.0, 0.5, 0.0],
            [1.0, 0.0, 0.0, 0.0],
        ],
    )
    def test_zero_probability_points(self, raw):
        p = ProbabilityWeights(raw).p
        assert_draws_like_choice(p, 50_000, seed=3)
        counts = np.bincount(_InverseCdf(p).draw(np.random.default_rng(3), 50_000), minlength=p.size)
        assert np.all(counts[p == 0.0] == 0)

    @pytest.mark.parametrize("cells", [1, 2, 4, 8, _TABLE_CELLS])
    def test_cdf_values_on_cell_edges(self, cells):
        """Dyadic probabilities put CDF values exactly on cell edges; a
        uniform on an edge takes the index searchsorted(side='right') gives."""
        p = ProbabilityWeights([0.25, 0.25, 0.125, 0.125, 0.25]).p
        assert_draws_like_choice(p, 20_000, seed=5, cells=cells)
        cdf = p.cumsum()
        u = np.concatenate(
            [cdf[:-1], np.nextafter(cdf[:-1], 0.0), np.nextafter(cdf[:-1], 1.0), [0.0, np.nextafter(1.0, 0.0)]]
        )
        got = _InverseCdf(p, cells).draw(_FixedUniforms(u), u.size)
        assert_array_equal(got, cdf.searchsorted(u, side="right"))

    def test_edge_cdf_values_leave_no_split_cells(self):
        p = ProbabilityWeights([0.25, 0.25, 0.5]).p
        assert np.all(_InverseCdf(p, 4).table >= 0)

    def test_more_points_than_cells(self):
        rng = np.random.default_rng(6)
        assert_draws_like_choice(ProbabilityWeights(rng.dirichlet(np.ones(40))).p, 30_000, seed=7, cells=8)
        p = ProbabilityWeights(rng.dirichlet(np.ones(2 * _TABLE_CELLS))).p
        assert_draws_like_choice(p, 30_000, seed=8)

    @pytest.mark.parametrize(
        "m", [1, 100, _COUNT_CHUNK - 1, _COUNT_CHUNK, _COUNT_CHUNK + 1, 3 * _COUNT_CHUNK + 5]
    )
    def test_frequencies_equal_bincount_of_draws(self, m):
        p = ProbabilityWeights([0.1, 0.0, 0.4, 0.2, 0.3, 0.0]).p
        sampler = _InverseCdf(p)
        counted, drawn = np.random.default_rng(11), np.random.default_rng(11)
        hat = sampler.frequencies(counted, m)
        counts = np.bincount(sampler.draw(drawn, m), minlength=p.size).astype(np.float64)
        assert_array_equal(hat.p, ProbabilityWeights(counts).p)
        assert counted.random() == drawn.random()

    @pytest.mark.parametrize("method", ["attention", "ot"])
    def test_collapsed_trial_never_forms_the_sample(self, method):
        """A collapsed trial at m = 2^20 counts its draws chunk by chunk; the
        m-point sample alone would take 8 MB a side."""
        set_a, set_b, spec = toy_assets(22)
        run = run_attention_convergence if method == "attention" else run_matching_convergence
        run(spec, set_a, set_b, (2048,), 1, seed=0)  # first-call allocations are not the trial's
        tracemalloc.start()
        try:
            report = run(spec, set_a, set_b, (2**20,), 1, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.entries[0].sample_size == 2**20
        assert peak < 2 * 2**20


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
        a = _trial_rng(1, 64, 3).standard_normal(4)
        b = _trial_rng(1, 64, 3).standard_normal(4)
        c = _trial_rng(1, 64, 4).standard_normal(4)
        d = _trial_rng(1, 128, 3).standard_normal(4)
        assert_array_equal(a, b)
        assert np.any(a != c)
        assert np.any(a != d)


class TestSimilarityLabel:
    def test_labels(self):
        rng = np.random.default_rng(10)
        assert _similarity_label(random_transformer_spec(rng, d=4)) == "softmax"
        assert _similarity_label(random_transformer_spec(rng, d=4, sim=LinearSim())) == "linear"
        assert _similarity_label(random_transformer_spec(rng, d=4, depth=0)) == "none"


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

    def test_trial_error_covers_both_sides(self):
        """One literal trial, recomputed with ``Generator.choice`` draws: its
        error is the larger of the two sides' per-token distances."""
        set_a, set_b, spec = toy_assets(22)
        report = run_attention_convergence(spec, set_a, set_b, (9,), 1, seed=5)
        rng = _trial_rng(5, 9, 0)
        idx_a = rng.choice(set_a.n, size=9, p=set_a.probs.p)
        idx_b = rng.choice(set_b.n, size=9, p=set_b.probs.p)
        out_a, out_b = forward(spec, SampledSet(set_a, idx_a), SampledSet(set_b, idx_b))
        full_a, full_b = forward_reweighted(spec, set_a, set_b)
        err_a = np.abs(out_a - full_a[:, idx_a]).max()
        err_b = np.abs(out_b - full_b[:, idx_b]).max()
        assert err_b > err_a  # the case is chosen so that side b decides
        assert report.entries[0].max_err == err_b

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

    @pytest.mark.parametrize(
        "sizes", [(10.7, 20.9), (True,), (8, float("nan")), (float("inf"),), (0,), (-4,), ("8",)]
    )
    def test_sizes_are_not_truncated(self, sizes):
        set_a, set_b, spec = toy_assets(14)
        with pytest.raises(ValueError, match="sizes must be positive integers"):
            run_attention_convergence(spec, set_a, set_b, sizes, 2, seed=0)
        with pytest.raises(ValueError, match="sizes must be positive integers"):
            run_matching_convergence(spec, set_a, set_b, sizes, 2, seed=0)

    def test_integral_sizes_of_any_type_accepted(self):
        set_a, set_b, spec = toy_assets(14)
        report = run_attention_convergence(spec, set_a, set_b, (8.0, np.int64(16)), 2, seed=0)
        assert [e.sample_size for e in report.entries] == [8, 16]
        assert all(type(e.sample_size) is int for e in report.entries)


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
