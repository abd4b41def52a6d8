"""Unit tests for the score head, sparsity losses, SPSA training, and pruning."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from rwmatch.attention import ProbabilityWeights
from rwmatch.matching import AugmentedAssignment, ot_reweighted
from rwmatch.sparsity import (
    NMS,
    LOSS_FLOOR,
    MatchGroundTruth,
    ScoreHeadParams,
    SparsityConfig,
    Threshold,
    TopK,
    matching_loss,
    pipeline_loss,
    prune,
    random_matching_problem,
    random_score_head,
    score_head_forward,
    select_survivors,
    sparsity_loss,
    train_score_head,
)
from rwmatch.transformer import random_transformer_spec


def toy_problem(seed, n_points=6):
    rng = np.random.default_rng(seed)
    set_a, set_b, gt = random_matching_problem(rng, n_points=n_points, grid=16.0)
    spec = random_transformer_spec(rng, d=4, n_heads=2, depth=1)
    head = random_score_head(rng)
    return head, spec, set_a, set_b, gt


def nms_reference(scores, coords, radius, k):
    """Independent quadratic-time non-maximum suppression."""
    alive = list(range(scores.size))
    kept = []
    while alive and len(kept) < k:
        best = max(alive, key=lambda i: (scores[i], -i))
        kept.append(best)
        cheb = np.max(np.abs(coords[:, alive] - coords[:, [best]]), axis=0)
        alive = [i for i, dist in zip(alive, cheb) if dist > radius]
    return np.sort(np.array(kept, dtype=np.intp))


class TestScoreHead:
    def test_flatten_round_trip(self):
        rng = np.random.default_rng(0)
        head = random_score_head(rng, d_desc=5, hidden=7)
        rebuilt = ScoreHeadParams.from_flat(head.flatten(), d_desc=5, hidden=7)
        assert_array_equal(rebuilt.w_1, head.w_1)
        assert_array_equal(rebuilt.b_1, head.b_1)
        assert_array_equal(rebuilt.w_2, head.w_2)
        assert rebuilt.b_2 == head.b_2

    def test_from_flat_length_checked(self):
        with pytest.raises(ValueError):
            ScoreHeadParams.from_flat(np.zeros(10), d_desc=5, hidden=7)

    def test_scores_in_open_unit_interval(self):
        _, _, set_a, _, _ = toy_problem(1)
        rng = np.random.default_rng(2)
        head = random_score_head(rng)
        scores = score_head_forward(head, set_a)
        assert scores.shape == (set_a.n,)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_scores_are_pointwise(self):
        """Each score depends only on its own descriptor."""
        from rwmatch.transformer import FeatureSet

        _, _, set_a, _, _ = toy_problem(3)
        rng = np.random.default_rng(4)
        head = random_score_head(rng)
        full = score_head_forward(head, set_a)
        for i in range(set_a.n):
            solo = FeatureSet(
                coords=set_a.coords[:, [i]],
                descriptors=set_a.descriptors[:, [i]],
                probs=ProbabilityWeights(np.ones(1)),
                grid=set_a.grid,
            )
            # matrix products on different column counts may pick different
            # BLAS kernels, so agreement is to round-off rather than bitwise
            assert score_head_forward(head, solo)[0] == pytest.approx(full[i], rel=1e-12)

    def test_extreme_descriptors_do_not_overflow(self):
        rng = np.random.default_rng(5)
        head = ScoreHeadParams(
            w_1=np.full((2, 3), 100.0), b_1=np.zeros(2), w_2=np.array([500.0, -500.0]), b_2=0.0
        )
        from rwmatch.transformer import FeatureSet

        fset = FeatureSet(
            coords=np.zeros((2, 2)),
            descriptors=np.array([[50.0, -50.0], [0.0, 0.0], [1.0, -1.0]]),
            probs=ProbabilityWeights.uniform(2),
            grid=(4.0, 4.0),
        )
        scores = score_head_forward(head, fset)
        assert np.all(np.isfinite(scores))
        assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_descriptor_width_checked(self):
        rng = np.random.default_rng(6)
        head = random_score_head(rng, d_desc=4)
        _, _, set_a, _, _ = toy_problem(7)
        with pytest.raises(ValueError):
            score_head_forward(head, set_a)


class TestLosses:
    def test_sparsity_loss_is_sum(self):
        assert sparsity_loss(np.array([0.2, 0.3, 0.1])) == pytest.approx(0.6)

    def test_matching_loss_reads_ground_truth_cells(self):
        plan = np.array([[0.6, 0.1, 0.05], [0.1, 0.5, 0.1], [0.05, 0.1, 0.0]])
        assignment = AugmentedAssignment(plan=plan, iterations=1, residual=0.0, converged=True)
        gt = MatchGroundTruth(pairs=np.array([[0, 0], [1, 1]]))
        expected = -np.mean(np.log([0.6, 0.5]))
        assert matching_loss(assignment, gt) == pytest.approx(expected)

    def test_matching_loss_uses_dustbins_for_unmatched(self):
        plan = np.array([[0.5, 0.2], [0.3, 0.4]])
        assignment = AugmentedAssignment(plan=plan, iterations=1, residual=0.0, converged=True)
        gt = MatchGroundTruth(
            pairs=np.empty((0, 2)), unmatched_a=np.array([0]), unmatched_b=np.array([0])
        )
        expected = -np.mean(np.log([0.2, 0.3]))
        assert matching_loss(assignment, gt) == pytest.approx(expected)

    def test_matching_loss_clamps_zero_cells_with_warning(self):
        plan = np.array([[0.0, 0.5], [0.5, 0.0]])
        assignment = AugmentedAssignment(plan=plan, iterations=1, residual=0.0, converged=True)
        gt = MatchGroundTruth(pairs=np.array([[0, 0]]))
        with pytest.warns(RuntimeWarning):
            loss = matching_loss(assignment, gt)
        assert loss == pytest.approx(-np.log(LOSS_FLOOR))

    def test_matching_loss_index_validation(self):
        plan = np.full((3, 3), 1.0 / 9.0)
        assignment = AugmentedAssignment(plan=plan, iterations=1, residual=0.0, converged=True)
        with pytest.raises(ValueError):
            matching_loss(assignment, MatchGroundTruth(pairs=np.array([[2, 0]])))
        with pytest.raises(ValueError):
            matching_loss(
                assignment,
                MatchGroundTruth(pairs=np.empty((0, 2)), unmatched_a=np.array([5])),
            )

    def test_ground_truth_must_be_nonempty(self):
        with pytest.raises(ValueError):
            MatchGroundTruth(pairs=np.empty((0, 2)))

    def test_pipeline_loss_composition(self):
        head, spec, set_a, set_b, gt = toy_problem(8)
        total, lm, ls = pipeline_loss(head, spec, set_a, set_b, gt, lam=0.3)
        assert total == pytest.approx(lm + 0.3 * ls)
        s_a = score_head_forward(head, set_a)
        s_b = score_head_forward(head, set_b)
        assert ls == pytest.approx(sparsity_loss(s_a) + sparsity_loss(s_b))
        assert np.isfinite(lm) and lm > 0.0


class TestRandomMatchingProblem:
    def test_ground_truth_is_a_permutation(self):
        rng = np.random.default_rng(9)
        set_a, set_b, gt = random_matching_problem(rng, n_points=10, noise=0.0)
        assert gt.pairs.shape == (10, 2)
        assert_array_equal(np.sort(gt.pairs[:, 0]), np.arange(10))
        assert_array_equal(np.sort(gt.pairs[:, 1]), np.arange(10))
        assert gt.unmatched_a.size == 0 and gt.unmatched_b.size == 0
        # with zero noise each matched pair shares coordinates and descriptor
        for i, j in gt.pairs:
            assert_array_equal(set_b.coords[:, j], set_a.coords[:, i])
            assert_array_equal(set_b.descriptors[:, j], set_a.descriptors[:, i])


class TestTraining:
    def test_zero_steps_return_init(self):
        head, spec, set_a, set_b, gt = toy_problem(10)
        cfg = SparsityConfig(lam=0.1, rule=TopK(4))
        trained, trace = train_score_head(head, spec, set_a, set_b, gt, cfg, 0, seed=1)
        assert_array_equal(trained.flatten(), head.flatten())
        assert trace.shape == (0, 2)

    def test_training_is_deterministic(self):
        head, spec, set_a, set_b, gt = toy_problem(11)
        cfg = SparsityConfig(lam=0.1, rule=TopK(4))
        t1, trace1 = train_score_head(head, spec, set_a, set_b, gt, cfg, 5, seed=2)
        t2, trace2 = train_score_head(head, spec, set_a, set_b, gt, cfg, 5, seed=2)
        assert_array_equal(t1.flatten(), t2.flatten())
        assert_array_equal(trace1, trace2)
        t3, _ = train_score_head(head, spec, set_a, set_b, gt, cfg, 5, seed=3)
        assert np.any(t3.flatten() != t1.flatten())

    def test_backbone_is_frozen(self):
        """Training must not modify the network parameters at all."""
        head, spec, set_a, set_b, gt = toy_problem(12)
        before = [spec.embed.w.copy(), spec.embed.b.copy()]
        for _, params in spec.layers:
            before.append(params.heads[0].w_q.copy())
            before.append(params.ffn.w_2.copy())
        cfg = SparsityConfig(lam=0.5, rule=TopK(4))
        train_score_head(head, spec, set_a, set_b, gt, cfg, 4, seed=4)
        after = [spec.embed.w, spec.embed.b]
        for _, params in spec.layers:
            after.append(params.heads[0].w_q)
            after.append(params.ffn.w_2)
        for b, a in zip(before, after):
            assert_array_equal(b, a)

    def test_trace_records_probe_losses(self):
        head, spec, set_a, set_b, gt = toy_problem(13)
        cfg = SparsityConfig(lam=0.1, rule=TopK(4))
        _, trace = train_score_head(head, spec, set_a, set_b, gt, cfg, 6, seed=5)
        assert trace.shape == (6, 2)
        assert np.all(np.isfinite(trace))
        assert np.all(trace > 0.0)

    def test_negative_steps_rejected(self):
        head, spec, set_a, set_b, gt = toy_problem(14)
        cfg = SparsityConfig(lam=0.1, rule=TopK(4))
        with pytest.raises(ValueError):
            train_score_head(head, spec, set_a, set_b, gt, cfg, -1, seed=0)

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            SparsityConfig(lam=-0.1, rule=TopK(4))
        with pytest.raises(ValueError):
            SparsityConfig(lam=np.nan, rule=TopK(4))


class TestSelectSurvivors:
    def test_threshold(self):
        scores = np.array([0.9, 0.2, 0.5, 0.61])
        assert_array_equal(select_survivors(scores, Threshold(0.5)), [0, 2, 3])
        assert_array_equal(select_survivors(scores, Threshold(0.61)), [0, 3])

    def test_threshold_nothing_survives(self):
        with pytest.raises(ValueError):
            select_survivors(np.array([0.1, 0.2]), Threshold(0.5))

    def test_topk_keeps_highest(self):
        scores = np.array([0.1, 0.8, 0.3, 0.6])
        assert_array_equal(select_survivors(scores, TopK(2)), [1, 3])
        assert_array_equal(select_survivors(scores, TopK(10)), [0, 1, 2, 3])

    def test_topk_ties_go_to_lower_index(self):
        scores = np.array([0.5, 0.5, 0.5, 0.2])
        assert_array_equal(select_survivors(scores, TopK(2)), [0, 1])

    def test_nms_suppresses_neighbors(self):
        coords = np.array([[0.0, 1.0, 5.0, 6.0], [0.0, 1.0, 5.0, 5.0]])
        scores = np.array([0.9, 0.8, 0.7, 0.95])
        kept = select_survivors(scores, NMS(radius=1.5, k=4), coords)
        # 3 beats 2 (within radius), 0 beats 1 (within radius)
        assert_array_equal(kept, [0, 3])

    def test_nms_respects_k(self):
        coords = np.stack([np.arange(6.0) * 10.0, np.zeros(6)])
        scores = np.linspace(0.9, 0.4, 6)
        kept = select_survivors(scores, NMS(radius=1.0, k=3), coords)
        assert kept.size == 3

    def test_nms_requires_coords(self):
        with pytest.raises(ValueError):
            select_survivors(np.array([0.5, 0.6]), NMS(radius=1.0, k=2))

    @pytest.mark.parametrize("seed", range(25))
    def test_nms_matches_reference(self, seed):
        """Greedy suppression agrees with an independent quadratic reference
        across random score maps, radii, and budgets."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        coords = rng.uniform(0, 16, size=(2, n))
        scores = rng.uniform(0.01, 0.99, size=n)
        radius = float(rng.uniform(0.5, 6.0))
        k = int(rng.integers(1, 12))
        got = select_survivors(scores, NMS(radius=radius, k=k), coords)
        assert_array_equal(got, nms_reference(scores, coords, radius, k))

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            Threshold(0.0)
        with pytest.raises(ValueError):
            Threshold(1.0)
        with pytest.raises(ValueError):
            TopK(0)
        with pytest.raises(ValueError):
            NMS(radius=0.0, k=1)
        with pytest.raises(ValueError):
            NMS(radius=1.0, k=0)


class TestPrune:
    def test_prune_subsets_and_renormalizes(self):
        _, _, set_a, _, _ = toy_problem(15)
        rng = np.random.default_rng(16)
        scores = rng.uniform(0.1, 0.9, size=set_a.n)
        pruned = prune(set_a, scores, TopK(3))
        keep = select_survivors(scores, TopK(3))
        assert pruned.n == 3
        assert_array_equal(pruned.coords, set_a.coords[:, keep])
        assert_array_equal(pruned.descriptors, set_a.descriptors[:, keep])
        assert_allclose(pruned.probs.p, scores[keep] / scores[keep].sum())
        assert pruned.grid == set_a.grid

    def test_pruned_set_feeds_the_pipeline(self):
        """A pruned set is a valid feature set for the reweighted network."""
        head, spec, set_a, set_b, gt = toy_problem(17)
        scores_a = score_head_forward(head, set_a)
        scores_b = score_head_forward(head, set_b)
        pruned_a = prune(set_a, scores_a, TopK(4))
        pruned_b = prune(set_b, scores_b, TopK(4))
        from rwmatch.transformer import forward_reweighted

        tok_a, tok_b = forward_reweighted(spec, pruned_a, pruned_b)
        result = ot_reweighted(tok_a, tok_b, pruned_a.probs, pruned_b.probs)
        assert result.plan.shape == (5, 5)
        assert np.all(np.isfinite(result.plan))

    def test_score_length_checked(self):
        _, _, set_a, _, _ = toy_problem(18)
        with pytest.raises(ValueError):
            prune(set_a, np.array([0.5, 0.5]), TopK(1))
