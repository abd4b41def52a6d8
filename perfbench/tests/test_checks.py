"""Each correctness check accepts the program's real output and rejects a
deliberately corrupted one."""

import numpy as np
import pytest

import checks
import rwmatch
import workloads
from checks import CheckError
from rwmatch import matching, sampling, sparsity, transformer


def _pair(seed=0, n_a=24, n_b=20, d=8):
    rng = np.random.default_rng(seed)
    spec = transformer.random_transformer_spec(np.random.default_rng(workloads.NETWORK_SEED), d=d)
    set_a = sampling.random_feature_set(rng, n_points=n_a, grid=64.0)
    set_b = sampling.random_feature_set(rng, n_points=n_b, grid=64.0)
    tok_a, tok_b = transformer.forward_reweighted(spec, set_a, set_b)
    return set_a, set_b, tok_a, tok_b


@pytest.fixture(scope="module")
def transport():
    set_a, set_b, tok_a, tok_b = _pair()
    result = matching.ot_reweighted(tok_a, tok_b, set_a.probs, set_b.probs)
    assert result.converged
    args = (checks.own_scores(tok_a, tok_b), set_a.probs.p, set_b.probs.p, matching.DEFAULT_ALPHA,
            matching.DEFAULT_EPS, matching.DEFAULT_TOL)
    return result.plan, args


def test_transport_accepts_the_solver_plan(transport):
    plan, args = transport
    checks.check_transport(plan, *args)


def test_transport_rejects_mass_moved_off_a_row(transport):
    plan, args = transport
    bad = plan.copy()
    moved = 0.1 * bad[0, :-1].sum()
    bad[0, :-1] *= 0.9
    bad[1, :-1] += moved / (bad.shape[1] - 1)
    with pytest.raises(CheckError, match="marginals"):
        checks.check_transport(bad, *args)


def test_transport_rejects_a_plan_off_the_gibbs_form(transport):
    plan, args = transport
    bad = plan.copy()
    # a 2x2 exchange keeps every row and column sum but breaks f_i + g_j
    x = 0.01 * min(bad[0, 1], bad[1, 0])
    bad[0, 0] += x
    bad[1, 1] += x
    bad[0, 1] -= x
    bad[1, 0] -= x
    with pytest.raises(CheckError, match="Gibbs"):
        checks.check_transport(bad, *args)


def test_scores_reject_a_changed_entry():
    _, _, tok_a, tok_b = _pair()
    scores = matching.score_matrix(tok_a, tok_b)
    own = checks.own_scores(tok_a, tok_b)
    checks.check_scores(scores, own)
    scores[3, 4] += 1e-6
    with pytest.raises(CheckError):
        checks.check_scores(scores, own)


def test_dual_softmax_rejects_swapped_entries():
    set_a, set_b, tok_a, tok_b = _pair(d=64)
    scores = matching.score_matrix(tok_a, tok_b)
    ds = matching.dual_softmax_reweighted(scores, set_a.probs, set_b.probs)
    checks.check_dual_softmax(ds, scores, set_a.probs.p, set_b.probs.p)
    bad = ds.copy()
    bad[[0, 1]] = bad[[1, 0]]
    with pytest.raises(CheckError):
        checks.check_dual_softmax(bad, scores, set_a.probs.p, set_b.probs.p)


def test_duplication_rejects_a_shifted_token():
    out = np.arange(12.0).reshape(3, 4)
    idx = np.array([0, 0, 1, 2, 3, 3])
    checks.check_duplication(out[:, idx], out, idx)
    sampled = out[:, idx].copy()
    sampled[1, 2] += 1e-6
    with pytest.raises(CheckError):
        checks.check_duplication(sampled, out, idx)


def test_decay_rejects_a_curve_that_does_not_decay():
    checks.check_decay((16, 128, 1024), [0.1, 0.04, 0.02])
    with pytest.raises(CheckError, match="increases"):
        checks.check_decay((16, 128, 1024), [0.1, 0.04, 0.05])
    with pytest.raises(CheckError, match="half"):
        checks.check_decay((16, 128, 1024), [0.1, 0.08, 0.06])


def _report(q50):
    entry = sampling.SizeStats(64, 4, q50 / 2, q50, 2 * q50, 3 * q50)
    return sampling.ConvergenceReport("attention-converge", "softmax", "attention", 0, (entry,))


def test_routes_reject_different_quantiles():
    checks.check_routes(_report(0.01), _report(0.01 * (1 + 1e-12)), 1e-10, 1e-12)
    with pytest.raises(CheckError):
        checks.check_routes(_report(0.01), _report(0.0101), 1e-4, 1e-7)


def test_topk_rejects_a_swapped_survivor():
    scores = np.random.default_rng(1).random(20)
    keep = np.sort(np.argsort(-scores)[:5])
    checks.check_topk(keep, scores, 5)
    outside = np.argsort(-scores)[5]
    bad = keep.copy()
    bad[0] = outside
    with pytest.raises(CheckError):
        checks.check_topk(bad, scores, 5)


def test_nms_rejects_close_or_too_many_survivors():
    coords = np.array([[0.0, 5.0, 6.0, 20.0], [0.0, 0.0, 1.0, 20.0]])
    checks.check_nms(np.array([0, 1, 3]), coords, 2.0, 3)
    with pytest.raises(CheckError, match="Chebyshev"):
        checks.check_nms(np.array([0, 1, 2]), coords, 2.0, 3)
    with pytest.raises(CheckError):
        checks.check_nms(np.array([0, 1, 3]), coords, 2.0, 2)


def test_pruned_probs_reject_permuted_weights():
    scores = np.array([0.9, 0.2, 0.5, 0.7])
    keep = np.array([0, 2, 3])
    probs = scores[keep] / scores[keep].sum()
    checks.check_pruned_probs(probs, scores, keep)
    with pytest.raises(CheckError):
        checks.check_pruned_probs(probs[::-1], scores, keep)


def test_survivors_reject_an_unknown_point():
    coords = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    np.testing.assert_array_equal(checks.survivors(coords, coords[:, [2, 0]]), [2, 0])
    with pytest.raises(CheckError):
        checks.survivors(coords, np.array([[9.0], [9.0]]))


def test_loss_recomputation_matches_the_program_and_rejects_a_wrong_loss():
    rng = np.random.default_rng(2)
    set_a, set_b, gt = sparsity.random_matching_problem(rng, n_points=12)
    plan = matching.ot_reweighted(
        rng.standard_normal((4, 12)), rng.standard_normal((4, 12)), set_a.probs, set_b.probs
    )
    gt = sparsity.MatchGroundTruth(pairs=gt.pairs[:8], unmatched_a=gt.pairs[8:, 0], unmatched_b=gt.pairs[8:, 1])
    expect = checks.own_matching_loss(plan.plan, gt.pairs, gt.unmatched_a, gt.unmatched_b, sparsity.LOSS_FLOOR)
    loss = sparsity.matching_loss(plan, gt)
    checks.check_loss(loss, expect)
    with pytest.raises(CheckError):
        checks.check_loss(loss * (1 + 1e-6), expect)


def test_head_scores_reject_a_perturbed_score():
    rng = np.random.default_rng(3)
    head = sparsity.random_score_head(rng)
    fset = sampling.random_feature_set(rng, n_points=10)
    scores = sparsity.score_head_forward(head, fset)
    checks.check_head_scores(scores, head, fset.descriptors)
    scores[4] *= 1.0 + 1e-9
    with pytest.raises(CheckError):
        checks.check_head_scores(scores, head, fset.descriptors)


# The same corruptions reach the checks through the workloads' own wiring.


def test_ot_dense_call_rejects_a_corrupted_plan():
    w = workloads.OtDense(rwmatch, seed=5)
    call = w._call(*w._pair(np.random.default_rng(5), 48, 40))
    tok_a, tok_b, scores, result = call.run()
    assert call.check((tok_a, tok_b, scores, result)) == 0
    plan = result.plan.copy()
    plan[0, :] *= 0.5
    bad = matching.AugmentedAssignment(plan, result.iterations, result.residual, True)
    with pytest.raises(CheckError):
        call.check((tok_a, tok_b, scores, bad))


def test_ot_dense_call_counts_an_unconverged_solve_as_failed():
    w = workloads.OtDense(rwmatch, seed=5)
    call = w._call(*w._pair(np.random.default_rng(5), 48, 40))
    tok_a, tok_b, scores, result = call.run()
    stopped = matching.AugmentedAssignment(result.plan, 200, 1e-6, False)
    assert call.check((tok_a, tok_b, scores, stopped)) == 1


def test_dualsoftmax_call_rejects_a_corrupted_matrix():
    w = workloads.DualSoftmaxDense(rwmatch, seed=6)
    call = w._call(*w._pair(np.random.default_rng(6), 40, 36))
    tok_a, tok_b, scores, ds = call.run()
    assert call.check((tok_a, tok_b, scores, ds)) == 0
    with pytest.raises(CheckError):
        call.check((tok_a, tok_b, scores, ds * 1.001))


def test_limit_sweep_round_rejects_a_curve_that_does_not_decay():
    w = workloads.LimitSweep(rwmatch, seed=7)
    calls = w.round(0)
    att = [c for c in calls if c.name.startswith("attention")]
    for c in att[:-1]:
        c.check(_report_at(c, 0.1))
    with pytest.raises(CheckError):
        att[-1].check(_report_at(att[-1], 0.2))


def _report_at(call, q50):
    m = int(call.name.rsplit("m", 1)[1])
    entry = sampling.SizeStats(m, dict(workloads.ATT_SWEEP)[m], q50, q50, q50, q50)
    return sampling.ConvergenceReport("attention-converge", "softmax", "attention", 0, (entry,))


def test_sparse_prune_round_rejects_a_swapped_survivor():
    w = workloads.SparsePrune(rwmatch, seed=8)
    train, *prunes = w.round(0)
    assert train.check(train.run()) == 0
    topk = prunes[0]
    pruned_a, pruned_b, keep_a, keep_b, gt_p, loss = topk.run()
    assert topk.check((pruned_a, pruned_b, keep_a, keep_b, gt_p, loss)) == 0
    pruned_out = np.setdiff1d(np.arange(workloads.PROBLEM_POINTS), keep_a)[0]
    bad_keep = keep_a.copy()
    bad_keep[0] = pruned_out
    with pytest.raises(CheckError):
        topk.check((pruned_a, pruned_b, bad_keep, keep_b, gt_p, loss))


def test_duplication_identity_holds_on_both_dense_networks():
    workloads.DensePairs(rwmatch, seed=9).final_checks()


def test_a_round_runs_every_part():
    dense = [c.name for c in workloads.DensePairs(rwmatch, seed=10).round(0)]
    assert dense == [f"ot-pair-{a}x{b}" for a, b in workloads.OT_PAIRS] + [
        f"ds-pair-{a}x{b}" for a, b in workloads.DS_PAIRS
    ]
    small = workloads.SmallSets(rwmatch, seed=10).round(0)
    assert [c.name for c in small].count("spsa") == workloads.SPARSE_PROBLEMS
    assert sum(c.ops for c in small) == sum(t for _, t in workloads.ATT_SWEEP + workloads.OT_SWEEP) + (
        workloads.SPARSE_PROBLEMS * (2 * workloads.SPSA_STEPS + len(workloads.TOPK_KS) + 1)
    )
