"""Unit tests for dustbin-augmented transport and dual-softmax matching."""

import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp, softmax

import rwmatch
from rwmatch import matching
from rwmatch.attention import ProbabilityWeights
from rwmatch.matching import (
    NumericalError,
    augment,
    dual_softmax,
    dual_softmax_reweighted,
    marginals,
    ot_reweighted,
    ot_uniform,
    score_matrix,
    sinkhorn,
)
from rwmatch.sampling import random_feature_set
from rwmatch.transformer import forward_reweighted, random_transformer_spec


def random_problem(rng, n_a=6, n_b=8, d=4, scale=0.5):
    tokens_a = scale * rng.standard_normal((d, n_a)) / np.sqrt(d)
    tokens_b = scale * rng.standard_normal((d, n_b)) / np.sqrt(d)
    return tokens_a, tokens_b


def reference_sinkhorn(sbar, a, b, eps, max_iters, tol):
    """Log-domain Sinkhorn with scipy's log-sum-exp: every scaling stored as a
    logarithm, two full log-sum-exp sweeps per iteration.  Returns (plan,
    iterations, converged) under the same stopping rule as ``sinkhorn``."""
    log_k = sbar / eps
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)
    log_u = log_a.copy()
    log_v = log_b.copy()
    row_lse = logsumexp(log_k + log_v[None, :], axis=1)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        log_u = log_a - row_lse
        log_v = log_b - logsumexp(log_k + log_u[:, None], axis=0)
        row_lse = logsumexp(log_k + log_v[None, :], axis=1)
        if np.max(np.abs(np.exp(log_u + row_lse) - a)) <= tol:
            break
    plan = np.exp(log_u[:, None] + log_k + log_v[None, :])
    residual = max(np.abs(plan.sum(axis=1) - a).max(), np.abs(plan.sum(axis=0) - b).max())
    return plan, iterations, residual <= tol


def reference_dual_softmax(scores, p_a=None, p_b=None):
    """The dual-softmax as one log-domain expression over full-size arrays,
    with scipy's log-sum-exp; uniform without probabilities."""
    if p_a is None:
        log_ds = (
            2.0 * scores
            - logsumexp(scores, axis=1)[:, None]
            - logsumexp(scores, axis=0)[None, :]
        )
        return np.exp(log_ds)
    log_pa, log_pb = p_a.log(), p_b.log()
    log_ds = (
        log_pa[:, None]
        + log_pb[None, :]
        + 2.0 * scores
        - logsumexp(scores + log_pb[None, :], axis=1)[:, None]
        - logsumexp(scores + log_pa[:, None], axis=0)[None, :]
    )
    return np.exp(log_ds)


def pipeline_transport_problem(d, n_heads, n_points, network_seed=0):
    """Augmented scores and marginals of a ``forward_reweighted`` pair: the
    inputs the transport route of the pipeline really produces."""
    spec = random_transformer_spec(
        np.random.default_rng(network_seed), d=d, n_heads=n_heads
    )
    rng = np.random.default_rng([0, n_points])
    set_a = random_feature_set(rng, n_points=n_points, grid=64.0)
    set_b = random_feature_set(rng, n_points=n_points - n_points // 8, grid=64.0)
    tokens_a, tokens_b = forward_reweighted(spec, set_a, set_b)
    a, b = marginals(set_a.probs, set_b.probs)
    return augment(score_matrix(tokens_a, tokens_b), 1.0), a, b


class TestScoreMatrix:
    def test_inner_products(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((3, 4)), rng.standard_normal((3, 5))
        scores = score_matrix(a, b)
        assert scores.shape == (4, 5)
        assert scores[1, 2] == pytest.approx(a[:, 1] @ b[:, 2])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score_matrix(np.zeros((3, 4)), np.zeros((2, 5)))


class TestAugmentAndMarginals:
    def test_augment_layout(self):
        scores = np.arange(6.0).reshape(2, 3)
        out = augment(scores, alpha=-1.5)
        assert out.shape == (3, 4)
        assert_array_equal(out[:2, :3], scores)
        assert_array_equal(out[2, :], -1.5)
        assert_array_equal(out[:, 3], -1.5)

    def test_augment_rejects_bad_input(self):
        with pytest.raises(ValueError):
            augment(np.zeros(3), alpha=0.0)
        with pytest.raises(ValueError):
            augment(np.zeros((2, 2)), alpha=np.inf)

    def test_marginals_mass_two(self):
        rng = np.random.default_rng(1)
        p_a = ProbabilityWeights(rng.dirichlet(np.ones(4)))
        p_b = ProbabilityWeights(rng.dirichlet(np.ones(6)))
        a, b = marginals(p_a, p_b)
        assert a.shape == (5,) and b.shape == (7,)
        assert a.sum() == pytest.approx(2.0)
        assert b.sum() == pytest.approx(2.0)
        assert a[-1] == 1.0 and b[-1] == 1.0


class TestSinkhorn:
    def test_satisfies_marginals(self):
        rng = np.random.default_rng(2)
        sbar = rng.uniform(-2, 2, size=(5, 7))
        a = rng.dirichlet(np.ones(5))
        b = rng.dirichlet(np.ones(7))
        result = sinkhorn(sbar, a, b, eps=0.3, tol=1e-12)
        assert result.converged
        assert result.residual <= 1e-12
        assert_allclose(result.plan.sum(axis=1), a, atol=1e-11)
        assert_allclose(result.plan.sum(axis=0), b, atol=1e-11)
        assert np.all(result.plan >= 0.0)

    def test_residual_is_recomputed_from_plan(self):
        rng = np.random.default_rng(3)
        sbar = rng.uniform(-2, 2, size=(4, 4))
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(4))
        result = sinkhorn(sbar, a, b, eps=0.2)
        recomputed = max(
            np.abs(result.plan.sum(axis=1) - a).max(),
            np.abs(result.plan.sum(axis=0) - b).max(),
        )
        assert result.residual == pytest.approx(recomputed, rel=0, abs=0)

    def test_iteration_budget_respected(self):
        rng = np.random.default_rng(4)
        sbar = rng.uniform(-3, 3, size=(6, 6))
        a = rng.dirichlet(np.ones(6))
        b = rng.dirichlet(np.ones(6))
        result = sinkhorn(sbar, a, b, eps=0.05, max_iters=3, tol=0.0)
        assert result.iterations == 3
        assert not result.converged

    def test_zero_marginal_pins_plan_to_zero(self):
        rng = np.random.default_rng(5)
        sbar = rng.uniform(-1, 1, size=(3, 3))
        a = np.array([0.5, 0.0, 0.5])
        b = np.array([0.4, 0.3, 0.3])
        result = sinkhorn(sbar, a, b, eps=0.2)
        assert_array_equal(result.plan[1, :], 0.0)
        assert result.converged

    def test_single_cell_problem(self):
        result = sinkhorn(np.array([[0.7]]), np.array([1.0]), np.array([1.0]), eps=0.1)
        assert_allclose(result.plan, [[1.0]], atol=1e-12)

    def test_extreme_score_ratio_stays_finite(self):
        """Log-domain scaling has to survive sbar/eps far beyond exp range."""
        rng = np.random.default_rng(6)
        sbar = rng.uniform(-1, 1, size=(4, 5)) * 500.0
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(5))
        result = sinkhorn(sbar, a, b, eps=0.05, max_iters=2000, tol=1e-9)
        assert np.all(np.isfinite(result.plan))
        assert result.plan.sum() == pytest.approx(1.0, abs=1e-6)

    def test_input_validation(self):
        good = np.zeros((2, 2))
        u = np.array([0.5, 0.5])
        with pytest.raises(ValueError):
            sinkhorn(np.zeros((2, 3)), u, u, eps=0.1)
        with pytest.raises(ValueError):
            sinkhorn(np.array([[np.inf, 0], [0, 0]]), u, u, eps=0.1)
        with pytest.raises(ValueError):
            sinkhorn(good, u, u, eps=0.0)
        with pytest.raises(ValueError):
            sinkhorn(good, u, np.array([0.5, 0.4]), eps=0.1)

    def test_invalid_marginal_raises_value_error(self):
        u = np.array([0.5, 0.5])
        for bad in ([-0.5, 1.5], [0.5, np.nan], [np.inf, 0.5]):
            bad = np.array(bad)
            with pytest.raises(ValueError, match="marginal a"):
                sinkhorn(np.zeros((2, 2)), bad, u, eps=0.1)
            with pytest.raises(ValueError, match="marginal b"):
                sinkhorn(np.zeros((2, 2)), u, bad, eps=0.1)


def _pipeline_case(d, n_heads, n_points):
    sbar, a, b = pipeline_transport_problem(d, n_heads, n_points)
    return sbar, a, b, 0.1, 200, 1e-9


def _zero_marginal_case():
    rng = np.random.default_rng(18)
    sbar = rng.uniform(-1, 1, size=(7, 6))
    a = np.concatenate([rng.dirichlet(np.ones(6)), [0.0]])[[0, 1, 6, 2, 3, 4, 5]]
    b = np.concatenate([rng.dirichlet(np.ones(5)), [0.0]])[[5, 0, 1, 2, 3, 4]]
    return sbar, a, b, 0.2, 200, 1e-12


def _extreme_ratio_case():
    rng = np.random.default_rng(6)
    sbar = rng.uniform(-1, 1, size=(4, 5)) * 500.0
    return sbar, rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(5)), 0.05, 2000, 1e-9


REFERENCE_CASES = [
    pytest.param(lambda: _pipeline_case(8, 2, 16), id="d8-n16"),
    pytest.param(lambda: _pipeline_case(8, 2, 64), id="d8-n64"),
    pytest.param(lambda: _pipeline_case(64, 4, 16), id="d64-n16"),
    pytest.param(lambda: _pipeline_case(64, 4, 64), id="d64-n64"),
    pytest.param(_zero_marginal_case, id="zero-marginal"),
    pytest.param(_extreme_ratio_case, id="extreme-ratio"),
]


class TestSinkhornAgainstLogDomainReference:
    """Without over-relaxation (the path the safeguard falls back to) the
    exp-domain solver follows the log-domain trajectory: same stopping
    iteration, same converged flag, plans equal to round-off."""

    @pytest.fixture(autouse=True)
    def plain_scaling(self, monkeypatch):
        monkeypatch.setattr(matching, "_OMEGA", 1.0)

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_reference(self, case):
        sbar, a, b, eps, max_iters, tol = case()
        plan, iterations, converged = reference_sinkhorn(sbar, a, b, eps, max_iters, tol)
        result = sinkhorn(sbar, a, b, eps, max_iters=max_iters, tol=tol)
        assert result.iterations == iterations
        assert result.converged == converged
        assert_allclose(result.plan, plan, rtol=0, atol=1e-12)


class TestOverrelaxedSinkhornAgainstReference:
    """Over-relaxed scaling takes another path to the same plan: a converged
    plan lies within 1e-8 of the plain log-domain solver's, run with a budget
    of 20000 iterations, which needs at least as many iterations.  (The
    extreme-ratio case converges in neither.)"""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_reaches_reference_plan_no_later(self, case):
        sbar, a, b, eps, max_iters, tol = case()
        plan, iterations, converged = reference_sinkhorn(sbar, a, b, eps, 20000, tol)
        result = sinkhorn(sbar, a, b, eps, max_iters=max_iters, tol=tol)
        assert result.iterations <= iterations
        if result.converged:
            assert converged
            assert_allclose(result.plan, plan, rtol=0, atol=1e-8)


class TestSinkhornOnPipelineScores:
    @pytest.mark.parametrize("n_points", [16, 256])
    def test_converges_at_defaults_on_d8_network(self, n_points):
        sbar, a, b = pipeline_transport_problem(8, 2, n_points)
        result = sinkhorn(sbar, a, b, eps=0.1)
        assert result.converged
        assert result.residual <= 1e-9

    @pytest.mark.parametrize("network_seed", [0, 1])
    def test_converges_at_defaults_on_d64_network(self, network_seed):
        """Plain scaling stops at the 200-iteration cap on these scores."""
        sbar, a, b = pipeline_transport_problem(64, 4, 16, network_seed)
        result = sinkhorn(sbar, a, b, eps=0.1)
        assert result.converged
        assert result.residual <= 1e-9


def test_import_does_not_load_scipy():
    """scipy is a test-only dependency: the library runs on numpy alone."""
    src = os.path.dirname(os.path.dirname(rwmatch.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, rwmatch; assert 'scipy' not in sys.modules, 'scipy imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


class TestOtRoutes:
    def test_uniform_equals_reweighted_uniform_bitwise(self):
        rng = np.random.default_rng(7)
        tokens_a, tokens_b = random_problem(rng)
        plain = ot_uniform(tokens_a, tokens_b)
        rw = ot_reweighted(
            tokens_a,
            tokens_b,
            ProbabilityWeights.uniform(tokens_a.shape[1]),
            ProbabilityWeights.uniform(tokens_b.shape[1]),
        )
        assert_array_equal(plain.plan, rw.plan)
        assert plain.iterations == rw.iterations
        assert plain.residual == rw.residual

    def test_interior_marginals_match_probabilities(self):
        rng = np.random.default_rng(8)
        tokens_a, tokens_b = random_problem(rng)
        p_a = ProbabilityWeights(rng.dirichlet(np.ones(6)))
        p_b = ProbabilityWeights(rng.dirichlet(np.ones(8)))
        result = ot_reweighted(tokens_a, tokens_b, p_a, p_b, max_iters=2000, tol=1e-12)
        assert result.converged
        assert_allclose(result.plan.sum(axis=1)[:-1], p_a.p, atol=1e-10)
        assert_allclose(result.plan.sum(axis=0)[:-1], p_b.p, atol=1e-10)
        assert result.plan.sum() == pytest.approx(2.0, abs=1e-10)
        assert result.interior.shape == (6, 8)

    def test_duplication_grouped_plan_matches_reweighted(self):
        """Uniform transport over duplicated points, summed per duplicate
        group, equals reweighted transport at the duplication frequencies.
        Fixed iteration counts keep both runs on the same trajectory."""
        rng = np.random.default_rng(9)
        tokens_a, tokens_b = random_problem(rng, n_a=5, n_b=4)
        mult_a = np.array([2, 1, 3, 1, 2])
        mult_b = np.array([1, 3, 2, 2])
        rep_a = np.repeat(np.arange(5), mult_a)
        rep_b = np.repeat(np.arange(4), mult_b)
        expanded = ot_uniform(
            tokens_a[:, rep_a], tokens_b[:, rep_b], max_iters=40, tol=0.0
        )
        grouped = np.zeros((6, 5))
        ga = np.concatenate([rep_a, [5]])
        gb = np.concatenate([rep_b, [4]])
        np.add.at(grouped, (ga[:, None], gb[None, :]), expanded.plan)
        rw = ot_reweighted(
            tokens_a,
            tokens_b,
            ProbabilityWeights(mult_a.astype(np.float64)),
            ProbabilityWeights(mult_b.astype(np.float64)),
            max_iters=40,
            tol=0.0,
        )
        assert_allclose(grouped, rw.plan, atol=1e-13)

    @pytest.mark.parametrize(
        "seed, scale, falls_back",
        [
            pytest.param(9, 0.5, False, id="converging"),
            pytest.param(22, 5.0, True, id="fallback"),
            pytest.param(31, 5.0, False, id="stalled"),
        ],
    )
    def test_duplication_identity_through_overrelaxation(
        self, monkeypatch, seed, scale, falls_back
    ):
        """Over 200 untolerated iterations the grouped uniform plan of a
        duplicated set equals the reweighted plan, also where the safeguard
        falls back to plain scaling: its L1 error does not change under
        duplication, so both routes switch at the same iteration.  The
        fallback shows as a plan unlike the never-guarded one.  In the
        stalled case the error stays flat to round-off for ten iterations,
        where a switch decided by round-off would split the routes."""
        rng = np.random.default_rng(seed)
        tokens_a, tokens_b = random_problem(rng, n_a=5, n_b=4, scale=scale)
        mult_a = np.array([2, 1, 3, 1, 2])
        mult_b = np.array([1, 3, 2, 2])
        rep_a = np.repeat(np.arange(5), mult_a)
        rep_b = np.repeat(np.arange(4), mult_b)
        p_a = ProbabilityWeights(mult_a.astype(np.float64))
        p_b = ProbabilityWeights(mult_b.astype(np.float64))
        kwargs = dict(max_iters=200, tol=0.0)
        expanded = ot_uniform(tokens_a[:, rep_a], tokens_b[:, rep_b], **kwargs)
        grouped = np.zeros((6, 5))
        ga = np.concatenate([rep_a, [5]])
        gb = np.concatenate([rep_b, [4]])
        np.add.at(grouped, (ga[:, None], gb[None, :]), expanded.plan)
        rw = ot_reweighted(tokens_a, tokens_b, p_a, p_b, **kwargs)
        assert_allclose(grouped, rw.plan, rtol=0, atol=1e-12)
        monkeypatch.setattr(matching, "_SAFEGUARD_WINDOW", 200)
        unguarded = ot_reweighted(tokens_a, tokens_b, p_a, p_b, **kwargs)
        assert (np.abs(unguarded.plan - rw.plan).max() > 1e-6) == falls_back

    def test_duplication_with_active_tolerance_is_close(self):
        """With tolerance-based stopping the two routes may stop at different
        iterations, so agreement is only up to the stopping tolerance."""
        rng = np.random.default_rng(10)
        tokens_a, tokens_b = random_problem(rng, n_a=4, n_b=6)
        mult_a = np.array([1, 2, 2, 3])
        mult_b = np.array([2, 1, 1, 2, 1, 1])
        rep_a = np.repeat(np.arange(4), mult_a)
        rep_b = np.repeat(np.arange(6), mult_b)
        expanded = ot_uniform(tokens_a[:, rep_a], tokens_b[:, rep_b], tol=1e-9)
        grouped = np.zeros((5, 7))
        ga = np.concatenate([rep_a, [4]])
        gb = np.concatenate([rep_b, [6]])
        np.add.at(grouped, (ga[:, None], gb[None, :]), expanded.plan)
        rw = ot_reweighted(
            tokens_a,
            tokens_b,
            ProbabilityWeights(mult_a.astype(np.float64)),
            ProbabilityWeights(mult_b.astype(np.float64)),
            tol=1e-9,
        )
        assert_allclose(grouped, rw.plan, atol=1e-6)

    def test_probability_length_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        tokens_a, tokens_b = random_problem(rng)
        with pytest.raises(ValueError):
            ot_reweighted(
                tokens_a,
                tokens_b,
                ProbabilityWeights.uniform(3),
                ProbabilityWeights.uniform(8),
            )


class TestDualSoftmax:
    def test_matches_softmax_product(self):
        rng = np.random.default_rng(12)
        scores = rng.uniform(-2, 2, size=(5, 7))
        expected = softmax(scores, axis=1) * softmax(scores, axis=0)
        assert_allclose(dual_softmax(scores), expected, atol=1e-14)

    def test_entries_in_unit_interval(self):
        rng = np.random.default_rng(13)
        scores = rng.uniform(-30, 30, size=(6, 6))
        ds = dual_softmax(scores)
        assert np.all(ds >= 0.0)
        assert np.all(ds <= 1.0)
        assert np.all(np.isfinite(ds))

    def test_uniform_reduction(self):
        rng = np.random.default_rng(14)
        scores = rng.uniform(-2, 2, size=(4, 6))
        rw = dual_softmax_reweighted(
            scores, ProbabilityWeights.uniform(4), ProbabilityWeights.uniform(6)
        )
        assert_allclose(rw, dual_softmax(scores), atol=1e-14)

    def test_matches_explicit_weighted_formula(self):
        rng = np.random.default_rng(15)
        scores = rng.uniform(-2, 2, size=(4, 5))
        p_a = ProbabilityWeights(rng.dirichlet(np.ones(4)))
        p_b = ProbabilityWeights(rng.dirichlet(np.ones(5)))
        z = np.exp(scores)
        expected = (
            p_a.p[:, None]
            * p_b.p[None, :]
            * z**2
            / ((z @ p_b.p)[:, None] * (p_a.p @ z)[None, :])
        )
        got = dual_softmax_reweighted(scores, p_a, p_b)
        assert_allclose(got, expected, rtol=1e-12)

    def test_duplication_grouped_matches_reweighted(self):
        """Uniform dual-softmax over duplicated rows and columns, summed per
        group, equals the reweighted dual-softmax at the frequencies."""
        rng = np.random.default_rng(16)
        scores = rng.uniform(-2, 2, size=(4, 3))
        mult_a = np.array([2, 1, 3, 2])
        mult_b = np.array([1, 2, 2])
        rep_a = np.repeat(np.arange(4), mult_a)
        rep_b = np.repeat(np.arange(3), mult_b)
        ds = dual_softmax(scores[rep_a][:, rep_b])
        grouped = np.zeros((4, 3))
        np.add.at(grouped, (rep_a[:, None], rep_b[None, :]), ds)
        rw = dual_softmax_reweighted(
            scores,
            ProbabilityWeights(mult_a.astype(np.float64)),
            ProbabilityWeights(mult_b.astype(np.float64)),
        )
        assert_allclose(grouped, rw, atol=1e-14)

    def test_zero_probability_rows_and_columns(self):
        rng = np.random.default_rng(17)
        scores = rng.uniform(-2, 2, size=(3, 3))
        p_a = ProbabilityWeights(np.array([1.0, 0.0, 1.0]))
        p_b = ProbabilityWeights(np.array([0.0, 1.0, 1.0]))
        rw = dual_softmax_reweighted(scores, p_a, p_b)
        assert_array_equal(rw[1, :], 0.0)
        assert_array_equal(rw[:, 0], 0.0)
        assert np.all(np.isfinite(rw))

    @pytest.mark.parametrize("scale", [2.0, 700.0])
    def test_matches_reference(self, scale):
        rng = np.random.default_rng(19)
        scores = rng.uniform(-scale, scale, size=(7, 9))
        if scale == 700.0:
            scores[0, :3] = [700.0, -700.0, 699.5]
            scores[1:4, 4] = [-700.0, 700.0, 700.0]
        p_a = ProbabilityWeights(rng.dirichlet(np.ones(7)))
        p_b = ProbabilityWeights(rng.dirichlet(np.ones(9)))
        assert_allclose(dual_softmax(scores), reference_dual_softmax(scores), rtol=0, atol=1e-13)
        assert_allclose(
            dual_softmax_reweighted(scores, p_a, p_b),
            reference_dual_softmax(scores, p_a, p_b),
            rtol=0,
            atol=1e-13,
        )

    @pytest.mark.parametrize("scale", [2.0, 700.0])
    def test_zero_probability_matches_reference(self, scale):
        rng = np.random.default_rng(20)
        scores = rng.uniform(-scale, scale, size=(6, 5))
        p_a = ProbabilityWeights(np.array([0.0, 1.0, 3.0, 0.0, 2.0, 1.0]))
        p_b = ProbabilityWeights(np.array([2.0, 0.0, 1.0, 1.0, 0.0]))
        got = dual_softmax_reweighted(scores, p_a, p_b)
        assert_allclose(got, reference_dual_softmax(scores, p_a, p_b), rtol=0, atol=1e-13)
        assert_array_equal(got[[0, 3], :], 0.0)
        assert_array_equal(got[:, [1, 4]], 0.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dual_softmax(np.zeros(3))
        with pytest.raises(ValueError):
            dual_softmax_reweighted(
                np.zeros((2, 3)),
                ProbabilityWeights.uniform(2),
                ProbabilityWeights.uniform(4),
            )
