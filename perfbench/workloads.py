"""The two workloads: inputs made from the seed, calls into rwmatch, checks.

A workload hands the runner one round at a time.  A round is a fixed list
of calls; each call performs ``ops`` operations and is timed as a whole.
Every round has the same make-up, and each round draws fresh inputs from
(seed, round), so a longer run averages over more inputs.

Each workload is made of parts, one per pipeline of the paper: ``dense-pairs``
runs image pairs through the dustbin-transport route (``OtDense``) and the
dual-softmax route (``DualSoftmaxDense``); ``small-sets`` runs the
asymptotic-limit sweep (``LimitSweep``) and the sparse training and pruning
pipeline (``SparsePrune``).  A round runs every part's calls in turn.

The networks are fixed: they play the part of trained weights and are drawn
from ``NETWORK_SEED`` whatever the run's seed.  The seed picks the images.

The benchmark calls rwmatch through module attributes looked up at call
time, such as ``self.rw.matching.ot_reweighted``, so the traced run's
wrappers see these calls as well as the calls rwmatch makes internally.
Checks never run inside a timed call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

NETWORK_SEED = 0

# random streams of one seed, kept apart by a tag
_ROUND, _WARMUP, _ONCE = 1, 2, 3

# (n_A, n_B) per pair of one round.  Sorted by time, a round's pairs are
# three cheaper ones (OT 256, OT 512, DS 1024), the three DS 1536 pairs and
# three dearer ones (DS 2048, OT 1024 twice), so the median pair time falls
# in the middle of the block of DS 1536 pairs, whose cost depends on n
# alone.  The second OT 1024 pair gives transport about 40 % of a round.
OT_PAIRS = ((256, 224), (512, 448), (1024, 896), (1024, 896))
DS_PAIRS = ((1024, 896), (1536, 1344), (1536, 1344), (1536, 1344), (2048, 1792))

DENSE_GRID = 64.0
DUPLICATION_POINTS = 96

# the asymptotic-limit sweep: toy sets, (sample size, trials) on both sides of
# EXPAND_THRESHOLD_ATTENTION (1024) and EXPAND_THRESHOLD_MATCHING (512).
# Sizes stay far apart: with 8 trials the transport median error rose from
# m=16 to m=128 in 1 of 300 rounds tried.  A literal transport trial at
# m=256 costs 150-280 ms depending on how soon Sinkhorn converges on the
# round's sets, which made the run-to-run spread of ops_per_s 0.24, so the
# transport sweep has no mid-size literal point.  The trial counts put the
# median operation of a small-sets round in the middle of the block of 32
# collapsed attention trials: 48 cheaper trials below it, and 24 dearer
# trials and 24 pipeline-loss evaluations above.  At m=65536 a collapsed
# attention trial is mostly sampling and grouping in numpy (about 5 ms);
# at m=8192 it was 1.2 ms of per-call overhead, whose time swung by half
# from one run to the next on a shared machine.
TOY_POINTS, TOY_GRID = 16, 32.0
ATT_SWEEP = ((16, 48), (1024, 8), (65536, 32))
OT_SWEEP = ((16, 8), (65536, 8))
ROUTE_SIZE, ROUTE_TRIALS = 128, 4

# sparse training and pruning: a problem's Sinkhorn cost varies a lot (its
# mean iteration count runs from about 50 to the cap of 200), so a round
# holds several short problems rather than one long one
PROBLEM_POINTS, PROBLEM_GRID = 32, 32.0
SPARSE_PROBLEMS = 3
LAM = 0.1
SPSA_STEPS = 2
TOPK_KS = (8, 16, 24)
NMS_RADIUS, NMS_K = 2.0, 16


@dataclass
class Call:
    """One timed call into the program.

    ``run`` returns the output; ``check`` inspects it after the clock stops,
    raises ``checks.CheckError`` on a wrong output and returns the number of
    the call's operations that failed.
    """

    name: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object], int]


def _rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream, index]))


class _Rounds:
    """What the runner uses: rounds, the warm-up and the once-per-run checks."""

    def calls(self, rng: np.random.Generator) -> list[Call]:
        """One round of calls on inputs drawn from ``rng``."""
        raise NotImplementedError

    def round(self, r: int) -> list[Call]:
        return self.calls(_rng(self.seed, _ROUND, r))

    def warm_up(self) -> None:
        """One untimed, unchecked round on inputs of its own, so that the
        allocator and the caches reach the state later rounds run in."""
        for call in self.calls(_rng(self.seed, _WARMUP)):
            call.run()

    def final_checks(self) -> None:
        """Checks made once per run, outside the timed phase."""


class _Part(_Rounds):
    """One pipeline, run on a fixed network."""

    d, heads = 8, 2  # the network: token dimension and attention heads

    def __init__(self, rw, seed: int) -> None:
        self.rw = rw
        self.seed = seed
        self.spec = rw.transformer.random_transformer_spec(
            np.random.default_rng(NETWORK_SEED), d=self.d, n_heads=self.heads
        )


class _DensePairs(_Part):
    pairs: tuple = ()

    def _pair(self, rng, n_a, n_b):
        fs = self.rw.sampling.random_feature_set
        return (
            fs(rng, n_points=n_a, grid=DENSE_GRID),
            fs(rng, n_points=n_b, grid=DENSE_GRID),
        )

    def _call(self, set_a, set_b) -> Call:
        raise NotImplementedError

    def calls(self, rng):
        return [self._call(*self._pair(rng, n_a, n_b)) for n_a, n_b in self.pairs]

    def warm_up(self):
        """One untimed pair of the largest size, which brings the allocator to
        the state later rounds run in at a fraction of a round's cost."""
        n_a, n_b = max(self.pairs)
        self._call(*self._pair(_rng(self.seed, _WARMUP), n_a, n_b)).run()

    def final_checks(self):
        """Duplication identity: forward on a sample listing point i c_i times
        equals forward_reweighted at probabilities proportional to c."""
        rng = _rng(self.seed, _ONCE)
        set_a, set_b = self._pair(rng, DUPLICATION_POINTS, DUPLICATION_POINTS - 8)
        ProbabilityWeights = self.rw.attention.ProbabilityWeights
        SampledSet = self.rw.transformer.SampledSet
        c_a = rng.integers(1, 4, size=set_a.n)
        c_b = rng.integers(1, 4, size=set_b.n)
        set_a = set_a.with_probs(ProbabilityWeights(c_a.astype(float)))
        set_b = set_b.with_probs(ProbabilityWeights(c_b.astype(float)))
        idx_a = np.repeat(np.arange(set_a.n), c_a)
        idx_b = np.repeat(np.arange(set_b.n), c_b)
        out_a, out_b = self.rw.transformer.forward(
            self.spec, SampledSet(set_a, idx_a), SampledSet(set_b, idx_b)
        )
        full_a, full_b = self.rw.transformer.forward_reweighted(self.spec, set_a, set_b)
        checks.check_duplication(out_a, full_a, idx_a)
        checks.check_duplication(out_b, full_b, idx_b)


class OtDense(_DensePairs):
    """One operation: one pair through the network, score matrix and dustbin OT."""

    pairs = OT_PAIRS

    def _call(self, set_a, set_b):
        rw = self.rw

        def run():
            tok_a, tok_b = rw.transformer.forward_reweighted(self.spec, set_a, set_b)
            scores = rw.matching.score_matrix(tok_a, tok_b)
            result = rw.matching.ot_reweighted(tok_a, tok_b, set_a.probs, set_b.probs)
            return tok_a, tok_b, scores, result

        def check(out):
            tok_a, tok_b, scores, result = out
            own = checks.own_scores(tok_a, tok_b)
            checks.check_scores(scores, own)
            if not result.converged:
                return 1
            m = rw.matching
            checks.check_transport(
                result.plan, own, set_a.probs.p, set_b.probs.p,
                m.DEFAULT_ALPHA, m.DEFAULT_EPS, m.DEFAULT_TOL,
            )
            return 0

        return Call(f"ot-pair-{set_a.n}x{set_b.n}", 1, run, check)


class DualSoftmaxDense(_DensePairs):
    """One operation: one pair through the d=64 network, scores and dual-softmax."""

    pairs = DS_PAIRS
    d, heads = 64, 4

    def _call(self, set_a, set_b):
        rw = self.rw

        def run():
            tok_a, tok_b = rw.transformer.forward_reweighted(self.spec, set_a, set_b)
            scores = rw.matching.score_matrix(tok_a, tok_b)
            return tok_a, tok_b, scores, rw.matching.dual_softmax_reweighted(
                scores, set_a.probs, set_b.probs
            )

        def check(out):
            tok_a, tok_b, scores, ds = out
            own = checks.own_scores(tok_a, tok_b)
            checks.check_scores(scores, own)
            checks.check_dual_softmax(ds, own, set_a.probs.p, set_b.probs.p)
            return 0

        return Call(f"ds-pair-{set_a.n}x{set_b.n}", 1, run, check)


class LimitSweep(_Part):
    """One operation: one convergence trial of the asymptotic-limit experiment.

    Each call runs all trials of one sample size, so a batch over the trials
    of one size can show; its time is shared evenly by its trials.
    """

    def _sets(self, rng):
        fs = self.rw.sampling.random_feature_set
        return fs(rng, n_points=TOY_POINTS, grid=TOY_GRID), fs(rng, n_points=TOY_POINTS, grid=TOY_GRID)

    def calls(self, rng):
        set_a, set_b = self._sets(rng)
        trial_seed = int(rng.integers(2**31))
        s = self.rw.sampling
        medians: dict[str, dict[int, float]] = {"attention": {}, "ot": {}}

        def make(kind, sweep, m, trials):
            def run():
                fn = s.run_attention_convergence if kind == "attention" else s.run_matching_convergence
                return fn(self.spec, set_a, set_b, (m,), trials, trial_seed)

            def check(report):
                (entry,) = report.entries
                if entry.sample_size != m or entry.trial_count != trials:
                    raise checks.CheckError(f"report covers m={entry.sample_size}, want {m}")
                medians[kind][m] = entry.q50
                sizes = [size for size, _ in sweep]
                if m == sizes[-1]:
                    checks.check_decay(sizes, [medians[kind][k] for k in sizes])
                return 0

            return Call(f"{kind}-m{m}", trials, run, check)

        return [make("attention", ATT_SWEEP, m, t) for m, t in ATT_SWEEP] + [
            make("ot", OT_SWEEP, m, t) for m, t in OT_SWEEP
        ]

    def final_checks(self):
        """Literal and collapsed routes agree on one sample size and trial stream."""
        set_a, set_b = self._sets(_rng(self.seed, _ONCE))
        s = self.rw.sampling
        for fn, rel, abs_tol in (
            (s.run_attention_convergence, 1e-10, 1e-12),
            # tolerance stopping can end the two transport routes at different
            # iterations, so they agree up to the solver tolerance
            (s.run_matching_convergence, 1e-4, 1e-7),
        ):
            literal, collapsed = (
                fn(self.spec, set_a, set_b, (ROUTE_SIZE,), ROUTE_TRIALS, self.seed, expand_threshold=t)
                for t in (None, 0)
            )
            checks.check_routes(literal, collapsed, rel, abs_tol)


class SparsePrune(_Part):
    """One operation: one pipeline-loss evaluation.

    One problem trains a fresh score head by SPSA (two evaluations per
    step), then prunes both sets with each rule and evaluates the pruned
    pair.
    """

    def __init__(self, rw, seed):
        super().__init__(rw, seed)
        sp = rw.sparsity
        self.rules = tuple(sp.TopK(k) for k in TOPK_KS) + (sp.NMS(NMS_RADIUS, NMS_K),)

    def _problem(self, rng):
        sp = self.rw.sparsity
        set_a, set_b, gt = sp.random_matching_problem(rng, n_points=PROBLEM_POINTS, grid=PROBLEM_GRID)
        return set_a, set_b, gt, sp.random_score_head(rng), int(rng.integers(2**31))

    def calls(self, rng):
        sp = self.rw.sparsity
        set_a, set_b, gt, head, train_seed = self._problem(rng)
        # the pruning calls read the head the training call leaves here
        trained = {}

        def train():
            cfg = sp.SparsityConfig(lam=LAM, rule=self.rules[0])
            head_t, trace = sp.train_score_head(head, self.spec, set_a, set_b, gt, cfg, SPSA_STEPS, train_seed)
            trained.update(
                head=head_t,
                a=sp.score_head_forward(head_t, set_a),
                b=sp.score_head_forward(head_t, set_b),
            )
            return trace

        def check_train(trace):
            if trace.shape != (SPSA_STEPS, 2) or not np.all(np.isfinite(trace)):
                raise checks.CheckError("SPSA trace has the wrong shape or non-finite losses")
            checks.check_head_scores(trained["a"], trained["head"], set_a.descriptors)
            checks.check_head_scores(trained["b"], trained["head"], set_b.descriptors)
            return 0

        calls = [Call("spsa", 2 * SPSA_STEPS, train, check_train)]
        calls += [self._prune_call(rule, set_a, set_b, gt, trained) for rule in self.rules]
        return calls

    def _prune_call(self, rule, set_a, set_b, gt, trained) -> Call:
        sp = self.rw.sparsity

        def run():
            head = trained["head"]
            pruned_a = sp.prune(set_a, trained["a"], rule)
            pruned_b = sp.prune(set_b, trained["b"], rule)
            keep_a = checks.survivors(set_a.coords, pruned_a.coords)
            keep_b = checks.survivors(set_b.coords, pruned_b.coords)
            gt_p = _restrict(sp.MatchGroundTruth, gt, keep_a, keep_b, set_a.n, set_b.n)
            loss = sp.pipeline_loss(head, self.spec, pruned_a, pruned_b, gt_p, LAM)
            return pruned_a, pruned_b, keep_a, keep_b, gt_p, loss

        def check(out):
            pruned_a, pruned_b, keep_a, keep_b, gt_p, (total, lm, ls) = out
            for fset, pruned, keep, scores in (
                (set_a, pruned_a, keep_a, trained["a"]),
                (set_b, pruned_b, keep_b, trained["b"]),
            ):
                if isinstance(rule, sp.TopK):
                    checks.check_topk(keep, scores, rule.k)
                else:
                    checks.check_nms(keep, fset.coords, rule.radius, rule.k)
                checks.check_pruned_probs(pruned.probs.p, scores, keep)
            self._check_loss(trained["head"], pruned_a, pruned_b, gt_p, total, lm, ls)
            return 0

        return Call(f"prune-{rule}", 1, run, check)

    def _check_loss(self, head, pruned_a, pruned_b, gt, total, lm, ls):
        """Recompute the losses from an ot_reweighted call of the benchmark's own."""
        rw = self.rw
        s_a = checks.own_score_head(head, pruned_a.descriptors)
        s_b = checks.own_score_head(head, pruned_b.descriptors)
        p_a = rw.attention.ProbabilityWeights(s_a)
        p_b = rw.attention.ProbabilityWeights(s_b)
        tok_a, tok_b = rw.transformer.forward_reweighted(
            self.spec, pruned_a.with_probs(p_a), pruned_b.with_probs(p_b)
        )
        plan = rw.matching.ot_reweighted(tok_a, tok_b, p_a, p_b).plan
        lm_own = checks.own_matching_loss(plan, gt.pairs, gt.unmatched_a, gt.unmatched_b, rw.sparsity.LOSS_FLOOR)
        checks.check_loss(lm, lm_own)
        checks.check_loss(ls, float(s_a.sum() + s_b.sum()))
        checks.check_loss(total, lm_own + LAM * float(s_a.sum() + s_b.sum()))


def _restrict(MatchGroundTruth, gt, keep_a, keep_b, n_a, n_b):
    """Ground truth of the pruned pair: a match whose partner was pruned goes
    to the dustbin."""
    new_a = np.full(n_a, -1)
    new_a[keep_a] = np.arange(keep_a.size)
    new_b = np.full(n_b, -1)
    new_b[keep_b] = np.arange(keep_b.size)
    ia, jb = new_a[gt.pairs[:, 0]], new_b[gt.pairs[:, 1]]
    both = (ia >= 0) & (jb >= 0)
    return MatchGroundTruth(
        pairs=np.stack([ia[both], jb[both]], axis=1),
        unmatched_a=ia[(ia >= 0) & (jb < 0)],
        unmatched_b=jb[(ia < 0) & (jb >= 0)],
    )


class _Composite(_Rounds):
    """A workload made of parts; a round runs each part's calls in turn."""

    name = ""
    parts: tuple = ()  # (part class, problems of it per round)

    def __init__(self, rw, seed: int) -> None:
        self.seed = seed
        self.members = [(cls(rw, seed), times) for cls, times in self.parts]

    def calls(self, rng):
        return [c for part, times in self.members for _ in range(times) for c in part.calls(rng)]

    def warm_up(self):
        for part, _ in self.members:
            part.warm_up()

    def final_checks(self):
        for part, _ in self.members:
            part.final_checks()


class DensePairs(_Composite):
    """One operation: one image pair, through either route of the paper."""

    name = "dense-pairs"
    parts = ((OtDense, 1), (DualSoftmaxDense, 1))


class SmallSets(_Composite):
    """One operation: one convergence trial or one pipeline-loss evaluation."""

    name = "small-sets"
    parts = ((LimitSweep, 1), (SparsePrune, SPARSE_PROBLEMS))


WORKLOADS = {w.name: w for w in (DensePairs, SmallSets)}
