"""Acceptance suite: one test per headline guarantee, with fixed tolerances
and runtime budgets.

Each test prints a single line of the form ``criterion N: PASS (...)`` with
the measured quantities, so the captured output doubles as an acceptance
report; running under ``pytest -v`` additionally shows one PASSED/FAILED line
per criterion.  Every random quantity is derived from ROOT_SEED, so the suite
is deterministic end to end.
"""

import itertools
import time

import numpy as np

from rwmatch.attention import LinearSim, ProbabilityWeights, SoftmaxSim
from rwmatch.cli import (
    ExperimentConfig,
    _converge_passed,
    _reduce_check,
    _sinkhorn_check,
    main,
)
from rwmatch.matching import (
    dual_softmax,
    dual_softmax_reweighted,
    ot_reweighted,
    ot_uniform,
)
from rwmatch.sampling import (
    random_feature_set,
    run_attention_convergence,
    run_matching_convergence,
    sample_iid,
)
from rwmatch.sparsity import (
    SparsityConfig,
    TopK,
    random_matching_problem,
    random_score_head,
    score_head_forward,
    sparsity_loss,
    train_score_head,
)
from rwmatch.transformer import SampledSet, random_transformer_spec

ROOT_SEED = 20260814


def stream(*key):
    return np.random.default_rng(np.random.SeedSequence([ROOT_SEED, *key]))


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num}: {status} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def spec_arrays(spec):
    yield spec.embed.w
    yield spec.embed.b
    for _, params in spec.layers:
        for head in params.heads:
            yield head.w_q
            yield head.w_k
            yield head.w_vo
        yield params.ffn.w_1
        yield params.ffn.b_1
        yield params.ffn.w_2
        yield params.ffn.b_2


def test_criterion_1_uniform_weight_reduction():
    """Uniform weights reproduce standard attention and dual-softmax to 1e-12
    over 1000 instances, and uniform transport bitwise, in under 10 s."""
    start = time.perf_counter()
    # one stream drawn through all 1000 instances; the CLI draws one per case
    rows, passed = _reduce_check(ExperimentConfig(), itertools.repeat(stream(1), 1000))
    elapsed = time.perf_counter() - start
    dev = {row["kind"]: row["max_deviation"] for row in rows}
    dev_attention = max(dev["attention-softmax"], dev["attention-linear"])
    ot_bitwise = dev["ot-plan-bitwise"] == 0.0
    assert [row["instances"] for row in rows] == [1000, 1000, 1000, 100]
    ok = passed and dev_attention <= 1e-12 and dev["dual-softmax"] <= 1e-12
    ok = ok and ot_bitwise and elapsed < 10.0
    report(
        1,
        ok,
        f"attention dev {dev_attention:.2e}, dual-softmax dev {dev['dual-softmax']:.2e}, "
        f"ot bitwise {ot_bitwise}, {elapsed:.1f}s",
    )


def test_criterion_2_duplication_exactness_network():
    """Grouped standard forward equals the reweighted forward per token within
    1e-9 across 100 random configs (depth up to 6, multiplicities up to 8)."""
    start = time.perf_counter()
    worst = 0.0
    for case in range(100):
        rng = stream(2, case)
        sim = SoftmaxSim() if case % 2 == 0 else LinearSim()
        depth = int(rng.integers(1, 7))
        n_a = int(rng.integers(2, 7))
        n_b = int(rng.integers(2, 7))
        set_a = random_feature_set(rng, n_points=n_a, grid=16.0)
        set_b = random_feature_set(rng, n_points=n_b, grid=16.0)
        spec = random_transformer_spec(rng, depth=depth, sim=sim)
        mult_a = rng.integers(1, 9, size=n_a)
        mult_b = rng.integers(1, 9, size=n_b)
        sample_a = SampledSet(set_a, np.repeat(np.arange(n_a), mult_a))
        sample_b = SampledSet(set_b, np.repeat(np.arange(n_b), mult_b))
        from rwmatch.transformer import forward, forward_reweighted

        out_a, out_b = forward(spec, sample_a, sample_b)
        rw_a, rw_b = forward_reweighted(
            spec,
            set_a.with_probs(ProbabilityWeights(mult_a.astype(np.float64))),
            set_b.with_probs(ProbabilityWeights(mult_b.astype(np.float64))),
        )
        err = max(
            float(np.abs(out_a - rw_a[:, sample_a.indices]).max()),
            float(np.abs(out_b - rw_b[:, sample_b.indices]).max()),
        )
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    report(2, ok, f"worst per-token deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_duplication_exactness_matching():
    """Group-summed uniform matching of duplicated network tokens equals the
    reweighted matching: transport within 1e-8 (solver tolerance 1e-10),
    dual-softmax within 1e-10, over 100 random configs."""
    from rwmatch.matching import score_matrix
    from rwmatch.transformer import forward, forward_reweighted

    start = time.perf_counter()
    worst_ot = 0.0
    worst_ds = 0.0
    for case in range(100):
        rng = stream(3, case)
        n_a = int(rng.integers(2, 7))
        n_b = int(rng.integers(2, 7))
        set_a = random_feature_set(rng, n_points=n_a, grid=16.0)
        set_b = random_feature_set(rng, n_points=n_b, grid=16.0)
        spec = random_transformer_spec(rng)
        mult_a = rng.integers(1, 9, size=n_a)
        mult_b = rng.integers(1, 9, size=n_b)
        rep_a = np.repeat(np.arange(n_a), mult_a)
        rep_b = np.repeat(np.arange(n_b), mult_b)
        tok_a, tok_b = forward(spec, SampledSet(set_a, rep_a), SampledSet(set_b, rep_b))
        p_a = ProbabilityWeights(mult_a.astype(np.float64))
        p_b = ProbabilityWeights(mult_b.astype(np.float64))
        rw_a, rw_b = forward_reweighted(
            spec, set_a.with_probs(p_a), set_b.with_probs(p_b)
        )

        expanded = ot_uniform(tok_a, tok_b, max_iters=5000, tol=1e-10).interior
        grouped = np.zeros((n_a, n_b))
        np.add.at(grouped, (rep_a[:, None], rep_b[None, :]), expanded)
        rw_plan = ot_reweighted(rw_a, rw_b, p_a, p_b, max_iters=5000, tol=1e-10).interior
        worst_ot = max(worst_ot, float(np.abs(grouped - rw_plan).max()))

        ds = dual_softmax(score_matrix(tok_a, tok_b))
        grouped_ds = np.zeros((n_a, n_b))
        np.add.at(grouped_ds, (rep_a[:, None], rep_b[None, :]), ds)
        rw_ds = dual_softmax_reweighted(score_matrix(rw_a, rw_b), p_a, p_b)
        worst_ds = max(worst_ds, float(np.abs(grouped_ds - rw_ds).max()))
    elapsed = time.perf_counter() - start
    ok = worst_ot <= 1e-8 and worst_ds <= 1e-10 and elapsed < 60.0
    report(
        3,
        ok,
        f"transport dev {worst_ot:.2e}, dual-softmax dev {worst_ds:.2e}, {elapsed:.1f}s",
    )


SIZES = (64, 256, 1024, 4096)
TRIALS = 200


def converge_assets(key, sim):
    rng = stream(key)
    set_a = random_feature_set(rng, n_points=16, grid=32.0)
    set_b = random_feature_set(rng, n_points=16, grid=32.0)
    spec = random_transformer_spec(rng, sim=sim)
    return set_a, set_b, spec


def test_criterion_4_stochastic_convergence_network():
    """Median per-token sampling error is non-increasing in the sample size
    and at least halves from m=64 to m=4096, for both similarity kinds."""
    start = time.perf_counter()
    details = []
    ok = True
    for sim, label in ((SoftmaxSim(), "softmax"), (LinearSim(), "linear")):
        set_a, set_b, spec = converge_assets(4, sim)
        report_data = run_attention_convergence(
            spec, set_a, set_b, SIZES, TRIALS, seed=ROOT_SEED
        )
        medians = report_data.medians()
        ok = ok and _converge_passed(report_data.rows())
        details.append(
            f"{label} medians " + "/".join(f"{m:.2e}" for m in medians)
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    report(4, ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_5_stochastic_convergence_matching():
    """Median grouped-sum matching error is non-increasing and halves over the
    size schedule, for both transport and dual-softmax."""
    start = time.perf_counter()
    set_a, set_b, spec = converge_assets(5, SoftmaxSim())
    details = []
    ok = True
    for method in ("ot", "dual-softmax"):
        report_data = run_matching_convergence(
            spec, set_a, set_b, SIZES, TRIALS, seed=ROOT_SEED, method=method
        )
        medians = report_data.medians()
        ok = ok and _converge_passed(report_data.rows())
        details.append(f"{method} medians " + "/".join(f"{m:.2e}" for m in medians))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    report(5, ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_6_sinkhorn_feasibility():
    """500 random augmented problems (sides up to 64, eps swept over
    [0.05, 1]) reach residual 1e-9 within 200 iterations with plan mass
    2 +/- 2e-9.  The score spread is drawn proportional to eps, so the sweep
    varies the arithmetic regime rather than the conditioning."""
    start = time.perf_counter()
    cfg = ExperimentConfig(iters=200, tol=1e-9)
    rows, passed = _sinkhorn_check(cfg, (stream(6, case) for case in range(500)))
    elapsed = time.perf_counter() - start
    worst_resid = max(row["residual"] for row in rows)
    worst_iters = max(row["iterations"] for row in rows)
    worst_mass = max(row["mass_error"] for row in rows)
    ok = passed and len(rows) == 500 and worst_resid <= 1e-9 and worst_mass <= 2e-9
    report(
        6,
        ok,
        f"worst residual {worst_resid:.2e}, worst iterations {worst_iters}, "
        f"worst mass error {worst_mass:.2e}, {elapsed:.1f}s",
    )


def test_criterion_7_group_frequency_concentration():
    """Empirical group frequencies stay within 3-sigma binomial bounds of the
    detection probabilities for at least 95 percent of (point, size) cells."""
    rng = stream(7)
    fset = random_feature_set(rng, n_points=16, grid=32.0, min_prob=0.01)
    p = fset.probs.p
    sizes = (1_000, 10_000, 100_000)
    inside = 0
    total = 0
    for m in sizes:
        sample = sample_iid(fset, m, stream(7, m))
        freqs = np.bincount(sample.indices, minlength=fset.n) / m
        sigma = np.sqrt(p * (1.0 - p) / m)
        inside += int(np.count_nonzero(np.abs(freqs - p) <= 3.0 * sigma))
        total += fset.n
    fraction = inside / total
    ok = fraction >= 0.95
    report(7, ok, f"{inside}/{total} cells within 3 sigma ({fraction:.1%})")


def test_criterion_8_sparsity_pressure():
    """Raising the sparsity weight from 0.1 to 1.0 strictly lowers the mean
    final L1 score mass over 5 seeded runs of 300 SPSA steps, and training
    leaves every backbone parameter bitwise unchanged."""
    start = time.perf_counter()
    asset_rng = stream(8)
    set_a, set_b, gt = random_matching_problem(asset_rng)
    spec = random_transformer_spec(asset_rng)
    frozen = [arr.copy() for arr in spec_arrays(spec)]

    mean_final = {}
    for lam in (0.1, 1.0):
        cfg = SparsityConfig(lam=lam, rule=TopK(6))
        finals = []
        for trial in range(5):
            init = random_score_head(stream(8, 1, trial))
            seed = int(np.random.SeedSequence([ROOT_SEED, 8, 2, trial]).generate_state(1)[0])
            trained, _ = train_score_head(
                init, spec, set_a, set_b, gt, cfg, 300, seed
            )
            finals.append(
                sparsity_loss(score_head_forward(trained, set_a))
                + sparsity_loss(score_head_forward(trained, set_b))
            )
        mean_final[lam] = float(np.mean(finals))

    backbone_frozen = all(
        np.array_equal(before, after)
        for before, after in zip(frozen, spec_arrays(spec))
    )
    elapsed = time.perf_counter() - start
    ok = mean_final[1.0] < mean_final[0.1] and backbone_frozen and elapsed < 300.0
    report(
        8,
        ok,
        f"mean final L1: lambda 1.0 -> {mean_final[1.0]:.3f}, "
        f"lambda 0.1 -> {mean_final[0.1]:.3f}; backbone frozen {backbone_frozen}, "
        f"{elapsed:.0f}s",
    )


CLI_CONFIGS = {
    "converge-attn": "sizes = 8, 32\ntrials = 5\nn_points = 6\nd = 4\n",
    "converge-match": "sizes = 8, 32\ntrials = 5\nn_points = 6\nd = 4\n",
    "sinkhorn-check": "trials = 20\n",
    "reduce-check": "trials = 50\n",
    "sparsify": "trials = 1\nsteps = 5\nn_points = 6\nd = 4\n",
}


def test_criterion_9_cli_determinism(tmp_path):
    """Every subcommand, run twice with the same config and seed, writes
    byte-identical reports in both output formats."""
    all_identical = True
    checked = []
    for sub, config_text in CLI_CONFIGS.items():
        config = tmp_path / f"{sub}.cfg"
        config.write_text(config_text)
        for fmt in ("csv", "json"):
            outs = []
            for run_dir in ("first", "second"):
                out = tmp_path / sub / fmt / run_dir
                code = main(
                    [
                        sub,
                        "--config",
                        str(config),
                        "--seed",
                        "11",
                        "--out",
                        str(out),
                        "--format",
                        fmt,
                    ]
                )
                assert code in (0, 1), f"{sub} exited {code}"
                reports = list(out.iterdir())
                assert len(reports) == 1
                outs.append(reports[0].read_bytes())
            identical = outs[0] == outs[1]
            all_identical = all_identical and identical
            checked.append(f"{sub}/{fmt}")
    report(9, all_identical, f"{len(checked)} subcommand/format runs byte-identical")
