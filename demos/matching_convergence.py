"""
Matching functions under sampling: transport and dual-softmax
=============================================================

The matching stage pairs the tokens of two sets.  The transport route appends
a dustbin row and column (absorbing unmatched mass) and runs Sinkhorn scaling
toward the probability marginals; the dual-softmax route multiplies row and
column softmaxes of the score matrix.

Summing a uniform matching of sampled points over all samples that share an
underlying pair approaches the reweighted matching of the full sets.  This
script first dissects one small transport plan, then prints the convergence
table for both routes.

Run it directly: python demos/matching_convergence.py  (about a second)
"""

import numpy as np

from rwmatch import (
    ProbabilityWeights,
    ot_reweighted,
    random_feature_set,
    random_transformer_spec,
    run_matching_convergence,
)

# --- one augmented transport plan, up close ------------------------------
rng = np.random.default_rng(3)
tokens_a = 0.5 * rng.standard_normal((4, 3))
tokens_b = 0.5 * rng.standard_normal((4, 5))
p_a = ProbabilityWeights(rng.dirichlet(np.ones(3)))
p_b = ProbabilityWeights(rng.dirichlet(np.ones(5)))

result = ot_reweighted(tokens_a, tokens_b, p_a, p_b)
print(f"converged in {result.iterations} iterations, residual {result.residual:.1e}")
print("plan (last row/column are the dustbins):")
print(np.round(result.plan, 4))
print(f"total mass: {result.plan.sum():.12f}  (interior + dustbins = 2)")
print(f"interior row sums vs p_a: {np.abs(result.plan.sum(axis=1)[:-1] - p_a.p).max():.1e}")

# --- convergence of sampled matching to reweighted matching --------------
rng = np.random.default_rng(4)
set_a = random_feature_set(rng, n_points=16, grid=32.0)
set_b = random_feature_set(rng, n_points=16, grid=32.0)
spec = random_transformer_spec(rng)

sizes = (64, 256, 1024)
for method in ("ot", "dual-softmax"):
    report = run_matching_convergence(
        spec, set_a, set_b, sizes, trials=40, seed=2, method=method
    )
    print(f"\n{method}: grouped-sum error over 40 trials per size")
    print(f"{'m':>6} {'q25':>10} {'median':>10} {'q75':>10} {'max':>10}")
    for e in report.entries:
        print(
            f"{e.sample_size:>6} {e.q25:>10.2e} {e.q50:>10.2e} "
            f"{e.q75:>10.2e} {e.max_err:>10.2e}"
        )
