"""
Sampled networks converge to the reweighted network
===================================================

Draw m points i.i.d. from a feature set's detection probabilities and run the
standard two-set attention network on the sample.  As m grows, every sampled
token approaches the token the reweighted network assigns to its underlying
point; the error decays like 1/sqrt(m).

This script builds a toy network, sweeps the sample size, and prints the
error quantiles per size for both similarity kinds.

Run it directly: python demos/network_convergence.py  (about a second)
"""

import numpy as np

from rwmatch import (
    LinearSim,
    SoftmaxSim,
    random_feature_set,
    random_transformer_spec,
    run_attention_convergence,
)

rng = np.random.default_rng(7)
set_a = random_feature_set(rng, n_points=16, grid=32.0)
set_b = random_feature_set(rng, n_points=16, grid=32.0)

sizes = (64, 256, 1024, 4096)

for sim, label in ((SoftmaxSim(), "softmax"), (LinearSim(), "linear")):
    spec = random_transformer_spec(np.random.default_rng(8), sim=sim)
    report = run_attention_convergence(spec, set_a, set_b, sizes, trials=50, seed=1)
    print(f"\n{label} similarity, per-token error over 50 trials per size:")
    print(f"{'m':>6} {'q25':>10} {'median':>10} {'q75':>10} {'max':>10}")
    for e in report.entries:
        print(
            f"{e.sample_size:>6} {e.q25:>10.2e} {e.q50:>10.2e} "
            f"{e.q75:>10.2e} {e.max_err:>10.2e}"
        )
    medians = report.medians()
    print(f"median decay m=64 -> m=4096: {medians[0] / medians[-1]:.1f}x")
    print("(1/sqrt(m) predicts 8x)")
