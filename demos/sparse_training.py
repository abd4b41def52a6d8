"""
Training a sparse detector on top of a frozen pipeline
======================================================

A score head maps descriptors to scores in (0, 1); the scores act as
detection probabilities for the reweighted network and transport.  Training
minimizes matching loss + lambda * L1(scores) with SPSA, a gradient-free
two-point method, so the frozen backbone is never touched.  Larger lambda
presses the scores toward zero and the surviving points get sparser.

After training, pruning rules (threshold, top-k, non-maximum suppression)
turn the score map into a smaller feature set.

Run it directly: python demos/sparse_training.py  (one to two seconds)
"""

import numpy as np

from rwmatch import (
    NMS,
    SparsityConfig,
    TopK,
    prune,
    random_matching_problem,
    random_score_head,
    random_transformer_spec,
    score_head_forward,
    select_survivors,
    sparsity_loss,
    train_score_head,
)

rng = np.random.default_rng(11)
set_a, set_b, gt = random_matching_problem(rng)
spec = random_transformer_spec(rng)
init = random_score_head(np.random.default_rng(12))

steps = 150
for lam in (0.1, 1.0):
    cfg = SparsityConfig(lam=lam, rule=TopK(6))
    trained, trace = train_score_head(
        init, spec, set_a, set_b, gt, cfg, steps=steps, seed=5
    )
    scores_a = score_head_forward(trained, set_a)
    scores_b = score_head_forward(trained, set_b)
    l1 = sparsity_loss(scores_a) + sparsity_loss(scores_b)
    print(f"lambda={lam}: final L1 score mass {l1:.3f} after {steps} steps")
    print(f"  loss trace: start {trace[0].mean():.3f} -> end {trace[-1].mean():.3f}")
    print(f"  scores of set A: {np.round(np.sort(scores_a)[::-1], 3)}")

# prune the lambda=1.0 detector three ways
print("\npruning the trained score map of set A:")
kept_t = select_survivors(scores_a, TopK(4))
print(f"  top-4 keeps points {kept_t}")
kept_n = select_survivors(scores_a, NMS(radius=4.0, k=6), set_a.coords)
print(f"  NMS (radius 4) keeps points {kept_n}")

small = prune(set_a, scores_a, TopK(4))
print(f"  pruned set: {small.n} points, probabilities {np.round(small.probs.p, 3)}")
print("  (the pruned set plugs straight back into the reweighted pipeline)")
