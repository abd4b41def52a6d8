"""Probability-reweighted attention and matching for two-set feature matching.

The package provides three layers:

* core numerics: standard and reweighted attention with softmax or linear
  similarity, entropic transport with a dustbin, and dual-softmax matching;
* a two-set attention network runnable in standard mode on i.i.d. samples
  and in reweighted mode on full feature sets, plus the sampling harness
  that measures how fast the first converges to the second;
* a sparse-detection pipeline: trainable score head, matching + L1 loss,
  gradient-free training, and pruning rules.

The ``rwmatch`` command line runs the bundled experiments and writes
deterministic CSV or JSON reports.
"""

from .attention import (
    AttentionHeadParams,
    AttentionLayerParams,
    FeedForwardParams,
    LinearSim,
    ProbabilityWeights,
    Similarity,
    SoftmaxSim,
    attention_layer_forward,
    attention_matrix,
    linear_phi,
    relu,
    reweighted_attention_matrix,
)
from .matching import (
    DEFAULT_ALPHA,
    DEFAULT_EPS,
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    AugmentedAssignment,
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
from .sampling import (
    EXPAND_THRESHOLD_ATTENTION,
    EXPAND_THRESHOLD_MATCHING,
    ConvergenceReport,
    SizeStats,
    random_feature_set,
    run_attention_convergence,
    run_matching_convergence,
    sample_iid,
)
from .sparsity import (
    LOSS_FLOOR,
    MatchGroundTruth,
    NMS,
    PruneRule,
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
from .transformer import (
    DEFAULT_ROUTING,
    AffineEmbed,
    FeatureSet,
    LayerRoute,
    SampledSet,
    TransformerSpec,
    embed,
    forward,
    forward_reweighted,
    random_layer_params,
    random_transformer_spec,
)

__version__ = "0.1.0"
