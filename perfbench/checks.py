"""Correctness checks on the program's outputs.

Every check recomputes what it needs with plain numpy, from the inputs the
benchmark generated, or tests a property the method must have.  None
compares against stored output.  A failed check raises ``CheckError``.
"""

from __future__ import annotations

import numpy as np


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _fail(msg: str) -> None:
    raise CheckError(msg)


def own_scores(tok_a: np.ndarray, tok_b: np.ndarray) -> np.ndarray:
    """Pairwise token inner products."""
    return tok_a.T @ tok_b


def check_scores(scores: np.ndarray, ref: np.ndarray) -> None:
    if scores.shape != ref.shape or not np.allclose(scores, ref, rtol=1e-10, atol=1e-10):
        _fail("score matrix differs from the token inner products")


def check_transport(
    plan: np.ndarray,
    scores: np.ndarray,
    p_a: np.ndarray,
    p_b: np.ndarray,
    alpha: float,
    eps: float,
    tol: float,
) -> None:
    """The plan is the entropic optimum of the dustbin problem.

    Rebuilds the augmented scores from ``scores`` (dustbin row and column at
    ``alpha``) and the marginals (probabilities plus a unit dustbin).  The plan must meet
    both marginals within ``tol``, and log P - S/eps must be of the form
    f_i + g_j on its positive cells.  Together the two identify the unique
    entropic optimum.
    """
    n_a, n_b = p_a.size, p_b.size
    if plan.shape != (n_a + 1, n_b + 1) or not np.all(np.isfinite(plan)) or np.any(plan < 0):
        _fail("plan has the wrong shape or non-finite or negative entries")
    a = np.append(p_a, 1.0)
    b = np.append(p_b, 1.0)
    row_err = np.max(np.abs(plan.sum(axis=1) - a))
    col_err = np.max(np.abs(plan.sum(axis=0) - b))
    if max(row_err, col_err) > tol:
        _fail(f"plan misses its marginals: rows {row_err:.2e}, columns {col_err:.2e}")
    sbar = np.full((n_a + 1, n_b + 1), alpha)
    sbar[:n_a, :n_b] = scores
    rows = np.flatnonzero(a > 0)
    cols = np.flatnonzero(b > 0)
    sub = plan[np.ix_(rows, cols)]
    with np.errstate(divide="ignore"):
        m = np.log(sub) - sbar[np.ix_(rows, cols)] / eps
    # the dustbin row and column are always positive, so they anchor f and g
    resid = m - m[:, -1:] - m[-1:, :] + m[-1, -1]
    ok = sub > 1e-300
    worst = float(np.max(np.abs(resid[ok]))) if ok.any() else 0.0
    if worst > 1e-7:
        _fail(f"log plan is not of the Gibbs form f_i + g_j + S/eps (off by {worst:.2e})")


def own_dual_softmax(scores: np.ndarray, p_a: np.ndarray, p_b: np.ndarray) -> np.ndarray:
    """p_A(i) p_B(j) z_ij^2 / (sum_l p_B(l) z_il * sum_k p_A(k) z_kj), z = exp(scores).

    Each factor z_ij / sum is evaluated with its own row or column max shift.
    """
    row = np.exp(scores - scores.max(axis=1, keepdims=True))
    col = np.exp(scores - scores.max(axis=0, keepdims=True))
    row_norm = (row * p_b[None, :]).sum(axis=1, keepdims=True)
    col_norm = (col * p_a[:, None]).sum(axis=0, keepdims=True)
    return p_a[:, None] * p_b[None, :] * (row / row_norm) * (col / col_norm)


def check_dual_softmax(ds: np.ndarray, scores: np.ndarray, p_a: np.ndarray, p_b: np.ndarray) -> None:
    ref = own_dual_softmax(scores, p_a, p_b)
    if ds.shape != ref.shape or not np.allclose(ds, ref, rtol=1e-9, atol=1e-300):
        _fail("dual-softmax differs from its closed form")


def check_duplication(sampled_out: np.ndarray, reweighted_out: np.ndarray, indices: np.ndarray) -> None:
    """Tokens of a sample listing point i c_i times equal the reweighted tokens at p ~ c."""
    diff = float(np.max(np.abs(sampled_out - reweighted_out[:, indices])))
    if not diff <= 1e-9:
        _fail(f"duplicated sample differs from reweighting by {diff:.2e}")


def check_decay(sizes, medians) -> None:
    """Median error does not increase with m and at least halves over the sweep."""
    medians = [float(m) for m in medians]
    if any(b > a for a, b in zip(medians, medians[1:])):
        _fail(f"median error increases with the sample size: {dict(zip(sizes, medians))}")
    if not medians[-1] <= medians[0] / 2.0:
        _fail(f"median error at m={sizes[-1]} is not half of that at m={sizes[0]}: {medians}")


def check_routes(literal, collapsed, rel: float, abs_tol: float) -> None:
    """Literal and collapsed routes give the same quantiles on one trial stream."""
    for e_lit, e_col in zip(literal.entries, collapsed.entries):
        for field in ("q25", "q50", "q75", "max_err"):
            x, y = getattr(e_lit, field), getattr(e_col, field)
            if not abs(x - y) <= abs_tol + rel * abs(y):
                _fail(f"routes disagree at m={e_lit.sample_size} on {field}: {x!r} vs {y!r}")


def own_score_head(head, descriptors: np.ndarray) -> np.ndarray:
    z = head.w_2 @ np.tanh(head.w_1 @ descriptors + head.b_1[:, None]) + head.b_2
    return 1.0 / (1.0 + np.exp(-z))


def check_head_scores(scores: np.ndarray, head, descriptors: np.ndarray) -> None:
    if not np.allclose(scores, own_score_head(head, descriptors), rtol=1e-12, atol=0.0):
        _fail("score head output differs from its closed form")


def survivors(full_coords: np.ndarray, kept_coords: np.ndarray) -> np.ndarray:
    """Indices of the full set whose (distinct) coordinates the pruned set kept."""
    where = {tuple(c): i for i, c in enumerate(full_coords.T)}
    try:
        return np.array([where[tuple(c)] for c in kept_coords.T], dtype=np.intp)
    except KeyError:
        raise CheckError("pruned set holds a point the full set does not have") from None


def check_topk(keep: np.ndarray, scores: np.ndarray, k: int) -> None:
    expect = np.sort(np.argsort(-scores)[:k])
    if not np.array_equal(np.sort(keep), expect):
        _fail(f"top-{k} survivors {np.sort(keep).tolist()} are not the {k} largest scores")


def check_nms(keep: np.ndarray, coords: np.ndarray, radius: float, k: int) -> None:
    if keep.size == 0 or keep.size > k or np.unique(keep).size != keep.size:
        _fail(f"NMS kept {keep.size} distinct points, want 1..{k}")
    pts = coords[:, keep]
    cheb = np.max(np.abs(pts[:, :, None] - pts[:, None, :]), axis=0)
    np.fill_diagonal(cheb, np.inf)
    if not np.all(cheb > radius):
        _fail(f"NMS survivors lie within Chebyshev distance {radius} of each other")


def check_pruned_probs(probs: np.ndarray, scores: np.ndarray, keep: np.ndarray) -> None:
    kept = scores[keep]
    if not np.allclose(probs, kept / kept.sum(), rtol=1e-12, atol=0.0):
        _fail("pruned probabilities are not proportional to the surviving scores")


def own_matching_loss(plan: np.ndarray, pairs, unmatched_a, unmatched_b, floor: float) -> float:
    """-mean log of the plan at the ground-truth cells (dustbins for unmatched points)."""
    n_a, n_b = plan.shape[0] - 1, plan.shape[1] - 1
    cells = [plan[i, j] for i, j in pairs]
    cells += [plan[i, n_b] for i in unmatched_a]
    cells += [plan[n_a, j] for j in unmatched_b]
    return float(-np.mean(np.log(np.maximum(cells, floor))))


def check_loss(loss: float, expect: float) -> None:
    if not abs(loss - expect) <= 1e-9 * max(1.0, abs(expect)):
        _fail(f"matching loss {loss!r} differs from the recomputed {expect!r}")
