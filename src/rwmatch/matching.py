"""Score matrices, dustbin augmentation, Sinkhorn transport, and dual-softmax.

Matching starts from the pairwise inner products of two token matrices.  The
transport route augments the score matrix with a dustbin row and column that
absorb unmatched mass, then runs Sinkhorn scaling toward marginals built from
the two probability vectors (each dustbin gets mass 1, so the plan's total
mass is 2).  The dual-softmax route normalizes the exponentiated scores along
rows and columns and multiplies the two.

Both routes come in a uniform flavor (every point weighted equally) and a
reweighted flavor (points weighted by their detection probabilities).  With
uniform probabilities the two flavors coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import ProbabilityWeights

__all__ = [
    "NumericalError",
    "AugmentedAssignment",
    "score_matrix",
    "augment",
    "marginals",
    "sinkhorn",
    "ot_uniform",
    "ot_reweighted",
    "dual_softmax",
    "dual_softmax_reweighted",
    "DEFAULT_EPS",
    "DEFAULT_ALPHA",
    "DEFAULT_MAX_ITERS",
    "DEFAULT_TOL",
]

DEFAULT_EPS = 0.1
DEFAULT_ALPHA = 1.0
DEFAULT_MAX_ITERS = 200
DEFAULT_TOL = 1e-9

# exp-domain scalings outside this range are absorbed into the log-domain
# potentials.  It bounds what a kernel entry lost to underflow (below 1e-308)
# could have contributed to the plan: less than 1e-308 * 1e50 * 1e50.
_SCALING_RANGE = (1e-50, 1e50)


class NumericalError(RuntimeError):
    """A computation produced non-finite intermediates and was aborted."""


@dataclass(frozen=True)
class AugmentedAssignment:
    """Transport plan over augmented indices plus convergence bookkeeping.

    plan has shape (n_A + 1, n_B + 1); the last row and column are the
    dustbins.  residual is the final infinity-norm violation of the marginal
    constraints, and converged records whether it reached the requested
    tolerance within the iteration budget.
    """

    plan: np.ndarray
    iterations: int
    residual: float
    converged: bool

    @property
    def interior(self) -> np.ndarray:
        """The plan without the dustbin row and column."""
        return self.plan[:-1, :-1]


def score_matrix(tokens_a: np.ndarray, tokens_b: np.ndarray) -> np.ndarray:
    """Pairwise inner products: entry (i, j) is token_a_i . token_b_j."""
    tokens_a = np.asarray(tokens_a, dtype=np.float64)
    tokens_b = np.asarray(tokens_b, dtype=np.float64)
    if tokens_a.ndim != 2 or tokens_b.ndim != 2 or tokens_a.shape[0] != tokens_b.shape[0]:
        raise ValueError(
            f"token matrices must be (d, n) with equal d, got {tokens_a.shape} vs {tokens_b.shape}"
        )
    return tokens_a.T @ tokens_b


def augment(scores: np.ndarray, alpha: float) -> np.ndarray:
    """Append a dustbin row and column holding the score ``alpha``."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    n_a, n_b = scores.shape
    out = np.full((n_a + 1, n_b + 1), float(alpha))
    out[:n_a, :n_b] = scores
    return out


def marginals(
    p_a: ProbabilityWeights, p_b: ProbabilityWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Augmented marginals: probabilities with a unit dustbin appended to each."""
    a = np.concatenate([p_a.p, [1.0]])
    b = np.concatenate([p_b.p, [1.0]])
    return a, b


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along ``axis`` with a max shift; all -inf slices give -inf.

    Overwrites ``x``: callers pass temporaries.
    """
    shift = np.max(x, axis=axis, keepdims=True)
    shift[np.isneginf(shift)] = 0.0
    x -= shift
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(x, out=x), axis=axis, keepdims=True))
    out += shift
    return np.squeeze(out, axis=axis)


def sinkhorn(
    sbar: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    eps: float,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> AugmentedAssignment:
    """Entropic transport plan by alternating scaling, in the exp domain with
    log-domain absorption.

    Solves for plan P = diag(u) K diag(v) with K = exp(sbar / eps), row sums
    a and column sums b, via the updates u = a / (K v), v = b / (K' u),
    starting from v = b.  The first iteration runs in the log domain and its
    scalings are absorbed into potentials f, g, giving the stabilized kernel
    exp(sbar / eps + f_i + g_j), which is the current plan.  Later iterations
    are matrix-vector products against that kernel.  When a scaling becomes
    non-finite or leaves a fixed range, it is absorbed into the potentials
    and the iteration is taken in the log domain instead, so large
    score-to-eps ratios cannot overflow (Schmitzer, SIAM J. Sci. Comput.
    2019).  Zero marginal entries pin the matching plan rows or columns to
    exact zeros.

    Iterates until the infinity norm of the row-sum violation, checked after
    each column update (column sums are exact there by construction), drops
    to ``tol``, or until ``max_iters``.  The reported residual is recomputed
    from the final plan over both constraints.
    """
    sbar = np.asarray(sbar, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if sbar.shape != (a.size, b.size):
        raise ValueError(
            f"scores {sbar.shape} do not match marginal sizes {a.size} x {b.size}"
        )
    for name, m in (("a", a), ("b", b)):
        if not (np.all(np.isfinite(m)) and np.all(m >= 0.0)):
            raise ValueError(f"marginal {name} must be finite and nonnegative")
    if not np.all(np.isfinite(sbar)):
        raise ValueError("scores must be finite")
    if not (eps > 0.0):
        raise ValueError("eps must be positive")
    if abs(a.sum() - b.sum()) > 1e-9 * max(a.sum(), 1.0):
        raise ValueError("marginals must carry equal total mass")

    log_k = sbar / eps
    with np.errstate(divide="ignore"):
        log_a = np.log(a)
        log_b = np.log(b)
    # rows and columns with zero marginal have zero kernel rows and columns;
    # their scalings are held at 1 rather than 0/0
    zero_rows = np.flatnonzero(a == 0.0)
    zero_cols = np.flatnonzero(b == 0.0)
    lo, hi = _SCALING_RANGE

    # the plan is u_i kernel_ij v_j, where the kernel carries the absorbed
    # log scalings f and g; the loop builds it on its first iteration
    f, g = log_a, log_b
    kernel = None
    u = np.ones_like(a)
    v = np.ones_like(b)
    absorb = True
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for iterations in range(1, max_iters + 1):
            if not absorb:
                u_next = a / kernel_v
                u_next[zero_rows] = 1.0
                v_next = b / (u_next @ kernel)
                v_next[zero_cols] = 1.0
                # min and max are NaN when any entry is, failing the test
                absorb = not (
                    lo <= u_next.min() and u_next.max() <= hi
                    and lo <= v_next.min() and v_next.max() <= hi
                )
            if absorb:
                # fold v into g and take this iteration in the log domain
                g = g + np.log(v)
                f = log_a - _logsumexp(log_k + g[None, :], axis=1)
                g = log_b - _logsumexp(log_k + f[:, None], axis=0)
                if np.any(np.isnan(f)) or np.any(np.isnan(g)):
                    raise NumericalError(
                        f"sinkhorn produced non-finite scalings at iteration {iterations}"
                    )
                kernel = np.exp(log_k + f[:, None] + g[None, :])
                u = np.ones_like(a)
                v = np.ones_like(b)
                absorb = False
            else:
                u, v = u_next, v_next
            # K v doubles as the residual check and is reused by the next u
            # update, so each iteration costs two matrix-vector products
            kernel_v = kernel @ v
            if np.max(np.abs(u * kernel_v - a)) <= tol:
                break

    if kernel is None:  # max_iters < 1: the plan of the starting scalings
        kernel = np.exp(log_k + f[:, None] + g[None, :])
    plan = u[:, None] * kernel * v[None, :]
    residual = max(
        float(np.max(np.abs(plan.sum(axis=1) - a))),
        float(np.max(np.abs(plan.sum(axis=0) - b))),
    )
    return AugmentedAssignment(
        plan=plan,
        iterations=iterations,
        residual=residual,
        converged=residual <= tol,
    )


def ot_uniform(
    tokens_a: np.ndarray,
    tokens_b: np.ndarray,
    alpha: float = DEFAULT_ALPHA,
    eps: float = DEFAULT_EPS,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> AugmentedAssignment:
    """Transport with equal weight on every point of each side.

    Delegates to ``ot_reweighted`` with uniform probabilities, so the two
    agree bitwise when the probabilities are uniform.
    """
    n_a = np.asarray(tokens_a).shape[1]
    n_b = np.asarray(tokens_b).shape[1]
    return ot_reweighted(
        tokens_a,
        tokens_b,
        ProbabilityWeights.uniform(n_a),
        ProbabilityWeights.uniform(n_b),
        alpha=alpha,
        eps=eps,
        max_iters=max_iters,
        tol=tol,
    )


def ot_reweighted(
    tokens_a: np.ndarray,
    tokens_b: np.ndarray,
    p_a: ProbabilityWeights,
    p_b: ProbabilityWeights,
    alpha: float = DEFAULT_ALPHA,
    eps: float = DEFAULT_EPS,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
) -> AugmentedAssignment:
    """Transport whose interior marginals are the detection probabilities."""
    scores = score_matrix(tokens_a, tokens_b)
    if len(p_a) != scores.shape[0] or len(p_b) != scores.shape[1]:
        raise ValueError("probability lengths must match the token counts")
    a, b = marginals(p_a, p_b)
    return sinkhorn(augment(scores, alpha), a, b, eps, max_iters=max_iters, tol=tol)


def _dual_softmax(scores: np.ndarray, log_pa: np.ndarray, log_pb: np.ndarray) -> np.ndarray:
    """exp(log p_A(i) + log p_B(j) + 2 s_ij - row_i - col_j), where row and col
    are the log-sum-exps of s + log p_B along rows and of s + log p_A along
    columns.  One n_A x n_B buffer holds both log-sum-exp arguments and then
    the result.  -inf log weights give -inf log entries, which exponentiate
    to exact zeros.
    """
    buf = scores + log_pb
    row = _logsumexp(buf, axis=1)
    np.add(scores, log_pa[:, None], out=buf)
    col = _logsumexp(buf, axis=0)
    # halving and doubling are exact, so 2 (t/2 + s) rounds like t + 2s:
    # the log entries equal those of the one-line expression bit for bit
    np.add(0.5 * log_pa[:, None], 0.5 * log_pb, out=buf)
    buf += scores
    buf *= 2.0
    buf -= row[:, None]
    buf -= col
    return np.exp(buf, out=buf)


def dual_softmax(scores: np.ndarray) -> np.ndarray:
    """Row softmax times column softmax of the scores, computed in log space."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    n_a, n_b = scores.shape
    return _dual_softmax(scores, np.zeros(n_a), np.zeros(n_b))


def dual_softmax_reweighted(
    scores: np.ndarray, p_a: ProbabilityWeights, p_b: ProbabilityWeights
) -> np.ndarray:
    """Dual-softmax with detection probabilities folded into both softmaxes.

    Entry (i, j) is p_A(i) p_B(j) z_ij^2 / (sum_l p_B(l) z_il * sum_k p_A(k)
    z_kj) with z = exp(scores): the row normalization weights key columns by
    p_B and the column normalization weights key rows by p_A.  Under this
    normalization, summing the uniform dual-softmax of a duplicated point set
    over duplicate groups reproduces the reweighted values exactly, and
    uniform probabilities cancel back to the unweighted dual-softmax.  Rows
    and columns with zero probability are exactly zero.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise ValueError("scores must be a 2-D matrix")
    if len(p_a) != scores.shape[0] or len(p_b) != scores.shape[1]:
        raise ValueError("probability lengths must match the score shape")
    return _dual_softmax(scores, p_a.log(), p_b.log())
