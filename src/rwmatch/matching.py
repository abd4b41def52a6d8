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

# over-relaxation factor of the Sinkhorn updates, and the safeguard's look-back
# in iterations: an L1 row error above its value that many iterations earlier
# drops the rest of the solve to plain scaling.  A rise must exceed a relative
# 1e-9 to count, far above the round-off of the sum, so that a stalled error
# does not switch on round-off alone
_OMEGA = 1.5
_SAFEGUARD_WINDOW = 10
_SAFEGUARD_RISE = 1.0 + 1e-9


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
    """Entropic transport plan by over-relaxed alternating scaling, in the exp
    domain with log-domain absorption.

    Solves for plan P = diag(u) K diag(v) with K = exp(sbar / eps), row sums
    a and column sums b.  Each iteration over-relaxes the Sinkhorn updates,
    u <- u^(1 - w) (a / K v)^w and then v <- v^(1 - w) (b / K' u)^w, with
    w = 1.5 (Thibault, Chizat, Dossal & Papadakis, "Overrelaxed
    Sinkhorn-Knopp", arXiv 1711.01851); w = 1 is plain Sinkhorn.  A safeguard
    keeps w from diverging (Lehmann, von Renesse, Sambale & Uschmajew, "A
    note on overrelaxation in the Sinkhorn algorithm", Optim. Lett. 2022):
    when the L1 row-sum violation sum |u * K v - a| exceeds its value ten
    iterations earlier by more than a relative 1e-9, the rest of the solve
    runs at w = 1.  The L1 error of a duplicated point set equals that of its
    reweighted form up to round-off, which the margin keeps from deciding,
    so the two make the same decisions.

    The first iteration starts from v = b, runs in the log domain at w = 1,
    and its scalings are absorbed into potentials f, g, giving the
    stabilized kernel exp(sbar / eps + f_i + g_j), which is the current
    plan.  Later iterations are matrix-vector products against that kernel;
    the update is elementwise, so applied to the kernel's scalings it is
    exactly the over-relaxed update of the absorbed ones.  When a scaling
    becomes non-finite or leaves a fixed range, it is absorbed into the
    potentials and the iteration is taken in the log domain at w = 1
    instead, so large score-to-eps ratios cannot overflow (Schmitzer, SIAM
    J. Sci. Comput. 2019).  Zero marginal entries pin the matching plan rows
    or columns to exact zeros.

    Over-relaxed column sums are not exact after the column update, so each
    iteration checks the infinity norm of both marginal violations and stops
    once it drops to ``tol``, or at ``max_iters``.  The reported residual is
    recomputed from the final plan over both constraints.
    """
    sbar = np.asarray(sbar, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if sbar.shape != (a.size, b.size):
        raise ValueError(
            f"scores {sbar.shape} do not match marginal sizes {a.size} x {b.size}"
        )
    # a NaN makes min and max NaN, and every comparison with NaN is False
    for name, m in (("a", a), ("b", b)):
        if not (m.min() >= 0.0 and m.max() < np.inf):
            raise ValueError(f"marginal {name} must be finite and nonnegative")
    if not (-np.inf < sbar.min() and sbar.max() < np.inf):
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
    omega, window, rise = _OMEGA, _SAFEGUARD_WINDOW, _SAFEGUARD_RISE

    # u and v share one buffer (the proposal another), so one min and one max
    # check the range of both; the plan diag(u) kernel diag(v) has marginals
    # uv * sums with sums = [kernel v, kernel' u], and err is also scratch
    n_a = a.size
    ab = np.concatenate([a, b])
    uv, nxt, sums, err = (np.ones_like(ab) for _ in range(4))
    (u, v), (u_nxt, v_nxt) = (uv[:n_a], uv[n_a:]), (nxt[:n_a], nxt[n_a:])
    kernel_v, kernel_t_u = sums[:n_a], sums[n_a:]
    err_u, err_v = err[:n_a], err[n_a:]
    row_errors = []  # L1 row-sum violations, for the safeguard
    vmin, vmax, vsum = np.minimum.reduce, np.maximum.reduce, np.add.reduce

    # the plan is u_i kernel_ij v_j, where the kernel carries the absorbed
    # log scalings f and g; the loop builds it on its first iteration
    f, g = log_a, log_b
    kernel = None
    absorb = True
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for iterations in range(1, max_iters + 1):
            if not absorb:
                # u^(1 - w) r^w as r (r / u)^(w - 1): w = 1.5 takes a sqrt
                np.divide(a, kernel_v, out=u_nxt)
                if zero_rows.size:
                    u_nxt[zero_rows] = 1.0
                if omega != 1.0:
                    np.divide(u_nxt, u, out=err_u)
                    err_u **= omega - 1.0
                    u_nxt *= err_u
                kernel_t.dot(u_nxt, out=kernel_t_u)
                np.divide(b, kernel_t_u, out=v_nxt)
                if zero_cols.size:
                    v_nxt[zero_cols] = 1.0
                if omega != 1.0:
                    np.divide(v_nxt, v, out=err_v)
                    err_v **= omega - 1.0
                    v_nxt *= err_v
                # min and max are NaN when any entry is, failing the test
                absorb = not (lo <= vmin(nxt) and vmax(nxt) <= hi)
            if absorb:
                # fold v into g and take this iteration in the log domain at
                # w = 1: the plain update does not need the old u
                g = g + np.log(v)
                f = log_a - _logsumexp(log_k + g[None, :], axis=1)
                g = log_b - _logsumexp(log_k + f[:, None], axis=0)
                if np.any(np.isnan(f)) or np.any(np.isnan(g)):
                    raise NumericalError(
                        f"sinkhorn produced non-finite scalings at iteration {iterations}"
                    )
                kernel = np.exp(log_k + f[:, None] + g[None, :])
                kernel_t = kernel.T
                kernel.sum(axis=0, out=kernel_t_u)
                uv.fill(1.0)
                absorb = False
            else:
                uv, nxt = nxt, uv
                (u, v), (u_nxt, v_nxt) = (u_nxt, v_nxt), (u, v)
            # K v is both the plan's row sums and the next u update's input,
            # so each iteration costs two matrix-vector products
            kernel.dot(v, out=kernel_v)
            np.multiply(uv, sums, out=err)
            err -= ab
            np.abs(err, out=err)
            if vmax(err) <= tol:
                break
            if omega != 1.0:
                row_errors.append(vsum(err_u))
                if len(row_errors) > window and row_errors[-1] > rise * row_errors[-1 - window]:
                    omega = 1.0

    if kernel is None:  # max_iters < 1: the plan of the starting scalings
        kernel = np.exp(log_k + f[:, None] + g[None, :])
    plan = u[:, None] * kernel * v[None, :]
    residual = max(
        float(np.abs(plan.sum(axis=1) - a).max()),
        float(np.abs(plan.sum(axis=0) - b).max()),
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
