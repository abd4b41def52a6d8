"""Span recording around rwmatch's public functions, for the traced run.

``Tracer.install`` rebinds each target function, in every rwmatch module
namespace that holds it, to a wrapper that records a span (name, start, end,
parent, attributes) while the tracer is active.  Calls made inside the
program (``_run_stack`` calling ``attention_layer_forward``, ``train_score_head``
calling ``pipeline_loss``) go through the module globals, so they are caught
too.  Untraced runs never install the wrappers.

Spans stay in memory until the run ends; ``layer_metrics`` folds them into
per-layer totals and ``write_jsonl`` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict | None = None
    child_time: float = field(default=0.0, repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        # children run synchronously inside their parent, so they never overlap
        return self.duration - self.child_time


def _layer_flops(args, kwargs, out) -> dict:
    """Floating-point operations of one attention layer, from its shapes.

    Counts the multiply-adds of the projections, the attention logits, the
    value aggregation, the value-output products and the feed-forward block;
    exponentials and normalizations are left out.
    """
    x_q, x_k, _x_v, params = args[:4]
    d, n_q = x_q.shape
    n_k = x_k.shape[1]
    d_h = params.heads[0].d_h
    d_f = params.ffn.w_1.shape[0]
    per_head = 2 * (d_h * d * (n_k + n_q) + d_h * n_k * n_q + d * n_k * n_q + d * d * n_q)
    return {"flops": len(params.heads) * per_head + 4 * d_f * d * n_q}


def _sinkhorn_attrs(args, kwargs, out) -> dict:
    sbar = args[0]
    return {
        "iterations": out.iterations,
        "residual": out.residual,
        "converged": bool(out.converged),
        "cells": int(sbar.shape[0] * sbar.shape[1]),
    }


# (defining module, function name, attribute hook)
TARGETS = (
    ("attention", "attention_matrix", None),
    ("attention", "reweighted_attention_matrix", None),
    ("attention", "attention_layer_forward", _layer_flops),
    ("transformer", "embed", None),
    ("transformer", "forward", None),
    ("transformer", "forward_reweighted", None),
    ("matching", "score_matrix", None),
    ("matching", "sinkhorn", _sinkhorn_attrs),
    ("matching", "ot_reweighted", None),
    ("matching", "ot_uniform", None),
    ("matching", "dual_softmax", None),
    ("matching", "dual_softmax_reweighted", None),
    ("sampling", "sample_iid", None),
    ("sampling", "run_attention_convergence", None),
    ("sampling", "run_matching_convergence", None),
    ("sparsity", "score_head_forward", None),
    ("sparsity", "pipeline_loss", None),
    ("sparsity", "train_score_head", None),
    ("sparsity", "prune", lambda args, kwargs, out: {"kept": out.n}),
)


class Tracer:
    """Collects spans of wrapped calls while ``active`` is true."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, self._stack[-1] if self._stack else -1))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span.start, span.end = start, end
        if span.parent >= 0:
            self.spans[span.parent].child_time += end - start

    def wrap(self, name: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, start, time.perf_counter())
            if hook is not None:
                tracer.spans[idx].attrs = hook(args, kwargs, out)
            return out

        return traced

    def install(self, package) -> None:
        """Rebind every target in each rwmatch namespace that imports it."""
        modules = [package] + [
            getattr(package, name)
            for name in ("attention", "transformer", "matching", "sampling", "sparsity", "cli")
            if hasattr(package, name)
        ]
        for mod_name, fn_name, hook in TARGETS:
            orig = getattr(getattr(package, mod_name), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", orig, hook)
            for mod in modules:
                if mod.__dict__.get(fn_name) is orig:
                    self._restore.append((mod, fn_name, orig))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, orig in reversed(self._restore):
            setattr(mod, fn_name, orig)
        self._restore.clear()

    @contextlib.contextmanager
    def root(self, name: str):
        """The benchmark's own span around one call; wrappers record inside it."""
        self.active = True
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())
            self.active = False

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
                if s.attrs:
                    rec["attrs"] = s.attrs
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list[Span], rounds: int, loss_clamped: int) -> dict[str, float]:
    """Per-layer totals per round: counts, milliseconds and derived rates."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def ms(group_spans, self_only=False):
        return 1e3 * sum(s.self_time if self_only else s.duration for s in group_spans)

    layers = group("attention.attention_layer_forward")
    matrices = group("attention.attention_matrix", "attention.reweighted_attention_matrix")
    forwards = group("transformer.forward", "transformer.forward_reweighted")
    sinkhorns = group("matching.sinkhorn")
    dual = group("matching.dual_softmax", "matching.dual_softmax_reweighted")
    runner_names = ("sampling.run_attention_convergence", "sampling.run_matching_convergence")
    runners = group(*runner_names)
    runner_ids = {i for i, s in enumerate(spans) if s.name in runner_names}
    literal = sum(1 for s in group("transformer.forward") if s.parent in runner_ids)
    # each convergence run opens with one reweighted forward on the full sets,
    # the reference; the rest are collapsed trials
    collapsed = sum(1 for s in group("transformer.forward_reweighted") if s.parent in runner_ids)
    collapsed -= len(runners)

    # a call that raised leaves a span without attributes
    solved = [s for s in sinkhorns if s.attrs]
    layer_self = ms(layers, self_only=True)
    matrix_ms = ms(matrices)
    flops = sum(s.attrs["flops"] for s in layers if s.attrs)
    sink_s = sum(s.duration for s in sinkhorns)
    cell_iters = sum(s.attrs["cells"] * s.attrs["iterations"] for s in solved)
    per_round = {
        "attention.layer_calls": len(layers),
        "attention.layer_self_ms": layer_self,
        "attention.matrix_ms": matrix_ms,
        "transformer.forward_calls": len(forwards),
        "transformer.forward_self_ms": ms(forwards, self_only=True),
        "transformer.embed_ms": ms(group("transformer.embed"), self_only=True),
        "matching.score_ms": ms(group("matching.score_matrix")),
        "matching.sinkhorn_calls": len(sinkhorns),
        "matching.sinkhorn_ms": 1e3 * sink_s,
        "matching.sinkhorn_iters": sum(s.attrs["iterations"] for s in solved),
        "matching.sinkhorn_unconverged": sum(1 for s in solved if not s.attrs["converged"]),
        "matching.dual_softmax_calls": len(dual),
        "matching.dual_softmax_ms": ms(dual),
        "sampling.trials_literal": literal,
        "sampling.trials_collapsed": collapsed,
        "sampling.sample_ms": ms(group("sampling.sample_iid")),
        "sampling.self_ms": ms(runners, self_only=True),
        "sparsity.pipeline_loss_calls": len(group("sparsity.pipeline_loss")),
        "sparsity.score_head_ms": ms(group("sparsity.score_head_forward")),
        "sparsity.spsa_self_ms": ms(group("sparsity.train_score_head"), self_only=True),
        "sparsity.prune_ms": ms(group("sparsity.prune")),
        "sparsity.survivors": sum(s.attrs["kept"] for s in group("sparsity.prune") if s.attrs),
        "sparsity.loss_clamped": loss_clamped,
    }
    out = {k: v / rounds for k, v in per_round.items()}
    compute_s = (matrix_ms + layer_self) / 1e3
    out["attention.gflops"] = flops / compute_s / 1e9 if compute_s > 0 else 0.0
    out["matching.sinkhorn_max_residual"] = max((s.attrs["residual"] for s in solved), default=0.0)
    out["matching.sinkhorn_cells_per_s"] = cell_iters / sink_s if sink_s > 0 else 0.0
    return out
