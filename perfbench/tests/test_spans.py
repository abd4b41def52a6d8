"""The traced run's wrappers: where they go, what they record, how they leave."""

import time

import pytest

import rwmatch
import spans


def test_install_rebinds_every_importing_namespace_and_uninstall_restores():
    names = [
        (rwmatch.transformer, "attention_layer_forward"),
        (rwmatch.matching, "sinkhorn"),
        (rwmatch.sampling, "ot_uniform"),
        (rwmatch.sparsity, "ot_reweighted"),
        (rwmatch, "forward"),
    ]
    before = [getattr(mod, name) for mod, name in names]
    tracer = spans.Tracer()
    tracer.install(rwmatch)
    try:
        assert all(getattr(mod, name) is not orig for (mod, name), orig in zip(names, before))
    finally:
        tracer.uninstall()
    assert all(getattr(mod, name) is orig for (mod, name), orig in zip(names, before))


def test_spans_nest_and_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.02))
    outer = tracer.wrap("outer", lambda: inner())
    outer()  # inactive: nothing recorded
    assert tracer.spans == []
    with tracer.root("op"):
        outer()
    op, out, inn = tracer.spans
    assert (op.parent, out.parent, inn.parent) == (-1, 0, 1)
    assert out.self_time == pytest.approx(out.duration - inn.duration)
    assert inn.duration >= 0.02 > out.self_time


def test_a_raising_call_leaves_a_span_without_attributes():
    tracer = spans.Tracer()

    def fail(sbar, *args):
        raise RuntimeError("solver failed")

    solve = tracer.wrap("matching.sinkhorn", fail, spans._sinkhorn_attrs)
    with pytest.raises(RuntimeError):
        with tracer.root("op"):
            solve(None)
    assert not tracer.active
    metrics = spans.layer_metrics(tracer.spans, rounds=1, loss_clamped=0)
    assert metrics["matching.sinkhorn_calls"] == 1
    assert metrics["matching.sinkhorn_iters"] == 0
