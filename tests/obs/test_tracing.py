"""Span trees, deterministic cross-process IDs, picklable contexts."""

import json
import os
import pickle

from repro.obs.tracing import (
    ObsContext,
    Span,
    Tracer,
    derive_span_id,
    new_trace_id,
)


def test_derive_span_id_deterministic_and_distinct():
    tid = new_trace_id()
    assert derive_span_id(tid, "task", "a:0") == derive_span_id(tid, "task", "a:0")
    assert derive_span_id(tid, "task", "a:0") != derive_span_id(tid, "task", "a:1")
    # the separator prevents part-boundary collisions
    assert derive_span_id(tid, "ab", "c") != derive_span_id(tid, "a", "bc")
    assert derive_span_id(new_trace_id(), "task", "a:0") != derive_span_id(
        tid, "task", "a:0"
    )


def test_nested_spans_parent_from_stack():
    tr = Tracer()
    with tr.start_span("outer") as outer:
        with tr.start_span("inner") as inner:
            assert inner.parent_id == outer.span_id
            assert inner.tid == outer.tid  # nested spans share the lane
    assert outer.parent_id is None
    assert outer.duration >= 0
    assert len(tr.finished_spans()) == 2


def test_detached_spans_and_default_parent():
    tr = Tracer(default_parent_id="feedbeef" * 2)
    a = tr.start_span("a", push=False)
    b = tr.start_span("b", push=False)
    assert a.parent_id == "feedbeef" * 2
    assert a.tid != b.tid  # detached spans get their own lanes
    a.end()
    b.end(outcome="done")
    assert b.attrs["outcome"] == "done"


def test_span_round_trip():
    tr = Tracer()
    sp = tr.start_span("x", n=3)
    sp.end()
    back = Span.from_dict(json.loads(json.dumps(sp.to_dict())))
    assert back.span_id == sp.span_id
    assert back.trace_id == sp.trace_id
    assert back.attrs == {"n": 3}
    assert back.t_end == sp.t_end


def test_obs_context_pickles():
    """The context rides inside the pickled replica payload."""
    ctx = ObsContext(
        trace_id=new_trace_id(),
        parent_span_id=derive_span_id("t", "task", "p:0"),
        host_pid=os.getpid(),
    )
    assert pickle.loads(pickle.dumps(ctx)) == ctx
