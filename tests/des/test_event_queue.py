"""Unit tests for Event / EventQueue ordering and cancellation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des.event import PRIORITY_CLOCK, PRIORITY_NORMAL, Event, EventQueue


def test_orders_by_time():
    q = EventQueue()
    q.push(Event(time=3.0))
    q.push(Event(time=1.0))
    q.push(Event(time=2.0))
    assert [q.pop().time for _ in range(3)] == [1.0, 2.0, 3.0]


def test_ties_broken_by_priority_then_seq():
    q = EventQueue()
    e1 = q.push(Event(time=1.0, priority=PRIORITY_NORMAL))
    e2 = q.push(Event(time=1.0, priority=PRIORITY_CLOCK))
    e3 = q.push(Event(time=1.0, priority=PRIORITY_NORMAL))
    popped = [q.pop() for _ in range(3)]
    assert popped == [e2, e1, e3]


def test_insertion_order_preserved_for_identical_keys():
    q = EventQueue()
    events = [q.push(Event(time=5.0)) for _ in range(10)]
    assert [q.pop() for _ in range(10)] == events


def test_pop_empty_raises():
    q = EventQueue()
    with pytest.raises(IndexError):
        q.pop()


def test_peek_time_empty_is_inf():
    assert EventQueue().peek_time() == float("inf")


def test_len_and_bool():
    q = EventQueue()
    assert len(q) == 0 and not q
    q.push(Event(time=1.0))
    assert len(q) == 1 and q
    q.pop()
    assert len(q) == 0 and not q


def test_cancelled_events_are_skipped():
    q = EventQueue()
    keep = q.push(Event(time=1.0))
    drop = q.push(Event(time=0.5))
    drop.cancel()
    q.note_cancelled()
    assert len(q) == 1
    assert q.peek_time() == 1.0
    assert q.pop() is keep
    assert not q


def test_cancel_without_note_still_skipped():
    q = EventQueue()
    drop = q.push(Event(time=0.5))
    keep = q.push(Event(time=1.0))
    drop.cancel()
    assert q.pop() is keep


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_pop_order_is_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(Event(time=t))
    out = [q.pop().time for _ in range(len(times))]
    assert out == sorted(times)


@given(
    st.lists(
        st.tuples(
            st.sampled_from([1.0, 2.0, 3.0]),
            st.sampled_from([0, 50, 100]),
        ),
        min_size=1,
        max_size=100,
    )
)
def test_total_order_key(entries):
    q = EventQueue()
    pushed = [q.push(Event(time=t, priority=p)) for t, p in entries]
    out = [q.pop() for _ in range(len(pushed))]
    keys = [e.sort_key() for e in out]
    assert keys == sorted(keys)
