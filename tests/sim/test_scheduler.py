"""Event scheduler: ordering, cancellation, clock semantics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.errors import SchedulingInPastError
from repro.sim.scheduler import EventScheduler


def test_events_fire_in_time_order():
    scheduler = EventScheduler()
    fired = []
    scheduler.schedule(0.3, lambda: fired.append("c"))
    scheduler.schedule(0.1, lambda: fired.append("a"))
    scheduler.schedule(0.2, lambda: fired.append("b"))
    scheduler.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_fifo():
    scheduler = EventScheduler()
    fired = []
    for label in "abcde":
        scheduler.schedule(1.0, lambda label=label: fired.append(label))
    scheduler.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time_before_callback():
    scheduler = EventScheduler()
    seen = []
    scheduler.schedule(2.5, lambda: seen.append(scheduler.now))
    scheduler.run()
    assert seen == [2.5]


def test_run_until_lands_exactly_on_deadline():
    scheduler = EventScheduler()
    scheduler.schedule(0.5, lambda: None)
    scheduler.run_until(10.0)
    assert scheduler.now == 10.0


def test_run_until_does_not_fire_later_events():
    scheduler = EventScheduler()
    fired = []
    scheduler.schedule(5.0, lambda: fired.append("late"))
    scheduler.run_until(4.999)
    assert fired == []
    scheduler.run_until(5.0)
    assert fired == ["late"]


def test_cancelled_events_do_not_fire():
    scheduler = EventScheduler()
    fired = []
    handle = scheduler.schedule(1.0, lambda: fired.append("x"))
    handle.cancel()
    scheduler.run()
    assert fired == []
    assert handle.cancelled


def test_cancel_is_idempotent():
    scheduler = EventScheduler()
    handle = scheduler.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert len(scheduler) == 0


def test_len_counts_only_pending():
    scheduler = EventScheduler()
    keep = scheduler.schedule(1.0, lambda: None)
    drop = scheduler.schedule(2.0, lambda: None)
    drop.cancel()
    assert len(scheduler) == 1


def test_len_stays_exact_across_cancel_and_reschedule():
    # Regression: __len__ is maintained incrementally now (it used to
    # re-scan the heap), so every push/pop/cancel path must keep it exact —
    # including cancelling an already-fired handle and double-cancels.
    scheduler = EventScheduler()
    first = scheduler.schedule(1.0, lambda: None)
    second = scheduler.schedule(2.0, lambda: None)
    assert len(scheduler) == 2
    first.cancel()
    assert len(scheduler) == 1
    replacement = scheduler.schedule(1.5, lambda: None)
    assert len(scheduler) == 2
    replacement.cancel()
    replacement.cancel()  # idempotent: must not double-decrement
    assert len(scheduler) == 1
    assert scheduler.step() is True  # fires `second`
    assert len(scheduler) == 0
    second.cancel()  # cancelling after firing must not go negative
    assert len(scheduler) == 0
    again = scheduler.schedule(1.0, lambda: None)
    assert len(scheduler) == 1
    scheduler.run()
    assert len(scheduler) == 0


def test_len_exact_while_cancelled_events_still_in_heap():
    scheduler = EventScheduler()
    handles = [scheduler.schedule(float(i + 1), lambda: None) for i in range(5)]
    handles[3].cancel()
    handles[1].cancel()
    # The cancelled handles are still buried in the heap (lazy deletion),
    # but the count must already exclude them.
    assert len(scheduler) == 3
    scheduler.run()
    assert len(scheduler) == 0


def test_scheduling_in_past_raises():
    scheduler = EventScheduler()
    scheduler.schedule(1.0, lambda: None)
    scheduler.run()
    with pytest.raises(SchedulingInPastError):
        scheduler.schedule_at(0.5, lambda: None)
    with pytest.raises(SchedulingInPastError):
        scheduler.schedule(-0.1, lambda: None)


def test_run_until_backwards_raises():
    scheduler = EventScheduler()
    scheduler.run_until(5.0)
    with pytest.raises(SchedulingInPastError):
        scheduler.run_until(4.0)


def test_callback_may_schedule_more_events():
    scheduler = EventScheduler()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            scheduler.schedule(1.0, lambda: chain(depth + 1))

    scheduler.schedule(1.0, lambda: chain(0))
    scheduler.run()
    assert fired == [0, 1, 2, 3]
    assert scheduler.now == 4.0


def test_peek_time_skips_cancelled():
    scheduler = EventScheduler()
    early = scheduler.schedule(1.0, lambda: None)
    scheduler.schedule(2.0, lambda: None)
    early.cancel()
    assert scheduler.peek_time() == 2.0


def test_step_returns_false_when_drained():
    scheduler = EventScheduler()
    assert scheduler.step() is False
    scheduler.schedule(0.1, lambda: None)
    assert scheduler.step() is True
    assert scheduler.step() is False


@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=50))
def test_property_firing_order_is_sorted_by_time(delays):
    scheduler = EventScheduler()
    fired = []
    for index, delay in enumerate(delays):
        scheduler.schedule(delay, lambda d=delay: fired.append(d))
    scheduler.run()
    assert fired == sorted(delays)
    assert len(fired) == len(delays)


@given(st.lists(st.tuples(st.floats(min_value=0, max_value=100,
                                    allow_nan=False),
                          st.booleans()),
                max_size=30))
def test_property_cancelled_never_fire(items):
    scheduler = EventScheduler()
    fired = []
    expected = []
    for index, (delay, keep) in enumerate(items):
        handle = scheduler.schedule(delay, lambda i=index: fired.append(i))
        if keep:
            expected.append(index)
        else:
            handle.cancel()
    scheduler.run()
    assert sorted(fired) == expected


def test_run_before_stops_short_of_deadline_events():
    scheduler = EventScheduler()
    fired = []
    scheduler.schedule(1.0, lambda: fired.append("early"))
    scheduler.schedule(2.0, lambda: fired.append("boundary"))
    scheduler.run_before(2.0)
    assert fired == ["early"]
    assert scheduler.now == 2.0
    # The boundary event is still queued and fires in the next window.
    scheduler.run_before(3.0)
    assert fired == ["early", "boundary"]


def test_run_before_backwards_raises():
    scheduler = EventScheduler()
    scheduler.run_before(5.0)
    with pytest.raises(SchedulingInPastError):
        scheduler.run_before(4.0)


def test_step_batch_executes_all_ties_at_once():
    scheduler = EventScheduler()
    fired = []
    for label in "abc":
        scheduler.schedule(1.0, lambda label=label: fired.append(label))
    scheduler.schedule(2.0, lambda: fired.append("later"))
    assert scheduler.step_batch() == 3
    assert fired == ["a", "b", "c"]
    assert scheduler.step_batch() == 1
    assert fired == ["a", "b", "c", "later"]
    assert scheduler.step_batch() == 0


def test_step_batch_respects_cancellation_inside_the_batch():
    scheduler = EventScheduler()
    fired = []
    handles = [
        scheduler.schedule(1.0, lambda i=i: fired.append(i)) for i in range(4)
    ]
    # Event 0 cancels event 2 when it runs — same timestamp, same batch.
    handles[0].callback = lambda: (fired.append(0), handles[2].cancel())
    assert scheduler.step_batch() == 3
    assert fired == [0, 1, 3]
    assert len(scheduler) == 0


def test_batched_run_matches_stepwise_run_exactly():
    def build():
        scheduler = EventScheduler()
        fired = []
        for index, time in enumerate([3.0, 1.0, 1.0, 2.0, 1.0, 3.0]):
            scheduler.schedule(time, lambda i=index, t=time: fired.append((t, i)))
        return scheduler, fired

    batched, batched_fired = build()
    batched.run()
    stepwise, stepwise_fired = build()
    while stepwise.step():
        pass
    assert batched_fired == stepwise_fired


class Boom(Exception):
    pass


def test_step_batch_requeues_the_rest_of_a_batch_when_a_callback_raises():
    def build():
        scheduler = EventScheduler()
        fired = []

        def boom():
            fired.append("boom")
            raise Boom()

        scheduler.schedule_at(1.0, lambda: fired.append("a"))
        scheduler.schedule_at(1.0, boom)
        scheduler.schedule_at(1.0, lambda: fired.append("c"))
        scheduler.schedule_at(1.5, lambda: fired.append("d"))
        return scheduler, fired

    batched, batched_fired = build()
    with pytest.raises(Boom):
        batched.run_until(2.0)
    stepwise, stepwise_fired = build()
    with pytest.raises(Boom):
        while stepwise.step():
            pass
    # The event after the raising one is still queued, at its own instant.
    assert batched_fired == stepwise_fired == ["a", "boom"]
    assert len(batched) == len(stepwise) == 2
    assert batched.now == stepwise.now == 1.0
    assert batched.peek_time() == 1.0
    batched.run_until(2.0)
    while stepwise.step():
        pass
    assert batched_fired == stepwise_fired == ["a", "boom", "c", "d"]
    assert len(batched) == 0


def test_requeued_batch_events_stay_cancellable():
    scheduler = EventScheduler()
    fired = []

    def boom():
        raise Boom()

    scheduler.schedule_at(1.0, boom)
    later = scheduler.schedule_at(1.0, lambda: fired.append("later"))
    with pytest.raises(Boom):
        scheduler.step_batch()
    assert len(scheduler) == 1
    later.cancel()
    assert len(scheduler) == 0
    scheduler.run()
    assert fired == []


@pytest.mark.parametrize("call", [
    lambda scheduler: scheduler.schedule_at(math.nan, lambda: None),
    lambda scheduler: scheduler.schedule(math.nan, lambda: None),
    lambda scheduler: scheduler.run_until(math.nan),
    lambda scheduler: scheduler.run_before(math.nan),
], ids=["schedule_at", "schedule", "run_until", "run_before"])
def test_nan_time_is_rejected_and_leaves_the_scheduler_intact(call):
    scheduler = EventScheduler()
    fired = []
    scheduler.schedule_at(1.0, lambda: fired.append(1.0))
    scheduler.schedule_at(0.5, lambda: fired.append(0.5))
    with pytest.raises(SchedulingInPastError):
        call(scheduler)
    assert fired == []
    assert scheduler.now == 0.0
    assert len(scheduler) == 2
    scheduler.run()
    assert fired == [0.5, 1.0]


# -- model test: the tuple heap against a sorted reference list ---------------

OFFSETS = st.sampled_from([0.0, 0.5, 1.0])  # few values: many ties
EVENT_IDS = st.integers(0, 12)  # handles are numbered in schedule order
_schedule = st.tuples(
    st.sampled_from(["at", "in"]),
    OFFSETS,
    st.one_of(st.none(), EVENT_IDS),  # event it cancels on firing
    st.one_of(st.none(), OFFSETS),  # delay of a child it schedules on firing
    st.sampled_from([False] * 5 + [True]),  # whether it raises on firing
)
_ops = st.lists(st.one_of(
    _schedule,
    st.tuples(st.just("cancel"), EVENT_IDS),
    st.tuples(st.just("step")),
    st.tuples(st.just("batch")),
    st.tuples(st.just("until"), OFFSETS),
), max_size=40)


class _Reference:
    """A plain list kept sorted by ``(time, seq)``; ids are seq numbers."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.pending = []
        self.actions = {}
        self.fired = []

    def schedule_at(self, time, action):
        self.actions[self.seq] = action
        self.pending.append((time, self.seq))
        self.pending.sort()
        self.seq += 1

    def cancel(self, ident):
        self.pending = [key for key in self.pending if key[1] != ident]

    def step(self):
        if not self.pending:
            return False
        time, ident = self.pending.pop(0)
        self.now = time
        self.fired.append((ident, time))
        victim, child, raises = self.actions[ident]
        if victim is not None:
            self.cancel(victim)
        if child is not None:
            self.schedule_at(self.now + child, (None, None, False))
        if raises:
            raise Boom()
        return True

    def step_batch(self):
        # Every event pending at the head instant when the batch starts;
        # same-instant events scheduled during it wait for the next batch.
        if not self.pending:
            return 0
        time, bound = self.pending[0][0], self.seq
        executed = 0
        while (self.pending and self.pending[0][0] == time
               and self.pending[0][1] < bound):
            executed += 1
            self.step()
        return executed

    def run_until(self, deadline):
        while self.pending and self.pending[0][0] <= deadline:
            self.step_batch()
        self.now = deadline


def _outcome(call):
    try:
        return call()
    except Boom:
        return "boom"


@settings(max_examples=300, deadline=None)
@given(_ops)
def test_model_tuple_heap_matches_sorted_reference(ops):
    scheduler = EventScheduler()
    reference = _Reference()
    handles = []
    fired = []

    def callback_for(action):
        ident = len(handles)  # the handle about to be appended
        victim, child, raises = action

        def callback():
            fired.append((ident, scheduler.now))
            if victim is not None and victim < len(handles):
                handles[victim].cancel()
            if child is not None:
                handles.append(scheduler.schedule(
                    child, callback_for((None, None, False))))
            if raises:
                raise Boom()

        return callback

    for op in ops:
        kind = op[0]
        if kind in ("at", "in"):
            _, offset, victim, child, raises = op
            action = (victim, child, raises)
            reference.schedule_at(reference.now + offset, action)
            if kind == "at":
                handles.append(scheduler.schedule_at(
                    scheduler.now + offset, callback_for(action)))
            else:
                handles.append(scheduler.schedule(offset, callback_for(action)))
        elif kind == "cancel":
            if op[1] < len(handles):
                handles[op[1]].cancel()
                reference.cancel(op[1])
        elif kind == "step":
            assert _outcome(scheduler.step) == _outcome(reference.step)
        elif kind == "batch":
            assert _outcome(scheduler.step_batch) == _outcome(reference.step_batch)
        else:
            deadline = reference.now + op[1]
            assert _outcome(lambda: scheduler.run_until(deadline)) == \
                _outcome(lambda: reference.run_until(deadline))
        assert fired == reference.fired
        assert scheduler.now == reference.now
        assert len(scheduler) == len(reference.pending)
        assert scheduler.peek_time() == (
            reference.pending[0][0] if reference.pending else None)
