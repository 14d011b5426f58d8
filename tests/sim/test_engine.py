"""Tests for the discrete-event engine and process model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import EventTracer
from repro.sim import AllOf, Engine, HeapEngine, Interrupt, create_engine
from repro.sim.engine import Process

#: Both engines must satisfy every dispatch-contract test below.
ENGINES = [Engine, HeapEngine]


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_runs_in_time_order():
    engine = Engine()
    seen = []
    engine.schedule(30.0, lambda: seen.append("c"))
    engine.schedule(10.0, lambda: seen.append("a"))
    engine.schedule(20.0, lambda: seen.append("b"))
    engine.run()
    assert seen == ["a", "b", "c"]
    assert engine.now == 30.0


def test_same_time_events_run_in_schedule_order():
    engine = Engine()
    seen = []
    for label in "abc":
        engine.schedule(5.0, seen.append, label)
    engine.run()
    assert seen == ["a", "b", "c"]


def test_schedule_in_past_rejected():
    with pytest.raises(ValueError):
        Engine().schedule(-1.0, lambda: None)


def test_run_until_stops_and_advances_clock():
    engine = Engine()
    seen = []
    engine.schedule(10.0, seen.append, "early")
    engine.schedule(100.0, seen.append, "late")
    engine.run(until=50.0)
    assert seen == ["early"]
    assert engine.now == 50.0
    engine.run()
    assert seen == ["early", "late"]


def test_process_delay_advances_clock():
    engine = Engine()
    trace = []

    def worker():
        trace.append(engine.now)
        yield 100.0
        trace.append(engine.now)
        yield 50.0
        trace.append(engine.now)

    engine.process(worker())
    engine.run()
    assert trace == [0.0, 100.0, 150.0]


def test_process_return_value_visible_to_waiter():
    engine = Engine()
    results = []

    def child():
        yield 10.0
        return 42

    def parent():
        value = yield engine.process(child())
        results.append(value)

    engine.process(parent())
    engine.run()
    assert results == [42]


def test_process_wait_on_event_gets_value():
    engine = Engine()
    event = engine.event()
    results = []

    def waiter():
        value = yield event
        results.append((engine.now, value))

    def firer():
        yield 25.0
        event.succeed("payload")

    engine.process(waiter())
    engine.process(firer())
    engine.run()
    assert results == [(25.0, "payload")]


def test_event_cannot_trigger_twice():
    engine = Engine()
    event = engine.event()
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()


def test_all_of_waits_for_every_child():
    engine = Engine()
    events = [engine.timeout(t, value=t) for t in (30.0, 10.0, 20.0)]
    results = []

    def waiter():
        values = yield AllOf(engine, events)
        results.append((engine.now, values))

    engine.process(waiter())
    engine.run()
    assert results == [(30.0, [30.0, 10.0, 20.0])]


def test_all_of_empty_triggers_immediately():
    engine = Engine()
    results = []

    def waiter():
        values = yield AllOf(engine, [])
        results.append((engine.now, values))

    engine.process(waiter())
    engine.run()
    assert results == [(0.0, [])]


def test_interrupt_wakes_process_with_exception():
    engine = Engine()
    trace = []

    def victim():
        try:
            yield 1000.0
            trace.append("not reached")
        except Interrupt as interrupt:
            trace.append(("interrupted", engine.now, interrupt.cause))

    process = engine.process(victim())

    def attacker():
        yield 40.0
        process.interrupt("squash")

    engine.process(attacker())
    engine.run()
    assert trace == [("interrupted", 40.0, "squash")]


def test_interrupted_process_not_resumed_by_stale_event():
    engine = Engine()
    event = engine.event()
    resumed = []

    def victim():
        try:
            yield event
            resumed.append("event")
        except Interrupt:
            yield 5.0
            resumed.append("recovered")

    process = engine.process(victim())

    def driver():
        yield 10.0
        process.interrupt()
        yield 1.0
        event.succeed("late")

    engine.process(driver())
    engine.run()
    assert resumed == ["recovered"]


def test_interrupt_dead_process_is_noop():
    engine = Engine()

    def quick():
        yield 1.0

    process = engine.process(quick())
    engine.run()
    assert not process.is_alive
    process.interrupt()  # must not raise
    engine.run()


def test_uncaught_interrupt_kills_process_quietly():
    engine = Engine()

    def victim():
        yield 1000.0

    process = engine.process(victim())
    engine.schedule(10.0, process.interrupt)
    engine.run()
    assert not process.is_alive


def test_process_error_propagates_to_waiter():
    engine = Engine()
    caught = []

    def broken():
        yield 1.0
        raise RuntimeError("boom")

    def parent():
        try:
            yield engine.process(broken())
        except RuntimeError as error:
            caught.append(str(error))

    engine.process(parent())
    engine.run()
    assert caught == ["boom"]


def test_unwaited_process_error_raises_out_of_run():
    engine = Engine()

    def broken():
        yield 1.0
        raise ValueError("unobserved")

    engine.process(broken())
    with pytest.raises(ValueError, match="unobserved"):
        engine.run()


def test_yield_none_resumes_after_now_events():
    engine = Engine()
    trace = []

    def yielder():
        trace.append("first")
        yield None
        trace.append("third")

    engine.process(yielder())
    engine.schedule(0.0, trace.append, "second")
    engine.run()
    assert trace.index("first") < trace.index("second") < trace.index("third")


def test_yield_bad_type_fails_process():
    engine = Engine()

    def bad():
        yield "not yieldable"

    engine.process(bad())
    with pytest.raises(TypeError):
        engine.run()


def test_peek_reports_next_event_time():
    engine = Engine()
    assert engine.peek() is None
    engine.schedule(12.0, lambda: None)
    assert engine.peek() == 12.0


def test_cancel_skips_callback_without_advancing_clock():
    engine = Engine()
    seen = []
    entry = engine.schedule(50.0, seen.append, "cancelled")
    engine.schedule(10.0, seen.append, "live")
    engine.cancel(entry)
    engine.run()
    assert seen == ["live"]
    assert engine.now == 10.0  # the dead entry must not advance time


def test_cancel_is_idempotent():
    engine = Engine()
    entry = engine.schedule(5.0, lambda: None)
    engine.cancel(entry)
    engine.cancel(entry)  # must not raise or double-count
    engine.run()
    assert engine.now == 0.0


def test_events_processed_counts_only_executed_callbacks():
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    engine.schedule(2.0, lambda: None)
    engine.cancel(engine.schedule(3.0, lambda: None))
    engine.run()
    assert engine.events_processed == 2


def test_peek_skips_cancelled_entries():
    engine = Engine()
    entry = engine.schedule(5.0, lambda: None)
    engine.schedule(20.0, lambda: None)
    engine.cancel(entry)
    assert engine.peek() == 20.0


def test_abandoned_timers_do_not_grow_queue_unboundedly():
    """Regression: a retry storm arms and abandons timers far faster
    than their deadlines pass.  Without compaction every dead entry
    squats in the queue until its (far-future) deadline."""
    engine = Engine()
    for _ in range(10):
        entries = [engine.schedule(1e9, lambda: None) for _ in range(50)]
        for entry in entries:
            engine.cancel(entry)
        # Compaction keeps the queue near its live size (0 here), far
        # below the 500 entries scheduled overall.
        assert sum(map(len, engine._buckets.values())) <= 150


def test_cancelled_sleep_does_not_wake_process():
    engine = Engine()
    trace = []

    def sleeper():
        try:
            yield 100.0
            trace.append("woke")
        except Interrupt:
            trace.append(("interrupted", engine.now))
            yield 7.0
            trace.append(("slept again", engine.now))

    process = engine.process(sleeper())
    engine.schedule(30.0, process.interrupt)
    engine.run()
    # The 100 ns wake-up was cancelled: time never reaches it.
    assert trace == [("interrupted", 30.0), ("slept again", 37.0)]
    assert engine.now == 37.0


@given(st.lists(st.sampled_from([0.0, 1.0, 2.0, 5.0]), min_size=1,
                max_size=60))
@settings(max_examples=100, deadline=None)
def test_heap_tie_break_preserves_schedule_order(delays):
    """Same-time events run in schedule order, regardless of how they
    interleave with other timestamps (the heap entries' unique sequence
    numbers are the only tie-break)."""
    engine = Engine()
    seen = []
    for index, delay in enumerate(delays):
        engine.schedule(delay, seen.append, (delay, index))
    engine.run()
    expected = sorted(((delay, index) for index, delay in enumerate(delays)),
                      key=lambda pair: (pair[0], pair[1]))
    assert seen == expected


def test_nested_generators_compose_with_yield_from():
    engine = Engine()
    trace = []

    def inner():
        yield 10.0
        return "inner-done"

    def outer():
        value = yield from inner()
        trace.append((engine.now, value))

    engine.process(outer())
    engine.run()
    assert trace == [(10.0, "inner-done")]


# -- lifecycle regressions (cancel-after-fire, negative sleeps) --------


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_cancel_after_fire_is_true_noop(engine_cls):
    """Regression: a retry loop arms a timeout, the timeout fires, and
    the loop's cleanup cancels the stale handle afterwards.  The cancel
    must not count the already-fired entry as cancelled — doing so
    underflows the cancellation counter the compaction trigger and the
    run loop's skip accounting rely on."""
    engine = engine_cls()
    fired = []
    for attempt in range(6):
        entry = engine.schedule(1.0, fired.append, attempt)
        engine.run()
        engine.cancel(entry)  # stale: the timer already fired
        engine.cancel(entry)  # idempotent on the husk too
    assert fired == list(range(6))
    assert engine.events_processed == 6
    assert engine._cancelled == 0


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_cancel_after_fire_does_not_skew_compaction(engine_cls):
    """Stale cancels of fired entries must not push the cancelled
    counter past the live-entry count and trigger bogus compactions
    (or, worse, leave the counter negative after the run loop skips
    entries it believes are cancelled)."""
    engine = engine_cls()
    fired = []
    handles = [engine.schedule(1.0, fired.append, n) for n in range(100)]
    engine.run()
    for entry in handles:
        engine.cancel(entry)
    assert engine._cancelled == 0
    assert len(fired) == 100
    # The queues are empty; a fresh schedule/run cycle still works.
    engine.schedule(5.0, fired.append, "after")
    engine.run()
    assert fired[-1] == "after"


class _RecordingTracer:
    """Minimal tracer capturing process lifecycle hooks."""

    capture_schedules = False

    def __init__(self):
        self.events = []

    def engine_schedule(self, now, when, label):
        pass

    def process_start(self, now, name):
        self.events.append(("start", name))

    def process_end(self, now, name, outcome):
        self.events.append(("end", name, outcome))


#: Sleeps that kill the process, on both engines.  The negative sleep
#: keeps the bare engine name as its test id.
_BAD_SLEEPS = [
    pytest.param(engine_cls, delay, message, id=engine_cls.__name__ + suffix)
    for delay, message, suffix in ((-3.0, "negative delay: -3.0", ""),
                                   (float("nan"), "NaN delay: nan", "-nan"))
    for engine_cls in ENGINES]


@pytest.mark.parametrize("engine_cls, delay, message", _BAD_SLEEPS)
def test_negative_sleep_dies_with_consistent_bookkeeping(engine_cls, delay,
                                                         message):
    """A negative or NaN sleep must kill the process through the normal
    ``_finish`` path: ``is_alive`` drops, the live-process count drops,
    the tracer sees ``process_end``, and (with nobody waiting) the
    ValueError still raises out of ``run``."""
    engine = engine_cls()
    tracer = _RecordingTracer()
    engine.tracer = tracer

    def bad_sleeper():
        yield 5.0
        yield delay

    process = engine.process(bad_sleeper(), name="bad")
    with pytest.raises(ValueError) as raised:
        engine.run()
    assert str(raised.value) == message
    assert not process.is_alive
    assert engine._active == 0
    assert ("end", "bad", "ValueError") in tracer.events


@pytest.mark.parametrize("engine_cls, delay, message", _BAD_SLEEPS)
def test_negative_sleep_error_routes_to_waiter(engine_cls, delay, message):
    """With a waiter attached the negative-sleep death is an ordinary
    process failure: delivered to the waiter, not raised out of run."""
    engine = engine_cls()
    caught = []

    def bad():
        yield delay

    def parent():
        try:
            yield engine.process(bad())
        except ValueError as error:
            caught.append(str(error))

    engine.process(parent())
    engine.run()
    assert caught == [message]
    assert engine._active == 0


def test_create_engine_honors_env_knob(monkeypatch):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    assert type(create_engine()) is Engine
    monkeypatch.setenv("REPRO_ENGINE", "heap")
    assert type(create_engine()) is HeapEngine
    monkeypatch.setenv("REPRO_ENGINE", "reference")
    assert type(create_engine()) is HeapEngine
    monkeypatch.setenv("REPRO_ENGINE", "unknown")
    assert type(create_engine()) is Engine


@pytest.mark.parametrize("engine_cls", ENGINES)
def test_schedule_rejects_nan_delay(engine_cls):
    engine = engine_cls()
    with pytest.raises(ValueError, match="delay=nan"):
        engine.schedule(float("nan"), lambda: None)
    assert engine.peek() is None
    assert engine.run() == 0.0


def test_infinite_sleep_parks_the_process_identically():
    """An ``inf`` sleep is queued, never fires inside ``run(until)``,
    and leaves the process alive until something interrupts it."""

    def park(engine_cls):
        engine = engine_cls()
        trace = []

        def sleeper():
            try:
                yield float("inf")
            except Interrupt as interrupt:
                trace.append(("interrupted", engine.now, interrupt.cause))
            yield 5.0
            trace.append(("woke", engine.now))

        process = engine.process(sleeper())
        engine.run(until=1e12)
        parked = (process.is_alive, engine._active, engine.now,
                  engine.peek(), engine.events_processed)
        process.interrupt("wake up")
        engine.run()
        return parked, trace, process.is_alive, engine.now, \
            engine.events_processed

    expected = ((True, 1, 1e12, float("inf"), 1),
                [("interrupted", 1e12, "wake up"), ("woke", 1e12 + 5.0)],
                False, 1e12 + 5.0, 4)
    assert park(Engine) == expected
    assert park(HeapEngine) == expected


# -- one dispatch per lone sleep ---------------------------------------


def _spy_on_wake_posts(monkeypatch):
    """Count the default engine's posts of ``Process._sleep_wake``: the
    returned list gets the clock reading of each one."""
    posts = []
    post = Engine.post

    def spy(engine, callback, *args):
        if getattr(callback, "__func__", None) is Process._sleep_wake:
            posts.append(engine.now)
        return post(engine, callback, *args)

    monkeypatch.setattr(Engine, "post", spy)
    return posts


def _sleepers(engine_cls, capture_schedules, shared_instant):
    """Run one process sleeping 10, 5 and 0 ns; with ``shared_instant``
    an entry created after the first sleep's fire entry is due at the
    same instant.  Returns the wake log and ``events_processed``."""
    engine = engine_cls()
    if capture_schedules:
        engine.tracer = EventTracer(capture_schedules=True)
    log = []

    def sleeper():
        for delay in (10.0, 5.0, 0.0):
            yield delay
            log.append(("woke", engine.now))

    engine.process(sleeper())
    if shared_instant:
        engine.schedule(5.0, lambda: engine.schedule(
            5.0, log.append, ("shared", engine.now)))
    engine.run()
    return log, engine.events_processed


@pytest.mark.parametrize("capture_schedules, shared_instant, wake_posts", [
    (False, False, []),
    (False, True, [10.0]),
    (True, False, [10.0, 15.0, 15.0]),
    (True, True, [10.0, 15.0, 15.0]),
], ids=["alone", "shared", "capturing", "capturing-shared"])
def test_sleep_takes_one_dispatch_only_when_alone_and_uncaptured(
        monkeypatch, capture_schedules, shared_instant, wake_posts):
    """A sleep whose fire entry is the last of its instant resumes in
    one dispatch; one that shares its instant with a later entry, or
    runs under a tracer that captures schedules, posts its wake.  The
    event count is the reference heap's either way."""
    posts = _spy_on_wake_posts(monkeypatch)
    observed = _sleepers(Engine, capture_schedules, shared_instant)
    assert posts == wake_posts
    assert observed == _sleepers(HeapEngine, capture_schedules,
                                 shared_instant)


_NOT_THE_MARKER = [None, 0, 0.0, False, "", (), object()]


@pytest.mark.parametrize("capture_schedules", [False, True],
                         ids=["bare", "capturing"])
@pytest.mark.parametrize("first", _NOT_THE_MARKER,
                         ids=lambda value: type(value).__name__)
@pytest.mark.parametrize("kind", ["callback", "timeout"])
def test_entry_with_other_first_argument_is_never_taken_for_a_sleep(
        kind, first, capture_schedules):
    """An entry due at a sleep's instant and last in its list runs as
    itself whatever its first argument is, unless that argument is the
    engine's own sleep marker: a plain callback, and a ``Timeout`` whose
    ``_fire`` gets its value (``None`` by default)."""

    def scenario(engine_cls):
        engine = engine_cls()
        if capture_schedules:
            engine.tracer = EventTracer(capture_schedules=True)
        log = []

        def sleeper():
            yield 10.0
            log.append(("woke", engine.now))

        def at_five():
            # Created after the sleep's fire entry, due at its instant.
            if kind == "callback":
                engine.schedule(5.0, log.append, first)
            else:
                engine.timeout(5.0, first).add_callback(
                    lambda event: log.append(("fired", event.value)))

        engine.process(sleeper())
        engine.schedule(5.0, at_five)
        engine.run()
        return log, engine.events_processed

    log, events = scenario(Engine)
    assert (log, events) == scenario(HeapEngine)
    if kind == "callback":
        assert log == [first, ("woke", 10.0)]
    else:  # the timeout's waiter is posted behind the sleep's wake
        assert log == [("woke", 10.0), ("fired", first)]


# -- the default engine vs. the reference heap -------------------------

#: Delays chosen to straddle a slot wheel's boundaries (zero, within one
#: 64 ns slot, on slot edges, several slots out, just past a 65,536 ns
#: horizon, far beyond), plus equal instants reached by different float
#: sums (0.1 + 0.2 == 0.30000000000000004) and an infinite delay.
_DELAYS = st.sampled_from([0.0, 1.0, 3.5, 63.0, 64.0, 65.0, 128.0,
                           1000.0, 65_535.0, 65_600.0, 1e9,
                           0.1, 0.2, 0.30000000000000004, float("inf")])

_OPS = st.one_of(
    st.tuples(st.just("schedule"), _DELAYS),
    st.tuples(st.just("storm"), _DELAYS, st.integers(2, 5)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("late_cancel"), _DELAYS, st.integers(0, 40)),
    st.tuples(st.just("process"), st.lists(_DELAYS, min_size=1,
                                           max_size=4)),
    st.tuples(st.just("interrupt"), st.integers(0, 10), _DELAYS),
    st.tuples(st.just("dead_instant"), _DELAYS, st.integers(1, 3)),
    st.tuples(st.just("chain"), _DELAYS, _DELAYS),
    st.tuples(st.just("spawn"), _DELAYS),
    st.tuples(st.just("cancel_storm"), _DELAYS, st.integers(65, 90),
              _DELAYS),
    st.tuples(st.just("raise"), _DELAYS),
)


class _Boom(Exception):
    """Raised by a scripted callback; the script runs on after it."""


def _run_script(engine_cls, ops, until, tracer=None):
    """Interpret one generated scenario on ``engine_cls``, first up to
    ``until`` and then to the end; return the observable record."""
    engine = engine_cls()
    engine.tracer = tracer
    log = []
    handles = []
    processes = []

    def note(*label):
        log.append(label + (engine.now,))

    def sleeper(pid, delays):
        for delay in delays:
            try:
                yield delay
                note("woke", pid)
            except Interrupt:
                note("interrupted", pid)
        return pid

    def late_cancel(which):
        if handles:
            engine.cancel(handles[which % len(handles)])

    def chain(index, delay):
        # Equal instants reached by a sum, and work posted or scheduled
        # with delay 0 at the current instant.
        note("chain", index)
        handles.append(engine.schedule(delay, note, "chained", index))
        handles.append(engine.post(note, "posted", index))
        handles.append(engine.schedule(0.0, note, "zero", index))

    def spawn(index):
        note("spawn", index)
        processes.append(engine.process(sleeper(index, [0.0, 1.0])))

    def cancel_storm(index, count, delay):
        # Enough cancels to compact while this instant is dispatched;
        # every fourth entry survives, here and in the future.
        made = []
        for burst in range(count):
            if burst % 2:
                made.append(engine.post(note, "storm_now", index, burst))
            else:
                made.append(engine.schedule(delay, note, "storm_later",
                                            index, burst))
        for burst, entry in enumerate(made):
            if burst % 4:
                engine.cancel(entry)
        handles.extend(made)

    def boom(index):
        note("boom", index)
        raise _Boom(index)

    for index, op in enumerate(ops):
        kind = op[0]
        if kind == "schedule":
            handles.append(engine.schedule(op[1], note, "cb", index))
        elif kind == "storm":
            for burst in range(op[2]):
                handles.append(engine.schedule(op[1], note, "storm",
                                               index, burst))
        elif kind == "cancel":
            if handles:
                engine.cancel(handles[op[1] % len(handles)])
        elif kind == "late_cancel":
            engine.schedule(op[1], late_cancel, op[2])
        elif kind == "process":
            processes.append(engine.process(sleeper(index, op[1])))
        elif kind == "interrupt":
            if processes:
                target = processes[op[1] % len(processes)]
                engine.schedule(op[2], target.interrupt)
        elif kind == "dead_instant":
            for _ in range(op[2]):
                engine.cancel(engine.schedule(op[1], note, "dead", index))
        elif kind == "chain":
            engine.schedule(op[1], chain, index, op[2])
        elif kind == "spawn":
            engine.schedule(op[1], spawn, index)
        elif kind == "cancel_storm":
            engine.schedule(op[1], cancel_storm, index, op[2], op[3])
        elif kind == "raise":
            engine.schedule(op[1], boom, index)
    for limit in (until, None):
        while True:
            try:
                engine.run(limit)
                break
            except _Boom:
                note("raised")
        log.append(("stopped", engine.now, engine.peek()))
    return log, engine.events_processed


@given(st.lists(_OPS, min_size=1, max_size=40),
       st.sampled_from([0.0, 1.0, 64.0, 0.30000000000000004, 1e9]))
@settings(max_examples=150, deadline=None)
def test_engine_matches_reference_heap(ops, until):
    """The default engine and the reference heap must produce the
    identical dispatch order, clock readings and event count for any
    mix of schedules, same-timestamp storms, cancels (including cancels
    issued mid-run, cancels of already-fired entries, instants whose
    every entry is cancelled and cancel storms that compact the queue
    mid-instant), processes whose sleeps are and are not the last entry
    at their instant, interrupts, work created at the current instant,
    infinite delays, and callbacks that raise out of ``run``.  With a
    tracer that captures schedules attached, the default engine takes
    both hops of every sleep, so the tracers' records match as well."""
    expected = _run_script(HeapEngine, ops, until)
    assert _run_script(Engine, ops, until) == expected
    tracers = [EventTracer(capture_schedules=True) for _ in range(2)]
    assert _run_script(Engine, ops, until, tracers[0]) == expected
    _run_script(HeapEngine, ops, until, tracers[1])
    assert tracers[0].events == tracers[1].events
