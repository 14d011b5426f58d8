"""The discrete-event simulation engine.

:class:`Engine` owns the simulated clock (a float, in nanoseconds) and
the queue of scheduled callbacks.  :class:`Process` wraps a Python
generator into a schedulable process: the generator yields what it waits
for and the engine resumes it when that thing happens.

Yieldable values inside a process generator:

* ``float`` / ``int`` — sleep for that many nanoseconds.  ``inf`` parks
  the process until it is interrupted; a negative or NaN delay kills it.
* :class:`~repro.sim.events.Event` (including :class:`Process`) — wait
  until it triggers; the ``yield`` expression evaluates to the event's
  value.
* ``None`` — yield the CPU for zero time (resume immediately, after any
  events already scheduled for *now*).

A process may be :meth:`interrupted <Process.interrupt>`: an
:class:`~repro.sim.events.Interrupt` is thrown into its generator at the
current wait point.  Generators can catch it (transaction restart) or let
it unwind (process death).

The queue is time-bucketed: a heap of the distinct pending timestamps
(bare floats) plus a dict from each timestamp to its entries in creation
order.  Entries run in ``(when, creation order)`` order, the order of a
single heap tie-broken by a global sequence number, without keeping the
number.  Entries are mutable lists so a scheduled callback can be
cancelled lazily: :meth:`Engine.cancel` nulls the callback in place and
the run loop skips the husk when it comes up, instead of paying an O(n)
removal.  The run loop also nulls the callback at dispatch time, so
cancelling an entry that has *already fired* is a true no-op — it
neither counts as a cancel nor skews the compaction trigger.  Dead
entries are compacted away once cancels pile up (retry storms arm and
abandon timers far faster than their deadlines pass).

A sleep takes two hops: its fire entry runs at the deadline and posts a
wake behind whatever else is due then.  :class:`Engine` resumes the
process at the first hop, counting both, when the fire entry is the last
entry of its instant and no tracer captures schedules.

Two interchangeable engines implement the same dispatch contract:

* :class:`Engine` — the default, described above (see
  docs/PERFORMANCE.md).
* :class:`HeapEngine` — the reference pure-heap implementation, kept as
  the equivalence baseline and selectable with ``REPRO_ENGINE=heap``.
  It always takes both hops of a sleep.

:func:`create_engine` picks between them from the environment.
"""

from __future__ import annotations

import heapq
import itertools
import os
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.sim.events import CompletionEvent, Event, Interrupt, Timeout

ProcessGenerator = Generator[Any, Any, Any]

#: A scheduled-callback entry: ``[callback, args]`` on :class:`Engine`,
#: ``[when, seq, callback, args]`` on :class:`HeapEngine`.  Only the
#: engine that made an entry may cancel it.
ScheduledEntry = List[Any]

#: A compaction waits for more cancels than this, however small the
#: queue (see :meth:`Engine._compact`).
_COMPACT_MIN_CANCELLED = 64

#: First argument of every sleep's fire entry: the cue on which
#: :meth:`Engine.run` may resume a sleeping process in one dispatch.
_SLEEP = object()


class Engine:
    """Deterministic event loop with a nanosecond clock.

    Pending entries live in one time-bucketed queue:

    * ``_times`` — a heap of the distinct pending timestamps, as bare
      floats, so a heap sift compares floats instead of entries;
    * ``_buckets`` — each pending timestamp's entries in creation
      order.  Within one timestamp, creation order *is* the order of a
      global sequence number, so dispatch needs no counter, and a
      :meth:`post` at the current instant appends to the very list the
      run loop is walking.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._active = 0  # number of live processes (for run-until-idle)
        #: Cancels since the last compaction, and how many more than
        #: that start the next one (see :meth:`_compact`).
        self._cancelled = 0
        self._compact_at = _COMPACT_MIN_CANCELLED
        #: Callbacks executed so far (skipped cancellations excluded) —
        #: the simulator's own cost, pinned exactly per scenario by
        #: tests/test_golden_counters.py.  A sleep resumed in one
        #: dispatch counts as its two hops.
        self.events_processed = 0
        #: The process currently executing, if any — lets library code
        #: running inside a process discover its own Process handle
        #: (used to register transactions for squash interrupts).
        self.current_process: Optional["Process"] = None
        #: Optional :class:`~repro.obs.tracer.EventTracer`; None (the
        #: default) keeps every hook to a single attribute check.
        self.tracer = None
        self._times: List[float] = []
        self._buckets: Dict[float, list] = {}

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, callback: Callable,
                 *args: Any) -> ScheduledEntry:
        """Run ``callback(*args)`` ``delay`` nanoseconds from now.

        Returns the entry, which can be passed to :meth:`cancel`.  An
        infinite delay is queued and never fires inside ``run(until)``.
        """
        if not delay >= 0:
            raise ValueError(
                f"cannot schedule in the past or at NaN: delay={delay}")
        tracer = self.tracer
        now = self.now
        when = now + delay
        if tracer is not None and tracer.capture_schedules:
            tracer.engine_schedule(now, when,
                                   getattr(callback, "__qualname__",
                                           repr(callback)))
        entry = [callback, args]
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [entry]
            heapq.heappush(self._times, when)
        else:
            bucket.append(entry)
        return entry

    def post(self, callback: Callable, *args: Any) -> ScheduledEntry:
        """Schedule ``callback(*args)`` at the current timestamp.

        Semantically identical to ``schedule(0.0, ...)`` — same dispatch
        order — but skips the delay bookkeeping.  This is the zero-delay
        fast path used by process resumes and event callbacks.
        """
        tracer = self.tracer
        now = self.now
        if tracer is not None and tracer.capture_schedules:
            tracer.engine_schedule(now, now,
                                   getattr(callback, "__qualname__",
                                           repr(callback)))
        entry = [callback, args]
        bucket = self._buckets.get(now)
        if bucket is None:
            self._buckets[now] = [entry]
            heapq.heappush(self._times, now)
        else:
            bucket.append(entry)
        return entry

    def cancel(self, entry: ScheduledEntry) -> None:
        """Lazily cancel a scheduled entry.

        No-op if the entry was already cancelled *or already fired*: the
        run loop nulls the callback at dispatch time, so a stale cancel
        from a retry loop does not count towards compaction.
        """
        if entry[0] is None:
            return
        entry[0] = None
        entry[1] = ()
        self._cancelled += 1
        if self._cancelled > self._compact_at:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled husks from every bucket but the current one.

        The bucket at the current instant is the one the run loop may be
        walking, so it is left as it is; its husks are skipped within
        the instant anyway.  The next compaction waits for more cancels
        than half the entries left here (and at least
        ``_COMPACT_MIN_CANCELLED``), so the work stays proportional to
        the schedules and cancels that came in between.
        """
        buckets = self._buckets
        current = buckets.get(self.now)
        left = 0
        for when, bucket in list(buckets.items()):
            if bucket is not current:
                bucket = [entry for entry in bucket if entry[0] is not None]
                if bucket:
                    buckets[when] = bucket
                else:
                    del buckets[when]
            left += len(bucket)
        self._times[:] = buckets
        heapq.heapify(self._times)
        self._cancelled = 0
        self._compact_at = max(_COMPACT_MIN_CANCELLED, left // 2)

    # -- factories -----------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` ns from now."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def process(self, generator: ProcessGenerator, name: str = "") -> "Process":
        """Start ``generator`` as a new process, beginning at the current time."""
        return Process(self, generator, name=name)

    # -- the run loop --------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Execute events until the queue drains or the clock passes ``until``.

        Returns the final simulation time.  With ``until`` set, the clock
        is advanced exactly to ``until`` even if the last event fired
        earlier, so throughput denominators are well defined.

        Each instant's list is walked in creation order, including what
        its own callbacks append; the clock moves to an instant only
        when one of its entries runs.  If a callback raises, its
        instant's list stays queued with every entry run so far nulled,
        so the next ``run()`` skips those and dispatches the rest.
        ``events_processed`` is incremented per dispatched event (not
        batched at loop exit) so in-simulation observers — the telemetry
        sampler — read a live count.  A lone sleep resumes at its first
        hop (module docstring); the test reads the raw entry, so a
        wrapped callback always takes both hops.
        """
        times = self._times
        buckets = self._buckets
        heappop = heapq.heappop
        sleep = _SLEEP
        while times:
            when = times[0]
            if until is not None and when > until:
                break
            bucket = buckets[when]
            for entry in bucket:
                callback = entry[0]
                if callback is None:
                    continue  # cancelled, or run before a callback raised
                entry[0] = None
                self.now = when
                args = entry[1]
                if (args and args[0] is sleep and entry is bucket[-1]
                        and (self.tracer is None
                             or not self.tracer.capture_schedules)):
                    self.events_processed += 2
                    process = callback.__self__
                    process._sleep_entry = None
                    process._resume(None, None)
                else:
                    self.events_processed += 1
                    callback(*args)
            heappop(times)
            del buckets[when]
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if none is pending."""
        return min((when for when, bucket in self._buckets.items()
                    if any(entry[0] is not None for entry in bucket)),
                   default=None)


class HeapEngine(Engine):
    """Reference pure-heap engine (``REPRO_ENGINE=heap``).

    One binary heap of ``[when, seq, callback, args]`` entries, one pop
    per event.  Kept as the equivalence baseline for :class:`Engine` —
    the two must produce bit-identical dispatch orders for the same
    seed — and as the conservative fallback.  Shares the dispatch-time
    entry nulling, so post-fire :meth:`cancel` is a no-op here too;
    ``_cancelled`` counts the husks still queued.
    """

    def __init__(self) -> None:
        super().__init__()
        self._queue: list = []
        self._sequence = itertools.count()

    def schedule(self, delay: float, callback: Callable,
                 *args: Any) -> ScheduledEntry:
        if not delay >= 0:
            raise ValueError(
                f"cannot schedule in the past or at NaN: delay={delay}")
        tracer = self.tracer
        if tracer is not None and tracer.capture_schedules:
            tracer.engine_schedule(self.now, self.now + delay,
                                   getattr(callback, "__qualname__",
                                           repr(callback)))
        entry = [self.now + delay, next(self._sequence), callback, args]
        heapq.heappush(self._queue, entry)
        return entry

    def post(self, callback: Callable, *args: Any) -> ScheduledEntry:
        return self.schedule(0.0, callback, *args)

    def cancel(self, entry: ScheduledEntry) -> None:
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = ()
        self._cancelled += 1
        queue = self._queue
        if (self._cancelled > _COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(queue)):
            # In-place so run()'s local binding sees the compacted list.
            queue[:] = [e for e in queue if e[2] is not None]
            heapq.heapify(queue)
            self._cancelled = 0

    def run(self, until: Optional[float] = None) -> float:
        queue = self._queue
        pop = heapq.heappop
        while queue:
            entry = queue[0]
            if until is not None and entry[0] > until:
                break
            pop(queue)
            callback = entry[2]
            if callback is None:
                self._cancelled -= 1
                continue
            self.now = entry[0]
            self.events_processed += 1
            entry[2] = None
            callback(*entry[3])
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def peek(self) -> Optional[float]:
        queue = self._queue
        while queue and queue[0][2] is None:
            heapq.heappop(queue)
            self._cancelled -= 1
        return queue[0][0] if queue else None


def create_engine() -> Engine:
    """Build the engine selected by the ``REPRO_ENGINE`` environment knob.

    ``heap`` (or ``reference``) selects :class:`HeapEngine`; anything
    else — including unset — selects the default :class:`Engine`.
    The two are dispatch-order equivalent (CI byte-compares pinned
    runs), so the knob is a performance/bisection fallback, not a
    semantic switch.
    """
    choice = os.environ.get("REPRO_ENGINE", "").strip().lower()
    if choice in ("heap", "reference"):
        return HeapEngine()
    return Engine()


class Process(CompletionEvent):
    """A running generator-based process.

    A ``Process`` is itself an event that triggers when the generator
    returns (value = generator return value) or dies with an exception.
    """

    def __init__(self, engine: Engine, generator: ProcessGenerator, name: str = ""):
        super().__init__(engine)
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        self._sleep_entry: Optional[ScheduledEntry] = None
        self._alive = True
        engine._active += 1
        if engine.tracer is not None:
            engine.tracer.process_start(engine.now, self.name)
        engine.post(self._resume, None, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        No-op on a dead process.  If the process is waiting on an event,
        it is removed from that event's waiters first, so the event's
        later trigger does not resume it a second time.  A pending sleep
        is cancelled outright — its wake-up must not race the interrupt.
        """
        if not self._alive:
            return
        if self._waiting_on is not None:
            self._waiting_on.remove_callback(self._on_event)
            self._waiting_on = None
        elif self._sleep_entry is not None:
            self.engine.cancel(self._sleep_entry)
            self._sleep_entry = None
        self.engine.post(self._resume, None, Interrupt(cause))

    # -- internals ---------------------------------------------------

    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            # Stale wake: the process was interrupted after this event
            # already captured its callbacks (same-timestamp race) and
            # has moved on to a different wait — or none at all.
            # Delivering the stale value to the wrong yield point would
            # corrupt the generator's control flow.
            return
        self._waiting_on = None
        exception = event.exception
        if exception is not None:
            self._resume(None, exception)
        else:
            self._resume(event.value, None)

    def _resume(self, value: Any, exception: Optional[BaseException]) -> None:
        if not self._alive:
            return
        engine = self.engine
        previous = engine.current_process
        engine.current_process = self
        try:
            if exception is not None:
                yielded = self._generator.throw(exception)
            else:
                yielded = self._generator.send(value)
        except StopIteration as stop:
            self._finish(stop.value, None)
            return
        except Interrupt as interrupt:
            # An uncaught interrupt kills the process quietly: this is
            # the normal fate of a squashed helper process.
            self._finish(None, interrupt)
            return
        except BaseException as error:  # noqa: BLE001 - route to waiters
            self._finish(None, error)
            return
        finally:
            engine.current_process = previous
        # Wait for what the generator yielded.
        if type(yielded) is float:
            delay = yielded
        elif yielded is None:
            engine.post(self._resume, None, None)
            return
        elif isinstance(yielded, Event):
            self._waiting_on = yielded
            yielded.add_callback(self._on_event)
            return
        elif isinstance(yielded, (int, float)):
            delay = float(yielded)
        else:
            error = TypeError(f"process {self.name!r} yielded {yielded!r}")
            self._finish(None, error)
            return
        if delay >= 0:
            # Sleep fast path: two scheduler hops (fire at the deadline,
            # then a wake posted behind whatever else is due then)
            # mirror the historical Timeout-event path exactly — same
            # callback count, same ordering against same-timestamp
            # events — without allocating an Event or registering
            # callbacks.
            self._sleep_entry = engine.schedule(delay, self._sleep_fire,
                                                _SLEEP)
        else:
            # Route through _finish like any other bad yield, so the
            # process dies with consistent bookkeeping (_alive, _active,
            # tracer process_end) instead of unwinding the run loop with
            # a half-dead process left behind.
            kind = "negative" if delay < 0 else "NaN"
            self._finish(None, ValueError(f"{kind} delay: {delay}"))

    def _sleep_fire(self, _sleep: object) -> None:
        # First hop reached the deadline; the second hop orders the
        # actual resume after any events already scheduled for now.
        self._sleep_entry = self.engine.post(self._sleep_wake)

    def _sleep_wake(self) -> None:
        self._sleep_entry = None
        self._resume(None, None)

    def _finish(self, value: Any, exception: Optional[BaseException]) -> None:
        self._alive = False
        self.engine._active -= 1
        if self.engine.tracer is not None:
            if exception is None:
                outcome = "returned"
            elif isinstance(exception, Interrupt):
                outcome = "interrupted"
            else:
                outcome = type(exception).__name__
            self.engine.tracer.process_end(self.engine.now, self.name, outcome)
        if exception is not None and not isinstance(exception, Interrupt):
            had_waiters = bool(self._callbacks)
            self.fail(exception)
            # A real error should not pass silently: re-raise out of the
            # event loop unless somebody is waiting for this process.
            if not had_waiters:
                raise exception
        else:
            self.exception = exception
            if not self.triggered:
                self.succeed(value)
