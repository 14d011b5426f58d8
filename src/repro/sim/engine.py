"""The discrete-event simulation engine.

:class:`Engine` owns the simulated clock (a float, in nanoseconds) and
the scheduled-callback queues.  :class:`Process` wraps a Python
generator into a schedulable process: the generator yields what it waits
for and the engine resumes it when that thing happens.

Yieldable values inside a process generator:

* ``float`` / ``int`` — sleep for that many nanoseconds.
* :class:`~repro.sim.events.Event` (including :class:`Process`) — wait
  until it triggers; the ``yield`` expression evaluates to the event's
  value.
* ``None`` — yield the CPU for zero time (resume immediately, after any
  events already scheduled for *now*).

A process may be :meth:`interrupted <Process.interrupt>`: an
:class:`~repro.sim.events.Interrupt` is thrown into its generator at the
current wait point.  Generators can catch it (transaction restart) or let
it unwind (process death).

Scheduled entries are mutable ``[when, seq, callback, args]`` lists so a
scheduled callback can be cancelled lazily: :meth:`Engine.cancel` nulls
the callback in place and the run loop skips the husk when it surfaces,
instead of paying an O(n) removal.  The run loop also nulls the callback
at dispatch time, so cancelling an entry that has *already fired* is a
true no-op — it neither corrupts the cancellation counter nor skews the
compaction trigger.  Dead entries are compacted away if they ever
dominate the queues (retry storms arm and abandon timers far faster than
their deadlines pass).

Two interchangeable engines implement the same dispatch contract:

* :class:`Engine` — the default.  A slot-based timer wheel in front of a
  far-future heap, plus a same-timestamp batching run loop (see
  docs/PERFORMANCE.md).  Entries are dispatched in exact ``(when, seq)``
  order, bit-identical to the reference heap.
* :class:`HeapEngine` — the reference pure-heap implementation, kept as
  the equivalence baseline and selectable with ``REPRO_ENGINE=heap``.

:func:`create_engine` picks between them from the environment.
"""

from __future__ import annotations

import heapq
import itertools
import os
from collections import deque
from typing import Any, Callable, Generator, List, Optional

from repro.sim.events import CompletionEvent, Event, Interrupt, Timeout

ProcessGenerator = Generator[Any, Any, Any]

#: A scheduled-callback entry: ``[when, seq, callback, args]``.
#: ``seq`` is unique per entry, so ordering comparisons never reach the
#: callback field and cancellation can mutate it freely.
ScheduledEntry = List[Any]

#: Compaction threshold: rebuild the queues once more than this many
#: cancelled entries accumulate *and* they outnumber live ones.
_COMPACT_MIN_CANCELLED = 64

#: Timer-wheel slot width in simulated nanoseconds.  A power of two so
#: ``when / _SLOT_NS`` only rescales the float exponent: the slot index
#: ``int(when / _SLOT_NS)`` is then exactly monotone in ``when``, which
#: the wheel's correctness argument relies on (docs/PERFORMANCE.md).
_SLOT_NS = 64.0

#: Number of wheel slots.  Deadlines beyond ``_SLOT_COUNT`` slots from
#: the active slot fall back to the far-future heap.
_SLOT_COUNT = 1024
_SLOT_MASK = _SLOT_COUNT - 1


class Engine:
    """Deterministic event loop with a nanosecond clock.

    Internally a three-lane scheduler; all lanes drain in global
    ``(when, seq)`` order, so the dispatch sequence is bit-identical to
    a single heap:

    * ``_now`` — FIFO of entries due exactly at the current timestamp.
      Zero-delay work (process resumes, event callbacks, sleep second
      hops) lands here and is drained in append order, which *is*
      ``seq`` order because the sequence counter is globally monotonic.
    * ``_ready`` / ``_wheel`` — a slot-based timer wheel for short
      deadlines.  ``_ready`` is a small heap holding entries of every
      slot at or before the active one; future slots hold unsorted
      buckets that are heapified wholesale when the clock reaches them.
    * ``_queue`` — heap fallback for deadlines beyond the wheel horizon
      (named for compatibility with the reference engine).
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._sequence = itertools.count()
        self._active = 0  # number of live processes (for run-until-idle)
        self._cancelled = 0  # dead entries still sitting in the lanes
        #: Callbacks executed so far (skipped cancellations excluded) —
        #: the simulator's own cost, pinned exactly per scenario by
        #: tests/test_golden_counters.py.
        self.events_processed = 0
        #: The process currently executing, if any — lets library code
        #: running inside a process discover its own Process handle
        #: (used to register transactions for squash interrupts).
        self.current_process: Optional["Process"] = None
        #: Optional :class:`~repro.obs.tracer.EventTracer`; None (the
        #: default) keeps every hook to a single attribute check.
        self.tracer = None
        # -- scheduling lanes ----------------------------------------
        self._now: deque = deque()
        self._ready: list = []
        self._wheel: List[list] = [[] for _ in range(_SLOT_COUNT)]
        self._wheel_len = 0
        #: Absolute slot index of the earliest non-empty wheel bucket,
        #: or None when the wheel is empty.
        self._next_slot: Optional[int] = None
        #: Absolute slot index the clock has reached; buckets at or
        #: before it have been activated into ``_ready``.
        self._active_slot = 0
        #: Far-future heap fallback.
        self._queue: list = []

    # -- scheduling ----------------------------------------------------

    def schedule(self, delay: float, callback: Callable,
                 *args: Any) -> ScheduledEntry:
        """Run ``callback(*args)`` ``delay`` nanoseconds from now.

        Returns the entry, which can be passed to :meth:`cancel`.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
        tracer = self.tracer
        now = self.now
        when = now + delay
        if tracer is not None and tracer.capture_schedules:
            tracer.engine_schedule(now, when,
                                   getattr(callback, "__qualname__",
                                           repr(callback)))
        entry = [when, next(self._sequence), callback, args]
        if when == now:
            self._now.append(entry)
            return entry
        slot = int(when / _SLOT_NS)
        active = self._active_slot
        if slot <= active:
            heapq.heappush(self._ready, entry)
        elif slot - active < _SLOT_COUNT:
            self._wheel[slot & _SLOT_MASK].append(entry)
            self._wheel_len += 1
            next_slot = self._next_slot
            if next_slot is None or slot < next_slot:
                self._next_slot = slot
        else:
            heapq.heappush(self._queue, entry)
        return entry

    def post(self, callback: Callable, *args: Any) -> ScheduledEntry:
        """Schedule ``callback(*args)`` at the current timestamp.

        Semantically identical to ``schedule(0.0, ...)`` — one sequence
        number, same dispatch order — but skips the delay bookkeeping.
        This is the zero-delay fast path used by process resumes and
        event callbacks.
        """
        tracer = self.tracer
        if tracer is not None and tracer.capture_schedules:
            tracer.engine_schedule(self.now, self.now,
                                   getattr(callback, "__qualname__",
                                           repr(callback)))
        entry = [self.now, next(self._sequence), callback, args]
        self._now.append(entry)
        return entry

    def cancel(self, entry: ScheduledEntry) -> None:
        """Lazily cancel a scheduled entry.

        No-op if the entry was already cancelled *or already fired*: the
        run loop nulls the callback at dispatch time, so a stale cancel
        from a retry loop cannot inflate ``_cancelled`` for a husk that
        is no longer queued.
        """
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = ()
        self._cancelled += 1
        if (self._cancelled > _COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > (len(self._queue) + len(self._ready)
                                           + len(self._now)
                                           + self._wheel_len)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled husks from every lane (in place)."""
        live = [e for e in self._now if e[2] is not None]
        self._now.clear()
        self._now.extend(live)
        self._ready[:] = [e for e in self._ready if e[2] is not None]
        heapq.heapify(self._ready)
        self._queue[:] = [e for e in self._queue if e[2] is not None]
        heapq.heapify(self._queue)
        if self._wheel_len:
            wheel = self._wheel
            total = 0
            for index, bucket in enumerate(wheel):
                if bucket:
                    kept = [e for e in bucket if e[2] is not None]
                    if len(kept) != len(bucket):
                        wheel[index] = kept
                    total += len(kept)
            self._wheel_len = total
            self._scan_next_slot()
        self._cancelled = 0

    def _scan_next_slot(self) -> None:
        """Recompute the earliest non-empty wheel slot."""
        if self._wheel_len:
            wheel = self._wheel
            slot = self._active_slot
            while True:
                slot += 1
                if wheel[slot & _SLOT_MASK]:
                    self._next_slot = slot
                    return
        self._next_slot = None

    def _catch_up(self, target_slot: int) -> None:
        """Advance the active slot, sweeping skipped buckets to ready.

        Used when ``run(until)`` force-advances the clock past event
        times: buckets whose window the clock has entered may still hold
        future entries, which must migrate to ``_ready`` before the
        insertion-path slot comparisons can treat the slot as reached.
        """
        if self._wheel_len:
            wheel = self._wheel
            moved = False
            slot = self._active_slot
            end = min(target_slot, slot + _SLOT_COUNT)
            while slot < end:
                slot += 1
                bucket = wheel[slot & _SLOT_MASK]
                if bucket:
                    wheel[slot & _SLOT_MASK] = []
                    self._wheel_len -= len(bucket)
                    self._ready.extend(bucket)
                    moved = True
            if moved:
                heapq.heapify(self._ready)
        self._active_slot = target_slot
        self._scan_next_slot()

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
        """Execute events until the queues drain or the clock passes ``until``.

        Returns the final simulation time.  With ``until`` set, the clock
        is advanced exactly to ``until`` even if the last event fired
        earlier, so throughput denominators are well defined.

        The loop batches every entry due at the current timestamp: the
        pre-scheduled ones drain from the ordered lanes first (their
        sequence numbers predate anything created *at* this timestamp),
        then the now-queue drains in append order.  Only then does the
        clock advance, activating due wheel buckets along the way.
        ``events_processed`` is incremented per dispatched event (not
        batched at loop exit) so in-simulation observers — the telemetry
        sampler — read a live count.
        """
        nowq = self._now
        ready = self._ready
        farq = self._queue
        heappop = heapq.heappop
        heapify = heapq.heapify
        popleft = nowq.popleft
        while True:
            now = self.now
            # -- entries scheduled earlier that are due exactly now ----
            while ready and ready[0][0] == now:
                if farq and farq[0] < ready[0]:
                    entry = heappop(farq)
                else:
                    entry = heappop(ready)
                callback = entry[2]
                if callback is None:
                    self._cancelled -= 1
                    continue
                entry[2] = None
                self.events_processed += 1
                callback(*entry[3])
            while farq and farq[0][0] == now:
                entry = heappop(farq)
                callback = entry[2]
                if callback is None:
                    self._cancelled -= 1
                    continue
                entry[2] = None
                self.events_processed += 1
                callback(*entry[3])
            # -- entries created at this timestamp, in creation order --
            while nowq:
                entry = popleft()
                callback = entry[2]
                if callback is None:
                    self._cancelled -= 1
                    continue
                entry[2] = None
                self.events_processed += 1
                callback(*entry[3])
            # -- advance the clock -------------------------------------
            while True:
                if ready:
                    head = ready[0]
                    if farq and farq[0] < head:
                        head = farq[0]
                elif farq:
                    head = farq[0]
                else:
                    head = None
                if self._wheel_len:
                    next_slot = self._next_slot
                    if head is None or head[0] >= next_slot * _SLOT_NS:
                        index = next_slot & _SLOT_MASK
                        bucket = self._wheel[index]
                        self._wheel[index] = []
                        self._wheel_len -= len(bucket)
                        self._active_slot = next_slot
                        if ready:
                            ready.extend(bucket)
                        else:
                            ready[:] = bucket
                        heapify(ready)
                        self._scan_next_slot()
                        continue
                break
            if ready:
                entry = ready[0]
                source = ready
                if farq and farq[0] < entry:
                    entry = farq[0]
                    source = farq
            elif farq:
                entry = farq[0]
                source = farq
            else:
                break  # fully drained
            when = entry[0]
            if until is not None and when > until:
                break
            heappop(source)
            callback = entry[2]
            if callback is None:
                self._cancelled -= 1
                continue
            self.now = when
            slot = int(when / _SLOT_NS)
            if slot > self._active_slot:
                self._active_slot = slot
            entry[2] = None
            self.events_processed += 1
            callback(*entry[3])
        if until is not None and self.now < until:
            self.now = until
            target = int(until / _SLOT_NS)
            if target > self._active_slot:
                self._catch_up(target)
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if none is pending."""
        ready = self._ready
        farq = self._queue
        while ready and ready[0][2] is None:
            heapq.heappop(ready)
            self._cancelled -= 1
        while farq and farq[0][2] is None:
            heapq.heappop(farq)
            self._cancelled -= 1
        best: Optional[float] = None
        for entry in self._now:
            if entry[2] is not None:
                best = entry[0]
                break
        if ready and (best is None or ready[0][0] < best):
            best = ready[0][0]
        if farq and (best is None or farq[0][0] < best):
            best = farq[0][0]
        if self._wheel_len:
            for bucket in self._wheel:
                for entry in bucket:
                    if entry[2] is not None and (best is None
                                                 or entry[0] < best):
                        best = entry[0]
        return best


class HeapEngine(Engine):
    """Reference pure-heap engine (``REPRO_ENGINE=heap``).

    The pre-timer-wheel implementation: one binary heap, one pop per
    event.  Kept as the equivalence baseline for the wheel engine — the
    two must produce bit-identical dispatch orders for the same seed —
    and as the conservative fallback.  Shares the dispatch-time entry
    nulling, so post-fire :meth:`cancel` is a no-op here too.
    """

    def schedule(self, delay: float, callback: Callable,
                 *args: Any) -> ScheduledEntry:
        if delay < 0:
            raise ValueError(f"cannot schedule in the past: delay={delay}")
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
    else — including unset — selects the default wheel :class:`Engine`.
    The two are dispatch-order equivalent (CI byte-compares a pinned
    run), so the knob is a performance/bisection fallback, not a
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
        exception = getattr(event, "exception", None)
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
        self._wait_for(yielded)

    def _wait_for(self, yielded: Any) -> None:
        if yielded is None:
            self.engine.post(self._resume, None, None)
        elif isinstance(yielded, Event):
            self._waiting_on = yielded
            yielded.add_callback(self._on_event)
        elif isinstance(yielded, (int, float)):
            # Sleep fast path: two scheduler hops (fire at the deadline,
            # wake at a fresh sequence number) mirror the historical
            # Timeout-event path exactly — same sequence-number
            # consumption, same ordering against same-timestamp events —
            # without allocating an Event or registering callbacks.
            delay = float(yielded)
            if delay < 0:
                # Route through _finish like any other bad yield, so the
                # process dies with consistent bookkeeping (_alive,
                # _active, tracer process_end) instead of unwinding the
                # run loop with a half-dead process left behind.
                self._finish(None, ValueError(f"negative delay: {delay}"))
                return
            self._sleep_entry = self.engine.schedule(delay, self._sleep_fire)
        else:
            error = TypeError(f"process {self.name!r} yielded {yielded!r}")
            self._finish(None, error)

    def _sleep_fire(self) -> None:
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
