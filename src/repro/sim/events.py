"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot signal with an optional value.  Processes
wait on events by yielding them; the engine resumes every waiter when the
event triggers.  :class:`Timeout` is an event that triggers after a fixed
delay.  :class:`AllOf` / :class:`AnyOf` combine events.

:class:`Interrupt` is the exception thrown into a process when another
process (or hardware model) interrupts it — the HADES protocols use this
to deliver transaction squashes.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional


class Interrupt(Exception):
    """Thrown into a process that has been interrupted.

    ``cause`` carries an arbitrary payload describing why (for HADES, a
    squash reason).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    Events are created untriggered.  Calling :meth:`succeed` triggers the
    event, records its value, and schedules every registered callback to
    run at the current simulation time.  Triggering twice is an error —
    this catches protocol bugs such as double-acking a commit.
    """

    #: Set only on a :class:`CompletionEvent` whose process failed or
    #: was interrupted; a class-level default, so a waiter reads it off
    #: any event without a ``getattr``.
    exception: Optional[BaseException] = None

    def __init__(self, engine: "Engine"):  # noqa: F821 - circular typing
        self.engine = engine
        self.triggered = False
        self.value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event with ``value`` and wake all waiters."""
        if self.triggered:
            raise RuntimeError("event triggered twice")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        post = self.engine.post
        for callback in callbacks:
            post(callback, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback`` to run when the event triggers.

        If the event already triggered the callback is scheduled
        immediately (at the current simulation time).
        """
        if self.triggered:
            self.engine.post(callback, self)
        else:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[["Event"], None]) -> None:
        """Deregister ``callback`` if still pending (used on interrupt)."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass


class Timeout(Event):
    """An event that triggers ``delay`` nanoseconds after creation."""

    def __init__(self, engine: "Engine", delay: float, value: Any = None):  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        super().__init__(engine)
        self.delay = delay
        engine.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        if not self.triggered:
            self.succeed(value)


class AllOf(Event):
    """Triggers once every child event has triggered.

    The value is the list of child values in the order the children were
    given.  An empty list of children triggers immediately — a commit
    that involves zero remote nodes waits on nothing.
    """

    def __init__(self, engine: "Engine", events: Iterable[Event]):  # noqa: F821
        super().__init__(engine)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._child_done)

    def _child_done(self, _child: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed([child.value for child in self._children])


class AnyOf(Event):
    """Triggers as soon as any child event triggers.

    The value is the ``(index, value)`` pair of the first child to fire.
    """

    def __init__(self, engine: "Engine", events: Iterable[Event]):  # noqa: F821
        super().__init__(engine)
        self._children = list(events)
        if not self._children:
            raise ValueError("AnyOf requires at least one event")
        for index, child in enumerate(self._children):
            child.add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def _child_done(child: Event) -> None:
            if not self.triggered:
                self.succeed((index, child.value))

        return _child_done


class CompletionEvent(Event):
    """Event representing a process's termination.

    Carries the process return value, or re-raises the process's
    exception when waited on by the engine (failure propagation).
    """

    def fail(self, exception: BaseException) -> None:
        """Trigger the event in the failed state."""
        self.exception = exception
        self.succeed(None)
