"""NIC-to-NIC network fabric.

Delivery time of a message from node ``src`` to node ``dst``:

* the sender's NIC serializes the message at line rate (200 Gb/s); a
  busy NIC queues the message (per-NIC egress serialization models
  bandwidth contention),
* plus one-way propagation (half of the 2 µs round trip),
* plus a small fixed NIC processing charge at the receiver.

Handlers registered per node receive ``(src, message)``; a handler may
be a plain callable or return a generator, which the fabric spawns as a
process (long-running handling such as Intend-to-commit processing).

Fault injection hooks in via the :attr:`Fabric.faults` attribute: when a
:class:`~repro.faults.injector.FaultInjector` is attached, every send
asks it for a fate (drop, or extra delay from jitter / NIC stalls /
crash windows) before scheduling delivery.  Dropped messages count in
:attr:`Fabric.dropped_messages`; the injector itself reports each drop
to the tracer and the span recorder.  Injected delays never reorder
messages between one ``(src, dst)`` pair: protocol cleanup
correctness relies on per-pair FIFO delivery, so delayed sends
establish a delivery-time floor that later sends on the same pair
cannot undercut.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Dict, Tuple

from repro.config import NetworkParams
from repro.net.messages import Message
from repro.sim.engine import Engine
from repro.sim.events import Event

Handler = Callable[[int, Message], Any]

#: Minimum spacing the FIFO floor enforces between two same-pair
#: deliveries.  Strictly-after matters, not just not-before: generator
#: handlers run their first block via a zero-delay process resume, so a
#: message delivered at the *same* timestamp as its predecessor could
#: have its handler run before the predecessor's deferred body —
#: exactly the reordering the FIFO guarantee exists to rule out.
_FIFO_SPACING_NS = 1e-3


class _TimedOut:
    """Falsy singleton a timed-out request resolves with.

    Falsiness makes the common ``if not all(acks)`` failure paths treat
    a missing Ack like a failed one; sites that use the reply as *data*
    must check ``payload is TIMED_OUT`` before unpacking.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "TIMED_OUT"


#: Singleton outcome delivered to a waiter whose reply never arrived.
TIMED_OUT = _TimedOut()


class Fabric:
    """The cluster's RDMA network."""

    def __init__(self, engine: Engine, params: NetworkParams):
        self.engine = engine
        #: Bound engine entry point, hoisted for the per-send hot path
        #: (every message arms one delivery timer and allocates no
        #: event; the engine never changes after construction).
        self._schedule = engine.schedule
        self.params = params
        # Per-send constants hoisted out of the hot path: ``params`` is a
        # frozen dataclass, so its derived properties never change after
        # construction, and recomputing them per message (two property
        # calls + a division each) dominated ``send`` profiles.
        self._bytes_per_ns = params.bytes_per_ns
        self._one_way_ns = params.one_way_latency_ns
        self._nic_ns = params.nic_processing_ns
        self._handlers: Dict[int, Handler] = {}
        self._handler_names: Dict[type, str] = {}
        self._egress_free_at: Dict[int, float] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Optional :class:`~repro.obs.tracer.EventTracer` — records
        #: every send as a span.  None by default (zero overhead).
        self.tracer = None
        #: Optional :class:`~repro.obs.spans.SpanRecorder` — per-type
        #: delivery-latency histograms for ``repro run --spans``.
        #: None by default (same zero-overhead contract as the tracer).
        self.spans = None
        #: Optional :class:`~repro.faults.injector.FaultInjector` — when
        #: attached, decides a fate for every send.  None by default
        #: (the fault-free fast path is unchanged).
        self.faults = None
        #: Optional :class:`~repro.recovery.manager.RecoveryManager` —
        #: when attached, every send is stamped with the sender's current
        #: epoch and every delivery passes the receiver's membership view
        #: first (recovery-plane messages are consumed there; zombie
        #: traffic is rejected at the NIC).  None by default.
        self.recovery = None
        #: Messages the fault injector dropped (never delivered).
        self.dropped_messages = 0
        #: Per-(src, dst) delivery-time floor, maintained only while
        #: faults are active: injected delays must not let a later send
        #: overtake an earlier one on the same pair (FIFO guarantee).
        #: Stored as ``(anchor, bumps)``: the floor is
        #: ``anchor + bumps * _FIFO_SPACING_NS`` computed with a single
        #: multiply, so a long same-instant burst cannot accumulate one
        #: float rounding residue per message (k additions of 1e-3 drift
        #: away from k * 1e-3; the product form is exact per message).
        self._pair_floor: Dict[Tuple[int, int], Tuple[float, int]] = {}

    def register(self, node_id: int, handler: Handler) -> None:
        """Install ``handler`` for messages delivered to ``node_id``."""
        if node_id in self._handlers:
            raise ValueError(f"node {node_id} already has a handler")
        self._handlers[node_id] = handler

    def send(self, src: int, dst: int, message: Message) -> None:
        """Send ``message``; delivery invokes the destination handler.

        Sending to an unregistered node or to yourself is a protocol bug
        and raises immediately.
        """
        if src == dst:
            raise ValueError(f"node {src} sending to itself: {message!r}")
        if dst not in self._handlers:
            raise KeyError(f"no handler registered for node {dst}")
        size = message.size_bytes()
        if size < 0:
            raise ValueError(f"negative message size: {size}")
        now = self.engine.now
        if self.recovery is not None:
            self.recovery.on_send(src, message)
        # ``max(now, free_at)`` without the call (CoreClock.reserve's
        # rule); the same float for every input.
        free_at = self._egress_free_at.get(src, 0.0)
        egress_start = free_at if free_at > now else now
        egress_done = egress_start + size / self._bytes_per_ns
        self._egress_free_at[src] = egress_done
        delivery_delay = (
            (egress_done - now)
            + self._one_way_ns
            + self._nic_ns
        )
        self.messages_sent += 1
        self.bytes_sent += size
        if self.faults is not None:
            drop_reason, extra_ns = self.faults.message_fate(
                src, dst, message, now)
            if drop_reason is not None:
                # The NIC still serialized the message (egress charged
                # above); it just never arrives — waiters recover via
                # request timeouts.
                self.dropped_messages += 1
                return
            if extra_ns > 0.0:
                delivery_delay += extra_ns
            # Preserve per-pair FIFO under injected delays.
            delivery_at = now + delivery_delay
            pair = (src, dst)
            state = self._pair_floor.get(pair)
            if state is None:
                self._pair_floor[pair] = (delivery_at, 0)
            else:
                anchor, bumps = state
                floor = (anchor + bumps * _FIFO_SPACING_NS if bumps
                         else anchor)
                if delivery_at <= floor:
                    bumps += 1
                    delivery_at = anchor + bumps * _FIFO_SPACING_NS
                    delivery_delay = delivery_at - now
                    self._pair_floor[pair] = (anchor, bumps)
                else:
                    self._pair_floor[pair] = (delivery_at, 0)
        if self.tracer is not None or self.spans is not None:
            msg_type = type(message).__name__
            if self.tracer is not None:
                self.tracer.message_send(now, msg_type, src, dst, size,
                                         egress_start - now,
                                         egress_done - egress_start,
                                         delivery_delay)
            if self.spans is not None:
                self.spans.record_message(msg_type, delivery_delay)
        self._schedule(delivery_delay, self._deliver, src, dst, message)

    def _deliver(self, src: int, dst: int, message: Message) -> None:
        if self.recovery is not None and not self.recovery.on_deliver(
                src, dst, message):
            # Consumed by the recovery plane, or rejected by the
            # receiver's membership view: no handler runs, and waiters
            # recover via request timeouts.
            return
        handler = self._handlers[dst]
        result = handler(src, message)
        if type(result) is GeneratorType:
            cls = message.__class__
            name = self._handler_names.get(cls)
            if name is None:
                name = self._handler_names[cls] = f"handle-{cls.__name__}"
            self.engine.process(result, name=name)

    def egress_backlog_ns(self, node_id: int) -> float:
        """How far in the future the node's NIC egress is booked."""
        return max(0.0, self._egress_free_at.get(node_id, 0.0) - self.engine.now)


class RequestReplyHelper:
    """Correlates request messages with their replies.

    Protocols often need "send request, wait for the matching reply".
    The helper hands out reply events keyed by an arbitrary token; the
    destination's handler resolves them via :meth:`resolve`.

    With :attr:`default_timeout_ns` set (the fault-injection runner does
    this), every expected reply races a timer: if no reply arrives in
    time, the waiting event fires with :data:`TIMED_OUT` instead of
    hanging the simulation, and a reply that shows up later is dropped
    like any other late reply.  Timers are cancelled the moment their
    request resolves or is abandoned — a retry storm arms timers far
    faster than deadlines pass, and without cancellation every dead
    timer squats in the engine heap until it expires.  The identity
    check in :meth:`_expire` stays as a second line of defence, so a
    resolved/abandoned/re-expected token can never be expired by a
    stale timer even if one slips through.
    """

    def __init__(self, engine: Engine,
                 default_timeout_ns: float = None):
        self.engine = engine
        # Bound engine entry points: a retry storm arms/cancels timers
        # far faster than deadlines pass, so both sit on the hot path.
        self._schedule = engine.schedule
        self._cancel = engine.cancel
        self._pending: Dict[Any, Event] = {}
        self._timers: Dict[Any, Any] = {}
        #: When set, every :meth:`expect` without an explicit timeout
        #: arms a timer for this many simulated ns.  None = wait forever
        #: (the fault-free default).
        self.default_timeout_ns = default_timeout_ns
        #: Requests that expired without a reply.
        self.timeout_count = 0
        #: Optional ``callback(token)`` invoked when a request expires —
        #: the protocol layer uses it for counters and trace events.
        self.on_timeout = None

    def expect(self, token: Any, timeout_ns: float = None) -> Event:
        if token in self._pending:
            raise ValueError(f"duplicate outstanding request token {token!r}")
        event = self.engine.event()
        self._pending[token] = event
        if timeout_ns is None:
            timeout_ns = self.default_timeout_ns
        if timeout_ns is not None:
            self._timers[token] = self._schedule(
                timeout_ns, self._expire, token, event)
        return event

    def _cancel_timer(self, token: Any) -> None:
        entry = self._timers.pop(token, None)
        if entry is not None:
            self._cancel(entry)

    def _expire(self, token: Any, event: Event) -> None:
        self._timers.pop(token, None)
        # Identity check: only expire if this exact request is still the
        # pending one (not resolved, abandoned, or a reused token).
        if self._pending.get(token) is not event:
            return
        self._pending.pop(token)
        self.timeout_count += 1
        if self.on_timeout is not None:
            self.on_timeout(token)
        event.succeed(TIMED_OUT)

    def resolve(self, token: Any, value: Any = None) -> None:
        event = self._pending.pop(token, None)
        if event is None:
            # The requester may have been squashed and abandoned the
            # request; late replies are dropped.
            return
        self._cancel_timer(token)
        event.succeed(value)

    def abandon(self, token: Any) -> None:
        """Requester no longer cares (squashed mid-flight)."""
        if self._pending.pop(token, None) is not None:
            self._cancel_timer(token)

    def abandon_owner(self, owner) -> None:
        """Drop every pending token issued for ``owner``'s transaction."""
        stale = [token for token in self._pending
                 if isinstance(token, tuple) and token and token[0] == owner]
        for token in stale:
            self._pending.pop(token, None)
            self._cancel_timer(token)

    @property
    def outstanding(self) -> int:
        return len(self._pending)
