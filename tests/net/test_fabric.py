"""Tests for the network fabric."""

import pytest

from repro.config import NetworkParams
from repro.net.fabric import _FIFO_SPACING_NS, Fabric, RequestReplyHelper
from repro.net.messages import HEADER_BYTES, Message
from repro.sim import Engine

OWNER = (0, 1)


class _PassthroughFaults:
    """Minimal injector stand-in: never drops, never delays.

    Attaching it activates the per-pair FIFO floor (maintained only
    while faults are active) without perturbing any delivery time."""

    def message_fate(self, src, dst, message, now):
        return None, 0.0


class _Weightless(Message):
    """Zero serialization time: same-instant sends tie on delivery."""

    def size_bytes(self):
        return 0


def make_fabric(engine, **overrides):
    fabric = Fabric(engine, NetworkParams(**overrides))
    return fabric


def test_delivery_invokes_handler_after_one_way_latency():
    engine = Engine()
    fabric = make_fabric(engine)
    received = []
    fabric.register(1, lambda src, msg: received.append((engine.now, src, msg)))
    message = Message(OWNER)
    fabric.send(0, 1, message)
    engine.run()
    assert len(received) == 1
    when, src, delivered = received[0]
    expected = (1000.0  # one-way
                + NetworkParams().transfer_ns(HEADER_BYTES)
                + NetworkParams().nic_processing_ns)
    assert when == pytest.approx(expected)
    assert src == 0 and delivered is message


def test_send_returns_none_and_the_handler_sees_the_message():
    """A send allocates no delivery event: it returns nothing, and the
    destination's handler is where the message shows up."""
    engine = Engine()
    fabric = make_fabric(engine)
    received = []
    fabric.register(1, lambda src, msg: received.append((engine.now, msg)))
    message = Message(OWNER)
    assert fabric.send(0, 1, message) is None
    engine.run()
    assert len(received) == 1
    when, delivered = received[0]
    assert when > 1000.0
    assert delivered is message


def test_generator_handler_spawned_as_process():
    engine = Engine()
    fabric = make_fabric(engine)
    trace = []

    def handler(src, msg):
        yield 500.0
        trace.append(engine.now)

    fabric.register(1, handler)
    fabric.send(0, 1, Message(OWNER))
    engine.run()
    assert len(trace) == 1
    assert trace[0] > 1500.0


def test_egress_serialization_queues_large_messages():
    engine = Engine()
    fabric = make_fabric(engine)
    arrivals = []
    fabric.register(1, lambda src, msg: arrivals.append(engine.now))

    class Big(Message):
        def size_bytes(self):
            return 25000  # 1000 ns of serialization at 25 B/ns

    fabric.send(0, 1, Big(OWNER))
    fabric.send(0, 1, Big(OWNER))
    engine.run()
    assert arrivals[1] - arrivals[0] == pytest.approx(1000.0)


def test_different_senders_do_not_serialize():
    engine = Engine()
    fabric = make_fabric(engine)
    arrivals = []
    fabric.register(2, lambda src, msg: arrivals.append(engine.now))

    class Big(Message):
        def size_bytes(self):
            return 25000

    fabric.send(0, 2, Big(OWNER))
    fabric.send(1, 2, Big((1, 2)))
    engine.run()
    assert arrivals[0] == pytest.approx(arrivals[1])


def test_self_send_rejected():
    engine = Engine()
    fabric = make_fabric(engine)
    fabric.register(0, lambda src, msg: None)
    with pytest.raises(ValueError):
        fabric.send(0, 0, Message(OWNER))


def test_unregistered_destination_rejected():
    engine = Engine()
    fabric = make_fabric(engine)
    with pytest.raises(KeyError):
        fabric.send(0, 99, Message(OWNER))


def test_duplicate_registration_rejected():
    engine = Engine()
    fabric = make_fabric(engine)
    fabric.register(1, lambda src, msg: None)
    with pytest.raises(ValueError):
        fabric.register(1, lambda src, msg: None)


def test_traffic_accounting():
    engine = Engine()
    fabric = make_fabric(engine)
    fabric.register(1, lambda src, msg: None)
    fabric.send(0, 1, Message(OWNER))
    assert fabric.messages_sent == 1
    assert fabric.bytes_sent == HEADER_BYTES


def test_egress_backlog_visible():
    engine = Engine()
    fabric = make_fabric(engine)
    fabric.register(1, lambda src, msg: None)

    class Big(Message):
        def size_bytes(self):
            return 25000

    fabric.send(0, 1, Big(OWNER))
    assert fabric.egress_backlog_ns(0) == pytest.approx(1000.0)
    assert fabric.egress_backlog_ns(5) == 0.0


def test_fifo_floor_10k_burst_spacing_is_exact():
    """Regression: the FIFO floor must not accumulate float residue.

    10 000 same-instant sends on one pair each get bumped strictly
    after the last.  The k-th delivery must land at *exactly*
    ``anchor + k * spacing``: the old floor update added the spacing
    once per message, and 10 000 repeated additions of 1e-3 drift away
    from the product, making delivery times depend on burst history."""
    engine = Engine()
    fabric = make_fabric(engine)
    fabric.faults = _PassthroughFaults()
    arrivals = []
    fabric.register(1, lambda src, msg: arrivals.append(engine.now))
    for _ in range(10_000):
        fabric.send(0, 1, _Weightless(OWNER))
    engine.run()
    assert len(arrivals) == 10_000
    anchor = arrivals[0]
    for k, when in enumerate(arrivals):
        assert when == anchor + k * _FIFO_SPACING_NS  # bit-exact
    anchor_state, bumps = fabric._pair_floor[(0, 1)]
    assert anchor_state == anchor and bumps == 9_999


def test_fifo_floor_resets_after_natural_gap():
    """A send that lands naturally after the floor re-anchors the pair
    instead of extending the bump chain."""
    engine = Engine()
    fabric = make_fabric(engine)
    fabric.faults = _PassthroughFaults()
    arrivals = []
    fabric.register(1, lambda src, msg: arrivals.append(engine.now))

    def burst():
        fabric.send(0, 1, _Weightless(OWNER))
        fabric.send(0, 1, _Weightless(OWNER))  # tied -> bumped
        yield 10_000.0
        fabric.send(0, 1, _Weightless(OWNER))  # past the floor

    engine.process(burst())
    engine.run()
    assert arrivals[1] == arrivals[0] + _FIFO_SPACING_NS
    assert arrivals[2] > arrivals[1]
    _, bumps = fabric._pair_floor[(0, 1)]
    assert bumps == 0  # re-anchored


class TestRequestReplyHelper:
    def test_expect_then_resolve(self):
        engine = Engine()
        helper = RequestReplyHelper(engine)
        results = []

        def waiter():
            value = yield helper.expect("token")
            results.append(value)

        engine.process(waiter())
        engine.schedule(10.0, helper.resolve, "token", "reply")
        engine.run()
        assert results == ["reply"]

    def test_duplicate_token_rejected(self):
        helper = RequestReplyHelper(Engine())
        helper.expect("t")
        with pytest.raises(ValueError):
            helper.expect("t")

    def test_late_resolve_dropped(self):
        helper = RequestReplyHelper(Engine())
        helper.resolve("never-expected")  # must not raise

    def test_abandon(self):
        helper = RequestReplyHelper(Engine())
        helper.expect("t")
        helper.abandon("t")
        assert helper.outstanding == 0
        helper.resolve("t")  # dropped silently

    def test_abandon_owner_clears_matching_tokens(self):
        helper = RequestReplyHelper(Engine())
        helper.expect(((0, 7), "lock", 1))
        helper.expect(((0, 7), "lock", 2))
        helper.expect(((0, 8), "lock", 1))
        helper.abandon_owner((0, 7))
        assert helper.outstanding == 1

    def test_resolve_cancels_pending_timer(self):
        engine = Engine()
        helper = RequestReplyHelper(engine, default_timeout_ns=100.0)
        helper.expect("t")
        helper.resolve("t", "reply")
        assert not helper._timers
        engine.run()
        assert helper.timeout_count == 0

    def test_abandon_cancels_pending_timer(self):
        engine = Engine()
        helper = RequestReplyHelper(engine, default_timeout_ns=100.0)
        helper.expect("t")
        helper.abandon("t")
        assert not helper._timers
        engine.run()
        assert helper.timeout_count == 0

    def test_abandon_owner_cancels_pending_timers(self):
        engine = Engine()
        helper = RequestReplyHelper(engine, default_timeout_ns=100.0)
        helper.expect(((0, 7), "lock", 1))
        helper.expect(((0, 8), "lock", 1))
        helper.abandon_owner((0, 7))
        assert set(helper._timers) == {((0, 8), "lock", 1)}

    def test_timeout_still_fires_when_unresolved(self):
        engine = Engine()
        helper = RequestReplyHelper(engine, default_timeout_ns=100.0)
        results = []

        def waiter():
            value = yield helper.expect("t")
            results.append((engine.now, value))

        engine.process(waiter())
        engine.run()
        assert helper.timeout_count == 1
        assert results and results[0][0] == 100.0
        assert not results[0][1]  # TIMED_OUT is falsy

    def test_retry_storm_does_not_grow_engine_queue(self):
        """Regression: before timer cancellation, every resolved
        request left its (far-future) timeout entry in the engine heap;
        a retry storm grew the heap by one husk per request."""
        engine = Engine()
        helper = RequestReplyHelper(engine, default_timeout_ns=1e9)
        for i in range(10_000):
            helper.expect(i)
            helper.resolve(i, "ack")
        assert helper.outstanding == 0
        assert not helper._timers
        # Compaction keeps the queue bounded, not 10 000 dead timers.
        assert sum(map(len, engine._buckets.values())) <= 150
