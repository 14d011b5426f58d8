"""FaultInjector decisions and their integration with the fabric:
determinism, the reliable-message class, fault windows, drop accounting,
and FIFO preservation under injected delays."""

import pytest

from repro.config import ClusterConfig, FaultPlan
from repro.faults.injector import (DROP_CRASH, DROP_CRASH_SENDER,
                                   DROP_RANDOM, FaultInjector)
from repro.net.fabric import _FIFO_SPACING_NS, Fabric
from repro.net.messages import AckMessage, RdmaReadRequest, ValidationMessage
from repro.obs.tracer import EventTracer
from repro.sim.engine import Engine

OWNER = (0, 0)


def fates(injector, count=200):
    return [injector.message_fate(0, 1, AckMessage(OWNER), 0.0)
            for _ in range(count)]


class TestDeterminism:
    def test_same_seed_same_fates(self):
        plan = FaultPlan.parse("drop=0.3,jitter=500", seed=11)
        assert fates(FaultInjector(plan)) == fates(FaultInjector(plan))

    def test_different_seed_different_fates(self):
        first = FaultInjector(FaultPlan.parse("drop=0.3,jitter=500", seed=11))
        second = FaultInjector(FaultPlan.parse("drop=0.3,jitter=500", seed=12))
        assert fates(first) != fates(second)


class TestReliability:
    def test_reliable_messages_never_dropped(self):
        injector = FaultInjector(FaultPlan(seed=1, drop_probability=0.9))
        for _ in range(200):
            reason, _ = injector.message_fate(
                0, 1, ValidationMessage(OWNER), 0.0)
            assert reason is None
        assert injector.dropped == 0

    def test_unreliable_messages_do_drop(self):
        injector = FaultInjector(FaultPlan(seed=1, drop_probability=0.9))
        reasons = [injector.message_fate(0, 1, AckMessage(OWNER), 0.0)[0]
                   for _ in range(100)]
        assert reasons.count(DROP_RANDOM) > 50
        assert injector.drops_by_reason.get(DROP_RANDOM) == injector.dropped


class TestWindows:
    def test_crash_drops_unreliable_and_holds_reliable(self):
        injector = FaultInjector(FaultPlan.parse("crash=1:100:200"))
        reason, _ = injector.message_fate(0, 1, AckMessage(OWNER), 150.0)
        assert reason == DROP_CRASH
        # Reliable traffic *to* the crashed node is held by RC
        # retransmission at the live sender until restart.
        reason, extra = injector.message_fate(
            0, 1, ValidationMessage(OWNER), 150.0)
        assert reason is None and extra == pytest.approx(50.0)
        # Outside the window, and on pairs not touching the crashed
        # node, traffic is untouched.
        assert injector.message_fate(0, 1, AckMessage(OWNER), 250.0) \
            == (None, 0.0)
        assert injector.message_fate(0, 2, AckMessage(OWNER), 150.0) \
            == (None, 0.0)

    def test_crashed_sender_drops_even_reliable(self):
        # A crashed sender cannot retransmit: sends originating inside
        # the sender's own crash window die with the NIC, reliable or
        # not, instead of being held like a dead destination's.
        injector = FaultInjector(FaultPlan.parse("crash=1:100:200"))
        reason, _ = injector.message_fate(
            1, 0, ValidationMessage(OWNER), 150.0)
        assert reason == DROP_CRASH_SENDER
        reason, _ = injector.message_fate(1, 0, AckMessage(OWNER), 150.0)
        assert reason == DROP_CRASH_SENDER
        assert injector.drops_by_reason.get(DROP_CRASH_SENDER) == 2
        # Outside the window the sender behaves normally again.
        assert injector.message_fate(1, 0, AckMessage(OWNER), 250.0) \
            == (None, 0.0)

    def test_stall_delays_until_window_end(self):
        injector = FaultInjector(FaultPlan.parse("stall=0:100:400"))
        reason, extra = injector.message_fate(0, 1, AckMessage(OWNER), 250.0)
        assert reason is None and extra == pytest.approx(150.0)
        assert injector.delayed == 1
        assert injector.message_fate(2, 1, AckMessage(OWNER), 250.0) \
            == (None, 0.0)

    def test_jitter_bounded_by_plan(self):
        injector = FaultInjector(FaultPlan(seed=3, delay_jitter_ns=100.0))
        extras = [injector.message_fate(0, 1, AckMessage(OWNER), 0.0)[1]
                  for _ in range(200)]
        assert all(0.0 <= extra < 100.0 for extra in extras)
        assert max(extras) > 0.0


class TestTracerAndSummary:
    def test_drop_emits_fault_event(self):
        tracer = EventTracer()
        injector = FaultInjector(FaultPlan(seed=1, drop_probability=0.9),
                                 tracer=tracer)
        while injector.dropped == 0:
            injector.message_fate(0, 1, AckMessage((7, 3)), 5.0)
        event = tracer.fault_events()[0]
        assert event["name"] == "message_drop"
        assert event["args"]["reason"] == DROP_RANDOM
        assert event["args"]["msg"] == "AckMessage"
        assert event["args"]["bytes"] == AckMessage((7, 3)).size_bytes()
        assert event["args"]["owner"] == [7, 3]

    def test_persist_failure_decision_and_event(self):
        tracer = EventTracer()
        injector = FaultInjector(
            FaultPlan(seed=2, replica_persist_fail_rate=1.0), tracer=tracer)
        assert injector.replica_persist_fails(1, (0, 1), 42.0)
        assert tracer.fault_events()[0]["name"] == "replica_persist_failure"
        # Rate zero never draws (and never fails).
        quiet = FaultInjector(FaultPlan(seed=2))
        assert not quiet.replica_persist_fails(1, (0, 1), 42.0)

    def test_summary_totals(self):
        injector = FaultInjector(FaultPlan(seed=1, drop_probability=0.9,
                                           replica_persist_fail_rate=1.0))
        for _ in range(50):
            injector.message_fate(0, 1, AckMessage(OWNER), 0.0)
        injector.replica_persist_fails(2, (1, 1), 0.0)
        summary = injector.summary()
        assert summary["messages_dropped"] == injector.dropped > 0
        assert summary["replica_persist_failures"] == 1
        assert summary["drops_drop"] == injector.dropped
        assert summary["messages_delayed"] == injector.delayed


class ScriptedFaults:
    """Injector stand-in replaying a fixed (reason, extra_ns) sequence."""

    def __init__(self, script):
        self._script = list(script)

    def message_fate(self, src, dst, message, now):
        return self._script.pop(0)


def make_fabric():
    engine = Engine()
    return engine, Fabric(engine, ClusterConfig().network)


class TestFabricIntegration:
    def test_dropped_message_never_delivered_and_counted(self):
        engine, fabric = make_fabric()
        received = []
        fabric.register(0, lambda src, msg: None)
        fabric.register(1, lambda src, msg: received.append(msg))
        fabric.faults = ScriptedFaults([(DROP_RANDOM, 0.0), (None, 0.0)])
        lost = AckMessage(OWNER, token=1)
        kept = AckMessage(OWNER, token=2)
        fabric.send(0, 1, lost)
        fabric.send(0, 1, kept)
        engine.run()
        assert fabric.dropped_messages == 1
        assert received == [kept]
        # Drops still count as sends: the NIC serialized them.
        assert fabric.messages_sent == 2
        assert fabric.bytes_sent == lost.size_bytes() + kept.size_bytes()

    def test_tracer_fold_matches_the_fabric_counters(self):
        """The injector's drop events carry each drop's bytes, so the
        tracer's message fold adds up to what the fabric sent."""
        engine, fabric = make_fabric()
        fabric.register(0, lambda src, msg: None)
        fabric.register(1, lambda src, msg: None)
        tracer = EventTracer()
        fabric.tracer = tracer
        fabric.faults = FaultInjector(FaultPlan(seed=4, drop_probability=0.5),
                                      tracer=tracer)
        for token in range(40):
            message = (AckMessage(OWNER, token=token) if token % 2 else
                       RdmaReadRequest(OWNER, lines=[token, token + 1],
                                       token=token))
            fabric.send(0, 1, message)
        engine.run()
        rows = tracer.message_rows()
        assert 0 < fabric.dropped_messages < 40
        assert sum(row[1] for row in rows) == fabric.messages_sent == 40
        assert sum(row[2] for row in rows) == fabric.bytes_sent
        assert sum(row[6] for row in rows) == fabric.dropped_messages

    def test_fifo_preserved_under_jitter(self):
        engine, fabric = make_fabric()
        log = []
        fabric.register(0, lambda src, msg: None)
        fabric.register(1,
                        lambda src, msg: log.append((engine.now, msg.token)))
        fabric.faults = FaultInjector(FaultPlan(seed=5,
                                                delay_jitter_ns=5000.0))
        for token in range(30):
            engine.schedule(token * 10.0, fabric.send, 0, 1,
                            RdmaReadRequest(OWNER, lines=[0], token=token))
        engine.run()
        assert [token for _, token in log] == list(range(30))
        times = [when for when, _ in log]
        # Strictly increasing: the floor forbids ties, which would let a
        # generator handler's deferred body run after its successor.
        assert all(later > earlier
                   for earlier, later in zip(times, times[1:]))

    def test_equal_timestamp_delivery_is_pushed_strictly_after(self):
        """Regression: a later send clamped exactly *onto* the pair's
        floor had its synchronous handler run before the predecessor's
        deferred generator body — an effective FIFO inversion."""
        engine, fabric = make_fabric()
        order = []
        delivered = []

        def handler(src, message):
            delivered.append((engine.now, message.token))

            def body():
                order.append(("start", message.token))
                yield None
                order.append(("end", message.token))

            return body()

        fabric.register(0, lambda src, msg: None)
        fabric.register(1, handler)
        # First send delayed by 1000 ns; second undelayed, so its raw
        # delivery time lands before the floor and must be clamped.
        fabric.faults = ScriptedFaults([(None, 1000.0), (None, 0.0)])
        fabric.send(0, 1, AckMessage(OWNER, token=1))
        fabric.send(0, 1, AckMessage(OWNER, token=2))
        engine.run()
        assert order == [("start", 1), ("end", 1),
                         ("start", 2), ("end", 2)]
        (first_at, first), (second_at, second) = delivered
        assert (first, second) == (1, 2)
        assert second_at == first_at + _FIFO_SPACING_NS
        anchor, bumps = fabric._pair_floor[(0, 1)]
        assert anchor + bumps * _FIFO_SPACING_NS >= 1000.0 + _FIFO_SPACING_NS
        assert bumps == 1

    def test_fault_free_fast_path_keeps_no_floor(self):
        engine, fabric = make_fabric()
        fabric.register(0, lambda src, msg: None)
        fabric.register(1, lambda src, msg: None)
        fabric.send(0, 1, AckMessage(OWNER))
        engine.run()
        assert fabric._pair_floor == {}
        assert fabric.dropped_messages == 0
