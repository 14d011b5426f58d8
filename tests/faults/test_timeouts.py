"""Request-timeout recovery (RequestReplyHelper) and the engine-level
wake-up guarantees the fault layer leans on."""

import pytest

from repro.config import LivelockParams
from repro.core import read
from repro.core.api import TxStatus
from repro.net.fabric import TIMED_OUT, RequestReplyHelper
from repro.net.messages import ReplyMessage
from repro.sim.engine import Engine
from repro.sim.events import Interrupt
from repro.verify.locks import find_leaks

from tests.core.conftest import ProtocolHarness


def wait_on(engine, event, log):
    """Spawn a process that appends the event's value to ``log``."""

    def proc():
        value = yield event
        log.append(value)

    return engine.process(proc())


class TestTimedOutSentinel:
    def test_falsy_singleton(self):
        assert not TIMED_OUT
        assert bool(TIMED_OUT) is False
        assert repr(TIMED_OUT) == "TIMED_OUT"

    def test_all_acks_check_treats_timeout_as_failure(self):
        # The protocols' ``if not all(acks)`` paths must fail closed.
        assert not all([True, TIMED_OUT, True])


class TestRequestTimeouts:
    def test_expired_request_resolves_with_timed_out(self):
        engine = Engine()
        helper = RequestReplyHelper(engine)
        expired, log = [], []
        helper.on_timeout = expired.append
        wait_on(engine, helper.expect("t1", timeout_ns=100.0), log)
        engine.run()
        assert log == [TIMED_OUT]
        assert helper.timeout_count == 1
        assert expired == ["t1"]
        assert helper.outstanding == 0

    def test_reply_before_timeout_wins(self):
        engine = Engine()
        helper = RequestReplyHelper(engine)
        log = []
        wait_on(engine, helper.expect("t1", timeout_ns=100.0), log)
        engine.schedule(50.0, helper.resolve, "t1", "reply")
        engine.run()  # the stale timer still fires at t=100: must no-op
        assert log == ["reply"]
        assert helper.timeout_count == 0

    def test_stale_timer_does_not_expire_reissued_token(self):
        engine = Engine()
        helper = RequestReplyHelper(engine)
        log = []
        wait_on(engine, helper.expect("t", timeout_ns=100.0), log)

        def reissue():
            helper.resolve("t", "first")
            wait_on(engine, helper.expect("t", timeout_ns=100.0), log)

        engine.schedule(50.0, reissue)
        # The first request's timer fires at t=100 while the reissued
        # request is pending under the same token — identity check must
        # keep it from expiring the wrong event.
        engine.schedule(120.0, helper.resolve, "t", "second")
        engine.run()
        assert log == ["first", "second"]
        assert helper.timeout_count == 0

    def test_abandoned_request_never_times_out(self):
        engine = Engine()
        helper = RequestReplyHelper(engine)
        event = helper.expect("t", timeout_ns=100.0)
        helper.abandon("t")
        engine.run()
        assert not event.triggered
        assert helper.timeout_count == 0

    def test_abandon_owner_drops_only_that_owners_tokens(self):
        engine = Engine()
        helper = RequestReplyHelper(engine)
        mine = helper.expect(((0, 1), "replica", 2))
        other = helper.expect(((9, 9), "replica", 1))
        helper.abandon_owner((0, 1))
        assert helper.outstanding == 1
        helper.resolve(((9, 9), "replica", 1), "ok")
        engine.run()
        assert other.triggered and not mine.triggered

    def test_default_timeout_used_when_no_explicit(self):
        engine = Engine()
        helper = RequestReplyHelper(engine, default_timeout_ns=200.0)
        log = []
        wait_on(engine, helper.expect("t"), log)
        final = engine.run()
        assert log == [TIMED_OUT]
        assert final == pytest.approx(200.0)

    def test_no_timeout_by_default(self):
        engine = Engine()
        helper = RequestReplyHelper(engine)
        event = helper.expect("t")
        engine.run()  # nothing scheduled: the request waits forever
        assert not event.triggered
        assert helper.outstanding == 1

    def test_duplicate_token_rejected(self):
        helper = RequestReplyHelper(Engine())
        helper.expect("t")
        with pytest.raises(ValueError):
            helper.expect("t")


class TestStaleWakeGuard:
    """Regression for the engine-level race the fault layer exposed:
    ``Event.succeed`` captures and schedules its callbacks immediately,
    so a process interrupted at the *same timestamp* — after its awaited
    event already triggered — still has a stale wake-up in the queue.
    Delivering that stale value into the process's next yield point
    corrupted its control flow (e.g. ``None`` arriving at a reply wait).
    """

    def test_interrupt_racing_event_trigger(self):
        engine = Engine()
        event_a = engine.event()
        event_b = engine.event()
        log = []

        def proc():
            try:
                value = yield event_a
                log.append(("a", value))
            except Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause))
                value = yield event_b
                log.append(("b", value))

        process = engine.process(proc())

        def race():
            event_a.succeed("stale")  # wake-up now queued
            process.interrupt("race")  # ... and must supersede it

        engine.schedule(10.0, race)
        engine.schedule(20.0, event_b.succeed, "fresh")
        engine.run()
        # Without the identity guard in Process._on_event the stale "a"
        # value resumes the process before the interrupt lands.
        assert log == [("interrupted", "race"), ("b", "fresh")]
        assert not process.is_alive


class DropFirstReply:
    """Fault stand-in: drops the first reply to one kind of request
    (the kind is the second element of the request token)."""

    def __init__(self, kind):
        self.kind = kind
        self.dropped = 0

    def message_fate(self, src, dst, message, now):
        if (not self.dropped and isinstance(message, ReplyMessage)
                and message.token[1] == self.kind):
            self.dropped += 1
            return "drop", 0.0
        return None, 0.0


class TestBaselinePessimisticTimeouts:
    """A lost reply inside Baseline's pessimistic attempt: its locks
    come back and the transaction still commits."""

    def run_remote_read(self, kind):
        harness = ProtocolHarness(
            "baseline", livelock=LivelockParams(squash_threshold=0))
        harness.add_record(1, home=1)
        faults = DropFirstReply(kind)
        harness.cluster.fabric.faults = faults
        harness.protocol.replies.default_timeout_ns = 20_000.0
        contexts = []

        def driver():
            contexts.append((yield from harness.protocol.execute(
                0, 0, [read(1)])))

        harness.engine.process(driver())
        # Bounded: a leaked lock would stall the retry's lock
        # acquisition forever.
        harness.engine.run(until=1_000_000.0)
        assert faults.dropped == 1
        counters = harness.protocol.metrics.counters
        assert counters.get("request_timeouts") == 1
        assert contexts and contexts[0].status is TxStatus.COMMITTED
        assert counters.get("pessimistic_commits") == 1
        assert find_leaks(harness.cluster, harness.protocol) == []
        assert harness.protocol.replies.outstanding == 0
        return counters

    def test_lost_read_reply_releases_the_locks(self):
        """The read times out after the footprint is locked: the attempt
        aborts with ``request_timeout`` and releases its lock, which a
        retry under a new owner could never take otherwise."""
        counters = self.run_remote_read("read")
        assert counters.get("abort_reason_request_timeout") == 1
        assert counters.get("aborts") == 1
        assert counters.get("commits_after_retry") == 1

    def test_lost_lock_grant_is_released_and_retried(self):
        """The grant is lost after the home locked the record: the lock
        is released defensively and taken again in the same attempt."""
        counters = self.run_remote_read("plock")
        assert counters.get("pessimistic_lock_timeouts") == 1
        assert counters.get("aborts") == 0
