"""Tests for the shared protocol driver (request streams, squash races,
footprint learning, pessimistic attempts, lists against interactive
bodies, context switches)."""

import pytest

from repro.config import ClusterConfig, LivelockParams
from repro.core import read, write
from repro.core.api import Request, SquashCause, SquashedError, TxStatus
from repro.core.base import attempt_requests
from repro.core.txn import CATEGORY_OTHER
from repro.verify.locks import find_leaks

from tests.core.conftest import ProtocolHarness


class TestRequestStreams:
    """``attempt_requests``: the requests one attempt of a spec runs."""

    def test_list_stream_yields_in_order_then_none(self):
        spec = [read(1), write(2, value="v")]
        assert attempt_requests(spec, []) is spec
        assert list(attempt_requests(spec, [])) == spec

    def test_interactive_stream_feeds_results_back(self):
        received = []

        def body():
            first = yield read(1)
            received.append(first)
            after_write = yield write(1, value="w")
            received.append(after_write)
            second = yield read(2)
            received.append(second)

        read_results = []
        requests = attempt_requests(body, read_results)
        assert next(requests).record_id == 1
        read_results.append("r1")  # what the protocol's read observed
        assert next(requests).kind == "write"
        assert next(requests).record_id == 2
        read_results.append("r2")
        assert next(requests, None) is None
        assert received == ["r1", None, "r2"]

    def test_interactive_stream_empty_body(self):
        def body():
            return
            yield  # pragma: no cover

        assert list(attempt_requests(body, [])) == []


class TestRequestValidation:
    def test_kind_checked(self):
        with pytest.raises(ValueError):
            Request("scan", 1)

    def test_offset_and_size_checked(self):
        with pytest.raises(ValueError):
            Request("read", 1, offset=-1)
        with pytest.raises(ValueError):
            Request("read", 1, size=0)

    def test_out_of_record_range_rejected_at_execution(self):
        harness = ProtocolHarness("hades")
        harness.add_record(1, data_bytes=64, home=0)
        holder = {}

        def driver():
            try:
                yield from harness.protocol.execute(
                    0, 0, [read(1, offset=32, size=64)])
            except ValueError as error:
                holder["error"] = error

        harness.engine.process(driver())
        harness.engine.run()
        assert "exceeds record" in str(holder["error"])


class TestSquashDelivery:
    def test_squash_cause_carries_victim(self):
        cause = SquashCause((1, 2), "conflict")
        assert cause.victim == (1, 2)
        assert cause.reason == "conflict"

    def test_squashed_error_reason(self):
        error = SquashedError("lock")
        assert error.reason == "lock"
        assert SquashedError().reason == "conflict"

    def test_execute_requires_process_context(self):
        harness = ProtocolHarness("hades")
        harness.add_record(1, home=0)
        generator = harness.protocol.execute(0, 0, [read(1)])
        with pytest.raises(RuntimeError, match="sim process"):
            # Driving the generator outside a sim process must fail
            # loudly — squash interrupts need a Process handle.
            next(generator)
            generator.send(None)


class TestFootprintLearning:
    def test_interactive_hot_counter_goes_pessimistic(self):
        """After enough squashes the driver locks the learned footprint
        and the transaction commits pessimistically."""
        harness = ProtocolHarness("hades")
        harness.add_record(1, data_bytes=64, home=1)
        harness.run_transaction([write(1, value=0)])

        def first_value(values):
            return values[min(values)]

        def increments(node_id, slot, count):
            def one():
                values = yield read(1)
                yield write(1, value=first_value(values) + 1)

            for _ in range(count):
                yield from harness.protocol.execute(node_id, slot, one)

        for node_id in range(3):
            for slot in range(2):
                harness.engine.process(increments(node_id, slot, 6))
        harness.engine.run()
        assert set(harness.record_values(1).values()) == {36}
        # Under this contention the fallback fires at least once.
        assert harness.protocol.metrics.counters.get("pessimistic_commits") > 0

    def test_footprint_miss_widens_and_commits(self, any_protocol):
        """A body whose pessimistic retry reaches outside the learned
        footprint widens it and still commits (footprint_miss).

        The body touches record 1, 2, 1 on successive attempts.  The
        first attempt holds record 1's value through 40 us of work, and
        a contender commits a write to record 1 meanwhile, so it aborts.
        The second is pessimistic over {1} and misses on record 2 (on
        Baseline, ``_release_pessimistic_locks`` frees record 1); the
        third locks {1, 2} and commits.
        """
        harness = ProtocolHarness(
            any_protocol, livelock=LivelockParams(squash_threshold=1))
        for record_id in (1, 2):
            harness.add_record(record_id, data_bytes=64, home=1)
        harness.run_transaction([write(1, value=0), write(2, value=0)])
        think_cycles = 40_000.0 / harness.config.core.cycle_ns
        attempts = []

        def shifty():
            attempts.append(None)
            record = 1 if len(attempts) % 2 else 2
            values = yield read(record)
            yield write(record, value=values[min(values)] + 1,
                        work_cycles=think_cycles)

        def contender():
            yield 10_000.0  # inside the first attempt's work
            yield from harness.protocol.execute(1, 0, [write(1, value=10)])

        contexts = []

        def driver():
            contexts.append((yield from harness.protocol.execute(0, 0,
                                                                 shifty)))

        harness.engine.process(contender())
        harness.engine.process(driver())
        # Bounded: a lock leaked by the miss would stall the retry's
        # lock acquisition forever.
        harness.engine.run(until=1_000_000.0)
        counters = harness.protocol.metrics.counters
        assert len(attempts) == 3
        assert counters.get("pessimistic_footprint_misses") >= 1
        assert contexts and contexts[0].status is TxStatus.COMMITTED
        assert set(harness.record_values(1).values()) == {11}
        assert set(harness.record_values(2).values()) == {0}
        assert find_leaks(harness.cluster, harness.protocol) == []


class TestPessimisticAttempt:
    def test_request_work_cycles_charged(self, any_protocol):
        """A pessimistic request charges its own ``work_cycles`` (YCSB
        puts its index-probe cost there), as an optimistic one does."""
        def other_ns(work_cycles):
            harness = ProtocolHarness(
                any_protocol, livelock=LivelockParams(squash_threshold=0))
            harness.add_record(1, home=1)
            ctx = harness.run_transaction([read(1, work_cycles=work_cycles)])
            counters = harness.protocol.metrics.counters
            assert counters.get("pessimistic_commits") == 1
            return ctx.category_durations[CATEGORY_OTHER]

        config = ClusterConfig()
        extra = (other_ns(config.cost.request_work_cycles + 1000)
                 - other_ns(None))
        assert extra == pytest.approx(1000 * config.core.cycle_ns)


class TestListsAndBodies:
    def test_body_runs_the_same_simulation_as_its_list(self, any_protocol):
        """A body yielding a list's requests is the same transaction: one
        attempt loop runs both, so contended runs match exactly."""
        specs = [
            [read(1), write(2, value=i), read(3)] if i % 2 else
            [read(2), read(4, offset=64, size=64), write(1, value=i),
             write(4, value=-i, offset=0, size=64)]
            for i in range(8)
        ]

        def body_of(spec):
            def body():
                for request in spec:
                    yield request
            return body

        def run(as_bodies):
            harness = ProtocolHarness(
                any_protocol, livelock=LivelockParams(squash_threshold=100))
            for record_id in (1, 2, 3, 4):
                harness.add_record(record_id, home=record_id % 3)
            jobs = [(body_of(spec) if as_bodies else spec, i % 3, i // 3)
                    for i, spec in enumerate(specs)]
            contexts = harness.run_concurrent(jobs)
            counters = harness.protocol.metrics.counters
            assert counters.get("aborts") > 0
            assert counters.get("pessimistic_commits") == 0
            return ([(ctx.node_id, ctx.slot, ctx.read_results,
                      ctx.phase_durations, ctx.category_durations)
                     for ctx in contexts],
                    harness.engine.events_processed,
                    counters.as_dict(),
                    [harness.record_values(r) for r in (1, 2, 3, 4)])

        assert run(as_bodies=True) == run(as_bodies=False)


class TestContextSwitch:
    def test_context_switch_preserves_transaction(self):
        """Clearing the Module 1 filter bits mid-transaction must not
        squash it or change its outcome (Section VI)."""
        harness = ProtocolHarness("hades")
        harness.add_record(1, data_bytes=64, home=0)
        outcome = {}

        def body():
            yield write(1, value="before")
            # Preemption between requests: filter bits dropped.
            harness.protocol.context_switch(0, 0)
            values = yield read(1)
            outcome["value"] = values[min(values)]
            yield write(1, value="after")

        def driver():
            ctx = yield from harness.protocol.execute(0, 0, body)
            outcome["status"] = ctx.status

        harness.engine.process(driver())
        harness.engine.run()
        assert outcome["status"] is TxStatus.COMMITTED
        assert outcome["value"] == "before"  # read-your-writes survived
        assert set(harness.record_values(1).values()) == {"after"}
        assert harness.protocol.metrics.counters.get("context_switches") == 1
