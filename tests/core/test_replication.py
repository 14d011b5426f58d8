"""Tests for the fault-tolerance/durability extension (Section V)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, LivelockParams
from repro.core import read, write
from repro.core.api import TxStatus
from repro.core.replication import HadesReplicatedProtocol, ReplicaStore
from repro.hardware.bloom import BloomFilter
from repro.net.messages import (
    RdmaReadRequest,
    RemoteWriteAccessRequest,
    ReplyMessage,
)
from repro.sim.engine import Engine


class ReplicationHarness:
    def __init__(self, replicas=1, nodes=3, persist_ns=500.0,
                 squash_threshold=None):
        self.engine = Engine()
        livelock = (LivelockParams(squash_threshold=squash_threshold)
                    if squash_threshold is not None else LivelockParams())
        self.config = ClusterConfig(nodes=nodes, cores_per_node=2,
                                    livelock=livelock)
        self.cluster = Cluster(self.engine, self.config, llc_sets=256)
        self.protocol = HadesReplicatedProtocol(self.cluster, seed=3,
                                                replicas=replicas,
                                                persist_ns=persist_ns)

    def add_record(self, record_id, home=None):
        return self.cluster.allocate_record(record_id, 64, home=home)

    def run(self, spec, node_id=0, slot=0):
        holder = {}

        def driver():
            holder["ctx"] = yield from self.protocol.execute(node_id, slot,
                                                             spec)

        self.engine.process(driver())
        self.engine.run()
        return holder["ctx"]


class TestReplicaStore:
    def test_persist_then_promote(self):
        store = ReplicaStore()
        assert store.persist_temporary((0, 1), {10: "v"})
        assert store.permanent == {}
        store.promote((0, 1))
        assert store.permanent == {10: "v"}
        assert (0, 1) not in store.temporary

    def test_discard_drops_temporary(self):
        store = ReplicaStore()
        store.persist_temporary((0, 1), {10: "v"})
        store.discard((0, 1))
        assert store.permanent == {}
        assert store.abort_count == 1

    def test_injected_failure(self):
        store = ReplicaStore()
        store.fail_next = 1
        assert not store.persist_temporary((0, 1), {10: "v"})
        assert store.persist_temporary((0, 2), {11: "w"})

    def test_promote_unknown_owner_noop(self):
        store = ReplicaStore()
        store.promote((9, 9))
        assert store.promote_count == 0


class TestReplicatedCommit:
    def test_replica_count_validated(self):
        engine = Engine()
        cluster = Cluster(engine, ClusterConfig(nodes=3, cores_per_node=1),
                          llc_sets=64)
        with pytest.raises(ValueError):
            HadesReplicatedProtocol(cluster, replicas=0)
        with pytest.raises(ValueError):
            HadesReplicatedProtocol(cluster, replicas=3)

    def test_placement_never_on_home_node(self):
        harness = ReplicationHarness(replicas=2, nodes=4)
        for line in (0, 100, 7777):
            replicas = harness.protocol.replica_nodes_of_line(line)
            assert len(replicas) == 2
            from repro.cluster.address import node_of_line
            assert node_of_line(line) not in replicas

    def test_write_reaches_primary_and_replica(self):
        harness = ReplicationHarness(replicas=1)
        descriptor = harness.add_record(1, home=1)
        ctx = harness.run([write(1, value="dur")], node_id=0)
        assert ctx.status is TxStatus.COMMITTED
        line = descriptor.lines[0]
        replica_node = harness.protocol.replica_nodes_of_line(line)[0]
        assert harness.protocol.replica_value(replica_node, line) == "dur"
        checked, mismatched = harness.protocol.verify_replicas()
        assert checked >= 1 and mismatched == 0

    def test_two_replicas_both_updated(self):
        harness = ReplicationHarness(replicas=2, nodes=4)
        descriptor = harness.add_record(1, home=0)
        harness.run([write(1, value="x2")], node_id=1)
        line = descriptor.lines[0]
        for replica_node in harness.protocol.replica_nodes_of_line(line):
            assert harness.protocol.replica_value(replica_node, line) == "x2"

    def test_read_only_transaction_touches_no_replicas(self):
        harness = ReplicationHarness()
        harness.add_record(1, home=1)
        harness.run([write(1, value="seed")])
        persists_before = sum(s.persist_count
                              for s in harness.protocol.stores.values())
        harness.run([read(1)], node_id=2, slot=1)
        persists_after = sum(s.persist_count
                             for s in harness.protocol.stores.values())
        assert persists_after == persists_before

    def test_replica_failure_aborts_then_retries_to_success(self):
        harness = ReplicationHarness(replicas=1)
        descriptor = harness.add_record(1, home=1)
        line = descriptor.lines[0]
        replica_node = harness.protocol.replica_nodes_of_line(line)[0]
        harness.protocol.stores[replica_node].fail_next = 2
        ctx = harness.run([write(1, value="recovered")], node_id=0)
        assert ctx.status is TxStatus.COMMITTED
        counters = harness.protocol.metrics.counters
        assert counters.get("replica_persist_failures") == 2
        assert counters.get("abort_reason_replica_failure") == 2
        assert harness.protocol.replica_value(replica_node, line) == "recovered"
        # No temporary copies linger after the retries.
        assert all(not store.temporary
                   for store in harness.protocol.stores.values())

    def test_pessimistic_local_persist_failure_aborts_then_retries(self):
        """Regression: ``_pre_pessimistic_publish`` used to ignore the
        ``persist_temporary`` return value, silently committing a write
        whose replica copy was never made durable."""
        harness = ReplicationHarness(replicas=1, squash_threshold=0)
        descriptor = harness.add_record(1, home=1)
        line = descriptor.lines[0]
        replica_node = harness.protocol.replica_nodes_of_line(line)[0]
        harness.protocol.stores[replica_node].fail_next = 1
        # Run *from* the replica node so the failing persist is the
        # local fast path inside the pessimistic publish.
        ctx = harness.run([write(1, value="pess-local")],
                          node_id=replica_node)
        assert ctx.status is TxStatus.COMMITTED
        counters = harness.protocol.metrics.counters
        assert counters.get("pessimistic_commits") >= 1
        assert counters.get("replica_persist_failures") == 1
        assert counters.get("abort_reason_replica_failure") == 1
        assert (harness.protocol.replica_value(replica_node, line)
                == "pess-local")
        checked, mismatched = harness.protocol.verify_replicas()
        assert checked >= 1 and mismatched == 0
        assert all(not store.temporary
                   for store in harness.protocol.stores.values())

    def test_pessimistic_remote_nack_aborts_then_retries(self):
        """Regression: the same hook also ignored the AllOf Ack
        outcomes of remote replica updates — a failed (or missing) Ack
        must unwind the attempt, not be promoted over."""
        harness = ReplicationHarness(replicas=1, squash_threshold=0)
        descriptor = harness.add_record(1, home=1)
        line = descriptor.lines[0]
        replica_node = harness.protocol.replica_nodes_of_line(line)[0]
        harness.protocol.stores[replica_node].fail_next = 1
        other = next(n for n in range(3) if n != replica_node)
        ctx = harness.run([write(1, value="pess-remote")], node_id=other)
        assert ctx.status is TxStatus.COMMITTED
        counters = harness.protocol.metrics.counters
        assert counters.get("pessimistic_commits") >= 1
        assert counters.get("replica_persist_failures") == 1
        assert counters.get("abort_reason_replica_failure") == 1
        assert (harness.protocol.replica_value(replica_node, line)
                == "pess-remote")
        checked, mismatched = harness.protocol.verify_replicas()
        assert checked >= 1 and mismatched == 0
        assert all(not store.temporary
                   for store in harness.protocol.stores.values())

    def test_replication_adds_latency(self):
        plain = ReplicationHarness(replicas=1, persist_ns=0.0)
        slow = ReplicationHarness(replicas=1, persist_ns=5000.0)
        for harness in (plain, slow):
            harness.add_record(1, home=1)
        fast_ctx = plain.run([write(1, value="a")], node_id=0)
        slow_ctx = slow.run([write(1, value="a")], node_id=0)
        assert slow_ctx.latency_ns > fast_ctx.latency_ns

    def test_replica_update_token_accepts_tuple_tokens(self):
        from repro.core.replication import ReplicaUpdateMessage
        token = ((0, 1), "replica", 2)
        message = ReplicaUpdateMessage((0, 1), updates={8: "v"}, token=token)
        assert message.token == token
        assert ReplicaUpdateMessage((0, 1)).token == 0

    def test_serializability_preserved_with_replication(self):
        harness = ReplicationHarness(replicas=1)
        harness.add_record(1, home=1)
        harness.run([write(1, value=0)])

        def first_value(values):
            return values[min(values)]

        def increments(node_id, slot, count):
            def one():
                values = yield read(1)
                yield write(1, value=first_value(values) + 1)

            for _ in range(count):
                yield from harness.protocol.execute(node_id, slot, one)

        for node_id in range(3):
            harness.engine.process(increments(node_id, 0, 4))
        harness.engine.run()
        descriptor = harness.cluster.record(1)
        home = harness.cluster.node(descriptor.home_node)
        assert home.memory.read_line(descriptor.lines[0]) == 12
        checked, mismatched = harness.protocol.verify_replicas()
        assert mismatched == 0


class TestFailoverService:
    """A request rerouted to a replica holder (docs/RECOVERY.md): the
    serving node answers lines homed on another node from its permanent
    replica copy, registers them in the requester's NIC filters and
    waits out a Locking Buffer that holds one of them."""

    OWNER = (0, 9)
    LOCKER = (1, 4)

    def setup(self):
        """Four lines homed on node 1, replicated on node 2, and one
        line homed on node 2 itself."""
        harness = ReplicationHarness(replicas=1, nodes=3)
        foreign = harness.cluster.allocate_record(1, 256, home=1).lines
        own = harness.cluster.allocate_record(2, 64, home=2).lines
        protocol = harness.protocol
        assert {node for line in foreign
                for node in protocol.replica_nodes_of_line(line)} == {2}
        server = harness.cluster.node(2)
        for line in foreign:
            protocol.stores[2].permanent[line] = ("replica", line)
            harness.cluster.node(1).memory.write_line(line, ("home", line))
        server.memory.write_line(own[0], ("home", own[0]))
        return harness, server, foreign, own

    def serve(self, harness, server, serve, message, unlock_at=None):
        """Run ``serve`` at the replica holder for a request from node
        0; returns ``(delivery time, reply)`` of the one reply sent."""
        protocol = harness.protocol
        replies = []
        send = protocol.send

        def recording(src, dst, reply):
            replies.append((harness.engine.now, dst, reply))
            return send(src, dst, reply)

        protocol.send = recording
        harness.engine.process(serve(server, 0, message))
        if unlock_at is not None:
            def unlock():
                yield unlock_at
                assert not replies, "replied while the lock was held"
                server.directory.unlock(self.LOCKER)

            harness.engine.process(unlock())
        harness.engine.run()
        [(sent_at, dst, reply)] = replies
        assert dst == 0 and isinstance(reply, ReplyMessage)
        assert reply.token == message.token
        return sent_at, reply

    def lock(self, server, read_lines=(), write_lines=()):
        read_bf, write_bf = BloomFilter(1024), BloomFilter(1024)
        read_bf.insert_all(read_lines)
        write_bf.insert_all(write_lines)
        assert server.directory.try_lock(self.LOCKER, read_bf, write_bf, [])

    def read_request(self, foreign, own):
        return RdmaReadRequest(self.OWNER, lines=foreign + own,
                               token=(self.OWNER, "rread", 1))

    def write_request(self, foreign, own):
        return RemoteWriteAccessRequest(
            self.OWNER, all_lines=foreign + own,
            partial_lines=[foreign[0], foreign[-1], own[0]],
            token=(self.OWNER, "rwrite", 1))

    def test_read_serves_foreign_lines_from_the_replica(self):
        harness, server, foreign, own = self.setup()
        message = self.read_request(foreign, own)
        _, reply = self.serve(harness, server,
                              harness.protocol._serve_remote_read, message)
        assert reply.payload == {**{line: ("replica", line)
                                    for line in foreign},
                                 own[0]: ("home", own[0])}
        state = server.nic.remote_state(self.OWNER)
        assert list(state.read_bf.inserted_keys) == foreign + own
        assert not state.write_bf.inserted_keys

    def test_write_access_serves_foreign_partial_lines_from_the_replica(self):
        harness, server, foreign, own = self.setup()
        message = self.write_request(foreign, own)
        _, reply = self.serve(
            harness, server, harness.protocol._serve_remote_write_access,
            message)
        assert reply.payload == {foreign[0]: ("replica", foreign[0]),
                                 foreign[-1]: ("replica", foreign[-1]),
                                 own[0]: ("home", own[0])}
        state = server.nic.remote_state(self.OWNER)
        assert list(state.write_bf.inserted_keys) == message.partial_lines
        assert not state.read_bf.inserted_keys

    def test_read_waits_for_a_lock_on_a_foreign_line(self):
        harness, server, foreign, own = self.setup()
        self.lock(server, write_lines=[foreign[2]])
        sent_at, reply = self.serve(
            harness, server, harness.protocol._serve_remote_read,
            self.read_request(foreign, own), unlock_at=1000.0)
        assert sent_at >= 1000.0
        assert reply.payload[foreign[2]] == ("replica", foreign[2])

    def test_write_access_waits_for_a_lock_on_a_foreign_line(self):
        harness, server, foreign, own = self.setup()
        # A fully overwritten line is checked too: the lock's read BF
        # holds a line the request writes but does not fetch.
        self.lock(server, read_lines=[foreign[1]])
        sent_at, reply = self.serve(
            harness, server, harness.protocol._serve_remote_write_access,
            self.write_request(foreign, own), unlock_at=1000.0)
        assert sent_at >= 1000.0
        assert foreign[1] not in reply.payload

    def test_unlocked_requests_reply_at_once(self):
        harness, server, foreign, own = self.setup()
        self.lock(server, read_lines=[foreign[1]])  # blocks writes only
        sent_at, _ = self.serve(harness, server,
                                harness.protocol._serve_remote_read,
                                self.read_request(foreign, own))
        assert sent_at == 0.0
