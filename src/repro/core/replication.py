"""Fault-tolerance and durability extension (Section V, "Fault-Tolerance
and Durability").

The paper outlines the approach: writes additionally update replicas on
other nodes; replica updates ride HADES' two-phase commit.  The
committing node sends the *Intend-to-commit* (here: a replica-update
message carrying the written values) to every replica node; each
replica persists the update to **temporary durable storage** and Acks;
once all Acks are in, the *Validation* promotes the temporary copy to
permanent storage.  A missing/failed Ack aborts the transaction and the
abort message discards the temporary copies.

:class:`HadesReplicatedProtocol` composes this onto the hardware-only
protocol: replica targets are added to the commit fan-out, the Ack
accounting is shared with the normal remote-node Acks (so the
"unsquashable after all Acks" rule covers replicas too), and replica
failures (injectable, for testing recovery) squash-and-retry the
transaction exactly like a directory-lock conflict.

Replica placement: the ``k``-th replica of a line homed on node ``h``
lives on node ``(h + k) mod N``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.cluster.address import node_of_line
from repro.cluster.node import Node
from repro.core.api import Owner, SquashedError
from repro.core.hades import HadesProtocol
from repro.core.txn import TxContext
from repro.net.fabric import TIMED_OUT
from repro.net.messages import (
    ADDRESS_BYTES,
    HEADER_BYTES,
    LINE_BYTES,
    AckMessage,
    Message,
    Token,
)
from repro.sim.events import AllOf


@dataclass
class ReplicaUpdateMessage(Message):
    """Phase 1: written values for this replica node, to be persisted
    in temporary durable storage."""

    updates: Dict[int, object] = field(default_factory=dict)
    #: The transaction's *full* written line set (not just this
    #: replica's slice), persisted alongside the temporary copy.  Crash
    #: recovery resolves a dead coordinator's outcome by checking that
    #: every manifest line is covered by a durable temporary on every
    #: one of its placement replicas (docs/RECOVERY.md).
    manifest: List[int] = field(default_factory=list)
    #: Correlation token — callers pass ``(owner, "replica", node)``
    #: tuples, matching the reply helper's token typing.
    token: Token = 0

    def size_bytes(self) -> int:
        return (HEADER_BYTES
                + (ADDRESS_BYTES + LINE_BYTES) * len(self.updates)
                + ADDRESS_BYTES * len(self.manifest))


@dataclass
class ReplicaCommitMessage(Message):
    """Phase 2: promote the temporary copy to permanent storage.

    ``stamp`` totally orders promotions of conflicting writes: writers of
    the same line serialize through the home node's directory lock, so
    their coordinators' commit times are ordered — a replica applies a
    line only if the stamp is newer than what it already holds (promote
    messages from *different* coordinators are not FIFO-ordered).
    """

    # Losing a promote would strand a temporary copy forever; the NIC
    # retries it like any one-way RC write.
    reliable: ClassVar[bool] = True

    stamp: float = 0.0


@dataclass
class ReplicaAbortMessage(Message):
    """Abort: discard the temporary copy."""

    reliable: ClassVar[bool] = True


class ReplicaStore:
    """One node's replica storage: a temporary durable log plus the
    permanent replica copy."""

    def __init__(self) -> None:
        self.temporary: Dict[Owner, Dict[int, object]] = {}
        #: owner -> the transaction's full written line set, persisted
        #: with the temporary copy (crash-outcome resolution input).
        self.manifests: Dict[Owner, List[int]] = {}
        self.permanent: Dict[int, object] = {}
        #: Per-line stamp of the newest applied write (ordering guard).
        self.stamps: Dict[int, float] = {}
        #: Owners whose temporary copy was promoted here.  Durable (it
        #: models a record in the promote log); recovery uses it to tell
        #: "promoted somewhere, commit fully published" from "persisted
        #: everywhere but never promoted".
        self.promoted_owners: set = set()
        self.persist_count = 0
        self.promote_count = 0
        self.abort_count = 0
        self.stale_promotes = 0
        #: Test hook: owners whose persist attempt must fail.
        self.fail_next = 0

    def persist_temporary(self, owner: Owner, updates: Dict[int, object],
                          manifest: Optional[List[int]] = None) -> bool:
        """Write updates to the temporary durable log; False = failure."""
        if self.fail_next > 0:
            self.fail_next -= 1
            return False
        self.temporary[owner] = dict(updates)
        self.manifests[owner] = sorted(manifest if manifest is not None
                                       else updates)
        self.persist_count += 1
        return True

    def promote(self, owner: Owner,
                stamp: Optional[float] = None) -> Dict[int, object]:
        """Move the temporary copy to permanent storage.

        With a ``stamp``, each line is applied only if it is newer than
        the line's current stamp (out-of-order promotions from different
        coordinators must not roll a line back).  Returns the lines
        actually applied (for the failover journal).
        """
        updates = self.temporary.pop(owner, None)
        self.manifests.pop(owner, None)
        if not updates:
            return {}
        self.promoted_owners.add(owner)
        self.promote_count += 1
        applied: Dict[int, object] = {}
        for line, value in updates.items():
            if stamp is not None and self.stamps.get(line, -1.0) >= stamp:
                self.stale_promotes += 1
                continue
            self.permanent[line] = value
            applied[line] = value
            if stamp is not None:
                self.stamps[line] = stamp
        return applied

    def apply_direct(self, updates: Dict[int, object],
                     stamp: float) -> Dict[int, object]:
        """Apply values straight to permanent storage (failover writes:
        a Validation served *at* the replica applies here, there is no
        separate promote).  Same per-line stamp guard as promotion;
        returns the lines actually applied."""
        applied: Dict[int, object] = {}
        for line, value in updates.items():
            if self.stamps.get(line, -1.0) >= stamp:
                self.stale_promotes += 1
                continue
            self.permanent[line] = value
            self.stamps[line] = stamp
            applied[line] = value
        return applied

    def discard(self, owner: Owner) -> None:
        self.manifests.pop(owner, None)
        if self.temporary.pop(owner, None) is not None:
            self.abort_count += 1


class HadesReplicatedProtocol(HadesProtocol):
    """HADES with per-line replication riding the two-phase commit."""

    name = "hades+replication"

    def __init__(self, cluster, metrics=None, seed: int = 1,
                 replicas: int = 1, persist_ns: float = 1000.0):
        if replicas < 1:
            raise ValueError(f"need at least one replica: {replicas}")
        if replicas >= cluster.config.nodes:
            raise ValueError(
                f"{replicas} replicas need more than {cluster.config.nodes} "
                "nodes (a replica never lives on the home node)")
        super().__init__(cluster, metrics=metrics, seed=seed)
        self.replicas = replicas
        #: Durable-write latency charged at each replica (SSD/NVM).
        self.persist_ns = persist_ns
        self.stores: Dict[int, ReplicaStore] = {
            node.node_id: ReplicaStore() for node in cluster.nodes
        }
        #: (holder node, dead home) -> ordered (line, value) history of
        #: writes the holder applied as failover target while the home
        #: was dead.  Replayed into the home's memory when it rejoins
        #: (RecoveryManager drains this; empty without recovery).
        self.promote_journal: Dict[Tuple[int, int],
                                   List[Tuple[int, object]]] = {}

    # -- placement --------------------------------------------------------

    def replica_nodes_of_line(self, line: int) -> List[int]:
        home = node_of_line(line)
        nodes = self.config.nodes
        return [(home + k) % nodes for k in range(1, self.replicas + 1)]

    def _replica_updates(self, written: Dict[int, object]
                         ) -> Dict[int, Dict[int, object]]:
        """replica node -> {line: value} for the ``written`` lines."""
        per_node: Dict[int, Dict[int, object]] = {}
        for line, value in written.items():
            for replica in self.replica_nodes_of_line(line):
                per_node.setdefault(replica, {})[line] = value
        return per_node

    # -- persist plumbing ---------------------------------------------------

    def _persist_replica(self, replica_node: int, owner: Owner,
                         updates: Dict[int, object],
                         manifest: Optional[List[int]] = None) -> bool:
        """Persist one replica update; False = durable-write failure.

        Single funnel for every persist site (local fast path, remote
        handler) so both the ``fail_next`` test hook and injected
        fault-plan failures apply uniformly.
        """
        if self.faults is not None and self.faults.replica_persist_fails(
                replica_node, owner, self.engine.now):
            return False
        return self.stores[replica_node].persist_temporary(owner, updates,
                                                           manifest=manifest)

    def _drop_dead_replicas(self, ctx: TxContext,
                            per_node: Dict[int, Dict[int, object]]):
        """Skip replicas the coordinator's membership view believes dead.

        Waiting on a dead replica's Ack would stall every write whose
        line it replicates for the whole crash window; FaRM instead
        commits under-replicated and re-replicates during recovery —
        here the rejoining node's store refresh repairs the copy."""
        if self.recovery is None:
            return per_node
        dead = self.recovery.views[ctx.node_id].dead
        if not dead:
            return per_node
        kept: Dict[int, Dict[int, object]] = {}
        for replica_node, updates in per_node.items():
            if replica_node in dead:
                self.metrics.counters.add("replica_skips_dead")
                self.recovery.note_replica_skip()
                continue
            kept[replica_node] = updates
        return kept

    def _check_replica_outcomes(self, ctx: TxContext, outcomes) -> None:
        """Ack outcomes of phase-1 replica updates; raise on any failure."""
        failures = timeouts = 0
        for outcome in outcomes:
            if outcome is TIMED_OUT:
                timeouts += 1
            elif not outcome:
                failures += 1
        if failures:
            self.metrics.counters.add("replica_persist_failures", failures)
        if timeouts:
            self.metrics.counters.add("replica_update_timeouts", timeouts)
        if failures or timeouts:
            # Cleanup discards every temporary copy (ReplicaAbort to all
            # of ctx.replicated_nodes), so nothing is ever promoted.
            raise SquashedError("replica_failure" if failures
                                else "replica_timeout")

    # -- commit integration -----------------------------------------------

    def _pre_apply(self, ctx: TxContext):
        """Phase 1, run by the base commit once the attempt is
        unsquashable and before anything publishes: every replica update
        must be durable (temporary storage) first.  Persisting after the
        Acks means the crash-recovery commit rule — "committed iff every
        replica copy is durably recorded" — coincides with the publish:
        an attempt that crashes before finishing the persists resolves
        as aborted, one that crashed after publishing resolves as
        committed (docs/RECOVERY.md)."""
        written: Dict[int, object] = dict(ctx.local_write_buffer)
        for remote in ctx.node.nic.involved_nodes(ctx.txid):
            written.update(ctx.node.nic.data_payload(ctx.txid, remote))
        per_node = self._drop_dead_replicas(ctx, self._replica_updates(written))
        # Record the attempted replica set up front: a failure after a
        # partial persist must discard every temporary copy at cleanup.
        ctx.replicated_nodes = sorted(per_node)
        # The manifest carries the *full* written line set so outcome
        # resolution can detect a partially-persisted transaction (and,
        # via a skipped dead replica, an under-replicated one).
        manifest = sorted({line for updates in per_node.values()
                           for line in updates})
        events = []
        for replica_node, updates in per_node.items():
            if replica_node == ctx.node_id:
                # Local replica: persist directly (charged below).
                yield ctx.charge_cpu_ns(self.persist_ns)
                if not self._persist_replica(replica_node, ctx.owner,
                                             updates, manifest=manifest):
                    self.metrics.counters.add("replica_persist_failures")
                    raise SquashedError("replica_failure")
                continue
            token = (ctx.owner, "replica", replica_node)
            message = ReplicaUpdateMessage(ctx.owner, updates=updates,
                                           manifest=manifest, token=token)
            events.append(self.request(ctx.node_id, replica_node, message,
                                       token))
        if events:
            outcomes = yield AllOf(self.engine, events)
            self._check_replica_outcomes(ctx, outcomes)

    def _commit(self, ctx: TxContext):
        yield from super()._commit(ctx)
        # Phase 2: the transaction is committed.  No suspension points
        # since the publish in super()._commit — the promote burst is
        # part of the crash-atomic region, so a published commit always
        # has its local promote and its (reliable) ReplicaCommit
        # messages on the wire.
        self._promote_replicas(ctx)

    def _promote_replicas(self, ctx: TxContext) -> None:
        """Promote ``ctx``'s temporary copy on every replica.

        The stamp orders conflicting writers (serialized by the home
        directory lock, so their commit times are ordered).
        """
        stamp = self.engine.now
        for replica_node in ctx.replicated_nodes:
            if replica_node == ctx.node_id:
                self._promote_at(replica_node, ctx.owner, stamp)
            else:
                self.send(ctx.node_id, replica_node,
                          ReplicaCommitMessage(ctx.owner, stamp=stamp))

    def _promote_at(self, node_id: int, owner: Owner, stamp: float) -> None:
        """Promote ``owner`` at ``node_id``'s store, journaling lines
        applied on behalf of a home the holder believes dead."""
        applied = self.stores[node_id].promote(owner, stamp)
        self._journal_applied(node_id, applied)

    def _journal_applied(self, node_id: int, applied: Dict[int, object],
                         failover: bool = False) -> None:
        """Record applied foreign-homed lines — the install history a
        rejoining home replays.  While the holder believes the home dead
        the entry is journaled for the rejoin drain.  A *failover*
        install landing after the holder already saw the home rejoin (a
        Validation racing the rejoin announcement) is pushed to the home
        immediately instead, so no committed write misses the home's
        memory.  Ordinary promotes with a live home need neither: the
        home received its own Validation directly."""
        if self.recovery is None or not applied:
            return
        dead = self.recovery.views[node_id].dead
        for line in sorted(applied):
            home = node_of_line(line)
            if home == node_id:
                continue
            if home in dead:
                self.promote_journal.setdefault((node_id, home), []).append(
                    (line, applied[line]))
            elif failover:
                self.recovery.push_reconcile(node_id, home,
                                             [(line, applied[line])])

    def _pre_pessimistic_publish(self, ctx: TxContext):
        """Pessimistic commits replicate too: with every directory lock
        held nothing can squash the attempt, so persist and promote the
        replicas directly (one round trip to the remote stores)."""
        written: Dict[int, object] = dict(ctx.local_write_buffer)
        for updates in ctx.buffered_remote.values():
            written.update(updates)
        per_node = self._drop_dead_replicas(ctx, self._replica_updates(written))
        if not per_node:
            return
        ctx.replicated_nodes = sorted(per_node)
        manifest = sorted({line for updates in per_node.values()
                           for line in updates})
        events = []
        local_failed = False
        for replica_node, updates in per_node.items():
            if replica_node == ctx.node_id:
                yield ctx.charge_cpu_ns(self.persist_ns)
                if not self._persist_replica(replica_node, ctx.owner,
                                             updates, manifest=manifest):
                    # Don't raise yet: remote updates already in flight
                    # must still be awaited (and then discarded).
                    self.metrics.counters.add("replica_persist_failures")
                    local_failed = True
                continue
            token = (ctx.owner, "replica", replica_node)
            events.append(self.request(
                ctx.node_id, replica_node,
                ReplicaUpdateMessage(ctx.owner, updates=updates,
                                     manifest=manifest, token=token),
                token))
        if events:
            outcomes = yield AllOf(self.engine, events)
            # A failed or missing Ack must abort the attempt — promoting
            # regardless would silently commit an unreplicated write
            # (the durability bug this hook used to have; contrast with
            # the optimistic ``_commit``).  Pessimistic locks keep the
            # attempt unsquashable, but SquashedError still unwinds it:
            # cleanup discards the temporary copies and releases every
            # directory lock, and the driver retries pessimistically.
            self._check_replica_outcomes(ctx, outcomes)
        if local_failed:
            raise SquashedError("replica_failure")
        # From here through the caller's publish there are no suspension
        # points: promote burst and publish are one crash-atomic region.
        self._promote_replicas(ctx)
        ctx.replicated_nodes = []

    def _cleanup_after_squash(self, ctx: TxContext):
        for replica_node in getattr(ctx, "replicated_nodes", ()):
            if replica_node == ctx.node_id:
                self.stores[replica_node].discard(ctx.owner)
            else:
                self.send(ctx.node_id, replica_node,
                          ReplicaAbortMessage(ctx.owner))
        # Abandon before the base cleanup so late replica Acks drop.
        yield from super()._cleanup_after_squash(ctx)

    # -- message handling ---------------------------------------------------

    def _handle_message(self, node_id: int, src: int, message: Message):
        if isinstance(message, ReplicaUpdateMessage):
            return self._serve_replica_update(node_id, src, message)
        if isinstance(message, ReplicaCommitMessage):
            self._promote_at(node_id, message.owner, message.stamp)
            return None
        if isinstance(message, ReplicaAbortMessage):
            self.stores[node_id].discard(message.owner)
            return None
        return super()._handle_message(node_id, src, message)

    def _serve_replica_update(self, node_id: int, src: int,
                              message: ReplicaUpdateMessage):
        """Persist to temporary durable storage, then Ack (Section V)."""
        success = self._persist_replica(node_id, message.owner,
                                        message.updates,
                                        manifest=message.manifest)
        yield self.persist_ns  # durable-media write latency
        self.send(node_id, src, AckMessage(message.owner, success=success,
                                           token=message.token))

    # -- replica failover (docs/RECOVERY.md) --------------------------------

    def _route_home(self, ctx: TxContext, home: int) -> int:
        """Reroute accesses homed on a dead node to a surviving replica.

        Placement order: the first alive ``(home + k) mod N`` replica.
        A candidate equal to the requester itself is skipped — serving
        its own request through the fabric would need a loopback path;
        such transactions simply retry until the home rejoins, exactly
        like the non-replicated protocols.
        """
        if self.recovery is None:
            return home
        view = self.recovery.views[ctx.node_id]
        if home not in view.dead:
            return home
        for k in range(1, self.replicas + 1):
            candidate = (home + k) % self.config.nodes
            if candidate not in view.dead and candidate != ctx.node_id:
                self.recovery.note_failover_route(ctx.node_id, home,
                                                  candidate)
                return candidate
        return home

    def _replica_values(self, node: Node, lines) -> Dict[int, object]:
        store = self.stores[node.node_id]
        values = {line: store.permanent.get(line) for line in lines}
        if values and self.recovery is not None:
            self.recovery.note_failover_read(node.node_id, len(values))
        return values

    def _line_values(self, node: Node, lines) -> Dict[int, object]:
        """Home lines from memory; foreign lines from the replica store.

        Foreign lines appear only under failover routing: their home is
        some other (dead) node and this node serves them from its
        permanent replica copy.
        """
        node_id = node.node_id
        foreign = [l for l in lines if node_of_line(l) != node_id]
        if not foreign:
            return node.memory.read_lines(lines)
        values = node.memory.read_lines(
            [l for l in lines if node_of_line(l) == node_id])
        values.update(self._replica_values(node, foreign))
        return values

    def _apply_updates(self, node: Node, updates: Dict[int, object]) -> None:
        """Validation at a failover target: home lines go to memory as
        usual; foreign (dead-homed) lines go straight to the permanent
        replica copy and into the rejoin journal."""
        home_updates = {l: v for l, v in updates.items()
                        if node_of_line(l) == node.node_id}
        foreign = {l: v for l, v in updates.items()
                   if node_of_line(l) != node.node_id}
        if home_updates:
            super()._apply_updates(node, home_updates)
        if foreign:
            self._apply_failover_updates(node.node_id, foreign)

    def _apply_failover_updates(self, node_id: int,
                                updates: Dict[int, object]) -> None:
        """A failover write publishes at the replica: apply to permanent
        (stamped with delivery time — writers of the same line serialize
        through this node's directory lock, so delivery order is commit
        order and a later ReplicaCommit's older stamp is skipped) and
        journal for the home's rejoin."""
        applied = self.stores[node_id].apply_direct(updates, self.engine.now)
        self._journal_applied(node_id, applied, failover=True)
        if self.recovery is not None and applied:
            self.recovery.note_failover_write(node_id, len(applied))

    # -- audits --------------------------------------------------------------

    def replica_value(self, replica_node: int, line: int):
        return self.stores[replica_node].permanent.get(line)

    def verify_replicas(self) -> Tuple[int, int]:
        """(checked, mismatched) permanent replica lines vs primary memory."""
        checked = mismatched = 0
        for node_id, store in self.stores.items():
            for line, value in store.permanent.items():
                checked += 1
                home = self.cluster.node(node_of_line(line))
                if home.memory.read_line(line) != value:
                    mismatched += 1
        return checked, mismatched
