"""Hardware-only HADES protocol (Section V-A, Table II, Fig. 6).

Summary of the attempt lifecycle (Transaction *i* on Node *x*):

* **Local read/write** — check the WrTX_ID directory tag (eager L–L
  detection; the second accessor squashes itself), on writes also probe
  the other local transactions' read BFs; record the line in the local
  read/write BF; writes tag the directory, buffer the value in the
  cache hierarchy (write buffer), and may squash a transaction whose
  speculatively-written LLC line is evicted.
* **Remote read/write** — one RDMA to the home node, which inserts the
  lines into transaction *i*'s Remote read/write BF in its NIC.  Writes
  fetch (and BF-register) only partially-written edge lines;
  fully-overwritten lines cost no network traffic at all.  All remote
  updates are buffered in the local NIC (Module 4b).
* **Commit** — partial-lock the local directory with *i*'s BFs, probe
  the NIC-resident remote BFs (squash conflicting remote transactions),
  send *Intend-to-commit* to every involved node, collect *Acks* (after
  which *i* is unsquashable), clear the WrTX_ID tags, apply the local
  write buffer, send *Validation* + updates (no stall), unlock.

There are no record versions and no read-atomicity checks: the partial
directory lock guarantees multi-line read atomicity in hardware.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.cluster.address import node_of_line, partially_covered_lines
from repro.cluster.node import Node
from repro.core.api import Owner, Request, SquashedError
from repro.core.base import ProtocolBase
from repro.core.txn import PHASE_VALIDATION, TxContext
from repro.hardware.directory import snapshot_filters
from repro.net.fabric import TIMED_OUT
from repro.obs.spans import (
    SPAN_EXECUTE,
    SPAN_LOCK_ACQUIRE,
    SPAN_PUBLISH,
    SPAN_REPLICATE,
)
from repro.net.messages import (
    AbortCleanupMessage,
    AckMessage,
    DirectoryLockRequest,
    IntendToCommitMessage,
    Message,
    RdmaReadRequest,
    RemoteWriteAccessRequest,
    ReplyMessage,
    SquashMessage,
    ValidationMessage,
)

#: Spin interval while a line is blocked by a committing transaction's
#: Locking Buffer.
BLOCKED_RETRY_NS = 100.0
#: Give up spinning after this many retries and squash (safety valve; a
#: commit holds its partial lock for a couple of round trips at most).
MAX_BLOCKED_RETRIES = 400


class HadesProtocol(ProtocolBase):
    """The hardware-only HADES protocol."""

    name = "hades"
    squashable = True
    #: Whether Intend-to-commit processing at a remote node probes the
    #: node-local Module 3 BFs (True for HADES; HADES-H's local
    #: transactions have no BFs, Section V-D).
    check_local_bfs_at_remote = True

    # ------------------------------------------------------------------
    # attempt (the loop is ProtocolBase._attempt)
    # ------------------------------------------------------------------

    def _init_attempt_state(self, ctx: TxContext) -> None:
        ctx.local_state = ctx.node.register_local_tx(ctx.txid)
        ctx.local_write_buffer = {}
        ctx.remote_cache = {}
        ctx.holding_local_dirlock = False
        ctx.private_filter = ctx.node.private_filters[ctx.slot]
        ctx.private_filter.clear()

    # -- execution: local accesses ---------------------------------------

    def _local_read_line(self, ctx: TxContext, line: int):
        if ctx.private_filter.has_recorded_read(line):
            # Module 1 fast path: no directory traffic needed.
            yield ctx.charge_cpu_ns(self._l1_ns)
            return self._local_value(ctx, line)
        yield ctx.charge_cpu_ns(self._local_line_ns)
        directory = ctx.node.directory
        if directory.read_blocked(line, ctx.owner):
            yield from self._spin_blocked(
                lambda: directory.read_blocked(line, ctx.owner))
        writer = ctx.node.directory.writer_of(line)
        if writer is not None and writer != ctx.txid:
            self.metrics.counters.add("eager_ll_read_conflicts")
            raise SquashedError("eager_ll_read")
        ctx.local_state.record_read(line)
        ctx.private_filter.record_read(line)
        ctx.node.llc.touch(line)
        return self._local_value(ctx, line)

    def _local_write_line(self, ctx: TxContext, line: int, value: object):
        if ctx.private_filter.has_recorded_write(line):
            yield ctx.charge_cpu_ns(self._l1_ns)
            ctx.local_write_buffer[line] = value
            return
        yield ctx.charge_cpu_ns(self._local_line_ns)
        directory = ctx.node.directory
        if directory.write_blocked(line, ctx.owner):
            yield from self._spin_blocked(
                lambda: directory.write_blocked(line, ctx.owner))
        writer = ctx.node.directory.writer_of(line)
        if writer is not None and writer != ctx.txid:
            self.metrics.counters.add("eager_ll_write_conflicts")
            raise SquashedError("eager_ll_write")
        readers = ctx.node.local_readers_of(line, exclude=ctx.txid)
        self.metrics.counters.add("conflict_checks", readers.checks)
        self.metrics.counters.add("conflict_false_positives",
                                  readers.false_positive_hits)
        if readers.conflicting_txids:
            self.metrics.counters.add("eager_ll_write_conflicts")
            raise SquashedError("eager_ll_write_vs_reader")
        ctx.node.directory.tag_write(line, ctx.txid)
        victim = ctx.node.llc.touch(line, writer=ctx.txid)
        ctx.local_state.record_write(line)
        ctx.private_filter.record_write(line)
        ctx.local_write_buffer[line] = value
        if victim is not None:
            self.metrics.counters.add("llc_speculative_evictions")
            self.trace_point(ctx, "llc_speculative_eviction", line=line,
                             victim=victim)
            self._squash_for_eviction(ctx, victim)

    def _squash_for_eviction(self, ctx: TxContext, victim_txid: int) -> None:
        """An LLC set filled with speculative lines evicted a line."""
        victim_owner = (ctx.node_id, victim_txid)
        ctx.node.directory.clear_writer_tags(victim_txid)
        if victim_txid == ctx.txid:
            raise SquashedError("llc_eviction")
        self.squash(victim_owner, "llc_eviction")

    def _local_value(self, ctx: TxContext, line: int):
        if line in ctx.local_write_buffer:
            return ctx.local_write_buffer[line]
        return ctx.node.memory.read_line(line)

    def _spin_blocked(self, blocked) -> Iterable:
        """Retry until the directory stops blocking the access.

        Callers pre-check once and only enter this generator while
        actually blocked, so the common unblocked access pays one direct
        directory probe — no generator, no closure.  The check/count/
        sleep interleaving is exactly the historical spin loop's: the
        pre-check is check #1, each loop pass sleeps then re-checks, and
        the attempt gives up after ``MAX_BLOCKED_RETRIES`` checks total
        (safety valve; a commit holds its partial lock for a couple of
        round trips at most).
        """
        add = self.metrics.counters.add
        for _ in range(MAX_BLOCKED_RETRIES - 1):
            add("directory_block_spins")
            yield BLOCKED_RETRY_NS
            if not blocked():
                return
        add("directory_block_spins")
        yield BLOCKED_RETRY_NS
        raise SquashedError("blocked_timeout")

    # -- execution: request-level read/write -------------------------------

    def _execute_read(self, ctx: TxContext, request: Request):
        """Read only the cache lines the request's byte range covers."""
        lines = self.requested_lines(request)
        # The lines' new masks in one hash batch.  Under Table III's
        # sizes the home NICs' read BFs share this filter's hash family,
        # so their inserts of the remote lines find the masks too.
        ctx.local_state.read_bf.prehash(lines)
        values: Dict[int, object] = {}
        remote_by_node: Dict[int, List[int]] = {}
        for line in lines:
            home = node_of_line(line)
            if home == ctx.node_id:
                values[line] = yield from self._local_read_line(ctx, line)
            elif line in ctx.remote_cache:
                yield ctx.charge_cpu_ns(self._l1_ns)
                values[line] = ctx.remote_cache[line]
            else:
                remote_by_node.setdefault(home, []).append(line)
        fetched = yield from self._fetch_remote_reads(ctx, remote_by_node)
        values.update(fetched)
        return values

    def _fetch_remote_reads(self, ctx: TxContext,
                            remote_by_node: Dict[int, List[int]]):
        """Issue one RDMA read per home node; lines land in the remote
        read BF of that node's NIC (Table II, Remote Read)."""
        values: Dict[int, object] = {}
        for home, fetch_lines in remote_by_node.items():
            # With recovery active, accesses homed on a dead node may be
            # rerouted to a surviving replica (identity otherwise).
            target = self._route_home(ctx, home)
            # Note the involvement *before* the request leaves: if this
            # transaction is squashed while the read is in flight, the
            # cleanup's AbortCleanup must still reach the home node to
            # clear the RemoteReadBF the request will have registered.
            ctx.node.nic.note_involved_node(ctx.txid, target)
            token = (ctx.owner, "rread", self.next_token())
            message = RdmaReadRequest(ctx.owner, lines=fetch_lines, token=token)
            fetched = yield self.request(ctx.node_id, target, message, token)
            if fetched is TIMED_OUT:
                # Request or reply lost; retry like a conflict (cleanup
                # still reaches the home node: involvement noted above).
                raise SquashedError("request_timeout")
            ctx.remote_cache.update(fetched)
            values.update(fetched)
        return values

    def _execute_write(self, ctx: TxContext, request: Request):
        address, size = self.requested_range(request)
        lines = self.requested_lines(request)
        partial = set(partially_covered_lines(address, size))
        remote_by_node: Dict[int, List[int]] = {}
        for line in lines:
            home = node_of_line(line)
            if home == ctx.node_id:
                yield from self._local_write_line(ctx, line, request.value)
            else:
                remote_by_node.setdefault(home, []).append(line)
        yield from self._remote_write_lines(ctx, remote_by_node, partial,
                                            request.value)

    def _remote_write_lines(self, ctx: TxContext,
                            remote_by_node: Dict[int, List[int]],
                            partial: Set[int], value: object):
        """Remote write path shared with HADES-H (Table II, Remote Write)."""
        for home, node_lines in remote_by_node.items():
            target = self._route_home(ctx, home)
            ctx.node.nic.note_involved_node(ctx.txid, target)
            partial_here = [line for line in node_lines if line in partial
                            and line not in ctx.remote_cache]
            if partial_here:
                # Fetch + BF-register the partially-written edge lines.
                token = (ctx.owner, "rwrite", self.next_token())
                message = RemoteWriteAccessRequest(
                    ctx.owner, all_lines=node_lines,
                    partial_lines=partial_here, token=token)
                fetched = yield self.request(ctx.node_id, target, message,
                                             token)
                if fetched is TIMED_OUT:
                    raise SquashedError("request_timeout")
                ctx.remote_cache.update(fetched)
            # Buffer every written line locally (Module 4b); fully
            # overwritten lines never touch the network until commit.
            # Buffered under the *routed* target so commit-time messages
            # (Intend-to-commit, Validation) follow the same path.
            for line in node_lines:
                ctx.node.nic.buffer_remote_write(ctx.txid, target, line, value)
                ctx.remote_cache[line] = value
            yield ctx.charge_cpu_ns(
                self.config.cycles_to_ns(self.config.hw.bloom_op_cycles))

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit(self, ctx: TxContext):
        node = ctx.node
        hw = self.config.hw
        if ctx.spans is not None:
            # Steps 1-3 — from the partial directory lock through the
            # last Intend-to-commit Ack — are the lock-acquire span.
            ctx.begin_span_phase(SPAN_LOCK_ACQUIRE)
        # Step 1: collect written lines (Fig. 8 search) and partial-lock
        # the local directory.
        yield ctx.charge_cpu(hw.find_llc_tags_cycles)
        write_lines = sorted(node.directory.lines_written_by(ctx.txid))
        yield ctx.charge_cpu(hw.partial_lock_cycles)
        locked = node.directory.try_lock(ctx.owner, ctx.local_state.read_bf,
                                         ctx.local_state.write_bf, write_lines)
        if not locked:
            self.metrics.counters.add("dirlock_failures_local")
            raise SquashedError("dirlock_local")
        ctx.holding_local_dirlock = True

        # Step 2: local writes vs remote transactions' NIC BFs (L-L
        # conflicts were already handled eagerly, so local BFs are not
        # probed here — Table II).
        if write_lines:
            yield ctx.charge_cpu(hw.bloom_op_cycles * max(1, len(write_lines)))
            self._squash_conflicters(node, write_lines,
                                     exclude_owner=ctx.owner,
                                     include_local_bfs=False,
                                     reason="lazy_home")

        # Step 3: Intend-to-commit to every involved remote node.
        involved = sorted(node.nic.involved_nodes(ctx.txid))
        if involved:
            active = self.active_tx(ctx.owner)
            if active is not None:
                active.acks_remaining = len(involved)
                active.any_ack_failed = False
            messages = []
            for remote in involved:
                token = (ctx.owner, "itc", remote)
                messages.append((remote, IntendToCommitMessage(
                    ctx.owner,
                    written_lines=node.nic.writes_for_node(ctx.txid, remote),
                    token=token), token))
            acks = yield self.request_all(ctx.node_id, messages)
            if ctx.squashed:
                raise SquashedError("squashed_during_commit")
            if any(ack is TIMED_OUT for ack in acks):
                # A lost Ack aborts the transaction (Section V); the
                # cleanup's AbortCleanup releases any remote locks the
                # Intend-to-commit did install.
                self.metrics.counters.add("ack_timeouts")
                raise SquashedError("ack_timeout")
            if not all(acks):
                self.metrics.counters.add("dirlock_failures_remote")
                raise SquashedError("dirlock_remote")
        if ctx.squashed:
            raise SquashedError("squashed_during_commit")
        ctx.unsquashable = True
        # Extension hook (replication): make the write set durable on
        # every replica before anything publishes.
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_REPLICATE)
        yield from self._pre_apply(ctx)
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_PUBLISH)

        # Step 4: clear local speculative state; apply the write buffer.
        yield ctx.charge_cpu(hw.find_llc_tags_cycles)
        node.directory.clear_writer_tags(ctx.txid)
        node.llc.clear_tags(ctx.txid)
        if ctx.local_write_buffer:
            node.memory.write_lines(ctx.local_write_buffer)
            self._after_local_apply(ctx)

        # Step 5: Validation + updates to every involved node (no stall).
        for remote in involved:
            updates = node.nic.data_payload(ctx.txid, remote)
            self.send(ctx.node_id, remote,
                      ValidationMessage(ctx.owner, updates=updates))

        # Step 6: unlock and release all local state.
        node.directory.unlock(ctx.owner)
        ctx.holding_local_dirlock = False
        node.release_local_tx(ctx.txid)
        node.nic.clear_local(ctx.txid)
        ctx.private_filter.clear()
        # Steps 4-6 run without suspension points, so a node crash can
        # never interleave with a half-published commit; once this flag
        # is set the whole publish happened.
        ctx.applied = True

    def _after_local_apply(self, ctx: TxContext) -> None:
        """Hook: HADES-H bumps record versions for its software readers.

        Pure HADES has no versions (Table I row 2), so this is a no-op.
        """

    def _pre_apply(self, ctx: TxContext):
        """Hook: runs once the attempt is unsquashable (all Acks in) and
        before any write publishes.  The replication extension persists
        replica temporaries here, making "all replica copies durable"
        the crash-recovery commit point.  No-op by default.
        """
        return
        yield  # pragma: no cover - makes this a generator

    def _route_home(self, ctx: TxContext, home: int) -> int:
        """Hook: the node a remote access to ``home`` is sent to.

        Identity by default; the replicated protocol reroutes accesses
        homed on a node its membership view believes dead to a surviving
        replica (docs/RECOVERY.md).
        """
        return home

    def context_switch(self, node_id: int, slot: int) -> None:
        """Model an OS context switch on a transaction slot (Section VI).

        The Module 1 filter bits in the private caches are cleared —
        subsequent accesses by the (resumed) transaction must go back to
        the directory for conflict checks — but the WrTX_ID tags in the
        LLC and the transaction's BFs stay in place, so the transaction
        is *not* squashed.
        """
        node = self.cluster.node(node_id)
        node.private_filters[slot].clear()
        self.metrics.counters.add("context_switches")

    def _squash_conflicters(self, node: Node, lines, exclude_owner=None,
                            include_local_bfs: Optional[bool] = None,
                            reason: str = "lazy") -> None:
        """Probe every BF at ``node`` for ``lines`` and squash the hits.

        The shared conflict-detection step of Table II commit processing,
        also used when a pessimistic transaction installs its directory
        locks (its writes bypass eager detection, so concurrent
        optimistic readers must be squashed here).
        """
        lines = list(lines)
        if not lines:
            return
        if include_local_bfs is None:
            include_local_bfs = self.check_local_bfs_at_remote
        remote_result = node.nic.check_remote_conflicts(lines,
                                                        exclude=exclude_owner)
        self.metrics.counters.add("conflict_checks", remote_result.checks)
        self.metrics.counters.add("conflict_false_positives",
                                  remote_result.false_positive_hits)
        for victim in remote_result.conflicting_owners:
            self._send_squash(node.node_id, victim, f"{reason}_rr")
        if include_local_bfs:
            exclude_txid = (exclude_owner[1]
                            if exclude_owner and exclude_owner[0] == node.node_id
                            else None)
            local_result = node.check_local_conflicts(lines,
                                                      exclude=exclude_txid)
            self.metrics.counters.add("conflict_checks", local_result.checks)
            self.metrics.counters.add("conflict_false_positives",
                                      local_result.false_positive_hits)
            for txid in local_result.conflicting_txids:
                self._send_squash(node.node_id, (node.node_id, txid),
                                  f"{reason}_lr")

    def _send_squash(self, from_node: int, victim: Owner, reason: str) -> None:
        """Deliver a squash to ``victim`` (locally or over the fabric)."""
        self.metrics.counters.add("squash_requests")
        if self.tracer is not None:
            self.tracer.protocol_point(self.engine.now, "squash_request",
                                       from_node, victim=list(victim),
                                       reason=reason)
        if victim[0] == from_node:
            self.squash(victim, reason)
        else:
            self.send(from_node, victim[0],
                      SquashMessage((from_node, 0), victim=victim,
                                    reason=reason))

    # ------------------------------------------------------------------
    # cleanup after squash
    # ------------------------------------------------------------------

    def _cleanup_after_squash(self, ctx: TxContext):
        node = ctx.node
        node.directory.clear_writer_tags(ctx.txid)
        node.llc.invalidate_tags(ctx.txid)
        if getattr(ctx, "holding_local_dirlock", False):
            node.directory.unlock(ctx.owner)
            ctx.holding_local_dirlock = False
        involved = set(node.nic.involved_nodes(ctx.txid))
        # A pessimistic attempt may hold remote directory locks beyond
        # its NIC-recorded footprint.
        for node_id in getattr(ctx, "pessimistic_locked_nodes", ()):  # pragma: no cover
            if node_id != ctx.node_id:
                involved.add(node_id)
        for remote in involved:
            self.send(ctx.node_id, remote, AbortCleanupMessage(ctx.owner))
        node.nic.clear_local(ctx.txid)
        node.release_local_tx(ctx.txid)
        if getattr(ctx, "private_filter", None) is not None:
            ctx.private_filter.clear()
        self.replies.abandon_owner(ctx.owner)
        yield ctx.charge_cpu(self.config.hw.find_llc_tags_cycles)

    # ------------------------------------------------------------------
    # pessimistic fallback (Section VI)
    # ------------------------------------------------------------------

    def _pessimistic_attempt(self, ctx: TxContext, requests,
                             footprint: List[int]):
        """Lock every footprint directory up front, then run conflict-free.

        All lines of every footprint record are write-locked ("it gets
        all permissions", Section VI), so the execution below cannot
        conflict with anything.
        """
        self._init_attempt_state(ctx)
        footprint_set = set(footprint)
        lock_lines: Dict[int, List[int]] = {}
        for record_id in footprint:
            for line in self.descriptor(record_id).lines:
                lock_lines.setdefault(node_of_line(line), []).append(line)
        involved = sorted(lock_lines)
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_LOCK_ACQUIRE)

        # Acquire directory locks in node-id order; on any failure,
        # release everything and retry after a backoff (never hold a
        # partial lock while waiting for another — no convoys).
        while True:
            acquired: List[int] = []
            success = True
            for node_id in involved:
                writes = sorted(lock_lines[node_id])
                granted = yield from self._try_directory_lock(ctx, node_id,
                                                              [], writes)
                if granted is TIMED_OUT:
                    # The grant may have landed with only the reply
                    # lost: release defensively before retrying (the
                    # remote unlock is owner-keyed and tolerant).
                    self.metrics.counters.add("dirlock_timeouts")
                    self._release_directory_lock(ctx, node_id)
                if not granted:
                    success = False
                    break
                acquired.append(node_id)
            if success:
                break
            for node_id in acquired:
                self._release_directory_lock(ctx, node_id)
            self.metrics.counters.add("pessimistic_lock_retries")
            lock_backoff = BLOCKED_RETRY_NS * 8 * (1.0 + self.rng.random())
            self.note_retry_wait(lock_backoff)
            yield lock_backoff
        ctx.pessimistic_locked_nodes = list(involved)
        ctx.holding_local_dirlock = ctx.node_id in involved
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_EXECUTE)

        # Execute with all permissions held.
        buffered_remote: Dict[int, Dict[int, object]] = {}
        for request in requests:
            ctx.touched_records.add(request.record_id)
            if request.record_id not in footprint_set:
                # The body reached outside the learned footprint: widen
                # and retry (cleanup releases every directory lock).
                self.metrics.counters.add("pessimistic_footprint_misses")
                raise SquashedError("footprint_miss")
            work = request.work_cycles
            yield ctx.charge_cpu(work if work is not None
                                 else self.config.cost.request_work_cycles)
            lines = self.requested_lines(request)
            if request.is_write:
                for line in lines:
                    home = node_of_line(line)
                    if home == ctx.node_id:
                        ctx.local_write_buffer[line] = request.value
                    else:
                        buffered_remote.setdefault(home, {})[line] = request.value
                    ctx.remote_cache[line] = request.value
                continue
            values = {}
            remote_fetch: Dict[int, List[int]] = {}
            for line in lines:
                home = node_of_line(line)
                if home == ctx.node_id:
                    yield ctx.charge_cpu_ns(self._local_line_ns)
                    values[line] = self._local_value(ctx, line)
                elif line in ctx.remote_cache:
                    values[line] = ctx.remote_cache[line]
                else:
                    remote_fetch.setdefault(home, []).append(line)
            for home, fetch in remote_fetch.items():
                token = (ctx.owner, "pread", self.next_token())
                fetched = yield self.request(
                    ctx.node_id, home,
                    RdmaReadRequest(ctx.owner, lines=fetch, token=token),
                    token)
                if fetched is TIMED_OUT:
                    # Cleanup releases every directory lock held so far.
                    raise SquashedError("request_timeout")
                ctx.remote_cache.update(fetched)
                values.update(fetched)
            ctx.read_results.append(values)

        ctx.begin_phase(PHASE_VALIDATION)
        # Extension hook (e.g. replication) before the writes publish.
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_REPLICATE)
        yield from self._pre_pessimistic_publish(ctx, buffered_remote)
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_PUBLISH)
        # Apply local writes, push remote writes, release every lock.
        if ctx.local_write_buffer:
            ctx.node.memory.write_lines(ctx.local_write_buffer)
            ctx.node.memory.bump_versions_for_lines(ctx.local_write_buffer)
        for node_id in involved:
            if node_id == ctx.node_id:
                ctx.node.directory.unlock(ctx.owner)
                ctx.holding_local_dirlock = False
            else:
                self.send(ctx.node_id, node_id,
                          ValidationMessage(ctx.owner,
                                            updates=buffered_remote.get(
                                                node_id, {})))
        ctx.pessimistic_locked_nodes = []
        ctx.node.release_local_tx(ctx.txid)
        ctx.node.nic.clear_local(ctx.txid)
        # The publish above has no suspension points after the pre-hook's
        # last yield — crash-atomic, like the optimistic commit.
        ctx.applied = True

    def _pre_pessimistic_publish(self, ctx: TxContext,
                                 buffered_remote: Dict[int, Dict[int, object]]):
        """Hook: runs after a pessimistic attempt's locks are all held
        and the body finished, before the writes publish.  The
        replication extension persists replicas here.  No-op by default.
        """
        return
        yield  # pragma: no cover - makes this a generator

    def _try_directory_lock(self, ctx: TxContext, node_id: int,
                            reads: List[int], writes: List[int]):
        """Single lock attempt; returns True on success."""
        if node_id == ctx.node_id:
            yield ctx.charge_cpu(self.config.hw.partial_lock_cycles)
            read_bf, write_bf = snapshot_filters(reads, writes)
            granted = ctx.node.directory.try_lock(ctx.owner, read_bf, write_bf,
                                                  writes)
            if granted:
                # A pessimistic write bypasses eager detection: squash
                # any optimistic transaction that already touched these
                # lines (same checks as a normal commit).
                self._squash_conflicters(ctx.node, writes,
                                         exclude_owner=ctx.owner,
                                         include_local_bfs=(
                                             self.check_local_bfs_at_remote),
                                         reason="pessimistic")
            return granted
        token = (ctx.owner, "plock", node_id, self.next_token())
        granted = yield self.request(
            ctx.node_id, node_id,
            DirectoryLockRequest(ctx.owner, read_lines=reads,
                                 write_lines=writes, token=token),
            token)
        # Returned raw: TIMED_OUT is falsy but callers distinguish it
        # from a denial (a lost grant needs a defensive release).
        return granted

    def _release_directory_lock(self, ctx: TxContext, node_id: int) -> None:
        if node_id == ctx.node_id:
            ctx.node.directory.unlock(ctx.owner)
        else:
            self.send(ctx.node_id, node_id, AbortCleanupMessage(ctx.owner))

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------

    def _handle_message(self, node_id: int, src: int, message: Message):
        node = self.cluster.node(node_id)
        if isinstance(message, ReplyMessage):
            self.replies.resolve(message.token, message.payload)
        elif isinstance(message, AckMessage):
            self._handle_ack(message)
        elif isinstance(message, RdmaReadRequest):
            return self._serve_remote_read(node, src, message)
        elif isinstance(message, RemoteWriteAccessRequest):
            return self._serve_remote_write_access(node, src, message)
        elif isinstance(message, IntendToCommitMessage):
            return self._serve_intend_to_commit(node, src, message)
        elif isinstance(message, ValidationMessage):
            self._serve_validation(node, message)
        elif isinstance(message, SquashMessage):
            self.squash(message.victim, message.reason)
        elif isinstance(message, AbortCleanupMessage):
            node.directory.unlock(message.owner)
            node.nic.clear_remote(message.owner)
        elif isinstance(message, DirectoryLockRequest):
            self._serve_directory_lock(node, src, message)
        else:
            raise TypeError(f"{self.name} cannot handle "
                            f"{type(message).__name__}")
        return None

    def _handle_ack(self, message: AckMessage) -> None:
        """Ack bookkeeping happens at arrival time (NIC), closing the
        squash/Ack race: once the last successful Ack is in, the attempt
        is unsquashable even before the coordinator process resumes."""
        active = self.active_tx(message.owner)
        if active is not None:
            active.acks_remaining -= 1
            if not message.success:
                active.any_ack_failed = True
            if active.acks_remaining == 0 and not active.any_ack_failed:
                active.ctx.unsquashable = True
        self.replies.resolve(message.token, message.success)

    def _serve_remote_read(self, node: Node, src: int,
                           message: RdmaReadRequest):
        """Remote read: BF-register the lines, spin past partial locks,
        return the data.

        The BF insert happens synchronously at delivery (Table II orders
        the insert before the fetch), so an AbortCleanup arriving during
        the spin still observes — and clears — the registration.
        """
        node.nic.record_remote_read(message.owner, message.lines)
        for _ in range(MAX_BLOCKED_RETRIES):
            if not node.directory.any_read_blocked(message.lines,
                                                   message.owner):
                break
            yield BLOCKED_RETRY_NS
        values = node.memory.read_lines(message.lines)
        self.send(node.node_id, src,
                  ReplyMessage(message.owner, token=message.token,
                               payload=values,
                               payload_bytes=64 * len(values)))

    def _serve_remote_write_access(self, node: Node, src: int,
                                   message: RemoteWriteAccessRequest):
        """Remote write: BF-register partial lines, return their data.

        As with reads, the BF insert is synchronous at delivery.
        """
        node.nic.record_remote_write(message.owner, message.partial_lines)
        for _ in range(MAX_BLOCKED_RETRIES):
            if not node.directory.any_write_blocked(message.all_lines,
                                                    message.owner):
                break
            yield BLOCKED_RETRY_NS
        values = node.memory.read_lines(message.partial_lines)
        self.send(node.node_id, src,
                  ReplyMessage(message.owner, token=message.token,
                               payload=values,
                               payload_bytes=64 * len(values)))

    def _serve_intend_to_commit(self, node: Node, src: int,
                                message: IntendToCommitMessage):
        """Remote-node commit steps 1-3 of Table II."""
        owner = message.owner
        # The NIC mutates its state synchronously at message delivery —
        # before any modeled delay — so a later AbortCleanup from the
        # same coordinator (FIFO per src->dst) always observes it.
        #
        # Fold the exact written addresses from the message into the
        # write BF before locking: fully-overwritten lines were never
        # BF-registered during execution (Table II, Remote Write), but
        # the commit window must block readers of those lines too.
        node.nic.record_remote_write(owner, message.written_lines)
        state = node.nic.remote_state(owner)
        locked = node.directory.try_lock(owner, state.read_bf, state.write_bf,
                                         message.written_lines)
        yield self.config.cycles_to_ns(self.config.hw.partial_lock_cycles)
        if not locked:
            self.send(node.node_id, src,
                      AckMessage(owner, success=False, token=message.token))
            return
        # Step 2: conflicts on this node's data against everyone else.
        if message.written_lines:
            self._squash_conflicters(node, message.written_lines,
                                     exclude_owner=owner, reason="lazy")
            yield self.config.cycles_to_ns(
                self.config.hw.bloom_op_cycles * len(message.written_lines))
        # Step 3: Ack; Validation will arrive next.
        self.send(node.node_id, src,
                  AckMessage(owner, success=True, token=message.token))

    def _serve_validation(self, node: Node, message: ValidationMessage) -> None:
        """Remote-node commit steps 4-5: push updates, release state."""
        if message.updates:
            node.memory.write_lines(message.updates)
            node.memory.bump_versions_for_lines(message.updates)
        node.directory.unlock(message.owner)
        node.nic.clear_remote(message.owner)

    def _serve_directory_lock(self, node: Node, src: int,
                              message: DirectoryLockRequest) -> None:
        read_bf, write_bf = snapshot_filters(message.read_lines,
                                             message.write_lines)
        granted = node.directory.try_lock(message.owner, read_bf, write_bf,
                                          message.write_lines)
        if granted:
            # Same conflict sweep a committing transaction performs: the
            # pessimistic writer must squash optimistic readers/writers
            # of these lines (their BFs are the only record of them).
            self._squash_conflicters(node, message.write_lines,
                                     exclude_owner=message.owner,
                                     reason="pessimistic")
        self.send(node.node_id, src,
                  ReplyMessage(message.owner, token=message.token,
                               payload=granted, payload_bytes=8))
