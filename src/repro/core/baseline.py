"""Baseline protocol: optimized FaRM-style software OCC (*SW-Impl*).

This is the Section III system: record-granularity reads and writes over
augmented records (Fig. 1), Read/Write sets managed in software, and the
three-phase Execution / Validation / Commit protocol of Fig. 2, with the
four published optimizations:

1. lock/unlock operations to remote nodes are **batched** per node
   during validation,
2. commit writes are sent **without serialization**,
3. unlock completions are **not waited for**,
4. the read set is **not locked** during validation (read-only
   transactions never lock anything).

Every software overhead is charged to its Fig. 3 category so the
overhead-breakdown experiment reproduces Section III:

* ``manage_sets`` — Read/Write set bookkeeping and the extra copies
  (into the write set at execution, out of it at commit; the
  non-zero-copy read buffer),
* ``update_version`` — version bumps on written records,
* ``read_atomicity`` — per-line version comparison on every record read,
* ``rd_before_wr`` — reading the whole record before writing it,
* ``conflict_detection`` — locking, lock polling, version re-reads at
  validation, and their round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.record import RecordDescriptor, RecordMetadata
from repro.core.api import Request, SquashedError
from repro.core.base import ProtocolBase
from repro.core.txn import (
    CATEGORY_CONFLICT_DETECTION,
    CATEGORY_MANAGE_SETS,
    CATEGORY_OTHER,
    CATEGORY_RD_BEFORE_WR,
    CATEGORY_READ_ATOMICITY,
    CATEGORY_UPDATE_VERSION,
    PHASE_COMMIT,
    TxContext,
)
from repro.net.fabric import TIMED_OUT
from repro.obs.spans import (
    SPAN_EXECUTE,
    SPAN_LOCK_ACQUIRE,
    SPAN_PUBLISH,
    SPAN_VALIDATE,
)
from repro.net.messages import (
    BatchedLockRequest,
    BatchedUnlockRequest,
    BatchedValidateRequest,
    Message,
    RdmaReadRequest,
    RdmaWriteRequest,
    ReplyMessage,
)

#: Give up after this many consecutive lock-poll / torn-read retries on
#: one record and abort the attempt instead.
MAX_READ_RETRIES = 64
#: Delay between lock polls (ns).
LOCK_POLL_NS = 200.0
#: Remote write application occupies the record for a short window,
#: modeling the torn-read risk that the atomicity check exists for.
APPLY_WINDOW_NS_PER_LINE = 10.0


@dataclass
class ReadSetEntry:
    """One Read Set record: descriptor, observed version, cached data."""

    descriptor: RecordDescriptor
    version: int
    values: Dict[int, object]


@dataclass
class WriteSetEntry:
    """One Write Set record: buffered line updates awaiting commit."""

    descriptor: RecordDescriptor
    version_at_read: int
    pending: Dict[int, object] = field(default_factory=dict)
    #: Record contents observed by the pre-read (read-your-writes base).
    base: Dict[int, object] = field(default_factory=dict)


class BaselineProtocol(ProtocolBase):
    """SW-Impl: the paper's optimized software Baseline."""

    name = "baseline"
    squashable = False  # all aborts are coordinator-detected

    # ------------------------------------------------------------------
    # attempt (the loop is ProtocolBase._attempt)
    # ------------------------------------------------------------------

    def _init_attempt_state(self, ctx: TxContext) -> None:
        ctx.read_set = {}
        ctx.write_set = {}

    # -- execution phase -------------------------------------------------

    def _execute_read(self, ctx: TxContext, request: Request):
        record_id = request.record_id
        read_set, write_set = ctx.read_set, ctx.write_set
        if record_id in write_set:
            # Read-your-writes from the Write Set buffer.
            yield ctx.charge_cpu(10, CATEGORY_MANAGE_SETS)
            entry = write_set[record_id]
            base = (read_set[record_id].values if record_id in read_set
                    else entry.base)
            return {**base, **entry.pending}
        if record_id in read_set:
            yield ctx.charge_cpu(5, CATEGORY_OTHER)
            return read_set[record_id].values
        descriptor = self.descriptor(record_id)
        version, values = yield from self._record_read(ctx, descriptor,
                                                       CATEGORY_OTHER)
        yield ctx.charge_cpu(self.config.cost.read_set_insert_cycles,
                             CATEGORY_MANAGE_SETS)
        read_set[record_id] = ReadSetEntry(descriptor, version, values)
        return values

    def _execute_write(self, ctx: TxContext, request: Request):
        record_id = request.record_id
        read_set, write_set = ctx.read_set, ctx.write_set
        cost = self.config.cost
        descriptor = self.descriptor(record_id)
        entry = write_set.get(record_id)
        if entry is None:
            # Record granularity: the whole record must be read before
            # any part of it is written (Table I row 4 / "RD before WR").
            # The pre-read goes straight into the Write Set buffer — it
            # is not a Read Set entry.
            if record_id in read_set:
                version = read_set[record_id].version
                base = read_set[record_id].values
            else:
                version, base = yield from self._record_read(
                    ctx, descriptor, CATEGORY_RD_BEFORE_WR)
            entry = WriteSetEntry(descriptor, version, base=base)
            write_set[record_id] = entry
            # Buffer the record into the Write Set (first copy).
            yield ctx.charge_cpu(cost.write_set_insert_cycles,
                                 CATEGORY_MANAGE_SETS)
            yield ctx.charge_cpu_ns(self.config.copy_ns(descriptor.data_bytes),
                                    CATEGORY_MANAGE_SETS)
        else:
            yield ctx.charge_cpu(20, CATEGORY_MANAGE_SETS)
        for line in self.requested_lines(request):
            entry.pending[line] = request.value

    def _record_read(self, ctx: TxContext, descriptor: RecordDescriptor,
                     data_category: str):
        """Read a whole record + metadata; returns (version, line values).

        Retries while the record is write-locked or a torn read is
        detected (mixed per-line versions); both polls are the Table I
        row 5 / row 3 overheads.
        """
        for retry in range(MAX_READ_RETRIES):
            if descriptor.home_node == ctx.node_id:
                outcome = yield from self._local_record_read(ctx, descriptor,
                                                             data_category)
            else:
                outcome = yield from self._remote_record_read(ctx, descriptor,
                                                              data_category)
            version, locked, consistent, values = outcome
            if locked:
                # Poll for the lock holder to finish (a CPU spin).
                self.metrics.counters.add("baseline_lock_polls")
                self.trace_point(ctx, "lock_poll",
                                 record=descriptor.record_id)
                yield ctx.charge_cpu_ns(LOCK_POLL_NS,
                                        CATEGORY_CONFLICT_DETECTION)
                continue
            # Read-atomicity check: compare all per-line versions and
            # copy out of the temporary buffer (no zero-copy reads).
            # For a pre-read issued on behalf of a write, all of this
            # cost is part of "RD before WR" (Fig. 3).
            atomicity_category = (CATEGORY_RD_BEFORE_WR
                                  if data_category == CATEGORY_RD_BEFORE_WR
                                  else CATEGORY_READ_ATOMICITY)
            cost = self.config.cost
            yield ctx.charge_cpu(
                cost.read_atomicity_per_line_cycles * descriptor.line_count,
                atomicity_category)
            yield ctx.charge_cpu_ns(self.config.copy_ns(descriptor.data_bytes),
                                    atomicity_category)
            if not consistent:
                self.metrics.counters.add("baseline_torn_reads")
                self.trace_point(ctx, "torn_read",
                                 record=descriptor.record_id)
                continue
            return version, values
        raise SquashedError("read_retries_exhausted")

    def _local_record_read(self, ctx: TxContext, descriptor: RecordDescriptor,
                           data_category: str):
        node = ctx.node
        # Blocking loads: the core is occupied for the memory access.
        access_ns = (self._local_line_ns
                     * descriptor.line_count)
        yield ctx.charge_cpu_ns(access_ns, data_category)
        meta = node.memory.metadata(descriptor.address)
        locked = meta.locked and meta.lock_owner != ctx.owner
        consistent = meta.lines_consistent()
        values = node.memory.read_lines(descriptor.lines)
        return meta.version, locked, consistent, values

    def _remote_record_read(self, ctx: TxContext, descriptor: RecordDescriptor,
                            data_category: str):
        token = (ctx.owner, "read", self.next_token())
        message = RdmaReadRequest(ctx.owner, lines=descriptor.lines,
                                  token=token)
        reply = self.request(ctx.node_id, descriptor.home_node, message, token)
        payload = yield reply
        if payload is TIMED_OUT:
            raise SquashedError("request_timeout")
        return payload  # (version, locked, consistent, values)

    # -- validation phase -------------------------------------------------

    def _lock_write_set(self, ctx: TxContext,
                        write_set: Dict[int, WriteSetEntry]):
        cost = self.config.cost
        local, by_node = self._split_by_home(ctx, write_set.values())
        locked_local: List[RecordMetadata] = []
        for entry in local:
            yield ctx.charge_cpu(cost.cas_cycles, CATEGORY_CONFLICT_DETECTION)
            yield ctx.charge_cpu_ns(self._local_line_ns,
                                    CATEGORY_CONFLICT_DETECTION)
            meta = ctx.node.memory.metadata(entry.descriptor.address)
            # FaRM locks with a CAS on the combined version+lock word:
            # a changed version fails the CAS like a held lock does.
            if (not meta.try_lock(ctx.owner)
                    or meta.version != entry.version_at_read):
                if meta.lock_owner == ctx.owner:
                    meta.unlock(ctx.owner)
                for held in locked_local:
                    held.unlock(ctx.owner)
                raise SquashedError("lock_conflict_local")
            locked_local.append(meta)

        locked_remote: Dict[int, List[int]] = {}
        if by_node:
            messages = []
            for node_id, entries in by_node.items():
                yield ctx.charge_cpu(cost.batch_message_cycles,
                                     CATEGORY_CONFLICT_DETECTION)
                token = (ctx.owner, "lock", node_id)
                addresses = [e.descriptor.address for e in entries]
                locked_remote[node_id] = addresses
                versions = [e.version_at_read for e in entries]
                messages.append((node_id,
                                 BatchedLockRequest(ctx.owner,
                                                    record_addresses=addresses,
                                                    expected_versions=versions,
                                                    token=token),
                                 token))
            results = yield self.request_all(ctx.node_id, messages)
            if not all(results):
                # Failed nodes released their own locks; release the
                # rest explicitly (local CAS + batched remote unlocks).
                # A timed-out node may hold the locks with only the
                # reply lost, so it gets a defensive unlock too (the
                # unlock is owner-keyed and idempotent).
                for held in locked_local:
                    held.unlock(ctx.owner)
                timed_out = any(ok is TIMED_OUT for ok in results)
                to_unlock = [node_id for (node_id, _m, _t), ok
                             in zip(messages, results)
                             if ok or ok is TIMED_OUT]
                for node_id in to_unlock:
                    self.send(ctx.node_id, node_id,
                              BatchedUnlockRequest(
                                  ctx.owner,
                                  record_addresses=locked_remote[node_id]))
                if timed_out:
                    self.metrics.counters.add("lock_timeouts")
                    raise SquashedError("lock_timeout")
                raise SquashedError("lock_conflict_remote")
        ctx.baseline_locked = (locked_local, locked_remote)

    def _validate_read_set(self, ctx: TxContext,
                           read_set: Dict[int, ReadSetEntry],
                           write_set: Dict[int, WriteSetEntry]):
        cost = self.config.cost
        to_check = [entry for record_id, entry in read_set.items()
                    if record_id not in write_set]
        local, by_node = self._split_by_home(ctx, to_check)
        for entry in local:
            yield ctx.charge_cpu(cost.version_compare_cycles,
                                 CATEGORY_CONFLICT_DETECTION)
            yield ctx.charge_cpu_ns(self._local_line_ns,
                                    CATEGORY_CONFLICT_DETECTION)
            meta = ctx.node.memory.metadata(entry.descriptor.address)
            if meta.version != entry.version or (
                    meta.locked and meta.lock_owner != ctx.owner):
                self._release_record_locks(ctx)
                raise SquashedError("validation_conflict_local")
        if by_node:
            messages = []
            for node_id, entries in by_node.items():
                yield ctx.charge_cpu(cost.batch_message_cycles,
                                     CATEGORY_CONFLICT_DETECTION)
                token = (ctx.owner, "validate", node_id)
                messages.append((node_id,
                                 BatchedValidateRequest(
                                     ctx.owner,
                                     record_addresses=[e.descriptor.address
                                                       for e in entries],
                                     token=token),
                                 token))
            results = yield self.request_all(ctx.node_id, messages)
            if any(payload is TIMED_OUT for payload in results):
                self.metrics.counters.add("validation_timeouts")
                self._release_record_locks(ctx)
                raise SquashedError("validation_timeout")
            for (node_id, _m, _t), payload in zip(messages, results):
                entries = by_node[node_id]
                for entry, (version, locked_by_other) in zip(entries, payload):
                    yield ctx.charge_cpu(cost.version_compare_cycles,
                                         CATEGORY_CONFLICT_DETECTION)
                    if version != entry.version or locked_by_other:
                        self._release_record_locks(ctx)
                        raise SquashedError("validation_conflict_remote")

    def _release_record_locks(self, ctx: TxContext) -> None:
        """Release every record lock the attempt holds (no stall).

        ``ctx.baseline_locked`` is (local metadata, {node: addresses}):
        the Write Set's locks once validation locked them, or a
        pessimistic attempt's footprint.
        """
        locked = getattr(ctx, "baseline_locked", None)
        if not locked:
            return
        locked_local, locked_remote = locked
        for meta in locked_local:
            meta.unlock(ctx.owner)
        for node_id, addresses in locked_remote.items():
            self.send(ctx.node_id, node_id,
                      BatchedUnlockRequest(ctx.owner,
                                           record_addresses=addresses))
        ctx.baseline_locked = None

    # -- commit: validation, then publish ----------------------------------

    def _commit(self, ctx: TxContext):
        write_set = ctx.write_set
        if write_set:
            if ctx.spans is not None:
                ctx.begin_span_phase(SPAN_LOCK_ACQUIRE)
            yield from self._lock_write_set(ctx, write_set)
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_VALIDATE)
        yield from self._validate_read_set(ctx, ctx.read_set, write_set)
        ctx.begin_phase(PHASE_COMMIT)
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_PUBLISH)
        cost = self.config.cost
        local, by_node = self._split_by_home(ctx, write_set.values())
        # Charge every CPU cost up front, then publish in one yield-free
        # region: a node crash lands only at suspension points, so the
        # installs + sends below are all-or-nothing (docs/RECOVERY.md).
        for entry in local:
            yield ctx.charge_cpu(cost.update_version_cycles,
                                 CATEGORY_UPDATE_VERSION)
            # Reading the buffered record out of the Write Set (second
            # copy) and writing it to its final location.
            yield ctx.charge_cpu_ns(
                self.config.copy_ns(entry.descriptor.data_bytes),
                CATEGORY_MANAGE_SETS)
            write_ns = (self._local_line_ns
                        * len(entry.pending))
            if write_ns:
                yield ctx.charge_cpu_ns(write_ns, CATEGORY_OTHER)
            yield ctx.charge_cpu(cost.cas_cycles, CATEGORY_CONFLICT_DETECTION)
        remote_batches: List[Tuple[int, Dict[int, object], List[int]]] = []
        for node_id, entries in by_node.items():
            yield ctx.charge_cpu(cost.batch_message_cycles,
                                 CATEGORY_MANAGE_SETS)
            values: Dict[int, object] = {}
            addresses: List[int] = []
            for entry in entries:
                yield ctx.charge_cpu(cost.update_version_cycles,
                                     CATEGORY_UPDATE_VERSION)
                yield ctx.charge_cpu_ns(
                    self.config.copy_ns(entry.descriptor.data_bytes),
                    CATEGORY_MANAGE_SETS)
                values.update(entry.pending)
                addresses.append(entry.descriptor.address)
            remote_batches.append((node_id, values, addresses))
        for entry in local:
            meta = ctx.node.memory.metadata(entry.descriptor.address)
            meta.begin_write()
            ctx.node.memory.write_lines(entry.pending)
            meta.complete_write()
            meta.unlock(ctx.owner)
        for node_id, values, addresses in remote_batches:
            # Optimizations 2 + 3: writes and unlocks are sent without
            # serialization and without stalling for completion.
            self.send(ctx.node_id, node_id,
                      RdmaWriteRequest(ctx.owner, values=values))
            self.send(ctx.node_id, node_id,
                      BatchedUnlockRequest(ctx.owner,
                                           record_addresses=addresses))
        ctx.baseline_locked = None
        ctx.applied = True

    # ------------------------------------------------------------------
    # pessimistic fallback (the loop is ProtocolBase._pessimistic_attempt)
    # ------------------------------------------------------------------

    def _lock_footprint(self, ctx: TxContext, footprint: List[int]):
        """Lock the footprint's records up front, in global record-id order.

        The locks are recorded as they are taken, so a squash at any
        point releases exactly the ones held (in the cleanup).
        """
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_LOCK_ACQUIRE)
        locked_local: List[RecordMetadata] = []
        locked_remote: Dict[int, List[int]] = {}
        ctx.baseline_locked = (locked_local, locked_remote)
        for record_id in footprint:
            descriptor = self.descriptor(record_id)
            yield from self._acquire_record_lock(ctx, descriptor)
            if descriptor.home_node == ctx.node_id:
                locked_local.append(
                    ctx.node.memory.metadata(descriptor.address))
            else:
                locked_remote.setdefault(descriptor.home_node, []).append(
                    descriptor.address)
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_EXECUTE)

    def _pessimistic_read(self, ctx: TxContext, request: Request):
        entry = yield from self._locked_record(ctx, request.record_id)
        merged = dict(entry.values)
        if request.record_id in ctx.write_set:
            merged.update(ctx.write_set[request.record_id].pending)
        return merged

    def _pessimistic_write(self, ctx: TxContext, request: Request):
        read_entry = yield from self._locked_record(ctx, request.record_id)
        entry = ctx.write_set.get(request.record_id)
        if entry is None:
            entry = WriteSetEntry(read_entry.descriptor, read_entry.version)
            ctx.write_set[request.record_id] = entry
        for line in self.requested_lines(request):
            entry.pending[line] = request.value

    def _locked_record(self, ctx: TxContext, record_id: int):
        """The Read Set entry of a record whose lock the attempt holds,
        read from its home on first use."""
        entry = ctx.read_set.get(record_id)
        if entry is None:
            descriptor = self.descriptor(record_id)
            version, _locked, _consistent, values = yield from (
                self._local_record_read(ctx, descriptor, CATEGORY_OTHER)
                if descriptor.home_node == ctx.node_id else
                self._remote_record_read(ctx, descriptor, CATEGORY_OTHER))
            entry = ReadSetEntry(descriptor, version, values)
            ctx.read_set[record_id] = entry
        return entry

    def _pessimistic_publish(self, ctx: TxContext):
        ctx.begin_phase(PHASE_COMMIT)  # trivially valid: all locked
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_PUBLISH)
        local, by_node = self._split_by_home(ctx, ctx.write_set.values())
        for entry in local:
            meta = ctx.node.memory.metadata(entry.descriptor.address)
            meta.begin_write()
            ctx.node.memory.write_lines(entry.pending)
            meta.complete_write()
        for node_id, entries in by_node.items():
            values: Dict[int, object] = {}
            for entry in entries:
                values.update(entry.pending)
            self.send(ctx.node_id, node_id,
                      RdmaWriteRequest(ctx.owner, values=values))
        # Release every lock (local CAS; remote batched, no stall).  The
        # installs, sends and unlocks have no suspension points —
        # crash-atomic like the optimistic commit.
        self._release_record_locks(ctx)
        return
        yield  # pragma: no cover - makes this a generator

    def _acquire_record_lock(self, ctx: TxContext,
                             descriptor: RecordDescriptor):
        """Spin until one record's lock is held (pessimistic mode)."""
        while True:
            if descriptor.home_node == ctx.node_id:
                yield ctx.charge_cpu(self.config.cost.cas_cycles,
                                     CATEGORY_CONFLICT_DETECTION)
                meta = ctx.node.memory.metadata(descriptor.address)
                if meta.try_lock(ctx.owner):
                    return
            else:
                token = (ctx.owner, "plock", self.next_token())
                message = BatchedLockRequest(
                    ctx.owner, record_addresses=[descriptor.address],
                    token=token)
                granted = yield self.request(ctx.node_id,
                                             descriptor.home_node, message,
                                             token)
                if granted is TIMED_OUT:
                    # The CAS may have succeeded with only the grant
                    # lost: release defensively before retrying.
                    self.metrics.counters.add("pessimistic_lock_timeouts")
                    self.send(ctx.node_id, descriptor.home_node,
                              BatchedUnlockRequest(
                                  ctx.owner,
                                  record_addresses=[descriptor.address]))
                elif granted:
                    return
            yield LOCK_POLL_NS

    # ------------------------------------------------------------------
    # cleanup
    # ------------------------------------------------------------------

    def _cleanup_after_squash(self, ctx: TxContext):
        # An optimistic attempt releases its locks inline at the abort
        # site; a pessimistic one still holds its footprint's.
        self._release_record_locks(ctx)
        yield ctx.charge_cpu(30, CATEGORY_MANAGE_SETS)

    # ------------------------------------------------------------------
    # message handlers (home-node side)
    # ------------------------------------------------------------------

    def _handle_message(self, node_id: int, src: int, message: Message):
        node = self.cluster.node(node_id)
        if isinstance(message, ReplyMessage):
            self.replies.resolve(message.token, message.payload)
        elif isinstance(message, RdmaReadRequest):
            self._serve_record_read(node, src, message)
        elif isinstance(message, BatchedLockRequest):
            self._serve_batched_lock(node, src, message)
        elif isinstance(message, BatchedValidateRequest):
            self._serve_batched_validate(node, src, message)
        elif isinstance(message, RdmaWriteRequest):
            return self._serve_write_apply(node, message)
        elif isinstance(message, BatchedUnlockRequest):
            self._serve_batched_unlock(node, message)
        else:
            raise TypeError(f"baseline cannot handle {type(message).__name__}")
        return None

    def _serve_record_read(self, node, src: int,
                           message: RdmaReadRequest) -> None:
        """One-sided read: snapshot meta + data, no remote CPU involved."""
        address = message.lines[0] * 64  # records are line-aligned
        meta = node.memory.metadata(address)
        locked = meta.locked and meta.lock_owner != message.owner
        payload = (meta.version, locked, meta.lines_consistent(),
                   node.memory.read_lines(message.lines))
        self.send(node.node_id, src,
                  ReplyMessage(message.owner, token=message.token,
                               payload=payload,
                               payload_bytes=64 * len(message.lines) + 24))

    def _serve_batched_lock(self, node, src: int,
                            message: BatchedLockRequest) -> None:
        acquired: List[RecordMetadata] = []
        success = True
        expected = (message.expected_versions
                    or [None] * len(message.record_addresses))
        for address, version in zip(message.record_addresses, expected):
            meta = node.memory.metadata(address)
            if not meta.try_lock(message.owner):
                success = False
                break
            if version is not None and meta.version != version:
                meta.unlock(message.owner)
                success = False
                break
            acquired.append(meta)
        if not success:
            for meta in acquired:
                meta.unlock(message.owner)
        self.send(node.node_id, src,
                  ReplyMessage(message.owner, token=message.token,
                               payload=success, payload_bytes=8))

    def _serve_batched_validate(self, node, src: int,
                                message: BatchedValidateRequest) -> None:
        payload = []
        for address in message.record_addresses:
            meta = node.memory.metadata(address)
            locked_by_other = meta.locked and meta.lock_owner != message.owner
            payload.append((meta.version, locked_by_other))
        self.send(node.node_id, src,
                  ReplyMessage(message.owner, token=message.token,
                               payload=payload,
                               payload_bytes=16 * len(payload)))

    def _serve_write_apply(self, node, message: RdmaWriteRequest):
        """Apply remote writes record-by-record with a small torn window."""
        by_record: Dict[int, Dict[int, object]] = {}
        for line, value in message.values.items():
            address = node.memory.record_address_of_line(line)
            by_record.setdefault(address, {})[line] = value
        for address, values in by_record.items():
            meta = node.memory.metadata(address)
            meta.begin_write()
            yield APPLY_WINDOW_NS_PER_LINE * len(values)
            node.memory.write_lines(values)
            meta.complete_write()

    def _serve_batched_unlock(self, node,
                              message: BatchedUnlockRequest) -> None:
        # Idempotent by owner: defensive unlocks after a request timeout
        # may target records the owner never actually locked (or locks
        # another transaction has since acquired) — skip those instead
        # of tripping RecordMetadata's non-owner assertion.  An unlock
        # following the owner's own commit write (same pair, FIFO) may
        # arrive while that write is still applying; unlock_after_apply
        # defers it to complete_write so the lock never clears before
        # the version bump (FaRM's combined version+lock word).
        for address in message.record_addresses:
            meta = node.memory.metadata(address)
            if meta.locked and meta.lock_owner == message.owner:
                meta.unlock_after_apply(message.owner)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _split_by_home(self, ctx: TxContext, entries):
        """Partition set entries into (local, {remote node: entries})."""
        local = []
        by_node: Dict[int, list] = {}
        for entry in entries:
            if entry.descriptor.home_node == ctx.node_id:
                local.append(entry)
            else:
                by_node.setdefault(entry.descriptor.home_node, []).append(entry)
        return local, by_node
