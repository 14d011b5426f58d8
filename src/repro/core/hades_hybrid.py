"""HADES-H: the hybrid hardware/software protocol (Section V-D).

Local operations run in **software** exactly like SW-Impl: record
granularity over augmented records, Read/Write sets, version checks, a
read-atomicity check on every local record read, and a *Local
Validation* (version re-reads) before the commit can finish.  Remote
operations run in **hardware** exactly like HADES: cache-line
granularity through the NIC's remote BFs.

Of the Fig. 5 hardware, only the NIC modules (4a, 4b) and the partial
directory-locking primitive remain.  At commit time the software hands
the local record addresses to the NIC, which builds the equivalent of a
LocalReadBF/LocalWriteBF pair and installs it in a Locking Buffer;
remote nodes processing the Intend-to-commit cannot probe local
transactions (they have no BFs — ``check_local_bfs_at_remote = False``),
so local conflicts surface in each local transaction's own Local
Validation instead.
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.record import RecordDescriptor
from repro.core.api import Request, SquashedError
from repro.core.baseline import (
    LOCK_POLL_NS,
    MAX_READ_RETRIES,
    ReadSetEntry,
    WriteSetEntry,
)
from repro.core.hades import BLOCKED_RETRY_NS, HadesProtocol
from repro.core.txn import (
    CATEGORY_CONFLICT_DETECTION,
    CATEGORY_MANAGE_SETS,
    CATEGORY_OTHER,
    CATEGORY_RD_BEFORE_WR,
    CATEGORY_READ_ATOMICITY,
    CATEGORY_UPDATE_VERSION,
    TxContext,
)
from repro.hardware.directory import snapshot_filters
from repro.obs.spans import SPAN_PUBLISH, SPAN_VALIDATE


class HadesHybridProtocol(HadesProtocol):
    """HADES-H: software local operations, hardware remote operations."""

    name = "hades-h"
    squashable = True
    check_local_bfs_at_remote = False  # local transactions have no BFs

    # ------------------------------------------------------------------
    # attempt (the loop is ProtocolBase._attempt)
    # ------------------------------------------------------------------

    def _init_attempt_state(self, ctx: TxContext) -> None:
        # No Module 3 BF pair and no Module 1 filter bits: the processor
        # hardware is eliminated (Section V-D).
        ctx.local_state = None
        ctx.private_filter = None
        ctx.read_set = {}
        ctx.write_set = {}
        ctx.remote_cache = {}
        ctx.local_write_buffer = {}
        ctx.holding_local_dirlock = False

    # -- execution: software for local records, hardware for remote ones --

    def _execute_read(self, ctx: TxContext, request: Request):
        record_id = request.record_id
        descriptor = self.descriptor(record_id)
        if descriptor.home_node != ctx.node_id:
            # Remote: HADES' line-granularity read through the NIC BFs.
            values: Dict[int, object] = {}
            to_fetch = []
            for line in self.requested_lines(request):
                if line in ctx.remote_cache:
                    yield ctx.charge_cpu_ns(self._l1_ns)
                    values[line] = ctx.remote_cache[line]
                else:
                    to_fetch.append(line)
            if to_fetch:
                fetched = yield from self._fetch_remote_reads(
                    ctx, {descriptor.home_node: to_fetch})
                values.update(fetched)
            return values
        # Local: SW-Impl's record-granularity read through the Read Set.
        if record_id in ctx.write_set:
            yield ctx.charge_cpu(10, CATEGORY_MANAGE_SETS)
            base = (ctx.read_set[record_id].values
                    if record_id in ctx.read_set else {})
            return {**base, **ctx.write_set[record_id].pending}
        if record_id not in ctx.read_set:
            yield from self._local_record_into_read_set(ctx, descriptor,
                                                        CATEGORY_OTHER)
        else:
            yield ctx.charge_cpu(5, CATEGORY_OTHER)
        return ctx.read_set[record_id].values

    def _execute_write(self, ctx: TxContext, request: Request):
        record_id = request.record_id
        descriptor = self.descriptor(record_id)
        if descriptor.home_node != ctx.node_id:
            # Remote: HADES' write, buffered in the NIC (Module 4b).
            yield from super()._execute_write(ctx, request)
            return
        # Local: SW-Impl's write, read before written into the Write Set.
        entry = ctx.write_set.get(record_id)
        if entry is None:
            if record_id not in ctx.read_set:
                yield from self._local_record_into_read_set(
                    ctx, descriptor, CATEGORY_RD_BEFORE_WR)
            entry = WriteSetEntry(descriptor,
                                  ctx.read_set[record_id].version)
            ctx.write_set[record_id] = entry
            yield ctx.charge_cpu(self.config.cost.write_set_insert_cycles,
                                 CATEGORY_MANAGE_SETS)
            yield ctx.charge_cpu_ns(
                self.config.copy_ns(descriptor.data_bytes),
                CATEGORY_MANAGE_SETS)
        else:
            yield ctx.charge_cpu(20, CATEGORY_MANAGE_SETS)
        for line in self.requested_lines(request):
            entry.pending[line] = request.value

    def _local_record_into_read_set(self, ctx: TxContext,
                                    descriptor: RecordDescriptor,
                                    data_category: str):
        """SW-Impl-style local record read: whole record + atomicity check.

        Loads go through the LLC, so a partial directory lock held by a
        committing transaction stalls the access.
        """
        cost = self.config.cost
        directory = ctx.node.directory
        owner = ctx.owner
        for _retry in range(MAX_READ_RETRIES):
            for _spin in range(256):
                if not directory.any_read_blocked(descriptor.lines, owner):
                    break
                self.metrics.counters.add("directory_block_spins")
                yield BLOCKED_RETRY_NS
            access_ns = (self._local_line_ns
                         * descriptor.line_count)
            yield ctx.charge_cpu_ns(access_ns, data_category)
            yield ctx.charge_cpu(
                cost.read_atomicity_per_line_cycles * descriptor.line_count,
                CATEGORY_READ_ATOMICITY)
            yield ctx.charge_cpu_ns(self.config.copy_ns(descriptor.data_bytes),
                                    CATEGORY_READ_ATOMICITY)
            # Snapshot version, consistency, and data in one instant —
            # a version sampled after a suspension could belong to a
            # *newer* record state than the values (lost-update hazard).
            meta = ctx.node.memory.metadata(descriptor.address)
            version = meta.version
            consistent = meta.lines_consistent()
            values = ctx.node.memory.read_lines(descriptor.lines)
            if not consistent:
                self.metrics.counters.add("hybrid_torn_reads")
                self.trace_point(ctx, "torn_read",
                                 record=descriptor.record_id)
                yield LOCK_POLL_NS
                continue
            yield ctx.charge_cpu(cost.read_set_insert_cycles,
                                 CATEGORY_MANAGE_SETS)
            ctx.read_set[descriptor.record_id] = ReadSetEntry(
                descriptor, version, values)
            return
        raise SquashedError("read_retries_exhausted")

    # ------------------------------------------------------------------
    # commit (Section V-D): HADES' _commit with the local phases in software
    # ------------------------------------------------------------------

    def _lock_local_directory(self, ctx: TxContext):
        """Partial-lock the local directory with BFs built from the
        Read and Write Sets, then sweep the NIC's remote BFs."""
        node = ctx.node
        cost = self.config.cost
        # Software hands the local record addresses to the NIC, which
        # builds the equivalent of LocalReadBF/LocalWriteBF.
        local_read_lines: List[int] = []
        local_write_lines: List[int] = []
        for entry in ctx.read_set.values():
            local_read_lines.extend(entry.descriptor.lines)
        for entry in ctx.write_set.values():
            local_write_lines.extend(entry.descriptor.lines)
        record_count = len(ctx.read_set) + len(ctx.write_set)
        if record_count:
            yield ctx.charge_cpu(cost.batch_message_cycles
                                 + 10 * record_count,
                                 CATEGORY_CONFLICT_DETECTION)
        read_bf, write_bf = snapshot_filters(local_read_lines,
                                             local_write_lines)

        # Partial-lock the local directory.
        yield ctx.charge_cpu(self.config.hw.partial_lock_cycles,
                             CATEGORY_CONFLICT_DETECTION)
        if not node.directory.try_lock(ctx.owner, read_bf, write_bf,
                                       sorted(set(local_write_lines))):
            self.metrics.counters.add("dirlock_failures_local")
            raise SquashedError("dirlock_local")
        ctx.holding_local_dirlock = True

        # L-R conflicts: local writes vs the NIC's remote BFs.
        if local_write_lines:
            self._squash_conflicters(node, set(local_write_lines),
                                     exclude_owner=ctx.owner,
                                     include_local_bfs=False,
                                     reason="lazy_home")

    def _intend_to_commit(self, ctx: TxContext):
        """HADES' Intend-to-commit round, its wait charged to conflict
        detection; remote nodes check R-R conflicts only (local
        transactions have no BFs)."""
        started = self.engine.now
        involved = yield from super()._intend_to_commit(ctx)
        if involved:
            ctx.attribute_wait(self.engine.now - started,
                               CATEGORY_CONFLICT_DETECTION)
        return involved

    def _apply_local_writes(self, ctx: TxContext):
        """Local Validation (software), then merge the Write Set."""
        node = ctx.node
        cost = self.config.cost
        # Local Validation (software): re-read every local record in the
        # Read and Write sets and compare versions.
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_VALIDATE)
        for entry in ctx.read_set.values():
            yield ctx.charge_cpu_ns(self._local_line_ns,
                                    CATEGORY_CONFLICT_DETECTION)
            yield ctx.charge_cpu(cost.version_compare_cycles,
                                 CATEGORY_CONFLICT_DETECTION)
            meta = node.memory.metadata(entry.descriptor.address)
            if meta.version != entry.version:
                self.metrics.counters.add("hybrid_local_validation_failures")
                self.trace_point(ctx, "local_validation_failure",
                                 record=entry.descriptor.record_id)
                raise SquashedError("local_validation")
        if ctx.spans is not None:
            ctx.begin_span_phase(SPAN_PUBLISH)

        # Merge local updates while the partial lock blocks readers.
        # Charge all the CPU work first, then install in one yield-free
        # region: a node crash lands only at suspension points, so the
        # publish below is all-or-nothing (docs/RECOVERY.md).
        for entry in ctx.write_set.values():
            yield ctx.charge_cpu(cost.update_version_cycles,
                                 CATEGORY_UPDATE_VERSION)
            yield ctx.charge_cpu_ns(
                self.config.copy_ns(entry.descriptor.data_bytes),
                CATEGORY_MANAGE_SETS)
        for entry in ctx.write_set.values():
            meta = node.memory.metadata(entry.descriptor.address)
            meta.begin_write()
            node.memory.write_lines(entry.pending)
            meta.complete_write()

    def _teardown_charge(self, ctx: TxContext) -> float:
        # Set teardown, as in SW-Impl.
        return ctx.charge_cpu(30, CATEGORY_MANAGE_SETS)
