"""Shared protocol machinery: retry loop, attempt loop, squash delivery,
messaging.

Every protocol executes transactions through the same driver
(:meth:`ProtocolBase.execute`): run an attempt; on a squash, clean up
distributed state, back off, and retry; after
``config.livelock.squash_threshold`` consecutive squashes fall back to
the protocol's pessimistic mode (Section VI, "Protocol Deadlock and
Livelock Issues" — the FaRM strategy of taking all permissions up
front).

Every optimistic attempt runs the same loop (:meth:`ProtocolBase._attempt`):
set up, execute each request, then validate and publish.  A protocol
supplies only the phases — ``_init_attempt_state``, ``_execute_read``,
``_execute_write`` and ``_commit``.  Every pessimistic attempt runs one
loop too (:meth:`ProtocolBase._pessimistic_attempt`), with the phases
``_lock_footprint``, ``_pessimistic_read``, ``_pessimistic_write`` and
``_pessimistic_publish``.

Squash delivery semantics (Section V-A):

* A squash targets one *attempt*, identified by its cluster-unique
  (node, txid) owner.  Retries get fresh txids, so a late squash for a
  dead attempt misses the registry and is counted, not delivered.
* The registry entry is removed at delivery time — each attempt is
  squashed at most once.
* Once the last Intend-to-commit Ack arrives (bookkept at the *NIC
  handler*, i.e. at message-arrival time, not when the coordinator
  process resumes), the attempt is unsquashable and squash attempts are
  ignored — Table II: "After this, i cannot be squashed anymore".
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.address import lines_covering
from repro.cluster.cluster import Cluster
from repro.cluster.record import RecordDescriptor
from repro.core.api import Owner, Request, SquashCause, SquashedError, TxStatus
from repro.core.txn import (
    ActiveTx,
    PHASE_EXECUTION,
    PHASE_VALIDATION,
    TxContext,
)
from repro.net.messages import Message
from repro.obs.spans import (
    SPAN_EXECUTE,
    SPAN_RECOVERY,
    SPAN_RETRY,
    classify_abort,
)
from repro.sim.events import AllOf, Event, Interrupt
from repro.sim.random import DeterministicRandom, exponential_backoff
from repro.sim.stats import RunMetrics
from repro.net.fabric import RequestReplyHelper


class ProtocolBase:
    """Common driver for the three protocols."""

    #: Human-readable name, overridden by subclasses.
    name = "abstract"
    #: Whether transactions of this protocol can be squashed remotely
    #: (Baseline aborts are always detected by the coordinator itself).
    squashable = False

    def __init__(self, cluster: Cluster, metrics: Optional[RunMetrics] = None,
                 seed: int = 1):
        self.cluster = cluster
        self.engine = cluster.engine
        self.config = cluster.config
        self.metrics = metrics if metrics is not None else RunMetrics()
        # Derived latencies are pure functions of the frozen config;
        # caching them here keeps property-chain recomputation (a
        # division per call) out of the per-access hot path.
        self._cycle_ns = self.config.core.cycle_ns
        self._l1_ns = self.config.l1_access_ns()
        self._local_line_ns = self.config.local_line_access_ns()
        self.rng = DeterministicRandom(seed)
        self.replies = RequestReplyHelper(self.engine)
        self.replies.on_timeout = self._note_request_timeout
        #: Optional :class:`~repro.faults.injector.FaultInjector`; the
        #: runner attaches one when a fault plan is active (protocols
        #: consult it for injected replica-persist failures).
        self.faults = None
        #: Optional :class:`~repro.obs.tracer.EventTracer`; every hook
        #: below is behind an ``is not None`` guard so default-off runs
        #: pay one attribute load per transaction event.
        self.tracer = None
        #: Optional :class:`~repro.obs.spans.SpanRecorder`; when
        #: attached, attempts are carved into lifecycle spans and every
        #: abort is classified into the closed taxonomy.  Same
        #: ``is not None`` contract as the tracer: default-off runs pay
        #: one attribute load per attempt.
        self.spans = None
        #: Optional :class:`~repro.recovery.manager.RecoveryManager`;
        #: when attached, clients on a crashed node park instead of
        #: executing, and a ``node_crash`` interrupt resolves via the
        #: recovery outcome rules instead of the plain retry path.
        self.recovery = None
        #: (node, slot) -> the sim process currently running an attempt
        #: there — the kill list for a node crash.  Parked or backing-off
        #: slots are deliberately absent (nothing of theirs to kill).
        self._executing: Dict[Tuple[int, int], object] = {}
        self._active: Dict[Owner, ActiveTx] = {}
        #: (record_id, offset, size) -> covered-lines tuple / byte range.
        #: Record placement is fixed for the life of a cluster, so both
        #: are pure per request shape; cached to keep the descriptor
        #: lookup and range arithmetic out of the per-request hot path.
        self._lines_cache: Dict[Tuple[int, int, Optional[int]], tuple] = {}
        self._range_cache: Dict[Tuple[int, int, Optional[int]],
                                Tuple[int, int]] = {}
        self._token_counter = itertools.count(1)
        for node in cluster.nodes:
            cluster.fabric.register(node.node_id, self._make_handler(node.node_id))

    # ------------------------------------------------------------------
    # public driver
    # ------------------------------------------------------------------

    def execute(self, node_id: int, slot: int, requests, retry_policy=None):
        """Run one transaction to commit; generator returning the final ctx.

        ``requests`` is either a list of :class:`Request` objects, or a
        zero-argument callable returning a *transaction body* generator
        that yields requests and receives each read's line values — the
        interactive form used when a write depends on a read::

            def transfer():
                values = yield read(account)
                balance = values[first_line]
                yield write(account, value=balance - amount)

        Retries on squashes; falls back to the protocol's pessimistic
        mode after the livelock threshold, once a footprint is known (a
        list's up front, an interactive body's learned from the records
        its failed attempts touched).  Records metrics (commit, per-attempt
        aborts, end-to-end latency, committed attempt's phase breakdown
        and overhead categories).

        ``retry_policy`` (open-loop runs only — docs/LOAD.md) is
        consulted after every aborted attempt via ``allow(now_ns,
        attempts)``; a refusal abandons the transaction: the final
        attempt is recorded as ``retry_budget_exhausted`` with no
        backoff draw, and the generator returns None instead of a ctx.
        Crash resolution is exempt — a post-restart resubmission is new
        offered load, not a retry storm.  Closed-loop runs pass None
        and take the exact pre-existing path (no extra rng draws, no
        behaviour change).
        """
        if not callable(requests):
            requests = list(requests)
            footprint = sorted({r.record_id for r in requests})
        else:
            # Interactive body: the footprint is learned from failed
            # attempts, mirroring FaRM's "locks all data that it will
            # need" fallback for transactions it has seen abort.
            footprint = []
        footprint_set = set(footprint)
        first_started = self.engine.now
        attempts = 0
        #: txid of the attempt the next one retries — the causal edge
        #: of the span tree (spans only).
        prev_txid = None
        while True:
            if self.recovery is not None:
                # A crashed node executes nothing: park until restart
                # *and* readmission.  The span from here to attempt
                # start has no other yields, so a slot cannot begin an
                # attempt on a down node.
                yield from self.recovery.wait_while_blocked(node_id)
            ctx = TxContext(self, node_id, self.cluster.next_txid(), slot)
            pessimistic = (attempts >= self.config.livelock.squash_threshold
                           and bool(footprint))
            if self.tracer is not None:
                self.tracer.txn_begin(self.engine.now, node_id, slot,
                                      ctx.txid, attempts, pessimistic)
            if self.squashable and not pessimistic:
                self._register(ctx)
            self._executing[(node_id, slot)] = self.engine.current_process
            try:
                ctx.begin_phase(PHASE_EXECUTION)
                if ctx.spans is not None:
                    ctx.begin_span_phase(SPAN_EXECUTE)
                steps = attempt_requests(requests, ctx.read_results)
                if pessimistic:
                    yield from self._pessimistic_attempt(ctx, steps,
                                                         footprint)
                else:
                    yield from self._attempt(ctx, steps)
            except (SquashedError, Interrupt) as error:
                self._executing.pop((node_id, slot), None)
                self._unregister(ctx)
                footprint_set |= ctx.touched_records
                footprint = sorted(footprint_set)
                if isinstance(error, SquashedError):
                    reason = error.reason
                    yield from self._drain_pending_interrupt(ctx)
                else:
                    cause = error.cause
                    reason = (cause.reason if isinstance(cause, SquashCause)
                              else "interrupt")
                if reason == "node_crash" and self.recovery is not None:
                    outcome = yield from self._resolve_crashed_attempt(
                        ctx, attempts, parent_txid=prev_txid)
                    if outcome:
                        self._record_commit(ctx, first_started, attempts,
                                            pessimistic,
                                            parent_txid=prev_txid)
                        return ctx
                else:
                    denied = (retry_policy is not None and
                              not retry_policy.allow(self.engine.now,
                                                     attempts))
                    yield from self._abort_attempt(
                        ctx, "retry_budget_exhausted" if denied else reason,
                        attempts, parent_txid=prev_txid, backoff=not denied)
                    if denied:
                        return None
                prev_txid = ctx.txid
                attempts += 1
                continue
            self._executing.pop((node_id, slot), None)
            self._unregister(ctx)
            ctx.finish(TxStatus.COMMITTED)
            self._record_commit(ctx, first_started, attempts, pessimistic,
                                parent_txid=prev_txid)
            return ctx

    def squash(self, owner: Owner, reason: str) -> bool:
        """Deliver a squash to ``owner``'s attempt, if still squashable."""
        active = self._active.get(owner)
        if active is None:
            self.metrics.counters.add("squash_stale")
            return False
        if active.ctx.unsquashable:
            self.metrics.counters.add("squash_after_acks_ignored")
            return False
        del self._active[owner]
        active.ctx.note_squash(reason)
        if self.tracer is not None:
            self.tracer.squash_delivered(self.engine.now, active.ctx.node_id,
                                         active.ctx.slot, owner, reason)
        active.process.interrupt(SquashCause(owner, reason))
        self.metrics.counters.add("squash_delivered")
        self.metrics.counters.add(f"squash_reason_{reason}")
        return True

    @property
    def inflight(self) -> int:
        """Squashable transaction attempts currently registered."""
        return len(self._active)

    def trace_point(self, ctx: TxContext, name: str, **args) -> None:
        """Emit a protocol diagnostic event for ``ctx`` (no-op untraced)."""
        if self.tracer is not None:
            self.tracer.protocol_point(self.engine.now, name, ctx.node_id,
                                       slot=ctx.slot, txid=ctx.txid, **args)

    # ------------------------------------------------------------------
    # the optimistic attempt
    # ------------------------------------------------------------------

    def _attempt(self, ctx: TxContext, requests: Iterable[Request]):
        """One optimistic attempt; raises SquashedError on conflict.

        Sets up, charges each request's application work and executes
        it (a read's values go to ``ctx.read_results``), then opens
        Validation and commits.  The phase methods below are the
        protocol's whole say in it.
        """
        self._init_attempt_state(ctx)
        cost = self.config.cost
        yield ctx.charge_cpu(cost.txn_setup_cycles)
        touched = ctx.touched_records
        read_results = ctx.read_results
        default_work = cost.request_work_cycles
        for request in requests:
            touched.add(request.record_id)
            work = request.work_cycles
            yield ctx.charge_cpu(work if work is not None else default_work)
            if request.kind == "write":
                yield from self._execute_write(ctx, request)
            else:
                result = yield from self._execute_read(ctx, request)
                read_results.append(result)
        ctx.begin_phase(PHASE_VALIDATION)
        yield from self._commit(ctx)

    # ------------------------------------------------------------------
    # the pessimistic attempt (livelock fallback, Section VI)
    # ------------------------------------------------------------------

    def _pessimistic_attempt(self, ctx: TxContext,
                             requests: Iterable[Request],
                             footprint: List[int]):
        """Livelock fallback: lock ``footprint`` first, then execute.

        ``footprint`` is the sorted list of record ids to lock up front
        (exact for list specs, learned from prior attempts for
        interactive bodies).  A request outside the footprint raises
        SquashedError("footprint_miss"): the driver widens the footprint
        and retries, and the protocol's cleanup releases the locks.
        With every lock held the attempt is trivially valid, so
        Validation opens straight onto the publish.
        """
        self._init_attempt_state(ctx)
        yield from self._lock_footprint(ctx, footprint)
        footprint_set = set(footprint)
        touched = ctx.touched_records
        read_results = ctx.read_results
        default_work = self.config.cost.request_work_cycles
        for request in requests:
            touched.add(request.record_id)
            if request.record_id not in footprint_set:
                self.metrics.counters.add("pessimistic_footprint_misses")
                raise SquashedError("footprint_miss")
            work = request.work_cycles
            yield ctx.charge_cpu(work if work is not None else default_work)
            if request.kind == "write":
                yield from self._pessimistic_write(ctx, request)
            else:
                result = yield from self._pessimistic_read(ctx, request)
                read_results.append(result)
        ctx.begin_phase(PHASE_VALIDATION)
        yield from self._pessimistic_publish(ctx)
        # The publish ends in a region without suspension points, so a
        # node crash never interleaves with a half-published commit.
        ctx.applied = True

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------

    def _init_attempt_state(self, ctx: TxContext) -> None:
        """Give a fresh attempt its protocol state (sets, buffers)."""
        raise NotImplementedError

    def _execute_read(self, ctx: TxContext, request: Request):
        """Execute one read; returns the values it observed."""
        raise NotImplementedError

    def _execute_write(self, ctx: TxContext, request: Request):
        """Execute one write (buffered until the commit publishes it)."""
        raise NotImplementedError

    def _commit(self, ctx: TxContext):
        """Validate the attempt and publish its writes."""
        raise NotImplementedError

    def _lock_footprint(self, ctx: TxContext, footprint: List[int]):
        """Take every permission on ``footprint`` (pessimistic mode)."""
        raise NotImplementedError

    def _pessimistic_read(self, ctx: TxContext, request: Request):
        """Execute one read under the footprint's locks; returns values."""
        raise NotImplementedError

    def _pessimistic_write(self, ctx: TxContext, request: Request):
        """Buffer one write under the footprint's locks."""
        raise NotImplementedError

    def _pessimistic_publish(self, ctx: TxContext):
        """Publish a pessimistic attempt's writes and release its locks."""
        raise NotImplementedError

    def _cleanup_after_squash(self, ctx: TxContext):
        """Undo any distributed state left by a half-finished attempt."""
        raise NotImplementedError

    def _handle_message(self, node_id: int, src: int, message: Message):
        """Dispatch a delivered message; may return a generator."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # attempt lifecycle internals
    # ------------------------------------------------------------------

    def _register(self, ctx: TxContext) -> None:
        process = self.engine.current_process
        if process is None:
            raise RuntimeError("transactions must run inside a sim process")
        self._active[ctx.owner] = ActiveTx(ctx, process)

    def _unregister(self, ctx: TxContext) -> None:
        self._active.pop(ctx.owner, None)

    def active_tx(self, owner: Owner) -> Optional[ActiveTx]:
        return self._active.get(owner)

    def _drain_pending_interrupt(self, ctx: TxContext):
        """Absorb an in-flight squash interrupt racing a self-squash.

        If the attempt unwound via :class:`SquashedError` while a remote
        squash had already been scheduled (``ctx.squashed`` set by
        :meth:`squash`), the Interrupt is still in the event queue; one
        zero-delay wait absorbs it before cleanup proceeds.
        """
        if not ctx.squashed:
            return
        try:
            yield self.engine.timeout(0.0)
        except Interrupt:
            pass

    def _resolve_crashed_attempt(self, ctx: TxContext, attempts: int = 0,
                                 parent_txid=None):
        """Settle an attempt whose node crashed mid-flight.

        The crash wiped the node's volatile state, so there is nothing
        local to clean up, and the node is dead — it must not send
        cleanup messages either.  The attempt parks until the node is
        readmitted, then settles:

        * If the attempt had already published (``ctx.applied``), or the
          survivors' scrub resolved it as committed (every replica Ack
          was durably recorded — see RecoveryManager), the transaction
          *committed*: re-running it would double-apply.
        * Otherwise it aborted with the crash and the driver retries it,
          modeling the restarted application re-submitting its request.

        Returns True when the attempt committed.
        """
        if ctx.spans is not None:
            # The attempt's own work ended at the crash interrupt; the
            # park-until-readmission wait is its own lifecycle phase.
            ctx.begin_span_phase(SPAN_RECOVERY)
        yield from self.recovery.wait_while_blocked(ctx.node_id)
        if getattr(ctx, "applied", False) or \
                self.recovery.consume_resolved_commit(ctx.owner):
            ctx.finish(TxStatus.COMMITTED)
            return True
        ctx.finish(TxStatus.SQUASHED)
        self._record_abort(ctx, "node_crash", attempts, parent_txid,
                           self.engine.now)
        return False

    def note_retry_wait(self, delay_ns: float) -> None:
        """Attribute a retry-backoff wait to the ``retry_backoff`` span.

        Every wait a transaction spends *deciding to try again* funnels
        through here so retry time is uniformly attributed regardless of
        cause: the between-attempt exponential backoff below covers
        squash, timeout, and fault retries alike, and protocol-internal
        retry backoffs (the pessimistic lock-retry wait in
        ``core/hades.py``) call this instead of silently folding the
        wait into whatever phase was open.  Observation only — never
        advances time or consumes randomness.
        """
        if self.spans is not None and delay_ns > 0:
            self.spans.record_phase(SPAN_RETRY, delay_ns)

    def _abort_attempt(self, ctx: TxContext, reason: str, attempts: int,
                       parent_txid=None, backoff: bool = True):
        ctx.finish(TxStatus.SQUASHED)
        squashed_at = self.engine.now
        yield from self._cleanup_after_squash(ctx)
        # Recorded *after* the cleanup yields: an attempt frozen
        # mid-cleanup at run end must count in none or all of trace,
        # spans and meter, or their abort totals drift apart.  The trace
        # event keeps the squash's own time.
        self._record_abort(ctx, reason, attempts, parent_txid, squashed_at)
        if not backoff:
            # Retry denied (budget exhausted): no backoff draw, so the
            # closed-loop rng stream is untouched by the policy check.
            return
        delay = exponential_backoff(
            self.rng,
            attempt=attempts,
            base_ns=self.config.livelock.backoff_base_ns,
            cap_ns=self.config.livelock.backoff_cap_ns,
        )
        if delay > 0:
            self.note_retry_wait(delay)
            yield delay

    def _record_abort(self, ctx: TxContext, reason: str, attempts: int,
                      parent_txid, squashed_at: float) -> None:
        """Count one aborted attempt in the trace, the spans and the meter."""
        if self.tracer is not None:
            self.tracer.txn_squash(squashed_at, ctx.node_id, ctx.slot,
                                   ctx.txid, reason, ctx.phase_durations)
        if ctx.spans is not None:
            ctx.spans.record_attempt(
                ctx.node_id, ctx.slot, ctx.txid, attempts,
                committed=False, phases=ctx.span_durations,
                reason=reason,
                abort_class=classify_abort(reason, ctx.squash_reason),
                parent_txid=parent_txid)
        self.metrics.meter.abort()
        self.metrics.counters.add("aborts")
        self.metrics.counters.add(f"abort_reason_{reason}")

    def _record_commit(self, ctx: TxContext, first_started: float,
                       attempts: int, pessimistic: bool,
                       parent_txid=None) -> None:
        if self.tracer is not None:
            self.tracer.txn_commit(self.engine.now, ctx.node_id, ctx.slot,
                                   ctx.txid, attempts, ctx.phase_durations)
        if ctx.spans is not None:
            ctx.spans.record_attempt(
                ctx.node_id, ctx.slot, ctx.txid, attempts,
                committed=True, phases=ctx.span_durations,
                parent_txid=parent_txid,
                total_latency_ns=self.engine.now - first_started)
        self.metrics.meter.commit()
        self.metrics.latency.record(self.engine.now - first_started)
        for phase, duration in ctx.phase_durations.items():
            self.metrics.phases.add(phase, duration)
        self.metrics.phases.finish_transaction()
        for category, duration in ctx.category_durations.items():
            self.metrics.overheads.add(category, duration)
        self.metrics.overheads.finish_transaction()
        if attempts:
            self.metrics.counters.add("commits_after_retry")
        if pessimistic:
            self.metrics.counters.add("pessimistic_commits")

    # ------------------------------------------------------------------
    # messaging helpers
    # ------------------------------------------------------------------

    def next_token(self) -> int:
        return next(self._token_counter)

    def _note_request_timeout(self, token) -> None:
        """Reply-helper callback: a request expired without a reply."""
        self.metrics.counters.add("request_timeouts")
        if self.tracer is not None:
            self.tracer.fault(self.engine.now, "request_timeout",
                              token=repr(token))

    def send(self, src: int, dst: int, message: Message) -> None:
        """Fire-and-forget message."""
        self.cluster.fabric.send(src, dst, message)

    def request(self, src: int, dst: int, message: Message, token) -> Event:
        """Send a request whose reply will resolve the returned event."""
        reply = self.replies.expect(token)
        self.cluster.fabric.send(src, dst, message)
        return reply

    def request_all(self, src: int, messages: List[Tuple[int, Message, object]]) -> AllOf:
        """Send several requests in parallel; event fires when all reply."""
        events = [self.request(src, dst, message, token)
                  for dst, message, token in messages]
        return AllOf(self.engine, events)

    def _make_handler(self, node_id: int):
        def handler(src: int, message: Message):
            return self._handle_message(node_id, src, message)

        return handler

    # ------------------------------------------------------------------
    # record helpers
    # ------------------------------------------------------------------

    def descriptor(self, record_id: int) -> RecordDescriptor:
        return self.cluster.record(record_id)

    def requested_lines(self, request: Request) -> Sequence[int]:
        """Cache lines the request's byte range covers (shared tuple —
        callers iterate, never mutate)."""
        key = (request.record_id, request.offset, request.size)
        lines = self._lines_cache.get(key)
        if lines is None:
            descriptor = self.descriptor(request.record_id)
            size = (request.size if request.size is not None
                    else descriptor.data_bytes)
            if request.offset + size > descriptor.data_bytes:
                raise ValueError(
                    f"request range [{request.offset}, {request.offset + size}) "
                    f"exceeds record {record_repr(descriptor)}")
            lines = tuple(lines_covering(descriptor.address + request.offset,
                                         size))
            self._lines_cache[key] = lines
        return lines

    def requested_range(self, request: Request) -> Tuple[int, int]:
        """(byte address, size) of the request within its record."""
        key = (request.record_id, request.offset, request.size)
        span = self._range_cache.get(key)
        if span is None:
            descriptor = self.descriptor(request.record_id)
            size = (request.size if request.size is not None
                    else descriptor.data_bytes)
            span = (descriptor.address + request.offset, size)
            self._range_cache[key] = span
        return span


def record_repr(descriptor: RecordDescriptor) -> str:
    return (f"record {descriptor.record_id} "
            f"({descriptor.data_bytes} B at node {descriptor.home_node})")


def attempt_requests(spec, read_results: list) -> Iterable[Request]:
    """The requests of one attempt of ``spec``, in order.

    A list spec is returned as is.  An interactive body (a zero-argument
    callable returning a generator) is called and driven: after each
    read, the values the protocol appended to ``read_results`` are sent
    back into the body; after a write, None is.
    """
    if callable(spec):
        return _drive_body(spec, read_results)
    return spec


def _drive_body(body, read_results: list):
    requests = body()
    try:
        request = next(requests)
        while True:
            yield request
            request = requests.send(
                None if request.kind == "write" else read_results[-1])
    except StopIteration:
        return
