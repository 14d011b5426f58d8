"""The fault injector: one seeded stream, one fate per event.

Determinism contract: the injector owns a private
:class:`~repro.sim.random.DeterministicRandom` stream seeded from the
plan's seed, and is consulted at deterministic points of the simulation
(``Fabric.send`` order for messages, replica-persist order for
persists).  Two runs with the same (plan, workload, seed) therefore
draw identical decisions — same drops, same jitter, same persist
failures — which is what makes fault traces replayable.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import FaultPlan
from repro.net.messages import Message
from repro.sim.random import DeterministicRandom
from repro.sim.stats import Counter

#: Drop reasons the injector reports (and counts by).
DROP_RANDOM = "drop"
DROP_CRASH = "crash"
DROP_CRASH_SENDER = "crash_sender"


class FaultInjector:
    """Decides the fate of messages and replica persists under a plan."""

    def __init__(self, plan: FaultPlan, tracer=None):
        self.plan = plan
        #: Optional :class:`~repro.obs.tracer.EventTracer`; fault
        #: decisions are emitted as category-``fault`` events.
        self.tracer = tracer
        #: Optional :class:`~repro.obs.spans.SpanRecorder` — counts
        #: injected message drops and replica-persist failures for the
        #: span report.  None by default (zero overhead).
        self.spans = None
        self.rng = DeterministicRandom(f"faults:{plan.seed}")
        self.dropped = 0
        self.delayed = 0
        self.persist_failures = 0
        #: Drop counts by reason ("drop" = random loss, "crash" = dead
        #: destination, "crash_sender" = dead source).  An obs-layer
        #: :class:`~repro.sim.stats.Counter`, so fault tables can reuse
        #: ``Counter.top(n)`` formatting.
        self.drops_by_reason = Counter()

    # -- messages ------------------------------------------------------

    def message_fate(self, src: int, dst: int, message: Message,
                     now: float) -> Tuple[Optional[str], float]:
        """(drop reason or None, extra delivery delay in ns).

        Reliable messages (``Message.reliable``) model hardware-retried
        one-way RDMA ops: they are never randomly dropped, only delayed
        — by jitter, by NIC stalls, and (when the *destination* is
        inside a crash window) held by RC retransmission until the
        restart.  A send originating inside the *sender's own* crash
        window is dropped even when reliable: the retransmitting NIC
        crashed with the message, so there is nothing left to retry.
        """
        plan = self.plan
        extra = 0.0
        if plan.delay_jitter_ns:
            extra += self.rng.random() * plan.delay_jitter_ns
        reliable = type(message).reliable
        for window in plan.crashes:
            if not window.start_ns <= now < window.end_ns:
                continue
            if window.node == src:
                # A crashed sender cannot retransmit; even reliable
                # traffic dies with its NIC.
                return self._drop(DROP_CRASH_SENDER, src, dst, message, now)
            if window.node == dst:
                if not reliable:
                    return self._drop(DROP_CRASH, src, dst, message, now)
                # Held by RC retransmission until the restart.
                extra = max(extra, window.end_ns - now)
        if plan.drop_probability and not reliable:
            if self.rng.random() < plan.drop_probability:
                return self._drop(DROP_RANDOM, src, dst, message, now)
        for window in plan.nic_stalls:
            if window.node in (src, dst) and \
                    window.start_ns <= now < window.end_ns:
                extra = max(extra, window.end_ns - now)
        if extra > 0.0:
            self.delayed += 1
        return None, extra

    def _drop(self, reason: str, src: int, dst: int, message: Message,
              now: float) -> Tuple[str, float]:
        self.dropped += 1
        self.drops_by_reason.add(reason)
        if self.tracer is not None:
            # ``bytes`` lets the tracer's message fold count a drop as a
            # send the NIC serialized (EventTracer.message_rows).
            self.tracer.fault(now, "message_drop", reason=reason,
                              msg=type(message).__name__,
                              bytes=message.size_bytes(), src=src, dst=dst,
                              owner=list(message.owner))
        if self.spans is not None:
            self.spans.record_fault_drop(reason)
        return reason, 0.0

    # -- replica persists ----------------------------------------------

    def replica_persist_fails(self, node: int, owner, now: float) -> bool:
        """True when this replica persist must report failure."""
        rate = self.plan.replica_persist_fail_rate
        if not rate or self.rng.random() >= rate:
            return False
        self.persist_failures += 1
        if self.spans is not None:
            self.spans.record_fault_drop("replica_persist")
        if self.tracer is not None:
            self.tracer.fault(now, "replica_persist_failure", node=node,
                              owner=list(owner))
        return True

    # -- reporting -----------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Injected-fault totals for run reports."""
        out = {
            "messages_dropped": self.dropped,
            "messages_delayed": self.delayed,
            "replica_persist_failures": self.persist_failures,
        }
        for reason, count in sorted(self.drops_by_reason.as_dict().items()):
            out[f"drops_{reason}"] = count
        return out
