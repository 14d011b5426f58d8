"""Structured event tracing for the simulator.

:class:`EventTracer` collects timestamped events from the engine
(process lifecycle, optionally every scheduled callback), the RDMA
fabric (every message send with queueing vs. wire time), and the
protocols (transaction begin / phase / commit / squash with cause, plus
protocol-specific conflict points).  Tracing is **opt-in**: the engine,
fabric, and protocols hold a ``tracer`` attribute that defaults to
``None`` and every hot-path hook is behind an ``is not None`` guard, so
default-off runs pay one attribute load per hook and nothing else.

Two output formats:

* **JSONL** (``save_jsonl``) — one self-describing JSON object per line
  after a header line; machine-checkable with :func:`validate_jsonl`.
* **Chrome ``trace_event``** (``save_chrome``) — a ``traceEvents`` JSON
  loadable by Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
  nodes render as processes, transaction slots and per-destination
  network lanes as threads.

Event schema (JSONL; Chrome output is the same data re-keyed):

======  ======================================================
field   meaning
======  ======================================================
``ts``  simulated time of the event, **nanoseconds** (float)
``ph``  ``"X"`` (span with ``dur``) or ``"i"`` (instant)
``cat`` ``engine`` | ``net`` | ``txn`` | ``proto`` | ``fault`` | ``recovery``
``name`` event name (``message``, ``txn_commit``, phase name, ...)
``pid``  node id (``ENGINE_PID`` for engine-internal events)
``tid``  transaction slot, or ``NET_TID_BASE + dst`` for messages
``dur``  span length in nanoseconds (``"X"`` events only)
``args`` free-form event payload (src/dst/bytes/reason/phases/...)
======  ======================================================
"""

from __future__ import annotations

import atexit
import json
from typing import Dict, List, Optional

FORMAT_VERSION = 1
#: Synthetic pid for engine-internal events (no node affinity).
ENGINE_PID = 999
#: Message events land on thread ``NET_TID_BASE + destination node``.
NET_TID_BASE = 1000

_VALID_PHASES = ("X", "i")
_VALID_CATEGORIES = ("engine", "net", "txn", "proto", "fault", "recovery")


class EventTracer:
    """In-memory structured event collector (see module docstring).

    With ``stream_path`` set, every event is *also* appended to a
    line-buffered JSONL file the moment it is emitted, so a run that
    dies mid-experiment (crash, SIGKILL, OOM) leaves a trace whose every
    line is complete JSON up to the instant of death — the streamed
    header simply omits the event count, which :func:`validate_jsonl`
    accepts.  ``chrome_path`` requests a Perfetto trace at finalization
    (Chrome's format is one big JSON document, so it cannot stream; it
    is written by :meth:`close`).  Finalization is belt and braces: use
    the tracer as a context manager, call :meth:`close` directly, or let
    the ``atexit`` hook registered by the constructor catch interpreter
    shutdown after an uncaught exception.  ``close`` is idempotent.
    """

    def __init__(self, capture_schedules: bool = False,
                 stream_path: Optional[str] = None,
                 chrome_path: Optional[str] = None):
        #: Also record every ``Engine.schedule`` call (very noisy; off by
        #: default even when tracing is on).
        self.capture_schedules = capture_schedules
        self.events: List[dict] = []
        self.stream_path = stream_path
        self.chrome_path = chrome_path
        self.closed = False
        self._stream = None
        if stream_path is not None:
            # Line-buffered: each event line reaches the OS as soon as
            # it is written, which is what keeps a killed run's trace
            # valid per line.
            self._stream = open(stream_path, "w", buffering=1)
            header = {"kind": "header", "format": FORMAT_VERSION,
                      "clock": "ns"}
            self._stream.write(json.dumps(header) + "\n")
        if stream_path is not None or chrome_path is not None:
            atexit.register(self.close)

    # -- low-level emitters --------------------------------------------

    def _record(self, event: dict) -> None:
        self.events.append(event)
        if self._stream is not None:
            self._stream.write(json.dumps(event) + "\n")

    def instant(self, ts: float, cat: str, name: str, pid: int = ENGINE_PID,
                tid: int = 0, **args) -> None:
        self._record({"ts": ts, "ph": "i", "cat": cat, "name": name,
                      "pid": pid, "tid": tid, "args": args})

    def complete(self, ts: float, dur: float, cat: str, name: str,
                 pid: int = ENGINE_PID, tid: int = 0, **args) -> None:
        self._record({"ts": ts, "ph": "X", "cat": cat, "name": name,
                      "pid": pid, "tid": tid, "dur": dur, "args": args})

    def __len__(self) -> int:
        return len(self.events)

    # -- finalization ---------------------------------------------------

    def close(self) -> None:
        """Finalize streaming outputs (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        if self.chrome_path is not None:
            self.save_chrome(self.chrome_path)
        atexit.unregister(self.close)

    def __enter__(self) -> "EventTracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- engine hooks ---------------------------------------------------

    def process_start(self, ts: float, process_name: str) -> None:
        self.instant(ts, "engine", "process_start", process=process_name)

    def process_end(self, ts: float, process_name: str, outcome: str) -> None:
        self.instant(ts, "engine", "process_end", process=process_name,
                     outcome=outcome)

    def engine_schedule(self, ts: float, when: float,
                        callback_name: str) -> None:
        self.instant(ts, "engine", "schedule", when=when,
                     callback=callback_name)

    # -- fabric hooks ---------------------------------------------------

    def message_send(self, ts: float, msg_type: str, src: int, dst: int,
                     size_bytes: int, queue_ns: float, wire_ns: float,
                     delivery_ns: float) -> None:
        """One message: a span from send to delivery on the src's lane."""
        self.complete(ts, delivery_ns, "net", msg_type, pid=src,
                      tid=NET_TID_BASE + dst, src=src, dst=dst,
                      bytes=size_bytes, queue_ns=queue_ns, wire_ns=wire_ns)

    # -- transaction lifecycle hooks ------------------------------------

    def txn_begin(self, ts: float, node: int, slot: int, txid: int,
                  attempt: int, pessimistic: bool) -> None:
        self.instant(ts, "txn", "txn_begin", pid=node, tid=slot, txid=txid,
                     attempt=attempt, pessimistic=pessimistic)

    def txn_phase(self, ts: float, dur: float, node: int, slot: int,
                  txid: int, phase: str) -> None:
        self.complete(ts, dur, "txn", phase, pid=node, tid=slot, txid=txid)

    def txn_commit(self, ts: float, node: int, slot: int, txid: int,
                   attempts: int, phases: Dict[str, float]) -> None:
        self.instant(ts, "txn", "txn_commit", pid=node, tid=slot, txid=txid,
                     attempts=attempts, phases=dict(phases))

    def txn_squash(self, ts: float, node: int, slot: int, txid: int,
                   reason: str, phases: Dict[str, float]) -> None:
        self.instant(ts, "txn", "txn_squash", pid=node, tid=slot, txid=txid,
                     reason=reason, phases=dict(phases))

    def squash_delivered(self, ts: float, node: int, slot: int,
                         victim, reason: str) -> None:
        self.instant(ts, "txn", "squash_delivered", pid=node, tid=slot,
                     victim=list(victim), reason=reason)

    def protocol_point(self, ts: float, name: str, node: int, slot: int = 0,
                       **args) -> None:
        """Protocol-specific conflict/diagnostic point (cat ``proto``)."""
        self.instant(ts, "proto", name, pid=node, tid=slot, **args)

    # -- fault-injection hooks ------------------------------------------

    def fault(self, ts: float, name: str, node: int = ENGINE_PID,
              **args) -> None:
        """One injected fault or fault-recovery event (cat ``fault``):
        ``message_drop``, ``replica_persist_failure``,
        ``request_timeout``, ...  Deterministic under a fixed fault
        seed, so two same-seed runs emit identical fault streams."""
        self.instant(ts, "fault", name, pid=node, **args)

    def fault_events(self) -> List[dict]:
        """Every category-``fault`` event, in emission order."""
        return [event for event in self.events if event["cat"] == "fault"]

    # -- recovery hooks -------------------------------------------------

    def recovery(self, ts: float, name: str, node: int = ENGINE_PID,
                 **args) -> None:
        """One recovery-protocol event (cat ``recovery``): ``suspect``,
        ``epoch_bump``, ``node_crash``, ``node_restart``, ``scrub``,
        ``resolve_commit``, ``resolve_abort``, ``failover_read``,
        ``stale_epoch_reject``, ``rejoin``, ``reconcile``, ...
        Deterministic under a fixed fault seed, so two same-seed runs
        emit identical recovery streams (the smoke gate diffs them)."""
        self.instant(ts, "recovery", name, pid=node, **args)

    def recovery_events(self) -> List[dict]:
        """Every category-``recovery`` event, in emission order."""
        return [event for event in self.events
                if event["cat"] == "recovery"]

    # -- aggregation ----------------------------------------------------

    def committed_phase_totals(self) -> Dict[str, float]:
        """Sum the phase-duration payloads of every ``txn_commit`` event.

        This is the tracer-side view of
        :class:`~repro.sim.stats.PhaseBreakdown`: both are fed from the
        same ``TxContext.phase_durations`` of committed attempts, so the
        totals agree exactly.
        """
        totals: Dict[str, float] = {}
        for event in self.events:
            if event["name"] != "txn_commit":
                continue
            for phase, duration in event["args"]["phases"].items():
                totals[phase] = totals.get(phase, 0.0) + duration
        return totals

    def committed_count(self) -> int:
        return sum(1 for event in self.events
                   if event["name"] == "txn_commit")

    def attempt_count(self) -> int:
        """Transaction attempts started (one ``txn_begin`` per attempt —
        a transaction that retried N times contributes N+1 here and one
        ``txn_commit``)."""
        return sum(1 for event in self.events
                   if event["name"] == "txn_begin")

    def message_rows(self) -> List[tuple]:
        """Per-message-type totals folded from the ``net`` events and
        the ``message_drop`` fault events: (type, count, bytes, mean
        queue ns, mean wire ns, total delivery ns, dropped), sorted by
        descending total delivery time — ``repro profile``'s message
        table.  A drop counts as a send, since the NIC serialized it,
        but not in the means: an all-dropped type reports zero queue
        and wire time."""
        # type -> [count, bytes, queue, wire, delivery, dropped]
        totals: Dict[str, list] = {}
        for event in self.events:
            cat = event["cat"]
            args = event["args"]
            if cat == "net":
                name = event["name"]
            elif cat == "fault" and event["name"] == "message_drop":
                name = args["msg"]
            else:
                continue
            row = totals.get(name)
            if row is None:
                row = totals[name] = [0, 0, 0.0, 0.0, 0.0, 0]
            row[0] += 1
            row[1] += args["bytes"]
            if cat == "net":
                row[2] += args["queue_ns"]
                row[3] += args["wire_ns"]
                row[4] += event["dur"]
            else:
                row[5] += 1
        rows = []
        for name, (count, size, queue, wire, delivery, dropped) \
                in totals.items():
            delivered = count - dropped
            rows.append((name, count, size,
                         queue / delivered if delivered else 0.0,
                         wire / delivered if delivered else 0.0,
                         delivery, dropped))
        rows.sort(key=lambda row: -row[5])
        return rows

    # -- output ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Write by extension: ``.jsonl`` → JSONL, anything else Chrome."""
        if path.endswith(".jsonl"):
            self.save_jsonl(path)
        else:
            self.save_chrome(path)

    def save_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            header = {"kind": "header", "format": FORMAT_VERSION,
                      "clock": "ns", "events": len(self.events)}
            handle.write(json.dumps(header) + "\n")
            for event in self.events:
                handle.write(json.dumps(event) + "\n")

    def chrome_trace(self) -> dict:
        """The Chrome ``trace_event`` representation (ts/dur in µs)."""
        trace_events: List[dict] = []
        seen_pids: Dict[int, None] = {}
        seen_tids: Dict[tuple, None] = {}
        for event in self.events:
            out = {"name": event["name"], "cat": event["cat"],
                   "ph": event["ph"], "ts": event["ts"] / 1000.0,
                   "pid": event["pid"], "tid": event["tid"],
                   "args": event["args"]}
            if event["ph"] == "X":
                out["dur"] = event["dur"] / 1000.0
            else:
                out["s"] = "t"
            trace_events.append(out)
            seen_pids[event["pid"]] = None
            seen_tids[(event["pid"], event["tid"])] = None
        for pid in seen_pids:
            name = "engine" if pid == ENGINE_PID else f"node {pid}"
            trace_events.append({"name": "process_name", "ph": "M",
                                 "pid": pid, "tid": 0,
                                 "args": {"name": name}})
        for pid, tid in seen_tids:
            if tid >= NET_TID_BASE:
                name = f"net to node {tid - NET_TID_BASE}"
            else:
                name = f"slot {tid}"
            trace_events.append({"name": "thread_name", "ph": "M",
                                 "pid": pid, "tid": tid,
                                 "args": {"name": name}})
        return {"traceEvents": trace_events, "displayTimeUnit": "ns"}

    def save_chrome(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)


def validate_jsonl(path: str) -> int:
    """Validate a JSONL trace against the schema; returns the event count.

    Raises :class:`ValueError` on the first violation.  Used by CI as a
    smoke check that the emitted trace stays parseable.
    """
    with open(path) as handle:
        header_line = handle.readline()
        if not header_line:
            raise ValueError("empty trace file")
        header = json.loads(header_line)
        if header.get("kind") != "header":
            raise ValueError("first line is not a trace header")
        if header.get("format") != FORMAT_VERSION:
            raise ValueError(f"unsupported trace format: {header.get('format')}")
        count = 0
        for line_no, line in enumerate(handle, start=2):
            event = json.loads(line)
            _validate_event(event, line_no)
            count += 1
        declared = header.get("events")
        if declared is not None and declared != count:
            raise ValueError(f"header declares {declared} events, "
                             f"file has {count}")
    return count


def _validate_event(event: dict, line_no: int) -> None:
    def fail(message: str) -> None:
        raise ValueError(f"line {line_no}: {message}")

    for key in ("ts", "ph", "cat", "name", "pid", "tid", "args"):
        if key not in event:
            fail(f"missing field {key!r}")
    if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
        fail(f"bad ts: {event['ts']!r}")
    if event["ph"] not in _VALID_PHASES:
        fail(f"bad ph: {event['ph']!r}")
    if event["cat"] not in _VALID_CATEGORIES:
        fail(f"bad cat: {event['cat']!r}")
    if not isinstance(event["name"], str) or not event["name"]:
        fail(f"bad name: {event['name']!r}")
    if not isinstance(event["pid"], int) or not isinstance(event["tid"], int):
        fail("pid/tid must be integers")
    if not isinstance(event["args"], dict):
        fail("args must be an object")
    if event["ph"] == "X":
        if not isinstance(event.get("dur"), (int, float)) or event["dur"] < 0:
            fail(f"X event needs a non-negative dur: {event.get('dur')!r}")
    elif "dur" in event:
        fail("instant event must not carry dur")


def load_jsonl(path: str) -> List[dict]:
    """Read a JSONL trace back into a list of event dicts (tests, tools)."""
    with open(path) as handle:
        header = json.loads(handle.readline())
        if header.get("format") != FORMAT_VERSION:
            raise ValueError(f"unsupported trace format: {header.get('format')}")
        return [json.loads(line) for line in handle]
