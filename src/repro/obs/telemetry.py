"""Live telemetry: periodic snapshots of a running experiment.

The PR-1 observability stack is *post-hoc*: traces, histograms and span
dumps only exist once the run finishes.  :class:`TelemetrySampler` is
the *live* half — a simulation process that wakes on a simulated-time
cadence and snapshots a **closed, versioned schema** of gauges and
counters (:data:`SNAPSHOT_FIELDS`): engine event throughput,
committed/aborted cumulative values and window deltas, the abort-class
mix, per-node admission-queue depth and shed counts, NIC
remote-transaction and directory locking-buffer occupancy, retry-budget
token levels, and the recovery epoch.  Snapshots feed three consumers:

* a bounded in-memory ring buffer (``retain`` newest snapshots) exposed
  on :attr:`TelemetrySampler.snapshots` and
  :attr:`~repro.runner.ExperimentResult.telemetry`;
* an optional **sink** callable invoked with every snapshot dict — the
  seam ``repro serve`` uses to forward snapshots from a worker process
  over a pipe, and ``repro sweep`` uses for per-cell heartbeats
  (:func:`fan_out` feeds several sinks from one sampler);
* optional streaming writers: :class:`TelemetryWriter` produces a
  ``TELEMETRY.jsonl`` file (one sorted-keys JSON object per line), and
  :class:`SampleCsvWriter` the ``repro run --metrics`` CSV, the
  :data:`SAMPLE_COLUMNS` projection of each snapshot.

Determinism contract (docs/SERVE.md): snapshot content derives **only**
from simulated time and simulated state — no wall clock, no process
identity — so a same-seed run emits byte-identical snapshot streams
anywhere, for any worker count.  The sampler never mutates simulation
state and never consumes model randomness; with the sampler absent the
runner takes no extra branches and results are bit-identical to a build
without this module (the same contract as the tracer and spans).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

#: Snapshot schema version — bump on any incompatible field change.
TELEMETRY_SCHEMA = 1

#: Default simulated-time cadence between snapshots (ns).
DEFAULT_INTERVAL_NS = 10_000.0

#: Default ring-buffer retention (newest snapshots kept in memory).
DEFAULT_RETAIN = 512

#: The closed snapshot schema: every snapshot carries exactly these
#: keys, in every run — closed-loop runs emit the open-loop fields
#: empty/zero rather than omitting them, so stream consumers never
#: branch on key presence.  Documented field by field in docs/SERVE.md;
#: keep the two in sync.
SNAPSHOT_FIELDS = (
    "schema",            # int   — TELEMETRY_SCHEMA
    "run",               # str   — run label ("" unless a front end set one)
    "seq",               # int   — snapshot index, 0-based
    "t_ns",              # float — simulated time of the snapshot
    "events",            # int   — cumulative engine callbacks executed
    "events_per_sec",    # float — window events per simulated second
    "committed",         # int   — cumulative committed transactions
    "aborted",           # int   — cumulative aborted attempts
    "committed_delta",   # int   — commits in this window
    "aborted_delta",     # int   — aborts in this window
    "throughput_tps",    # float — window commits per simulated second
    "abort_rate",        # float — window aborts / window attempts
    "inflight_txns",     # int   — squashable attempts in flight
    "abort_classes",     # dict  — closed-taxonomy class -> cumulative count
    "queue_depth",       # dict  — node -> admission-queue depth (open loop)
    "queue_shed",        # dict  — shed reason -> cumulative count
    "retry_tokens",      # dict  — node -> retry-budget token level
    "backpressure_nodes",  # list — nodes with the backpressure latch up
    "degraded_nodes",    # list  — nodes in degraded (shedding) mode
    "nic_remote_tx",     # int   — in-progress remote txns across NICs
    "lock_buffers_in_use",  # int — directory Locking Buffers held
    "bf_fill_ratio",     # float — mean Bloom fill over in-flight remote txns
    "recovery_epoch",    # int   — newest cluster epoch any node adopted
)

#: The ``repro run --metrics`` CSV columns, in order: a projection of
#: each snapshot (documented in docs/OBSERVABILITY.md; keep the two in
#: sync).
SAMPLE_COLUMNS = (
    "t_ns",
    "committed",
    "aborted",
    "throughput_tps",
    "abort_rate",
    "inflight_txns",
    "nic_remote_tx",
    "lock_buffers_in_use",
    "bf_fill_ratio",
)

NANOSECONDS_PER_SECOND = 1e9


class TelemetrySampler:
    """Samples the closed telemetry schema every ``interval_ns``.

    Build one and pass it to ``run_experiment(..., telemetry=...)``; the
    runner installs it after the warm-up with references to every
    subsystem it reads.
    ``sink`` is called with each snapshot dict as it is taken; the ring
    buffer keeps the ``retain`` newest for after-the-fact inspection.
    """

    def __init__(self, interval_ns: float = DEFAULT_INTERVAL_NS,
                 retain: int = DEFAULT_RETAIN,
                 sink: Optional[Callable[[Dict[str, object]], None]] = None,
                 run_label: str = ""):
        if interval_ns <= 0:
            raise ValueError(f"interval must be positive: {interval_ns}")
        if retain < 1:
            raise ValueError(f"retention must be >= 1: {retain}")
        self.interval_ns = interval_ns
        self.retain = retain
        self.sink = sink
        self.run_label = run_label
        self.snapshots: Deque[Dict[str, object]] = deque(maxlen=retain)
        #: Total snapshots taken (>= len(snapshots); the ring drops old).
        self.taken = 0
        # Wired by install().
        self._engine = None
        self._protocol = None
        self._metrics = None
        self._cluster = None
        self._load_driver = None
        self._recovery = None
        self._spans = None
        # Window state.
        self._last_events = 0
        self._last_committed = 0
        self._last_aborted = 0

    # -- wiring ---------------------------------------------------------

    def install(self, engine, protocol, metrics, cluster,
                load_driver=None, recovery_manager=None,
                spans=None) -> None:
        """Attach to a run and start the sampling process.

        Called by the runner after the warm-up, so the first window
        starts where measurement starts.  ``load_driver``,
        ``recovery_manager`` and ``spans`` are optional — the matching
        snapshot fields stay empty/zero without them.
        """
        self._engine = engine
        self._protocol = protocol
        self._metrics = metrics
        self._cluster = cluster
        self._load_driver = load_driver
        self._recovery = recovery_manager
        self._spans = spans
        self._last_events = engine.events_processed
        self._last_committed = metrics.meter.committed
        self._last_aborted = metrics.meter.aborted
        engine.schedule(self.interval_ns, self._tick)

    def _tick(self) -> None:
        # Un-count our own dispatch: the engine bumped events_processed
        # for this callback, but observation must not show up in the
        # metric it observes — with the correction, `events` (live and
        # in ExperimentResult) is bit-identical to a telemetry-off run.
        # Raw self-rescheduling callbacks (no Process) keep the sampler
        # to exactly one queue entry per snapshot; an entry takes its
        # place among same-timestamp entries by creation order, so the
        # others keep their relative order — and the simulation is
        # unchanged.  (A sleep whose first hop the sampler's entry
        # follows takes the engine's two-hop path; both paths dispatch
        # in the same order and count the same events.)
        self._engine.events_processed -= 1
        self.sample()
        self._engine.schedule(self.interval_ns, self._tick)

    # -- sampling -------------------------------------------------------

    def sample(self) -> Dict[str, object]:
        """Take one snapshot now: append to the ring, feed the sink."""
        snap = self.snapshot()
        self.snapshots.append(snap)
        self.taken += 1
        if self.sink is not None:
            self.sink(snap)
        return snap

    def snapshot(self) -> Dict[str, object]:
        """The closed-schema snapshot dict at the current simulated time."""
        engine = self._engine
        meter = self._metrics.meter
        events = engine.events_processed
        committed = meter.committed
        aborted = meter.aborted
        window_commits = committed - self._last_committed
        window_aborts = aborted - self._last_aborted
        window_attempts = window_commits + window_aborts
        scale = NANOSECONDS_PER_SECOND / self.interval_ns
        snap: Dict[str, object] = {
            "schema": TELEMETRY_SCHEMA,
            "run": self.run_label,
            "seq": self.taken,
            "t_ns": engine.now,
            "events": events,
            "events_per_sec": (events - self._last_events) * scale,
            "committed": committed,
            "aborted": aborted,
            "committed_delta": window_commits,
            "aborted_delta": window_aborts,
            "throughput_tps": window_commits * scale,
            "abort_rate": (window_aborts / window_attempts
                           if window_attempts else 0.0),
            "inflight_txns": self._protocol.inflight,
            "abort_classes": (self._spans.abort_class_totals()
                              if self._spans is not None else {}),
        }
        snap.update(self._load_fields())
        snap.update(self._hardware_fields())
        snap["recovery_epoch"] = self._recovery_epoch()
        self._last_events = events
        self._last_committed = committed
        self._last_aborted = aborted
        return snap

    def _load_fields(self) -> Dict[str, object]:
        driver = self._load_driver
        if driver is None:
            return {"queue_depth": {}, "queue_shed": {}, "retry_tokens": {},
                    "backpressure_nodes": [], "degraded_nodes": []}
        from repro.load.controller import MODE_DEGRADED

        return {
            "queue_depth": {str(node): driver.queues[node].depth
                            for node in sorted(driver.queues)},
            "queue_shed": dict(sorted(driver.stats.shed.items())),
            "retry_tokens": {str(node): round(budget.tokens, 6)
                             for node, budget
                             in sorted(driver.budgets.items())},
            "backpressure_nodes": [node for node in sorted(driver.queues)
                                   if driver.queues[node].backpressure],
            "degraded_nodes": [node for node in sorted(driver.controllers)
                               if (driver.controllers[node].mode
                                   == MODE_DEGRADED)],
        }

    def _hardware_fields(self) -> Dict[str, object]:
        total_fill = 0.0
        filters = 0
        nic_remote = 0
        lock_buffers = 0
        for node in self._cluster.nodes:
            nic = node.nic
            nic_remote += nic.remote_tx_count
            lock_buffers += node.directory.active_locks
            for state in nic.iter_remote_states():
                for bf in (state.read_bf, state.write_bf):
                    total_fill += bf.set_bit_count() / bf.bits
                    filters += 1
        return {
            "nic_remote_tx": nic_remote,
            "lock_buffers_in_use": lock_buffers,
            "bf_fill_ratio": total_fill / filters if filters else 0.0,
        }

    def _recovery_epoch(self) -> int:
        if self._recovery is None:
            return 0
        return max(view.epoch for view in self._recovery.views.values())

    # -- output ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.snapshots)

    def save_jsonl(self, path: str) -> None:
        """Write the retained ring as JSONL (for the full stream, attach
        a :class:`TelemetryWriter` as the sink instead)."""
        with open(path, "w") as fh:
            for snap in self.snapshots:
                fh.write(snapshot_line(snap) + "\n")


def snapshot_line(snap: Dict[str, object]) -> str:
    """One snapshot as its canonical JSON line (sorted keys, compact
    separators) — the byte form two same-seed runs must agree on."""
    return json.dumps(snap, sort_keys=True, separators=(",", ":"))


def fan_out(*sinks):
    """One sink that feeds each given sink in turn, skipping ``None``;
    None when no sink is given."""
    live = [sink for sink in sinks if sink is not None]
    if len(live) < 2:
        return live[0] if live else None

    def sink(snap: Dict[str, object]) -> None:
        for each in live:
            each(snap)

    return sink


class TelemetryWriter:
    """Streaming JSONL sink: every snapshot becomes one line, written
    line-buffered so a killed run still leaves a readable prefix (same
    rationale as the tracer's streaming mode).  Use as a context
    manager or call :meth:`close`."""

    #: Snapshot dict -> the line written for it.
    format = staticmethod(snapshot_line)

    def __init__(self, path: str):
        self.path = path
        self._fh = open(path, "w")
        self.lines = 0

    def __call__(self, snap: Dict[str, object]) -> None:
        self._fh.write(self.format(snap) + "\n")
        self._fh.flush()
        self.lines += 1

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SampleCsvWriter(TelemetryWriter):
    """Streaming CSV sink behind ``repro run --metrics``: a header of
    :data:`SAMPLE_COLUMNS`, then one row per snapshot with floats
    printed as ``.6g``.  ``lines`` counts rows, not the header."""

    def __init__(self, path: str):
        super().__init__(path)
        self._fh.write(",".join(SAMPLE_COLUMNS) + "\n")

    @staticmethod
    def format(snap: Dict[str, object]) -> str:
        cells = (snap[column] for column in SAMPLE_COLUMNS)
        return ",".join(f"{cell:.6g}" if isinstance(cell, float)
                        else str(cell) for cell in cells)


def validate_snapshot(snap: Dict[str, object]) -> None:
    """Schema-validate one snapshot dict; raises ValueError.

    The schema is *closed*: unknown keys are as fatal as missing ones,
    so a producer cannot silently grow the surface consumers parse.
    """
    if not isinstance(snap, dict):
        raise ValueError(
            f"snapshot must be a dict, got {type(snap).__name__}")
    missing = [key for key in SNAPSHOT_FIELDS if key not in snap]
    if missing:
        raise ValueError(f"snapshot missing fields: {missing}")
    unknown = sorted(set(snap) - set(SNAPSHOT_FIELDS))
    if unknown:
        raise ValueError(f"snapshot has unknown fields: {unknown}")
    if snap["schema"] != TELEMETRY_SCHEMA:
        raise ValueError(f"unknown telemetry schema: {snap['schema']!r}")
    if snap["committed_delta"] < 0 or snap["aborted_delta"] < 0:
        raise ValueError("negative window delta")
    for field in ("abort_classes", "queue_depth", "queue_shed",
                  "retry_tokens"):
        if not isinstance(snap[field], dict):
            raise ValueError(f"{field} must be a dict")
    for field in ("backpressure_nodes", "degraded_nodes"):
        if not isinstance(snap[field], list):
            raise ValueError(f"{field} must be a list")


def load_telemetry_jsonl(path: str) -> List[Dict[str, object]]:
    """Read and validate a ``TELEMETRY.jsonl`` stream."""
    snapshots = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                snap = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{line_no}: bad JSON: {exc}")
            validate_snapshot(snap)
            snapshots.append(snap)
    return snapshots
