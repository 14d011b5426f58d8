"""Experiment runner: build a cluster, run workloads, collect metrics.

One :func:`run_experiment` call reproduces one bar of one figure: it
builds a fresh cluster from a :class:`~repro.config.ClusterConfig`,
instantiates the requested protocol, populates the workload's records,
starts one client driver per (node, slot), and runs the simulation for
``duration_ns`` of simulated time (after an optional warm-up whose
metrics are discarded, mirroring the paper's 1B-instruction warm-up).

Workload mixes (Figs. 14, 15) pass several workloads; nodes' core slots
are partitioned round-robin between them, modeling the paper's
space-shared environment.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.cluster.cluster import Cluster
from repro.config import ClusterConfig, FaultPlan
from repro.core import PROTOCOLS
from repro.obs.slo import SLOReport
from repro.obs.spans import SpanRecorder
from repro.obs.telemetry import TelemetrySampler
from repro.obs.tracer import EventTracer
from repro.sim.engine import create_engine
from repro.sim.random import DeterministicRandom
from repro.sim.stats import RunMetrics
from repro.workloads.base import Workload

#: Default simulated run length (ns).  Long enough for thousands of
#: transactions on the default cluster.
DEFAULT_DURATION_NS = 3_000_000.0


@dataclass
class ExperimentResult:
    """Everything one experiment run reports."""

    protocol: str
    workload: str
    config: ClusterConfig
    metrics: RunMetrics
    #: Per-workload metrics when running a mix (keyed by workload name).
    per_workload: Dict[str, RunMetrics] = field(default_factory=dict)
    #: Injected-fault totals when a fault plan was active; else None.
    fault_summary: Optional[Dict[str, int]] = None
    #: Recovery-plane totals (suspicions, epoch bumps, failover work)
    #: when crash recovery was enabled; else None.
    recovery_summary: Optional[Dict[str, float]] = None
    #: Transaction-lifecycle span data when a recorder was passed in
    #: (``repro run --spans``); else None.
    spans: Optional[SpanRecorder] = None
    #: SLO evaluation when ``config.slo`` declares objectives; else None.
    #: Open-loop runs evaluate the objectives against **sojourn** time
    #: (arrival → commit, queue wait included); closed-loop runs keep
    #: the protocol service latency.  See docs/LOAD.md.
    slo: Optional[SLOReport] = None
    #: Open-loop load-layer summary (``LoadStats.as_dict()``) when
    #: ``config.load.enabled``; else None.
    load: Optional[Dict[str, object]] = None
    #: Live-telemetry sampler (ring buffer of snapshots) when one was
    #: passed in; else None.
    telemetry: Optional[TelemetrySampler] = None
    #: Engine callbacks executed during the run — the simulator's own
    #: cost, pinned exactly per scenario by tests/test_golden_counters.py
    #: (see docs/PERFORMANCE.md, "What CI gates").
    events_processed: int = 0
    #: Fabric sends during the run, warm-up and dropped sends included
    #: (``Fabric.messages_sent``); pinned next to ``events_processed``.
    messages_sent: int = 0
    #: Bloom-filter accesses *this run* performed (deltas of the
    #: process-global counters, so back-to-back runs in one process
    #: don't inherit each other's energy accounting — see
    #: :mod:`repro.isolation`).  Feed these to
    #: :func:`repro.hardware.energy.energy_report`.
    bloom_read_ops: int = 0
    bloom_write_ops: int = 0

    @property
    def throughput(self) -> float:
        return self.metrics.throughput()

    @property
    def mean_latency_ns(self) -> float:
        return self.metrics.latency.mean()

    @property
    def p95_latency_ns(self) -> float:
        return self.metrics.latency.p95()


#: Full collections the process had made when the last run unfroze its
#: model; None before any run froze one.  While no full collection has
#: run since, that model may linger as cyclic garbage, and each later
#: run's freeze would keep it for one more run.
_full_collections_at_unfreeze: Optional[int] = None


def _full_collections() -> int:
    return gc.get_stats()[-1]["collections"]


def build_protocol(name: str, cluster: Cluster,
                   metrics: Optional[RunMetrics] = None, seed: int = 1):
    """Instantiate a protocol by registry name."""
    if name not in PROTOCOLS:
        raise KeyError(f"unknown protocol {name!r}; pick from "
                       f"{sorted(PROTOCOLS)}")
    return PROTOCOLS[name](cluster, metrics=metrics, seed=seed)


def run_experiment(
    protocol: str,
    workloads: Union[Workload, Sequence[Workload]],
    config: Optional[ClusterConfig] = None,
    duration_ns: float = DEFAULT_DURATION_NS,
    warmup_ns: float = 0.0,
    seed: int = 42,
    llc_sets: Optional[int] = None,
    tracer: Optional[EventTracer] = None,
    bounded_latency: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    spans: Optional[SpanRecorder] = None,
    telemetry: Optional[TelemetrySampler] = None,
) -> ExperimentResult:
    """Run one (protocol, workload[s], cluster) combination.

    Observability is opt-in and off by default: pass an
    :class:`~repro.obs.tracer.EventTracer` to record structured events
    (its ``message_rows`` fold gives per-message-type fabric totals), a
    :class:`~repro.obs.spans.SpanRecorder` for transaction-lifecycle
    spans, a :class:`~repro.obs.telemetry.TelemetrySampler` for
    periodic snapshots of cluster gauges (sampling starts after the
    warm-up), and ``bounded_latency=True`` to record latencies into a
    bounded histogram instead of an unbounded list.

    A ``fault_plan`` (see docs/FAULTS.md) attaches a seeded
    :class:`~repro.faults.injector.FaultInjector` to the fabric and the
    protocol and arms the request-timeout recovery path; the result's
    :attr:`~ExperimentResult.fault_summary` reports what was injected.

    With ``config.recovery.enabled`` and a fault plan containing crash
    windows, a :class:`~repro.recovery.manager.RecoveryManager` is
    installed too (docs/RECOVERY.md): leases detect the crash, the
    epoch is bumped, survivors scrub the dead node's state, and — for
    the replicated protocol — its reads and writes fail over to
    replicas.  :attr:`~ExperimentResult.recovery_summary` reports what
    the recovery plane did.
    """
    from repro.hardware.bloom import BloomFilter

    if isinstance(workloads, Workload):
        workloads = [workloads]
    else:
        workloads = list(workloads)
    if not workloads:
        raise ValueError("need at least one workload")
    config = config if config is not None else ClusterConfig()

    # Snapshot the process-global energy counters so the result can
    # report this run's accesses as deltas (run isolation — the global
    # totals keep growing across back-to-back runs in one process).
    bloom_reads_before = BloomFilter.total_read_ops
    bloom_writes_before = BloomFilter.total_write_ops

    # Building allocates many long-lived objects and no garbage cycles,
    # so the cyclic collector is paused until the model is built; see
    # repro.isolation for the contract and docs/PERFORMANCE.md for the
    # measurements.  A caller that froze objects itself keeps them
    # frozen: the run then neither freezes nor unfreezes.
    global _full_collections_at_unfreeze
    collecting = gc.isenabled()
    freezing = gc.get_freeze_count() == 0
    if (collecting and freezing
            and _full_collections_at_unfreeze == _full_collections()):
        # An earlier run's model may be cyclic garbage that no full
        # collection has freed yet; this run's freeze would keep it.
        gc.collect()
    gc.disable()
    try:
        engine = create_engine()
        cluster = Cluster(engine, config, llc_sets=llc_sets)
        metrics = RunMetrics(bounded_latency=bounded_latency)
        proto = build_protocol(protocol, cluster, metrics=metrics, seed=seed)
        per_workload = {
            workload.name: RunMetrics(bounded_latency=bounded_latency)
            for workload in workloads}
        if tracer is not None:
            engine.tracer = tracer
            cluster.fabric.tracer = tracer
            proto.tracer = tracer
        if spans is not None:
            spans.reset()
            spans.protocol = proto.name
            proto.spans = spans
            cluster.fabric.spans = spans
        injector = None
        if fault_plan is not None and fault_plan.enabled:
            from repro.faults.injector import FaultInjector

            injector = FaultInjector(fault_plan, tracer=tracer)
            cluster.fabric.faults = injector
            proto.faults = injector
            if spans is not None:
                injector.spans = spans
            # Arm timeout recovery: a dropped request/reply resolves with
            # TIMED_OUT and the protocol squash-and-retries.
            proto.replies.default_timeout_ns = fault_plan.effective_timeout_ns(
                config.network)

        for workload in workloads:
            workload.populate(cluster)

        recovery_manager = None
        if (injector is not None and config.recovery.enabled
                and fault_plan.crashes):
            from repro.recovery.manager import RecoveryManager

            # Installed after populate: seeding replica stores needs the
            # workload's records in place.
            recovery_manager = RecoveryManager(proto, fault_plan,
                                               config.recovery, tracer=tracer)
            recovery_manager.install()
            if spans is not None:
                recovery_manager.spans = spans

        # One driver per transaction slot; slots are partitioned round-robin
        # between the workloads of a mix (space sharing).  With the open-loop
        # load layer enabled the closed-loop drivers are replaced wholesale:
        # arrivals feed bounded admission queues that the same (node, slot)
        # worker grid drains (docs/LOAD.md).
        load_driver = None
        if config.load.enabled:
            from repro.load.driver import OpenLoopDriver

            load_driver = OpenLoopDriver(proto, workloads, per_workload,
                                         seed=seed)
            load_driver.start()
        else:
            for node in cluster.nodes:
                for slot in range(config.transactions_per_node):
                    workload = workloads[slot % len(workloads)]
                    rng = DeterministicRandom(f"{seed}:{node.node_id}:{slot}")
                    engine.process(
                        _client_driver(proto, workload, node.node_id, slot,
                                       rng, per_workload[workload.name]),
                        name=f"client-n{node.node_id}-s{slot}",
                    )

        # The model is built: freeze it, so the simulation's
        # collections never rescan it, and collect again.
        if freezing:
            gc.freeze()
        if collecting:
            gc.enable()
        if warmup_ns > 0:
            engine.run(until=warmup_ns)
            _reset_metrics(metrics)
            for workload_metrics in per_workload.values():
                _reset_metrics(workload_metrics)
            if spans is not None:
                # Warm-up spans are discarded along with the warm-up metrics.
                spans.reset()
            if load_driver is not None:
                # Queue contents / latch / controller mode persist (they are
                # system state); only the transient-era numbers are dropped.
                load_driver.reset_stats()
        if telemetry is not None:
            # Installed after the warm-up, so the series starts at the
            # same point the aggregates measure from.  The sampler reads
            # state, never mutates it, so the run's results stay
            # bit-identical to a telemetry-off run.
            telemetry.install(engine, proto, metrics, cluster,
                              load_driver=load_driver,
                              recovery_manager=recovery_manager,
                              spans=spans)
        engine.run(until=warmup_ns + duration_ns)

        metrics.elapsed_ns = duration_ns
        for workload_metrics in per_workload.values():
            workload_metrics.elapsed_ns = duration_ns
        workload_name = (workloads[0].name if len(workloads) == 1
                         else "+".join(w.name for w in workloads))
        load_summary = None
        if load_driver is not None:
            load_driver.finalize()
            load_summary = load_driver.stats.as_dict()
        slo_report = None
        if config.slo.enabled:
            # Open loop: the user-visible latency is sojourn (arrival →
            # commit, queue wait included), so the SLO judges that; closed
            # loop keeps the protocol service latency.
            slo_target = (load_driver.stats.sojourn if load_driver is not None
                          else metrics.latency)
            slo_report = config.slo.evaluate(slo_target)
        return ExperimentResult(
            protocol=protocol, workload=workload_name, config=config,
            metrics=metrics, per_workload=per_workload,
            spans=spans, slo=slo_report, load=load_summary,
            telemetry=telemetry,
            fault_summary=(injector.summary()
                           if injector is not None else None),
            recovery_summary=(recovery_manager.summary()
                              if recovery_manager is not None else None),
            events_processed=engine.events_processed,
            messages_sent=cluster.fabric.messages_sent,
            bloom_read_ops=BloomFilter.total_read_ops - bloom_reads_before,
            bloom_write_ops=(BloomFilter.total_write_ops
                             - bloom_writes_before))
    finally:
        if freezing:
            gc.unfreeze()
            _full_collections_at_unfreeze = _full_collections()
        if collecting:
            gc.enable()


def _client_driver(protocol, workload: Workload, node_id: int, slot: int,
                   rng: DeterministicRandom, workload_metrics: RunMetrics):
    """Closed-loop client: one transaction after another, forever."""
    cluster = protocol.cluster
    while True:
        spec = workload.next_transaction(rng, node_id, cluster,
                                         client_id=(node_id, slot))
        started = protocol.engine.now
        yield from protocol.execute(node_id, slot, spec)
        workload_metrics.meter.commit()
        workload_metrics.latency.record(protocol.engine.now - started)


def _reset_metrics(metrics: RunMetrics) -> None:
    """Discard warm-up numbers in place (the protocol holds the ref)."""
    fresh = RunMetrics(bounded_latency=metrics.bounded_latency)
    metrics.meter = fresh.meter
    metrics.latency = fresh.latency
    metrics.phases = fresh.phases
    metrics.overheads = fresh.overheads
    metrics.counters = fresh.counters


def compare_protocols(
    workload_factory,
    protocols: Sequence[str] = ("baseline", "hades-h", "hades"),
    config: Optional[ClusterConfig] = None,
    duration_ns: float = DEFAULT_DURATION_NS,
    seed: int = 42,
    llc_sets: Optional[int] = None,
) -> Dict[str, ExperimentResult]:
    """Run the same workload under several protocols.

    ``workload_factory`` is a zero-argument callable returning fresh
    workload instance(s) — each protocol needs its own cluster, and
    workload instances carry mutable generator state (the zipfian RNG
    advances as transactions are drawn), so sharing one instance would
    let the first leg's draws reseed the second leg's key stream.  A
    factory that hands back an object it already handed out is rejected
    rather than silently producing order-dependent results; each leg's
    result must equal a standalone :func:`run_experiment` of the same
    (protocol, seed).
    """
    results = {}
    # Strong references keep ids unique for the duration of the compare
    # (a GC'd workload could otherwise hand its id to a fresh one).
    seen: List[tuple] = []
    for protocol in protocols:
        workloads = workload_factory()
        instances = ([workloads] if isinstance(workloads, Workload)
                     else list(workloads))
        for workload in instances:
            for earlier, earlier_protocol in seen:
                if workload is earlier:
                    raise ValueError(
                        f"workload_factory returned the same "
                        f"{type(workload).__name__} instance for "
                        f"{earlier_protocol!r} and {protocol!r}; each "
                        "protocol leg needs a fresh workload (generator "
                        "state is mutable)")
            seen.append((workload, protocol))
        results[protocol] = run_experiment(
            protocol, workloads, config=config,
            duration_ns=duration_ns, seed=seed, llc_sets=llc_sets)
    return results


def normalized_throughput(results: Dict[str, ExperimentResult],
                          baseline: str = "baseline") -> Dict[str, float]:
    """Throughput of each protocol relative to ``baseline`` (Fig. 9 y-axis)."""
    reference = results[baseline].throughput
    if reference <= 0:
        raise ValueError("baseline committed no transactions")
    return {name: result.throughput / reference
            for name, result in results.items()}
