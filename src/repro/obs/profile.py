"""Per-phase / per-message-type time attribution (``repro profile``).

:func:`profile_experiment` runs one (protocol, workload) experiment with
the event tracer attached, then folds the collected events into a
:class:`ProfileReport`:

* **phase attribution** — total simulated time committed transactions
  spent in each protocol phase (execution / validation / commit),
  summed from the per-commit phase payloads the tracer records.  These
  are the *same* numbers :class:`~repro.sim.stats.PhaseBreakdown`
  accumulates (both are fed from ``TxContext.phase_durations`` of
  committed attempts), so the report cross-checks the two and exposes
  the largest relative deviation (``phase_agreement``) — it should be 0.
* **message attribution** — per message type: count, bytes, mean NIC
  queueing delay, mean wire time, total delivery time and injected
  drops, folded from the tracer's ``net`` and ``message_drop`` events
  (:meth:`~repro.obs.tracer.EventTracer.message_rows`).

Kept out of ``repro.obs.__init__`` on purpose: this module imports the
runner (which imports ``sim.stats``, which imports
``repro.obs.histogram``) — pulling it into the package root would make
that import chain circular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.report import format_percent, format_table
from repro.obs.tracer import EventTracer
from repro.runner import ExperimentResult, run_experiment


@dataclass
class ProfileReport:
    """Folded output of one traced experiment."""

    result: ExperimentResult
    #: phase -> total ns across committed transactions (tracer view).
    phase_totals: Dict[str, float]
    #: phase -> total ns from the PhaseBreakdown collector (cross-check).
    breakdown_totals: Dict[str, float]
    #: (type, count, bytes, mean queue ns, mean wire ns, total delivery
    #: ns, dropped).
    message_rows: List[Tuple] = field(default_factory=list)
    #: Completion stats: a transaction that retried N times counts
    #: *once* here (its committing attempt) ...
    committed: int = 0
    #: ... and N+1 times here (one ``txn_begin`` per attempt).  Exceeds
    #: ``committed + aborted`` by the attempts still in flight when the
    #: clock stopped — at most one per transaction slot.
    attempts: int = 0
    aborted: int = 0
    #: Committed transactions that needed at least one retry — each is
    #: one of ``committed``, never double-counted.
    commits_after_retry: int = 0
    #: Injected-fault totals when the run had a fault plan; else None.
    fault_summary: Optional[Dict[str, int]] = None
    #: Recovery-plane totals when crash recovery was enabled; else None.
    recovery_summary: Optional[Dict[str, float]] = None

    @property
    def phase_agreement(self) -> float:
        """Largest relative deviation between the tracer's phase totals
        and ``PhaseBreakdown`` — acceptance bound is 1 %, expected 0."""
        worst = 0.0
        phases = set(self.phase_totals) | set(self.breakdown_totals)
        for phase in phases:
            ours = self.phase_totals.get(phase, 0.0)
            theirs = self.breakdown_totals.get(phase, 0.0)
            reference = max(abs(ours), abs(theirs))
            if reference == 0.0:
                continue
            worst = max(worst, abs(ours - theirs) / reference)
        return worst


def profile_experiment(
    protocol: str,
    workloads,
    config=None,
    duration_ns: float = 500_000.0,
    seed: int = 42,
    llc_sets: Optional[int] = None,
    fault_plan=None,
) -> ProfileReport:
    """Run one experiment with tracing on and fold the attribution."""
    tracer = EventTracer()
    result = run_experiment(protocol, workloads, config=config,
                            duration_ns=duration_ns, seed=seed,
                            llc_sets=llc_sets, tracer=tracer,
                            fault_plan=fault_plan)
    return ProfileReport(
        result=result,
        phase_totals=tracer.committed_phase_totals(),
        breakdown_totals=result.metrics.phases.as_dict(),
        message_rows=tracer.message_rows(),
        committed=result.metrics.meter.committed,
        attempts=tracer.attempt_count(),
        aborted=result.metrics.meter.aborted,
        commits_after_retry=result.metrics.counters.get(
            "commits_after_retry"),
        fault_summary=result.fault_summary,
        recovery_summary=result.recovery_summary,
    )


def format_profile(report: ProfileReport) -> str:
    """Render the attribution tables (``repro profile`` output)."""
    out: List[str] = []
    result = report.result
    header = (f"{result.protocol} on {result.workload}: "
              f"{report.committed} committed "
              f"({report.commits_after_retry} after retry), "
              f"{report.aborted} aborted, "
              f"{report.attempts} attempts "
              f"over {result.metrics.elapsed_ns / 1000.0:.0f} us")
    out.append(header)
    out.append("")

    grand = sum(report.phase_totals.values())
    phase_rows: List[List] = []
    for phase, total in sorted(report.phase_totals.items(),
                               key=lambda item: -item[1]):
        mean_us = (total / report.committed / 1000.0
                   if report.committed else 0.0)
        share = total / grand if grand else 0.0
        phase_rows.append([phase, total / 1000.0, mean_us,
                           format_percent(share)])
    if not phase_rows:
        phase_rows.append(["(no committed transactions)", 0.0, 0.0,
                           format_percent(0.0)])
    out.append(format_table(
        ["phase", "total (us)", "mean/txn (us)", "share"], phase_rows,
        title="phase attribution (committed transactions)"))
    out.append("")

    message_rows: List[List] = []
    total_delivery = sum(row[5] for row in report.message_rows)
    for name, count, size, queue, wire, delivery, dropped \
            in report.message_rows:
        share = delivery / total_delivery if total_delivery else 0.0
        message_rows.append([name, count, size, queue, wire,
                             delivery / 1000.0, dropped,
                             format_percent(share)])
    if not message_rows:
        message_rows.append(["(no messages)", 0, 0, 0.0, 0.0, 0.0, 0,
                             format_percent(0.0)])
    out.append(format_table(
        ["message", "count", "bytes", "queue (ns)", "wire (ns)",
         "delivery (us)", "dropped", "share"], message_rows,
        title="message attribution (total delivery time)"))
    out.append("")
    if report.fault_summary is not None:
        counters = report.result.metrics.counters
        fault_rows = [[key, value]
                      for key, value in report.fault_summary.items()]
        for counter in ("request_timeouts", "ack_timeouts",
                        "lock_timeouts", "validation_timeouts",
                        "abort_reason_request_timeout",
                        "abort_reason_ack_timeout"):
            count = counters.get(counter)
            if count:
                fault_rows.append([counter, count])
        out.append(format_table(["fault", "count"], fault_rows,
                                title="fault injection"))
        out.append("")
    if report.recovery_summary is not None:
        recovery_rows = []
        for key, value in report.recovery_summary.items():
            if key.endswith("_ns"):
                recovery_rows.append([key.replace("_ns", " (us)"),
                                      value / 1000.0])
            else:
                recovery_rows.append([key, int(value)])
        out.append(format_table(["recovery", "value"], recovery_rows,
                                title="crash recovery"))
        out.append("")
    out.append(f"phase totals vs PhaseBreakdown: worst deviation "
               f"{format_percent(report.phase_agreement)}")
    return "\n".join(out)
