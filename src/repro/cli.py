"""Command-line interface: ``python -m repro ...``.

Subcommands:

* ``run`` — one (protocol, workload) experiment; prints throughput,
  latency, abort rate, and the top counters.  ``--trace out.json``
  records a Chrome trace (Perfetto-loadable; ``.jsonl`` for line-JSON),
  ``--metrics out.csv`` a sampled time series (a CSV projection of the
  telemetry snapshots, taken every ``--telemetry-interval-ns``),
  ``--histogram-latency`` bounds latency memory on long runs.
* ``profile`` — one traced experiment folded into per-phase and
  per-message-type time attribution tables (see docs/OBSERVABILITY.md);
  the message table is a fold of the trace's ``net`` and
  ``message_drop`` events.
* ``report`` — cross-protocol transaction-lifecycle comparison:
  per-phase latency breakdown + abort taxonomy, from live runs or from
  saved ``run --spans-out`` dumps merged across runs.
* ``compare`` — one workload under all three protocols; prints the
  normalized Fig. 9-style row.
* ``figures`` — regenerate a figure/table by name (fig03, fig09, ...,
  table04, sec06) at a chosen fidelity.
* ``loadtest`` — binary-search the maximum sustainable open-loop
  arrival rate meeting an SLO, then probe graceful degradation at a
  multiple of it (admission queues, shedding, retry budgets; see
  docs/LOAD.md).  Writes a byte-stable ``LOADTEST.json`` artifact.
* ``cost`` — the Section VI hardware storage calculator for arbitrary
  (C, m, D).
* ``sweep`` — expand a (scenario × seed × protocol × override × rate)
  grid, shard it across a multiprocessing worker pool, and merge the
  results into one JSON artifact plus a cross-grid comparison table;
  the merged artifact is bit-identical for any ``--workers N`` (see
  docs/SWEEP.md).  ``--baseline OLD.json`` gates the sweep against an
  earlier one, cell by cell.
* ``serve`` — long-lived HTTP front end: POST workload specs, stream
  live telemetry, Prometheus ``/metrics`` (see docs/SERVE.md).
* ``watch`` — live terminal view of one ``serve`` run or of the
  server's run table.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.config import CLUSTER_SHAPES, make_cluster_config
from repro.core import PROTOCOLS
from repro.hardware.cost import compute_cost
from repro.runner import run_experiment
from repro.workloads import make_workload

FIGURES = ("fig03", "fig09", "fig10", "fig11", "fig12a", "fig12b",
           "fig13", "fig14", "fig15", "table04", "sec06", "char_llc",
           "char_fp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HADES (ISCA 2024) reproduction driver")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--protocol", choices=sorted(PROTOCOLS),
                       default="hades")
    run_p.add_argument("--workload", default="HT-wA",
                       help="figure label, e.g. TPC-C, TATP, HT-wA, Map-wB")
    run_p.add_argument("--scale", type=float, default=0.1,
                       help="population scale factor (1.0 = paper-ish)")
    run_p.add_argument("--duration-us", type=float, default=500.0)
    run_p.add_argument("--shape", choices=sorted(CLUSTER_SHAPES),
                       default="default")
    run_p.add_argument("--seed", type=int, default=42)
    run_p.add_argument("--locality", type=float, default=None)
    run_p.add_argument("--trace", metavar="PATH", default=None,
                       help="write an event trace (.jsonl = line-JSON, "
                            "anything else = Chrome trace for Perfetto)")
    run_p.add_argument("--metrics", metavar="PATH", default=None,
                       help="write a sampled time-series CSV, one row per "
                            "telemetry snapshot (cadence: "
                            "--telemetry-interval-ns)")
    run_p.add_argument("--histogram-latency", action="store_true",
                       help="record latencies into a bounded log-bucketed "
                            "histogram instead of an exact list")
    run_p.add_argument("--spans", action="store_true",
                       help="record transaction-lifecycle spans and print "
                            "the per-phase breakdown + abort taxonomy")
    run_p.add_argument("--spans-out", metavar="PATH", default=None,
                       help="write the span aggregates as JSON (implies "
                            "--spans); merge dumps with 'repro report'")
    run_p.add_argument("--slo", metavar="SPEC", default=None,
                       help="latency objectives to gate on, e.g. "
                            "'p99<20us,mean<5us'; exit code 2 on failure")
    run_p.add_argument("--faults", metavar="SPEC", default=None,
                       help="fault-injection spec, e.g. "
                            "'drop=0.02,jitter=300,persist=0.05,"
                            "stall=1:10000:30000' (see docs/FAULTS.md)")
    run_p.add_argument("--fault-seed", type=int, default=None,
                       help="seed of the fault injector's random stream "
                            "(overrides a seed= key in --faults)")
    run_p.add_argument("--warmup-ns", type=float, default=0.0,
                       help="simulated warm-up trimmed before measurement "
                            "(statistics reset; system state kept)")
    run_p.add_argument("--load", metavar="SPEC", default=None,
                       help="open-loop arrival layer, e.g. "
                            "'rate=2e6,arrival=bursty,policy=deadline' "
                            "(see docs/LOAD.md); omit for closed loop")
    _add_telemetry_arguments(run_p)
    _add_recovery_arguments(run_p)

    prof_p = sub.add_parser("profile",
                            help="per-phase / per-message time attribution")
    prof_p.add_argument("--protocol", choices=sorted(PROTOCOLS),
                        default="hades")
    prof_p.add_argument("--workload", default="HT-wA")
    prof_p.add_argument("--scale", type=float, default=0.1)
    prof_p.add_argument("--duration-us", type=float, default=500.0)
    prof_p.add_argument("--shape", choices=sorted(CLUSTER_SHAPES),
                        default="default")
    prof_p.add_argument("--seed", type=int, default=42)
    prof_p.add_argument("--faults", metavar="SPEC", default=None,
                        help="fault-injection spec (see docs/FAULTS.md)")
    prof_p.add_argument("--fault-seed", type=int, default=None,
                        help="seed of the fault injector's random stream")
    _add_recovery_arguments(prof_p)

    rep_p = sub.add_parser("report",
                           help="cross-protocol lifecycle comparison "
                                "(phase breakdown + abort taxonomy)")
    rep_p.add_argument("spans", nargs="*", metavar="SPANS.json",
                       help="saved 'run --spans-out' dumps to merge "
                            "(glob patterns like 'spans.*.json' expand "
                            "to the per-cell family a sweep wrote); "
                            "omit to run the protocols live")
    rep_p.add_argument("--workload", default="HT-wA")
    rep_p.add_argument("--scale", type=float, default=0.1)
    rep_p.add_argument("--duration-us", type=float, default=500.0)
    rep_p.add_argument("--shape", choices=sorted(CLUSTER_SHAPES),
                       default="default")
    rep_p.add_argument("--seed", type=int, default=42)
    rep_p.add_argument("--protocols", default="baseline,hades-h,hades",
                       help="comma-separated protocols for live runs")

    cmp_p = sub.add_parser("compare", help="all protocols on one workload")
    cmp_p.add_argument("--workload", default="HT-wA")
    cmp_p.add_argument("--scale", type=float, default=0.1)
    cmp_p.add_argument("--duration-us", type=float, default=500.0)
    cmp_p.add_argument("--shape", choices=sorted(CLUSTER_SHAPES),
                       default="default")
    cmp_p.add_argument("--seed", type=int, default=42)

    fig_p = sub.add_parser("figures", help="regenerate a paper figure")
    fig_p.add_argument("name", choices=FIGURES)
    fig_p.add_argument("--fidelity", choices=("quick", "medium"),
                       default="quick")

    lt_p = sub.add_parser("loadtest",
                          help="binary-search the max sustainable "
                               "open-loop arrival rate under an SLO")
    lt_p.add_argument("--protocol", choices=sorted(PROTOCOLS),
                      default="hades")
    lt_p.add_argument("--workload", default="HT-wB",
                      help="figure label (default: the YCSB-B hash-table "
                           "mix)")
    lt_p.add_argument("--scale", type=float, default=0.05)
    lt_p.add_argument("--duration-us", type=float, default=300.0,
                      help="measured duration per probe (simulated us)")
    lt_p.add_argument("--warmup-ns", type=float, default=50_000.0,
                      help="simulated warm-up trimmed from every probe")
    lt_p.add_argument("--shape", choices=sorted(CLUSTER_SHAPES),
                      default="default")
    lt_p.add_argument("--seed", type=int, default=42)
    lt_p.add_argument("--slo", metavar="SPEC", default="p99<20us",
                      help="sojourn-latency objective a sustainable rate "
                           "must meet (grammar in docs/OBSERVABILITY.md)")
    lt_p.add_argument("--load", metavar="SPEC", default=None,
                      help="load-layer template (arrival process, shed "
                           "policy, queue capacity, ...); the search "
                           "owns rate= (see docs/LOAD.md)")
    lt_p.add_argument("--iters", type=int, default=6,
                      help="binary-search probes")
    lt_p.add_argument("--max-loss", type=float, default=0.02,
                      help="max fraction of offered jobs lost (shed + "
                           "timed out + abandoned) at a sustainable rate")
    lt_p.add_argument("--overload-factor", type=float, default=2.0,
                      help="overload probe rate as a multiple of "
                           "max(sustainable, capacity)")
    lt_p.add_argument("--rate-max", type=float, default=None,
                      help="search ceiling in txn/s (default: 1.25x the "
                           "measured closed-loop capacity)")
    lt_p.add_argument("--faults", metavar="SPEC", default=None,
                      help="fault-injection spec applied to every probe "
                           "(see docs/FAULTS.md)")
    lt_p.add_argument("--fault-seed", type=int, default=None,
                      help="seed of the fault injector's random stream")
    lt_p.add_argument("--smoke", action="store_true",
                      help="reduced-scale preset for CI (short probes, "
                           "4 search iterations)")
    lt_p.add_argument("--out", metavar="PATH", default="LOADTEST.json",
                      help="report artifact path ('-' to skip writing); "
                           "byte-identical for the same inputs")
    _add_telemetry_arguments(lt_p)

    cost_p = sub.add_parser("cost", help="Section VI storage calculator")
    cost_p.add_argument("--cores", type=int, default=5)
    cost_p.add_argument("--multiplexing", type=int, default=2)
    cost_p.add_argument("--remote-nodes", type=float, default=4.0)

    sweep_p = sub.add_parser("sweep",
                             help="run a (scenario x seed x protocol) grid "
                                  "across a worker pool")
    sweep_p.add_argument("--spec", metavar="SPEC.json", default=None,
                         help="JSON sweep spec (grammar in docs/SWEEP.md); "
                              "CLI flags below override nothing when set")
    sweep_p.add_argument("--scenarios", default="quick-ht,quick-btree",
                         help="comma-separated scenario names (presets or "
                              "workload labels)")
    sweep_p.add_argument("--protocols", default="baseline,hades-h,hades",
                         help="comma-separated protocols")
    sweep_p.add_argument("--seeds", default="42",
                         help="comma-separated integer seeds")
    sweep_p.add_argument("--scale", type=float, default=0.05)
    sweep_p.add_argument("--duration-us", type=float, default=200.0)
    sweep_p.add_argument("--shape", choices=sorted(CLUSTER_SHAPES),
                         default="default")
    sweep_p.add_argument("--slo", metavar="SPEC", default="",
                         help="latency objectives evaluated per cell, "
                              "e.g. 'p99<50us'")
    sweep_p.add_argument("--rates", default="",
                         help="comma-separated open-loop arrival rates "
                              "(txn/s) to cross the grid with; every "
                              "cell then runs under the load layer "
                              "(docs/LOAD.md)")
    sweep_p.add_argument("--set", dest="overrides", metavar="KEY=VALUE",
                         action="append", default=[],
                         help="config override on every cell, dotted path "
                              "into ClusterConfig (repeatable), e.g. "
                              "network.rt_latency_ns=1000")
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="worker processes (1 = serial in-process; "
                              "results are bit-identical either way)")
    sweep_p.add_argument("--out", metavar="PATH", default="SWEEP.json",
                         help="merged artifact path ('-' to skip writing); "
                              "wall-clock data goes to a *.timing.json "
                              "sidecar next to it")
    sweep_p.add_argument("--baseline", metavar="OLD.json", default=None,
                         help="gate the sweep against an earlier artifact: "
                              "exit 1 unless some cell matches and no "
                              "matched cell errored or moved its abort "
                              "rate or simulated throughput (see "
                              "docs/SWEEP.md)")
    sweep_p.add_argument("--spans", action="store_true",
                         help="record lifecycle spans per cell (abort "
                              "taxonomy columns in the table)")
    sweep_p.add_argument("--spans-out", metavar="PATH", default=None,
                         help="also dump each cell's spans to a unique "
                              "per-cell file derived from PATH (implies "
                              "--spans); merge with 'repro report PATH-"
                              "derived glob'")
    sweep_p.add_argument("--telemetry", action="store_true",
                         help="sample live telemetry per cell and log a "
                              "per-cell progress heartbeat as cells run "
                              "(see docs/SERVE.md)")
    sweep_p.add_argument("--telemetry-interval-ns", type=float,
                         default=10_000.0, metavar="NS",
                         help="simulated-time snapshot cadence "
                              "(default 10000)")
    sweep_p.add_argument("--telemetry-out", metavar="PATH", default=None,
                         help="dump each cell's snapshots to a unique "
                              "per-cell JSONL derived from PATH (implies "
                              "--telemetry); byte-identical for any "
                              "--workers N")

    serve_p = sub.add_parser("serve",
                             help="long-lived HTTP front end: POST workload "
                                  "specs, stream live telemetry "
                                  "(see docs/SERVE.md)")
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=8642,
                         help="TCP port; 0 picks an ephemeral port "
                              "(printed at startup)")
    serve_p.add_argument("--retain", type=int, default=512,
                         help="snapshots retained per run for stream "
                              "replay and /metrics")
    serve_p.add_argument("--telemetry-interval-ns", type=float,
                         default=10_000.0, metavar="NS",
                         help="default snapshot cadence for runs whose "
                              "spec does not set one")
    serve_p.add_argument("--max-workers", type=int, default=2,
                         help="concurrent run subprocesses; further "
                              "submissions queue (default 2)")
    serve_p.add_argument("--quiet", action="store_true",
                         help="suppress per-request access log lines")

    watch_p = sub.add_parser("watch",
                             help="live-updating terminal view of a "
                                  "'repro serve' run or server")
    watch_p.add_argument("url",
                         help="run URL (http://host:port/runs/<id>) for a "
                              "streaming view, or a base server URL for "
                              "the run table")
    watch_p.add_argument("--interval", type=float, default=1.0,
                         help="poll interval in seconds for the run-table "
                              "view (default 1.0)")
    watch_p.add_argument("--once", action="store_true",
                         help="print one rendering and exit (no ANSI "
                              "redraw; useful for scripts/tests)")
    return parser


def cmd_run(args) -> int:
    from repro.hardware.energy import energy_report
    from repro.obs import EventTracer

    config = _apply_recovery(args, make_cluster_config(args.shape))
    if args.slo:
        from repro.obs.slo import SLOParams

        config = config.replace(slo=SLOParams.parse(args.slo))
    if args.load:
        from repro.config import LoadParams

        config = config.replace(load=LoadParams.parse(args.load))
    workload = make_workload(args.workload, scale=args.scale,
                             locality=args.locality)
    tracer = EventTracer() if args.trace else None
    spans = None
    if args.spans or args.spans_out:
        from repro.obs.spans import SpanRecorder

        spans = SpanRecorder()
    fault_plan = _parse_fault_plan(args)
    telemetry, telemetry_writer, csv_writer = _make_telemetry(args)
    result = run_experiment(args.protocol, workload, config=config,
                            duration_ns=args.duration_us * 1000.0,
                            warmup_ns=args.warmup_ns,
                            seed=args.seed, llc_sets=2048,
                            tracer=tracer,
                            bounded_latency=args.histogram_latency,
                            fault_plan=fault_plan,
                            spans=spans,
                            telemetry=telemetry)
    energy = energy_report(config, args.duration_us * 1000.0,
                           result.metrics.meter.committed,
                           read_ops=result.bloom_read_ops,
                           write_ops=result.bloom_write_ops)
    summary = result.metrics.summary()
    print(format_table(["metric", "value"], [
        ["protocol", args.protocol],
        ["workload", result.workload],
        ["cluster", f"{config.nodes} nodes x {config.cores_per_node} cores"],
        ["throughput (txn/s)", summary["throughput_tps"]],
        ["mean latency (us)", summary["mean_latency_ns"] / 1000.0],
        ["p95 latency (us)", summary["p95_latency_ns"] / 1000.0],
        ["committed", int(summary["committed"])],
        ["abort rate", summary["abort_rate"]],
        ["BF energy / txn (nJ)", energy.nj_per_transaction],
    ]))
    if summary["no_progress"]:
        print("warning: run made no progress (no commits or no elapsed time)")
    top = result.metrics.counters.top(8)
    if top:
        print()
        print(format_table(["counter", "count"], [list(item) for item in top],
                           title="top counters"))
    if result.fault_summary is not None:
        fault_rows = [[key, value]
                      for key, value in result.fault_summary.items()]
        fault_rows.append(["request_timeouts",
                           result.metrics.counters.get("request_timeouts")])
        print()
        print(format_table(["fault", "count"], fault_rows,
                           title="fault injection"))
    if result.recovery_summary is not None:
        print()
        print(format_table(["recovery", "value"],
                           _recovery_rows(result.recovery_summary),
                           title="crash recovery"))
    if result.load is not None:
        from repro.analysis.load import format_load_summary

        print()
        print(format_load_summary(result.load))
    if spans is not None:
        from repro.obs.spans import format_spans

        print()
        print(format_spans(spans))
        if args.spans_out:
            import json

            with open(args.spans_out, "w") as fh:
                json.dump(spans.as_dict(), fh, indent=1)
            print(f"spans -> {args.spans_out}")
    slo_failed = False
    if result.slo is not None:
        from repro.obs.slo import format_slo

        print()
        print("\n".join(format_slo(result.slo)))
        slo_failed = not result.slo.passed
    if tracer is not None:
        tracer.save(args.trace)
        print(f"\ntrace: {len(tracer)} events -> {args.trace}")
    if csv_writer is not None:
        csv_writer.close()
        print(f"metrics: {csv_writer.lines} samples -> {args.metrics}")
    if args.telemetry or args.telemetry_out:
        line = f"telemetry: {telemetry.taken} snapshots"
        if telemetry_writer is not None:
            telemetry_writer.close()
            line += f" -> {args.telemetry_out}"
        print(line)
    return 2 if slo_failed else 0


def cmd_profile(args) -> int:
    from repro.obs.profile import format_profile, profile_experiment

    config = _apply_recovery(args, make_cluster_config(args.shape))
    workload = make_workload(args.workload, scale=args.scale)
    report = profile_experiment(args.protocol, workload, config=config,
                                duration_ns=args.duration_us * 1000.0,
                                seed=args.seed, llc_sets=2048,
                                fault_plan=_parse_fault_plan(args))
    print(format_profile(report))
    return 0


def cmd_report(args) -> int:
    from repro.analysis.lifecycle import (
        collect_lifecycle,
        format_lifecycle,
        merge_span_files,
    )

    if args.spans:
        from repro.obs.artifacts import expand_artifact_globs

        paths = expand_artifact_globs(args.spans)
        recorders = merge_span_files(paths)
        source = f"{len(paths)} span dump(s)"
    else:
        protocols = [name.strip() for name in args.protocols.split(",")
                     if name.strip()]
        for name in protocols:
            if name not in PROTOCOLS:
                raise SystemExit(f"unknown protocol {name!r}; pick from "
                                 f"{sorted(PROTOCOLS)}")
        config = make_cluster_config(args.shape)
        recorders = collect_lifecycle(
            lambda: make_workload(args.workload, scale=args.scale),
            protocols=protocols, config=config,
            duration_ns=args.duration_us * 1000.0,
            seed=args.seed, llc_sets=2048)
        source = (f"{args.workload} scale={args.scale} "
                  f"seed={args.seed} ({args.duration_us:.0f} us)")
    print(f"transaction-lifecycle report: {source}\n")
    print(format_lifecycle(recorders))
    return 0


def _parse_fault_plan(args):
    """``--faults``/``--fault-seed`` -> FaultPlan (None when absent)."""
    if not getattr(args, "faults", None):
        return None
    from repro.config import FaultPlan

    return FaultPlan.parse(args.faults, seed=args.fault_seed)


def _add_telemetry_arguments(parser) -> None:
    parser.add_argument("--telemetry", action="store_true",
                        help="sample live telemetry snapshots on a "
                             "simulated-time cadence (see docs/SERVE.md)")
    parser.add_argument("--telemetry-interval-ns", type=float,
                        default=10_000.0, metavar="NS",
                        help="simulated-time snapshot cadence "
                             "(default 10000)")
    parser.add_argument("--telemetry-out", metavar="PATH", default=None,
                        help="stream every snapshot to a JSONL file "
                             "(implies --telemetry); byte-identical for "
                             "the same seed")


def _make_telemetry(args):
    """``--telemetry*`` and ``--metrics`` flags -> (sampler, JSONL
    writer, CSV writer); all None when every flag is off.

    Each writer (JSONL for ``--telemetry-out``, CSV for ``--metrics``)
    is a sink of the one sampler, so it sees every snapshot even after
    the ring buffer wraps; the caller owns closing them.
    """
    if not (args.telemetry or args.telemetry_out or args.metrics):
        return None, None, None
    from repro.obs.telemetry import (
        SampleCsvWriter,
        TelemetrySampler,
        TelemetryWriter,
        fan_out,
    )

    writer = (TelemetryWriter(args.telemetry_out)
              if args.telemetry_out else None)
    csv_writer = SampleCsvWriter(args.metrics) if args.metrics else None
    sampler = TelemetrySampler(interval_ns=args.telemetry_interval_ns,
                               sink=fan_out(writer, csv_writer))
    return sampler, writer, csv_writer


def _add_recovery_arguments(parser) -> None:
    parser.add_argument("--leases", action="store_true",
                        help="enable lease-based crash recovery for "
                             "crash= windows in --faults "
                             "(see docs/RECOVERY.md)")
    parser.add_argument("--lease-ns", type=float, default=None,
                        help="lease duration before a silent peer is "
                             "suspected (default 10000)")
    parser.add_argument("--heartbeat-ns", type=float, default=None,
                        help="interval between heartbeats (default 2000)")


def _apply_recovery(args, config):
    """Fold ``--leases``/--lease-ns/--heartbeat-ns into the config."""
    if not getattr(args, "leases", None):
        return config
    from dataclasses import replace

    from repro.config import RecoveryParams

    defaults = RecoveryParams()
    params = RecoveryParams(
        enabled=True,
        heartbeat_interval_ns=(args.heartbeat_ns
                               if args.heartbeat_ns is not None
                               else defaults.heartbeat_interval_ns),
        lease_ns=(args.lease_ns if args.lease_ns is not None
                  else defaults.lease_ns))
    return replace(config, recovery=params)


def _recovery_rows(summary):
    """Recovery summary dict -> printable [key, value] rows."""
    rows = []
    for key, value in summary.items():
        if key.endswith("_ns"):
            rows.append([key.replace("_ns", " (us)"), value / 1000.0])
        else:
            rows.append([key, int(value)])
    return rows


def cmd_compare(args) -> int:
    config = make_cluster_config(args.shape)
    rows = []
    base = None
    for protocol in ("baseline", "hades-h", "hades"):
        workload = make_workload(args.workload, scale=args.scale)
        result = run_experiment(protocol, workload, config=config,
                                duration_ns=args.duration_us * 1000.0,
                                seed=args.seed, llc_sets=2048)
        if protocol == "baseline":
            base = result.throughput
        rows.append([protocol, result.throughput, result.throughput / base,
                     result.metrics.meter.abort_rate()])
    print(format_table(["protocol", "txn/s", "normalized", "abort rate"],
                       rows, title=f"{args.workload} (paper avg: HADES 2.7x, "
                                   "HADES-H 2.3x)"))
    return 0


def cmd_figures(args) -> int:
    from repro import experiments as exp
    settings = exp.QUICK if args.fidelity == "quick" else exp.QUICK.with_(
        scale=0.1, duration_ns=800_000.0, suite=exp.SUITE_FULL)
    dispatch = {
        "fig03": lambda: exp.fig03_overheads(settings),
        "fig09": lambda: exp.fig09_throughput(settings),
        "fig10": lambda: exp.fig10_latency(settings),
        "fig11": lambda: exp.fig11_tail_latency(settings),
        "fig12a": lambda: exp.fig12a_network_latency(settings),
        "fig12b": lambda: exp.fig12b_locality(settings),
        "fig13": lambda: exp.fig13_scale_n10(settings),
        "fig14": lambda: exp.fig14_mix2(settings),
        "fig15": lambda: exp.fig15_mix4(settings),
        "table04": lambda: exp.table04_bloom_fp(),
        "sec06": exp.sec06_hardware_cost,
        "char_llc": lambda: [exp.char_llc_evictions(settings)],
        "char_fp": lambda: exp.char_false_positives(settings),
    }
    rows = dispatch[args.name]()
    if not rows:
        print("no rows")
        return 1
    headers = list(rows[0].keys())
    print(format_table(headers,
                       [[row.get(h, "") for h in headers] for row in rows],
                       title=args.name))
    return 0


def cmd_sweep(args) -> int:
    import json

    from repro.analysis.sweep import compare_trajectories, format_sweep_table
    from repro.sweep import SweepSpec, parse_override, run_sweep

    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    if args.spec:
        spec = SweepSpec.from_file(args.spec)
    else:
        spec = SweepSpec(
            scenarios=tuple(_split_csv(args.scenarios)),
            protocols=tuple(_split_csv(args.protocols)),
            seeds=tuple(int(seed) for seed in _split_csv(args.seeds)),
            shape=args.shape,
            scale=args.scale,
            duration_ns=args.duration_us * 1000.0,
            slo=args.slo,
            overrides=tuple(parse_override(item)
                            for item in args.overrides),
            rates=tuple(float(rate) for rate in _split_csv(args.rates)))
    cells = spec.expand()
    axes = (f"{len(spec.scenarios)} scenarios x {len(spec.protocols)} "
            f"protocols x {len(spec.seeds)} seeds")
    if spec.rates:
        axes += f" x {len(spec.rates)} rates"
    print(f"sweep: {len(cells)} cells ({axes}), {args.workers} worker(s)")
    telemetry = args.telemetry or bool(args.telemetry_out)
    on_heartbeat = None
    if telemetry:
        def on_heartbeat(cell, snap):
            print(f"  [{cell.cell_id}] t={snap['t_ns'] / 1e3:,.0f}us "
                  f"committed={snap['committed']} "
                  f"aborted={snap['aborted']} "
                  f"tps={snap['throughput_tps']:,.0f}")
    report = run_sweep(spec, workers=args.workers,
                       out=(None if args.out == "-" else args.out),
                       spans=args.spans, spans_out=args.spans_out,
                       log=print, telemetry=telemetry,
                       telemetry_out=args.telemetry_out,
                       telemetry_interval_ns=args.telemetry_interval_ns,
                       on_heartbeat=on_heartbeat)
    print()
    print(format_sweep_table(report))
    status = 1 if report["partial"] else 0
    if baseline is not None:
        matched, failures = compare_trajectories(report, baseline)
        verdict = "FAILED" if failures else "passed"
        print(f"\ntrajectory gate {verdict} vs {args.baseline}: {matched} "
              f"of {len(report['cells'])} cells matched")
        for failure in failures:
            print(f"  {failure}")
        if failures:
            status = 1
    return status


def _split_csv(value: str) -> List[str]:
    """Comma-separated CLI list -> stripped non-empty items."""
    return [item.strip() for item in value.split(",") if item.strip()]


def cmd_loadtest(args) -> int:
    from repro.analysis.load import format_loadtest
    from repro.config import LoadParams
    from repro.load import run_loadtest, write_loadtest

    duration_us, warmup_ns, iters = (args.duration_us, args.warmup_ns,
                                     args.iters)
    if args.smoke:
        # The CI preset: short probes, a coarse search — enough to
        # exercise every stage and the artifact's byte-stability.
        duration_us, warmup_ns, iters = 120.0, 30_000.0, 4
    template = (LoadParams.parse(args.load) if args.load else LoadParams())
    telemetry_writer = None
    if args.telemetry_out:
        from repro.obs.telemetry import TelemetryWriter

        telemetry_writer = TelemetryWriter(args.telemetry_out)
    report = run_loadtest(
        args.protocol, args.workload,
        workload_factory=lambda: make_workload(args.workload,
                                               scale=args.scale),
        shape=args.shape, scale=args.scale, seed=args.seed,
        duration_ns=duration_us * 1000.0, warmup_ns=warmup_ns,
        slo=args.slo, load_template=template, iters=iters,
        max_loss=args.max_loss, overload_factor=args.overload_factor,
        rate_max=args.rate_max, fault_plan=_parse_fault_plan(args),
        log=print, telemetry_sink=telemetry_writer,
        telemetry_interval_ns=args.telemetry_interval_ns)
    print()
    print(format_loadtest(report))
    if telemetry_writer is not None:
        telemetry_writer.close()
        print(f"\ntelemetry: {telemetry_writer.lines} snapshots "
              f"-> {args.telemetry_out}")
    # The last line always states where the artifact went and the SLO
    # verdict — scripts and humans both read the tail first.
    sustainable = report["max_sustainable_tps"]
    verdict = (f"max sustainable {sustainable:,.0f} tps meets SLO "
               f"{report['slo']!r}" if sustainable > 0
               else f"no probed rate met SLO {report['slo']!r}")
    artifact = args.out if args.out != "-" else "not written (--out -)"
    if args.out != "-":
        write_loadtest(report, args.out)
    print(f"\nreport -> {artifact}: {verdict}")
    return 0


def cmd_cost(args) -> int:
    report = compute_cost(args.cores, args.multiplexing, args.remote_nodes)
    print(format_table(["structure", "value"], [
        ["core BF pairs", report.core_bf_pairs],
        ["core BF storage (KB)", report.core_bf_kb],
        ["WrTX_ID bits / LLC line", report.wrtx_id_bits_per_llc_line],
        ["NIC BF pairs", report.nic_bf_pairs],
        ["NIC total (KB)", report.nic_total_kb],
    ], title=f"HADES per-node storage (C={args.cores}, "
             f"m={args.multiplexing}, D={args.remote_nodes})"))
    return 0


def cmd_serve(args) -> int:
    from repro.serve.server import serve

    return serve(host=args.host, port=args.port, retain=args.retain,
                 max_workers=args.max_workers,
                 default_interval_ns=args.telemetry_interval_ns,
                 verbose=not args.quiet)


def cmd_watch(args) -> int:
    from repro.serve.client import watch

    return watch(args.url, interval_s=args.interval, once=args.once)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": cmd_run, "profile": cmd_profile,
                "report": cmd_report, "compare": cmd_compare,
                "figures": cmd_figures, "cost": cmd_cost,
                "sweep": cmd_sweep,
                "loadtest": cmd_loadtest, "serve": cmd_serve,
                "watch": cmd_watch}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
