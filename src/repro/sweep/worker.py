"""Sweep worker: run one grid cell, return a picklable result dict.

:func:`run_cell` is the pure per-cell unit of work — it contains *only*
deterministic data (simulated results, grid coordinates), never wall
clock or process identity, so the orchestrator can merge results from
any number of workers into a bit-identical artifact.
:func:`worker_main` is the long-lived pool loop: one process executes
many cells back to back, which is safe by the :mod:`repro.isolation`
audit (warm hash-mask caches change wall clock only; Bloom energy
counters are reported as per-run deltas).
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Optional

from repro.obs.artifacts import tagged_path

#: Result-payload schema version (bump on incompatible change).
CELL_SCHEMA = 1


def run_cell(cell, spans: bool = False,
             spans_out: Optional[str] = None,
             telemetry: bool = False,
             telemetry_out: Optional[str] = None,
             telemetry_interval_ns: float = 10_000.0,
             telemetry_sink: Optional[Callable[[Dict[str, object]],
                                               None]] = None,
             ) -> Dict[str, object]:
    """Run one grid cell and fold its results into a plain dict.

    Every field is a pure function of the cell's grid coordinates
    (docs/PERFORMANCE.md determinism contract), so two runs of the same
    cell — in any process, in any order — serialize identically.
    Latency goes through the bounded :class:`~repro.obs.histogram.LogHistogram`
    (``bounded_latency=True``) so per-seed histograms can later merge
    exactly.  With ``spans_out`` set, the cell's span dump is also
    written to ``tagged_path(spans_out, cell_id)`` — a unique per-cell
    path, never a shared (clobbered) one.

    Telemetry is the live side channel: with ``telemetry_out`` each
    cell's snapshots stream to ``tagged_path(telemetry_out, cell_id)``
    (byte-identical for any worker count), and ``telemetry_sink`` sees
    every snapshot as it is taken (the pool's heartbeat seam; ``repro
    serve`` forwards them over a pipe).  Snapshots are labelled with
    the cell id and **never** enter the returned payload, so the merged
    artifact stays byte-identical with telemetry on, off, or absent.
    """
    from repro.runner import run_experiment

    recorder = None
    if spans or spans_out:
        from repro.obs.spans import SpanRecorder

        recorder = SpanRecorder()
    sampler = None
    writer = None
    if telemetry or telemetry_out or telemetry_sink is not None:
        from repro.obs.telemetry import (
            TelemetrySampler,
            TelemetryWriter,
            fan_out,
        )

        if telemetry_out:
            writer = TelemetryWriter(tagged_path(telemetry_out,
                                                 cell.cell_id))
        sampler = TelemetrySampler(interval_ns=telemetry_interval_ns,
                                   sink=fan_out(writer, telemetry_sink),
                                   run_label=cell.cell_id)
    config = cell.config()
    try:
        result = run_experiment(cell.protocol, cell.workloads(),
                                config=config,
                                duration_ns=cell.duration_ns, seed=cell.seed,
                                llc_sets=2048, bounded_latency=True,
                                spans=recorder, telemetry=sampler)
    finally:
        if writer is not None:
            writer.close()
    summary = result.metrics.summary()
    payload: Dict[str, object] = {
        "schema": CELL_SCHEMA,
        "scenario": cell.scenario,
        "protocol": cell.protocol,
        "seed": cell.seed,
        "shape": cell.shape,
        "scale": cell.scale,
        "duration_ns": cell.duration_ns,
        "overrides": [f"{key}={value}" for key, value in cell.overrides],
        "committed": int(summary["committed"]),
        "aborted": int(summary["aborted"]),
        "abort_rate": summary["abort_rate"],
        "throughput_tps": summary["throughput_tps"],
        "mean_latency_ns": summary["mean_latency_ns"],
        "p95_latency_ns": summary["p95_latency_ns"],
        "no_progress": bool(summary["no_progress"]),
        "events": result.events_processed,
        "bloom_read_ops": result.bloom_read_ops,
        "bloom_write_ops": result.bloom_write_ops,
        "latency_hist": result.metrics.latency.as_dict(),
        "counters": result.metrics.counters.as_dict(),
    }
    # Rate-axis cells carry their open-loop coordinates and the load
    # summary; closed-loop cells keep the historical payload shape.
    if cell.rate is not None:
        payload["rate"] = cell.rate
    if result.load is not None:
        payload["load"] = result.load
    if recorder is not None:
        payload["spans"] = recorder.as_dict()
        if spans_out:
            path = tagged_path(spans_out, cell.cell_id)
            with open(path, "w") as fh:
                json.dump(payload["spans"], fh, indent=1, sort_keys=True)
            payload["spans_file"] = path
    if result.slo is not None:
        payload["slo"] = result.slo.as_dict()
    return payload


def error_payload(cell, message: str) -> Dict[str, object]:
    """The result dict for a cell that failed: grid coordinates plus the
    error, so the merged report still covers the full grid."""
    payload = {
        "schema": CELL_SCHEMA,
        "scenario": cell.scenario,
        "protocol": cell.protocol,
        "seed": cell.seed,
        "shape": cell.shape,
        "scale": cell.scale,
        "duration_ns": cell.duration_ns,
        "overrides": [f"{key}={value}" for key, value in cell.overrides],
        "error": message,
    }
    if cell.rate is not None:
        payload["rate"] = cell.rate
    return payload


def worker_main(tasks, results, spans: bool = False,
                spans_out: Optional[str] = None,
                telemetry: bool = False,
                telemetry_out: Optional[str] = None,
                telemetry_interval_ns: float = 10_000.0) -> None:
    """Pool worker loop: pull ``(index, cell)`` tasks until the ``None``
    sentinel.  A failing cell produces an ``error`` result rather than
    killing the worker — one bad cell must not sink the grid.

    With telemetry on, each snapshot is forwarded to the result queue
    as a ``("heartbeat", index, snapshot, 0.0)`` message — the
    orchestrator logs progress from them without counting them as cell
    results.
    """
    while True:
        task = tasks.get()
        if task is None:
            break
        index, cell = task
        sink = None
        if telemetry or telemetry_out:
            def sink(snap, _index=index):
                results.put(("heartbeat", _index, snap, 0.0))
        started = time.perf_counter()
        try:
            # Looked up through the module so tests can monkeypatch
            # run_cell before forking the pool.
            payload = run_cell(cell, spans=spans, spans_out=spans_out,
                               telemetry=telemetry,
                               telemetry_out=telemetry_out,
                               telemetry_interval_ns=telemetry_interval_ns,
                               telemetry_sink=sink)
            kind = "ok"
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            raise
        except Exception as exc:
            payload = error_payload(cell, f"{type(exc).__name__}: {exc}")
            kind = "error"
        results.put((kind, index, payload, time.perf_counter() - started))
