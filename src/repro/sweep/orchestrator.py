"""Sweep orchestrator: shard grid cells across a worker pool and merge.

``run_sweep`` owns the whole lifecycle: expand the spec, dispatch cells
to long-lived worker processes over a task queue, stream results back
over a result queue, and fold them into one merged report.  The merge
is deterministic by construction — cells land in the report in grid-key
order (the expansion order), each cell payload is a pure function of
its grid coordinates, and aggregates are merged in sorted cell order —
so the artifact is bit-identical for any ``workers`` count, including
the in-process serial path (``workers=1``).  All wall-clock data goes
to a separate ``*.timing.json`` sidecar instead.

Failure handling: a cell that raises inside a worker becomes an
``error`` result; a worker that dies outright (or an interrupt) leaves
its cells unaccounted — both mark the report ``partial`` and the cells
that never ran carry an ``error`` entry, so a partial artifact still
describes the full grid.
"""

from __future__ import annotations

import json
import multiprocessing
import queue
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.artifacts import tagged_path
from repro.sweep.grid import GridCell, SweepSpec
from repro.sweep import worker as worker_mod

#: Merged-artifact schema version (bump on incompatible change).
SWEEP_SCHEMA = 1

#: Seconds between liveness checks while draining the result queue.
_POLL_S = 0.2


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    out: Optional[str] = None,
    spans: bool = False,
    spans_out: Optional[str] = None,
    on_result: Optional[Callable[[GridCell, str, Dict], None]] = None,
    log: Optional[Callable[[str], None]] = None,
    telemetry: bool = False,
    telemetry_out: Optional[str] = None,
    telemetry_interval_ns: float = 10_000.0,
    on_heartbeat: Optional[Callable[[GridCell, Dict], None]] = None,
) -> Dict[str, object]:
    """Run the full grid and return the merged report dict.

    ``workers=1`` runs every cell in-process (the serial reference);
    ``workers>1`` forks a pool whose processes each execute many cells.
    ``on_result`` is called after every finished cell — the progress
    seam (and the place an interactive interrupt lands in tests).  With
    ``out`` set the report is written even when the run is cut short, so
    an interrupted sweep flushes what it has (``partial: true``).

    With telemetry on, ``on_heartbeat(cell, snapshot)`` fires for every
    live snapshot a running cell takes (forwarded over the result queue
    from pool workers) — progress instead of silence on long grids.
    Heartbeats never enter the report, so the artifact stays
    byte-identical with telemetry on or off.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker: {workers}")
    telemetry = telemetry or bool(telemetry_out)
    cells = spec.expand()
    outcomes: List[Optional[Tuple[str, Dict]]] = [None] * len(cells)
    timings: Dict[str, float] = {}
    started = time.perf_counter()
    interrupted = False
    try:
        if workers == 1:
            _run_serial(cells, outcomes, timings, spans, spans_out,
                        on_result, telemetry, telemetry_out,
                        telemetry_interval_ns, on_heartbeat)
        else:
            _run_pool(cells, outcomes, timings, workers, spans, spans_out,
                      on_result, log, telemetry, telemetry_out,
                      telemetry_interval_ns, on_heartbeat)
    except KeyboardInterrupt:
        interrupted = True
    report = build_report(spec, cells, outcomes, interrupted=interrupted)
    if out:
        write_sweep(report, out)
        _write_timing(out, workers, timings,
                      time.perf_counter() - started)
        if log is not None:
            log(f"sweep report -> {out}")
    if interrupted and log is not None:
        log("sweep interrupted; partial report flushed")
    return report


def _run_serial(cells, outcomes, timings, spans, spans_out,
                on_result, telemetry=False, telemetry_out=None,
                telemetry_interval_ns=10_000.0, on_heartbeat=None) -> None:
    for index, cell in enumerate(cells):
        sink = None
        if telemetry and on_heartbeat is not None:
            def sink(snap, _cell=cell):
                on_heartbeat(_cell, snap)
        cell_started = time.perf_counter()
        try:
            payload = worker_mod.run_cell(
                cell, spans=spans, spans_out=spans_out,
                telemetry=telemetry, telemetry_out=telemetry_out,
                telemetry_interval_ns=telemetry_interval_ns,
                telemetry_sink=sink)
            kind = "ok"
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            payload = worker_mod.error_payload(
                cell, f"{type(exc).__name__}: {exc}")
            kind = "error"
        outcomes[index] = (kind, payload)
        timings[cell.cell_id] = time.perf_counter() - cell_started
        if on_result is not None:
            on_result(cell, kind, payload)


def _pool_context():
    """Fork keeps workers cheap and inherits test monkeypatches; fall
    back to spawn where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _run_pool(cells, outcomes, timings, workers, spans, spans_out,
              on_result, log, telemetry=False, telemetry_out=None,
              telemetry_interval_ns=10_000.0, on_heartbeat=None) -> None:
    ctx = _pool_context()
    tasks = ctx.Queue()
    results = ctx.Queue()
    pool_size = min(workers, len(cells)) or 1
    for index, cell in enumerate(cells):
        tasks.put((index, cell))
    for _ in range(pool_size):
        tasks.put(None)
    procs = [ctx.Process(target=worker_mod.worker_main,
                         args=(tasks, results, spans, spans_out,
                               telemetry, telemetry_out,
                               telemetry_interval_ns),
                         daemon=True)
             for _ in range(pool_size)]
    for proc in procs:
        proc.start()
    pending = len(cells)
    try:
        while pending:
            try:
                kind, index, payload, wall_s = results.get(timeout=_POLL_S)
            except queue.Empty:
                if not any(proc.is_alive() for proc in procs):
                    # Every worker died without draining the grid (a
                    # crash the per-cell except cannot catch).  The
                    # unfilled outcomes become error rows below.
                    if log is not None:
                        log("sweep workers died; marking remaining "
                            "cells failed")
                    break
                continue
            if kind == "heartbeat":
                # Live progress from a still-running cell: surface it,
                # but it is not a result — pending stays put.
                if on_heartbeat is not None:
                    on_heartbeat(cells[index], payload)
                continue
            outcomes[index] = (kind, payload)
            timings[cells[index].cell_id] = wall_s
            pending -= 1
            if on_result is not None:
                on_result(cells[index], kind, payload)
    finally:
        for proc in procs:
            proc.join(timeout=0.1)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)


def build_report(spec: SweepSpec, cells: List[GridCell],
                 outcomes: List[Optional[Tuple[str, Dict]]],
                 interrupted: bool = False) -> Dict[str, object]:
    """Fold per-cell outcomes into the merged report dict.

    ``cells`` comes from :meth:`SweepSpec.expand`, already in grid-key
    order; the report preserves that order, so two sweeps of the same
    grid serialize identically however their workers interleaved.
    """
    rows: List[Dict[str, object]] = []
    failed = 0
    for cell, outcome in zip(cells, outcomes):
        if outcome is None:
            rows.append(worker_mod.error_payload(cell, "cell never ran"))
            failed += 1
            continue
        kind, payload = outcome
        rows.append(payload)
        if kind != "ok":
            failed += 1
    partial = interrupted or failed > 0
    return {
        "schema": SWEEP_SCHEMA,
        "kind": "sweep",
        "partial": partial,
        "failed_cells": failed,
        "spec": spec.as_dict(),
        "cells": rows,
        "aggregates": _aggregate(rows),
    }


def _aggregate(rows: List[Dict[str, object]]) -> Dict[str, Dict]:
    """Merge cell results across seeds, per (scenario, protocol).

    Histograms merge through :class:`~repro.obs.histogram.LogHistogram`
    and spans through :class:`~repro.obs.spans.SpanRecorder` — the same
    machinery ``repro report`` uses — in sorted cell order, so the
    aggregates are as deterministic as the cells.
    """
    from repro.obs.histogram import LogHistogram
    from repro.obs.spans import SpanRecorder

    groups: Dict[str, Dict[str, object]] = {}
    for row in rows:
        if "error" in row:
            continue
        key = f"{row['scenario']}/{row['protocol']}"
        if "rate" in row:
            # Rate-axis cells aggregate per rate — merging latency
            # histograms across offered loads would be meaningless.
            key += f"/r{row['rate']:g}"
        group = groups.get(key)
        if group is None:
            group = groups[key] = {
                "scenario": row["scenario"],
                "protocol": row["protocol"],
                "seeds": [],
                "committed": 0,
                "aborted": 0,
                "events": 0,
                "_hist": LogHistogram(),
                "_spans": None,
                "_tps": [],
            }
            if "rate" in row:
                group["rate"] = row["rate"]
        group["seeds"].append(row["seed"])
        group["committed"] += row["committed"]
        group["aborted"] += row["aborted"]
        group["events"] += row["events"]
        group["_tps"].append(row["throughput_tps"])
        group["_hist"].merge(LogHistogram.from_dict(row["latency_hist"]))
        if "spans" in row:
            recorder = SpanRecorder.from_dict(row["spans"])
            if group["_spans"] is None:
                group["_spans"] = recorder
            else:
                group["_spans"].merge(recorder)
    aggregates: Dict[str, Dict] = {}
    for key in sorted(groups):
        group = groups[key]
        hist = group.pop("_hist")
        spans = group.pop("_spans")
        tps = group.pop("_tps")
        attempts = group["committed"] + group["aborted"]
        group["seeds"] = sorted(group["seeds"])
        group["abort_rate"] = (group["aborted"] / attempts
                               if attempts else 0.0)
        group["mean_throughput_tps"] = (sum(tps) / len(tps) if tps else 0.0)
        group["latency_hist"] = hist.as_dict()
        if spans is not None:
            group["abort_classes"] = spans.abort_class_totals()
            group["spans"] = spans.as_dict()
        aggregates[key] = group
    return aggregates


def write_sweep(report: Dict[str, object], path: str) -> None:
    """Write the merged artifact: sorted keys, stable layout — the file
    two equal sweeps must agree on byte for byte."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_timing(out: str, workers: int, timings: Dict[str, float],
                  total_wall_s: float) -> None:
    """The nondeterministic half: wall clock per cell, pool size.  Kept
    out of the merged artifact so it stays bit-identical."""
    sidecar = {
        "workers": workers,
        "total_wall_s": total_wall_s,
        "cells": {cell_id: round(wall_s, 6)
                  for cell_id, wall_s in sorted(timings.items())},
    }
    with open(tagged_path(out, "timing"), "w") as fh:
        json.dump(sidecar, fh, indent=1, sort_keys=True)
        fh.write("\n")
