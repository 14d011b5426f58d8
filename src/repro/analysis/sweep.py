"""Cross-grid comparison tables for sweep artifacts (``repro sweep``).

Renders a merged sweep report (see :mod:`repro.sweep.orchestrator`)
as two tables: the per-cell grid — throughput, abort taxonomy, SLO
verdict for every (scenario, protocol, seed) — and the per-(scenario,
protocol) aggregates merged across seeds.  Row order is the grid-key
order the artifact already carries, so the table is as deterministic as
the JSON.  :func:`compare_trajectories` gates one sweep against a
baseline sweep cell by cell (``repro sweep --baseline``).

Not imported from the :mod:`repro.analysis` package root for the same
reason as :mod:`repro.analysis.lifecycle`: keep the analysis root free
of runner-adjacent imports.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.report import format_table
from repro.obs.histogram import LogHistogram

#: Simulated-throughput drop of a matched cell, as a fraction of the
#: baseline cell's, that fails :func:`compare_trajectories`.
MAX_THROUGHPUT_DROP = 0.30
#: Absolute abort-rate move of a matched cell that fails it.
MAX_ABORT_RATE_DRIFT = 0.02


def _top_abort_class(row: Dict[str, object]) -> str:
    spans = row.get("spans")
    if not spans or not spans.get("abort_classes"):
        return "-"
    totals: Dict[str, int] = {}
    for key, count in spans["abort_classes"].items():
        cls, _, _node = key.rpartition(":")
        totals[cls] = totals.get(cls, 0) + count
    cls, count = max(totals.items(), key=lambda item: (item[1], item[0]))
    return f"{cls} x{count}"


def _slo_verdict(row: Dict[str, object]) -> str:
    slo = row.get("slo")
    if slo is None:
        return "-"
    return "PASS" if slo["passed"] else "FAIL"


def _open_loop_cols(row: Dict[str, object]) -> List[object]:
    """Admission columns for one rated cell: admitted share, shed
    count, p95 queue delay (us)."""
    load = row.get("load")
    if not load:
        return ["-", "-", "-"]
    offered = load.get("offered", 0)
    admitted = load.get("admitted", 0)
    admit = f"{admitted / offered:.1%}" if offered else "-"
    delay = load.get("queue_delay")
    if delay and delay.get("count"):
        p95 = LogHistogram.from_dict(delay).p95() / 1e3
    else:
        p95 = "-"
    return [admit, load.get("shed_total", 0), p95]


def format_sweep_table(report: Dict[str, object]) -> str:
    """The cross-grid comparison: per-cell rows, then aggregates."""
    cells: List[Dict[str, object]] = report.get("cells", [])
    if not cells:
        raise ValueError("sweep report has no cells")
    sections = []

    # A rate-axis sweep (docs/LOAD.md) grows a rate column plus the
    # admission-control columns (admit share, shed, queue-delay tail);
    # closed-loop sweeps keep the historical table byte-for-byte.
    rated = any("rate" in row for row in cells)
    open_headers = ["admit", "shed", "q-delay p95 us"] if rated else []

    cell_rows = []
    for row in cells:
        rate = [row.get("rate", "-")] if rated else []
        open_cols = _open_loop_cols(row) if rated else []
        if "error" in row:
            cell_rows.append([row["scenario"], row["protocol"], row["seed"]]
                             + rate + ["-", "-", f"ERROR: {row['error']}",
                                       "-"] + (["-"] * len(open_headers)))
            continue
        cell_rows.append(
            [row["scenario"], row["protocol"], row["seed"]] + rate + [
                row["throughput_tps"], row["abort_rate"],
                _top_abort_class(row), _slo_verdict(row),
            ] + open_cols)
    sections.append(format_table(
        ["scenario", "protocol", "seed"] + (["rate"] if rated else []) + [
            "txn/s", "abort rate", "top abort class", "slo"] + open_headers,
        cell_rows, title="sweep grid"))

    agg_rows = []
    for key in sorted(report.get("aggregates", {})):
        group = report["aggregates"][key]
        hist = LogHistogram.from_dict(group["latency_hist"])
        rate = [group.get("rate", "-")] if rated else []
        agg_rows.append(
            [group["scenario"], group["protocol"], len(group["seeds"])]
            + rate + [
                group["mean_throughput_tps"], group["abort_rate"],
                hist.p95() / 1e3, group["committed"],
            ])
    if agg_rows:
        sections.append(format_table(
            ["scenario", "protocol", "seeds"] + (["rate"] if rated else [])
            + ["mean txn/s", "abort rate", "p95 us", "committed"],
            agg_rows, title="aggregates (merged across seeds)"))

    if report.get("partial"):
        sections.append(f"PARTIAL sweep: {report.get('failed_cells', 0)} "
                        "cell(s) failed or never ran")
    return "\n\n".join(sections)


def _cell_identity(cell: Dict[str, object]) -> tuple:
    """A sweep cell's grid identity: the key trajectories match on.
    Two cells with the same identity must (by the determinism contract)
    have identical simulated results."""
    return (cell.get("scenario"), cell.get("protocol"), cell.get("seed"),
            cell.get("shape"), cell.get("scale"), cell.get("duration_ns"),
            tuple(cell.get("overrides", ())), cell.get("rate"))


def _sweep_cells(report: object) -> List[Dict[str, object]]:
    """The cell list of a merged sweep artifact; [] for any other JSON."""
    cells = report.get("cells") if isinstance(report, dict) else None
    return cells if isinstance(cells, list) else []


def compare_trajectories(report: Dict[str, object],
                         baseline: Dict[str, object],
                         ) -> Tuple[int, List[str]]:
    """Gate one sweep against a baseline sweep, cell by cell.

    Cells are matched on grid identity, so a grown grid is gated on the
    cells it shares with an older baseline.  A matched cell fails when
    it errored, when its abort rate moved more than
    :data:`MAX_ABORT_RATE_DRIFT`, or when its simulated throughput fell
    more than :data:`MAX_THROUGHPUT_DROP` below the baseline's; all
    three are exact under pinned seeds.  A baseline that shares no cell
    with the report (another grid, or a JSON that is not a sweep
    artifact) fails too: a gate that compared nothing has shown
    nothing.  Returns ``(matched cells, failure messages)``; no
    messages means the gate passes.
    """
    failures: List[str] = []
    base_cells = {_cell_identity(cell): cell
                  for cell in _sweep_cells(baseline)
                  if "error" not in cell}
    matched = 0
    for cell in _sweep_cells(report):
        base = base_cells.get(_cell_identity(cell))
        if base is None:
            continue
        matched += 1
        label = f"{cell['scenario']}/{cell['protocol']}/s{cell['seed']}"
        if "rate" in cell:
            label += f"/r{cell['rate']:.0f}"
        if "error" in cell:
            failures.append(f"{label}: cell failed ({cell['error']})")
            continue
        drift = abs(cell["abort_rate"] - base["abort_rate"])
        if drift > MAX_ABORT_RATE_DRIFT:
            failures.append(
                f"{label}: abort_rate {cell['abort_rate']:.4f} drifted "
                f"{drift:.4f} from baseline {base['abort_rate']:.4f} "
                f"(limit {MAX_ABORT_RATE_DRIFT}) — behavioral change")
        reference_tps = base["throughput_tps"]
        if reference_tps > 0:
            drop = 1.0 - cell["throughput_tps"] / reference_tps
            if drop > MAX_THROUGHPUT_DROP:
                failures.append(
                    f"{label}: simulated throughput "
                    f"{cell['throughput_tps']:,.0f} txn/s is {drop:.1%} "
                    f"below baseline {reference_tps:,.0f} "
                    f"(limit {MAX_THROUGHPUT_DROP:.0%})")
    if not matched:
        failures.append("no cell matches the baseline's grid: nothing "
                        "was compared")
    return matched, failures
