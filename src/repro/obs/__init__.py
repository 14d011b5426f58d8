"""Observability: tracing, histograms, spans, SLOs, telemetry.

The package has seven modules:

* :mod:`repro.obs.tracer` — structured event tracer (JSONL and Chrome
  ``trace_event`` output; open the latter in Perfetto); its
  ``message_rows`` fold gives per-message-type fabric totals.
* :mod:`repro.obs.histogram` — :class:`LogHistogram`, the bounded-memory
  replacement for ``LatencyRecorder`` on long runs.
* :mod:`repro.obs.spans` — transaction-lifecycle spans
  (:class:`SpanRecorder`) and the closed abort taxonomy
  (:func:`classify_abort`); drives ``repro run --spans`` and
  ``repro report``.
* :mod:`repro.obs.slo` — latency objectives (:class:`SLOParams`)
  declared on the cluster config and evaluated per run.
* :mod:`repro.obs.telemetry` — live telemetry
  (:class:`TelemetrySampler`): periodic closed-schema snapshots of
  gauges/counters with ring-buffer retention, JSONL streaming and the
  ``--metrics`` CSV projection (:data:`SAMPLE_COLUMNS`); drives
  ``repro run --telemetry`` / ``--metrics`` and feeds ``repro serve``.
* :mod:`repro.obs.artifacts` — per-worker/per-cell artifact paths
  (:func:`tagged_path`) and the glob expansion readers use to merge
  the family back (:func:`expand_artifact_globs`).
* :mod:`repro.obs.profile` — ``repro profile``'s attribution report.
  **Not** imported here: it pulls in the runner, and ``sim.stats``
  imports this package for :class:`LogHistogram` — importing the
  profiler at package level would close an import cycle.  Import it
  directly (``from repro.obs.profile import profile_experiment``).

See ``docs/OBSERVABILITY.md`` for the event schema and usage.
"""

from repro.obs.artifacts import (
    expand_artifact_globs,
    is_glob,
    sanitize_tag,
    tagged_path,
)
from repro.obs.histogram import LogHistogram
from repro.obs.slo import SLOParams, SLOReport, format_slo
from repro.obs.spans import (
    ABORT_CLASSES,
    SPAN_PHASES,
    SpanRecorder,
    classify_abort,
    format_spans,
    validate_spans,
)
from repro.obs.telemetry import (
    SAMPLE_COLUMNS,
    SNAPSHOT_FIELDS,
    TELEMETRY_SCHEMA,
    SampleCsvWriter,
    TelemetrySampler,
    TelemetryWriter,
    load_telemetry_jsonl,
    validate_snapshot,
)
from repro.obs.tracer import EventTracer, load_jsonl, validate_jsonl

__all__ = [
    "ABORT_CLASSES",
    "EventTracer",
    "LogHistogram",
    "SAMPLE_COLUMNS",
    "SLOParams",
    "SLOReport",
    "SNAPSHOT_FIELDS",
    "SPAN_PHASES",
    "SampleCsvWriter",
    "SpanRecorder",
    "TELEMETRY_SCHEMA",
    "TelemetrySampler",
    "TelemetryWriter",
    "classify_abort",
    "expand_artifact_globs",
    "format_slo",
    "format_spans",
    "is_glob",
    "load_jsonl",
    "load_telemetry_jsonl",
    "sanitize_tag",
    "tagged_path",
    "validate_jsonl",
    "validate_snapshot",
    "validate_spans",
]
