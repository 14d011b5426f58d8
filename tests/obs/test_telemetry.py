"""Tests for the live telemetry bus (:mod:`repro.obs.telemetry`).

The two contracts that matter (docs/SERVE.md, docs/PERFORMANCE.md):

* **Zero observer effect** — enabling telemetry never changes the
  simulation.  Results with the sampler on are *bit-identical* to
  results with it off, including the engine event counter.
* **Deterministic snapshots** — a same-seed rerun produces a
  byte-identical ``TELEMETRY.jsonl``, for any ``--workers`` count.
"""

import json

import pytest

from repro.obs.telemetry import (
    SNAPSHOT_FIELDS,
    TELEMETRY_SCHEMA,
    TelemetrySampler,
    TelemetryWriter,
    load_telemetry_jsonl,
    validate_snapshot,
)
from repro.runner import run_experiment
from repro.workloads import make_workload


def _run(telemetry=None, **kwargs):
    return run_experiment("hades", make_workload("HT-wA", scale=0.05),
                          duration_ns=60_000.0, seed=11, llc_sets=512,
                          telemetry=telemetry, **kwargs)


def _result_fingerprint(result):
    """Every deterministic field of an ExperimentResult, serialized."""
    return json.dumps({
        "summary": result.metrics.summary(),
        "events": result.events_processed,
        "bloom_read_ops": result.bloom_read_ops,
        "bloom_write_ops": result.bloom_write_ops,
        "counters": result.metrics.counters.as_dict(),
    }, sort_keys=True)


class TestObserverEffect:
    def test_on_vs_off_bit_identical(self):
        off = _run()
        on = _run(telemetry=TelemetrySampler(interval_ns=5_000.0))
        assert _result_fingerprint(on) == _result_fingerprint(off)

    def test_event_counter_unchanged_by_sampling(self):
        # The sampler un-counts its own dispatches; the per-event live
        # counter must agree with the no-telemetry run exactly.
        off = _run()
        on = _run(telemetry=TelemetrySampler(interval_ns=1_000.0))
        assert on.events_processed == off.events_processed

    def test_sampler_takes_snapshots(self):
        sampler = TelemetrySampler(interval_ns=5_000.0)
        result = _run(telemetry=sampler)
        assert result.telemetry is sampler
        assert sampler.taken >= 10
        for snap in sampler.snapshots:
            validate_snapshot(snap)


class TestDeterminism:
    def test_same_seed_byte_identical_jsonl(self, tmp_path):
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            with TelemetryWriter(str(path)) as writer:
                _run(telemetry=TelemetrySampler(interval_ns=5_000.0,
                                                sink=writer))
            paths.append(path)
        first, second = paths
        assert first.read_bytes() == second.read_bytes()
        assert first.stat().st_size > 0

    def test_snapshots_strictly_ordered(self):
        sampler = TelemetrySampler(interval_ns=5_000.0)
        _run(telemetry=sampler)
        seqs = [snap["seq"] for snap in sampler.snapshots]
        times = [snap["t_ns"] for snap in sampler.snapshots]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        assert times == sorted(times)

    def test_sweep_cell_jsonl_identical_across_worker_counts(self,
                                                             tmp_path):
        from repro.sweep import SweepSpec, run_sweep
        from repro.obs.artifacts import tagged_path

        spec = SweepSpec(scenarios=("HT-wA",),
                         protocols=("baseline", "hades"), seeds=(7,),
                         scale=0.02, duration_ns=15_000.0)
        blobs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}" / "TELEMETRY.jsonl"
            out.parent.mkdir()
            run_sweep(spec, workers=workers, telemetry_out=str(out),
                      log=lambda _msg: None)
            blobs[workers] = b"".join(
                (out.parent / tagged_path(out.name, cell.cell_id))
                .read_bytes()
                for cell in spec.expand())
        assert blobs[1] == blobs[2]
        assert blobs[1]

    def test_sweep_artifact_unchanged_by_telemetry(self, tmp_path):
        from repro.sweep import SweepSpec, run_sweep

        spec = SweepSpec(scenarios=("HT-wA",), protocols=("hades",),
                         seeds=(7,), scale=0.02, duration_ns=15_000.0)
        plain = tmp_path / "plain.json"
        wired = tmp_path / "wired.json"
        run_sweep(spec, workers=1, out=str(plain), log=lambda _m: None)
        run_sweep(spec, workers=1, out=str(wired),
                  telemetry_out=str(tmp_path / "t.jsonl"),
                  log=lambda _m: None)
        assert plain.read_bytes() == wired.read_bytes()


class TestSchema:
    def _snap(self):
        sampler = TelemetrySampler(interval_ns=10_000.0)
        _run(telemetry=sampler)
        return dict(sampler.snapshots[-1])

    def test_schema_is_closed_both_ways(self):
        snap = self._snap()
        validate_snapshot(snap)
        extra = dict(snap, surprise=1)
        with pytest.raises(ValueError, match="unknown"):
            validate_snapshot(extra)
        missing = dict(snap)
        del missing["committed_delta"]
        with pytest.raises(ValueError, match="missing"):
            validate_snapshot(missing)

    def test_schema_version_pinned(self):
        snap = self._snap()
        assert snap["schema"] == TELEMETRY_SCHEMA
        bad = dict(snap, schema=TELEMETRY_SCHEMA + 1)
        with pytest.raises(ValueError, match="schema"):
            validate_snapshot(bad)

    def test_every_declared_field_present(self):
        snap = self._snap()
        assert sorted(snap) == sorted(SNAPSHOT_FIELDS)

    def test_writer_roundtrip(self, tmp_path):
        path = tmp_path / "TELEMETRY.jsonl"
        with TelemetryWriter(str(path)) as writer:
            _run(telemetry=TelemetrySampler(interval_ns=10_000.0,
                                            sink=writer))
            assert writer.lines > 0
        loaded = load_telemetry_jsonl(str(path))
        assert len(loaded) == writer.lines
        for snap in loaded:
            validate_snapshot(snap)
