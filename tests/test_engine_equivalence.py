"""Full-run equivalence of the default engine vs. the reference heap.

The property test in ``tests/sim/test_engine.py`` covers the dispatch
contract on synthetic schedules; this module pins the contract end to
end: a complete traced experiment — protocol, fabric, workload tapes,
telemetry and all — must produce a byte-identical trace artifact (the
same file ``repro run --trace out.jsonl`` writes) under both engines,
selected exactly the way users select them: the ``REPRO_ENGINE``
environment knob read by :func:`repro.sim.create_engine`.

Each case runs twice per engine: with the default tracer, and with one
that also records every schedule call, so a sleep the default engine
resumes in one dispatch must still record its wake hop.  The Baseline
Smallbank case runs on the 8x25x2 ``scale_200`` cluster, whose 400
cores keep the engine queue deep.
"""

import pytest

from repro.config import ClusterConfig, make_cluster_config
from repro.obs import EventTracer
from repro.runner import run_experiment
from repro.workloads import YcsbWorkload, make_workload

#: Case name -> ``run_experiment`` arguments (built fresh per run).
CASES = {
    "hades-ycsb": lambda: dict(
        protocol="hades",
        workloads=YcsbWorkload(store="ht", variant="b", record_count=500),
        config=ClusterConfig(nodes=3), duration_ns=30_000.0, seed=11,
        llc_sets=1024),
    "baseline-smallbank-scale_200": lambda: dict(
        protocol="baseline",
        workloads=make_workload("smallbank", scale=0.03),
        config=make_cluster_config("scale_200"), duration_ns=40_000.0,
        seed=5, llc_sets=2048),
}


def _traced_run(tmp_path, tag, case, capture_schedules):
    tracer = EventTracer(capture_schedules=capture_schedules)
    result = run_experiment(tracer=tracer, **CASES[case]())
    path = tmp_path / f"{tag}.jsonl"
    tracer.save_jsonl(str(path))
    return path.read_bytes(), {
        "events_processed": result.events_processed,
        "committed": result.metrics.meter.committed,
        "aborted": result.metrics.meter.aborted,
        "counters": result.metrics.counters.as_dict(),
    }


@pytest.mark.parametrize("capture_schedules", [False, True],
                         ids=["lifecycle", "schedules"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_artifact_identical_across_engines(tmp_path, monkeypatch, case,
                                                 capture_schedules):
    monkeypatch.delenv("REPRO_ENGINE", raising=False)
    default_bytes, default_summary = _traced_run(tmp_path, "default", case,
                                                 capture_schedules)
    monkeypatch.setenv("REPRO_ENGINE", "heap")
    heap_bytes, heap_summary = _traced_run(tmp_path, "heap", case,
                                           capture_schedules)
    assert default_summary == heap_summary
    assert default_summary["committed"] > 0
    assert default_bytes == heap_bytes
    assert len(default_bytes) > 1000  # a real trace, not an empty header
    assert (b"Process._sleep_wake" in default_bytes) == capture_schedules
