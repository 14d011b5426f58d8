"""In-process run isolation: run order must not affect results.

Pins the contract of :mod:`repro.isolation`: one process executing runs
back to back (a sweep worker, a figure suite, a REPL) produces the
exact results a fresh process would — warm caches may change wall
clock, never simulated output, and the per-run Bloom energy deltas are
independent of what ran before.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.isolation import process_state_report, reset_process_caches
from repro.runner import run_experiment
from repro.workloads import make_workload

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: The collector's state when this module was imported.
_IMPORT_GC_STATE = {key: process_state_report()[key]
                    for key in ("gc_enabled", "gc_frozen_objects")}


def _fingerprint(result):
    """Everything a run reports that must be order-independent."""
    summary = result.metrics.summary()
    return {
        "committed": summary["committed"],
        "aborted": summary["aborted"],
        "mean_latency_ns": summary["mean_latency_ns"],
        "p95_latency_ns": summary["p95_latency_ns"],
        "counters": result.metrics.counters.as_dict(),
        "bloom_read_ops": result.bloom_read_ops,
        "bloom_write_ops": result.bloom_write_ops,
    }


def _run_a():
    return run_experiment("hades", make_workload("TATP", scale=0.02),
                          duration_ns=20_000.0, seed=11, llc_sets=512)


def _run_b():
    return run_experiment("hades", make_workload("HT-wA", scale=0.02),
                          duration_ns=20_000.0, seed=23, llc_sets=512)


_SUBPROCESS_B = """
import json
from repro.runner import run_experiment
from repro.workloads import make_workload

result = run_experiment("hades", make_workload("HT-wA", scale=0.02),
                        duration_ns=20_000.0, seed=23, llc_sets=512)
summary = result.metrics.summary()
print(json.dumps({
    "committed": summary["committed"],
    "aborted": summary["aborted"],
    "mean_latency_ns": summary["mean_latency_ns"],
    "p95_latency_ns": summary["p95_latency_ns"],
    "counters": result.metrics.counters.as_dict(),
    "bloom_read_ops": result.bloom_read_ops,
    "bloom_write_ops": result.bloom_write_ops,
}))
"""


def test_run_a_then_b_matches_fresh_process_b():
    """The regression test for cross-run state leaks: B's results after
    an unrelated run A are bit-identical to B in a fresh process."""
    _run_a()
    warm = _fingerprint(_run_b())
    proc = subprocess.run([sys.executable, "-c", _SUBPROCESS_B],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    assert warm == fresh


def test_run_after_reset_matches_warm_run():
    """The mask caches are pure value caches: clearing them between runs
    changes nothing (which is why the sweep workers keep them warm)."""
    _run_a()
    warm = _fingerprint(_run_b())
    reset_process_caches()
    cold = _fingerprint(_run_b())
    assert warm == cold


def test_bloom_deltas_are_order_independent():
    """The energy counters grow process-wide, but each result reports
    its own accesses as deltas — the same run sees the same ops whether
    or not another run preceded it."""
    reset_process_caches()
    alone = _fingerprint(_run_b())
    _run_a()
    after_a = _fingerprint(_run_b())
    assert after_a["bloom_read_ops"] == alone["bloom_read_ops"]
    assert after_a["bloom_write_ops"] == alone["bloom_write_ops"]
    assert alone["bloom_read_ops"] > 0


def test_process_state_report_inventory():
    reset_process_caches()
    report = process_state_report()
    assert report["bloom_total_read_ops"] == 0
    assert report["bloom_total_write_ops"] == 0
    assert report["hash_family_masks"] == {}
    _run_b()
    report = process_state_report()
    assert report["bloom_total_read_ops"] > 0
    assert report["hash_family_masks"]
    reset_process_caches()
    assert process_state_report()["hash_family_masks"] == {}


def test_collector_state_back_at_import_time_values_after_a_run():
    """The run pauses the collector while it builds and freezes the
    built model while it simulates; both are undone when it returns."""
    _run_a()
    report = process_state_report()
    assert {key: report[key] for key in _IMPORT_GC_STATE} == _IMPORT_GC_STATE
    assert _IMPORT_GC_STATE == {"gc_enabled": True, "gc_frozen_objects": 0}


def test_tape_era_caches_are_audited_and_resettable():
    """The request-tape era's pure value caches — zipfian scramble memos
    and WrBF2 position memos — must appear in the audit inventory, fill
    during a run, and reset to import-time state on demand."""
    reset_process_caches()
    report = process_state_report()
    assert report["zipfian_scramble_keys"] == {}
    assert report["split_index_positions"] == {}
    _run_b()
    report = process_state_report()
    assert report["zipfian_scramble_keys"], "zipf scramble memo never filled"
    assert report["split_index_positions"], "WrBF2 position memo never filled"
    reset_process_caches()
    report = process_state_report()
    assert report["zipfian_scramble_keys"] == {}
    assert report["split_index_positions"] == {}
