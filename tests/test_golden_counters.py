"""Pinned end-to-end work counts: the cost gate CI runs.

Four short fixed-seed runs in the CI smoke shape (``--scale 0.05
--duration-us 100 --seed 5``, LLC of 2048 sets as ``repro run`` builds
it) plus ``micro_hot``, a 50 %-write microbenchmark over 500 records on
3 nodes whose squash/retry storm exercises the spin, squash and cleanup
paths.  ``baseline``/``smallbank`` runs the engine and fabric with no
Bloom code at all.

The Table III access counts (``bloom_read_ops``/``bloom_write_ops``)
and the conflict counters depend on every Bloom probe and insert the
protocols make, in the order they make them, so any change to how the
directory, NIC or Module 3 checks probe their filters shows up here
even when commits and aborts stay the same.  ``events`` (engine
callbacks) and ``messages`` (``Fabric.messages_sent``) are the
simulator's own cost: an extra engine event per commit, or an extra
message per transaction, moves them while every simulated result stays
put.  The
values are exact and machine-independent; a deliberate change
re-records them (docs/PERFORMANCE.md, "What CI gates").
"""

import pytest

from repro.config import ClusterConfig, make_cluster_config
from repro.runner import run_experiment
from repro.workloads import MicroWorkload, make_workload

GOLDEN = {
    ("hades", "ycsb"): dict(
        bloom_read_ops=260459, bloom_write_ops=18025,
        conflict_checks=54454, conflict_false_positives=22,
        directory_block_spins=163, committed=243, aborted=106,
        commits_after_retry=51, events=28080, messages=5496),
    ("hades", "tpcc"): dict(
        bloom_read_ops=98796, bloom_write_ops=3021,
        conflict_checks=38308, conflict_false_positives=2,
        directory_block_spins=23, committed=120, aborted=19,
        commits_after_retry=7, events=17784, messages=4369),
    ("hades-h", "ycsb"): dict(
        bloom_read_ops=150746, bloom_write_ops=13873,
        conflict_checks=39401, conflict_false_positives=30,
        directory_block_spins=85, committed=146, aborted=63,
        commits_after_retry=27, events=16436, messages=3368),
    ("baseline", "smallbank"): dict(
        bloom_read_ops=0, bloom_write_ops=0,
        conflict_checks=0, conflict_false_positives=0,
        directory_block_spins=0, committed=449, aborted=10,
        commits_after_retry=5, events=21182, messages=3349),
    ("hades", "micro_hot"): dict(
        bloom_read_ops=13044, bloom_write_ops=1114,
        conflict_checks=3266, conflict_false_positives=0,
        directory_block_spins=248, committed=44, aborted=65,
        commits_after_retry=15, events=5715, messages=844),
}


def _run(protocol, workload):
    if workload == "micro_hot":
        return run_experiment(protocol, MicroWorkload(0.5, record_count=500),
                              config=ClusterConfig(nodes=3),
                              duration_ns=40_000.0, seed=3, llc_sets=1024)
    return run_experiment(protocol, make_workload(workload, scale=0.05),
                          config=make_cluster_config("default"),
                          duration_ns=100_000.0, seed=5, llc_sets=2048)


@pytest.mark.parametrize("protocol,workload", sorted(GOLDEN))
def test_counters_match_golden(protocol, workload):
    result = _run(protocol, workload)
    counters = result.metrics.counters
    observed = dict(
        bloom_read_ops=result.bloom_read_ops,
        bloom_write_ops=result.bloom_write_ops,
        conflict_checks=counters.get("conflict_checks"),
        conflict_false_positives=counters.get("conflict_false_positives"),
        directory_block_spins=counters.get("directory_block_spins"),
        committed=result.metrics.meter.committed,
        aborted=result.metrics.meter.aborted,
        commits_after_retry=counters.get("commits_after_retry"),
        events=result.events_processed,
        messages=result.messages_sent,
    )
    assert observed == GOLDEN[(protocol, workload)]
