"""Tests for the experiment runner."""

import gc
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.config import ClusterConfig
from repro.runner import (
    DEFAULT_DURATION_NS,
    compare_protocols,
    normalized_throughput,
    run_experiment,
)
from repro.workloads import MicroWorkload, make_mix

SMALL = dict(duration_ns=120_000.0, seed=7, llc_sets=256)


def tiny_workload(**kwargs):
    return MicroWorkload(0.5, record_count=2000, **kwargs)


def test_run_experiment_commits_transactions():
    result = run_experiment("baseline", tiny_workload(), **SMALL)
    assert result.metrics.meter.committed > 0
    assert result.metrics.elapsed_ns == 120_000.0
    assert result.throughput > 0
    assert result.workload == "50%WR-50%RD"
    assert result.protocol == "baseline"


def test_unknown_protocol_rejected():
    with pytest.raises(KeyError):
        run_experiment("spanner", tiny_workload(), **SMALL)


def test_empty_workload_list_rejected():
    with pytest.raises(ValueError):
        run_experiment("baseline", [], **SMALL)


def test_deterministic_given_seed():
    first = run_experiment("hades", tiny_workload(), **SMALL)
    second = run_experiment("hades", tiny_workload(), **SMALL)
    assert first.metrics.meter.committed == second.metrics.meter.committed
    assert first.metrics.latency.mean() == second.metrics.latency.mean()


def test_different_seeds_differ():
    first = run_experiment("hades", tiny_workload(), **SMALL)
    second = run_experiment("hades", tiny_workload(),
                            duration_ns=120_000.0, seed=8, llc_sets=256)
    assert (first.metrics.latency.mean() != second.metrics.latency.mean()
            or first.metrics.meter.committed != second.metrics.meter.committed)


def test_warmup_metrics_discarded():
    warm = run_experiment("baseline", tiny_workload(), duration_ns=120_000.0,
                          warmup_ns=60_000.0, seed=7, llc_sets=256)
    cold = run_experiment("baseline", tiny_workload(), **SMALL)
    # Same measurement window length; warm run must not include warm-up
    # commits (throughput the same ballpark, not doubled).
    assert warm.metrics.elapsed_ns == cold.metrics.elapsed_ns
    assert warm.metrics.meter.committed < 2 * cold.metrics.meter.committed


def test_mix_partitions_slots_and_reports_per_workload():
    workloads = make_mix(["HT-wA", "TATP"], scale=0.01)
    result = run_experiment("baseline", workloads, **SMALL)
    assert set(result.per_workload) == {"HT-wA", "TATP"}
    for metrics in result.per_workload.values():
        assert metrics.meter.committed > 0
    total = sum(m.meter.committed for m in result.per_workload.values())
    assert total == result.metrics.meter.committed
    assert result.workload == "HT-wA+TATP"


def test_compare_protocols_and_normalization():
    results = compare_protocols(lambda: tiny_workload(),
                                protocols=("baseline", "hades"),
                                duration_ns=120_000.0, seed=7, llc_sets=256)
    speedups = normalized_throughput(results)
    assert speedups["baseline"] == pytest.approx(1.0)
    assert speedups["hades"] > 0


def test_custom_cluster_config_respected():
    config = ClusterConfig(nodes=3, cores_per_node=2, multiplexing=1)
    result = run_experiment("hades", tiny_workload(), config=config, **SMALL)
    assert result.config.total_cores == 6
    assert result.metrics.meter.committed > 0


def test_default_duration_is_reasonable():
    assert DEFAULT_DURATION_NS >= 1_000_000.0


def test_compare_legs_equal_standalone_runs():
    """Each compare_protocols leg gets a fresh workload, so its result
    is bit-identical to a standalone run of the same (protocol, seed) —
    the first leg's generator draws must not reseed the second leg's."""
    results = compare_protocols(lambda: tiny_workload(),
                                protocols=("baseline", "hades"),
                                duration_ns=60_000.0, seed=7, llc_sets=256)
    for protocol in ("baseline", "hades"):
        standalone = run_experiment(protocol, tiny_workload(),
                                    duration_ns=60_000.0, seed=7,
                                    llc_sets=256)
        leg = results[protocol]
        assert leg.metrics.meter.committed == standalone.metrics.meter.committed
        assert leg.metrics.meter.aborted == standalone.metrics.meter.aborted
        assert leg.mean_latency_ns == standalone.mean_latency_ns
        assert (leg.metrics.counters.as_dict()
                == standalone.metrics.counters.as_dict())


def test_compare_rejects_reused_workload_instance():
    """A factory that hands back the same instance would let run order
    leak between legs through the workload's mutable generator state."""
    shared = tiny_workload()
    with pytest.raises(ValueError, match="same MicroWorkload instance"):
        compare_protocols(lambda: shared,
                          protocols=("baseline", "hades"),
                          duration_ns=20_000.0, seed=7, llc_sets=256)


def test_bloom_ops_reported_as_per_run_deltas():
    first = run_experiment("hades", tiny_workload(), duration_ns=30_000.0,
                           seed=7, llc_sets=256)
    second = run_experiment("hades", tiny_workload(), duration_ns=30_000.0,
                            seed=7, llc_sets=256)
    assert first.bloom_read_ops > 0
    assert second.bloom_read_ops == first.bloom_read_ops
    assert second.bloom_write_ops == first.bloom_write_ops


# -- the cyclic collector around a run -------------------------------------


class CollectorProbe(MicroWorkload):
    """Records the collector's state while the run builds (in
    ``populate``) and while it simulates (at the first
    ``next_transaction``), and counts the collections meanwhile."""

    def __init__(self):
        super().__init__(0.5, record_count=2000)
        self.collections = []

    def on_collection(self, phase, info):
        if phase == "stop":
            self.collections.append(info["generation"])

    def populate(self, cluster):
        before = len(self.collections)
        # More container objects than the young generation's threshold,
        # so a running collector would collect at least once here.
        self.kept = [[key] for key in range(5000)]
        super().populate(cluster)
        self.at_populate = (gc.isenabled(), gc.get_freeze_count(),
                            len(self.collections) - before)

    def next_transaction(self, *args, **kwargs):
        if not hasattr(self, "in_simulation"):
            self.in_simulation = (gc.isenabled(), gc.get_freeze_count())
        return super().next_transaction(*args, **kwargs)

    def run(self):
        gc.callbacks.append(self.on_collection)
        try:
            return run_experiment("hades", self, **SMALL)
        finally:
            gc.callbacks.remove(self.on_collection)


@pytest.fixture(params=[True, False], ids=["caller-collects", "caller-paused"])
def caller_collecting(request):
    """Run the test with the caller's collector enabled, then disabled,
    and put the suite's collector state back afterwards."""
    was_enabled = gc.isenabled()
    assert gc.get_freeze_count() == 0
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_enabled else gc.disable)()


def test_collector_paused_while_building_and_model_frozen_while_running(
        caller_collecting):
    probe = CollectorProbe()
    probe.run()
    # Paused while the model was built: not one collection.
    assert probe.at_populate == (False, 0, 0)
    enabled, frozen = probe.in_simulation
    assert enabled is caller_collecting
    assert frozen > len(probe.kept)
    if not caller_collecting:
        assert probe.collections == []
    assert gc.isenabled() is caller_collecting
    assert gc.get_freeze_count() == 0


def test_collector_state_restored_when_set_up_raises(caller_collecting):
    # Two workloads over the same record ids: the second populate fails.
    with pytest.raises(ValueError, match="already allocated"):
        run_experiment("hades", [tiny_workload(), tiny_workload()], **SMALL)
    assert gc.isenabled() is caller_collecting
    assert gc.get_freeze_count() == 0


def test_caller_frozen_objects_stay_frozen(caller_collecting):
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        probe = CollectorProbe()
        probe.run()
        assert probe.in_simulation == (caller_collecting, frozen)
        assert gc.get_freeze_count() == frozen
        with pytest.raises(ValueError, match="already allocated"):
            run_experiment("hades", [tiny_workload(), tiny_workload()],
                           **SMALL)
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled() is caller_collecting
    finally:
        gc.unfreeze()


def test_same_seed_same_result_with_the_callers_collector_on_or_off():
    def fingerprint():
        result = run_experiment("hades", tiny_workload(), **SMALL)
        latency = result.metrics.latency
        return (result.metrics.summary(), result.metrics.counters.as_dict(),
                [latency.percentile(f) for f in (0.1, 0.5, 0.9, 0.99)],
                result.events_processed, result.bloom_read_ops,
                result.bloom_write_ops)

    was_enabled = gc.isenabled()
    try:
        gc.enable()
        collecting = fingerprint()
        gc.disable()
        paused = fingerprint()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert collecting == paused


def test_back_to_back_runs_free_earlier_models(caller_collecting):
    """A run collects an earlier run's model before it freezes its own,
    so a process that runs many, such as a sweep worker, does not keep
    them all; a caller whose collector is paused collects nothing."""
    clusters = []

    class Remembering(MicroWorkload):
        def populate(self, cluster):
            clusters.append(weakref.ref(cluster))
            super().populate(cluster)

    for _ in range(3):
        run_experiment("hades", Remembering(0.5, record_count=2000), **SMALL)
    freed = [ref() is None for ref in clusters[:-1]]
    assert freed == [caller_collecting] * 2
    gc.collect()
    assert all(ref() is None for ref in clusters)


_FIRST_RUN = """
import gc
from repro.runner import run_experiment
from repro.workloads import MicroWorkload

class Probe(MicroWorkload):
    def next_transaction(self, *args, **kwargs):
        if not hasattr(self, "built_after"):
            self.built_after = list(collections)
        return super().next_transaction(*args, **kwargs)

probe = Probe(0.5, record_count=2000)
collections = []
# Empty the young generation, so that nothing between here and the
# run's start can reach its threshold.
gc.collect()
gc.callbacks.append(lambda phase, info: phase == "stop"
                    and collections.append(info["generation"]))
run_experiment("hades", probe, duration_ns=20_000.0, seed=7, llc_sets=256)
print(probe.built_after)
"""


def test_first_run_in_a_process_builds_without_collecting():
    """The run makes no collection of its own when no earlier run left
    a model behind: set-up in a fresh process pays for none."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", _FIRST_RUN],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
