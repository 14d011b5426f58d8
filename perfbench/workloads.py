"""The benchmark's three workloads: protocol, cluster shape, population
and simulated run length, each built from the run's seed.

Every workload is a closed loop: the runner starts one client per
(node, slot) and each client issues its next transaction only after the
previous one commits.  The seed is the only input a run varies; it
seeds both the clients' request streams and the workload's own key
generator, so one seed gives one exact simulated result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict


@dataclass(frozen=True)
class BenchWorkload:
    """One workload of the benchmark."""

    name: str
    protocol: str
    #: ``(seed, scale) -> workload instance``.
    make_workload: Callable
    #: ``() -> ClusterConfig``.
    make_config: Callable
    duration_ns: float

    def build(self, seed: int, scale: float = 1.0):
        """Fresh ``(workload, config)`` for one run.

        ``scale`` shrinks the population and the simulated duration
        together; the self-tests use it to run the same code paths in
        a fraction of the time.
        """
        return self.make_workload(seed, scale), self.make_config()


def _ycsb_b(seed: int, scale: float):
    from repro.workloads import make_workload

    return make_workload("HT-wB", scale=scale, seed=seed)


def _tpcc(seed: int, scale: float):
    from repro.workloads import TpccWorkload

    return TpccWorkload(warehouses=8, items=max(100, int(2000 * scale)),
                        seed=seed)


def _smallbank(seed: int, scale: float):
    from repro.workloads import make_workload

    return make_workload("Smallbank", scale=0.03 * scale, seed=seed)


def _default_cluster():
    from repro.config import make_cluster_config

    return make_cluster_config("default")


def _four_nodes():
    from repro.config import ClusterConfig

    return ClusterConfig(nodes=4)


def _scale_200():
    from repro.config import make_cluster_config

    return make_cluster_config("scale_200")


WORKLOADS: Dict[str, BenchWorkload] = {
    "ycsb_b": BenchWorkload("ycsb_b", "hades", _ycsb_b, _default_cluster,
                            duration_ns=300_000.0),
    "tpcc": BenchWorkload("tpcc", "hades", _tpcc, _four_nodes,
                          duration_ns=600_000.0),
    "smallbank_wide": BenchWorkload("smallbank_wide", "baseline", _smallbank,
                                    _scale_200, duration_ns=300_000.0),
}
