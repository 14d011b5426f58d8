"""HADES — hardware-assisted distributed transactions (ISCA 2024).

A protocol-level reproduction of *HADES: Hardware-Assisted Distributed
Transactions in the Age of Fast Networks and SmartNICs* (Kokolis et
al., ISCA 2024): a discrete-event simulator of a cluster with
Bloom-filter conflict-detection hardware and SmartNIC commit
processing, the three protocols the paper evaluates (FaRM-style
software Baseline, HADES, HADES-H), the benchmark suite (TPC-C, TATP,
Smallbank, YCSB over four key-value stores), and one experiment per
figure/table of the paper's evaluation.

Quick taste::

    from repro import ClusterConfig, run_experiment
    from repro.workloads import make_workload

    result = run_experiment("hades", make_workload("TPC-C", scale=0.1),
                            duration_ns=500_000)
    print(result.throughput, "committed txns/s")

See README.md for the guided tour, DESIGN.md for the system inventory,
and EXPERIMENTS.md for paper-vs-measured numbers.
"""

from repro.config import ClusterConfig, make_cluster_config
from repro.core import (
    PROTOCOLS,
    BaselineProtocol,
    HadesHybridProtocol,
    HadesProtocol,
    Request,
    read,
    write,
)
from repro.core.replication import HadesReplicatedProtocol
from repro.obs import EventTracer, LogHistogram, TelemetrySampler
from repro.runner import (
    ExperimentResult,
    compare_protocols,
    normalized_throughput,
    run_experiment,
)

__version__ = "1.0.0"

__all__ = [
    "BaselineProtocol",
    "ClusterConfig",
    "EventTracer",
    "ExperimentResult",
    "HadesHybridProtocol",
    "HadesProtocol",
    "HadesReplicatedProtocol",
    "LogHistogram",
    "PROTOCOLS",
    "Request",
    "TelemetrySampler",
    "compare_protocols",
    "make_cluster_config",
    "normalized_throughput",
    "read",
    "run_experiment",
    "write",
]
