"""One benchmark sample: build, populate and simulate one workload.

Run as a script, each sample is a fresh Python process, so every
process-wide memo starts cold, as it does for a ``repro run`` user::

    python3 perfbench/sample.py --workload ycsb_b --seed 1 [--trace]

It prints one JSON object on its last stdout line: host timings, peak
memory, the host speed, the simulated fingerprint and, with
``--trace``, the per-layer span totals of :mod:`layers`.
"""

from __future__ import annotations

import time


def calibrate() -> float:
    """Seconds one fixed pure-Python loop takes; it runs no simulator code.

    On a shared VM the host's speed drifts by up to 1.8x within minutes,
    and this loop slows and speeds up with the simulator, so ``run.py``
    scales host times by it.  The loop is timed at the start and the end
    of a sample.
    """
    started = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(300_000):
        table[i & 1023] = i
        total += table.get((i * 7) & 1023, 0) & 3
    return time.perf_counter() - started


_CALIBRATED_S = calibrate()
_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from layers import RUN, LayerTracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: LLC sets per node, as ``repro run`` builds the cluster.
LLC_SETS = 2048


def fingerprint(result) -> dict:
    metrics = result.metrics
    latency = metrics.latency
    return {
        "committed": metrics.meter.committed,
        "aborted": metrics.meter.aborted,
        "events": result.events_processed,
        "sim_tps": result.throughput,
        "sim_latency_p50_us": latency.percentile(0.5) / 1000.0,
        "sim_latency_p90_us": latency.percentile(0.9) / 1000.0,
        "sim_abort_rate": metrics.meter.abort_rate(),
    }


def run_sample(name: str, seed: int, trace: bool = False,
               scale: float = 1.0) -> dict:
    """Run one sample in this process and report it."""
    from repro.runner import run_experiment

    spec = WORKLOADS[name]
    imported = time.perf_counter()
    # Untraced, the tracer wraps only ``Engine.run``: the runner builds
    # the cluster, the protocol and the population before it first calls
    # ``Engine.run``, so everything else from the request on is set-up.
    tracer = LayerTracer().install(layers=trace)
    try:
        workload, config = spec.build(seed, scale)
        requested = time.perf_counter()
        result = run_experiment(spec.protocol, workload, config=config,
                                duration_ns=spec.duration_ns * scale,
                                seed=seed, llc_sets=LLC_SETS)
        returned = time.perf_counter()
    finally:
        tracer.uninstall()
    sim_s = tracer.inclusive_s(RUN)
    calibrated_s = calibrate()
    metrics = result.metrics
    committed = metrics.meter.committed
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "import_s": imported - _STARTED,
        "setup_s": returned - requested - sim_s,
        "sim_s": sim_s,
        # Mean of the two timings, and their sum, which run.py takes
        # out of the sample's wall time.
        "calib_s": (_CALIBRATED_S + calibrated_s) / 2,
        "calibrating_s": _CALIBRATED_S + calibrated_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprint": fingerprint(result),
        "attempts": metrics.meter.attempts,
        "phases_us": {phase_name: total / 1000.0 for phase_name, total
                      in metrics.phases.mean_per_transaction().items()},
    }
    if trace and committed:
        report["layers"] = layer_metrics(tracer, committed,
                                         result.events_processed)
        report["kinds"] = tracer.dispatch_counts()
        report["spans"] = {f"{layer}:{span}": stat for (layer, span), stat
                           in sorted(tracer.spans.items())}
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    report = run_sample(args.workload, args.seed, trace=args.trace)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
