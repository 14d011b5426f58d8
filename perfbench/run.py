"""The repository's benchmark of record.

    python3 perfbench/run.py --workload ycsb_b --seed 1 --seconds 40 --trace 0

Runs samples of one workload one after another, each in a fresh Python
process (``perfbench/sample.py``), until ``--seconds`` have passed, and
prints one JSON object as its last stdout line::

    {"correct": true, "attempted": 8, "failed": 0, "metrics": {...}}

``--seed n`` stands for the ``SIM_SEEDS`` simulation seeds
``n * SIM_SEEDS + i``.  ``--trace 0`` runs them in turn and reports the
end-to-end metrics: host timings as medians over the samples, scaled to
a reference host speed (:func:`host_s`), and simulated results pooled
over the simulation seeds' fingerprints.  ``--trace 1``
alternates traced and untraced samples of the first simulation seed and
reports the per-layer metrics of :mod:`layers`.

Every sample must reproduce the simulated fingerprint of its simulation
seed (``fingerprints.json`` where the seed is recorded there, else the
first sample's).  A sample that fails or differs counts as failed, and
the fields that differ are named on stderr.  In a traced run the
per-commit counts must also repeat exactly between traced samples.
Details of every sample go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import time
from statistics import fmean, median, quantiles
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layers import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SAMPLE = os.path.join(HERE, "sample.py")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
RESULTS_DIR = os.path.join(ROOT, ".perfbench")

#: No sample starts once a run could pass this many seconds.
RUN_LIMIT_S = 150.0
#: p90 needs at least ten commits beyond it.
MIN_COMMITS = 100
#: Simulation seeds per run.  Aborts are rare events that vary with the
#: request stream, so the simulated metrics pool several streams.
SIM_SEEDS = 8
#: What ``sample.calibrate`` takes at the reference host speed: its
#: usual time on the 2-vCPU Xeon VM the bounds were set on.
CALIBRATION_S = 0.09

END_TO_END: List[Tuple[str, str]] = [
    ("total_s", "s"),
    ("setup_s", "s"),
    ("commits_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_tps", "txn/s"),
    ("sim_latency_p50_us", "us"),
    ("sim_latency_p90_us", "us"),
    ("sim_abort_rate", "ratio"),
]

#: Engine callback kinds reported by name; any other kind is summed
#: into ``engine.kind.other_per_commit``.
KINDS = ("Process._resume", "Process._on_event", "Process._sleep_fire",
         "Process._sleep_wake", "Fabric._deliver", "AllOf._child_done")

PER_LAYER: List[Tuple[str, str]] = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("engine.events_per_s", "1/s")]
    + [(f"engine.{name}_per_commit", "1/commit")
       for name in ("events", "schedules", "posts", "cancels")]
    + [(f"engine.kind.{kind}_per_commit", "1/commit")
       for kind in KINDS + ("other",)]
    + [("bloom.probes_per_commit", "1/commit"),
       ("bloom.inserts_per_commit", "1/commit"),
       ("bloom.positive_ratio", "ratio"),
       ("crc.masks_per_commit", "1/commit"),
       ("directory.checks_per_commit", "1/commit"),
       ("directory.lock_attempts_per_commit", "1/commit"),
       ("directory.lock_grant_ratio", "ratio"),
       ("nic.conflict_checks_per_commit", "1/commit"),
       ("llc.touches_per_commit", "1/commit"),
       ("llc.evictions_per_commit", "1/commit"),
       ("fabric.sends_per_commit", "1/commit"),
       ("fabric.handler_s", "s"),
       ("core.attempts_per_commit", "1/commit"),
       ("sim.commits", "count"),
       ("sim.phase.execution_us", "us"),
       ("sim.phase.validation_us", "us"),
       ("sim.phase.commit_us", "us"),
       ("workload.draws_per_commit", "1/commit"),
       ("workload.populate_s", "s"),
       ("cluster.build_s", "s"),
       ("trace.overhead", "ratio")])


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_fingerprints() -> dict:
    with open(FINGERPRINTS) as handle:
        return json.load(handle)


def sim_seeds(seed: int) -> List[int]:
    """The simulation seeds that ``--seed`` stands for."""
    return [seed * SIM_SEEDS + index for index in range(SIM_SEEDS)]


def host_s(report: dict, seconds: float) -> float:
    """``seconds`` timed in ``report``'s sample, at the reference host speed.

    A sample that ran its calibration loop in twice ``CALIBRATION_S``
    ran on a host at half speed, so its times are halved.  The scale
    removes host speed drift shared by the loop and the simulator, and
    leaves a change in the simulator's own cost visible.
    """
    return seconds * CALIBRATION_S / report["calib_s"]


def spawn(workload: str, seed: int, traced: bool,
          timeout: float) -> Tuple[Optional[dict], Optional[str]]:
    """One sample in a fresh process: ``(report, None)`` or ``(None, error)``."""
    command = [sys.executable, SAMPLE, "--workload", workload,
               "--seed", str(seed)] + (["--trace"] if traced else [])
    started = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"sample timed out after {timeout:.0f} s"
    total_s = time.perf_counter() - started
    if done.returncode != 0:
        return None, (f"sample exited {done.returncode}: "
                      + done.stderr.strip()[-2000:])
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, "sample printed no report"
    report["total_s"] = total_s - report["calibrating_s"]
    return report, None


def collect(workload: str, seeds: List[int], seconds: float,
            trace: bool) -> Tuple[List[dict], List[str]]:
    """Run samples for ``seconds``, and at least enough to report.

    Untraced samples take ``seeds`` in turn, each at least once and the
    first again, so every run checks that a seed repeats its result.
    Traced runs alternate traced and untraced samples of ``seeds[0]``.
    A sample is not started when its kind's longest duration so far
    says it would end past ``seconds``, so a run overshoots its window
    only to reach the minimum sample count.
    """
    if trace:
        plan = zip(itertools.cycle((True, False)), itertools.repeat(seeds[0]))
        minimum = 4
    else:
        plan = zip(itertools.repeat(False), itertools.cycle(seeds))
        minimum = len(seeds) + 1
    started = time.perf_counter()
    reports: List[dict] = []
    errors: List[str] = []
    longest = {True: 0.0, False: 0.0}
    for traced, seed in plan:
        elapsed = time.perf_counter() - started
        attempted = len(reports) + len(errors)
        if (attempted >= minimum
                and elapsed + longest[traced] > seconds):
            break
        if attempted and elapsed + 1.5 * max(longest.values()) > RUN_LIMIT_S:
            break
        if len(errors) >= 3:
            break
        sample_started = time.perf_counter()
        report, error = spawn(workload, seed, traced,
                              timeout=RUN_LIMIT_S + 20.0 - elapsed)
        longest[traced] = max(longest[traced],
                              time.perf_counter() - sample_started)
        if error is None:
            reports.append(report)
        else:
            errors.append(error)
            log(f"[{workload}] failed sample: {error}")
    return reports, errors


def differing(fingerprint: dict, reference: dict) -> List[str]:
    return sorted(key for key in set(fingerprint) | set(reference)
                  if fingerprint.get(key) != reference.get(key))


def end_to_end(reports: List[dict],
               references: Dict[int, dict]) -> Dict[str, float]:
    """Host medians over ``reports``; simulated results pooled over the
    fingerprints in ``references`` (simulation seed -> fingerprint).

    Every seed simulates the same duration, so the mean of the seeds'
    throughputs is the pooled throughput.  The abort rate pools attempts.
    The latency percentiles are the mean of the seeds' percentiles.
    """
    fingerprints = list(references.values())
    committed = sum(f["committed"] for f in fingerprints)
    aborted = sum(f["aborted"] for f in fingerprints)
    return {
        "total_s": median([host_s(r, r["total_s"]) for r in reports]),
        "setup_s": median([host_s(r, r["setup_s"]) for r in reports]),
        "commits_per_s": median([references[r["seed"]]["committed"]
                                 / host_s(r, r["sim_s"]) for r in reports]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
        "sim_tps": fmean(f["sim_tps"] for f in fingerprints),
        "sim_latency_p50_us": fmean(f["sim_latency_p50_us"]
                                    for f in fingerprints),
        "sim_latency_p90_us": fmean(f["sim_latency_p90_us"]
                                    for f in fingerprints),
        "sim_abort_rate": aborted / (committed + aborted),
    }


def exact_counts(report: dict) -> dict:
    """The parts of a traced report that must repeat exactly."""
    counts = {key: value for key, value in report["layers"].items()
              if not key.endswith("_s")}
    counts["kinds"] = report["kinds"]
    return counts


def per_layer(reports: List[dict], reference: dict) -> Dict[str, float]:
    traced = [r for r in reports if r["trace"]]
    untraced = [r for r in reports if not r["trace"]]
    committed = reference["committed"]
    first = traced[0]
    metrics = {key: (median([host_s(r, r["layers"][key]) for r in traced])
                     if key.endswith("_s") else value)
               for key, value in first["layers"].items()}
    kinds = dict(first["kinds"])
    for kind in KINDS:
        metrics[f"engine.kind.{kind}_per_commit"] = kinds.pop(kind, 0) / committed
    metrics["engine.kind.other_per_commit"] = sum(kinds.values()) / committed
    untraced_sim_s = median([host_s(r, r["sim_s"]) for r in untraced])
    metrics["engine.events_per_s"] = median(
        [reference["events"] / host_s(r, r["sim_s"]) for r in untraced])
    metrics["core.attempts_per_commit"] = first["attempts"] / committed
    metrics["sim.commits"] = committed
    for phase in ("execution", "validation", "commit"):
        metrics[f"sim.phase.{phase}_us"] = first["phases_us"].get(phase, 0.0)
    metrics["trace.overhead"] = (median([host_s(r, r["sim_s"]) for r in traced])
                                 / untraced_sim_s - 1.0)
    return {name: metrics[name] for name, _unit in PER_LAYER}


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, q2, q3 = quantiles(values, n=4)
    return f"{q2:.4g} [q1 {q1:.4g}, q3 {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="defaults to the pinned seed in fingerprints.json")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's fingerprints for its simulation "
                             "seeds, replacing any stored ones")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "runner.py")):
        log(f"no simulator sources under {os.path.join(ROOT, 'src')}; "
            "run from a checkout of the repository")
        return 2
    recorded = load_fingerprints()
    seed = recorded["default_seed"] if args.seed is None else args.seed
    seeds = sim_seeds(seed)[:1] if args.trace else sim_seeds(seed)
    stored = recorded["fingerprints"].get(args.workload, {})
    references: Dict[int, dict] = {
        sim_seed: stored[str(sim_seed)] for sim_seed in seeds
        if str(sim_seed) in stored and not args.record}

    reports, errors = collect(args.workload, seeds, args.seconds,
                              bool(args.trace))
    problems = list(errors)
    good = []
    for report in reports:
        reference = references.setdefault(report["seed"],
                                          report["fingerprint"])
        fields = differing(report["fingerprint"], reference)
        if fields:
            problems.append(f"seed {report['seed']}: fingerprint differs in "
                            f"{', '.join(fields)}")
            log(f"[{args.workload}] seed {report['seed']}: fingerprint "
                f"differs in {fields}: {report['fingerprint']} vs {reference}")
        else:
            good.append(report)
    for sim_seed in seeds:
        if not any(r["seed"] == sim_seed for r in good):
            problems.append(f"no good sample of simulation seed {sim_seed}")
        elif references[sim_seed]["committed"] < MIN_COMMITS:
            problems.append(f"seed {sim_seed}: only "
                            f"{references[sim_seed]['committed']} commits")
    traced = [r for r in good if r["trace"]]
    if args.trace and not problems:
        if not traced or len(traced) == len(good):
            problems.append("a traced run needs traced and untraced samples")
        elif any(exact_counts(r) != exact_counts(traced[0]) for r in traced):
            problems.append("per-commit counts differ between traced samples "
                            "(benchmark defect)")
        elif sum(traced[0]["kinds"].values()) != references[seeds[0]]["events"]:
            problems.append("dispatch spans do not cover every engine event")

    correct = not problems
    metrics: Dict[str, float] = {}
    if correct:
        values = (per_layer(good, references[seeds[0]]) if args.trace
                  else end_to_end(good, references))
        units = dict(PER_LAYER if args.trace else END_TO_END)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in values.items()}
        if args.record:
            for sim_seed, reference in references.items():
                stored[str(sim_seed)] = reference
            recorded["fingerprints"][args.workload] = stored
            with open(FINGERPRINTS, "w") as handle:
                json.dump(recorded, handle, indent=1, sort_keys=True)
                handle.write("\n")
    for problem in problems:
        log(f"[{args.workload}] seed {seed}: {problem}")
    timed = [r for r in good if not r["trace"]]
    if timed:
        commits = [references[sim_seed]["committed"] for sim_seed in seeds
                   if sim_seed in references]
        log(f"[{args.workload}] seed {seed}: {len(timed)} timed samples; "
            f"total_s {quartiles([r['total_s'] for r in timed])}, "
            f"setup_s {quartiles([r['setup_s'] for r in timed])}, "
            f"sim_s {quartiles([r['sim_s'] for r in timed])} (unscaled); "
            f"host speed {quartiles([CALIBRATION_S / r['calib_s'] for r in timed])}; "
            f"percentiles over {min(commits)}-{max(commits)} commits "
            f"per simulation seed")

    os.makedirs(RESULTS_DIR, exist_ok=True)
    results = os.path.join(
        RESULTS_DIR, f"{args.workload}-seed{seed}-trace{args.trace}.json")
    with open(results, "w") as handle:
        json.dump({"workload": args.workload, "seed": seed,
                   "trace": args.trace, "correct": correct,
                   "problems": problems,
                   "fingerprints": {str(sim_seed): fingerprint for sim_seed,
                                    fingerprint in references.items()},
                   "metrics": metrics, "samples": reports},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(json.dumps({"correct": correct,
                      "attempted": len(reports) + len(errors),
                      "failed": len(reports) + len(errors) - len(good),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
