"""Self-tests of the benchmark, at a small size.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (HERE, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import run  # noqa: E402
from layers import LayerTracer  # noqa: E402
from sample import run_sample  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Population and simulated duration as a share of the full size.
SCALE = {"ycsb_b": 0.05, "tpcc": 0.1, "smallbank_wide": 0.1}
SEED = 3


def _reset_caches() -> None:
    from repro.isolation import reset_process_caches

    reset_process_caches()


@pytest.fixture(scope="module")
def reports():
    """An untraced and a traced small run of every workload."""
    out = {}
    for name in WORKLOADS:
        _reset_caches()
        untraced = run_sample(name, SEED, trace=False, scale=SCALE[name])
        _reset_caches()
        traced = run_sample(name, SEED, trace=True, scale=SCALE[name])
        out[name] = (untraced, traced)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_fingerprint_equals_untraced(reports, name):
    untraced, traced = reports[name]
    assert untraced["fingerprint"]["committed"] > 0
    assert traced["fingerprint"] == untraced["fingerprint"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_dispatch_spans_cover_every_event(reports, name):
    _untraced, traced = reports[name]
    assert sum(traced["kinds"].values()) == traced["fingerprint"]["events"]


def test_traced_heap_engine_matches_default_engine(reports, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", "heap")
    _reset_caches()
    heap = run_sample("tpcc", SEED, trace=True, scale=SCALE["tpcc"])
    assert heap["fingerprint"] == reports["tpcc"][0]["fingerprint"]
    assert heap["kinds"] == reports["tpcc"][1]["kinds"]


def test_counts_repeat_exactly(reports):
    _reset_caches()
    again = run_sample("tpcc", SEED, trace=True, scale=SCALE["tpcc"])
    assert run.exact_counts(again) == run.exact_counts(reports["tpcc"][1])


def test_bypassed_layers_stay_idle_on_smallbank(reports):
    layers = reports["smallbank_wide"][1]["layers"]
    for layer in ("bloom", "crc", "directory", "nic", "llc"):
        assert layers[f"{layer}.self_s"] == 0.0


def _installed_functions() -> dict:
    tracer = LayerTracer().install()
    patched = tracer.patched
    tracer.uninstall()
    return {(cls, name): original for cls, name, original in patched}


@pytest.mark.parametrize("trace", [True, False])
def test_every_wrapper_is_removed_after_a_sample(trace):
    before = _installed_functions()
    assert before
    for (cls, name), original in before.items():
        assert cls.__dict__[name] is original
    _reset_caches()
    report = run_sample("tpcc", SEED, trace=trace, scale=SCALE["tpcc"])
    assert report["sim_s"] > 0 and report["setup_s"] > 0
    for (cls, name), original in before.items():
        assert cls.__dict__[name] is original, f"{cls.__name__}.{name}"
    from repro.sim.engine import Engine

    assert not hasattr(Engine.__dict__["run"], "__wrapped__")


def test_timed_generator_forwards_send_throw_and_close():
    tracer = LayerTracer()
    log = []

    def inner():
        try:
            got = yield "a"
            log.append(got)
            try:
                yield "b"
            except KeyError as error:
                log.append(repr(error))
            yield "c"
        finally:
            log.append("closed")
        return "unreachable"

    shim = tracer.timed_generator(("core", "test"), inner())
    assert next(shim) == "a"
    assert shim.send(5) == "b"
    assert shim.throw(KeyError("k")) == "c"
    shim.close()
    assert log == [5, "KeyError('k')", "closed"]
    assert tracer.count(("core", "test")) == 3

    def returns():
        yield 1
        return 7

    outer_result = []

    def outer():
        outer_result.append((yield from tracer.timed_generator(
            ("core", "ret"), returns())))

    driver = outer()
    assert next(driver) == 1
    with pytest.raises(StopIteration):
        driver.send(None)
    assert outer_result == [7]


def test_sim_seeds_are_disjoint_between_seeds():
    assert set(run.sim_seeds(1)).isdisjoint(run.sim_seeds(2))
    assert len(set(run.sim_seeds(1))) == run.SIM_SEEDS


def test_end_to_end_pools_simulation_seeds():
    def fingerprint(committed, aborted, p50):
        return {"committed": committed, "aborted": aborted,
                "sim_tps": committed * 1e3, "sim_latency_p50_us": p50,
                "sim_latency_p90_us": 2 * p50}

    references = {10: fingerprint(90, 10, 4.0), 11: fingerprint(70, 30, 6.0)}
    samples = [{"seed": seed, "total_s": 2.0, "setup_s": 1.0, "sim_s": 0.5,
                "peak_rss_mb": 30.0, "calib_s": run.CALIBRATION_S / 2}
               for seed in references]
    metrics = run.end_to_end(samples, references)
    assert metrics["sim_abort_rate"] == 40 / 200
    assert metrics["sim_tps"] == 80e3
    assert metrics["sim_latency_p50_us"] == 5.0
    # Both samples ran at twice the reference host speed.
    assert metrics["total_s"] == 4.0
    assert metrics["commits_per_s"] == 80.0


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
        run.PER_LAYER)


def test_emitted_metric_names_are_declared(reports):
    spec = _benchmark_json()
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    for name, (untraced, traced) in reports.items():
        untraced = dict(untraced, total_s=1.0)
        emitted = list(run.end_to_end([untraced],
                                      {SEED: untraced["fingerprint"]}))
        emitted += list(run.per_layer([traced, untraced],
                                      untraced["fingerprint"]))
        for metric in emitted:
            assert pattern.fullmatch(metric) and len(metric) <= 64, metric
            assert metric in declared, (name, metric)
