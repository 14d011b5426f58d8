"""Tests for the sweep-vs-sweep gate: ``compare_trajectories`` and
``repro sweep --baseline``."""

import json

import pytest

from repro.analysis.sweep import compare_trajectories
from repro.cli import main


def _cell(scenario="HT-wA", protocol="hades", seed=1, abort_rate=0.25,
          tps=1000.0, events=5000, **extra):
    cell = {"scenario": scenario, "protocol": protocol, "seed": seed,
            "shape": "default", "scale": 0.05, "duration_ns": 15_000.0,
            "overrides": [], "abort_rate": abort_rate,
            "throughput_tps": tps, "events": events}
    cell.update(extra)
    return cell


class TestCompareTrajectories:
    def test_identical_sweeps_pass(self):
        report = {"cells": [_cell(), _cell(protocol="baseline", tps=400.0)]}
        assert compare_trajectories(report, report) == (2, [])

    def test_abort_rate_drift_fails(self):
        baseline = {"cells": [_cell(abort_rate=0.25)]}
        report = {"cells": [_cell(abort_rate=0.30)]}
        matched, failures = compare_trajectories(report, baseline)
        assert matched == 1
        assert len(failures) == 1
        assert "abort_rate" in failures[0]
        assert "behavioral" in failures[0]

    def test_throughput_drop_fails(self):
        baseline = {"cells": [_cell(tps=1000.0)]}
        report = {"cells": [_cell(tps=500.0)]}
        matched, failures = compare_trajectories(report, baseline)
        assert matched == 1
        assert len(failures) == 1
        assert "simulated throughput" in failures[0]

    def test_new_cells_skip_the_gate(self):
        baseline = {"cells": [_cell(seed=1)]}
        report = {"cells": [_cell(seed=1), _cell(seed=2, abort_rate=0.9)]}
        assert compare_trajectories(report, baseline) == (1, [])

    def test_error_cell_fails(self):
        baseline = {"cells": [_cell()]}
        report = {"cells": [dict(_cell(), error="RuntimeError: boom")]}
        matched, failures = compare_trajectories(report, baseline)
        assert matched == 1
        assert len(failures) == 1
        assert "cell failed" in failures[0]

    def test_disjoint_grid_fails(self):
        baseline = {"cells": [_cell(duration_ns=60_000.0)]}
        report = {"cells": [_cell(duration_ns=30_000.0,
                                  overrides=["network.rt_latency_ns=1000"])]}
        matched, failures = compare_trajectories(report, baseline)
        assert matched == 0
        assert failures and "nothing was compared" in failures[0]

    @pytest.mark.parametrize("baseline", [
        {"schema": 1, "benchmark": "hotpath",
         "modes": {"smoke": {"micro_hot": {"events_per_sec": 1.0}}}},
        {"workers": 1, "cells": {"HT-wA.hades.s1": 0.5}},
        [],
    ], ids=["bench-report", "timing-sidecar", "list"])
    def test_non_sweep_json_fails(self, baseline):
        matched, failures = compare_trajectories({"cells": [_cell()]},
                                                 baseline)
        assert matched == 0
        assert failures

    def test_rate_cells_match_on_their_rate(self):
        baseline = {"cells": [_cell(rate=1e6, abort_rate=0.1),
                              _cell(rate=2e6, abort_rate=0.5)]}
        assert compare_trajectories(baseline, baseline) == (2, [])
        report = {"cells": [_cell(rate=2e6, abort_rate=0.5)]}
        assert compare_trajectories(report, baseline) == (1, [])


#: The tiny real sweep every CLI test runs: 1 scenario x 2 protocols.
SWEEP = ["sweep", "--scenarios", "HT-wA", "--protocols", "baseline,hades",
         "--seeds", "5", "--scale", "0.02", "--duration-us", "15"]


@pytest.fixture(scope="module")
def artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("baseline") / "sweep.json"
    assert main(SWEEP + ["--out", str(path)]) == 0
    return path


def _variant(tmp_path, artifact, **changes):
    """A copy of ``artifact`` with ``changes`` applied to every cell."""
    report = json.loads(artifact.read_text())
    for cell in report["cells"]:
        cell.update(changes)
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(report))
    return path


class TestSweepBaselineCli:
    def test_gated_against_itself_passes(self, artifact, capsys):
        capsys.readouterr()
        code = main(SWEEP + ["--out", "-", "--baseline", str(artifact)])
        out = capsys.readouterr().out
        assert code == 0
        assert "trajectory gate passed" in out
        assert "2 of 2 cells matched" in out

    def test_drifted_abort_rates_fail(self, tmp_path, artifact, capsys):
        drifted = _variant(tmp_path, artifact, abort_rate=0.9)
        capsys.readouterr()
        code = main(SWEEP + ["--out", "-", "--baseline", str(drifted)])
        out = capsys.readouterr().out
        assert code == 1
        assert "trajectory gate FAILED" in out
        assert "2 of 2 cells matched" in out
        assert "abort_rate" in out

    def test_disjoint_grid_fails(self, tmp_path, artifact, capsys):
        other = _variant(tmp_path, artifact, duration_ns=60_000.0)
        capsys.readouterr()
        code = main(SWEEP + ["--out", "-", "--baseline", str(other)])
        out = capsys.readouterr().out
        assert code == 1
        assert "0 of 2 cells matched" in out

    def test_non_sweep_json_fails(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_hotpath.json"
        bench.write_text(json.dumps({"schema": 1, "benchmark": "hotpath",
                                     "modes": {"smoke": {}}}))
        code = main(SWEEP + ["--out", "-", "--baseline", str(bench)])
        assert code == 1
        assert "0 of 2 cells matched" in capsys.readouterr().out

    def test_artifact_unchanged_by_the_gate(self, tmp_path, artifact):
        gated = tmp_path / "gated.json"
        assert main(SWEEP + ["--out", str(gated),
                             "--baseline", str(artifact)]) == 0
        assert gated.read_bytes() == artifact.read_bytes()
