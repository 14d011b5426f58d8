"""Tests for the command-line interface."""

import pytest

from repro.cli import FIGURES, build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "hades"
        assert args.workload == "HT-wA"
        assert args.shape == "default"

    def test_run_custom(self):
        args = build_parser().parse_args(
            ["run", "--protocol", "baseline", "--workload", "TPC-C",
             "--scale", "0.5", "--shape", "scale_n10"])
        assert args.protocol == "baseline"
        assert args.workload == "TPC-C"
        assert args.scale == 0.5
        assert args.shape == "scale_n10"

    def test_invalid_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--protocol", "spanner"])

    def test_figures_names(self):
        for name in FIGURES:
            args = build_parser().parse_args(["figures", name])
            assert args.name == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_cost_prints_paper_numbers(self, capsys):
        assert main(["cost", "--cores", "5", "--multiplexing", "2",
                     "--remote-nodes", "4"]) == 0
        out = capsys.readouterr().out
        assert "core BF pairs" in out
        assert "10" in out  # 10 pairs

    def test_run_small_experiment(self, capsys):
        code = main(["run", "--protocol", "hades", "--workload", "TATP",
                     "--scale", "0.01", "--duration-us", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput (txn/s)" in out
        assert "TATP" in out

    def test_compare_small(self, capsys):
        code = main(["compare", "--workload", "Smallbank", "--scale", "0.01",
                     "--duration-us", "120"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "hades" in out

    def test_run_with_trace_and_metrics(self, capsys, tmp_path):
        import json

        from repro.obs import validate_jsonl

        jsonl = str(tmp_path / "t.jsonl")
        chrome = str(tmp_path / "t.json")
        csv = str(tmp_path / "m.csv")
        code = main(["run", "--protocol", "hades", "--workload", "ycsb",
                     "--scale", "0.05", "--duration-us", "60",
                     "--trace", jsonl, "--metrics", csv,
                     "--telemetry-interval-ns", "20000"])
        assert code == 0
        assert validate_jsonl(jsonl) > 0
        lines = open(csv).read().splitlines()
        assert lines[0].startswith("t_ns,committed")
        # 60 us at the 20 us telemetry cadence: three rows.
        assert [float(line.split(",")[0]) for line in lines[1:]] == [
            20_000.0, 40_000.0, 60_000.0]
        out = capsys.readouterr().out
        assert f"metrics: 3 samples -> {csv}" in out
        assert "telemetry:" not in out  # --metrics alone prints no line
        code = main(["run", "--protocol", "hades", "--workload", "ycsb",
                     "--scale", "0.05", "--duration-us", "60",
                     "--trace", chrome])
        assert code == 0
        doc = json.load(open(chrome))
        assert doc["traceEvents"]
        capsys.readouterr()

    def test_run_histogram_latency_flag(self, capsys):
        code = main(["run", "--protocol", "baseline", "--workload", "ycsb",
                     "--scale", "0.05", "--duration-us", "60",
                     "--histogram-latency"])
        assert code == 0
        assert "throughput (txn/s)" in capsys.readouterr().out

    def test_workload_aliases_accepted(self):
        from repro.workloads import make_workload

        assert make_workload("ycsb", scale=0.01).name == "HT-wA"
        assert make_workload("YCSB-B", scale=0.01).name == "HT-wB"
        assert make_workload("tpcc", scale=0.01).name == "TPC-C"

    def test_figures_sec06(self, capsys):
        assert main(["figures", "sec06"]) == 0
        out = capsys.readouterr().out
        assert "N=5,C=5,m=2,D=4" in out


class TestSpansAndSlo:
    def test_run_spans_prints_lifecycle_tables(self, capsys):
        code = main(["run", "--protocol", "hades", "--workload", "ycsb",
                     "--scale", "0.05", "--duration-us", "100", "--seed", "5",
                     "--spans"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lifecycle spans" in out
        assert "abort taxonomy" in out
        assert "execute" in out

    def test_spans_out_writes_validatable_json(self, capsys, tmp_path):
        import json

        from repro.obs import SpanRecorder, validate_spans

        path = str(tmp_path / "spans.json")
        code = main(["run", "--protocol", "hades", "--workload", "ycsb",
                     "--scale", "0.05", "--duration-us", "100", "--seed", "5",
                     "--spans-out", path])
        assert code == 0
        dump = json.load(open(path))
        validate_spans(dump)
        recorder = SpanRecorder.from_dict(dump)
        assert recorder.protocol == "hades"
        assert recorder.committed > 0
        assert recorder.unknown_aborts() == 0
        capsys.readouterr()

    def test_slo_pass_and_fail_exit_codes(self, capsys):
        common = ["run", "--protocol", "hades", "--workload", "ycsb",
                  "--scale", "0.05", "--duration-us", "60", "--seed", "7"]
        assert main(common + ["--slo", "p99<100ms"]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(common + ["--slo", "p50<1ns"]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_report_live_mode(self, capsys):
        code = main(["report", "--workload", "ycsb", "--scale", "0.05",
                     "--duration-us", "80", "--seed", "5",
                     "--protocols", "baseline,hades"])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-phase latency breakdown" in out
        assert "baseline p99" in out and "hades p99" in out
        assert "abort taxonomy" in out
        assert "attempts and retries" in out

    def test_report_merges_span_dumps(self, capsys, tmp_path):
        paths = []
        for protocol in ("baseline", "hades"):
            path = str(tmp_path / f"{protocol}.json")
            main(["run", "--protocol", protocol, "--workload", "ycsb",
                  "--scale", "0.05", "--duration-us", "60", "--seed", "5",
                  "--spans-out", path])
            paths.append(path)
        capsys.readouterr()
        assert main(["report"] + paths) == 0
        out = capsys.readouterr().out
        assert "2 span dump(s)" in out
        assert "baseline p50" in out and "hades p50" in out

    def test_report_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit, match="unknown protocol"):
            main(["report", "--protocols", "spanner"])


class TestLoadCli:
    def test_loadtest_defaults(self):
        args = build_parser().parse_args(["loadtest"])
        assert args.protocol == "hades"
        assert args.workload == "HT-wB"
        assert args.slo == "p99<20us"
        assert args.scale == 0.05
        assert not args.smoke

    def test_run_accepts_warmup_and_load(self):
        args = build_parser().parse_args(
            ["run", "--warmup-ns", "50000", "--load", "rate=2e6"])
        assert args.warmup_ns == 50000.0
        assert args.load == "rate=2e6"

    def test_sweep_accepts_rates(self):
        args = build_parser().parse_args(["sweep", "--rates", "1e6,2e6"])
        assert args.rates == "1e6,2e6"

    def test_run_with_load_prints_summary(self, capsys):
        code = main(["run", "--workload", "HT-wB", "--scale", "0.05",
                     "--duration-us", "60", "--warmup-ns", "20000",
                     "--load", "rate=2e6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "open-loop load" in out
        assert "sojourn p99" in out

    def test_loadtest_smoke_writes_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "LT.json"
        code = main(["loadtest", "--duration-us", "60",
                     "--warmup-ns", "20000", "--iters", "2",
                     "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "max sustainable" in out
        assert "probe ladder" in out
        import json

        report = json.loads(out_path.read_text())
        assert report["kind"] == "loadtest"
        assert report["max_sustainable_tps"] >= 0
