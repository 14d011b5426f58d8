"""The ``--metrics`` time series, a CSV projection of telemetry
snapshots, and the per-message-type fold of the tracer's events."""

import pytest

from repro.config import ClusterConfig, FaultPlan
from repro.obs.telemetry import (
    SAMPLE_COLUMNS,
    SampleCsvWriter,
    TelemetrySampler,
)
from repro.obs.tracer import EventTracer
from repro.runner import run_experiment
from repro.workloads import make_workload


def sampled_run(tmp_path, **kwargs):
    """A run with a ``--metrics`` CSV sink: (result, CSV lines)."""
    path = tmp_path / "series.csv"
    with SampleCsvWriter(str(path)) as writer:
        sampler = TelemetrySampler(interval_ns=10_000.0, sink=writer)
        result = run_experiment("hades", make_workload("HT-wA", scale=0.05),
                                duration_ns=100_000.0, seed=9, llc_sets=512,
                                telemetry=sampler, **kwargs)
    return result, path.read_text().splitlines()


def rows(lines):
    """The CSV's data rows as column -> value dicts."""
    return [dict(zip(SAMPLE_COLUMNS, map(float, line.split(","))))
            for line in lines[1:]]


class TestSampler:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            TelemetrySampler(interval_ns=0.0)

    def test_one_row_per_interval(self, tmp_path):
        _, lines = sampled_run(tmp_path)
        # 100 us at 10 us per sample: 10 rows (first at t=10us).
        times = [row["t_ns"] for row in rows(lines)]
        assert len(times) == 10
        assert times == sorted(times)
        assert times[0] == pytest.approx(10_000.0)
        assert times[-1] == pytest.approx(100_000.0)

    def test_cumulative_counts_monotonic_and_match_final(self, tmp_path):
        result, lines = sampled_run(tmp_path)
        committed = [row["committed"] for row in rows(lines)]
        assert committed == sorted(committed)
        assert committed[-1] == result.metrics.meter.committed

    def test_windowed_throughput_reflects_window_commits(self, tmp_path):
        _, lines = sampled_run(tmp_path)
        first, second = rows(lines)[:2]
        window_commits = second["committed"] - first["committed"]
        assert window_commits > 0
        # Six significant digits survive the CSV's .6g cells.
        assert second["throughput_tps"] == pytest.approx(
            window_commits * 1e9 / 10_000.0, rel=1e-5)

    def test_gauges_are_sane(self, tmp_path):
        _, lines = sampled_run(tmp_path)
        samples = rows(lines)
        for sample in samples:
            assert sample["inflight_txns"] >= 0
            assert sample["nic_remote_tx"] >= 0
            assert sample["lock_buffers_in_use"] >= 0
            assert 0.0 <= sample["bf_fill_ratio"] <= 1.0
            assert 0.0 <= sample["abort_rate"] <= 1.0
        # A running HADES cluster should show some hardware occupancy.
        assert any(sample["nic_remote_tx"] > 0 for sample in samples)

    def test_sampler_starts_after_warmup(self, tmp_path):
        _, lines = sampled_run(tmp_path, warmup_ns=50_000.0)
        samples = rows(lines)
        assert samples[0]["t_ns"] == pytest.approx(60_000.0)
        assert len(samples) == 10

    def test_csv_round_trip(self, tmp_path):
        result, lines = sampled_run(tmp_path)
        assert lines[0] == ",".join(SAMPLE_COLUMNS)
        snapshots = list(result.telemetry.snapshots)
        assert len(lines) == 1 + len(snapshots) == 1 + result.telemetry.taken
        # Each row is the projection of one snapshot, in order.
        for line, snap in zip(lines[1:], snapshots):
            cells = line.split(",")
            assert len(cells) == len(SAMPLE_COLUMNS)
            assert float(cells[0]) == snap["t_ns"]
            assert [int(cell) for cell in cells[1:3]] == [
                snap["committed"], snap["aborted"]]
            assert line == SampleCsvWriter.format(snap)

    def test_no_sampling_by_default(self):
        result = run_experiment("hades", make_workload("HT-wA", scale=0.05),
                                duration_ns=30_000.0, seed=9, llc_sets=512)
        assert result.telemetry is None

    def test_metrics_sink_leaves_events_processed_unchanged(self, tmp_path):
        """Observation must not show up in the count it observes: the
        sampler un-counts its own dispatches, so a sampled run reports
        the bare run's engine events."""
        def run(telemetry=None):
            return run_experiment(
                "hades", make_workload("HT-wA", scale=0.02),
                config=ClusterConfig(nodes=3), duration_ns=100_000.0,
                seed=3, telemetry=telemetry)

        bare = run()
        with SampleCsvWriter(str(tmp_path / "m.csv")) as writer:
            sampled = run(TelemetrySampler(interval_ns=10_000.0,
                                           sink=writer))
        assert writer.lines == 10
        assert sampled.events_processed == bare.events_processed
        assert sampled.metrics.summary() == bare.metrics.summary()


def traced_rows(tracer):
    """``message_rows`` keyed by message type."""
    return {row[0]: row for row in tracer.message_rows()}


class TestMessageStats:
    """Per-message-type totals, folded from the tracer's events."""

    def test_aggregates_per_type(self):
        tracer = EventTracer()
        tracer.message_send(0.0, "Read", 0, 1, 64, 1.0, 2.0, 10.0)
        tracer.message_send(5.0, "Read", 0, 1, 64, 3.0, 2.0, 12.0)
        tracer.message_send(9.0, "Ack", 1, 0, 16, 0.0, 1.0, 5.0)
        per_type = traced_rows(tracer)
        name, count, size, queue, wire, delivery, dropped = per_type["Read"]
        assert (count, size, dropped) == (2, 128, 0)
        assert queue == pytest.approx(2.0)  # mean over delivered sends
        assert wire == pytest.approx(2.0)
        assert delivery == pytest.approx(22.0)  # total
        assert sum(row[1] for row in per_type.values()) == 3

    def test_rows_sorted_by_total_delivery(self):
        tracer = EventTracer()
        tracer.message_send(0.0, "Small", 0, 1, 16, 0.0, 1.0, 5.0)
        tracer.message_send(0.0, "Big", 0, 1, 1024, 0.0, 50.0, 500.0)
        assert [row[0] for row in tracer.message_rows()] == ["Big", "Small"]

    def test_drop_counts_as_a_send_but_not_in_the_means(self):
        tracer = EventTracer()
        tracer.message_send(0.0, "Read", 0, 1, 64, 4.0, 2.0, 10.0)
        tracer.fault(1.0, "message_drop", reason="drop", msg="Read",
                     bytes=64, src=0, dst=1, owner=[0, 1])
        tracer.fault(2.0, "message_drop", reason="drop", msg="Lost",
                     bytes=16, src=0, dst=1, owner=[0, 1])
        per_type = traced_rows(tracer)
        assert per_type["Read"] == ("Read", 2, 128, 4.0, 2.0, 10.0, 1)
        assert per_type["Lost"] == ("Lost", 1, 16, 0.0, 0.0, 0.0, 1)

    def test_collected_from_fabric(self):
        tracer = EventTracer()
        result = run_experiment("hades", make_workload("HT-wA", scale=0.05),
                                duration_ns=50_000.0, seed=9, llc_sets=512,
                                tracer=tracer)
        message_rows = tracer.message_rows()
        assert message_rows
        for _, count, size, queue, wire, delivery, dropped in message_rows:
            assert count > 0 and size > 0
            assert queue >= 0.0 and wire > 0.0 and delivery > 0.0
            assert dropped == 0  # no fault plan attached
        assert sum(row[1] for row in message_rows) == result.messages_sent

    def test_counts_every_dropped_send(self):
        tracer = EventTracer()
        result = run_experiment(
            "hades", make_workload("HT-wA", scale=0.05),
            duration_ns=50_000.0, seed=9, llc_sets=512, tracer=tracer,
            fault_plan=FaultPlan.parse("drop=0.1", seed=7))
        message_rows = tracer.message_rows()
        dropped = result.fault_summary["messages_dropped"]
        assert dropped > 0
        assert sum(row[6] for row in message_rows) == dropped
        assert sum(row[1] for row in message_rows) == result.messages_sent
        drop_bytes = {}
        for event in tracer.fault_events():
            if event["name"] == "message_drop":
                args = event["args"]
                assert args["bytes"] > 0
                drop_bytes[args["msg"]] = (drop_bytes.get(args["msg"], 0)
                                           + args["bytes"])
        for name, count, size, *_ in message_rows:
            sent_bytes = sum(event["args"]["bytes"]
                             for event in tracer.events
                             if event["cat"] == "net"
                             and event["name"] == name)
            assert size == sent_bytes + drop_bytes.get(name, 0)


class TestBoundedLatency:
    def test_bounded_latency_survives_warmup_reset(self):
        from repro.obs.histogram import LogHistogram

        result = run_experiment("hades", make_workload("HT-wA", scale=0.05),
                                duration_ns=50_000.0, warmup_ns=20_000.0,
                                seed=9, llc_sets=512, bounded_latency=True)
        assert isinstance(result.metrics.latency, LogHistogram)
        assert result.metrics.latency.count == result.metrics.meter.committed

    def test_bounded_and_exact_agree_on_summary(self):
        exact = run_experiment("hades", make_workload("HT-wA", scale=0.05),
                               duration_ns=50_000.0, seed=9, llc_sets=512)
        bounded = run_experiment("hades", make_workload("HT-wA", scale=0.05),
                                 duration_ns=50_000.0, seed=9, llc_sets=512,
                                 bounded_latency=True)
        assert (bounded.metrics.meter.committed
                == exact.metrics.meter.committed)
        assert bounded.mean_latency_ns == pytest.approx(
            exact.mean_latency_ns, rel=1e-9)
        # p95 tolerance is dominated by rank-vs-interpolation on a small
        # sample (~100 commits), not histogram quantization; the tight
        # accuracy bound lives in test_histogram.py with 20k samples.
        assert bounded.p95_latency_ns == pytest.approx(
            exact.p95_latency_ns, rel=0.05)
