"""EventTracer: schema, output formats, and end-to-end instrumentation."""

import json

import pytest

from repro.obs.tracer import (
    ENGINE_PID,
    NET_TID_BASE,
    EventTracer,
    load_jsonl,
    validate_jsonl,
)
from repro.runner import run_experiment
from repro.workloads import make_workload


def traced_run(protocol="hades", duration_ns=60_000.0, seed=7):
    tracer = EventTracer()
    result = run_experiment(protocol, make_workload("HT-wA", scale=0.05),
                            duration_ns=duration_ns, seed=seed, llc_sets=512,
                            tracer=tracer)
    return tracer, result


class TestEventCollection:
    def test_untraced_run_attaches_nothing(self):
        result = run_experiment("hades", make_workload("HT-wA", scale=0.05),
                                duration_ns=30_000.0, seed=7, llc_sets=512)
        assert result.telemetry is None
        assert result.spans is None

    def test_traced_run_collects_all_categories(self):
        tracer, result = traced_run()
        categories = {event["cat"] for event in tracer.events}
        assert {"engine", "net", "txn"} <= categories
        assert result.metrics.meter.committed > 0

    def test_txn_lifecycle_events_present(self):
        tracer, result = traced_run()
        names = [event["name"] for event in tracer.events]
        assert "txn_begin" in names
        assert "txn_commit" in names
        assert "execution" in names  # phase span
        assert tracer.committed_count() == result.metrics.meter.committed

    def test_message_events_carry_queue_and_wire_split(self):
        tracer, _ = traced_run()
        messages = [e for e in tracer.events if e["cat"] == "net"]
        assert messages
        for event in messages:
            assert event["ph"] == "X"
            assert event["tid"] == NET_TID_BASE + event["args"]["dst"]
            assert event["args"]["queue_ns"] >= 0.0
            assert event["args"]["wire_ns"] > 0.0
            # Queueing + wire never exceeds the delivered latency.
            assert (event["args"]["queue_ns"] + event["args"]["wire_ns"]
                    <= event["dur"] + 1e-9)

    @pytest.mark.parametrize("protocol,seed,duration_ns", [
        ("hades", 7, 120_000.0),
        # Each of these runs ends with an attempt frozen mid-cleanup:
        # its squash is neither traced nor counted as an abort.
        ("hades", 5, 60_000.0),
        ("baseline", 7, 120_000.0),
        ("hades-h", 2, 60_000.0),
    ])
    def test_squash_events_carry_reason(self, protocol, seed, duration_ns):
        tracer, result = traced_run(protocol, duration_ns, seed)
        squashes = [e for e in tracer.events if e["name"] == "txn_squash"]
        assert len(squashes) == result.metrics.meter.aborted
        assert all(e["args"]["reason"] for e in squashes)

    def test_phase_totals_match_phase_breakdown_exactly(self):
        tracer, result = traced_run()
        assert tracer.committed_phase_totals() == pytest.approx(
            result.metrics.phases.as_dict())

    def test_capture_schedules_off_by_default(self):
        tracer, _ = traced_run()
        assert not any(e["name"] == "schedule" for e in tracer.events)


class TestJsonlOutput:
    def test_round_trip_and_validation(self, tmp_path):
        tracer, _ = traced_run()
        path = str(tmp_path / "trace.jsonl")
        tracer.save_jsonl(path)
        assert validate_jsonl(path) == len(tracer)
        events = load_jsonl(path)
        assert len(events) == len(tracer)
        assert events[0] == json.loads(json.dumps(tracer.events[0]))

    def test_save_dispatches_on_extension(self, tmp_path):
        tracer, _ = traced_run(duration_ns=20_000.0)
        jsonl_path = str(tmp_path / "t.jsonl")
        chrome_path = str(tmp_path / "t.json")
        tracer.save(jsonl_path)
        tracer.save(chrome_path)
        assert validate_jsonl(jsonl_path) == len(tracer)
        assert "traceEvents" in json.load(open(chrome_path))

    def test_validate_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 0}\n')
        with pytest.raises(ValueError, match="header"):
            validate_jsonl(str(path))

    def test_validate_rejects_wrong_format_version(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "format": 99}\n')
        with pytest.raises(ValueError, match="format"):
            validate_jsonl(str(path))

    def test_validate_rejects_bad_event(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = '{"kind": "header", "format": 1}'
        event = ('{"ts": 1.0, "ph": "Z", "cat": "txn", "name": "x", '
                 '"pid": 0, "tid": 0, "args": {}}')
        path.write_text(header + "\n" + event + "\n")
        with pytest.raises(ValueError, match="bad ph"):
            validate_jsonl(str(path))

    def test_validate_rejects_x_event_without_dur(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = '{"kind": "header", "format": 1}'
        event = ('{"ts": 1.0, "ph": "X", "cat": "net", "name": "m", '
                 '"pid": 0, "tid": 0, "args": {}}')
        path.write_text(header + "\n" + event + "\n")
        with pytest.raises(ValueError, match="dur"):
            validate_jsonl(str(path))

    def test_validate_rejects_event_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "header", "format": 1, "events": 5}\n')
        with pytest.raises(ValueError, match="declares"):
            validate_jsonl(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            validate_jsonl(str(path))


class TestChromeOutput:
    def test_timestamps_converted_to_microseconds(self):
        tracer = EventTracer()
        tracer.instant(2000.0, "txn", "txn_begin", pid=1, tid=2)
        tracer.complete(1000.0, 500.0, "net", "Msg", pid=0, tid=NET_TID_BASE)
        doc = tracer.chrome_trace()
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        instant = next(e for e in events if e["ph"] == "i")
        span = next(e for e in events if e["ph"] == "X")
        assert instant["ts"] == 2.0
        assert instant["s"] == "t"
        assert span["ts"] == 1.0
        assert span["dur"] == 0.5

    def test_metadata_names_processes_and_threads(self):
        tracer, _ = traced_run(duration_ns=20_000.0)
        doc = tracer.chrome_trace()
        metadata = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        process_names = {e["args"]["name"] for e in metadata
                         if e["name"] == "process_name"}
        thread_names = {e["args"]["name"] for e in metadata
                        if e["name"] == "thread_name"}
        assert "engine" in process_names
        assert any(name.startswith("node ") for name in process_names)
        assert any(name.startswith("slot ") for name in thread_names)
        assert any(name.startswith("net to node ") for name in thread_names)

    def test_engine_events_use_synthetic_pid(self):
        tracer, _ = traced_run(duration_ns=20_000.0)
        engine_events = [e for e in tracer.events if e["cat"] == "engine"]
        assert engine_events
        assert all(e["pid"] == ENGINE_PID for e in engine_events)

    def test_chrome_json_is_serializable(self, tmp_path):
        tracer, _ = traced_run(duration_ns=20_000.0)
        path = str(tmp_path / "trace.json")
        tracer.save_chrome(path)
        doc = json.load(open(path))
        assert len(doc["traceEvents"]) > len(tracer)  # events + metadata


class TestDeterminism:
    def test_same_seed_same_trace(self):
        first, _ = traced_run(seed=11)
        second, _ = traced_run(seed=11)
        assert first.events == second.events


class TestStreamingFinalize:
    """A run that dies mid-experiment must leave a usable trace."""

    def test_streamed_trace_matches_in_memory_events(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        with EventTracer(stream_path=path) as tracer:
            run_experiment("hades", make_workload("HT-wA", scale=0.05),
                           duration_ns=30_000.0, seed=7, llc_sets=512,
                           tracer=tracer)
        assert validate_jsonl(path) == len(tracer)
        assert load_jsonl(path) == json.loads(json.dumps(tracer.events))

    def test_close_is_idempotent_and_stops_streaming(self, tmp_path):
        path = str(tmp_path / "stream.jsonl")
        tracer = EventTracer(stream_path=path)
        tracer.instant(1.0, "txn", "txn_begin", pid=0, tid=0)
        tracer.close()
        tracer.close()
        tracer.instant(2.0, "txn", "txn_begin", pid=0, tid=0)  # not written
        assert validate_jsonl(path) == 1

    def test_chrome_path_written_on_close_after_exception(self, tmp_path):
        chrome = str(tmp_path / "trace.json")
        with pytest.raises(RuntimeError):
            with EventTracer(chrome_path=chrome) as tracer:
                tracer.instant(1.0, "txn", "txn_begin", pid=0, tid=0)
                raise RuntimeError("run died")
        doc = json.load(open(chrome))
        assert any(e.get("name") == "txn_begin" for e in doc["traceEvents"])

    def test_killed_run_leaves_replayable_trace(self, tmp_path):
        """Regression: SIGKILL a streaming run mid-experiment, then
        replay what reached the disk — every line must be valid and the
        events must be a prefix of an identical surviving run."""
        import os
        import signal
        import subprocess
        import sys

        path = str(tmp_path / "killed.jsonl")
        script = f"""
import os, sys
from repro.obs.tracer import EventTracer
from repro.runner import run_experiment
from repro.workloads import make_workload

tracer = EventTracer(stream_path={path!r})
# kill ourselves from inside the run: after 400 events, no cleanup.
real = tracer.instant
count = [0]
def instant(*args, **kwargs):
    real(*args, **kwargs)
    count[0] += 1
    if count[0] >= 400:
        os.kill(os.getpid(), 9)
tracer.instant = instant
run_experiment("hades", make_workload("HT-wA", scale=0.05),
               duration_ns=60_000.0, seed=7, llc_sets=512, tracer=tracer)
"""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True)
        assert proc.returncode == -signal.SIGKILL
        count = validate_jsonl(path)
        assert count >= 399  # all fully-written lines survived the kill
        # Replay: the dead run's events are a prefix of a healthy run's.
        survivor, _ = traced_run(duration_ns=60_000.0, seed=7)
        replayed = load_jsonl(path)
        expected = json.loads(json.dumps(survivor.events[:len(replayed)]))
        assert replayed == expected
