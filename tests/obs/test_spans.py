"""Transaction-lifecycle spans: taxonomy, recorder, wiring, determinism."""

import pytest

from repro.config import ClusterConfig, FaultPlan, RecoveryParams
from repro.obs.histogram import LogHistogram
from repro.obs.spans import (
    ABORT_CLASSES,
    ABORT_UNKNOWN,
    SPAN_PHASES,
    SpanRecorder,
    classify_abort,
    format_spans,
    validate_spans,
)
from repro.runner import run_experiment
from repro.workloads import make_workload
from repro.workloads.micro import MicroWorkload


def span_run(protocol="hades", duration_ns=100_000.0, seed=5, **kwargs):
    recorder = SpanRecorder()
    result = run_experiment(protocol, make_workload("HT-wA", scale=0.05),
                            duration_ns=duration_ns, seed=seed, llc_sets=512,
                            spans=recorder, **kwargs)
    return recorder, result


class TestClassifyAbort:
    def test_every_known_reason_classifies_out_of_unknown(self):
        reasons = [
            "eager_ll_read", "eager_ll_write", "eager_ll_write_vs_reader",
            "llc_eviction", "blocked_timeout", "request_timeout",
            "dirlock_local", "dirlock_remote", "ack_timeout",
            "footprint_miss", "read_retries_exhausted",
            "lock_conflict_local", "lock_conflict_remote", "lock_timeout",
            "validation_conflict_local", "validation_conflict_remote",
            "validation_timeout", "local_validation", "replica_failure",
            "replica_timeout", "node_crash",
        ]
        for reason in reasons:
            assert classify_abort(reason) in ABORT_CLASSES
            assert classify_abort(reason) != ABORT_UNKNOWN, reason

    def test_delivered_squash_suffixes(self):
        for reason in ("lazy_rr", "lazy_lr", "lazy_home_rr", "lazy_home_lr",
                       "pessimistic_rr", "pessimistic_lr"):
            assert classify_abort(reason) == "lr_conflict"

    def test_squashed_during_commit_consults_delivered_reason(self):
        assert classify_abort("squashed_during_commit",
                              "llc_eviction") == "capacity"
        assert classify_abort("squashed_during_commit",
                              "lazy_rr") == "lr_conflict"
        # No recorded cause: only a remote conflict check can have sent it.
        assert classify_abort("squashed_during_commit") == "lr_conflict"

    def test_bare_interrupt_without_cause_is_unknown(self):
        assert classify_abort("interrupt") == ABORT_UNKNOWN
        assert classify_abort("interrupt", "eager_ll_read") == "ll_conflict"

    def test_novel_reason_is_unknown(self):
        assert classify_abort("cosmic_ray") == ABORT_UNKNOWN


class TestSpanRecorder:
    def test_attempt_accounting(self):
        rec = SpanRecorder()
        rec.record_attempt(0, 0, 1, 0, committed=False,
                           phases={"execute": 100.0}, reason="lazy_rr")
        rec.record_attempt(0, 0, 2, 1, committed=True,
                           phases={"execute": 80.0, "publish": 10.0},
                           parent_txid=1, total_latency_ns=500.0)
        assert rec.attempts == 2
        assert rec.committed == 1
        assert rec.aborted == 1
        assert rec.retry_links == 1
        assert rec.retry_rate == 0.5
        assert rec.txn_latency.count == 1
        assert rec.abort_class_totals() == {"lr_conflict": 1}
        assert rec.phase_hists["execute"].count == 2

    def test_as_dict_round_trip_and_merge(self):
        first, _ = span_run(seed=5)
        second, _ = span_run(seed=11)
        clone = SpanRecorder.from_dict(first.as_dict())
        assert clone.as_dict() == first.as_dict()
        clone.merge(second)
        assert clone.attempts == first.attempts + second.attempts
        assert clone.aborted == first.aborted + second.aborted
        validate_spans(clone.as_dict())

    def test_merge_rejects_protocol_mismatch(self):
        left, right = SpanRecorder(), SpanRecorder()
        left.protocol, right.protocol = "hades", "baseline"
        with pytest.raises(ValueError, match="protocols"):
            left.merge(right)

    def test_keep_attempts_retains_retry_chain(self):
        rec = SpanRecorder(keep_attempts=True)
        rec.record_attempt(1, 2, 10, 0, committed=False, phases={},
                           reason="lazy_rr")
        rec.record_attempt(1, 2, 11, 1, committed=True, phases={},
                           parent_txid=10, total_latency_ns=1.0)
        assert [r["txid"] for r in rec.attempt_records] == [10, 11]
        assert rec.attempt_records[1]["parent_txid"] == 10

    def test_validate_rejects_attempt_mismatch(self):
        rec = SpanRecorder()
        dump = rec.as_dict()
        dump["attempts"] = 5
        with pytest.raises(ValueError, match="attempts"):
            validate_spans(dump)

    def test_validate_rejects_unknown_phase(self):
        dump = SpanRecorder().as_dict()
        dump["phases"]["teleport"] = LogHistogram().as_dict()
        with pytest.raises(ValueError, match="phase"):
            validate_spans(dump)

    def test_validate_rejects_unknown_abort_class(self):
        rec = SpanRecorder()
        rec.record_attempt(0, 0, 1, 0, committed=False, phases={},
                           reason="lazy_rr")
        dump = rec.as_dict()
        dump["abort_classes"] = {"gremlins:0": 1}
        with pytest.raises(ValueError, match="abort class"):
            validate_spans(dump)


class TestEndToEnd:
    @pytest.mark.parametrize("protocol", ["baseline", "hades", "hades-h"])
    def test_complete_taxonomy_and_invariants(self, protocol):
        rec, result = span_run(protocol)
        meter = result.metrics.meter
        assert rec.committed == meter.committed
        assert rec.aborted == meter.aborted
        assert rec.attempts == rec.committed + rec.aborted
        assert rec.unknown_aborts() == 0
        assert rec.txn_latency.count == rec.committed
        assert set(rec.phase_hists) <= set(SPAN_PHASES)
        assert rec.phase_hists["execute"].count > 0
        assert rec.message_hists  # fabric hook fired
        validate_spans(rec.as_dict())

    def test_retry_links_bounded_by_aborts(self):
        rec, _ = span_run()
        assert 0 < rec.retry_links <= rec.aborted

    def test_spans_do_not_change_results(self):
        rec = SpanRecorder()
        workload = lambda: MicroWorkload(0.5, record_count=64)  # noqa: E731
        plain = run_experiment("hades", workload(), duration_ns=150_000.0,
                               seed=3, llc_sets=256)
        spanned = run_experiment("hades", workload(), duration_ns=150_000.0,
                                 seed=3, llc_sets=256, spans=rec)
        assert plain.metrics.meter.committed == spanned.metrics.meter.committed
        assert plain.metrics.meter.aborted == spanned.metrics.meter.aborted
        assert plain.metrics.latency.mean() == spanned.metrics.latency.mean()
        assert plain.events_processed == spanned.events_processed

    def test_same_seed_same_spans(self):
        first, _ = span_run(seed=9)
        second, _ = span_run(seed=9)
        assert first.as_dict() == second.as_dict()

    def test_fault_drops_recorded(self):
        rec = SpanRecorder()
        plan = FaultPlan.parse("drop=0.05", seed=1)
        result = run_experiment("hades", MicroWorkload(0.3, record_count=128),
                                duration_ns=150_000.0, seed=4, llc_sets=256,
                                fault_plan=plan, spans=rec)
        # Every injected drop, counted where the injector decides it.
        assert rec.fault_drops == {"drop": result.fault_summary["drops_drop"]}
        assert rec.fault_drops["drop"] > 0
        validate_spans(rec.as_dict())

    def test_crash_windows_stay_classified(self):
        rec = SpanRecorder()
        plan = FaultPlan.parse("crash=1:30000:60000", seed=2)
        config = ClusterConfig(recovery=RecoveryParams(enabled=True))
        run_experiment("hades", MicroWorkload(0.5, record_count=64),
                       config=config, duration_ns=200_000.0, seed=6,
                       llc_sets=256, fault_plan=plan, spans=rec)
        assert rec.unknown_aborts() == 0
        validate_spans(rec.as_dict())

    def test_warmup_spans_discarded(self):
        rec = SpanRecorder()
        result = run_experiment("hades", make_workload("HT-wA", scale=0.05),
                                duration_ns=60_000.0, warmup_ns=60_000.0,
                                seed=5, llc_sets=512, spans=rec)
        # Post-warmup attempt counts track the post-warmup meter, not
        # the whole run.
        assert rec.committed == result.metrics.meter.committed

    def test_format_spans_renders_tables(self):
        rec, _ = span_run()
        text = format_spans(rec)
        assert "lifecycle spans:" in text
        assert "abort taxonomy:" in text
        assert "execute" in text
        assert "p999" in text


class TestLoadTaxonomy:
    """The open-loop load layer's phase and abort-class extensions."""

    def test_queue_wait_is_a_phase(self):
        from repro.obs.spans import SPAN_QUEUE_WAIT

        assert SPAN_QUEUE_WAIT in SPAN_PHASES

    def test_shed_and_overload_reasons_classify(self):
        assert classify_abort("queue_full_shed") == "shed"
        assert classify_abort("backpressure_shed") == "shed"
        assert classify_abort("degraded_shed") == "shed"
        assert classify_abort("queue_deadline") == "overload"
        assert classify_abort("retry_budget_exhausted") == "overload"
        assert {"shed", "overload"} <= set(ABORT_CLASSES)

    def test_every_retry_cause_records_backoff_phase(self):
        # Satellite contract: any aborted-then-retried attempt funnels
        # its backoff wait into the retry_backoff phase.
        rec, result = span_run(duration_ns=200_000.0)
        aborted = rec.aborted
        assert aborted > 0
        backoffs = rec.phase_hists["retry_backoff"].count
        assert backoffs > 0
        # Every backoff is either a post-abort retry or a pessimistic
        # directory-lock retry (hades); nothing else draws one.
        lock_retries = result.metrics.counters.get(
            "pessimistic_lock_retries")
        assert backoffs <= aborted + lock_retries
