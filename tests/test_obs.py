"""The PR 7 observability layer: events, metrics, tracing, and the hub."""

import io
import json

import pytest

from repro.common.errors import ConfigurationError
from repro.common.events import PhaseTimer
from repro.obs import (
    EventLog,
    JsonlSink,
    MetricsRegistry,
    ObservabilityHub,
    RingBufferSink,
    Span,
    Tracer,
)
from repro.core.engine import create_server
from repro.core.results import PHASE_AGGREGATE, PHASE_COPY_IN, PHASE_COPY_OUT, PHASE_DPXOR
from repro.dpf.prf import make_prg
from repro.obs.tracing import KIND_CACHE, KIND_PHASE, KIND_SERVER, KIND_SHARD
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy, FlushObservation, PIRFrontend, ResultDetail


class _RaisingSink:
    def __init__(self):
        self.calls = 0

    def emit(self, event):
        self.calls += 1
        raise RuntimeError("exporter down")


class TestEventLog:
    def test_no_sinks_is_a_disabled_no_op(self):
        log = EventLog()
        assert not log.enabled
        assert log.emit("anything", now=1.0, key="value") is None
        assert log.events_emitted == 0
        # Not even the clock moves through emit's disabled fast path.
        assert log.now == 0.0

    def test_emit_stamps_clock_and_sequence(self):
        ring = RingBufferSink()
        log = EventLog([ring])
        first = log.emit("a", now=2.0)
        second = log.emit("b")  # no clock of its own: inherits the last instant
        third = log.emit("c", now=1.0)  # stale clock never rewinds the stamp
        assert [event.seq for event in (first, second, third)] == [0, 1, 2]
        assert [event.now for event in (first, second, third)] == [2.0, 2.0, 2.0]
        assert log.events_emitted == 3
        assert ring.named("b") == [second]

    def test_advance_is_a_monotonic_max(self):
        log = EventLog([RingBufferSink()])
        log.advance(5.0)
        log.advance(3.0)
        assert log.now == 5.0

    def test_sink_fault_is_counted_and_other_sinks_still_fed(self):
        ring = RingBufferSink()
        raising = _RaisingSink()
        log = EventLog([raising, ring])
        log.emit("x", now=0.5)
        log.emit("y")
        assert log.dropped == 2
        assert isinstance(log.last_error, RuntimeError)
        assert raising.calls == 2
        assert [event.name for event in ring.events()] == ["x", "y"]

    def test_event_fields_render_json_safe(self):
        class Exotic:
            def __repr__(self):
                return "Exotic()"

        log = EventLog([RingBufferSink()])
        event = log.emit("mixed", pairs=[(1, 2)], nested={"k": Exotic()}, flag=True)
        payload = event.as_dict()
        json.dumps(payload)  # must not raise
        assert payload["pairs"] == [[1, 2]]
        assert payload["nested"] == {"k": "Exotic()"}
        assert payload["flag"] is True


class TestRingBufferSink:
    def test_capacity_bounds_retention(self):
        ring = RingBufferSink(capacity=3)
        log = EventLog([ring])
        for i in range(5):
            log.emit("tick", i=i)
        assert len(ring) == 3
        assert [event.fields["i"] for event in ring.events()] == [2, 3, 4]
        assert ring.counts() == {"tick": 3}

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            RingBufferSink(capacity=0)


class TestJsonlSink:
    def test_handle_gets_one_complete_line_per_event(self):
        handle = io.StringIO()
        sink = JsonlSink(handle)
        log = EventLog([sink])
        log.emit("first", now=0.25, index=7)
        log.emit("second")
        lines = [json.loads(line) for line in handle.getvalue().splitlines()]
        assert sink.lines_written == 2
        assert [line["name"] for line in lines] == ["first", "second"]
        assert lines[0]["index"] == 7 and lines[0]["now"] == 0.25

    def test_path_mode_owns_and_closes_the_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path))
        EventLog([sink]).emit("only", now=1.0)
        sink.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["name"] == "only"

    def test_max_bytes_rotates_once_and_bounds_the_disk(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path), max_bytes=200)
        log = EventLog([sink])
        for i in range(50):
            log.emit("tick", now=float(i), i=i)
        sink.close()
        assert sink.rotations >= 2  # re-rotations overwrite the same .1 file
        rotated = tmp_path / "events.jsonl.1"
        assert rotated.exists()
        for file in (path, rotated):
            content = file.read_text()
            assert len(content.encode()) <= 200
            for line in content.splitlines():
                json.loads(line)  # every line survives rotation complete
        # Nothing beyond the live file and the single rotation target.
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "events.jsonl", "events.jsonl.1",
        ]

    def test_oversize_single_line_is_still_written_whole(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(str(path), max_bytes=10)
        log = EventLog([sink])
        log.emit("first", now=0.0, payload="x" * 100)
        assert sink.rotations == 0  # an empty file never rotates
        log.emit("second", now=1.0)
        sink.close()
        assert sink.rotations == 1
        assert json.loads((tmp_path / "events.jsonl.1").read_text())["payload"]

    def test_append_mode_counts_preexisting_bytes_against_the_bound(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"name": "old"}\n')
        sink = JsonlSink(str(path), max_bytes=20)
        assert sink.bytes_written == len('{"name": "old"}\n')
        EventLog([sink]).emit("fresh", now=0.0)
        sink.close()
        assert sink.rotations == 1  # the old content already spent the budget

    def test_max_bytes_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JsonlSink(str(tmp_path / "e.jsonl"), max_bytes=0)
        with pytest.raises(ConfigurationError):
            JsonlSink(io.StringIO(), max_bytes=100)  # handles cannot rotate


class TestMetrics:
    def test_counter_semantics(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_things_total", "things", ("kind",))
        counter.inc(kind="a")
        counter.inc(2, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3.0
        assert counter.total() == 4.0
        with pytest.raises(ConfigurationError):
            counter.inc(-1, kind="a")
        with pytest.raises(ConfigurationError):
            counter.inc(wrong_label="a")

    def test_gauge_set_replaces(self):
        gauge = MetricsRegistry().gauge("repro_level")
        gauge.set(7)
        gauge.set(3)
        gauge.inc(1)
        assert gauge.value() == 4.0

    def test_histogram_cumulative_buckets(self):
        hist = MetricsRegistry().histogram("repro_lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)
        assert snap["buckets"] == {0.1: 1, 1.0: 3, 10.0: 4}

    def test_histogram_quantile_interpolates_within_buckets(self):
        hist = MetricsRegistry().histogram("repro_q", buckets=(1.0, 2.0, 4.0))
        hist.observe(0.5)
        hist.observe(3.0)
        # target 0.5*2 = 1: the whole first bucket -> 0 + (1-0)*1/1.
        assert hist.quantile(0.5) == pytest.approx(1.0)
        # target 1.98 lands in (2, 4]: 2 + 2 * (1.98-1)/1.
        assert hist.quantile(0.99) == pytest.approx(3.96)

    def test_histogram_quantile_edge_ranks(self):
        hist = MetricsRegistry().histogram("repro_q2", buckets=(1.0, 2.0))
        hist.observe(1.5)
        # Rank 0 in a leading empty bucket resolves to its lower bound.
        assert hist.quantile(0.0) == 0.0
        # Observations above every bound live in +Inf: the estimate clamps
        # to the highest finite bound.
        hist.observe(50.0)
        assert hist.quantile(1.0) == 2.0

    def test_histogram_quantile_validation(self):
        hist = MetricsRegistry().histogram("repro_q3", buckets=(1.0,))
        with pytest.raises(ConfigurationError):
            hist.quantile(1.5)
        with pytest.raises(ConfigurationError):
            hist.quantile(0.5)  # no observations yet

    def test_bad_buckets_and_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("repro_h", buckets=())
        with pytest.raises(ConfigurationError):
            registry.histogram("repro_h2", buckets=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            registry.counter("0starts-with-digit")

    def test_registry_is_idempotent_but_rejects_conflicts(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", "x", ("kind",))
        assert registry.counter("repro_x_total", "x", ("kind",)) is first
        with pytest.raises(ConfigurationError):
            registry.counter("repro_x_total", "x", ("other",))  # label mismatch
        with pytest.raises(ConfigurationError):
            registry.gauge("repro_x_total")  # kind mismatch

    def test_render_is_prometheus_shaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_empty_total", "never incremented")
        labeled = registry.counter("repro_hits_total", "hits", ("shard",))
        labeled.inc(shard="2")
        hist = registry.histogram("repro_s", "seconds", buckets=(1.0,))
        hist.observe(0.5)
        text = registry.render()
        assert "# TYPE repro_empty_total counter" in text
        assert "repro_empty_total 0" in text  # unlabeled empties expose a zero
        assert 'repro_hits_total{shard="2"} 1' in text
        assert 'repro_s_bucket{le="1"} 1' in text
        assert 'repro_s_bucket{le="+Inf"} 1' in text
        assert "repro_s_sum 0.5" in text and "repro_s_count 1" in text

    def test_as_dict_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total").inc(3)
        snapshot = registry.as_dict()
        json.dumps(snapshot)
        assert snapshot["repro_a_total"]["samples"][0]["value"] == 3.0


class TestTracing:
    def test_add_phases_is_float_exact_against_phase_timer(self):
        timer = PhaseTimer()
        # Values chosen to make float addition order-sensitive: only the
        # same left-to-right fold lands on the same float.
        for phase, seconds in (("a", 0.1), ("b", 0.2), ("c", 0.3), ("d", 1e-9)):
            timer.record(phase, seconds)
        span = Span("server", kind=KIND_SERVER)
        span.add_phases(timer)
        assert span.seconds == timer.total
        assert [leaf.name for leaf in span.find(KIND_PHASE)] == ["a", "b", "c", "d"]
        assert span.phase_total() == timer.total

    def test_children_do_not_sum_into_the_parent(self):
        root = Span("request")
        child = root.child("server", kind=KIND_SERVER)
        child.seconds = 5.0
        assert root.seconds == 0.0

    def test_start_trace_is_get_or_create(self):
        tracer = Tracer()
        first = tracer.start_trace("req-1", "retrieve[3]", now=1.0)
        again = tracer.start_trace("req-1", "ignored", now=9.0)
        assert again is first
        assert tracer.get("req-1") is first
        assert first.started_now == 1.0

    def test_max_traces_evicts_oldest(self):
        tracer = Tracer(max_traces=2)
        for i in range(4):
            tracer.start_trace(f"req-{i}", "r", now=float(i))
        assert [trace.trace_id for trace in tracer.traces()] == ["req-2", "req-3"]
        assert tracer.traces_evicted == 2

    def test_slowest_orders_by_root_seconds(self):
        tracer = Tracer()
        for i, seconds in enumerate((0.2, 0.9, 0.1)):
            tracer.start_trace(f"req-{i}", "r").root.seconds = seconds
        assert [t.trace_id for t in tracer.slowest(2)] == ["req-1", "req-0"]

    def test_bounds_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Tracer(max_traces=0)


def _observation(**overrides):
    base = dict(
        reason="size",
        now=1.0,
        batch=((1, 10),),
        scanned=(),
        cached_indices=frozenset(),
        cache_hits=0,
        deduped=0,
        makespans=(),
        details={},
    )
    base.update(overrides)
    return FlushObservation(**base)


class _FakeReplica:
    def __init__(self):
        self.engine = type("Engine", (), {"events": None})()
        self.instrumented = []
        backend = self

        class _Backend:
            @staticmethod
            def instrument(events=None):
                backend.instrumented.append(events)

        self.backend = _Backend()


class _FakeFrontend:
    def __init__(self, replicas=()):
        self.observers = []
        self.replicas = list(replicas)


class TestObservabilityHub:
    def test_events_fold_into_metrics(self):
        hub = ObservabilityHub()
        hub.events.emit("shard.scan", shard=3, seconds=0.01)
        hub.events.emit("shard.scan", shard=3, seconds=0.02)
        hub.events.emit(
            "rebalance.pass", splits=1, merges=0, migrations=2, plan_version=7
        )
        hub.events.emit("cache.admit", index=5)
        hub.events.emit("cache.invalidate", dropped=4)
        registry = hub.registry
        assert registry.get("repro_shard_scans_total").value(shard="3") == 2.0
        assert registry.get("repro_shard_scan_seconds").count() == 2
        assert registry.get("repro_rebalance_passes_total").value() == 1.0
        assert registry.get("repro_rebalance_migrations_total").value() == 2.0
        assert registry.get("repro_topology_version").value() == 7.0
        assert registry.get("repro_cache_admissions_total").value() == 1.0
        assert registry.get("repro_cache_invalidations_total").value() == 4.0
        assert hub.events.dropped == 0

    def test_observe_flush_emits_and_counts(self):
        hub = ObservabilityHub()
        hub.observe_flush(
            _observation(batch=((1, 10), (2, 10)), cache_hits=1, deduped=1)
        )
        (event,) = hub.ring.named("frontend.flush")
        assert event.fields["requests"] == 2
        assert hub.registry.get("repro_requests_total").value() == 2.0
        assert hub.registry.get("repro_cache_hits_total").value() == 1.0
        assert hub.registry.get("repro_dedup_suppressed_total").value() == 1.0
        assert hub.registry.get("repro_flushes_total").value(reason="size") == 1.0

    def test_scanned_request_gets_the_full_pipeline_tree(self):
        hub = ObservabilityHub()
        slow, fast = PhaseTimer(), PhaseTimer()
        for phase, seconds in (("host_eval", 0.1), ("dpxor", 0.3)):
            slow.record(phase, seconds)
        fast.record("dpxor", 0.05)
        shard = PhaseTimer()
        shard.record("dpxor", 0.3)
        hub.observe_flush(
            _observation(
                scanned=((7, 42, ((0, 0), (1, 1))),),
                batch=((7, 42),),
                details={
                    (0, 0): ResultDetail(
                        breakdown=slow, simulated_seconds=slow.total, shards=((1, shard),)
                    ),
                    (1, 1): ResultDetail(breakdown=fast, simulated_seconds=fast.total),
                },
            )
        )
        trace = hub.tracer.get("req-7")
        assert trace is not None and trace.root.name == "retrieve[42]"
        servers = trace.root.find(KIND_SERVER)
        assert len(servers) == 2
        by_id = {span.labels["server_id"]: span for span in servers}
        assert by_id[0].seconds == slow.total  # float-exact
        assert by_id[0].labels["engine_seconds"] == slow.total
        (span,) = by_id[0].find(KIND_SHARD)
        assert span.labels["shard"] == 1 and span.seconds == 0.3
        assert not by_id[1].find(KIND_SHARD)
        assert by_id[1].seconds == fast.total
        # Replicas run in parallel: the request costs its slowest server.
        assert trace.root.seconds == slow.total

    def test_sharded_replicas_trace_one_span_per_shard(self):
        # The shard detail travels in each answer: every server span of a
        # scanned request holds one span per shard, in shard order, whose
        # phases the server's breakdown folds per-phase max.
        database = Database.random(96, 8, seed=21)
        replicas = [
            create_server("sharded", database, server_id, num_shards=3, child_kind="im-pir")
            for server_id in (0, 1)
        ]
        client = PIRClient(96, 8, seed=22, prg=make_prg())
        hub = ObservabilityHub()
        frontend = hub.attach(PIRFrontend(client, replicas, policy=BatchingPolicy(4, 1.0)))
        indices = [3, 40, 77, 95]
        assert frontend.retrieve_batch(indices) == [database.record(i) for i in indices]
        shard_order = [shard.index for shard, _ in replicas[0].backend.members]
        assert shard_order == [0, 1, 2]
        traces = hub.tracer.traces()
        assert len(traces) == len(indices)
        for trace in traces:
            servers = trace.root.find(KIND_SERVER)
            assert [span.labels["server_id"] for span in servers] == [0, 1]
            for server in servers:
                shards = server.find(KIND_SHARD)
                assert [span.labels["shard"] for span in shards] == shard_order
                shard_phases = [
                    {leaf.name: leaf.seconds for leaf in span.find(KIND_PHASE)} for span in shards
                ]
                for phases in shard_phases:
                    assert list(phases) == [
                        PHASE_COPY_IN, PHASE_DPXOR, PHASE_COPY_OUT, PHASE_AGGREGATE
                    ]
                folded = {leaf.name: leaf.seconds for leaf in server.find(KIND_PHASE)}
                for phase in shard_phases[0]:
                    assert folded[phase] == max(phases[phase] for phases in shard_phases)

    def test_breakdown_less_server_still_gets_a_total(self):
        hub = ObservabilityHub()
        hub.observe_flush(
            _observation(
                scanned=((3, 8, ((0, 0),)),),
                batch=((3, 8),),
                details={
                    (0, 0): ResultDetail(breakdown=PhaseTimer(), simulated_seconds=0.125)
                },
            )
        )
        (server,) = hub.tracer.get("req-3").root.find(KIND_SERVER)
        assert server.seconds == 0.125
        assert not server.find(KIND_PHASE)

    def test_cache_hits_and_dedup_followers_get_marker_traces(self):
        hub = ObservabilityHub()
        hub.observe_flush(
            _observation(
                batch=((1, 10), (2, 11)),
                cached_indices=frozenset({10}),
                cache_hits=1,
                deduped=1,
            )
        )
        (hit,) = hub.tracer.get("req-1").root.find(KIND_CACHE)
        (follower,) = hub.tracer.get("req-2").root.find(KIND_CACHE)
        assert hit.name == "cache-hit"
        assert follower.name == "dedup-follower"
        assert hub.tracer.get("req-1").total_seconds == 0.0

    def test_attach_wires_replicas_idempotently(self):
        hub = ObservabilityHub()
        replica = _FakeReplica()
        frontend = _FakeFrontend([replica])
        assert hub.attach(frontend) is frontend
        hub.attach(frontend)
        assert frontend.observers == [hub]  # appended once
        assert replica.engine.events is hub.events
        assert replica.instrumented == [hub.events, hub.events]

    def test_report_sections(self):
        hub = ObservabilityHub()
        hub.observe_flush(_observation())
        text = hub.report(top_n=2)
        assert "== events ==" in text
        assert "frontend.flush" in text
        assert "== metrics ==" in text
        assert "repro_requests_total 1" in text
        assert "== slowest traces (top 2) ==" in text
        assert "retrieve[10]" in text

    def test_jsonl_export_through_the_hub(self, tmp_path):
        path = tmp_path / "hub.jsonl"
        hub = ObservabilityHub(jsonl_path=str(path))
        hub.observe_flush(_observation())
        hub.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == hub.events.events_emitted == 1
        assert lines[0]["name"] == "frontend.flush"
