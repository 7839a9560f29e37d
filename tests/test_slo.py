"""The SLO layer: streaming digests, burn-rate alerting, the flight recorder.

The digest tests pin the accuracy contract documented on
:class:`LatencyDigest`: bit-exact agreement with ``numpy.percentile`` while
the stream fits the centroid budget, and a bounded *rank* error (about
``200 / max_centroids`` percentile points) on adversarial large streams —
constant, bimodal, heavy-tail, and sorted insertion orders.  The engine
tests drive the full alert lifecycle on a simulated clock; the recorder
tests pin bundle schema, determinism, and boundedness.
"""

import bisect
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.obs import (
    INCIDENT_SCHEMA,
    BurnRateRule,
    EventLog,
    FlightRecorder,
    HealthSignal,
    LatencyDigest,
    MetricsRegistry,
    ObservabilityHub,
    RingBufferSink,
    SloEngine,
    SloObjective,
    SloPolicy,
    WindowedDigest,
    default_rules,
    validate_bundle,
)

QS = (0.0, 0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


def rank_error(values, q, estimate):
    """Distance (in rank fraction) from ``q`` to the estimate's rank span.

    An estimate equal to a repeated value covers a whole span of ranks
    (a constant stream covers all of them), so the error is the distance
    from ``q`` to the nearest rank the estimate could legitimately hold.
    """
    data = sorted(values)
    n = len(data)
    lo = bisect.bisect_left(data, estimate)
    hi = bisect.bisect_right(data, estimate)
    denominator = max(n - 1, 1)
    lo_q = lo / denominator
    hi_q = max(hi - 1, lo) / denominator
    if lo_q <= q <= hi_q:
        return 0.0
    return min(abs(q - lo_q), abs(q - hi_q))


def fill(values, max_centroids=64):
    digest = LatencyDigest(max_centroids)
    for value in values:
        digest.add(value)
    return digest


class TestLatencyDigestExact:
    """n <= max_centroids: the digest IS numpy linear interpolation."""

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 63, 64])
    def test_matches_numpy_for_small_streams(self, n):
        rng = np.random.default_rng(n)
        values = rng.uniform(0.0, 1.0, size=n)
        digest = fill(values)
        for q in QS:
            expected = float(np.percentile(values, q * 100, method="linear"))
            assert digest.quantile(q) == pytest.approx(expected, abs=1e-12)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.floats(
                min_value=-1e6,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
            min_size=1,
            max_size=64,
        ),
        st.sampled_from(QS),
    )
    def test_property_small_stream_exactness(self, values, q):
        digest = fill(values)
        expected = float(np.percentile(values, q * 100, method="linear"))
        assert digest.quantile(q) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_weighted_add_equals_repeated_add(self):
        weighted = LatencyDigest()
        weighted.add(0.25, count=3)
        weighted.add(0.75, count=2)
        repeated = fill([0.25, 0.25, 0.25, 0.75, 0.75])
        for q in QS:
            assert weighted.quantile(q) == pytest.approx(repeated.quantile(q))


def adversarial_streams():
    rng = np.random.default_rng(7)
    uniform = rng.uniform(0.0, 1.0, size=5000)
    return {
        "constant": np.full(5000, 0.25),
        "uniform": uniform,
        "ascending": np.sort(uniform),
        "descending": np.sort(uniform)[::-1],
        "bimodal": rng.choice([0.001, 1.0], size=5000, p=[0.9, 0.1]),
        "heavy-tail": 1.0 + rng.pareto(1.5, size=5000),
        "tiny-n-heavy": 1.0 + np.random.default_rng(8).pareto(1.5, size=80),
    }


class TestLatencyDigestLargeStreams:
    @pytest.mark.parametrize("name", sorted(adversarial_streams()))
    def test_rank_error_is_bounded(self, name):
        values = adversarial_streams()[name]
        digest = fill(values)
        bound = 200.0 / digest.max_centroids / 100.0  # rank fraction
        for q in QS:
            err = rank_error(values, q, digest.quantile(q))
            assert err <= bound + 1e-9, f"{name} q={q}: rank error {err:.4f}"

    @pytest.mark.parametrize("name", sorted(adversarial_streams()))
    def test_min_max_are_always_exact(self, name):
        values = adversarial_streams()[name]
        digest = fill(values)
        assert digest.quantile(0.0) == float(np.min(values))
        assert digest.quantile(1.0) == float(np.max(values))

    def test_quantile_is_monotone_in_q(self):
        digest = fill(adversarial_streams()["heavy-tail"])
        estimates = [digest.quantile(q) for q in QS]
        assert estimates == sorted(estimates)

    def test_merge_preserves_count_and_bounds(self):
        values = adversarial_streams()["bimodal"]
        merged = LatencyDigest()
        for chunk in np.array_split(values, 10):
            part = fill(chunk)
            merged.merge(part)
        assert merged.count == len(values)
        bound = 200.0 / merged.max_centroids / 100.0
        for q in QS:
            # Two rounds of compression (chunk + merge) at most double the
            # centroid-resolution error.
            err = rank_error(values, q, merged.quantile(q))
            assert err <= 2 * bound + 1e-9

    def test_state_stays_bounded(self):
        digest = fill(np.random.default_rng(3).uniform(size=20000))
        digest.quantile(0.5)  # forces a buffer flush
        assert len(digest._means) <= digest.max_centroids
        assert digest._buffer == []


class TestLatencyDigestErrors:
    def test_quantile_out_of_range(self):
        digest = fill([1.0])
        with pytest.raises(ConfigurationError):
            digest.quantile(-0.1)
        with pytest.raises(ConfigurationError):
            digest.quantile(1.1)

    def test_empty_digest_has_no_quantiles(self):
        with pytest.raises(ConfigurationError):
            LatencyDigest().quantile(0.5)
        assert LatencyDigest().as_dict() == {"count": 0}

    def test_nonpositive_count_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyDigest().add(1.0, count=0)

    def test_tiny_centroid_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            LatencyDigest(max_centroids=4)

    def test_as_dict_reports_headline_quantiles(self):
        snapshot = fill([0.001, 0.002, 0.003]).as_dict()
        assert snapshot["count"] == 3
        assert snapshot["min"] == 0.001 and snapshot["max"] == 0.003
        assert set(snapshot) == {"count", "min", "max", "p50", "p95", "p99"}


class TestWindowedDigest:
    def test_window_selects_recent_buckets_only(self):
        windowed = WindowedDigest(bucket_seconds=1.0, horizon_seconds=20.0)
        windowed.observe(1.0, now=0.5)
        windowed.observe(2.0, now=10.5)
        assert windowed.quantile(0.5, window_seconds=1.0, now=10.5) == 2.0
        assert windowed.quantile(0.5, window_seconds=15.0, now=10.5) == 1.5

    def test_old_buckets_are_pruned(self):
        windowed = WindowedDigest(bucket_seconds=1.0, horizon_seconds=2.0)
        windowed.observe(1.0, now=0.0)
        windowed.observe(2.0, now=100.0)
        assert len(windowed._buckets) == 1

    def test_empty_window_is_none(self):
        windowed = WindowedDigest(bucket_seconds=1.0, horizon_seconds=4.0)
        assert windowed.quantile(0.5, window_seconds=1.0, now=0.0) is None
        windowed.observe(1.0, now=0.0)
        assert windowed.quantile(0.5, window_seconds=1.0, now=50.0) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WindowedDigest(bucket_seconds=0.0, horizon_seconds=1.0)
        with pytest.raises(ConfigurationError):
            WindowedDigest(bucket_seconds=2.0, horizon_seconds=1.0)
        windowed = WindowedDigest(bucket_seconds=1.0, horizon_seconds=2.0)
        with pytest.raises(ConfigurationError):
            windowed.digest(window_seconds=0.0, now=0.0)


class TestObjectivesAndRules:
    def test_availability_objective_ignores_latency(self):
        objective = SloObjective("avail", target=0.999)
        assert objective.budget == pytest.approx(0.001)
        assert not objective.is_bad(100.0, ok=True)
        assert objective.is_bad(0.0, ok=False)
        assert "availability" in objective.describe()

    def test_latency_objective_counts_slow_and_failed(self):
        objective = SloObjective("lat", target=0.95, latency_threshold_seconds=0.01)
        assert not objective.is_bad(0.01, ok=True)  # at threshold: good
        assert objective.is_bad(0.011, ok=True)
        assert objective.is_bad(0.0, ok=False)
        assert "0.01s" in objective.describe()

    def test_objective_validation(self):
        with pytest.raises(ConfigurationError):
            SloObjective("", target=0.5)
        with pytest.raises(ConfigurationError):
            SloObjective("x", target=1.0)
        with pytest.raises(ConfigurationError):
            SloObjective("x", target=0.0)
        with pytest.raises(ConfigurationError):
            SloObjective("x", target=0.5, latency_threshold_seconds=0.0)

    def test_rule_validation(self):
        with pytest.raises(ConfigurationError):
            BurnRateRule("", 1.0, 0.5, 2.0)
        with pytest.raises(ConfigurationError):
            BurnRateRule("x", 1.0, 1.0, 2.0)  # short must be < long
        with pytest.raises(ConfigurationError):
            BurnRateRule("x", 0.0, -1.0, 2.0)
        with pytest.raises(ConfigurationError):
            BurnRateRule("x", 1.0, 0.5, 0.0)

    def test_default_rules_are_the_fast_slow_pair(self):
        fast, slow = default_rules()
        assert fast.escalate and not slow.escalate
        assert fast.burn_threshold > slow.burn_threshold
        assert fast.long_window_seconds < slow.long_window_seconds

    def test_policy_validation(self):
        objective = SloObjective("lat", 0.9, latency_threshold_seconds=0.01)
        with pytest.raises(ConfigurationError):
            SloPolicy(objectives=())
        with pytest.raises(ConfigurationError):
            SloPolicy(objectives=(objective,), rules=())
        with pytest.raises(ConfigurationError):
            # Buckets coarser than the shortest alert window cannot resolve it.
            SloPolicy(objectives=(objective,), bucket_seconds=0.5)
        with pytest.raises(ConfigurationError):
            SloPolicy(objectives=(objective, objective))  # duplicate names

    def test_policy_horizon_covers_the_longest_window(self):
        policy = SloPolicy(
            objectives=(SloObjective("lat", 0.9, latency_threshold_seconds=0.01),),
            digest_window_seconds=2.0,
        )
        longest = max(rule.long_window_seconds for rule in policy.rules)
        assert policy.horizon_seconds == longest + policy.bucket_seconds


def make_policy():
    return SloPolicy(
        objectives=(
            SloObjective("lat", target=0.9, latency_threshold_seconds=0.01),
            SloObjective("avail", target=0.99),
        ),
        rules=(
            BurnRateRule("fast", 1.0, 0.25, burn_threshold=8.0, escalate=True),
            BurnRateRule("slow", 4.0, 1.0, burn_threshold=2.0),
        ),
        bucket_seconds=0.05,
        digest_window_seconds=1.0,
    )


def feed(engine, start, stop, latency, step=0.02, ok=True):
    now = start
    while now < stop:
        engine.record_request(latency, now, ok=ok)
        now += step
    return now


class TestSloEngine:
    def test_healthy_traffic_never_alerts(self):
        engine = SloEngine(make_policy())
        feed(engine, 0.0, 2.0, latency=0.001)
        assert engine.evaluate(2.0) == []
        health = engine.health()
        assert not health.burning and not health.fast_burn and health.active == ()
        assert engine.budget_remaining("lat", 1.0, 2.0) == pytest.approx(1.0)

    def test_alert_fires_on_sustained_burn_and_resolves_on_recovery(self):
        ring = RingBufferSink()
        engine = SloEngine(make_policy(), events=EventLog([ring]))
        feed(engine, 0.0, 1.0, latency=0.001)
        assert engine.evaluate(1.0) == []

        # Every request breaches the 10ms threshold: burn = 1/0.1 = 10x.
        feed(engine, 1.0, 2.0, latency=0.05)
        changed = engine.evaluate(2.0)
        severities = {(a.objective, a.severity) for a in changed}
        assert ("lat", "fast") in severities
        assert engine.burn_rate("lat", 0.25, 2.0) == pytest.approx(10.0)
        assert engine.budget_remaining("lat", 0.25, 2.0) == 0.0
        health = engine.health()
        assert health.burning and health.fast_burn
        assert "lat/fast" in health.active
        # Availability saw only good requests: it never fires.
        assert all(alert.objective == "lat" for alert in engine.active.values())

        feed(engine, 2.0, 4.0, latency=0.001)
        engine.evaluate(3.0)
        engine.evaluate(4.0)
        assert engine.active == {}
        assert all(alert.resolved_at is not None for alert in engine.history)
        health = engine.health()
        assert not health.burning and not health.fast_burn

        states = [event.fields["state"] for event in ring.named("slo.alert")]
        assert states.count("fired") == len(engine.history)
        assert states.count("resolved") == len(engine.history)
        fired = ring.named("slo.alert")[0]
        assert {"objective", "severity", "burn_rate", "threshold", "escalate"} <= set(
            fired.fields
        )

    def test_short_window_alone_does_not_fire(self):
        """A brief blip breaches the short window but not the long one."""
        engine = SloEngine(make_policy())
        feed(engine, 0.0, 1.0, latency=0.001)
        feed(engine, 1.0, 1.25, latency=0.05)  # one short-window of badness
        assert engine.burn_rate("lat", 0.25, 1.25) >= 8.0
        assert engine.burn_rate("lat", 1.0, 1.25) < 8.0
        changed = engine.evaluate(1.25)
        assert all(alert.severity != "fast" for alert in changed)
        assert ("lat", "fast") not in engine.active

    def test_record_failure_burns_the_availability_budget(self):
        engine = SloEngine(make_policy())
        for step in range(10):
            engine.record_failure(now=step * 0.02)
        assert engine.failures == 10
        # budget 0.01, all bad: burn 100x.
        assert engine.burn_rate("avail", 1.0, 0.2) == pytest.approx(100.0)
        assert engine.burn_rate("lat", 1.0, 0.2) == pytest.approx(10.0)

    def test_empty_window_burns_nothing(self):
        engine = SloEngine(make_policy())
        assert engine.burn_rate("lat", 1.0, 0.0) == 0.0
        with pytest.raises(ConfigurationError):
            engine.burn_rate("nope", 1.0, 0.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            SloEngine(make_policy()).record_request(-0.001, now=0.0)

    def test_rolling_quantile_tracks_the_window(self):
        engine = SloEngine(make_policy())
        feed(engine, 0.0, 1.0, latency=0.001)
        feed(engine, 1.0, 2.0, latency=0.05)
        # digest_window_seconds=1.0: only the slow second remains.
        assert engine.quantile(0.5) == pytest.approx(0.05)
        assert engine.quantile(0.5, window_seconds=10.0, now=2.0) < 0.05

    def test_fire_captures_an_incident_bundle(self):
        engine = SloEngine(make_policy())
        recorder = FlightRecorder()
        recorder.bind(slo=engine)
        engine.recorder = recorder
        feed(engine, 0.0, 2.0, latency=0.05)
        engine.evaluate(2.0)
        assert recorder.incidents
        triggers = {bundle["trigger"] for bundle in recorder.incidents}
        assert any(trigger.startswith("slo.alert:lat/") for trigger in triggers)
        for bundle in recorder.incidents:
            validate_bundle(bundle)

    def test_as_dict_is_deterministic_and_sorted(self):
        def build():
            engine = SloEngine(make_policy())
            feed(engine, 0.0, 2.0, latency=0.05)
            engine.evaluate(2.0)
            return engine.as_dict(2.0)

        first, second = build(), build()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        names = [objective["name"] for objective in first["objectives"]]
        assert names == sorted(names)
        assert first["active_alerts"]  # the fired alerts are in the snapshot

    def test_describe_reports_burn_and_alert_tally(self):
        engine = SloEngine(make_policy())
        feed(engine, 0.0, 2.0, latency=0.05)
        engine.evaluate(2.0)
        text = "\n".join(engine.describe())
        assert "burn" in text and "alerts fired=" in text
        assert "[fast]" in text

    def test_health_signal_healthy_constructor(self):
        signal = HealthSignal.healthy(3.0)
        assert signal.now == 3.0
        assert not signal.burning and not signal.fast_burn and signal.active == ()


class TestFlightRecorder:
    def make_log(self, recorder):
        return EventLog([recorder])

    def test_retention_is_bounded_and_oldest_first(self):
        recorder = FlightRecorder(capacity=4)
        log = self.make_log(recorder)
        for i in range(10):
            log.emit("tick", now=float(i), i=i)
        recent = recorder.recent_events()
        assert len(recent) == 4
        assert [row["i"] for row in recent] == [6, 7, 8, 9]
        assert recorder.events_seen == 10

    def test_topology_version_tracks_the_event_stream(self):
        recorder = FlightRecorder()
        log = self.make_log(recorder)
        assert recorder.topology_version == 0
        log.emit("topology.applied", now=1.0, version=3)
        assert recorder.topology_version == 3
        log.emit("rebalance.pass", now=2.0, plan_version=5)
        assert recorder.topology_version == 5
        log.emit("topology.applied", now=3.0, version="not-an-int")
        assert recorder.topology_version == 5

    def test_snapshot_is_schema_valid_and_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("demo_total").inc(3)
            engine = SloEngine(make_policy())
            feed(engine, 0.0, 1.0, latency=0.001)
            recorder = FlightRecorder()
            recorder.bind(registry=registry, slo=engine)
            log = self.make_log(recorder)
            log.emit("tick", now=0.5, i=1)
            return recorder.snapshot("manual", now=1.0)

        first, second = build(), build()
        validate_bundle(first)
        assert first["schema"] == INCIDENT_SCHEMA
        assert first["metrics"] is not None and first["slo"] is not None
        assert FlightRecorder.dump(first) == FlightRecorder.dump(second)

    def test_incidents_are_bounded(self):
        recorder = FlightRecorder(max_incidents=2)
        for i in range(3):
            recorder.record_incident(f"t{i}", now=float(i))
        assert [bundle["trigger"] for bundle in recorder.incidents] == ["t1", "t2"]

    def test_dump_to_writes_canonical_json(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record_incident("manual", now=1.0)
        path = tmp_path / "incident.json"
        text = recorder.dump_to(str(path))
        assert json.loads(path.read_text()) == json.loads(text)
        assert ": " not in text  # canonical separators, no whitespace drift

    def test_dump_to_without_incidents_raises(self, tmp_path):
        with pytest.raises(ConfigurationError):
            FlightRecorder().dump_to(str(tmp_path / "x.json"))

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            FlightRecorder(capacity=0)
        with pytest.raises(ConfigurationError):
            FlightRecorder(max_incidents=0)

    def test_describe_lists_incidents(self):
        recorder = FlightRecorder()
        recorder.record_incident("manual", now=1.0)
        text = "\n".join(recorder.describe())
        assert "incidents recorded 1" in text and "trigger=manual" in text


class TestValidateBundle:
    def good(self):
        return FlightRecorder().snapshot("manual", now=1.0)

    def test_rejects_non_dicts_and_missing_keys(self):
        with pytest.raises(ConfigurationError):
            validate_bundle([])
        for key in ("schema", "trigger", "now", "topology_version",
                    "active_alerts", "events"):
            bundle = self.good()
            del bundle[key]
            with pytest.raises(ConfigurationError, match=key):
                validate_bundle(bundle)

    def test_rejects_wrong_types_and_stale_schema(self):
        bundle = self.good()
        bundle["topology_version"] = "three"
        with pytest.raises(ConfigurationError):
            validate_bundle(bundle)
        bundle = self.good()
        bundle["schema"] = "repro.incident/0"
        with pytest.raises(ConfigurationError, match="schema"):
            validate_bundle(bundle)

    def test_rejects_malformed_rows(self):
        bundle = self.good()
        bundle["events"] = [{"name": "tick"}]  # missing seq/now
        with pytest.raises(ConfigurationError, match="name/seq/now"):
            validate_bundle(bundle)
        bundle = self.good()
        bundle["active_alerts"] = [{"objective": "lat"}]  # missing severity
        with pytest.raises(ConfigurationError, match="objective/severity"):
            validate_bundle(bundle)

    def test_rejects_json_unsafe_payloads(self):
        bundle = self.good()
        bundle["metrics"] = {"weird": {1, 2}}
        with pytest.raises(ConfigurationError, match="JSON-safe"):
            validate_bundle(bundle)


class TestHubWiring:
    def test_hub_builds_and_binds_the_slo_stack(self):
        hub = ObservabilityHub(slo=make_policy())
        assert isinstance(hub.slo, SloEngine)
        assert hub.slo.recorder is hub.recorder
        assert hub.recorder.slo is hub.slo
        assert hub.recorder.registry is hub.registry
        for family in (
            "repro_request_latency_seconds",
            "repro_slo_alerts_total",
            "repro_slo_burning",
        ):
            assert hub.registry.get(family) is not None

    def test_hub_without_slo_has_only_the_recorder(self):
        hub = ObservabilityHub()
        assert hub.slo is None
        assert hub.recorder is not None
        assert hub.recorder.slo is None

    def test_alert_events_fold_into_metrics(self):
        hub = ObservabilityHub(slo=make_policy())
        engine = hub.slo
        feed(engine, 0.0, 2.0, latency=0.05)
        engine.evaluate(2.0)
        counter = hub.registry.get("repro_slo_alerts_total")
        assert counter.total() >= 1
        assert hub.registry.get("repro_slo_burning").value() >= 1.0
        feed(engine, 2.0, 4.0, latency=0.001)
        engine.evaluate(4.0)
        assert hub.registry.get("repro_slo_burning").value() == 0.0

    def test_report_renders_slo_and_recorder_sections(self):
        hub = ObservabilityHub(slo=make_policy())
        feed(hub.slo, 0.0, 1.0, latency=0.001)
        text = hub.report()
        assert "== slo ==" in text
        assert "== flight recorder ==" in text
        assert "no active alerts" in text


class TestSloAlertingExample:
    def test_incident_bundles_are_deterministic_across_runs(self, load_example):
        example = load_example("slo_alerting")
        inputs = example.workload()
        hub_a, _, records_a = example.drive(*inputs)
        hub_b, _, records_b = example.drive(*inputs)
        assert records_a == records_b
        dumps_a = [FlightRecorder.dump(bundle) for bundle in hub_a.recorder.incidents]
        dumps_b = [FlightRecorder.dump(bundle) for bundle in hub_b.recorder.incidents]
        assert dumps_a and dumps_a == dumps_b
        assert hub_a.events.dropped == 0
