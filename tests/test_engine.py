"""The unified engine: every backend answers identically through one layer.

The cross-backend equivalence suite required by the engine refactor: all
registered server variants must return bit-identical payloads for the same
query set, across random databases and edge shapes (one record,
non-power-of-two sizes, one-byte records).
"""

import pytest

from repro.common.errors import ProtocolError
from repro.core.config import IMPIRConfig
from repro.core.engine import (
    BackendCapabilities,
    PIRBackend,
    QueryEngine,
    ReferenceBackend,
    available_backends,
    batch_scheduler_for,
    create_server,
    register_backend,
)
from repro.dpf.prf import make_prg
from repro.pim.config import scaled_down_config
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.messages import PIRAnswer


def build_all_servers(database, server_id=0):
    """One server of every registered variant over ``database``."""
    servers = {}
    for name in available_backends():
        kwargs = {}
        if name == "im-pir-streamed" and database.num_records > 1:
            # Force a genuinely multi-pass configuration.
            kwargs["segment_records"] = max(1, -(-database.num_records // 2))
        servers[name] = create_server(name, database, server_id=server_id, **kwargs)
    return servers


EDGE_SHAPES = [
    (1, 1),  # single one-byte record
    (1, 32),  # single record
    (3, 1),  # non-power-of-two count, one-byte records
    (257, 16),  # prime record count
    (1024, 32),  # the paper's record format
]


class TestCrossBackendEquivalence:
    @pytest.mark.parametrize("num_records,record_size", EDGE_SHAPES)
    def test_all_backends_bit_identical(self, num_records, record_size):
        database = Database.random(num_records, record_size, seed=num_records * 31 + record_size)
        client = PIRClient(num_records, record_size, seed=17, prg=make_prg())
        servers = build_all_servers(database)
        indices = sorted({0, num_records // 2, num_records - 1})
        for index in indices:
            query = client.query(index)[0]
            payloads = {
                name: server.engine.answer(query).answer.payload
                for name, server in servers.items()
            }
            assert len(set(payloads.values())) == 1, f"disagreement at index {index}: {payloads}"

    @pytest.mark.parametrize("num_records,record_size", EDGE_SHAPES)
    def test_reconstruction_through_every_backend(self, num_records, record_size):
        database = Database.random(num_records, record_size, seed=num_records * 7 + record_size)
        index = num_records - 1
        for name in available_backends():
            kwargs = {}
            if name == "im-pir-streamed" and num_records > 1:
                kwargs["segment_records"] = max(1, -(-num_records // 2))
            client = PIRClient(num_records, record_size, seed=23, prg=make_prg())
            replicas = [
                create_server(name, database, server_id=i, **kwargs) for i in (0, 1)
            ]
            queries = client.query(index)
            answers = [replicas[q.server_id].engine.answer(q).answer for q in queries]
            assert client.reconstruct(answers) == database.record(index), name

    def test_batch_equivalence_across_backends(self):
        database = Database.random(300, 8, seed=44)
        client = PIRClient(300, 8, seed=5, prg=make_prg())
        queries = [client.query(i)[0] for i in (0, 123, 299, 7)]
        servers = build_all_servers(database)
        batches = {
            name: [r.answer.payload for r in server.engine.answer_many(queries).results]
            for name, server in servers.items()
        }
        reference = batches.pop("reference")
        for name, payloads in batches.items():
            assert payloads == reference, name


class TestSharedValidation:
    """One copy of the validation rules, enforced for every backend."""

    @pytest.fixture(scope="class")
    def database(self):
        return Database.random(128, 16, seed=9)

    @pytest.fixture(scope="class")
    def servers(self, database):
        return build_all_servers(database)

    def test_wrong_server_rejected_everywhere(self, database, servers):
        client = PIRClient(128, 16, seed=2, prg=make_prg())
        query_for_other = client.query(3)[1]
        for name, server in servers.items():
            with pytest.raises(ProtocolError):
                server.engine.answer(query_for_other)

    def test_wrong_database_shape_rejected_everywhere(self, servers):
        other_client = PIRClient(64, 16, seed=3, prg=make_prg())
        stale = other_client.query(0)[0]
        for name, server in servers.items():
            with pytest.raises(ProtocolError):
                server.engine.answer(stale)

    @pytest.mark.parametrize("name", available_backends())
    def test_flush_for_the_other_server_refused(self, servers, name):
        # A flush's batch is checked against its addressee as ``answer`` is.
        batch_for_other = PIRClient(128, 16, seed=6, prg=make_prg()).query_batch([3, 9])[1]
        with pytest.raises(ProtocolError, match="addressed to server 1, this is server 0"):
            servers[name].engine.answer_many(batch_for_other)

    @pytest.mark.parametrize("name", available_backends())
    def test_flush_over_another_database_size_refused(self, servers, name):
        stale = PIRClient(64, 16, seed=7, prg=make_prg()).query_batch([0, 63])[0]
        with pytest.raises(ProtocolError, match="database of 64 records"):
            servers[name].engine.answer_many(stale)

    def test_empty_batch_rejected(self, servers):
        for name, server in servers.items():
            with pytest.raises(ProtocolError):
                server.engine.answer_many([])

    @pytest.mark.parametrize("name", available_backends())
    def test_facade_empty_batch_is_the_same_protocol_error(self, servers, name):
        with pytest.raises(ProtocolError, match="needs at least one query"):
            servers[name].answer_batch([])

    def test_unsupported_query_type_rejected(self, servers):
        for name, server in servers.items():
            with pytest.raises(ProtocolError):
                server.engine.answer(object())

    def test_lane_out_of_range_names_lane_and_bound(self, servers):
        """The error must say which lane failed and what the valid range is."""
        client = PIRClient(128, 16, seed=6, prg=make_prg())
        for name, server in servers.items():
            lanes = server.engine.backend.capabilities().lanes
            with pytest.raises(
                ProtocolError, match=rf"lane 99 out of range \[0, {lanes}\)"
            ):
                server.engine.answer(client.query(0)[0], lane=99)
            with pytest.raises(ProtocolError, match=r"lane -1 out of range"):
                server.engine.answer(client.query(0)[0], lane=-1)


class TestCapabilities:
    def test_every_backend_reports_capabilities(self):
        database = Database.random(64, 8, seed=1)
        for name, server in build_all_servers(database).items():
            caps = server.engine.backend.capabilities()
            assert isinstance(caps, BackendCapabilities)
            assert caps.lanes >= 1
            assert caps.batch_workers >= 1
            assert caps.name

    def test_impir_lanes_track_clusters(self):
        database = Database.random(256, 16, seed=6)
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=2), num_clusters=4)
        server = create_server("im-pir", database, config=config)
        assert server.engine.backend.capabilities().lanes == 4

    def test_streamed_backend_not_preloaded(self):
        database = Database.random(64, 8, seed=3)
        server = create_server("im-pir-streamed", database, segment_records=16)
        caps = server.engine.backend.capabilities()
        assert not caps.preloaded
        assert server.backend.num_segments == 4

    def test_scheduler_sizing_rule(self):
        caps = BackendCapabilities(name="x", lanes=3, batch_workers=8)
        scheduler = batch_scheduler_for(caps, batch_size=2)
        assert scheduler.num_workers == 2  # never more workers than queries
        assert scheduler.num_clusters == 3


class TestBackendSurface:
    """The PIRBackend protocol surface: prepare / capabilities / execute_many."""

    def test_execute_many_is_the_only_scan_hook(self):
        assert PIRBackend.__abstractmethods__ == {
            "prepare",
            "capabilities",
            "charge_many",
        }
        assert {name for name in vars(PIRBackend) if not name.startswith("_")} == {
            "prepare",
            "capabilities",
            "charge_many",
            "execute_many",
            "latency_eval_seconds",
            "batch_eval_seconds",
            "batch_makespan",
            "apply_updates",
        }
        database = Database.random(16, 4, seed=12)
        for name in available_backends():
            backend_class = type(create_server(name, database).engine.backend)
            for gone in ("execute", "answer", "answer_many"):
                assert not hasattr(backend_class, gone), (name, gone)

    def test_engine_requires_prepared_database(self):
        backend = ReferenceBackend()
        engine = QueryEngine(backend, server_id=0, prg=make_prg())
        client = PIRClient(16, 4, seed=1, prg=make_prg())
        with pytest.raises(ProtocolError):
            engine.answer(client.query(0)[0])


class TestRegistry:
    def test_default_registry_contains_all_five(self):
        assert set(available_backends()) >= {
            "reference",
            "cpu",
            "gpu",
            "im-pir",
            "im-pir-streamed",
        }

    def test_unknown_backend_rejected(self):
        with pytest.raises(ProtocolError):
            create_server("tpu", Database.random(4, 4, seed=1))

    @pytest.mark.parametrize("name", sorted(available_backends()))
    def test_unknown_option_raises_naming_it(self, name):
        # A misspelt option must raise, not be dropped silently.
        with pytest.raises(TypeError, match="num_shard_typo"):
            create_server(name, Database.random(8, 4, seed=1), num_shard_typo=4)

    def test_removed_shard_walk_option_raises_everywhere(self):
        from repro.shard import FleetRouter, ShardPlan

        database = Database.random(8, 4, seed=1)
        client = PIRClient(8, 4, seed=2, prg=make_prg())
        plan = ShardPlan.uniform(8, 2)
        with pytest.raises(TypeError, match="executor"):
            create_server("sharded", database, executor="threads")
        with pytest.raises(TypeError, match="executor"):
            FleetRouter(client, database, plan, [1.0, 1.0], executor="threads")

    def test_custom_backend_registration(self):
        calls = []

        def builder(db, server_id=0, **kwargs):
            calls.append(server_id)
            return create_server("reference", db, server_id=server_id)

        register_backend("custom-test", builder)
        try:
            server = create_server("custom-test", Database.random(8, 4, seed=2), server_id=0)
            assert calls == [0]
            assert hasattr(server, "engine")
        finally:
            from repro.core import engine as engine_module

            engine_module._BACKEND_BUILDERS.pop("custom-test", None)


class TestRePrepare:
    """prepare() may be called again with a differently-shaped database."""

    def test_pim_backend_reprepare_different_shape(self):
        server = create_server("im-pir", Database.random(4, 256, seed=31))
        new_db = Database.random(500, 8, seed=32)
        server.engine.prepare(new_db)
        client = PIRClient(500, 8, seed=33, prg=make_prg())
        reference = create_server("reference", new_db)
        query = client.query(499)[0]
        assert (
            server.engine.answer(query).answer.payload
            == reference.engine.answer(query).answer.payload
        )
        caps = server.engine.backend.capabilities()
        assert caps.max_records is not None and caps.max_records >= 500

    def test_streamed_backend_reprepare_different_shape(self):
        server = create_server("im-pir-streamed", Database.random(100, 16, seed=34),
                               segment_records=40)
        new_db = Database.random(50, 64, seed=35)
        server.engine.prepare(new_db)
        client = PIRClient(50, 64, seed=36, prg=make_prg())
        reference = create_server("reference", new_db)
        query = client.query(25)[0]
        assert (
            server.engine.answer(query).answer.payload
            == reference.engine.answer(query).answer.payload
        )


class TestAnswerMetadata:
    def test_costed_backends_stamp_simulated_seconds(self):
        database = Database.random(64, 8, seed=21)
        client = PIRClient(64, 8, seed=22, prg=make_prg())
        timed = create_server("im-pir", database)
        untimed = create_server("reference", database)
        query = client.query(7)[0]
        timed_answer = timed.engine.answer(query).answer
        untimed_answer = untimed.engine.answer(query).answer
        assert isinstance(timed_answer, PIRAnswer) and isinstance(untimed_answer, PIRAnswer)
        assert timed_answer.simulated_seconds and timed_answer.simulated_seconds > 0
        assert untimed_answer.simulated_seconds is None


_LANE_KINDS = {
    "im-pir": {
        "config": IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4), num_clusters=2)
    },
    "sharded": {"child_kind": "im-pir", "num_shards": 3},
}


class TestLaneCosts:
    """A batch is priced per execution lane; each row reads its own copy."""

    @staticmethod
    def _batch(kind):
        database = Database.random(256, 16, seed=31)
        server = create_server(kind, database, **_LANE_KINDS[kind])
        client = PIRClient(256, 16, seed=32, prg=make_prg())
        return server.answer_batch(client.query_batch([5 + 36 * i for i in range(7)])[0])

    @pytest.mark.parametrize("kind", sorted(_LANE_KINDS))
    def test_rows_of_a_lane_cost_the_same(self, kind):
        batch = self._batch(kind)
        by_lane = {}
        for result in batch.results:
            phases = [(phase, seconds.hex()) for phase, seconds in result.breakdown.items()]
            by_lane.setdefault(result.cluster_id, []).append(phases)
            assert result.answer.simulated_seconds == result.breakdown.total
        assert sorted(by_lane) == sorted(set(batch.lanes.tolist()))
        for rows in by_lane.values():
            assert rows[0] and all(row == rows[0] for row in rows)

    @pytest.mark.parametrize("kind", sorted(_LANE_KINDS))
    def test_rows_are_isolated_copies(self, kind):
        batch = self._batch(kind)
        makespan = batch.latency_seconds
        before = [result.breakdown.as_dict() for result in batch.results]
        batch.results[2].breakdown.record("induced_stall", 1.0)
        after = [result.breakdown.as_dict() for result in batch.results]
        assert after[2] == {**before[2], "induced_stall": 1.0}
        assert after[:2] + after[3:] == before[:2] + before[3:]
        assert batch.latency_seconds == makespan
        assert all("induced_stall" not in cost.durations for cost in batch.costs.values())
