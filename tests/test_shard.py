"""The sharding subsystem: plans, sharded backends, update routing.

Mirrors ``tests/test_engine.py`` one layer up: a sharded replica fleet must
be bit-identical to the unsharded server for every backend kind, across
edge shard shapes (1-record shards, shard count > record count,
non-power-of-two splits), and bulk updates must touch only the owning
shard's child.
"""

import functools

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, DatabaseError, ProtocolError
from repro.common.events import PhaseTimer
from repro.core.engine import PIRBackend, available_backends, create_server
from repro.core.impir import PIMClusterBackend
from repro.core.partitioning import aligned_chunk_bounds
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.server import PIRServer
from repro.pir.xor_ops import pack_selectors
from repro.shard.backend import (
    BARE_BACKEND_KINDS,
    ShardedBackend,
    bare_backend_factory,
)
from repro.shard.plan import ShardPlan


def make_client(database, seed=17):
    return PIRClient(
        database.num_records, database.record_size, seed=seed, prg=make_prg()
    )


def sharded_server(database, child_factory, **backend_options):
    """Server 0 over a sharded backend with a custom child factory."""
    backend = ShardedBackend(child_factory, **backend_options)
    return PIRServer(backend, database, 0, prg=make_prg())


class TestAlignedChunkBounds:
    def test_matches_unaligned_split_when_block_is_one(self):
        database = Database.random(257, 4, seed=1)
        assert aligned_chunk_bounds(257, 3) == database.chunk_bounds(3)

    def test_internal_boundaries_land_on_block_multiples(self):
        bounds = aligned_chunk_bounds(100, 3, block_records=8)
        for start, stop in bounds[:-1]:
            assert start % 8 == 0
            assert stop % 8 == 0 or stop == 100
        assert bounds[-1][1] == 100

    def test_more_chunks_than_blocks_leaves_empty_tail(self):
        bounds = aligned_chunk_bounds(10, 5, block_records=8)
        assert bounds[0] == (0, 8)
        assert bounds[1] == (8, 10)
        assert all(start == stop for start, stop in bounds[2:])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            aligned_chunk_bounds(10, 0)
        with pytest.raises(ConfigurationError):
            aligned_chunk_bounds(10, 2, block_records=0)


class TestShardPlan:
    def test_uniform_plan_tiles_the_domain(self):
        plan = ShardPlan.uniform(100, 3)
        assert plan.num_shards == 3
        assert [s.num_records for s in plan.shards] == [34, 33, 33]
        assert plan.shards[0].start == 0 and plan.shards[-1].stop == 100

    def test_block_alignment_respected(self):
        plan = ShardPlan.uniform(100, 3, block_records=16)
        for shard in plan.shards[:-1]:
            assert shard.stop % 16 == 0

    def test_shard_count_beyond_record_count(self):
        plan = ShardPlan.uniform(2, 6)
        assert plan.num_shards == 6
        assert len(plan.non_empty_shards) == 2
        assert plan.shard_for_record(0).index == 0
        assert plan.shard_for_record(1).index == 1

    def test_shard_for_record_and_routing(self):
        plan = ShardPlan.uniform(100, 4)
        assert plan.shard_for_record(0).index == 0
        assert plan.shard_for_record(99).index == 3
        routed = plan.route_records([0, 1, 99, 50])
        assert set(routed) == {0, 3, 2}
        assert routed[0] == [0, 1]
        with pytest.raises(DatabaseError):
            plan.shard_for_record(100)

    def test_split_selector_pairs_with_slices(self):
        database = Database.random(37, 4, seed=5)
        plan = ShardPlan.uniform(37, 5)
        selector = np.random.default_rng(5).integers(0, 2, 37, dtype=np.uint8)
        slices = plan.split_selector_many(pack_selectors(selector[None]))
        shards_db = plan.slice_database(database)
        assert len(slices) == len(shards_db) == len(plan.non_empty_shards)
        reassembled = np.concatenate(
            [
                np.unpackbits(cut[0], count=shard.num_records, bitorder="little")
                for cut, shard in zip(slices, plan.non_empty_shards)
            ]
        )
        assert np.array_equal(reassembled, selector)
        for shard, shard_db in zip(plan.non_empty_shards, shards_db):
            assert shard_db.num_records == shard.num_records

    def test_malformed_plans_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardPlan.from_bounds(10, [(0, 4), (5, 10)])  # gap
        with pytest.raises(ConfigurationError):
            ShardPlan.from_bounds(10, [(0, 4), (4, 9)])  # short
        with pytest.raises(ConfigurationError):
            ShardPlan(num_records=10, shards=())
        with pytest.raises(ConfigurationError):
            plan = ShardPlan.uniform(10, 2)
            plan.split_selector_many(np.zeros((1, 9), dtype=np.uint8))

    def test_wrong_database_shape_rejected(self):
        plan = ShardPlan.uniform(10, 2)
        with pytest.raises(ConfigurationError):
            plan.slice_database(Database.random(11, 4, seed=2))


#: (num_records, record_size, num_shards) covering the edge shard shapes.
SHARD_SHAPES = [
    (1, 8, 1),  # single record, single shard
    (3, 4, 3),  # every shard holds exactly one record
    (2, 8, 5),  # more shards than records (empty trailing shards)
    (257, 16, 3),  # prime record count, non-power-of-two split
    (300, 8, 7),  # non-power-of-two everything
]


class TestShardedEquivalence:
    """Sharded retrieval is bit-identical to unsharded for every backend."""

    @pytest.mark.parametrize("kind", BARE_BACKEND_KINDS)
    @pytest.mark.parametrize("num_records,record_size,num_shards", SHARD_SHAPES)
    def test_sharded_matches_unsharded(self, kind, num_records, record_size, num_shards):
        database = Database.random(
            num_records, record_size, seed=num_records * 13 + record_size
        )
        client = make_client(database)
        unsharded = create_server("reference", database)
        sharded = create_server(
            "sharded", database, num_shards=num_shards, child_kind=kind, prg=make_prg()
        )
        for index in sorted({0, num_records // 2, num_records - 1}):
            query = client.query(index)[0]
            assert (
                sharded.engine.answer(query).answer.payload
                == unsharded.engine.answer(query).answer.payload
            ), f"{kind} sharded {num_shards} ways disagrees at index {index}"

    @pytest.mark.parametrize("kind", BARE_BACKEND_KINDS)
    def test_reconstruction_through_sharded_replicas(self, kind):
        database = Database.random(128, 16, seed=9)
        client = make_client(database, seed=23)
        replicas = [
            create_server(
                "sharded",
                database,
                server_id=i,
                num_shards=4,
                child_kind=kind,
                prg=make_prg(),
            )
            for i in (0, 1)
        ]
        for index in (0, 63, 127):
            queries = client.query(index)
            answers = [replicas[q.server_id].engine.answer(q).answer for q in queries]
            assert client.reconstruct(answers) == database.record(index), kind

    def test_batch_equivalence(self):
        database = Database.random(300, 8, seed=44)
        client = make_client(database, seed=5)
        queries = [client.query(i)[0] for i in (0, 123, 299, 7)]
        reference = [
            r.answer.payload
            for r in create_server("reference", database).engine.answer_many(queries).results
        ]
        for kind in BARE_BACKEND_KINDS:
            sharded = create_server(
                "sharded", database, num_shards=3, child_kind=kind, prg=make_prg()
            )
            payloads = [
                r.answer.payload for r in sharded.answer_batch(queries).results
            ]
            assert payloads == reference, kind

    def test_block_aligned_shards_stay_bit_identical(self):
        """PIM children keep their partitioning invariants on aligned shards."""
        database = Database.random(200, 16, seed=31)
        client = make_client(database, seed=7)
        unsharded = create_server("reference", database)
        sharded = create_server(
            "sharded",
            database,
            num_shards=3,
            child_kind="im-pir",
            block_records=16,
            prg=make_prg(),
        )
        for shard in sharded.backend.plan.shards[:-1]:
            assert shard.stop % 16 == 0
        for index in (0, 57, 199):
            query = client.query(index)[0]
            assert (
                sharded.engine.answer(query).answer.payload
                == unsharded.engine.answer(query).answer.payload
            )

    def test_mixed_kind_fleet_is_bit_identical(self):
        """A fleet can mix preloaded PIM and streamed children per shard."""
        database = Database.random(120, 8, seed=3)
        client = make_client(database, seed=11)
        plan = ShardPlan.uniform(120, 3)
        factories = {
            0: bare_backend_factory("im-pir"),
            1: bare_backend_factory("im-pir-streamed"),
            2: bare_backend_factory("reference"),
        }
        sharded = sharded_server(
            database, lambda shard: factories[shard.index](shard), plan=plan
        )
        unsharded = create_server("reference", database)
        for index in (0, 60, 119):
            query = client.query(index)[0]
            assert (
                sharded.engine.answer(query).answer.payload
                == unsharded.engine.answer(query).answer.payload
            )
        caps = sharded.engine.backend.capabilities()
        assert not caps.preloaded  # the streamed member is not resident


class TestShardedCapabilitiesAndTiming:
    def test_capabilities_aggregate_members(self):
        database = Database.random(64, 8, seed=2)
        sharded = create_server(
            "sharded", database, num_shards=2, child_kind="im-pir", prg=make_prg()
        )
        caps = sharded.engine.backend.capabilities()
        assert caps.name == "sharded"
        assert caps.lanes >= 1 and caps.batch_workers >= 1
        assert caps.preloaded
        assert caps.max_records is not None and caps.max_records >= 64
        assert "2 shards" in caps.description

    def test_unprepared_backend_reports_and_rejects(self):
        backend = ShardedBackend(bare_backend_factory("reference"), num_shards=2)
        assert backend.capabilities().name == "sharded"
        with pytest.raises(ProtocolError):
            backend.execute_many(
                np.zeros((1, 4), dtype=np.uint8), np.zeros(1, np.int64), {0: PhaseTimer()}
            )
        with pytest.raises(ProtocolError):
            backend.apply_updates(Database.random(4, 4, seed=1), [0])

    def test_unprepared_backend_advertises_no_residency_or_capacity(self):
        """A fleet with no members must not claim a preloaded database.

        The default ``BackendCapabilities`` says ``preloaded=True`` with
        unbounded capacity — an unprepared fleet advertising that would
        mislead router/frontend sizing.
        """
        caps = ShardedBackend(bare_backend_factory("reference")).capabilities()
        assert caps.preloaded is False
        assert caps.max_records == 0
        assert "unprepared" in caps.description
        # Prepared, the same backend reports residency again.
        backend = ShardedBackend(bare_backend_factory("reference"), num_shards=2)
        backend.prepare(Database.random(16, 4, seed=3))
        prepared = backend.capabilities()
        assert prepared.preloaded is True
        assert prepared.max_records is None  # reference children are unbounded

    def test_timed_children_charge_parallel_phases(self):
        """The fleet's breakdown is a per-phase max, not a sum, over shards."""
        database = Database.random(128, 16, seed=4)
        client = make_client(database, seed=3)
        query = client.query(5)[0]
        sharded = create_server(
            "sharded", database, num_shards=2, child_kind="im-pir", prg=make_prg()
        )
        breakdown = sharded.engine.answer(query).breakdown
        assert breakdown.total > 0
        single = create_server(
            "sharded", database, num_shards=1, child_kind="im-pir", prg=make_prg()
        )
        single_query = make_client(database, seed=3).query(5)[0]
        single_breakdown = single.engine.answer(single_query).breakdown
        # Two half-size shards scanning in parallel must not cost more than
        # one full-size shard scanning alone.
        assert breakdown.total <= single_breakdown.total + 1e-12

    def test_preload_report_merged_across_shards(self):
        database = Database.random(64, 8, seed=6)
        sharded = create_server(
            "sharded", database, num_shards=2, child_kind="im-pir", prg=make_prg()
        )
        report = sharded.preload_report
        assert report is not None and report.total > 0

    def test_pinned_plan_must_match_database(self):
        with pytest.raises(ConfigurationError):
            create_server("sharded", Database.random(64, 8, seed=20),
                plan=ShardPlan.uniform(128, 2),
                prg=make_prg(),
            )

    def test_reprepare_with_different_shape(self):
        sharded = create_server(
            "sharded", Database.random(64, 8, seed=7), num_shards=4, prg=make_prg()
        )
        new_db = Database.random(33, 16, seed=8)
        sharded.engine.prepare(new_db)
        assert sharded.backend.plan.num_records == 33
        assert sharded.backend.plan.num_shards == 4
        client = make_client(new_db, seed=9)
        reference = create_server("reference", new_db)
        query = client.query(32)[0]
        assert (
            sharded.engine.answer(query).answer.payload
            == reference.engine.answer(query).answer.payload
        )


class _CountingBackend:
    """Wraps a child backend, counting prepare/apply_updates calls."""

    def __init__(self, inner):
        self._inner = inner
        self.prepares = 0
        self.updates = 0

    def prepare(self, database):
        self.prepares += 1
        return self._inner.prepare(database)

    def apply_updates(self, database, dirty_indices):
        self.updates += 1
        return self._inner.apply_updates(database, dirty_indices)

    def capabilities(self):
        return self._inner.capabilities()

    def execute_many(self, selector_matrix, lanes, costs):
        return self._inner.execute_many(selector_matrix, lanes, costs)

    def charge_many(self, selector_matrix, lanes, costs):
        return self._inner.charge_many(selector_matrix, lanes, costs)

    def latency_eval_seconds(self, num_records):
        return self._inner.latency_eval_seconds(num_records)

    def batch_eval_seconds(self, num_records):
        return self._inner.batch_eval_seconds(num_records)


class TestShardedUpdates:
    def test_updates_route_to_owning_shard_only(self):
        database = Database.random(96, 8, seed=10)
        children = []

        def factory(shard):
            child = _CountingBackend(bare_backend_factory("im-pir")(shard))
            children.append(child)
            return child

        sharded = sharded_server(database, factory, num_shards=3)
        assert [c.prepares for c in children] == [1, 1, 1]

        # Both dirty records live in shard 0 ([0, 32)).
        timer = sharded.apply_updates([(3, b"\xaa" * 8), (17, b"\xbb" * 8)])
        assert timer.total > 0
        assert [c.updates for c in children] == [1, 0, 0]
        assert [c.prepares for c in children] == [1, 1, 1]

        client = make_client(sharded.database, seed=12)
        reference = create_server("reference", sharded.database)
        for index in (3, 17, 40, 95):
            query = client.query(index)[0]
            assert (
                sharded.engine.answer(query).answer.payload
                == reference.engine.answer(query).answer.payload
            )
        assert sharded.database.record(3) == b"\xaa" * 8

    def test_untouched_shard_charges_nothing(self):
        """Updating shard 0 charges only its dirty block: the other shards'
        DPUs move no bytes, and update_copy is the one block's transfer."""
        database = Database.random(96, 8, seed=13)
        sharded = create_server(
            "sharded", database, num_shards=3, child_kind="im-pir", prg=make_prg()
        )
        children = [child for _, child in sharded.backend.members]
        assert all(isinstance(child, PIMClusterBackend) for child in children)
        before = [child.ledger.bytes_to_dpus.copy() for child in children]
        timer = sharded.apply_updates([(5, b"\xcc" * 8)])
        moved = [(child.ledger.bytes_to_dpus - old).tolist() for child, old in zip(children, before)]
        # A 32-record shard over the default child's 4 DPUs: record 5 sits
        # in DPU 0's 8-record block of 8-byte records.
        assert moved == [[8 * 8, 0, 0, 0], [0] * 4, [0] * 4]
        expected = children[0].timing.host_to_dpu_seconds(8 * 8)
        assert timer.get("update_copy").hex() == expected.hex()

    def test_children_without_apply_updates_reprepare(self):
        database = Database.random(64, 8, seed=14)
        children = []

        def factory(shard):
            child = bare_backend_factory("reference")(shard)
            counting = _CountingBackend(child)
            # A child keeping the PIRBackend default re-prepares its slice.
            counting.apply_updates = functools.partial(PIRBackend.apply_updates, counting)
            children.append(counting)
            return counting

        sharded = sharded_server(database, factory, num_shards=2)
        sharded.apply_updates([(40, b"\xdd" * 8)])  # shard 1 owns [32, 64)
        assert [c.prepares for c in children] == [1, 2]
        assert sharded.database.record(40) == b"\xdd" * 8

    def test_empty_update_list_is_noop(self):
        database = Database.random(16, 4, seed=15)
        sharded = create_server("sharded", database, num_shards=2, prg=make_prg())
        timer = sharded.apply_updates([])
        assert timer.total == 0.0
        assert sharded.database == database

    def test_update_slices_match_prepare_slices(self):
        """Regression: apply_updates must slice shards exactly like prepare.

        88 records with block_records=8 over 3 shards gives [0,32), [32,64)
        and [64,88) — the last shard is multi-block and non-power-of-two.
        Updating records there (and in the other shards) must leave every
        retrieval bit-identical to a fresh unsharded server over the updated
        database; a drift between the two slicing code paths would hand the
        PIM children's partial MRAM re-copy the wrong bytes.
        """
        database = Database.random(88, 16, seed=21)
        sharded = create_server(
            "sharded",
            database,
            num_shards=3,
            block_records=8,
            child_kind="im-pir",
            prg=make_prg(),
        )
        last = sharded.backend.plan.shards[-1]
        assert (last.start, last.stop) == (64, 88)
        assert last.num_records % 8 == 0  # multi-block
        assert last.num_records & (last.num_records - 1) != 0  # non-power-of-two

        updates = [
            (0, b"\x11" * 16),
            (40, b"\x22" * 16),
            (64, b"\x33" * 16),
            (80, b"\x44" * 16),
            (87, b"\x55" * 16),
        ]
        sharded.apply_updates(updates)
        fresh = create_server("reference", sharded.database)
        client = make_client(sharded.database, seed=23)
        for index in (0, 31, 33, 40, 63, 64, 65, 80, 87):
            query = client.query(index)[0]
            assert (
                sharded.engine.answer(query).answer.payload
                == fresh.engine.answer(query).answer.payload
            ), index
        for index, record in updates:
            assert sharded.database.record(index) == record


class TestShardedRegistry:
    def test_sharded_is_registered(self):
        assert "sharded" in available_backends()

    def test_registry_builder_honours_kwargs(self):
        database = Database.random(48, 8, seed=16)
        server = create_server(
            "sharded", database, num_shards=3, child_kind="im-pir", block_records=4
        )
        assert server.backend.plan.num_shards == 3
        client = make_client(database, seed=18)
        reference = create_server("reference", database)
        query = client.query(47)[0]
        assert (
            server.engine.answer(query).answer.payload
            == reference.engine.answer(query).answer.payload
        )

    def test_registry_builder_forwards_child_config(self):
        from repro.core.config import IMPIRConfig
        from repro.pim.config import scaled_down_config

        database = Database.random(48, 8, seed=21)
        config = IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=2))
        server = create_server(
            "sharded", database, num_shards=2, child_kind="im-pir", config=config
        )
        for _, child in server.backend.members:
            assert child.config is config

    def test_routing_helpers(self):
        database = Database.random(60, 4, seed=19)
        server = create_server("sharded", database, num_shards=4)
        assert server.backend.plan.shard_for_record(0).index == 0
        assert server.backend.plan.shard_for_record(59).index == 3
        assert sum(shard.num_records for shard in server.backend.plan.shards) == 60


class _ClosableChild:
    """Delegating child that records ``close`` calls."""

    def __init__(self, inner):
        self._inner = inner
        self.closed = 0

    def close(self):
        self.closed += 1

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestClosePropagation:
    """Every path that retires a child must release it — a long-lived fleet
    reshapes for its whole life and must never leak retired children."""

    @staticmethod
    def _tracked_factory(children):
        inner = bare_backend_factory("reference")

        def build(shard):
            child = _ClosableChild(inner(shard))
            children.append(child)
            return child

        return build

    def test_close_closes_every_child(self):
        database = Database.random(64, 8, seed=21)
        children = []
        backend = ShardedBackend(self._tracked_factory(children), num_shards=3)
        backend.prepare(database)
        backend.close()
        assert [child.closed for child in children] == [1, 1, 1]

    def test_swap_child_closes_only_the_outgoing_member(self):
        database = Database.random(64, 8, seed=22)
        children = []
        backend = ShardedBackend(self._tracked_factory(children), num_shards=2)
        backend.prepare(database)
        shard, _ = backend.members[1]
        incoming = _ClosableChild(bare_backend_factory("reference")(shard))
        backend.swap_child(shard.index, incoming)
        assert [child.closed for child in children] == [0, 1]
        assert incoming.closed == 0

    def test_reshape_closes_replaced_children_and_keeps_reused(self):
        database = Database.random(64, 8, seed=23)
        children = []
        backend = ShardedBackend(self._tracked_factory(children), num_shards=2)
        backend.prepare(database)
        first_generation = list(children)
        backend.apply_topology(backend.plan.split_shard(0, 16))
        # Shard 0 was replaced by its two halves; shard 1's range survived
        # the reshape byte-for-byte, so its child is reused and stays open.
        assert [child.closed for child in first_generation] == [1, 0]
        new_children = [c for c in children if c not in first_generation]
        assert len(new_children) == 2
        assert all(child.closed == 0 for child in new_children)

    def test_reprepare_closes_the_old_generation(self):
        database = Database.random(64, 8, seed=24)
        children = []
        backend = ShardedBackend(self._tracked_factory(children), num_shards=2)
        backend.prepare(database)
        old_generation = list(children)
        backend.prepare(database)
        new_generation = [c for c in children if c not in old_generation]
        assert [child.closed for child in old_generation] == [1, 1]
        assert all(child.closed == 0 for child in new_generation)
