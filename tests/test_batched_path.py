"""``execute_many``: one batched dispatch against one-row dispatches.

``answer`` serves its query as a batch of one through the same hook
``answer_many`` uses, so these tests pin what batching may and may not change:

* **payload equivalence** — ``answer_many`` returns exactly the bytes the
  ``answer`` loop returns, on every registered backend and on adversarial
  shapes (single record, more shards than records, non-power-of-two domains,
  1-byte records, batches of one, all-zero selector shares);
* **simulated-cost equivalence** on host-side backends — every phase except
  ``eval`` charges the same seconds (``eval`` differs by design: the batch
  path prices the backend's batch cost model, the per-query path its
  latency model), and a batch of one charges float-exactly what ``answer``
  does on every backend;
* the **documented amortisation** on the PIM backends — one DPU dispatch
  serves the whole batch, so per-dispatch fixed charges (transfer latency,
  launch overhead, streamed segment copies) shrink the batch's total for
  every amortisable phase below the sequential total, never increase any
  phase, and leave the host-side ``aggregate`` charge exactly per-query
  (see ``run_dpu_pipeline_many`` for the formula, and
  ``test_dpu_pipeline_many.py`` for its exact-value pins).
"""

import numpy as np
import pytest
from aes_oracle import OracleAESPRG

from repro.common.errors import ProtocolError
from repro.core.engine import available_backends, create_server
from repro.dpf.dpf import DPF, EvalStats
from repro.dpf.prf import make_prg
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.messages import DPFQuery, QueryBatch


def _batch(num_records, record_size, batch, *, seed=7, stride=13):
    database = Database.random(num_records, record_size, seed=seed)
    client = PIRClient(num_records, record_size, seed=seed + 1, prg=make_prg())
    queries = [client.query((i * stride) % num_records)[0] for i in range(batch)]
    return database, queries


def _non_eval(timer):
    return {k: v for k, v in timer.durations.items() if k != "eval"}


#: Backends that batch at DPU-dispatch level: their batched path amortises
#: fixed per-dispatch charges instead of replicating sequential costs.
PIM_KINDS = {"im-pir", "im-pir-streamed"}


def _assert_amortized(sequential_timers, batched_timers):
    """The documented PIM amortisation, phase by phase.

    Same phase set; ``aggregate`` (the host fold, phase 6) stays exactly
    per-query; every other phase's batch **total** comes out at or below the
    sequential total (per-dispatch fixed charges are paid once instead of B
    times, and per-row kernel work never grows), with the DPU-bound phases
    strictly cheaper for B > 1.
    """
    seq_phases = {k for t in sequential_timers for k in _non_eval(t)}
    bat_phases = {k for t in batched_timers for k in _non_eval(t)}
    assert bat_phases == seq_phases
    for seq, bat in zip(sequential_timers, batched_timers):
        assert bat.get("aggregate") == pytest.approx(seq.get("aggregate"))
    for phase in seq_phases - {"aggregate"}:
        seq_total = sum(t.get(phase) for t in sequential_timers)
        bat_total = sum(t.get(phase) for t in batched_timers)
        assert bat_total <= seq_total + 1e-12
        if len(batched_timers) > 1:
            assert bat_total < seq_total


@pytest.mark.parametrize("backend", sorted(available_backends()))
class TestEveryBackend:
    def _engine(self, backend, database):
        kwargs = {"segment_records": 128} if backend == "im-pir-streamed" else {}
        return create_server(backend, database, server_id=0, **kwargs).engine

    def test_payloads_and_phases_match_sequential(self, backend):
        database, queries = _batch(256, 32, 5)
        engine = self._engine(backend, database)
        sequential = [engine.answer(query) for query in queries]
        batched = engine.answer_many(queries)
        for seq, bat in zip(sequential, batched.results):
            assert seq.answer.payload == bat.answer.payload
            if backend not in PIM_KINDS:
                assert _non_eval(seq.breakdown) == _non_eval(bat.breakdown)
        if backend in PIM_KINDS:
            _assert_amortized(
                [r.breakdown for r in sequential],
                [r.breakdown for r in batched.results],
            )

    def test_batch_of_one(self, backend):
        database, queries = _batch(64, 32, 1)
        engine = self._engine(backend, database)
        single = engine.answer(queries[0])
        expected = single.answer.payload
        batched = engine.answer_many(queries)
        assert [r.answer.payload for r in batched.results] == [expected]
        # One scan path: ``answer`` is a one-row dispatch, so every phase but
        # ``eval`` is charged float-exactly what a batch of one is charged.
        assert {k: v.hex() for k, v in _non_eval(single.breakdown).items()} == {
            k: v.hex() for k, v in _non_eval(batched.results[0].breakdown).items()
        }


class TestEdgeShapes:
    @pytest.mark.parametrize(
        "num_records,record_size",
        [(1, 32), (2, 32), (1, 1), (100, 1), (37, 24), (200, 32)],
    )
    def test_reference_odd_shapes(self, num_records, record_size):
        # Non-power-of-two domains, single-record databases, 1-byte records.
        database, queries = _batch(num_records, record_size, 4)
        engine = create_server("reference", database, server_id=0).engine
        sequential = [engine.answer(query).answer.payload for query in queries]
        batched = engine.answer_many(queries)
        assert [r.answer.payload for r in batched.results] == sequential

    def test_more_shards_than_records(self):
        database, queries = _batch(2, 32, 3)
        engine = create_server(
            "sharded", database, server_id=0, num_shards=4
        ).engine
        sequential = [engine.answer(query).answer.payload for query in queries]
        batched = engine.answer_many(queries)
        assert [r.answer.payload for r in batched.results] == sequential


class TestOneRowLists:
    """``answer_batch`` given one-row queries stacks them once, or refuses."""

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_one_shape_list_answers_as_its_stacked_batch(self, backend):
        database, queries = _batch(96, 16, 5)
        server = create_server(backend, database, server_id=0)
        from_list = server.answer_batch(queries)
        from_batch = server.answer_batch(QueryBatch.stack(queries))
        assert from_list.query_ids.tolist() == from_batch.query_ids.tolist()
        assert from_list.payloads.tobytes() == from_batch.payloads.tobytes()

    @pytest.mark.parametrize("foreign", ["server_id", "num_records", "key_shape", "output_bits"])
    def test_rows_that_are_not_one_batch_refused(self, foreign):
        database = Database.random(64, 32, seed=4)
        server = create_server("reference", database, server_id=0)
        row, other = PIRClient(64, 32, seed=5, prg=make_prg()).query(17)
        if foreign == "num_records":
            other = PIRClient(40, 32, seed=6, prg=make_prg()).query(3)[0]
        elif foreign == "key_shape":
            # An 8-bit-domain key over the 64 records: legal on its own.
            other = DPFQuery(99, 0, DPF(8, seed=7, prg=make_prg()).gen(9, 1)[0], 64)
            assert server.answer(other).answer.payload
        elif foreign == "output_bits":
            # A 6-bit-domain key, as the client's, with an 8-bit output group.
            other = DPFQuery(99, 0, DPF(6, output_bits=8, seed=7, prg=make_prg()).gen(9, 1)[0], 64)
        with pytest.raises(ProtocolError, match="one query batch needs one"):
            server.answer_batch([row, other])

    def test_a_row_that_is_not_a_query_refused(self):
        database = Database.random(64, 32, seed=4)
        server = create_server("reference", database, server_id=0)
        row = PIRClient(64, 32, seed=5, prg=make_prg()).query(17)[0]
        answer = server.answer(row).answer
        with pytest.raises(ProtocolError, match="unsupported query type: PIRAnswer"):
            server.answer_batch([row, answer])


class TestStatsRegression:
    def test_dpxor_stats_identical_bytes(self):
        # Batching must not discount the all-for-one scan: the server's dpXOR
        # counters after a batch equal those after the same queries one at a
        # time, byte for byte.
        database, queries = _batch(128, 32, 5)
        sequential = create_server("reference", database, server_id=0)
        for query in queries:
            sequential.answer(query)
        batched = create_server("reference", database, server_id=0)
        batched.engine.answer_many(queries)
        assert batched.stats.dpxor == sequential.stats.dpxor
        assert batched.stats.queries_answered == sequential.stats.queries_answered

    def test_eval_stats_identical(self):
        database, queries = _batch(128, 32, 5)
        sequential = create_server("reference", database, server_id=0)
        for query in queries:
            sequential.answer(query)
        batched = create_server("reference", database, server_id=0)
        batched.engine.answer_many(queries)
        assert batched.stats.eval == sequential.stats.eval


class TestEvalFullMany:
    @pytest.mark.parametrize("make", [make_prg, OracleAESPRG], ids=["fast", "oracle"])
    def test_matches_eval_full_per_key(self, make):
        prg = make()
        dpf = DPF(domain_bits=6, prg=prg)
        keys = [dpf.gen(alpha)[0] for alpha in (0, 7, 63)]
        keys += [dpf.gen(12)[1]]
        expected = np.stack([dpf.eval_full(key) for key in keys])
        got = dpf.eval_full_many(keys)
        assert np.array_equal(got, expected)

    def test_num_points_truncation(self):
        dpf = DPF(domain_bits=5, prg=make_prg())
        keys = [dpf.gen(3)[0], dpf.gen(19)[1]]
        expected = np.stack(
            [dpf.eval_full(key, num_points=21) for key in keys]
        )
        got = dpf.eval_full_many(keys, num_points=21)
        assert np.array_equal(got, expected)
        assert got.shape == (2, 21)

    def test_stats_match_sequential(self):
        prg_seq = make_prg()
        dpf_seq = DPF(domain_bits=6, prg=prg_seq)
        keys_seq = [dpf_seq.gen(alpha)[0] for alpha in (1, 2, 3)]
        seq_stats = EvalStats()
        for key in keys_seq:
            dpf_seq.eval_full(key, stats=seq_stats)

        prg_bat = make_prg()
        dpf_bat = DPF(domain_bits=6, prg=prg_bat)
        keys_bat = [dpf_bat.gen(alpha)[0] for alpha in (1, 2, 3)]
        bat_stats = EvalStats()
        dpf_bat.eval_full_many(keys_bat, stats=bat_stats)

        assert bat_stats == seq_stats

    def test_single_key_batch(self):
        dpf = DPF(domain_bits=4, prg=make_prg())
        key = dpf.gen(11)[0]
        assert np.array_equal(
            dpf.eval_full_many([key]), dpf.eval_full(key)[None, :]
        )

    def test_empty_batch_rejected(self):
        dpf = DPF(domain_bits=4, prg=make_prg())
        with pytest.raises(Exception):
            dpf.eval_full_many([])


class TestSelectorBufferReuse:
    def test_recycled_buffer_does_not_corrupt_results(self):
        database, queries = _batch(128, 32, 4)
        engine = create_server("reference", database, server_id=0).engine
        first = [r.answer.payload for r in engine.answer_many(queries).results]
        # Same engine, new flush: the pooled buffer is reused and must be
        # fully overwritten for the new batch.
        other = _batch(128, 32, 4, seed=7, stride=29)[1]
        engine.answer_many(other)
        again = [r.answer.payload for r in engine.answer_many(queries).results]
        assert again == first

    def test_shape_change_reallocates(self):
        database, queries = _batch(128, 32, 4)
        engine = create_server("reference", database, server_id=0).engine
        engine.answer_many(queries)
        smaller = queries[:2]
        expected = [engine.answer(q).answer.payload for q in smaller]
        got = [r.answer.payload for r in engine.answer_many(smaller).results]
        assert got == expected
