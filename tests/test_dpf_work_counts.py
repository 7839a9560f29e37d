"""Deterministic work counts: no per-key Python is left in the DPF.

Wall-clock gains on a shared 2-vCPU host drown in noise; call counts do not.
One :meth:`DPF.gen_many` plus one :meth:`DPF.eval_full_bits_many` of its keys
at the ``eval_bound`` benchmark's shape (65 536 records, so 9 expanded
levels) run under the stdlib profiler, and the number of Python-level calls
landing in ``repro/dpf`` must not depend on the batch size: every level,
correction and key batch is one call whether it carries 8 queries or 32.  A
per-key loop (cutting the batch into key objects, stacking per-key rows per
level) makes the count grow with ``B``.

The same gate holds the PIM backends to one Python path per batch whatever
the DPU count: their per-DPU state is arrays, so building a server, writing
to it and answering a batch call into ``repro/core`` and ``repro/pim`` as
often at 2 048 DPUs as at 8.  A per-DPU object or loop makes it grow with
``P``.

And a server scans its database once per batch whatever its shape: a sharded
fleet's children only price their cut, so one batch is one ``dpxor_many`` at
1, 4 or 16 shards.  A per-shard scan makes the count grow with the shards.

A walk also tables its keys' correction words once, whatever its depth: a
per-level table build makes the builder's count grow with the levels, and a
chunked walk that descends to each chunk's root separately builds one more
table per chunk.

Last, a whole frontend flush makes as many calls into each file of the
protocol, cost-ledger and shard packages at 32 requests as at 8, on every
cost path (reference, clustered IM-PIR, streamed, sharded): messages move as
arrays and simulated cost is priced once per execution lane, not per row.
"""

import cProfile
import pstats
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro.core
from repro.core.config import IMPIRConfig
from repro.core.engine import available_backends, create_server
from repro.dpf.dpf import DPF
from repro.dpf.prf import make_prg
from repro.dpf.traversal import LevelByLevelTraversal, MemoryBoundedTraversal, TraversalStats
from repro.pim.config import scaled_down_config
from repro.pir import xor_ops
from repro.pir.client import PIRClient
from repro.pir.database import Database
from repro.pir.frontend import BatchingPolicy, PIRFrontend

_RECORDS = 1 << 16
_PACKAGE = str(Path(repro.dpf.__file__).parent)
_GGM = str(Path(_PACKAGE) / "ggm.py")


def _dpf_calls(count: int) -> int:
    dpf = DPF(domain_bits=16, seed=5)
    alphas = np.random.default_rng(count).integers(0, _RECORDS, size=count).tolist()
    profile = cProfile.Profile()
    profile.enable()
    try:
        keys = dpf.gen_many(alphas).keys
        dpf.eval_full_bits_many(keys, _RECORDS)
    finally:
        profile.disable()
    return sum(
        calls
        for (filename, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if filename.startswith(_PACKAGE)
    )


def test_calls_into_the_dpf_package_do_not_grow_with_the_batch():
    calls = _dpf_calls(8)
    assert calls > 0
    assert _dpf_calls(32) == calls


def _ggm_calls(run) -> Counter:
    """Calls per function of ``repro/dpf/ggm.py`` while ``run()`` runs."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        run()
    finally:
        profile.disable()
    return Counter(
        {
            function: count
            for (filename, _, function), (_, count, *_) in pstats.Stats(profile).stats.items()
            if filename == _GGM
        }
    )


@pytest.mark.parametrize("domain_bits", [10, 16])
def test_a_walk_tables_its_correction_words_once(domain_bits):
    """``eval_packed_many`` builds its keys' correction tables once per walk,
    not once per level: one ``correction_tables`` call and one
    ``corrected_children`` call per level at depth 3 and at depth 9."""
    dpf = DPF(domain_bits=domain_bits, seed=7)
    keys = dpf.gen_many([1, 2, 3, 5]).keys
    calls = _ggm_calls(lambda: dpf.eval_packed_many(keys))
    assert dpf.tree_depth == domain_bits - 7
    assert calls["correction_tables"] == 1
    assert calls["corrected_children"] == dpf.tree_depth


def test_a_chunked_walk_descends_to_every_chunk_root_at_once():
    """A memory-bounded evaluation tables the descent's correction words
    once and each chunk's subtree once: 16 chunks of 32 leaf blocks at
    2^16 points build 17 tables, not 32, for the same 560 PRG expansions
    and the same outputs as a level-by-level walk."""
    dpf = DPF(domain_bits=16, seed=7)
    key = dpf.gen(12345)[0]
    stats = TraversalStats()
    bounded = MemoryBoundedTraversal(chunk_leaves=4096)
    outputs = []
    calls = _ggm_calls(lambda: outputs.append(bounded.eval_full(dpf, key, stats=stats)))
    assert calls["correction_tables"] == 16 + 1
    assert stats.prg_calls == 16 * (4 + 31)
    np.testing.assert_array_equal(outputs[0], LevelByLevelTraversal().eval_full(dpf, key))


_CORE_AND_PIM = tuple(
    str(Path(package.__file__).parent) for package in (repro.core, repro.pim)
)


def _pim_server_calls(kind: str, num_dpus: int) -> int:
    """Python-level calls into ``repro/core`` and ``repro/pim`` while one PIM
    server is built, takes two writes and answers one 8-query batch."""
    database = Database.random(4096, 32, seed=3)
    config = IMPIRConfig(pim=scaled_down_config(num_dpus=num_dpus, tasklets=16))
    client = PIRClient(4096, 32, seed=4, prg=make_prg())
    queries = client.query_batch(list(range(0, 4096, 512)))[0]
    available_backends()  # the one-time registry load is not per-DPU work
    profile = cProfile.Profile()
    profile.enable()
    try:
        server = create_server(kind, database, config=config)
        server.apply_updates([(7, b"\x01" * 32), (4000, b"\x02" * 32)])
        server.apply_updates([(2048, b"\x03" * 32)])
        server.answer_batch(queries)
    finally:
        profile.disable()
    return sum(
        calls
        for (filename, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if filename.startswith(_CORE_AND_PIM)
    )


@pytest.mark.parametrize("kind", ["im-pir", "im-pir-streamed"])
def test_calls_into_the_pim_path_do_not_grow_with_the_dpu_count(kind):
    """The DPU population is arrays: serving and writing at the paper's 2 048
    DPUs takes the same Python calls as at 8 (no per-DPU objects, no loop)."""
    calls = _pim_server_calls(kind, 8)
    assert calls > 0
    assert _pim_server_calls(kind, 2048) == calls


_XOR_OPS = str(Path(xor_ops.__file__))


@pytest.mark.parametrize("num_shards", [1, 4, 16])
def test_a_sharded_server_scans_its_database_once_per_batch(num_shards):
    """Shards price their cut of a batch; the server XORs the whole database
    once, so one 8-query batch is one ``dpxor_many`` at any shard count, and
    its payloads are the reference scan's."""
    database = Database.random(4096, 32, seed=5)
    client = PIRClient(4096, 32, seed=6, prg=make_prg())
    queries = client.query_batch(list(range(7, 4096, 512)))[0]
    sharded = create_server(
        "sharded", database, num_shards=num_shards, child_kind="im-pir", prg=make_prg()
    )
    profile = cProfile.Profile()
    profile.enable()
    try:
        answers = sharded.answer_batch(queries).results
    finally:
        profile.disable()
    scans = sum(
        calls
        for (filename, _, function), (_, calls, *_) in pstats.Stats(profile).stats.items()
        if filename == _XOR_OPS and function == "dpxor_many"
    )
    assert scans == 1
    reference = create_server("reference", database, prg=make_prg())
    assert [result.answer.payload for result in answers] == [
        result.answer.payload for result in reference.answer_batch(queries).results
    ]


_FLUSH_PACKAGES = tuple(
    str(Path(package.__file__).parent)
    for package in (repro.core, repro.pir, repro.dpf, repro.common, repro.shard)
)

#: The replica kinds a flush is counted over: every cost path of a lane.
_FLUSH_KINDS = {
    "reference": {},
    "im-pir": {
        "config": IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4), num_clusters=2)
    },
    "im-pir-streamed": {},
    "sharded": {"child_kind": "im-pir", "num_shards": 4},
}


def _flush_calls(batch_size: int, kind: str) -> Counter:
    """Python-level calls into each file of ``repro/core``, ``repro/pir``,
    ``repro/dpf``, ``repro/common`` and ``repro/shard`` (the scan module
    aside) while one ``PIRFrontend`` flush of ``batch_size`` requests runs
    over two ``kind`` replicas."""
    database = Database.random(4096, 32, seed=8)
    client = PIRClient(4096, 32, seed=9, prg=make_prg())
    replicas = [
        create_server(kind, database, server_id=i, **_FLUSH_KINDS[kind]) for i in (0, 1)
    ]
    frontend = PIRFrontend(client, replicas, policy=BatchingPolicy(batch_size, 10.0))
    indices = list(range(5, 4096, 4096 // batch_size))[:batch_size]

    def flush(profile=None):
        for index in indices:
            frontend._admit(index, 0.0)
        batch = frontend._take_pending()
        if profile is not None:
            profile.enable()
        try:
            plan = frontend.begin_flush(batch, "size")
            raw_results = [
                replica.answer_batch(queries)
                for replica, queries in zip(replicas, plan.per_server)
            ]
            return frontend.finish_flush(plan, raw_results, 0.0)
        finally:
            if profile is not None:
                profile.disable()

    flush()  # warm-up: the engines' DPF instances, lazy imports
    profile = cProfile.Profile()
    outcome = flush(profile)
    assert list(outcome.records.values()) == [database.record(index) for index in indices]
    calls = Counter()
    for (filename, _, _), (_, count, *_) in pstats.Stats(profile).stats.items():
        if filename.startswith(_FLUSH_PACKAGES) and filename != _XOR_OPS:
            calls[Path(filename).relative_to(Path(repro.core.__file__).parents[1])] += count
    return calls


@pytest.mark.parametrize("kind", sorted(_FLUSH_KINDS))
def test_a_flush_moves_its_messages_and_costs_as_arrays(kind):
    """Queries, answers and simulated costs cross every layer once per
    replica per flush: no file of the client, frontend, engine, DPF, cost
    ledger or shard fleet makes more Python calls for 32 requests than for 8.
    A per-query message, key stack, validation, answer object,
    reconstruction, or a per-row cost timer, charge or fold makes its file's
    count grow with the batch."""
    calls = _flush_calls(8, kind)
    assert sum(calls.values()) > 0
    assert _flush_calls(32, kind) == calls
