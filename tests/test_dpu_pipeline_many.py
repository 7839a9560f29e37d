"""``run_dpu_pipeline_many``: exact-value pins on the documented amortisation.

``test_batched_path.py`` checks the end-to-end consequence (batched PIM
totals at or below sequential totals); this file pins the *formula* from the
``run_dpu_pipeline_many`` docstring against the timing model, phase by phase::

    copy_in  = transfer_latency + packed_selector_bytes(layout, B) / host_to_dpu_bw
    copy_out = transfer_latency + B * record_size * P / dpu_to_host_bw
    dpxor    = launch_overhead(P) + max_dpu( sum_rows kernel_cost(dpu, row) )
    copy_db  = transfer_latency + db_bytes / host_to_dpu_bw   (streamed mode)

— each charged exactly once per batch and split evenly across the ``B``
breakdowns.  ``run_dpu_pipeline_many`` charges without executing; the
executing scatter -> launch -> gather chain (:func:`_execute_pipeline`,
running :class:`DpXorManyKernel` on every DPU) is its oracle:
:class:`TestChargedMatchesExecuting` holds the two float-exactly equal on
every phase, DPU counter and transfer counter, and the payload of one
``dpxor_many`` over the database to the folded per-DPU partials.  The
oracle's own partials are pinned bit-identical against ``B`` one-row
dispatches, including the edge shapes (batch of one, a single DPU, fewer
records than DPUs).
"""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.events import PhaseTimer
from repro.core.config import IMPIRConfig
from repro.core.partitioning import (
    DatabasePartitioner,
    kwargs_for_kernel_many,
    run_dpu_pipeline_many,
)
from repro.core.results import PHASE_COPY_IN, PHASE_COPY_OUT, PHASE_DPXOR
from repro.core.streaming import PHASE_COPY_DB
from repro.pim.config import scaled_down_config
from repro.pim.kernels import DB_BUFFER, RESULT_BUFFER, SELECTOR_BUFFER, DpXorManyKernel
from repro.pim.system import UPMEMSystem
from repro.pim.timing import dpxor_kernel_cost
from repro.pir.database import Database
from repro.pir.xor_ops import dpxor_many, pack_selectors


def _execute_pipeline(
    dpu_set, layout, selectors, breakdowns, *, db_chunks=None, db_copy_phase=None
):
    """The executing pipeline: scatter, launch the kernel on every DPU, gather.

    Charges each phase's batch total evenly across ``breakdowns`` exactly as
    :func:`run_dpu_pipeline_many` documents, and returns the per-DPU
    ``(B, record_size)`` partials.
    """
    batch = len(breakdowns)

    def charge(phase, total_seconds):
        for breakdown in breakdowns:
            breakdown.record(phase, total_seconds / batch)

    if db_chunks is not None:
        charge(db_copy_phase, dpu_set.scatter(DB_BUFFER, db_chunks).simulated_seconds)
    chunks = DatabasePartitioner.selector_chunks_many(layout, selectors)
    charge(PHASE_COPY_IN, dpu_set.scatter(SELECTOR_BUFFER, chunks).simulated_seconds)
    launch = dpu_set.launch(
        DpXorManyKernel(), per_dpu_kwargs=kwargs_for_kernel_many(layout, batch)
    )
    charge(PHASE_DPXOR, launch.simulated_seconds)
    blocks, copy_out = dpu_set.gather(RESULT_BUFFER, batch * layout.record_size)
    charge(PHASE_COPY_OUT, copy_out.simulated_seconds)
    return [np.asarray(block).reshape(batch, layout.record_size) for block in blocks]


def _rig(
    num_records, record_size, batch, num_dpus, *, seed=11, preload=True, tasklets=4, config=None
):
    """A loaded DPU set plus the batch's packed selector matrix, ready to scan."""
    if config is None:
        config = scaled_down_config(num_dpus=num_dpus, tasklets=tasklets)
    dpu_set = UPMEMSystem(config).allocate(config.num_dpus)
    dpu_set.load_program("dpxor")
    database = Database.random(num_records, record_size, seed=seed)
    partitioner = DatabasePartitioner(database)
    layout = partitioner.layout(config.num_dpus)
    db_chunks = partitioner.database_chunks(layout)
    if preload:
        dpu_set.scatter(DB_BUFFER, db_chunks)
    rng = np.random.default_rng(seed + 1)
    selectors = pack_selectors(rng.integers(0, 2, size=(batch, num_records), dtype=np.uint8))
    return dpu_set, partitioner, layout, db_chunks, selectors


def _run_many(dpu_set, partitioner, layout, selectors, **kwargs):
    """The charged pipeline over the whole batch; returns the breakdowns."""
    breakdowns = [PhaseTimer() for _ in range(selectors.shape[0])]
    run_dpu_pipeline_many(dpu_set, layout, selectors, breakdowns, **kwargs)
    return breakdowns


def _run_sequential(dpu_set, partitioner, layout, selectors, **kwargs):
    return [
        _run_many(dpu_set, partitioner, layout, row[None], **kwargs)[0]
        for row in selectors
    ]


def _execute_many(dpu_set, layout, selectors):
    breakdowns = [PhaseTimer() for _ in range(selectors.shape[0])]
    return _execute_pipeline(dpu_set, layout, selectors, breakdowns), breakdowns


class TestPayloadEquivalence:
    @pytest.mark.parametrize(
        "num_records,record_size,batch,num_dpus",
        [
            (128, 32, 5, 4),
            (128, 32, 1, 4),  # batch of one
            (96, 24, 3, 1),  # single DPU
            (3, 16, 4, 8),  # fewer records than DPUs (empty blocks)
            (37, 8, 6, 4),  # non-power-of-two domain
        ],
    )
    def test_partials_match_sequential(self, num_records, record_size, batch, num_dpus):
        dpu_set, _, layout, _, selectors = _rig(
            num_records, record_size, batch, num_dpus
        )
        sequential = [_execute_many(dpu_set, layout, row[None])[0] for row in selectors]
        blocks, _ = _execute_many(dpu_set, layout, selectors)
        assert len(blocks) == num_dpus
        for dpu_index, block in enumerate(blocks):
            assert block.shape == (batch, record_size)
            for row in range(batch):
                assert np.array_equal(
                    block[row], np.asarray(sequential[row][dpu_index]).reshape(-1)
                )


class TestAmortizedFormula:
    NUM_RECORDS, RECORD_SIZE, BATCH, NUM_DPUS = 128, 32, 5, 4

    def _totals(self, breakdowns, phase):
        return sum(b.get(phase) for b in breakdowns)

    def test_copy_phases_charge_latency_once(self):
        dpu_set, partitioner, layout, _, selectors = _rig(
            self.NUM_RECORDS, self.RECORD_SIZE, self.BATCH, self.NUM_DPUS
        )
        breakdowns = _run_many(dpu_set, partitioner, layout, selectors)
        timing = dpu_set.timing

        selector_bytes = partitioner.packed_selector_bytes(layout, self.BATCH)
        assert self._totals(breakdowns, PHASE_COPY_IN) == pytest.approx(
            timing.host_to_dpu_seconds(selector_bytes)
        )
        result_bytes = self.BATCH * self.RECORD_SIZE * self.NUM_DPUS
        assert self._totals(breakdowns, PHASE_COPY_OUT) == pytest.approx(
            timing.dpu_to_host_seconds(result_bytes)
        )

    def test_dpxor_charges_one_launch_overhead(self):
        dpu_set, partitioner, layout, _, selectors = _rig(
            self.NUM_RECORDS, self.RECORD_SIZE, self.BATCH, self.NUM_DPUS
        )
        breakdowns = _run_many(dpu_set, partitioner, layout, selectors)
        timing = dpu_set.timing

        bits = np.unpackbits(selectors, axis=1, count=self.NUM_RECORDS, bitorder="little")
        per_dpu = []
        for dpu_index, (start, stop) in enumerate(layout.bounds):
            rows = bits[:, start:stop]
            records = stop - start
            total = 0.0
            for selected in rows.sum(axis=1).tolist():
                total += dpxor_kernel_cost(
                    dpu_set.dpus[dpu_index].config,
                    chunk_bytes=records * self.RECORD_SIZE,
                    record_size=self.RECORD_SIZE,
                    selected_fraction=selected / records,
                    tasklets=4,
                ).total_seconds
            per_dpu.append(total)
        expected = timing.launch_seconds(self.NUM_DPUS) + max(per_dpu)
        assert self._totals(breakdowns, PHASE_DPXOR) == pytest.approx(expected)

    def test_even_split_across_breakdowns(self):
        dpu_set, partitioner, layout, _, selectors = _rig(
            self.NUM_RECORDS, self.RECORD_SIZE, self.BATCH, self.NUM_DPUS
        )
        breakdowns = _run_many(dpu_set, partitioner, layout, selectors)
        for phase in (PHASE_COPY_IN, PHASE_DPXOR, PHASE_COPY_OUT):
            shares = [b.get(phase) for b in breakdowns]
            assert all(share == pytest.approx(shares[0]) for share in shares)

    def test_amortisation_vs_sequential_is_exact(self):
        # copy_in and copy_out each save exactly (B - 1) transfer latencies;
        # dpxor saves exactly (B - 1) launch overheads plus whatever
        # max-of-sums beats sum-of-maxes by (>= 0); scan bytes never amortise.
        dpu_set, partitioner, layout, _, selectors = _rig(
            self.NUM_RECORDS, self.RECORD_SIZE, self.BATCH, self.NUM_DPUS
        )
        seq = _run_sequential(dpu_set, partitioner, layout, selectors)
        bat = _run_many(dpu_set, partitioner, layout, selectors)
        transfer = dpu_set.timing.config.transfer
        saved_latency = (self.BATCH - 1) * transfer.transfer_latency_s
        for phase in (PHASE_COPY_IN, PHASE_COPY_OUT):
            assert self._totals(seq, phase) - self._totals(bat, phase) == pytest.approx(
                saved_latency
            )
        saved_launch = (self.BATCH - 1) * dpu_set.timing.launch_seconds(self.NUM_DPUS)
        dpxor_saving = self._totals(seq, PHASE_DPXOR) - self._totals(bat, PHASE_DPXOR)
        assert dpxor_saving >= saved_launch - 1e-15

    def test_batch_of_one_matches_sequential_exactly(self):
        dpu_set, partitioner, layout, _, selectors = _rig(
            self.NUM_RECORDS, self.RECORD_SIZE, 1, self.NUM_DPUS
        )
        seq = _run_sequential(dpu_set, partitioner, layout, selectors)
        bat = _run_many(dpu_set, partitioner, layout, selectors)
        for phase in (PHASE_COPY_IN, PHASE_DPXOR, PHASE_COPY_OUT):
            assert bat[0].get(phase) == pytest.approx(seq[0].get(phase))

    def test_placeholder_byte_ships_once_per_dispatch(self):
        # More DPUs than records: an empty DPU receives one placeholder byte
        # per dispatch, not one per row — 5 x 1 B x 4 rows + 3 x 1 B = 23 B.
        dpu_set, partitioner, layout, _, selectors = _rig(5, 16, 4, 8)
        shipped = sum(chunk.size for chunk in partitioner.selector_chunks_many(layout, selectors))
        assert partitioner.packed_selector_bytes(layout, 4) == shipped == 23
        before = dpu_set.transfer.bytes_to_dpus
        breakdowns = _run_many(dpu_set, partitioner, layout, selectors)
        assert dpu_set.transfer.bytes_to_dpus - before == 23
        assert self._totals(breakdowns, PHASE_COPY_IN) == pytest.approx(
            dpu_set.timing.host_to_dpu_seconds(23)
        )


class TestStreamedDbCopy:
    def test_db_copy_charged_once_per_batch(self):
        dpu_set, partitioner, layout, db_chunks, selectors = _rig(
            64, 16, 4, 4, preload=False
        )
        db_bytes = sum(chunk.size for chunk in db_chunks)
        breakdowns = _run_many(
            dpu_set,
            partitioner,
            layout,
            selectors,
            db_bytes=db_bytes,
            db_copy_phase=PHASE_COPY_DB,
        )
        total = sum(b.get(PHASE_COPY_DB) for b in breakdowns)
        assert total == pytest.approx(dpu_set.timing.host_to_dpu_seconds(db_bytes))
        shares = [b.get(PHASE_COPY_DB) for b in breakdowns]
        assert all(share == pytest.approx(total / len(breakdowns)) for share in shares)

    def test_db_chunks_require_phase_name(self):
        dpu_set, partitioner, layout, db_chunks, selectors = _rig(
            64, 16, 2, 4, preload=False
        )
        with pytest.raises(ConfigurationError):
            run_dpu_pipeline_many(
                dpu_set,
                layout,
                selectors,
                [PhaseTimer(), PhaseTimer()],
                db_bytes=sum(chunk.size for chunk in db_chunks),
            )


class TestValidation:
    def test_empty_batch_rejected(self):
        dpu_set, partitioner, layout, _, selectors = _rig(64, 16, 2, 4)
        with pytest.raises(ConfigurationError):
            run_dpu_pipeline_many(dpu_set, layout, selectors[:0], [])

    def test_selector_matrix_shape_checked(self):
        dpu_set, partitioner, layout, _, _ = _rig(64, 16, 2, 4)
        with pytest.raises(ConfigurationError):
            partitioner.selector_chunks_many(
                layout, np.zeros((2, 63), dtype=np.uint8)
            )
        with pytest.raises(ConfigurationError):
            partitioner.selector_chunks_many(layout, np.zeros(64, dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            run_dpu_pipeline_many(
                dpu_set, layout, np.zeros((2, 63), dtype=np.uint8), [PhaseTimer()] * 2
            )


def _hex_phases(breakdowns):
    return [[(phase, seconds.hex()) for phase, seconds in b.items()] for b in breakdowns]


def _assert_charged_matches_executing(
    num_records, record_size, batch, num_dpus, *, tasklets=16, streamed=False, config=None
):
    """Two identical rigs, two dispatches each: one executes, one charges."""
    rigs = [
        _rig(
            num_records,
            record_size,
            batch,
            num_dpus,
            preload=not streamed,
            tasklets=tasklets,
            config=config,
        )
        for _ in range(2)
    ]
    (exec_set, partitioner, layout, db_chunks, selectors), (charged_set, *_) = rigs
    records = partitioner.database.records
    rng = np.random.default_rng(num_records * 31 + batch)
    redraw = pack_selectors(rng.integers(0, 2, size=(batch, num_records), dtype=np.uint8))
    for dispatch in (selectors, redraw):
        executed = [PhaseTimer() for _ in range(batch)]
        charged = [PhaseTimer() for _ in range(batch)]
        streaming = dict(db_copy_phase=PHASE_COPY_DB) if streamed else {}
        partials = _execute_pipeline(
            exec_set,
            layout,
            dispatch,
            executed,
            db_chunks=db_chunks if streamed else None,
            **streaming,
        )
        run_dpu_pipeline_many(
            charged_set,
            layout,
            dispatch,
            charged,
            db_bytes=sum(chunk.size for chunk in db_chunks) if streamed else None,
            **streaming,
        )
        folded = np.bitwise_xor.reduce(np.stack(partials), axis=0)
        assert folded.tobytes() == dpxor_many(records, dispatch).tobytes()
        assert _hex_phases(charged) == _hex_phases(executed)
    assert [dpu.busy_seconds.hex() for dpu in charged_set.dpus] == [
        dpu.busy_seconds.hex() for dpu in exec_set.dpus
    ]
    assert [dpu.launches for dpu in charged_set.dpus] == [dpu.launches for dpu in exec_set.dpus]
    assert charged_set.transfer.bytes_to_dpus == exec_set.transfer.bytes_to_dpus
    assert charged_set.transfer.bytes_from_dpus == exec_set.transfer.bytes_from_dpus


class TestChargedMatchesExecuting:
    """The float-exact contract: charging from popcounts is what executing costs."""

    @pytest.mark.parametrize("streamed", [False, True], ids=["preloaded", "streamed"])
    @pytest.mark.parametrize("record_size", [8, 13, 32, 64])
    @pytest.mark.parametrize("batch", [1, 7, 8, 9, 17])
    def test_batch_and_record_shapes(self, batch, record_size, streamed):
        _assert_charged_matches_executing(100, record_size, batch, 8, streamed=streamed)

    @pytest.mark.parametrize("streamed", [False, True], ids=["preloaded", "streamed"])
    @pytest.mark.parametrize(
        "num_records,num_dpus", [(100, 8), (5, 8)], ids=["spread", "more-dpus-than-records"]
    )
    @pytest.mark.parametrize("tasklets", [1, 11, 16, 24])
    def test_tasklets_and_layouts(self, tasklets, num_records, num_dpus, streamed):
        _assert_charged_matches_executing(
            num_records, 13, 9, num_dpus, tasklets=tasklets, streamed=streamed
        )

    def test_paper_geometry(self):
        # The default IMPIRConfig: 2048 DPUs x 16 tasklets, 2 records per DPU.
        _assert_charged_matches_executing(4096, 32, 8, None, config=IMPIRConfig().pim)
