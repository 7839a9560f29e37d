"""``run_dpu_pipeline_many``: exact-value pins on the documented amortisation.

``test_batched_path.py`` checks the end-to-end consequence (batched PIM
totals at or below sequential totals); this file pins the *formula* from the
``run_dpu_pipeline_many`` docstring against the timing model, phase by phase::

    copy_in  = transfer_latency + sum(selector_bytes_per_dpu(B)) / host_to_dpu_bw
    copy_out = transfer_latency + B * record_size * P / dpu_to_host_bw
    dpxor    = launch_overhead(P) + max_dpu( sum_rows kernel_cost(dpu, row) )
    copy_db  = transfer_latency + sum(db_bytes) / host_to_dpu_bw   (streamed mode)

— each charged exactly once per batch and split evenly across the ``B``
breakdowns.  ``run_dpu_pipeline_many`` charges a :class:`DPULedger` without
executing; the executing scatter -> launch -> gather chain
(:func:`_execute_pipeline` over :class:`ExecutingDPUs`, a list of
:class:`DPU` objects running :class:`DpXorManyKernel`) is its oracle:
:class:`TestChargedMatchesExecuting` holds the two float-exactly equal on
every phase, per-DPU counter and transfer counter, and the payload of one
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
from repro.core.partitioning import PartitionLayout, run_dpu_pipeline_many
from repro.core.results import PHASE_COPY_IN, PHASE_COPY_OUT, PHASE_DPXOR
from repro.core.streaming import PHASE_COPY_DB
from repro.pim.config import scaled_down_config
from repro.pim.dpu import DPU
from repro.pim.kernels import DB_BUFFER, RESULT_BUFFER, SELECTOR_BUFFER, DpXorManyKernel
from repro.pim.system import DPULedger
from repro.pim.timing import PIMTimingModel, dpxor_kernel_cost
from repro.pir.database import Database
from repro.pir.xor_ops import dpxor_many, pack_selectors, selector_range


def database_chunks(layout, database):
    """Per-DPU database blocks in layout order; an empty DPU gets a placeholder byte."""
    return [
        database.chunk(start, stop).reshape(-1) if stop > start else np.zeros(1, np.uint8)
        for start, stop in layout.bounds.tolist()
    ]


def selector_chunks(layout, selectors):
    """Per-DPU ``(B, slice)`` packed selector buffers; an empty DPU gets a placeholder."""
    if selectors.ndim != 2 or selectors.shape[1] != -(-layout.num_records // 8):
        raise ConfigurationError(f"selector matrix {selectors.shape} does not match the layout")
    return [
        selector_range(selectors, start, stop) if stop > start else np.zeros(1, np.uint8)
        for start, stop in layout.bounds.tolist()
    ]


class ExecutingDPUs:
    """The executing oracle: ``P`` DPUs, each scattered to, launched and gathered."""

    def __init__(self, config):
        self.timing = PIMTimingModel(config)
        self.dpus = [DPU(dpu_id, config=config.dpu) for dpu_id in range(config.num_dpus)]
        self.bytes_to_dpus = np.zeros(config.num_dpus, dtype=np.int64)
        self.bytes_from_dpus = np.zeros(config.num_dpus, dtype=np.int64)

    def scatter(self, name, arrays):
        for dpu, array in zip(self.dpus, arrays):
            self.bytes_to_dpus[dpu.dpu_id] += dpu.store(name, array)
        return self.timing.host_to_dpu_seconds(sum(array.size for array in arrays))

    def launch(self, layout, batch):
        kernel, record_size = DpXorManyKernel(), layout.record_size
        reports = [
            dpu.launch(kernel, num_records=records, record_size=record_size, batch=batch)
            for dpu, records in zip(self.dpus, layout.records.tolist())
        ]
        longest = max(report.simulated_seconds for report in reports)
        return self.timing.launch_seconds(len(self.dpus)) + longest

    def gather(self, name, size_bytes):
        self.bytes_from_dpus += size_bytes
        blocks = [dpu.load(name, size_bytes=size_bytes) for dpu in self.dpus]
        return blocks, self.timing.dpu_to_host_seconds(size_bytes * len(self.dpus))


def _execute_pipeline(dpus, layout, selectors, breakdowns, *, db_chunks=None, db_copy_phase=None):
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
        charge(db_copy_phase, dpus.scatter(DB_BUFFER, db_chunks))
    charge(PHASE_COPY_IN, dpus.scatter(SELECTOR_BUFFER, selector_chunks(layout, selectors)))
    charge(PHASE_DPXOR, dpus.launch(layout, batch))
    blocks, copy_out = dpus.gather(RESULT_BUFFER, batch * layout.record_size)
    charge(PHASE_COPY_OUT, copy_out)
    return [np.asarray(block).reshape(batch, layout.record_size) for block in blocks]


def _rig(
    num_records, record_size, batch, num_dpus, *, seed=11, preload=True, tasklets=4, config=None
):
    """The executing DPUs (database scattered) and a charged ledger over the
    same platform, plus the batch's packed selector matrix, ready to scan."""
    if config is None:
        config = scaled_down_config(num_dpus=num_dpus, tasklets=tasklets)
    dpus, ledger = ExecutingDPUs(config), DPULedger(config)
    database = Database.random(num_records, record_size, seed=seed)
    layout = PartitionLayout.linear(num_records, record_size, config.num_dpus)
    db_chunks = database_chunks(layout, database)
    if preload:
        dpus.scatter(DB_BUFFER, db_chunks)
        ledger.charge_scatter(layout.db_bytes_per_dpu())
    rng = np.random.default_rng(seed + 1)
    selectors = pack_selectors(rng.integers(0, 2, size=(batch, num_records), dtype=np.uint8))
    return dpus, ledger, database, layout, db_chunks, selectors


def _run_many(ledger, layout, selectors, **kwargs):
    """The charged pipeline over the whole batch; returns each row's breakdown."""
    cost = PhaseTimer()
    run_dpu_pipeline_many(ledger, layout, selectors, cost, **kwargs)
    return [cost] * selectors.shape[0]


def _run_sequential(ledger, layout, selectors, **kwargs):
    return [_run_many(ledger, layout, row[None], **kwargs)[0] for row in selectors]


def _execute_many(dpus, layout, selectors):
    breakdowns = [PhaseTimer() for _ in range(selectors.shape[0])]
    return _execute_pipeline(dpus, layout, selectors, breakdowns), breakdowns


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
        dpus, _, _, layout, _, selectors = _rig(num_records, record_size, batch, num_dpus)
        sequential = [_execute_many(dpus, layout, row[None])[0] for row in selectors]
        blocks, _ = _execute_many(dpus, layout, selectors)
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
        _, ledger, _, layout, _, selectors = _rig(
            self.NUM_RECORDS, self.RECORD_SIZE, self.BATCH, self.NUM_DPUS
        )
        breakdowns = _run_many(ledger, layout, selectors)
        timing = ledger.timing

        selector_bytes = int(layout.selector_bytes_per_dpu(self.BATCH).sum())
        assert self._totals(breakdowns, PHASE_COPY_IN) == pytest.approx(
            timing.host_to_dpu_seconds(selector_bytes)
        )
        result_bytes = self.BATCH * self.RECORD_SIZE * self.NUM_DPUS
        assert self._totals(breakdowns, PHASE_COPY_OUT) == pytest.approx(
            timing.dpu_to_host_seconds(result_bytes)
        )

    def test_dpxor_charges_one_launch_overhead(self):
        _, ledger, _, layout, _, selectors = _rig(
            self.NUM_RECORDS, self.RECORD_SIZE, self.BATCH, self.NUM_DPUS
        )
        breakdowns = _run_many(ledger, layout, selectors)
        timing = ledger.timing

        bits = np.unpackbits(selectors, axis=1, count=self.NUM_RECORDS, bitorder="little")
        per_dpu = []
        for start, stop in layout.bounds.tolist():
            rows = bits[:, start:stop]
            records = stop - start
            total = 0.0
            for selected in rows.sum(axis=1).tolist():
                total += dpxor_kernel_cost(
                    ledger.config.dpu,
                    chunk_bytes=records * self.RECORD_SIZE,
                    record_size=self.RECORD_SIZE,
                    selected_fraction=selected / records,
                    tasklets=4,
                ).total_seconds
            per_dpu.append(total)
        expected = timing.launch_seconds(self.NUM_DPUS) + max(per_dpu)
        assert self._totals(breakdowns, PHASE_DPXOR) == pytest.approx(expected)

    def test_even_split_across_breakdowns(self):
        _, ledger, _, layout, _, selectors = _rig(
            self.NUM_RECORDS, self.RECORD_SIZE, self.BATCH, self.NUM_DPUS
        )
        breakdowns = _run_many(ledger, layout, selectors)
        for phase in (PHASE_COPY_IN, PHASE_DPXOR, PHASE_COPY_OUT):
            shares = [b.get(phase) for b in breakdowns]
            assert all(share == pytest.approx(shares[0]) for share in shares)

    def test_amortisation_vs_sequential_is_exact(self):
        # copy_in and copy_out each save exactly (B - 1) transfer latencies;
        # dpxor saves exactly (B - 1) launch overheads plus whatever
        # max-of-sums beats sum-of-maxes by (>= 0); scan bytes never amortise.
        _, ledger, _, layout, _, selectors = _rig(
            self.NUM_RECORDS, self.RECORD_SIZE, self.BATCH, self.NUM_DPUS
        )
        seq = _run_sequential(ledger, layout, selectors)
        bat = _run_many(ledger, layout, selectors)
        transfer = ledger.timing.config.transfer
        saved_latency = (self.BATCH - 1) * transfer.transfer_latency_s
        for phase in (PHASE_COPY_IN, PHASE_COPY_OUT):
            assert self._totals(seq, phase) - self._totals(bat, phase) == pytest.approx(
                saved_latency
            )
        saved_launch = (self.BATCH - 1) * ledger.timing.launch_seconds(self.NUM_DPUS)
        dpxor_saving = self._totals(seq, PHASE_DPXOR) - self._totals(bat, PHASE_DPXOR)
        assert dpxor_saving >= saved_launch - 1e-15

    def test_batch_of_one_matches_sequential_exactly(self):
        _, ledger, _, layout, _, selectors = _rig(
            self.NUM_RECORDS, self.RECORD_SIZE, 1, self.NUM_DPUS
        )
        seq = _run_sequential(ledger, layout, selectors)
        bat = _run_many(ledger, layout, selectors)
        for phase in (PHASE_COPY_IN, PHASE_DPXOR, PHASE_COPY_OUT):
            assert bat[0].get(phase) == pytest.approx(seq[0].get(phase))

    def test_placeholder_byte_ships_once_per_dispatch(self):
        # More DPUs than records: an empty DPU receives one placeholder byte
        # per dispatch, not one per row — 5 x 1 B x 4 rows + 3 x 1 B = 23 B.
        _, ledger, _, layout, _, selectors = _rig(5, 16, 4, 8)
        shipped = sum(chunk.size for chunk in selector_chunks(layout, selectors))
        assert layout.selector_bytes_per_dpu(4).sum() == shipped == 23
        before = int(ledger.bytes_to_dpus.sum())
        breakdowns = _run_many(ledger, layout, selectors)
        assert ledger.bytes_to_dpus.sum() - before == 23
        assert self._totals(breakdowns, PHASE_COPY_IN) == pytest.approx(
            ledger.timing.host_to_dpu_seconds(23)
        )


class TestStreamedDbCopy:
    def test_db_copy_charged_once_per_batch(self):
        _, ledger, _, layout, db_chunks, selectors = _rig(64, 16, 4, 4, preload=False)
        db_bytes = sum(chunk.size for chunk in db_chunks)
        breakdowns = _run_many(
            ledger,
            layout,
            selectors,
            db_bytes=layout.db_bytes_per_dpu(),
            db_copy_phase=PHASE_COPY_DB,
        )
        total = sum(b.get(PHASE_COPY_DB) for b in breakdowns)
        assert total == pytest.approx(ledger.timing.host_to_dpu_seconds(db_bytes))
        shares = [b.get(PHASE_COPY_DB) for b in breakdowns]
        assert all(share == pytest.approx(total / len(breakdowns)) for share in shares)

    def test_db_chunks_require_phase_name(self):
        _, ledger, _, layout, _, selectors = _rig(64, 16, 2, 4, preload=False)
        with pytest.raises(ConfigurationError):
            run_dpu_pipeline_many(
                ledger,
                layout,
                selectors,
                PhaseTimer(),
                db_bytes=layout.db_bytes_per_dpu(),
            )


class TestValidation:
    def test_empty_batch_rejected(self):
        _, ledger, _, layout, _, selectors = _rig(64, 16, 2, 4)
        with pytest.raises(ConfigurationError):
            run_dpu_pipeline_many(ledger, layout, selectors[:0], PhaseTimer())

    def test_selector_matrix_shape_checked(self):
        _, ledger, _, layout, _, _ = _rig(64, 16, 2, 4)
        with pytest.raises(ConfigurationError):
            run_dpu_pipeline_many(
                ledger, layout, np.zeros((2, 63), dtype=np.uint8), PhaseTimer()
            )
        with pytest.raises(ConfigurationError):
            run_dpu_pipeline_many(ledger, layout, np.zeros(64, dtype=np.uint8), PhaseTimer())


def _hex_phases(breakdowns):
    return [[(phase, seconds.hex()) for phase, seconds in b.items()] for b in breakdowns]


def _assert_charged_matches_executing(
    num_records, record_size, batch, num_dpus, *, tasklets=16, streamed=False, config=None
):
    """One rig, two dispatches: the DPUs execute, the ledger charges."""
    dpus, ledger, database, layout, db_chunks, selectors = _rig(
        num_records,
        record_size,
        batch,
        num_dpus,
        preload=not streamed,
        tasklets=tasklets,
        config=config,
    )
    rng = np.random.default_rng(num_records * 31 + batch)
    redraw = pack_selectors(rng.integers(0, 2, size=(batch, num_records), dtype=np.uint8))
    for dispatch in (selectors, redraw):
        executed = [PhaseTimer() for _ in range(batch)]
        charged = PhaseTimer()
        streaming = dict(db_copy_phase=PHASE_COPY_DB) if streamed else {}
        partials = _execute_pipeline(
            dpus,
            layout,
            dispatch,
            executed,
            db_chunks=db_chunks if streamed else None,
            **streaming,
        )
        run_dpu_pipeline_many(
            ledger,
            layout,
            dispatch,
            charged,
            db_bytes=layout.db_bytes_per_dpu() if streamed else None,
            **streaming,
        )
        folded = np.bitwise_xor.reduce(np.stack(partials), axis=0)
        assert folded.tobytes() == dpxor_many(database.records, dispatch).tobytes()
        assert _hex_phases([charged] * batch) == _hex_phases(executed)
    assert [seconds.hex() for seconds in ledger.busy_seconds.tolist()] == [
        dpu.busy_seconds.hex() for dpu in dpus.dpus
    ]
    assert ledger.launches.tolist() == [dpu.launches for dpu in dpus.dpus]
    assert ledger.bytes_to_dpus.tolist() == dpus.bytes_to_dpus.tolist()
    assert ledger.bytes_from_dpus.tolist() == dpus.bytes_from_dpus.tolist()


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
