"""``run_dpu_pipeline_many``: exact-value pins on the documented amortisation.

``test_batched_path.py`` checks the end-to-end consequence (batched PIM
totals at or below sequential totals); this file pins the *formula* from the
``run_dpu_pipeline_many`` docstring against the timing model, phase by phase::

    copy_in  = transfer_latency + B * packed_selector_bytes / host_to_dpu_bw
    copy_out = transfer_latency + B * record_size * P / dpu_to_host_bw
    dpxor    = launch_overhead(P) + max_dpu( sum_rows kernel_cost(dpu, row) )
    copy_db  = transfer_latency + db_bytes / host_to_dpu_bw   (streamed mode)

— each charged exactly once per batch and split evenly across the ``B``
breakdowns — plus bit-identity of the per-DPU partials against ``B``
one-row dispatches of the same pipeline, including the edge shapes
(batch of one, a single DPU, fewer records than DPUs).
"""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.events import PhaseTimer
from repro.core.partitioning import DatabasePartitioner, run_dpu_pipeline_many
from repro.core.results import PHASE_COPY_IN, PHASE_COPY_OUT, PHASE_DPXOR
from repro.core.streaming import PHASE_COPY_DB
from repro.pim.config import scaled_down_config
from repro.pim.kernels import DB_BUFFER, DpXorManyKernel
from repro.pim.system import UPMEMSystem
from repro.pim.timing import dpxor_kernel_cost


def _rig(num_records, record_size, batch, num_dpus, *, seed=11, preload=True):
    """A loaded DPU set plus the batch's selector matrix, ready to scan."""
    from repro.pir.database import Database

    system = UPMEMSystem(scaled_down_config(num_dpus=num_dpus, tasklets=4))
    dpu_set = system.allocate()
    dpu_set.load_program("dpxor")
    database = Database.random(num_records, record_size, seed=seed)
    partitioner = DatabasePartitioner(database)
    layout = partitioner.layout(num_dpus)
    db_chunks = partitioner.database_chunks(layout)
    if preload:
        dpu_set.scatter(DB_BUFFER, db_chunks)
    rng = np.random.default_rng(seed + 1)
    selectors = rng.integers(0, 2, size=(batch, num_records), dtype=np.uint8)
    return dpu_set, partitioner, layout, db_chunks, selectors


def _run_many(dpu_set, partitioner, layout, selectors, **kwargs):
    batch = selectors.shape[0]
    breakdowns = [PhaseTimer() for _ in range(batch)]
    chunks = partitioner.selector_chunks_many(layout, selectors)
    blocks = run_dpu_pipeline_many(
        dpu_set, DpXorManyKernel(), layout, chunks, breakdowns, **kwargs
    )
    return blocks, breakdowns


def _run_sequential(dpu_set, partitioner, layout, selectors, **kwargs):
    partials_per_row = []
    breakdowns = []
    for row in selectors:
        blocks, (breakdown,) = _run_many(
            dpu_set, partitioner, layout, row[None], **kwargs
        )
        partials_per_row.append(blocks)
        breakdowns.append(breakdown)
    return partials_per_row, breakdowns


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
        dpu_set, partitioner, layout, _, selectors = _rig(
            num_records, record_size, batch, num_dpus
        )
        sequential, _ = _run_sequential(dpu_set, partitioner, layout, selectors)
        blocks, _ = _run_many(dpu_set, partitioner, layout, selectors)
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
        _, breakdowns = _run_many(dpu_set, partitioner, layout, selectors)
        timing = dpu_set.timing

        selector_bytes = self.BATCH * partitioner.packed_selector_bytes(layout)
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
        _, breakdowns = _run_many(dpu_set, partitioner, layout, selectors)
        timing = dpu_set.timing

        per_dpu = []
        for dpu_index, (start, stop) in enumerate(layout.bounds):
            rows = selectors[:, start:stop]
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
        _, breakdowns = _run_many(dpu_set, partitioner, layout, selectors)
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
        _, seq = _run_sequential(dpu_set, partitioner, layout, selectors)
        _, bat = _run_many(dpu_set, partitioner, layout, selectors)
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
        _, seq = _run_sequential(dpu_set, partitioner, layout, selectors)
        _, bat = _run_many(dpu_set, partitioner, layout, selectors)
        for phase in (PHASE_COPY_IN, PHASE_DPXOR, PHASE_COPY_OUT):
            assert bat[0].get(phase) == pytest.approx(seq[0].get(phase))


class TestStreamedDbCopy:
    def test_db_copy_charged_once_per_batch(self):
        dpu_set, partitioner, layout, db_chunks, selectors = _rig(
            64, 16, 4, 4, preload=False
        )
        _, breakdowns = _run_many(
            dpu_set,
            partitioner,
            layout,
            selectors,
            db_chunks=db_chunks,
            db_copy_phase=PHASE_COPY_DB,
        )
        db_bytes = sum(chunk.size for chunk in db_chunks)
        total = sum(b.get(PHASE_COPY_DB) for b in breakdowns)
        assert total == pytest.approx(dpu_set.timing.host_to_dpu_seconds(db_bytes))
        shares = [b.get(PHASE_COPY_DB) for b in breakdowns]
        assert all(share == pytest.approx(total / len(breakdowns)) for share in shares)

    def test_db_chunks_require_phase_name(self):
        dpu_set, partitioner, layout, db_chunks, selectors = _rig(
            64, 16, 2, 4, preload=False
        )
        chunks = partitioner.selector_chunks_many(layout, selectors)
        with pytest.raises(ConfigurationError):
            run_dpu_pipeline_many(
                dpu_set,
                DpXorManyKernel(),
                layout,
                chunks,
                [PhaseTimer(), PhaseTimer()],
                db_chunks=db_chunks,
            )


class TestValidation:
    def test_empty_batch_rejected(self):
        dpu_set, partitioner, layout, _, selectors = _rig(64, 16, 2, 4)
        chunks = partitioner.selector_chunks_many(layout, selectors)
        with pytest.raises(ConfigurationError):
            run_dpu_pipeline_many(dpu_set, DpXorManyKernel(), layout, chunks, [])

    def test_selector_matrix_shape_checked(self):
        _, partitioner, layout, _, _ = _rig(64, 16, 2, 4)
        with pytest.raises(ConfigurationError):
            partitioner.selector_chunks_many(
                layout, np.zeros((2, 63), dtype=np.uint8)
            )
        with pytest.raises(ConfigurationError):
            partitioner.selector_chunks_many(layout, np.zeros(64, dtype=np.uint8))
