"""Ablation — tasklet count per DPU (paper §5.2 configuration choice).

The paper runs 16 tasklets per DPU, citing the UPMEM characterisation result
that >= 11 tasklets are needed to fill the in-order pipeline.  This ablation
sweeps the tasklet count through the cost model and through the functional
kernel to show the saturation behaviour that justifies the choice.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.common.units import MIB
from repro.pim.config import DPUConfig, UPMEM_PAPER_CONFIG
from repro.pim.dpu import DPU
from repro.pim.kernels import DB_BUFFER, SELECTOR_BUFFER, DpXorManyKernel
from repro.pim.timing import PIMTimingModel
from repro.pir.xor_ops import pack_selectors

TASKLET_SWEEP = (1, 2, 4, 8, 11, 16, 24)


class TestTaskletSweepModel:
    def test_kernel_time_vs_tasklets(self, benchmark):
        """Regenerate the tasklet-scaling curve from the cost model."""
        timing = PIMTimingModel(UPMEM_PAPER_CONFIG)

        def sweep():
            return {
                tasklets: timing.dpu_dpxor_cost(4 * MIB, 32, tasklets=tasklets).total_seconds
                for tasklets in TASKLET_SWEEP
            }

        times = benchmark(sweep)
        print("\nPer-DPU dpXOR time on a 4 MB block vs tasklet count:")
        for tasklets, seconds in times.items():
            print(f"  {tasklets:>3} tasklets: {seconds * 1e3:8.2f} ms")
        assert times[1] > times[8] > times[11]
        # Saturation beyond the pipeline depth (the paper's recommendation).
        assert times[16] == pytest.approx(times[11], rel=0.05)
        assert times[24] == pytest.approx(times[16], rel=0.05)


class TestTaskletSweepFunctional:
    @pytest.mark.parametrize("tasklets", [2, 8, 16])
    def test_functional_kernel(self, benchmark, tasklets):
        rng = np.random.default_rng(tasklets)
        num_records = 16384
        database = rng.integers(0, 256, size=(num_records, 32), dtype=np.uint8)
        selector = rng.integers(0, 2, size=num_records, dtype=np.uint8)
        dpu = DPU(0, config=DPUConfig(tasklets=tasklets))
        dpu.store(DB_BUFFER, database.reshape(-1))
        dpu.store(SELECTOR_BUFFER, pack_selectors(selector))
        report = benchmark(
            dpu.launch, DpXorManyKernel(), batch=1, num_records=num_records, record_size=32
        )
        assert report.tasklets_used == tasklets
