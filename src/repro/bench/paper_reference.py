"""Reference values reported by the paper, for paper-vs-measured comparisons.

Exact data tables are not published; values read off figures are approximate
and marked as such.  They are used only to *report* how close the
reproduction lands (the output of ``python -m repro.bench.cli all``), never to
tune results at run time.
"""

from __future__ import annotations

from typing import Dict

# -- headline claims (abstract, §5.3) ------------------------------------------------------

#: "query throughput ... more than 3.7x when compared to a standard CPU-based PIR".
HEADLINE_THROUGHPUT_SPEEDUP = 3.7

#: Fig. 9(a): speedup at the smallest database size (0.5 GB).
FIG9_SPEEDUP_AT_0_5_GIB = 1.7
#: Fig. 9(a): speedup at the largest database size (8 GB).
FIG9_SPEEDUP_AT_8_GIB = 3.7
#: Fig. 9(b): average speedup across batch sizes at a 1 GB database.
FIG9_MEAN_SPEEDUP_AT_1_GIB = 2.6

# -- Table 1: average phase contributions ---------------------------------------------------

TABLE1_IMPIR: Dict[str, float] = {
    "eval": 0.7645,
    "copy_cpu_to_dpu": 0.0717,
    "dpxor": 0.1620,
    "copy_dpu_to_cpu": 0.0018,
    "aggregate": 0.0000002,
}

TABLE1_CPU: Dict[str, float] = {
    "eval": 0.1664,
    "dpxor": 0.8336,
}

# -- Fig. 3: motivation experiment -----------------------------------------------------------

#: "a single query on a 4 GB database ... takes about 3 s on the server".
FIG3_TOTAL_SECONDS_AT_4_GIB = 3.0
#: "dpXOR operations take ~10x longer than key evaluation".
FIG3_DPXOR_OVER_EVAL = 10.0
#: "key evaluation ... ~1000x [longer] than key generation".
FIG3_EVAL_OVER_GEN = 1000.0

# -- Fig. 11: DPU clustering -------------------------------------------------------------------

#: "up to 1.35x throughput improvement with 8 DPU clusters compared to a single cluster".
FIG11_MAX_CLUSTER_GAIN = 1.35

# -- Fig. 12: GPU comparison ---------------------------------------------------------------------

#: "IM-PIR achieves up to 1.34x throughput ... compared to the GPU-based approach".
FIG12_IMPIR_OVER_GPU = 1.34
#: "the GPU-based approach achieves up to 1.36x throughput ... [over] CPU-PIR".
FIG12_GPU_OVER_CPU = 1.36
#: "1.3x latency improvement" for both of the above comparisons.
FIG12_LATENCY_IMPROVEMENT = 1.3

# -- evaluation setup constants --------------------------------------------------------------------

PAPER_NUM_DPUS = 2048
PAPER_TASKLETS_PER_DPU = 16
PAPER_RECORD_SIZE = 32
PAPER_DEFAULT_BATCH = 32
PAPER_FIG9_DB_SIZES_GIB = (0.5, 1.0, 2.0, 4.0, 8.0)
PAPER_FIG10_DB_SIZES_GIB = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
PAPER_FIG11_CLUSTERS = (1, 2, 4, 8)
PAPER_FIG11_BATCH_SIZES = (4, 8, 16, 32, 64, 128, 256)
PAPER_FIG12_DB_SIZES_GIB = (0.125, 0.25, 0.5, 0.75, 1.0)
PAPER_BATCH_SIZES = (4, 8, 16, 32, 64, 128, 256, 512)


def relative_error(measured: float, reference: float) -> float:
    """Relative deviation of ``measured`` from ``reference`` (0 when equal)."""
    if reference == 0:
        return float("inf") if measured else 0.0
    return abs(measured - reference) / abs(reference)
