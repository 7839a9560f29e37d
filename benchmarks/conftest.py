"""Shared fixtures for the benchmark harness.

Every module here regenerates one of the paper's tables or figures.  Each
module combines:

* **pytest-benchmark measurements** of the real Python kernels (numpy dpXOR,
  full-domain DPF evaluation, the simulated DPU kernel, end-to-end IM-PIR
  queries on a scaled-down platform) so functional performance regressions are
  caught; and
* **figure regeneration** runs that evaluate the calibrated cost models at the
  paper's database/batch sizes and print the same rows/series the paper
  reports (run with ``-s`` to see them; ``python -m repro.bench.cli all``
  prints the same series without the timing harness).
"""

from __future__ import annotations

import pytest

from repro.core.config import IMPIRConfig
from repro.pim.config import scaled_down_config
from repro.pir.database import Database


@pytest.fixture(scope="session")
def bench_db() -> Database:
    """A 4,096-record 32-byte-record database used by functional benchmarks."""
    return Database.random(4096, record_size=32, seed=1234)


@pytest.fixture(scope="session")
def bench_impir_config() -> IMPIRConfig:
    """Scaled-down IM-PIR platform for functional end-to-end benchmarks."""
    return IMPIRConfig(pim=scaled_down_config(num_dpus=8, tasklets=4))
