"""Deterministic work counts: no per-key Python is left in the DPF.

Wall-clock gains on a shared 2-vCPU host drown in noise; call counts do not.
One :meth:`DPF.gen_many` plus one :meth:`DPF.eval_full_bits_many` of its keys
at the ``eval_bound`` benchmark's shape (65 536 records, so 9 expanded
levels) run under the stdlib profiler, and the number of Python-level calls
landing in ``repro/dpf`` must not depend on the batch size: every level,
correction and key batch is one call whether it carries 8 queries or 32.  A
per-key loop (cutting the batch into key objects, stacking per-key rows per
level) makes the count grow with ``B``.
"""

import cProfile
import pstats
from pathlib import Path

import numpy as np

import repro.dpf
from repro.dpf.dpf import DPF

_RECORDS = 1 << 16
_PACKAGE = str(Path(repro.dpf.__file__).parent)


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
