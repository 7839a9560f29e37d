"""Golden bytes: the DPF construction can never drift silently.

The digests below were recorded from the tuple-of-objects key representation
that predates the array keys and the fused level kernel, and every later
representation must reproduce them: SHA-256 over the serialized key pairs of
seeded :meth:`DPF.gen_many` calls at every ``domain_bits`` 0…20, three output
widths and four batch sizes, and over the ``eval_full_bits_many`` selector
bytes of the one-bit keys (evaluated to a point count off the 128-point
block grid, so truncation is pinned too).  A change that moves any key byte,
PRG output or selector bit fails here, whatever else still reconstructs.
"""

import hashlib

import numpy as np
import pytest

from repro.dpf.dpf import DPF
from repro.pir.serialization import serialize_key

_COUNTS = (1, 2, 7, 16)
_BETAS = {1: 1, 8: 0xA5, 64: (1 << 64) - 1}

_KEY_DIGESTS = {
    1: "24f145b12578198f9940a3d9f395c2b00853a00ee326c111b54079afbb18546d",
    8: "ef521e84c2c220f9b151c874146fc3797ebf4665e493b50f6e891f46825c6d5b",
    64: "8294577ba5b4c1963dbc9ac1ae2b9f2915f6ee79413a168e44dcd3a161e42e1b",
}
_SELECTOR_DIGEST = "d88e6615478a9696a204ecbc0d6e5a6adc6184f63097700b524a3015d45bf2c5"


def _batches(output_bits):
    """``(dpf, pairs)`` per domain size and batch size, seeded per shape."""
    for domain_bits in range(21):
        for count in _COUNTS:
            dpf = DPF(domain_bits, output_bits, seed=100 * domain_bits + count)
            alphas = np.random.default_rng([domain_bits, count]).integers(
                0, dpf.domain_size, size=count
            )
            yield dpf, dpf.gen_many(alphas.tolist(), _BETAS[output_bits])


@pytest.mark.parametrize("output_bits", sorted(_KEY_DIGESTS))
def test_serialized_key_pairs_match_the_recorded_digest(output_bits):
    digest = hashlib.sha256()
    for _, pairs in _batches(output_bits):
        for pair in pairs:
            for key in pair:
                digest.update(serialize_key(key))
    assert digest.hexdigest() == _KEY_DIGESTS[output_bits]


def test_selector_bytes_match_the_recorded_digest():
    digest = hashlib.sha256()
    for dpf, pairs in _batches(1):
        keys = [key for pair in pairs for key in pair]
        num_points = dpf.domain_size - dpf.domain_size // 3
        digest.update(dpf.eval_full_bits_many(keys, num_points).tobytes())
    assert digest.hexdigest() == _SELECTOR_DIGEST
