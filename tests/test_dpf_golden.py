"""Golden bytes: the DPF construction can never drift silently.

The digests below are SHA-256 over the key pairs of seeded
:meth:`DPF.gen_many` calls at every ``domain_bits`` 0…20, three output widths
and four batch sizes, and over the ``eval_full_bits_many`` selector bytes of
the one-bit keys (evaluated to a point count off the 128-point block grid, so
truncation is pinned too).  The per-width key digests read each key's arrays
in one fixed row order, the version-2 wire layout (header, root, per level
the 16-byte seed correction then one byte per control-bit correction, final
block), built here so they pin the construction whatever the wire format;
one more digest pins the current (version-3) wire encoding of the same keys.
They were computed by the same calls on DPFs built over the tests'
block-at-a-time pure-Python AES (``aes_oracle.OracleAESPRG``), never recorded
from the OpenSSL path they pin.  A change that moves any key byte, PRG output
or selector bit fails here, whatever else still reconstructs.
"""

import hashlib

import numpy as np
import pytest

from repro.dpf.dpf import DPF, KEY_HEADER
from repro.pir.serialization import serialize_key

_COUNTS = (1, 2, 7, 16)
_BETAS = {1: 1, 8: 0xA5, 64: (1 << 64) - 1}

_KEY_DIGESTS = {
    1: "4eef7726d9a9ee0056df81ceb5ec1afcd2f085f3c567e5bfb4e5a534db23478c",
    8: "73a939ce0a59fbf5ecb3bca42a0fd105ba8ba39b2c201d5e4478f219004a6153",
    64: "c7c6062a0db590ed952586cd568e17f3a1b9c405e11c9bda52fa6ac9d80e3d74",
}
_WIRE_DIGEST = "99afca2c95f2a6d632746b1bbd3228dc5406132aa1963a2d07a6a296ebd32518"
_SELECTOR_DIGEST = "3bd2fbc1459e4918e7a0a1603666f276986423a241a7cb544a000232ac08fd19"


def _batches(output_bits):
    """``(dpf, pairs)`` per domain size and batch size, seeded per shape."""
    for domain_bits in range(21):
        for count in _COUNTS:
            dpf = DPF(domain_bits, output_bits, seed=100 * domain_bits + count)
            alphas = np.random.default_rng([domain_bits, count]).integers(
                0, dpf.domain_size, size=count
            )
            yield dpf, dpf.gen_many(alphas.tolist(), _BETAS[output_bits])


def _key_rows(key):
    """``key``'s arrays in the version-2 wire row order."""
    batch, row = key.batch, key.row
    words = np.concatenate((batch.cw_seeds[row], batch.cw_bits[row]), axis=1)
    header = KEY_HEADER.pack(b"DK", 2, key.party, key.domain_bits, key.output_bits)
    return header + batch.roots[row].tobytes() + words.tobytes() + batch.finals[row].tobytes()


@pytest.mark.parametrize("output_bits", sorted(_KEY_DIGESTS))
def test_serialized_key_pairs_match_the_recorded_digest(output_bits):
    digest = hashlib.sha256()
    for _, pairs in _batches(output_bits):
        for pair in pairs:
            for key in pair:
                digest.update(_key_rows(key))
    assert digest.hexdigest() == _KEY_DIGESTS[output_bits]


def test_serialized_keys_match_the_recorded_wire_digest():
    digest = hashlib.sha256()
    for output_bits in sorted(_KEY_DIGESTS):
        for _, pairs in _batches(output_bits):
            for pair in pairs:
                for key in pair:
                    digest.update(serialize_key(key))
    assert digest.hexdigest() == _WIRE_DIGEST


def test_selector_bytes_match_the_recorded_digest():
    digest = hashlib.sha256()
    for dpf, pairs in _batches(1):
        keys = [key for pair in pairs for key in pair]
        num_points = dpf.domain_size - dpf.domain_size // 3
        digest.update(dpf.eval_full_bits_many(keys, num_points).tobytes())
    assert digest.hexdigest() == _SELECTOR_DIGEST
