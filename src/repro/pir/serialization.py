"""Wire serialization for keys, queries and answers.

In a real deployment the client and the two servers are separate processes on
separate machines; everything they exchange must cross a network.  This module
defines a compact, versioned binary encoding for the protocol messages:

* DPF keys (wire version 3; the early-terminated construction of
  :mod:`repro.dpf.dpf`), read from and decoded into one row of a
  :class:`~repro.dpf.dpf.DPFKeys` batch.  A key of ``d`` expanded levels is
  ``38 + 16 * d + ceil(d / 4)`` bytes::

      6   header: magic "DK", version, party, domain_bits, output_bits
      16  root seed
      16d seed corrections, one per level, root first
      ⌈d/4⌉  the 2d (left, right) control-bit corrections, level order,
          packed little-endian into bits (zero padding)
      16  final correction block

  Version 2 spent one byte per control-bit correction (``38 + 18 * d``);
  its blobs, like version 1's, are rejected: keys are per-request and never
  persisted;
* DPF queries — header (magic, version, server id, u64 query id, u64
  record count) plus the key;
* answers — header (magic, version, server id, u64 query id, simulated
  nanoseconds, payload length) plus the XOR sub-result.

The format is deliberately simple (fixed little-endian headers, no external
dependencies) and round-trip tested; it also gives the communication numbers
reported by the examples a concrete byte layout rather than an estimate.
"""

from __future__ import annotations

import struct
from typing import Tuple

import numpy as np

from repro.common.errors import ProtocolError
from repro.dpf.dpf import (
    KEY_HEADER,
    MAX_OUTPUT_BITS,
    DPFKey,
    DPFKeys,
    key_wire_bytes,
    pack_control_corrections,
    tree_depth,
    unpack_control_corrections,
)
from repro.dpf.prf import SEED_BYTES
from repro.pir.messages import DPFQuery, PIRAnswer

#: Format-version byte embedded in every message.
WIRE_VERSION = 3

_MAGIC_KEY = b"DK"
_MAGIC_DPF_QUERY = b"DQ"
_MAGIC_ANSWER = b"PA"

_QUERY_HEADER = struct.Struct("<2sBBQQ")      # magic, version, server_id, query_id, num_records
_ANSWER_HEADER = struct.Struct("<2sBBQQI")    # magic, version, server_id, query_id, sim_ns, payload_len


def _require_version(version: int) -> None:
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported wire version {version}, expected version {WIRE_VERSION}"
        )


# ---------------------------------------------------------------------------
# DPF keys
# ---------------------------------------------------------------------------


def serialize_key(key: DPFKey) -> bytes:
    """Encode a DPF key into its wire representation (``key.size_bytes`` bytes)."""
    keys, row = key.batch, key.row
    header = KEY_HEADER.pack(_MAGIC_KEY, WIRE_VERSION, key.party, key.domain_bits, key.output_bits)
    return b"".join(
        (
            header,
            keys.roots[row].tobytes(),
            keys.cw_seeds[row].tobytes(),
            pack_control_corrections(keys.cw_bits[row]).tobytes(),
            keys.finals[row].tobytes(),
        )
    )


def deserialize_key(blob: bytes) -> DPFKey:
    """Decode a DPF key from its wire representation."""
    if len(blob) < KEY_HEADER.size:
        raise ProtocolError("DPF key blob is truncated")
    magic, version, party, domain_bits, output_bits = KEY_HEADER.unpack_from(blob)
    if magic != _MAGIC_KEY:
        raise ProtocolError(f"not a DPF key blob (magic {magic!r})")
    _require_version(version)
    if not 1 <= output_bits <= MAX_OUTPUT_BITS:
        raise ProtocolError(
            f"DPF key has output_bits={output_bits}, expected 1..{MAX_OUTPUT_BITS}"
        )
    levels = tree_depth(domain_bits, output_bits)
    expected = key_wire_bytes(levels)
    if len(blob) != expected:
        raise ProtocolError(
            f"DPF key blob has {len(blob)} bytes, expected {expected}: {levels} "
            f"correction words for a {domain_bits}-bit domain with {output_bits}-bit outputs"
        )
    body = np.frombuffer(blob, dtype=np.uint8, offset=KEY_HEADER.size)[None]
    bits_start = SEED_BYTES + levels * SEED_BYTES
    packed = body[:, bits_start:-SEED_BYTES]
    cw_bits = unpack_control_corrections(packed, levels)
    if not np.array_equal(pack_control_corrections(cw_bits), packed):
        raise ProtocolError("DPF key has control-bit padding set past its last level")
    keys = DPFKeys(
        domain_bits,
        output_bits,
        roots=body[:, :SEED_BYTES],
        parties=np.asarray([party], dtype=np.uint8),
        cw_seeds=body[:, SEED_BYTES:bits_start].reshape(1, levels, SEED_BYTES),
        cw_bits=cw_bits,
        finals=body[:, -SEED_BYTES:],
    )
    return keys[0]


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def serialize_query(query: DPFQuery) -> bytes:
    """Encode a DPF query into its wire representation."""
    header = _QUERY_HEADER.pack(
        _MAGIC_DPF_QUERY, WIRE_VERSION, query.server_id, query.query_id, query.num_records
    )
    return header + serialize_key(query.key)


def deserialize_query(blob: bytes) -> DPFQuery:
    """Decode a query from its wire representation."""
    if len(blob) < _QUERY_HEADER.size:
        raise ProtocolError("query blob is truncated")
    magic, version, server_id, query_id, num_records = _QUERY_HEADER.unpack_from(blob)
    _require_version(version)
    if magic != _MAGIC_DPF_QUERY:
        raise ProtocolError(f"unknown query magic {magic!r}")
    key = deserialize_key(blob[_QUERY_HEADER.size:])
    return DPFQuery(query_id=query_id, server_id=server_id, key=key, num_records=num_records)


# ---------------------------------------------------------------------------
# Answers
# ---------------------------------------------------------------------------


def serialize_answer(answer: PIRAnswer) -> bytes:
    """Encode a server answer into its wire representation."""
    simulated_ns = int(round((answer.simulated_seconds or 0.0) * 1e9))
    header = _ANSWER_HEADER.pack(
        _MAGIC_ANSWER,
        WIRE_VERSION,
        answer.server_id,
        answer.query_id,
        simulated_ns,
        len(answer.payload),
    )
    return header + answer.payload


def deserialize_answer(blob: bytes) -> PIRAnswer:
    """Decode a server answer from its wire representation."""
    if len(blob) < _ANSWER_HEADER.size:
        raise ProtocolError("answer blob is truncated")
    magic, version, server_id, query_id, simulated_ns, payload_len = _ANSWER_HEADER.unpack_from(blob)
    if magic != _MAGIC_ANSWER:
        raise ProtocolError(f"not an answer blob (magic {magic!r})")
    _require_version(version)
    payload = blob[_ANSWER_HEADER.size:]
    if len(payload) != payload_len:
        raise ProtocolError(f"answer payload has {len(payload)} bytes, header says {payload_len}")
    simulated_seconds = simulated_ns / 1e9 if simulated_ns else None
    return PIRAnswer(
        query_id=query_id,
        server_id=server_id,
        payload=payload,
        simulated_seconds=simulated_seconds,
    )


def wire_sizes(query: DPFQuery, answer: PIRAnswer) -> Tuple[int, int]:
    """Serialized sizes of a (query, answer) pair — the real wire cost."""
    return len(serialize_query(query)), len(serialize_answer(answer))
