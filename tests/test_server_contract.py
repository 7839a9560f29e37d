"""What every registered server kind reports to the frontend, pinned exactly.

Each kind of :func:`repro.create_server` is driven through a
:class:`~repro.pir.frontend.PIRFrontend` with an
:class:`~repro.pir.frontend.AdaptiveBatchingPolicy` at two starting batch
sizes.  The test pins, as ``float.hex()``, the frontend's total simulated
makespan, the last flush's cluster utilisation and every utilisation the
policy was fed, plus SHA-256 digests over every answer's engine-written
``simulated_seconds`` and over every answer payload the client
reconstructed from.  Kinds without a Fig. 8 pipeline schedule (the
reference scan, the CPU/GPU cost models, the streamed mode) feed the policy
no utilisation at all; a refactor of the server layer must leave every value
below where it is.  The values were derived with the tests' block-at-a-time
AES oracle (``aes_oracle.OracleAESPRG``) as every party's PRG; the PIM
charges follow the selector shares' popcounts, so they are PRG outputs too.
"""

import hashlib

import pytest

from repro import AdaptiveBatchingPolicy, Database, PIRClient, PIRFrontend, create_server
from repro.dpf.prf import make_prg

NUM_RECORDS, RECORD_SIZE = 96, 16
INDICES = (5, 0, 95, 41, 41, 17, 63)

#: Every kind returns the same answer bytes: one digest for all of them.
PAYLOADS_SHA256 = "caeafd2ab93f8e7e32b2cd1143b006a6a678135df1d0ef719d3f9db7f6953750"
#: Digest of the seconds of answers that charged nothing (all ``None``).
UNTIMED = "261e7bea9359bc62d37326b63c260e600a84ea855a33c482460080653d4102c7"
ZERO = "0x0.0p+0"

#: ``(kind, batch size)`` -> ``(total makespan, last utilisation, utilisations
#: fed to the policy, digest of every answer's simulated seconds)``.
EXPECTED = {
    ("cpu", 1): ("0x1.2fed70e5bd0bfp-18", ZERO, [], UNTIMED),
    ("cpu", 3): ("0x1.048260c4eb2eep-19", ZERO, [], UNTIMED),
    ("gpu", 1): ("0x1.6f78ab2ee4bc5p-12", ZERO, [], UNTIMED),
    ("gpu", 3): ("0x1.3b8327ac0545ep-13", ZERO, [], UNTIMED),
    ("im-pir", 1): (
        "0x1.d64792a65e240p-9",
        "0x1.ff8b20bb3f950p-1",
        [
            "0x1.ff8b15b905db5p-1",
            "0x1.ff8b1b3a65128p-1",
            "0x1.ff8b15b905db5p-1",
            "0x1.ff8b15b905db5p-1",
            "0x1.ff8b1b3a65128p-1",
            "0x1.ff8b1b3a65128p-1",
            "0x1.ff8b20bb3f950p-1",
        ],
        "2c8e44939b2a146d1a1a2a5a80b612a54dedbdbc6395337665539fe48affd0b0",
    ),
    ("im-pir", 3): (
        "0x1.0e2084634938ep-9",
        "0x1.ff8b20bb3f950p-1",
        [
            "0x1.ff8cae2b12404p-1",
            "0x1.ff8be35939e0bp-1",
            "0x1.ff8b1b3a65128p-1",
            "0x1.ff8b20bb3f950p-1",
        ],
        "3dab60db93b6bdc6bd82e93d2d37174b89fcb0f2ab0a7a494a6a27c4eaa329f1",
    ),
    ("im-pir-streamed", 1): (
        "0x1.abdbd9b51d7b0p-7",
        ZERO,
        [],
        "902dcdc0b9067c8e452d06668b287d393d31f608173c79e9791ec8c050d778cc",
    ),
    ("im-pir-streamed", 3): (
        "0x1.70a1012166dc0p-8",
        ZERO,
        [],
        "46fe7531c5e55a7649fff6173a82ed14f7c0646b145685bd66b3201caa109c43",
    ),
    ("reference", 1): (ZERO, ZERO, [], UNTIMED),
    ("reference", 3): (ZERO, ZERO, [], UNTIMED),
    # The sharded kind runs the engine's pipeline schedule (all zero over
    # reference children), so the policy does see its utilisation.
    ("sharded", 1): (ZERO, ZERO, [ZERO] * 3, UNTIMED),
    ("sharded", 3): (ZERO, ZERO, [ZERO] * 2, UNTIMED),
}

KIND_OPTIONS = {"im-pir-streamed": {"segment_records": 40}}


class _FlushRecorder:
    """Frontend observer keeping every answer's engine-written seconds."""

    def __init__(self):
        self.seconds = []

    def observe_flush(self, observation):
        for key in sorted(observation.details):
            self.seconds.append((key, observation.details[key].simulated_seconds))


def _drive(kind, batch_size):
    database = Database.random(NUM_RECORDS, RECORD_SIZE, seed=23)
    client = PIRClient(NUM_RECORDS, RECORD_SIZE, seed=29, prg=make_prg())
    payloads = []
    reconstruct = client.reconstruct

    def recording_reconstruct(shares):
        # A flush's paired (server, request, byte) matrix: every request's
        # answers, in server order, request by request.
        payloads.append(shares.transpose(1, 0, 2).tobytes())
        return reconstruct(shares)

    client.reconstruct = recording_reconstruct
    replicas = [
        create_server(kind, database, server_id=i, **KIND_OPTIONS.get(kind, {}))
        for i in (0, 1)
    ]
    policy = AdaptiveBatchingPolicy(
        initial_batch_size=batch_size, max_wait_seconds=10.0, max_batch_size_limit=8
    )
    recorder = _FlushRecorder()
    frontend = PIRFrontend(client, replicas, policy=policy, observers=[recorder])
    records = frontend.retrieve_batch(list(INDICES))
    assert records == [database.record(index) for index in INDICES]

    seconds = "".join(
        f"{key}:{None if value is None else float(value).hex()};"
        for key, value in recorder.seconds
    )
    assert hashlib.sha256(b"".join(payloads)).hexdigest() == PAYLOADS_SHA256
    metrics = frontend.metrics
    return (
        float(metrics.total_makespan_seconds).hex(),
        float(metrics.last_cluster_utilization).hex(),
        [float(value).hex() for value, _ in policy.history],
        hashlib.sha256(seconds.encode()).hexdigest(),
    )


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize(
    "kind", ["cpu", "gpu", "im-pir", "im-pir-streamed", "reference", "sharded"]
)
def test_server_reports_are_pinned(kind, batch_size):
    assert _drive(kind, batch_size) == EXPECTED[(kind, batch_size)]


def test_every_registered_kind_is_pinned():
    from repro import available_backends

    assert {kind for kind, _ in EXPECTED} == set(available_backends())
