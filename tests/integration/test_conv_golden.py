"""Golden digests for a short convolutional training session.

The scenario golden traces all train ``model="logistic"``, so none of them
runs a convolution or a pooling layer.  This suite pins ``mnist_cnn`` end to
end: a 3-round ssmw session on the serial and the threaded executor must end
on byte-identical parameters, and one worker gradient computed at those
parameters must be byte-identical too.  The digests are SHA-256 over the raw
float64 bytes; any change to the conv/pool kernels that alters a single bit
of rounding shows here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.session import SessionBuilder

ROUNDS = 3
PARAMETERS_SHA256 = "80d7b8ae61909a36055452588861c3b8399299e6f2e1b3e7a4afd32a31680197"
GRADIENT_SHA256 = "ac233aff481cf342bbf8899436a293bc7650aa9a47bc19b9c69a591b43976419"


def sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


@pytest.mark.parametrize("executor", ["serial", "threaded"])
def test_mnist_cnn_session_matches_golden_digests(executor):
    session = SessionBuilder(
        deployment="ssmw",
        model="mnist_cnn",
        num_workers=4,
        num_byzantine_workers=1,
        gradient_gar="median",
        executor=executor,
        batch_size=8,
        num_iterations=ROUNDS,
        accuracy_every=ROUNDS,
        seed=7,
    ).build()
    try:
        for _ in range(ROUNDS):
            session.step()
        flat = session.reporting_server.flat_parameters()
        gradient = session.deployment.workers[0].compute_gradient(flat)
    finally:
        session.close()
    assert sha256(flat) == PARAMETERS_SHA256
    assert sha256(gradient) == GRADIENT_SHA256
