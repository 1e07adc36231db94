"""The benchmark's four workloads and the rules that size a run.

Each workload is a full ``ClusterConfig`` minus the seed and the round count:
the seed comes from ``--seed`` and is passed only as ``ClusterConfig.seed``;
the round count comes from ``--seconds`` through :meth:`Workload.rounds`, so
one workload, seed and length always run the same rounds and end on the same
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from perfbench.spans import min_samples_for

#: Rounds run before timing starts: the first round pays lazy allocation,
#: and on ``ssmw_guarded`` the attackers are evicted by about round 3.
WARMUP_ROUNDS = 4
#: Timed rounds needed so that ten samples lie beyond the reported p90.
MIN_TIMED_ROUNDS = min_samples_for(90, beyond=10)
#: ``SessionBuilder.build()`` repeats per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Rounds each repeated set-up runs before its parameters are compared with
#: the measured session's at the same round.
REPEAT_CHECK_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Mapping[str, Any]
    #: Timed rounds per second of ``--seconds``, calibrated on a 2-vCPU
    #: x86-64 VM; it fixes the round count, so a faster program finishes the
    #: same rounds sooner.
    rounds_per_second: float

    def rounds(self, seconds: float) -> int:
        """Timed rounds for a run of ``seconds``."""
        return max(MIN_TIMED_ROUNDS, int(round(seconds * self.rounds_per_second)))

    def cluster_config(self, seed: int, total_rounds: int) -> Dict[str, Any]:
        """``ClusterConfig`` fields: evaluation only at the first and last round."""
        return dict(
            self.config,
            seed=seed,
            num_iterations=total_rounds,
            accuracy_every=total_rounds,
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="ssmw_cnn",
            why=(
                "ROADMAP baseline shape (ssmw mnist_cnn, 16 workers, multi-krum, serial): "
                "worker conv forward/backward dominate a round, so nn kernels show here"
            ),
            config=dict(
                deployment="ssmw",
                model="mnist_cnn",
                num_workers=16,
                num_byzantine_workers=3,
                gradient_gar="multi-krum",
                executor="serial",
                # Batch 8 (default 16) keeps 100+ timed rounds inside one run.
                batch_size=8,
            ),
            rounds_per_second=4.0,
        ),
        Workload(
            name="msmw_cnn_threaded",
            why=(
                "msmw mnist_cnn on the threaded executor: the only parallel compute, "
                "BLAS oversubscription, the unsharded gradient phase and model exchange"
            ),
            config=dict(
                deployment="msmw",
                model="mnist_cnn",
                num_workers=10,
                num_byzantine_workers=2,
                num_servers=4,
                num_byzantine_servers=1,
                gradient_gar="multi-krum",
                model_gar="median",
                executor="threaded",
                executor_workers=2,
                batch_size=8,
            ),
            rounds_per_second=4.0,
        ),
        Workload(
            name="msmw_wire_process",
            why=(
                "msmw logistic on the process backend with int8 wire and 2 shards: "
                "rpc, codec, sharded bulyan and host spawn carry the round; no conv"
            ),
            config=dict(
                deployment="msmw",
                model="logistic",
                num_workers=7,
                num_byzantine_workers=1,
                num_attacking_workers=1,
                worker_attack="little-is-enough",
                num_servers=3,
                num_byzantine_servers=1,
                num_attacking_servers=1,
                gradient_gar="bulyan",
                model_gar="median",
                executor="process",
                executor_workers=2,
                wire_format="int8",
                shards=2,
            ),
            # About half of --seconds: its three set-ups spawn ten node
            # hosts each (~8 s apiece), and its round times are steady.
            rounds_per_second=25.0,
        ),
        Workload(
            name="ssmw_guarded",
            why=(
                "async ssmw logistic with 3 reversed attackers, distance detector, "
                "hedged pulls and 2 stragglers: the only detection and hedge path"
            ),
            config=dict(
                deployment="ssmw",
                model="logistic",
                num_workers=16,
                num_byzantine_workers=3,
                num_attacking_workers=3,
                worker_attack="reversed",
                gradient_gar="multi-krum",
                asynchronous=True,
                detector="distance",
                resilience={"hedge": True},
                straggler_factors={"worker-0": 4.0, "worker-1": 3.0},
                executor="serial",
            ),
            # Rounds of ~7 ms: a 25 s window, so the median spans several of
            # the slow and fast CPU phases a shared 2-vCPU VM goes through.
            rounds_per_second=175.0,
        ),
    )
}
