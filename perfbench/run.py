#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ssmw_cnn --seed 1 --seconds 10 --trace 0

The load is a closed loop: this one driver process runs the workload's rounds
back to back, each ``Session.step()`` starting when the previous one returns.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
rounds twice, untraced then with every layer wrapped (:mod:`perfbench.layers`),
and reports per-layer metrics.  Every round is checked; the last line of
standard output is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``.  BLAS/OpenMP thread variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.spans import (  # noqa: E402
    RoundLedger,
    Tracer,
    block_percentile,
    envelope,
    median,
    parse_envelope,
    tail_percentile,
)
from perfbench.workloads import (  # noqa: E402
    REPEAT_CHECK_ROUNDS,
    SETUP_REPEATS,
    WARMUP_ROUNDS,
    WORKLOADS,
    Workload,
)

#: End-to-end metrics reported by ``--trace 0``, with their units.  The final
#: test loss and the failed-round ratio are printed and checked but left out
#: of the result: the loss of a converged ``mnist_cnn`` spreads by a factor
#: of five across seeds, and the ratio is zero on every healthy run (the
#: result's ``attempted``/``failed`` carry it).  The round-time percentiles
#: are block means (:func:`perfbench.spans.block_percentile`).
END_TO_END_UNITS = {
    "updates_per_s": "1/s",
    "round_ms_p50": "ms",
    "round_ms_p90": "ms",
    "setup_s": "s",
    "final_test_accuracy": "fraction",
    "peak_rss_mb": "MB",
}
#: Per-layer metric units reported by ``--trace 1``; ``_ms`` names are ms.
LAYER_UNITS = {
    "nn.gradients": "count",
    "aggregators.gar_calls": "count",
    "detection.evictions": "count",
    "detection.attacker_eviction_ratio": "fraction",
    "core.pool_busy_ratio": "fraction",
    "network.bytes": "bytes",
    "network.messages": "count",
    "network.hedges": "count",
    "network.retries": "count",
    "network.rpc_calls": "count",
    "cost.modeled_updates_per_s": "1/s",
    "trace.coverage_ratio": "fraction",
    "trace.overhead_ratio": "ratio",
}
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "ms" if name.endswith("_ms") else "count")


# ---------------------------------------------------------------------- #
# Environment
# ---------------------------------------------------------------------- #
def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def blas_build(np) -> str:
    try:
        with redirect_stdout(io.StringIO()):
            config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}".strip()
    except (TypeError, KeyError, ValueError):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            np.show_config()
        return " ".join(buffer.getvalue().split())[:400]


def environment(np) -> Dict[str, object]:
    env: Dict[str, object] = {
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(np),
    }
    for name in THREAD_VARIABLES:
        env[name] = os.environ.get(name, "unset")
    return env


# ---------------------------------------------------------------------- #
# Driving rounds
# ---------------------------------------------------------------------- #
class QuorumRule:
    """The quorum every round must report: the configured one, shrinking by
    one per worker the detector has evicted (and growing per re-admission)."""

    def __init__(self, config) -> None:
        self.configured = config.gradient_quorum()
        self.evicted = 0

    @property
    def expected(self) -> int:
        return max(1, self.configured - self.evicted)

    def observe(self, result) -> None:
        for event in (result.detection or {}).get("events", ()):
            if event.get("action") == "evict":
                self.evicted += 1
            elif event.get("action") == "readmit":
                self.evicted -= 1


def round_problems(result, expected_quorum: int) -> List[str]:
    problems = []
    if result is None:
        return ["session finished early"]
    if result.quorum != expected_quorum:
        problems.append(f"quorum {result.quorum} != expected {expected_quorum}")
    if result.diverged:
        problems.append("diverged")
    if result.update_norm is None or not math.isfinite(result.update_norm):
        problems.append(f"update norm {result.update_norm}")
    return problems


def digest(server) -> str:
    import numpy as np

    flat = np.ascontiguousarray(server.flat_parameters(), dtype=np.float64)
    return hashlib.sha256(flat.tobytes()).hexdigest()[:16]


def drive(
    session,
    ledger: RoundLedger,
    label: str,
    rounds: int,
    after_round: Optional[Callable[[int, object, object], None]] = None,
    tracer: Optional[Tracer] = None,
) -> List[Tuple[int, int]]:
    """Run ``rounds`` closed-loop steps, checking each; return ``(start, end)`` ns.

    A round that raises is counted as failed and ends the run: the session's
    state is no longer trustworthy.
    """
    quorum = QuorumRule(session.config)
    times: List[Tuple[int, int]] = []
    for index in range(rounds):
        span = None
        if tracer is not None:
            tracer.begin_round(index)
            span = tracer.open("core.session")
        start = time.perf_counter_ns()
        try:
            result = session.step()
        except Exception as exc:  # a failed round is a measured outcome
            if span is not None:
                tracer.close(span)
            ledger.attempt((label, index), [f"raised {type(exc).__name__}: {exc}"])
            break
        end = time.perf_counter_ns()
        if span is not None:
            tracer.close(span)
        times.append((start, end))
        ledger.attempt((label, index), round_problems(result, quorum.expected))
        if result is None:
            break
        quorum.observe(result)
        if after_round is not None:
            after_round(index, result, span)
    if tracer is not None:
        tracer.end_rounds()
    return times


def build(fields: Dict[str, object]):
    from repro.core.session import SessionBuilder

    start = time.perf_counter()
    session = SessionBuilder(**fields).build()
    return session, time.perf_counter() - start


def check_final(ledger: RoundLedger, key, loss0: float, loss: float) -> None:
    if not math.isfinite(loss):
        ledger.fail(key, f"final test loss {loss} is not finite")
    elif not loss < loss0:
        ledger.fail(key, f"final test loss {loss:.6g} not below round-0 loss {loss0:.6g}")


def timed_rate(times: Sequence[Tuple[int, int]], warmup: int) -> Tuple[List[float], float]:
    """Timed round durations (ms) and updates per second over the timed rounds."""
    timed = times[warmup:]
    if not timed:
        return [], 0.0
    durations = [(end - start) / 1e6 for start, end in timed]
    wall_s = (timed[-1][1] - timed[0][0]) / 1e9
    return durations, len(timed) / wall_s


# ---------------------------------------------------------------------- #
# The untraced run: end-to-end metrics
# ---------------------------------------------------------------------- #
def end_to_end(workload: Workload, seed: int, seconds: float, ledger: RoundLedger):
    timed_rounds = workload.rounds(seconds)
    total = WARMUP_ROUNDS + timed_rounds
    fields = workload.cluster_config(seed, total)
    setups: List[float] = []
    checkpoints: Dict[int, str] = {}
    session, setup = build(fields)
    setups.append(setup)

    def remember(index, result, span):
        if index == REPEAT_CHECK_ROUNDS - 1:
            checkpoints[index] = digest(session.reporting_server)

    try:
        loss0 = session.reporting_server.compute_loss()
        times = drive(session, ledger, "measured", total, after_round=remember)
        server = session.reporting_server
        loss, accuracy = server.compute_loss(), server.compute_accuracy()
        final_digest = digest(server)
        check_final(ledger, ("measured", len(times) - 1), loss0, loss)
        records = session.deployment.metrics.records[WARMUP_ROUNDS:]
        modeled_updates = session.result().throughput
    finally:
        session.close()

    for repeat in range(1, SETUP_REPEATS):
        repeated, setup = build(fields)
        setups.append(setup)
        label = f"repeat-{repeat}"
        try:
            done = drive(repeated, ledger, label, REPEAT_CHECK_ROUNDS)
            if len(done) == REPEAT_CHECK_ROUNDS:
                seen = digest(repeated.reporting_server)
                expected = checkpoints.get(REPEAT_CHECK_ROUNDS - 1)
                if seen != expected:
                    ledger.fail(
                        (label, REPEAT_CHECK_ROUNDS - 1),
                        f"parameters after round {REPEAT_CHECK_ROUNDS - 1} digest {seen} "
                        f"!= measured session's {expected}",
                    )
        finally:
            repeated.close()

    durations, updates_per_s = timed_rate(times, WARMUP_ROUNDS)
    complete = len(durations) >= timed_rounds
    p50, p50_blocks = block_percentile(durations, 50) if complete else (0.0, 0)
    p90, p90_blocks = block_percentile(durations, 90) if complete else (0.0, 0)
    metrics: Dict[str, float] = {
        "updates_per_s": updates_per_s,
        "round_ms_p50": p50,
        "round_ms_p90": p90,
        "setup_s": median(setups),
        "final_test_accuracy": accuracy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    count = max(1, len(records))
    modeled = {
        "updates_per_s": modeled_updates,
        "compute_ms": 1e3 * sum(r.compute_time for r in records) / count,
        "comm_ms": 1e3 * sum(r.communication_time for r in records) / count,
        "aggregation_ms": 1e3 * sum(r.aggregation_time for r in records) / count,
    }
    pooled = "pooled over {} rounds: {:.4f} ms"
    notes = {
        "round_ms_p50": f"mean over {p50_blocks} blocks of 20+ consecutive rounds; "
        + (pooled.format(len(durations), median(durations)) if complete else "run incomplete"),
        "round_ms_p90": f"mean over {p90_blocks} blocks of 100+ consecutive rounds, 10+ beyond each; "
        + (pooled.format(len(durations), tail_percentile(durations, 90)) if complete else "run incomplete"),
        "setup_s": "median of {} set-ups: {}".format(len(setups), ", ".join(f"{s:.4f}" for s in setups)),
        "peak_rss_mb": "driver process ru_maxrss; node-host subprocesses excluded",
        "updates_per_s": f"modeled {modeled['updates_per_s']:.4f} 1/s (cost model, not a clock reading)",
    }
    notes["final_test_loss"] = f"{loss:.6f} nats after the last round (round-0 loss {loss0:.6g})"
    return metrics, notes, modeled, final_digest


# ---------------------------------------------------------------------- #
# The traced run: per-layer metrics
# ---------------------------------------------------------------------- #
def traced_rounds(workload: Workload, seconds: float) -> int:
    """A quarter of the untraced length, twice over (untraced, then traced)."""
    return max(20, workload.rounds(seconds) // 4)


def per_layer(workload: Workload, seed: int, seconds: float, ledger: RoundLedger):
    from perfbench import layers
    from repro.core.byzantine import ByzantineWorker

    total = WARMUP_ROUNDS + traced_rounds(workload, seconds)
    fields = workload.cluster_config(seed, total)

    session, _ = build(fields)
    try:
        times = drive(session, ledger, "untraced", total)
        untraced_digest = digest(session.reporting_server)
    finally:
        session.close()
    _, untraced_rate = timed_rate(times, WARMUP_ROUNDS)

    tracer = Tracer()
    rounds: List[layers.RoundTrace] = []
    patches = layers.install(tracer)
    try:
        session, _ = build(fields)
        try:
            stats = session.deployment.transport.stats
            previous = _counters(stats)

            def keep(index, result, span):
                nonlocal previous
                now = _counters(stats)
                delta = [after - before for before, after in zip(previous, now)]
                previous = now
                rounds.append(layers.RoundTrace(index, span, *delta, result))

            loss0 = session.reporting_server.compute_loss()
            times = drive(session, ledger, "traced", total, after_round=keep, tracer=tracer)
            server = session.reporting_server
            check_final(ledger, ("traced", len(times) - 1), loss0, server.compute_loss())
            traced_digest = digest(server)
            if traced_digest != untraced_digest:
                ledger.fail(
                    ("traced", len(times) - 1),
                    f"traced final digest {traced_digest} != untraced {untraced_digest}",
                )
            attackers = [
                w.node_id for w in session.deployment.workers if isinstance(w, ByzantineWorker)
            ]
            modeled_updates = session.result().throughput
            executor_workers = (
                session.config.executor_workers if session.config.executor != "serial" else 0
            )
        finally:
            session.close()
    finally:
        patches.uninstall()

    for problem in layers.coverage_problems(workload.name, patches.calls):
        ledger.fail(("traced", len(times) - 1), problem)
    _, traced_rate = timed_rate(times, WARMUP_ROUNDS)
    metrics = layers.layer_metrics(
        tracer,
        rounds,
        warmup=WARMUP_ROUNDS,
        executor_workers=executor_workers,
        attackers=attackers,
        modeled_updates_per_s=modeled_updates,
    )
    metrics["trace.overhead_ratio"] = traced_rate / untraced_rate if untraced_rate else 0.0
    breakdown = layers.self_time_breakdown(tracer, rounds, WARMUP_ROUNDS)
    membership = layers.membership_events(rounds)
    return metrics, breakdown, membership, patches.calls


def _counters(stats) -> List[int]:
    return [stats.bytes_sent, stats.messages_sent, stats.hedges_issued, stats.retries_issued]


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Unwind on SIGTERM too, so open sessions close and reap their node hosts.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Node hosts of the process backend keep their specs and logs in a
    # temporary directory; keep it inside the checkout.
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    try:
        return _run(args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


def _run(args: argparse.Namespace) -> int:
    import numpy as np

    import repro.apps  # noqa: F401  (imports stay out of setup_s)
    import repro.detection  # noqa: F401
    import repro.network.rpc  # noqa: F401
    import repro.sharding  # noqa: F401

    workload = WORKLOADS[args.workload]
    ledger = RoundLedger()
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
        "closed loop, one driver process, rounds back to back"
    )
    print(f"  why: {workload.why}")
    print("environment " + json.dumps(environment(np), sort_keys=True))
    if args.trace == 0:
        metrics, notes, modeled, final_digest = end_to_end(workload, args.seed, args.seconds, ledger)
        units = END_TO_END_UNITS
        for name, value in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name:<22} {value:>14.6f} {units[name]}{note}")
        print(f"  {'final_test_loss':<22} {notes['final_test_loss']}")
        print(
            f"  {'failed_round_ratio':<22} {ledger.ratio:>14.6f} fraction  "
            f"({ledger.failed} of {ledger.attempted} rounds failed a check)"
        )
        print(
            "  modeled (cost model, not measured) per round: "
            f"compute {modeled['compute_ms']:.4f} ms, comm {modeled['comm_ms']:.4f} ms, "
            f"aggregation {modeled['aggregation_ms']:.4f} ms; measured round_ms_p50 "
            f"{metrics['round_ms_p50']:.4f} ms"
        )
        print(f"  final parameter digest {final_digest}")
    else:
        metrics, breakdown, membership, calls = per_layer(
            workload, args.seed, args.seconds, ledger
        )
        units = {name: layer_unit(name) for name in metrics}
        for name, value in metrics.items():
            label = "  [modeled]" if name.startswith("cost.") else ""
            print(f"  {name:<34} {value:>14.6f} {units[name]}{label}")
        print(
            "  modeled vs measured per round: compute "
            f"{metrics['cost.modeled_compute_ms']:.4f} ms modeled vs nn.gradient "
            f"{metrics['nn.gradient_ms']:.4f} ms measured per gradient; comm "
            f"{metrics['cost.modeled_comm_ms']:.4f} ms modeled vs pull self "
            f"{metrics['core.gradient_pull_ms'] + metrics['core.model_pull_ms']:.4f} ms measured; "
            f"aggregation {metrics['cost.modeled_aggregation_ms']:.4f} ms modeled vs gar+sharding+"
            "detection "
            f"{metrics['aggregators.gar_ms'] + metrics['sharding.aggregate_ms'] + metrics['detection.score_ms']:.4f}"
            " ms measured"
        )
        print(
            f"  detector: {len(membership['evicted'])} workers evicted "
            f"({membership['evict']} evict and {membership['readmit']} re-admit events)"
        )
        print("  self time share of round wall (pool threads overlap):")
        for name, share in breakdown:
            print(f"    {name:<22} {share:8.2%}")
        print("  wrapper calls: " + json.dumps(dict(sorted(calls.items()))))
    print(
        f"  rounds attempted {ledger.attempted}, failed {ledger.failed} "
        f"(failed_round_ratio {ledger.ratio:.6f})"
    )
    for line in ledger.lines():
        print(f"  FAILED {line}", file=sys.stderr)
    correct = ledger.failed == 0
    result = envelope(
        correct,
        max(1, ledger.attempted),
        ledger.failed,
        {name: (value, units[name]) for name, value in metrics.items()},
    )
    parse_envelope(result)
    print(result)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
