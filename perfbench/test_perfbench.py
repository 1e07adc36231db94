"""Tests of the benchmark's own arithmetic and tracing plumbing."""

from __future__ import annotations

import json
import threading
from collections import Counter
from types import SimpleNamespace

import pytest

from perfbench import layers
from perfbench.spans import (
    RoundLedger,
    Span,
    block_percentile,
    Tracer,
    children_of,
    envelope,
    min_samples_for,
    nearest_rank,
    parse_envelope,
    self_time,
    tail_percentile,
    union_length,
)


class ManualClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def run_on_thread(function) -> None:
    thread = threading.Thread(target=function)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()


# ---------------------------------------------------------------------- #
# Self time with children on pool threads
# ---------------------------------------------------------------------- #
def test_pool_thread_spans_link_to_the_driving_threads_open_span():
    clock = ManualClock()
    tracer = Tracer(clock=clock)
    tracer.begin_round(7)
    step = tracer.open("core.session")
    clock.now = 10
    pull = tracer.open("core.gradient_pull")
    pool_spans = []

    def pool_task(start, end):
        def task():
            clock.now = start
            span = tracer.open("nn.forward")
            clock.now = end
            tracer.close(span)
            pool_spans.append(span)

        return task

    # Two pool threads whose work overlaps in time, plus one running past
    # the parent's end.
    run_on_thread(pool_task(20, 70))
    run_on_thread(pool_task(50, 90))
    run_on_thread(pool_task(95, 130))
    clock.now = 110
    tracer.close(pull)
    clock.now = 120
    tracer.close(step)

    for span in pool_spans:
        assert span.parent is pull
        assert span.cross_thread
        assert span.round == 7
        assert span.thread != step.thread
    assert pull.parent is step and not pull.cross_thread

    children = children_of(tracer.spans)
    # [20, 90] is covered once although two threads overlap on [50, 70];
    # [95, 110] is the clipped part of the third child.
    assert self_time(pull, children[id(pull)]) == 100 - (70 + 15)
    assert self_time(step, children[id(step)]) == 120 - 100


def test_spans_after_the_rounds_belong_to_no_round():
    tracer = Tracer(clock=ManualClock())
    tracer.begin_round(3)
    tracer.end_rounds()
    spans = []
    run_on_thread(lambda: spans.append(tracer.open("nn.forward")))
    assert spans[0].parent is None and spans[0].round == -1


def test_union_length_merges_overlaps_and_skips_empty_intervals():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 15), (20, 30), (30, 31), (40, 40)]) == 26


def test_self_time_without_children_is_the_duration():
    span = Span("x", start=5, thread=1, round=0, end=25)
    assert self_time(span, []) == 20


def test_closing_out_of_order_is_an_error():
    tracer = Tracer(clock=ManualClock())
    outer = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


# ---------------------------------------------------------------------- #
# Percentiles: ten samples beyond the reported one
# ---------------------------------------------------------------------- #
def test_p90_needs_one_hundred_samples_for_ten_beyond():
    assert min_samples_for(90, beyond=10) == 100
    assert min_samples_for(50, beyond=10) == 20
    assert min_samples_for(99, beyond=10) == 1000


def test_tail_percentile_is_nearest_rank_and_refuses_thin_tails():
    samples = list(range(1, 101))
    assert nearest_rank(samples, 90) == (90, 10)
    assert tail_percentile(list(reversed(samples)), 90) == 90
    with pytest.raises(ValueError, match="need 10"):
        tail_percentile(samples[:99], 90)
    assert nearest_rank([4.0], 90) == (4.0, 0)
    with pytest.raises(ValueError):
        nearest_rank([], 50)


# ---------------------------------------------------------------------- #
# Failure counting
# ---------------------------------------------------------------------- #
def test_a_round_with_several_failed_checks_counts_once():
    ledger = RoundLedger()
    ledger.attempt(("measured", 0))
    ledger.attempt(("measured", 1), ["quorum 12 != expected 13", "diverged"])
    ledger.attempt(("measured", 2))
    ledger.attempt(("repeat-1", 0))
    assert (ledger.attempted, ledger.failed) == (4, 1)
    # A check made after the run charges a round already attempted.
    ledger.fail(("measured", 2), "final test loss nan is not finite")
    ledger.fail(("measured", 1), "digest mismatch")
    assert (ledger.attempted, ledger.failed, ledger.ratio) == (4, 2, 0.5)
    assert ledger.lines()[0] == "round ('measured', 1): quorum 12 != expected 13"
    assert len(ledger.lines()) == 4


def test_a_run_with_no_attempted_round_has_failed_ratio_one():
    assert RoundLedger().ratio == 1.0


# ---------------------------------------------------------------------- #
# The JSON envelope
# ---------------------------------------------------------------------- #
def test_envelope_round_trip():
    line = envelope(True, 104, 0, {"round_ms_p50": (12.25, "ms"), "setup_s": (0.8127, "s")})
    assert "\n" not in line
    body = parse_envelope(line)
    assert list(body) == ["correct", "attempted", "failed", "metrics"]
    assert body["correct"] is True and body["attempted"] == 104 and body["failed"] == 0
    assert body["metrics"] == {
        "round_ms_p50": {"value": 12.25, "unit": "ms"},
        "setup_s": {"value": 0.8127, "unit": "s"},
    }


@pytest.mark.parametrize(
    "body",
    [
        {"correct": True, "attempted": 1, "failed": 0},
        {"correct": True, "attempted": 1, "failed": 0, "metrics": {}, "extra": 1},
        {"correct": "yes", "attempted": 1, "failed": 0, "metrics": {}},
        {"correct": True, "attempted": 0, "failed": 0, "metrics": {}},
        {"correct": True, "attempted": 2.5, "failed": 0, "metrics": {}},
        {"correct": False, "attempted": 1, "failed": 2, "metrics": {}},
        {"correct": True, "attempted": 1, "failed": 0, "metrics": {"x": {"value": 1}}},
    ],
)
def test_parse_envelope_rejects_malformed_results(body):
    with pytest.raises(ValueError):
        parse_envelope(json.dumps(body))


def test_envelope_refuses_values_that_are_not_numbers():
    with pytest.raises(ValueError):
        envelope(True, 1, 0, {"final_test_loss": (float("nan"), "nats")})


# ---------------------------------------------------------------------- #
# Per-layer arithmetic and wrapper coverage
# ---------------------------------------------------------------------- #
def _span(name, start, end, thread=1, round_=4, parent=None, cross=False):
    return Span(name, start, thread, round_, parent, cross, end)


def test_layer_metrics_pool_busy_gradients_and_coverage():
    tracer = Tracer()
    step = _span("core.session", 0, 1_000_000)
    pull = _span("core.gradient_pull", 100_000, 900_000, parent=step)
    forwards = [
        _span("nn.forward", 100_000, 400_000, thread=2, parent=pull, cross=True),
        _span("nn.forward", 200_000, 500_000, thread=3, parent=pull, cross=True),
    ]
    backwards = [
        _span("nn.backward", 400_000, 800_000, thread=2, parent=pull, cross=True),
        _span("nn.backward", 500_000, 900_000, thread=3, parent=pull, cross=True),
    ]
    warm = _span("core.session", -5, -1, round_=3)
    tracer.spans = [warm, step, pull, *forwards, *backwards]
    result = SimpleNamespace(
        detection={"events": [{"action": "evict", "target": "worker-9"}]},
        record=SimpleNamespace(compute_time=0.002, communication_time=0.004, aggregation_time=0.001),
    )
    rounds = [
        layers.RoundTrace(3, warm, 0, 0, 0, 0, result),
        layers.RoundTrace(4, step, 100, 4, 1, 0, result),
    ]
    metrics = layers.layer_metrics(
        tracer,
        rounds,
        warmup=4,
        executor_workers=2,
        attackers=["worker-9", "worker-8"],
        modeled_updates_per_s=50.0,
    )
    assert metrics["nn.forward_ms"] == pytest.approx(0.6)
    assert metrics["nn.backward_ms"] == pytest.approx(0.8)
    assert metrics["nn.gradient_ms"] == pytest.approx(0.7)
    assert metrics["nn.gradients"] == 2
    # Each pool thread is busy for 0.7 of the 0.8 ms pull: 1.4 / (2 * 0.8).
    assert metrics["core.pool_busy_ratio"] == pytest.approx(1.4 / 1.6)
    # The pull is covered by its children from 0.1 to 0.9 ms: no self time.
    assert metrics["core.gradient_pull_ms"] == pytest.approx(0.0)
    assert metrics["core.session_ms"] == pytest.approx(0.2)
    assert metrics["trace.coverage_ratio"] == pytest.approx(0.8)
    assert metrics["network.bytes"] == 100 and metrics["network.hedges"] == 1
    assert metrics["detection.evictions"] == 1
    assert metrics["detection.attacker_eviction_ratio"] == 0.5
    assert metrics["cost.modeled_comm_ms"] == pytest.approx(4.0)


def test_coverage_problems_name_silent_wrappers_only_where_expected():
    calls = Counter({"repro.network.rpc.encode_value": 3})
    problems = layers.coverage_problems("msmw_wire_process", calls)
    assert not any("rpc.encode_value" in p for p in problems)
    assert any("repro.network.wire.decode_value" in p for p in problems)
    assert layers.coverage_problems("ssmw_cnn", Counter({s.key: 1 for s in layers.SITES})) == []


def test_every_import_by_name_binding_of_a_wrapped_function_has_a_site():
    import repro.network.rpc  # noqa: F401  (binds the codec functions)

    assert layers.unwrapped_bindings() == []


def test_install_wraps_and_uninstall_restores():
    from repro.network import rpc, wire

    original = rpc.encode_value
    tracer = Tracer()
    patches = layers.install(tracer)
    try:
        assert rpc.encode_value is not original and rpc.encode_value.__wrapped__ is original
        assert wire.decode_value(rpc.encode_value({"k": 1})) == {"k": 1}
    finally:
        patches.uninstall()
    assert rpc.encode_value is original
    assert patches.calls["repro.network.rpc.encode_value"] == 1
    assert [span.name for span in tracer.spans] == ["network.encode", "network.decode"]


# ---------------------------------------------------------------------- #
# BENCHMARK.json describes what the benchmark reports
# ---------------------------------------------------------------------- #
def test_benchmark_json_matches_the_workloads_and_metrics():
    from pathlib import Path

    from perfbench import run
    from perfbench.workloads import WORKLOADS

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"] and spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: workload.why for name, workload in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )

    step = _span("core.session", 0, 10)
    result = SimpleNamespace(
        detection=None,
        record=SimpleNamespace(compute_time=0.0, communication_time=0.0, aggregation_time=0.0),
    )
    metrics = layers.layer_metrics(
        Tracer(),
        [layers.RoundTrace(0, step, 0, 0, 0, 0, result)],
        warmup=0,
        executor_workers=0,
        attackers=[],
        modeled_updates_per_s=1.0,
    )
    names = [*metrics, "trace.overhead_ratio"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in names
    }


def test_block_percentile_matches_the_pooled_one_on_steady_samples():
    samples = [float(v % 20) for v in range(400)]
    value, blocks = block_percentile(samples, 90)
    assert blocks == 4
    assert value == tail_percentile(samples[:100], 90)
    assert block_percentile(samples, 50) == (tail_percentile(samples[:20], 50), 20)


def test_block_percentile_follows_the_phase_mix_where_the_pooled_one_jumps():
    def run(fast_blocks):
        return [10.0] * (20 * fast_blocks) + [15.0] * (20 * (10 - fast_blocks))

    # The pooled median jumps from the slow to the fast phase when the
    # fast share reaches one half; the block mean moves in even steps.
    assert [nearest_rank(run(k), 50)[0] for k in (4, 5, 6)] == [15.0, 10.0, 10.0]
    assert [block_percentile(run(k), 50)[0] for k in (4, 5, 6)] == [13.0, 12.5, 12.0]


def test_block_percentile_uses_every_sample_and_refuses_too_few():
    value, blocks = block_percentile(list(range(139)), 50)
    assert blocks == 6 and value == pytest.approx(sum(range(139)) / 139, abs=1)
    with pytest.raises(ValueError, match="at least 100"):
        block_percentile([1.0] * 99, 90)
