"""The benchmark's own arithmetic: spans, self time, percentiles, failures, envelope.

Nothing here imports the program under test, so the tests in
``perfbench/test_perfbench.py`` exercise it directly.
"""

from __future__ import annotations

import json
import math
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

#: Round id of spans recorded outside any round (session set-up).
SETUP_ROUND = -1


@dataclass(eq=False)
class Span:
    """One call across a layer boundary, in ``perf_counter_ns`` time."""

    name: str
    start: int
    thread: int
    round: int
    parent: Optional["Span"] = None
    #: The parent was found on the round's driving thread, not this one.
    cross_thread: bool = False
    end: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans in memory; written out only when the run ends.

    Each thread keeps its own stack of open spans.  A span opened on a pool
    thread with nothing open on that thread is linked to the innermost span
    open on the round's driving thread (the one inside ``Session.step``),
    which is blocked in the fan-out that submitted the pool task.  Spans of
    one round share its round id.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.round = SETUP_ROUND
        self._local = threading.local()
        self._lock = threading.Lock()
        self._driver_stack: Optional[List[Span]] = None

    def stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_round(self, index: int) -> None:
        """Mark the calling thread as the driver of round ``index``."""
        self.round = index
        self._driver_stack = self.stack()

    def end_rounds(self) -> None:
        """Spans opened from now on belong to no round."""
        self.round = SETUP_ROUND
        self._driver_stack = None

    def is_open(self, name: str) -> bool:
        """Whether a span named ``name`` is open on the calling thread."""
        return any(span.name == name for span in self.stack())

    def open(self, name: str) -> Span:
        stack = self.stack()
        parent, cross = (stack[-1], False) if stack else (None, False)
        driver = self._driver_stack
        if parent is None and driver and driver is not stack:
            parent, cross = driver[-1], True
        span = Span(
            name=name,
            start=self.clock(),
            thread=threading.get_ident(),
            round=self.round,
            parent=parent,
            cross_thread=cross,
        )
        with self._lock:
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self.stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span '{span.name}' closed out of order")
        stack.pop()


def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Map ``id(parent)`` to its direct children, same-thread or cross-thread."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    return children


def covered_by_children(span: Span, children: Sequence[Span]) -> int:
    """The part of ``span``'s interval that its children cover.

    Children on several pool threads overlap each other; their union counts
    once, and any part outside the parent's interval is clipped.
    """
    return union_length(
        (max(child.start, span.start), min(child.end, span.end)) for child in children
    )


def self_time(span: Span, children: Sequence[Span]) -> int:
    """A span's duration minus the part of it its child spans cover."""
    return span.duration - covered_by_children(span, children)


def nearest_rank(samples: Sequence[float], percent: float) -> Tuple[float, int]:
    """Nearest-rank ``percent``-th percentile and the number of samples beyond it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def min_samples_for(percent: float, beyond: int = 10) -> int:
    """Fewest samples for which at least ``beyond`` lie past the percentile."""
    count = beyond
    while count - max(1, math.ceil(percent / 100.0 * count)) < beyond:
        count += 1
    return count


def tail_percentile(samples: Sequence[float], percent: float, beyond: int = 10) -> float:
    """The ``percent``-th percentile, refusing it when fewer than ``beyond`` samples exceed it."""
    value, past = nearest_rank(samples, percent)
    if past < beyond:
        raise ValueError(
            f"p{percent:g} of {len(samples)} samples has only {past} beyond it; "
            f"need {beyond} (at least {min_samples_for(percent, beyond)} samples)"
        )
    return value


def block_percentile(samples: Sequence[float], percent: float, beyond: int = 10) -> Tuple[float, int]:
    """The mean of the ``percent``-th percentiles of consecutive blocks, and the block count.

    The samples are cut, in order, into as many blocks as leave ``beyond``
    samples past each block's percentile.  On a machine of steady speed this
    estimates the pooled percentile.  On a shared VM whose speed flips
    between phases for seconds at a time, the pooled percentile jumps to
    whichever phase holds the percentile's rank, while the block mean moves
    smoothly with the share of time spent in each phase.
    """
    size = min_samples_for(percent, beyond)
    blocks = len(samples) // size
    if blocks == 0:
        raise ValueError(f"need at least {size} samples for p{percent:g} with {beyond} beyond")
    values = [
        tail_percentile(samples[i * len(samples) // blocks : (i + 1) * len(samples) // blocks], percent, beyond)
        for i in range(blocks)
    ]
    return sum(values) / blocks, blocks


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


@dataclass
class RoundLedger:
    """Rounds attempted and failed; a round fails on any failed check."""

    attempted: int = 0
    failures: Dict[Hashable, List[str]] = field(default_factory=dict)

    def attempt(self, round_index: Hashable, problems: Sequence[str] = ()) -> None:
        self.attempted += 1
        for problem in problems:
            self.fail(round_index, problem)

    def fail(self, round_index: Hashable, problem: str) -> None:
        """Charge a failed check to a round already attempted."""
        self.failures.setdefault(round_index, []).append(problem)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def lines(self) -> List[str]:
        return [
            f"round {index}: {problem}"
            for index in sorted(self.failures)
            for problem in self.failures[index]
        ]


ENVELOPE_KEYS = ("correct", "attempted", "failed", "metrics")


def envelope(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]
) -> str:
    """The one-line JSON result: ``metrics`` maps a name to ``(value, unit)``."""
    body = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return json.dumps(body, allow_nan=False)


def parse_envelope(line: str) -> Dict:
    """Parse and validate a result line written by :func:`envelope`."""
    body = json.loads(line)
    if tuple(sorted(body)) != tuple(sorted(ENVELOPE_KEYS)):
        raise ValueError(f"envelope keys {sorted(body)} != {sorted(ENVELOPE_KEYS)}")
    if not isinstance(body["correct"], bool):
        raise ValueError("'correct' must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(body[key], int) or isinstance(body[key], bool) or body[key] < 0:
            raise ValueError(f"'{key}' must be a non-negative whole number")
    if body["attempted"] < 1 or body["failed"] > body["attempted"]:
        raise ValueError("need 1 <= attempted and failed <= attempted")
    for name, metric in body["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise ValueError(f"metric '{name}' must be {{'value': number, 'unit': str}}")
    return body
