"""Per-layer tracing from outside the program.

Each :class:`Site` wraps one public function of one layer where its callers
look it up: a method on its defining class, or a module-level name in every
module that imports it by name (``transport``, ``wire`` and ``rpc`` bind the
codec functions into their own namespaces, so wrapping only
``repro.network.serialization`` would miss their calls).  :func:`install`
refuses to run when a ``repro`` module binds a wrapped function under a name
no site covers, and :func:`coverage_problems` names every wrapper that saw no
call on a workload where it must run.

The ``Session.step`` span (``core.session``) is opened by the benchmark's
round loop itself, around its own call.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

from perfbench.spans import Span, Tracer, children_of, covered_by_children, median, self_time, union_length
from perfbench.workloads import WORKLOADS

ALL = frozenset(WORKLOADS)
CNN = frozenset({"ssmw_cnn", "msmw_cnn_threaded"})
IN_PROCESS = ALL - {"msmw_wire_process"}
MSMW = frozenset({"msmw_cnn_threaded", "msmw_wire_process"})
WIRE = frozenset({"msmw_wire_process"})
GUARDED = frozenset({"ssmw_guarded"})
NONE: FrozenSet[str] = frozenset()


@dataclass(frozen=True)
class Site:
    """One wrapped function: ``module`` + ``qualname`` (``Class.method`` or ``name``)."""

    span: str
    module: str
    qualname: str
    #: Workloads on which this wrapper must record at least one call.
    expect: FrozenSet[str]
    #: Record only the outermost call on a thread (recursive module calls,
    #: GARs calling GARs, codec functions calling each other).
    top_only: bool = False

    @property
    def key(self) -> str:
        return f"{self.module}.{self.qualname}"


_SER = "repro.network.serialization"
SITES: Tuple[Site, ...] = (
    # Worker compute runs in node subprocesses on the process backend.
    Site("nn.forward", "repro.nn.layers", "Module.__call__", IN_PROCESS, top_only=True),
    Site("nn.backward", "repro.nn.tensor", "Tensor.backward", IN_PROCESS),
    Site("datasets.next_batch", "repro.datasets.loader", "DataLoader.next_batch", IN_PROCESS),
    Site("attacks.craft", "repro.attacks.base", "Attack.__call__", GUARDED),
    Site("aggregators.gar", "repro.aggregators.base", "GAR.__call__", CNN, top_only=True),
    Site("aggregators.gar", "repro.aggregators.base", "GAR.aggregate_matrix", ALL, top_only=True),
    Site("sharding.aggregate", "repro.sharding.aggregation", "aggregate_shards", WIRE),
    Site("detection.score", "repro.detection.manager", "DetectionManager.weigh_and_observe", GUARDED),
    Site("detection.score", "repro.detection.manager", "DetectionManager.finish_round", GUARDED),
    Site("core.gradient_pull", "repro.core.server", "Server.get_gradient_matrix", IN_PROCESS),
    Site("core.gradient_pull", "repro.core.server", "Server.get_sharded_gradient_matrices", WIRE),
    Site("core.model_pull", "repro.core.server", "Server.get_model_matrix", MSMW),
    Site("core.apply", "repro.core.server", "Server.update_model", ALL),
    Site("core.apply", "repro.core.server", "Server.write_model", MSMW),
    Site("core.evaluate", "repro.core.server", "Server.compute_accuracy", ALL),
    Site("network.rpc", "repro.network.rpc", "SocketBackend.invoke", WIRE),
    # Codec entry points, wrapped in every module that binds them.
    Site("network.encode", _SER, "serialize_vector", NONE, top_only=True),
    Site("network.encode", _SER, "serialize_vector_parts", NONE, top_only=True),
    Site("network.encode", _SER, "serialize_vector_shards", NONE, top_only=True),
    Site("network.encode", _SER, "serialize_with_reconstruction", NONE, top_only=True),
    Site("network.decode", _SER, "deserialize_vector", NONE, top_only=True),
    Site("network.encode", "repro.network.transport", "serialize_vector", NONE, top_only=True),
    Site("network.encode", "repro.network.transport", "serialize_with_reconstruction", NONE, top_only=True),
    Site("network.decode", "repro.network.transport", "deserialize_vector", NONE, top_only=True),
    Site("network.encode", "repro.network.wire", "serialize_vector_parts", WIRE, top_only=True),
    Site("network.encode", "repro.network.wire", "encode_value", NONE, top_only=True),
    Site("network.decode", "repro.network.wire", "deserialize_vector", WIRE, top_only=True),
    Site("network.decode", "repro.network.wire", "decode_value", WIRE, top_only=True),
    Site("network.encode", "repro.network.rpc", "serialize_with_reconstruction", NONE, top_only=True),
    Site("network.encode", "repro.network.rpc", "encode_value", WIRE, top_only=True),
    Site("network.decode", "repro.network.rpc", "deserialize_vector", NONE, top_only=True),
)

def _owner_and_attr(site: Site):
    module = importlib.import_module(site.module)
    *classes, attr = site.qualname.split(".")
    owner = module
    for name in classes:
        owner = getattr(owner, name)
    if classes and attr not in vars(owner):
        raise LookupError(f"{site.key} is inherited, not defined there; wrap the defining class")
    return owner, attr


class Patches:
    """Installed wrappers, their call counts, and how to take them out."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.calls: Counter = Counter()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, site: Site) -> None:
        owner, attr = _owner_and_attr(site)
        original = vars(owner)[attr]
        setattr(owner, attr, self._wrapper(site, original))
        self._undo.append((owner, attr, original))

    def _wrapper(self, site: Site, original: Callable) -> Callable:
        tracer, calls, lock, key, name = self.tracer, self.calls, self._lock, site.key, site.span

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with lock:
                calls[key] += 1
            if site.top_only and tracer.is_open(name):
                return original(*args, **kwargs)
            span = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def unwrapped_bindings(sites: Sequence[Site] = SITES) -> List[str]:
    """``module.name`` bindings of wrapped module-level functions that no site covers."""
    covered = {site.key for site in sites}
    originals = set()
    for site in sites:
        owner, attr = _owner_and_attr(site)
        if isinstance(owner, type(sys)):
            originals.add(id(getattr(owner, attr)))
    missing = []
    for module_name, module in sorted(sys.modules.items()):
        # A package's __init__ only re-exports names; it calls none of them.
        if not module_name.startswith("repro.") or module is None or hasattr(module, "__path__"):
            continue
        for attr, value in vars(module).items():
            if id(value) in originals and f"{module_name}.{attr}" not in covered:
                missing.append(f"{module_name}.{attr}")
    return missing


def install(tracer: Tracer, sites: Sequence[Site] = SITES) -> Patches:
    """Wrap every site; raise if a caller binds a wrapped function elsewhere."""
    missing = unwrapped_bindings(sites)
    if missing:
        raise LookupError(f"wrapped functions are also bound at {missing}; add sites for them")
    patches = Patches(tracer)
    try:
        for site in sites:
            patches.wrap(site)
    except BaseException:
        patches.uninstall()
        raise
    return patches


def coverage_problems(workload: str, calls: Counter, sites: Sequence[Site] = SITES) -> List[str]:
    """Wrappers that recorded no call on a workload where their layer must run."""
    return [
        f"wrapper {site.key} ({site.span}) recorded 0 calls on {workload}"
        for site in sites
        if workload in site.expect and calls[site.key] == 0
    ]


# ---------------------------------------------------------------------- #
# Per-layer metrics from the recorded spans
# ---------------------------------------------------------------------- #
@dataclass
class RoundTrace:
    """What the round loop saw of one traced ``Session.step``."""

    index: int
    span: Span
    #: Transport counter deltas over the round.
    bytes: int
    messages: int
    hedges: int
    retries: int
    result: object


def _under(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def layer_metrics(
    tracer: Tracer,
    rounds: Sequence[RoundTrace],
    *,
    warmup: int,
    executor_workers: int,
    attackers: Sequence[str],
    modeled_updates_per_s: float,
) -> Dict[str, float]:
    """Every per-layer metric, averaged per timed round except: ``nn.gradient_ms``
    (median per gradient), ``core.evaluate_ms`` (median per evaluation),
    ``detection.*`` (over the whole run) and the ratios."""
    timed = [r for r in rounds if r.index >= warmup]
    count = len(timed)
    if count == 0:
        raise ValueError("no timed rounds were traced")
    timed_ids = {r.index for r in timed}
    spans = [s for s in tracer.spans if s.round in timed_ids]
    children = children_of(tracer.spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total_ms(name: str, spans_of=None) -> float:
        chosen = by_name.get(name, []) if spans_of is None else spans_of
        return sum(span.duration for span in chosen) / 1e6 / count

    def self_ms(name: str) -> float:
        return sum(self_time(s, children.get(id(s), ())) for s in by_name.get(name, [])) / 1e6 / count

    forwards = [s for s in by_name.get("nn.forward", []) if not _under(s, "core.evaluate")]
    backwards = by_name.get("nn.backward", [])
    gradients = _gradient_times_ms(forwards, backwards)

    pulls = by_name.get("core.gradient_pull", [])
    pull_wall = sum(span.duration for span in pulls)
    pool_busy = 0.0
    if executor_workers > 0 and pull_wall > 0:
        per_thread: Dict[int, List[Tuple[int, int]]] = {}
        for span in spans:
            if span.cross_thread and span.parent is not None and span.parent.name == "core.gradient_pull":
                per_thread.setdefault(span.thread, []).append((span.start, span.end))
        busy = sum(union_length(intervals) for intervals in per_thread.values())
        pool_busy = busy / (executor_workers * pull_wall)

    evicted = membership_events(rounds)["evicted"]

    steps = [r.span for r in timed]
    step_wall = sum(span.duration for span in steps)
    covered = sum(covered_by_children(span, children.get(id(span), ())) for span in steps)
    records = [r.result.record for r in timed]
    evaluations = [span.duration / 1e6 for span in tracer.spans if span.name == "core.evaluate"]
    return {
        "nn.forward_ms": total_ms("nn.forward", forwards),
        "nn.backward_ms": total_ms("nn.backward"),
        "nn.gradient_ms": median(gradients) if gradients else 0.0,
        "nn.gradients": len(backwards) / count,
        "datasets.next_batch_ms": total_ms("datasets.next_batch"),
        "attacks.craft_ms": total_ms("attacks.craft"),
        "aggregators.gar_ms": total_ms("aggregators.gar"),
        "aggregators.gar_calls": len(by_name.get("aggregators.gar", [])) / count,
        "sharding.aggregate_ms": total_ms("sharding.aggregate"),
        "detection.score_ms": total_ms("detection.score"),
        "detection.evictions": float(len(evicted)),
        "detection.attacker_eviction_ratio": (
            len(evicted & set(attackers)) / len(attackers) if attackers else 0.0
        ),
        "core.gradient_pull_ms": self_ms("core.gradient_pull"),
        "core.model_pull_ms": self_ms("core.model_pull"),
        "core.pool_busy_ratio": pool_busy,
        "core.apply_ms": total_ms("core.apply"),
        "core.evaluate_ms": median(evaluations) if evaluations else 0.0,
        "core.session_ms": self_ms("core.session"),
        "network.bytes": sum(r.bytes for r in timed) / count,
        "network.messages": sum(r.messages for r in timed) / count,
        "network.hedges": sum(r.hedges for r in timed) / count,
        "network.retries": sum(r.retries for r in timed) / count,
        "network.encode_ms": total_ms("network.encode"),
        "network.decode_ms": total_ms("network.decode"),
        "network.rpc_calls": len(by_name.get("network.rpc", [])) / count,
        "network.rpc_ms": total_ms("network.rpc"),
        "cost.modeled_compute_ms": 1e3 * sum(r.compute_time for r in records) / count,
        "cost.modeled_comm_ms": 1e3 * sum(r.communication_time for r in records) / count,
        "cost.modeled_aggregation_ms": 1e3 * sum(r.aggregation_time for r in records) / count,
        "cost.modeled_updates_per_s": modeled_updates_per_s,
        "trace.coverage_ratio": covered / step_wall if step_wall else 0.0,
    }


def membership_events(rounds: Sequence[RoundTrace]) -> Dict[str, object]:
    """Detector decisions over the run: distinct workers evicted, and how
    many evict and re-admit events it took (re-admitted attackers that
    attack again are evicted again)."""
    evicted = set()
    counts = Counter()
    for r in rounds:
        for event in (r.result.detection or {}).get("events", ()):
            counts[event["action"]] += 1
            if event["action"] == "evict":
                evicted.add(event["target"])
    return {"evicted": evicted, "evict": counts["evict"], "readmit": counts["readmit"]}


def _gradient_times_ms(forwards: Sequence[Span], backwards: Sequence[Span]) -> List[float]:
    """Forward plus backward time of each gradient: a backward closes the
    latest forward that ended before it on the same thread."""
    events = sorted(
        [(s.thread, s.start, 0, s) for s in forwards] + [(s.thread, s.start, 1, s) for s in backwards],
        key=lambda item: (item[0], item[1], item[2]),
    )
    times: List[float] = []
    pending: Dict[int, Span] = {}
    for thread, _, kind, span in events:
        if kind == 0:
            pending[thread] = span
        elif thread in pending:
            times.append((pending.pop(thread).duration + span.duration) / 1e6)
    return times


def self_time_breakdown(tracer: Tracer, rounds: Sequence[RoundTrace], warmup: int) -> List[Tuple[str, float]]:
    """Each span name's self time as a share of timed round wall, largest first.

    Pool threads run concurrently, so shares can add up to more than 1.
    """
    timed_ids = {r.index for r in rounds if r.index >= warmup}
    wall = sum(r.span.duration for r in rounds if r.index in timed_ids)
    children = children_of(tracer.spans)
    shares: Dict[str, int] = {}
    for span in tracer.spans:
        if span.round in timed_ids:
            shares[span.name] = shares.get(span.name, 0) + self_time(span, children.get(id(span), ()))
    return sorted(((name, value / wall) for name, value in shares.items()), key=lambda kv: -kv[1])
