"""Span tracing from outside the program: the public calls of each
module are wrapped, on their classes, in timing spans that keep a stack,
so each layer's *self* time (its span minus the child spans inside it)
is known. Spans are folded into per-layer totals in memory as they
close; nothing inside ``src/`` is touched.

Only the traced run installs these wrappers; the untraced run, which
supplies every end-to-end number, runs the program as shipped.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from perfbench.layers import FILTER_CATEGORIES


@dataclass
class LayerStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class Tracer:
    clock: object = time.perf_counter_ns
    enabled: bool = False
    layers: dict[str, LayerStats] = field(default_factory=dict)
    #: Free-form counters bumped by result hooks (e.g. candidates seen).
    counts: dict[str, int] = field(default_factory=dict)
    #: Open spans, innermost last: [child time ns, layer name].
    _stack: list[list] = field(default_factory=list)
    #: (owner, attribute, the owner's own value or None if inherited).
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def stats(self, name: str) -> LayerStats:
        layer = self.layers.get(name)
        if layer is None:
            layer = self.layers[name] = LayerStats()
        return layer

    def bump(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def reset(self) -> None:
        # Wrappers hold their LayerStats; zero them in place.
        for layer in self.layers.values():
            layer.calls = layer.total_ns = layer.self_ns = 0
        self.counts.clear()

    def _close(self, layer: LayerStats, start: int, frame: list[int]) -> None:
        elapsed = self.clock() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        layer.calls += 1
        layer.total_ns += elapsed
        layer.self_ns += elapsed - frame[0]

    def span(self, name: str) -> "_Span":
        return _Span(self, name, self.stats(name))

    def wrap(self, owner: type, attr: str, layer: str, *,
             materialize: bool = False, on_result=None, on_call=None) -> None:
        """Time every call of ``owner.attr`` as a ``layer`` span.

        ``materialize`` drains a returned iterator inside the span (a
        generator's work otherwise runs after the span closed).
        ``on_call(tracer, args)`` and ``on_result(tracer, args, result)``
        see each call for counting.
        """
        original = getattr(owner, attr)
        stats = self.stats(layer)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if on_call is not None:
                on_call(tracer, args)
            frame = [0, layer]
            tracer._stack.append(frame)
            start = tracer.clock()
            try:
                result = original(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                tracer._close(stats, start, frame)
            if on_result is not None:
                on_result(tracer, args, result)
            return iter(result) if materialize else result

        self._install(owner, attr, wrapper)

    def _install(self, owner, attr: str, wrapper) -> None:
        # Inherited attributes are shadowed on ``owner`` and removed
        # again by restore(); own ones are put back.
        self._patched.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def wrap_async(self, owner: type, attr: str, layer: str) -> None:
        """Time an ``async def`` method from first step to completion,
        awaits included (a wait, not busy time; outside the stack)."""
        original = getattr(owner, attr)
        stats = self.stats(layer)
        tracer = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return await original(*args, **kwargs)
            start = tracer.clock()
            try:
                return await original(*args, **kwargs)
            finally:
                stats.calls += 1
                stats.total_ns += tracer.clock() - start

        self._install(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, own in reversed(self._patched):
            if own is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patched.clear()


class _Span:
    __slots__ = ("_tracer", "_name", "_layer", "_start", "_frame")

    def __init__(self, tracer: Tracer, name: str, layer: LayerStats) -> None:
        self._tracer = tracer
        self._name = name
        self._layer = layer

    def __enter__(self) -> "_Span":
        self._frame = [0, self._name]
        self._tracer._stack.append(self._frame)
        self._start = self._tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close(self._layer, self._start, self._frame)


def _filter_mem_ios(policy) -> int:
    memory = policy.counters.memory
    return sum(memory.get(c) for c in FILTER_CATEGORIES)


def _probe_start(tracer: Tracer, args) -> None:
    tracer.counts["_probe_mem"] = _filter_mem_ios(args[0])


def _count_candidates(tracer: Tracer, args, result) -> None:
    tracer.bump("candidates", len(result))
    tracer.bump("probe_mem_ios",
                _filter_mem_ios(args[0]) - tracer.counts["_probe_mem"])


def _count_candidates_many(tracer: Tracer, args, result) -> None:
    total = 0
    for i, cands in enumerate(result):
        cands = list(cands)
        result[i] = iter(cands)
        total += len(cands)
    tracer.bump("candidates", total)
    tracer.bump("probe_mem_ios",
                _filter_mem_ios(args[0]) - tracer.counts["_probe_mem"])


def _count_events(tracer: Tracer, args) -> None:
    event = args[1]
    tracer.bump("maint_events")
    drops = getattr(event, "drops", None)
    if drops is not None:
        tracer.bump("entries_merged", len(event.survivors) + len(drops))


def _count_point_read(tracer: Tracer, args) -> None:
    # Point reads only: scans and compactions read blocks too.
    if any(frame[1] == "run_probe" for frame in tracer._stack):
        tracer.bump("point_block_reads")


def install_store_layers(tracer: Tracer) -> None:
    """Wrap the engine and LSM layers of one process."""
    from repro.chucky.policy import ChuckyPolicy
    from repro.engine.kvstore import KVStore
    from repro.lsm.block_cache import BlockCache
    from repro.lsm.fence import FencePointers
    from repro.lsm.memtable import Memtable
    from repro.lsm.run import Run
    from repro.lsm.storage import StorageDevice
    from repro.lsm.tree import LSMTree
    from repro.lsm.wal import WriteAheadLog

    for attr in ("get", "put", "delete", "get_batch", "put_batch"):
        tracer.wrap(KVStore, attr, "kvstore")
    tracer.wrap(KVStore, "scan", "kvstore", materialize=True)
    for attr in ("put", "get", "sorted_entries"):
        tracer.wrap(Memtable, attr, "memtable")
    tracer.wrap(ChuckyPolicy, "candidates", "filter_probe", materialize=True,
                on_call=_probe_start, on_result=_count_candidates)
    tracer.wrap(ChuckyPolicy, "candidates_many", "filter_probe",
                on_call=_probe_start, on_result=_count_candidates_many)
    tracer.wrap(ChuckyPolicy, "handle_event", "filter_maint",
                on_call=_count_events)
    tracer.wrap(ChuckyPolicy, "after_write", "filter_maint")
    tracer.wrap(FencePointers, "locate", "fence")
    tracer.wrap(Run, "get", "run_probe")
    tracer.wrap(BlockCache, "get", "block_cache")
    tracer.wrap(BlockCache, "put", "block_cache")
    tracer.wrap(StorageDevice, "read_block", "storage",
                on_call=_count_point_read)
    tracer.wrap(StorageDevice, "read_run", "storage")
    tracer.wrap(StorageDevice, "write_run", "storage")
    tracer.wrap(LSMTree, "flush", "tree")
    for attr in ("append_put", "append_delete", "append_batch"):
        tracer.wrap(WriteAheadLog, attr, "wal")
