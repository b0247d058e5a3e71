"""The in-process workloads, driven through ``build_store``/``KVStore``.

point-read-deep
    Lazy leveling, T=4, Chucky, a 128-block cache; the tree is built
    through ``put`` to L >= 5, then read-only gets (half present keys,
    half absent keys inside the key range). The filter probe, fence,
    run and storage layers do nearly all the work and the data is far
    larger than the cache: the paper's flat-read-cost regime (Fig 14).
    Memtable, WAL and filter maintenance sit idle.

write-mixed
    Same geometry with the WAL on, loaded to L=4; then ~50% puts (half
    fresh keys that grow the tree to L=5, half updates), ~40% Zipfian
    gets whose hot set fits the cache, ~5% deletes and ~5% short scans.
    Memtable, WAL, flush/merge and filter maintenance dominate; probes
    hit the filter maintenance is rewriting, and scans bypass it.

A run repeats fixed, seeded rounds until ``seconds`` of measured time
have passed. Every round of one seed does identical counted work, which
the run checks; the counted metrics come from the first round. Here
``ops_per_s`` is the rate one closed-loop caller with no think time
sees: operations over their summed latencies at the reference speed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field

from perfbench import streams
from perfbench.common import RefScale, Samples, median
from perfbench.layers import (
    SERVER_METRICS,
    layers_as_dict,
    self_time_ns,
    store_counters,
    store_layer_metrics,
    diff,
)
from perfbench.tracing import Tracer, install_store_layers

#: Stand-in result for an operation that raised.
_RAISED = object()
#: The untraced runs' stand-in for a ``bench`` span.
_NO_SPAN = contextlib.nullcontext()


class GuardError(RuntimeError):
    """The workload did not have the shape its rationale depends on."""


@dataclass
class Outcome:
    """What a run reports: metrics plus the correctness tally."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    @property
    def correct(self) -> bool:
        return self.failed == 0


@dataclass(frozen=True)
class PointReadSizes:
    size_ratio: int = 4
    buffer_entries: int = 64
    block_entries: int = 16
    cache_blocks: int = 128
    loaded: int = 20_000
    min_levels: int = 5
    #: Data blocks must be at least this many times the cache.
    data_to_cache: int = 8
    setups: int = 3
    round_gets: int = 4_000
    min_rounds: int = 3
    fpr_probes: int = 150_000
    #: Short scans, in chunks between reference-loop brackets.
    scans: int = 400
    scan_chunk: int = 50
    scan_span: int = 16


@dataclass(frozen=True)
class WriteMixedSizes:
    size_ratio: int = 4
    buffer_entries: int = 64
    block_entries: int = 16
    cache_blocks: int = 128
    loaded: int = 12_000
    start_levels: int = 4
    end_levels: int = 5
    data_to_cache: int = 4
    mix_ops: int = 28_000
    #: Ops between reference-loop brackets inside a round.
    chunk_ops: int = 3_500
    theta: float = 0.99
    scan_span: int = 16
    min_rounds: int = 2
    fpr_probes: int = 150_000


def _config(sizes, durable: bool):
    from repro.engine.config import EngineConfig

    return EngineConfig.lazy_leveled(
        size_ratio=sizes.size_ratio,
        policy="chucky",
        buffer_entries=sizes.buffer_entries,
        block_entries=sizes.block_entries,
        cache_blocks=sizes.cache_blocks,
        durable=durable,
    )


def _shape(store, cache_blocks: int) -> dict:
    return {
        "levels": store.tree.num_levels,
        "entries": store.num_entries,
        "data_blocks": store.tree.storage.total_blocks,
        "cache_blocks": cache_blocks,
    }


def _modelled_ns(store) -> float:
    counters = store.counters
    return store.cost_model.total_cost(
        counters.memory.total, counters.storage.reads, counters.storage.writes
    )


def _fingerprint(store) -> tuple:
    """Counted state that must repeat exactly across rounds of a seed."""
    counters = store.counters
    return (
        counters.memory.total, counters.storage.reads,
        counters.storage.writes, store.false_positives,
        store.tree.num_levels, store.num_entries,
    )


def _expected_scan(model: dict, lo: int, hi: int) -> list:
    return [(key, model[key]) for key in range(lo, hi + 1, 2) if key in model]


def _timed_scans(store, model, ops, clock) -> tuple[list[int], int]:
    lat, bad = [], 0
    for op in ops:
        start = clock()
        try:
            got = list(store.scan(op.key, op.arg))
        except Exception:  # noqa: BLE001 — counted as a failed op
            got = _RAISED
        lat.append(clock() - start)
        if got != _expected_scan(model, op.key, op.arg):
            bad += 1
    return lat, bad


def _absent_probes(store, keys: list[int]) -> tuple[float, int]:
    """False positives per absent-key get, over the fused read path."""
    before = store.false_positives
    values = store.get_batch(keys)
    bad = sum(1 for value in values if value is not None)
    return (store.false_positives - before) / len(keys), bad


def _store_peak(workload: str, seed: int, sizes, out: Outcome) -> float:
    """The peak memory the workload's store adds to a fresh process:
    its build (and, on write-mixed, one mixed round), merge transients
    included, without the harness. See ``perfbench/store_peak.py``."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "store_peak.py"),
         workload, str(seed), json.dumps(dataclasses.asdict(sizes))],
        cwd=root, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"store_peak.py failed:\n{proc.stderr[-2000:]}")
    peak = json.loads(proc.stdout.splitlines()[-1])
    out.tally(1, int(not peak["raised"]), "the store raised the peak memory")
    out.details["peak_rss"] = peak
    return peak["added_mb"]


def _exactness(store, out: Outcome) -> None:
    from repro.faults.invariants import InvariantChecker

    violations = InvariantChecker().check_filter_exactness(store)
    out.tally(1, len(violations), "filter exactness")
    out.failures.extend(str(v) for v in violations[:5])


class _TraceWindow:
    """Accumulates the traced rounds of a run for the per-layer metrics."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counters: dict[str, int] = {}
        self.wall_ns = 0
        self.ops = self.gets = self.puts = 0
        self.factors: list[float] = []
        self.traced_rates: list[float] = []
        self.plain_rates: list[float] = []

    def begin(self, store) -> dict:
        self.tracer.enabled = True
        return store_counters(store)

    def end(self, store, before: dict) -> None:
        self.tracer.enabled = False
        for key, value in diff(store_counters(store), before).items():
            self.counters[key] = self.counters.get(key, 0) + value

    def metrics(self) -> dict[str, float]:
        factor = median(self.factors)
        layers = layers_as_dict(self.tracer)
        out = store_layer_metrics(
            layers, self.tracer.counts, self.counters,
            self.ops, self.gets, self.puts, factor,
        )
        for name in SERVER_METRICS:
            out[name] = 0.0
        bench = layers.get("bench", {"self_ns": 0, "total_ns": 0})
        # The harness's share: its work inside each op's bench span and
        # its loop outside the spans.
        other_ns = bench["self_ns"] + self.wall_ns - bench["total_ns"]
        out["other.us_per_op"] = other_ns * factor / 1_000 / self.ops
        # Nested spans partition the time of their root spans, so in
        # process this share is close to 1 by construction: it only
        # shows loop time outside the bench spans. Time the tracer
        # fails to place in a layer below lands in kvstore self time.
        out["trace.coverage"] = self_time_ns(layers) / self.wall_ns
        out["trace.overhead"] = median(self.traced_rates) / median(
            self.plain_rates
        )
        return out


def _check_coverage(out: Outcome, against: str) -> None:
    coverage = out.metrics["trace.coverage"]
    out.tally(1, int(abs(coverage - 1.0) > 0.10),
              f"per-layer self times cover {coverage:.3f} of {against}")


def _timed_build(build_store, config, order, values, clock, scale: RefScale,
                 samples: Samples | None):
    """Build a store and load ``order`` through ``put``, bracketing every
    1000 puts with reference timings (outside the timed stretches).
    Returns (store, set-up seconds at reference speed, failed puts)."""
    begin = clock()
    store = build_store(config)
    put = store.put
    setup_ns = (clock() - begin) * scale.mark()
    bad = 0
    for first in range(0, len(order), 1_000):
        lat = []
        begin = clock()
        for key in order[first:first + 1_000]:
            start = clock()
            try:
                put(key, values[key])
            except Exception:  # noqa: BLE001 — counted as a failed op
                bad += 1
            lat.append(clock() - start)
        elapsed = clock() - begin
        factor = scale.mark()
        setup_ns += elapsed * factor
        if samples is not None:
            samples.extend(lat, factor)
    if samples is not None:
        samples.end_round()
    return store, setup_ns / 1e9, bad


# ----------------------------------------------------------------------
# point-read-deep
# ----------------------------------------------------------------------


def _timed_gets(get, keys, expected, clock,
                tracer: Tracer | None = None) -> tuple[list[int], int, int]:
    """Time each get and check it; with a ``tracer``, each op runs in a
    ``bench`` span, whose self time is the harness's share of the
    traced time. Returns (latencies ns, failed gets, loop wall ns)."""
    lat, bad = [], 0
    begin = clock()
    for key, want in zip(keys, expected):
        with tracer.span("bench") if tracer is not None else _NO_SPAN:
            start = clock()
            try:
                value = get(key)
            except Exception:  # noqa: BLE001 — counted as a failed op
                value = _RAISED
            lat.append(clock() - start)
            if value != want:
                bad += 1
    return lat, bad, clock() - begin


def point_read_deep(seed: int, seconds: float, trace: bool,
                    sizes: PointReadSizes = PointReadSizes()) -> Outcome:
    from repro.analysis.measured import collect_metrics
    from repro.engine.config import build_store

    out = Outcome()
    config = _config(sizes, durable=False)
    clock = time.perf_counter_ns
    scale = RefScale()
    order = streams.load_order("point-read-deep", seed, sizes.loaded)
    model = {key: streams.value_for(key, 0) for key in order}

    setup_s: list[float] = []
    put_samples = Samples()
    builds = []
    for _ in range(sizes.setups):
        # A KVStore holds reference cycles: free the last one here, not
        # in the cyclic collector during a measured stretch.
        store = None
        gc.collect()
        store, seconds_taken, bad = _timed_build(
            build_store, config, order, model, clock, scale, put_samples
        )
        setup_s.append(seconds_taken)
        out.tally(len(order), bad, "build puts")
        builds.append((
            # Counters start at zero, so this prices the whole build.
            _modelled_ns(store) / len(order),
            collect_metrics(store, fast=True),
            _fingerprint(store),
        ))
    out.tally(1, int(any(b != builds[0] for b in builds)),
              "builds of one seed repeat their counted I/Os")
    modelled_put_ns, build_metrics, _ = builds[0]
    rss_mb = _store_peak("point-read-deep", seed, sizes, out)

    shape = _shape(store, sizes.cache_blocks)
    out.details["shape"] = shape
    if shape["levels"] < sizes.min_levels:
        raise GuardError(
            f"point-read-deep reached L={shape['levels']}, needs "
            f">= {sizes.min_levels}"
        )
    if shape["data_blocks"] < sizes.data_to_cache * sizes.cache_blocks:
        raise GuardError(
            f"point-read-deep holds {shape['data_blocks']} data blocks, "
            f"needs >= {sizes.data_to_cache}x the {sizes.cache_blocks}-block "
            f"cache"
        )

    ops = streams.point_read_ops(seed, sizes.loaded, sizes.round_gets)
    keys = [op.key for op in ops]
    expected = [model.get(key) for key in keys]
    tracer = window = None
    if trace:
        tracer = Tracer(clock=clock)
        install_store_layers(tracer)
        window = _TraceWindow(tracer)
    get_samples = Samples()
    round_rates: list[float] = []
    measured_ns = 0
    rounds = 0
    modelled_get_ns = 0.0
    try:
        while rounds < sizes.min_rounds or measured_ns < seconds * 1e9:
            traced = window is not None and rounds % 2 == 1
            snap = store.snapshot() if rounds == 0 else None
            if traced:
                before = window.begin(store)
                lat, bad, wall = _timed_gets(store.get, keys, expected,
                                             clock, tracer)
                window.end(store, before)
            else:
                lat, bad, wall = _timed_gets(store.get, keys, expected, clock)
            factor = scale.mark()
            out.tally(len(keys), bad, "gets")
            rate = len(keys) / (sum(lat) * factor / 1e9)
            if traced:
                window.factors.append(factor)
                window.wall_ns += wall
                window.ops += len(keys)
                window.gets += len(keys)
                window.traced_rates.append(rate)
            else:
                get_samples.extend(lat, factor)
                get_samples.end_round()
                round_rates.append(rate)
                if window is not None:
                    window.plain_rates.append(rate)
            if snap is not None:
                modelled_get_ns = store.latency_since(snap, len(keys)).total_ns
            measured_ns += wall
            rounds += 1
    finally:
        if tracer is not None:
            tracer.restore()

    scans = streams.scan_ops("point-read-deep", seed, sizes.loaded,
                             sizes.scans, sizes.scan_span)
    scan_samples = Samples()
    for first in range(0, len(scans), sizes.scan_chunk):
        scan_lat, bad = _timed_scans(
            store, model, scans[first:first + sizes.scan_chunk], clock
        )
        scan_samples.extend(scan_lat, scale.mark())
        scan_samples.end_round()
        out.tally(len(scan_lat), bad, "scans")

    fpr, bad = _absent_probes(
        store, streams.absent_probe_keys("point-read-deep", seed,
                                         sizes.fpr_probes)
    )
    out.tally(sizes.fpr_probes, bad, "absent-key probes")
    _exactness(store, out)

    out.details.update(rounds=rounds, measured_s=measured_ns / 1e9,
                       scale_factors=scale.factors)
    if window is not None:
        out.metrics = window.metrics()
        out.details["layers"] = layers_as_dict(tracer)
        _check_coverage(out, "the traced loop's wall time")
        return out

    gets = get_samples.summary()
    puts = put_samples.summary()
    scans_summary = scan_samples.summary((0.5,))
    out.details.update(get=gets, put=puts, scan=scans_summary,
                       setup_s=setup_s)
    out.metrics = {
        "get_p50_us": gets["p50"],
        "get_p99_us": gets["p99"],
        "put_p50_us": puts["p50"],
        "put_p99_us": puts["p99"],
        "put_mean_us": puts["mean"],
        "scan_p50_us": scans_summary["p50"],
        "ops_per_s": median(round_rates),
        "setup_s": median(setup_s),
        "peak_rss_mb": rss_mb,
        "modelled_get_ns": modelled_get_ns,
        "modelled_put_ns": modelled_put_ns,
        "fpr": fpr,
        "filter_bits_per_entry": build_metrics.filter_bits_per_entry,
        "write_amp": build_metrics.write_amplification,
    }
    return out


# ----------------------------------------------------------------------
# write-mixed
# ----------------------------------------------------------------------


def _run_mix(store, ops, model, clock, lat: dict, costs: dict | None,
             tracer: Tracer | None) -> tuple[int, int]:
    """Apply the mixed stream, checking reads against ``model`` (which it
    updates). ``lat`` collects per-kind latencies, ``costs`` per-kind
    modelled ns (first round only), ``tracer`` wraps each op in a bench
    span. Returns (failed ops, loop wall ns)."""
    get, put, delete, scan = store.get, store.put, store.delete, store.scan
    GET, PUT, DELETE = streams.GET, streams.PUT, streams.DELETE
    bad = 0
    begin = clock()
    for op in ops:
        kind, key = op.kind, op.key
        with tracer.span("bench") if tracer is not None else _NO_SPAN:
            if costs is not None:
                cost_before = _modelled_ns(store)
            start = clock()
            try:
                if kind is GET:
                    got = get(key)
                elif kind is PUT:
                    got = put(key, op.arg)
                elif kind is DELETE:
                    got = delete(key)
                else:
                    got = list(scan(key, op.arg))
            except Exception:  # noqa: BLE001 — counted as a failed op
                got = _RAISED
            lat[kind].append(clock() - start)
            if costs is not None:
                costs[kind] += _modelled_ns(store) - cost_before
            if kind is GET:
                ok = got == model.get(key)
            elif kind is PUT:
                ok = got is None
                model[key] = op.arg
            elif kind is DELETE:
                ok = got is None
                model.pop(key, None)
            else:
                ok = got == _expected_scan(model, key, op.arg)
            if not ok:
                bad += 1
    return bad, clock() - begin


def write_mixed(seed: int, seconds: float, trace: bool,
                sizes: WriteMixedSizes = WriteMixedSizes()) -> Outcome:
    from repro.analysis.measured import collect_metrics
    from repro.engine.config import build_store

    out = Outcome()
    config = _config(sizes, durable=True)
    clock = time.perf_counter_ns
    scale = RefScale()
    order = streams.load_order("write-mixed", seed, sizes.loaded)
    initial = {key: streams.value_for(key, 0) for key in order}
    ops, hot_set = streams.mixed_ops(seed, sizes.loaded, sizes.mix_ops,
                                     sizes.theta, sizes.scan_span)
    counts = {kind: 0 for kind in (streams.GET, streams.PUT, streams.DELETE,
                                   streams.SCAN)}
    for op in ops:
        counts[op.kind] += 1
    writes = counts[streams.PUT] + counts[streams.DELETE]
    if hot_set > sizes.cache_blocks:
        raise GuardError(
            f"write-mixed hot set of {hot_set} keys exceeds the "
            f"{sizes.cache_blocks}-block cache"
        )

    tracer = window = None
    if trace:
        tracer = Tracer(clock=clock)
        install_store_layers(tracer)
        window = _TraceWindow(tracer)
    samples = {kind: Samples() for kind in counts}
    setup_s: list[float] = []
    round_rates: list[float] = []
    measured_ns = 0
    rounds = 0
    first = None
    counted: dict = {}
    try:
        while rounds < sizes.min_rounds or measured_ns < seconds * 1e9:
            # A KVStore holds reference cycles: free the last round's
            # here, not in the cyclic collector during a measured stretch.
            store = None
            gc.collect()
            store, seconds_taken, bad = _timed_build(
                build_store, config, order, initial, clock, scale, None
            )
            setup_s.append(seconds_taken)
            out.tally(len(order), bad, "load puts")
            start_shape = _shape(store, sizes.cache_blocks)
            if start_shape["levels"] != sizes.start_levels:
                raise GuardError(
                    f"write-mixed starts at L={start_shape['levels']}, "
                    f"needs {sizes.start_levels}"
                )
            if start_shape["data_blocks"] < (
                sizes.data_to_cache * sizes.cache_blocks
            ):
                raise GuardError(
                    f"write-mixed holds {start_shape['data_blocks']} data "
                    f"blocks, needs >= {sizes.data_to_cache}x the cache"
                )

            traced = window is not None and rounds % 2 == 1
            model = dict(initial)
            costs = dict.fromkeys(counts, 0.0) if rounds == 0 else None
            bad = wall = 0
            scaled_busy = 0.0
            if traced:
                before = window.begin(store)
            for first_op in range(0, len(ops), sizes.chunk_ops):
                chunk = ops[first_op:first_op + sizes.chunk_ops]
                lat = {kind: [] for kind in counts}
                chunk_bad, chunk_wall = _run_mix(
                    store, chunk, model, clock, lat, costs,
                    tracer if traced else None,
                )
                if traced:
                    tracer.enabled = False
                factor = scale.mark()
                if traced:
                    tracer.enabled = True
                    window.factors.append(factor)
                else:
                    for kind in lat:
                        samples[kind].extend(lat[kind], factor)
                    # Gets close a round per chunk (>= 1000 of them);
                    # writes keep whole rounds, so their mean and tail
                    # include the round's one tree growth.
                    samples[streams.GET].end_round()
                bad += chunk_bad
                wall += chunk_wall
                scaled_busy += sum(map(sum, lat.values())) * factor
            if traced:
                window.end(store, before)
            else:
                for kind in samples:
                    samples[kind].end_round()
            out.tally(len(ops), bad, "mixed ops")
            rate = len(ops) / (scaled_busy / 1e9)
            if traced:
                window.wall_ns += wall
                window.ops += len(ops)
                window.gets += counts[streams.GET]
                window.puts += writes
                window.traced_rates.append(rate)
            else:
                round_rates.append(rate)
                if window is not None:
                    window.plain_rates.append(rate)
            end_shape = _shape(store, sizes.cache_blocks)
            if end_shape["levels"] < sizes.end_levels:
                raise GuardError(
                    f"write-mixed ended at L={end_shape['levels']}, needs "
                    f">= {sizes.end_levels}"
                )
            if first is None:
                first = _fingerprint(store)
                rss_mb = _store_peak("write-mixed", seed, sizes, out)
                metrics = collect_metrics(store, fast=True)
                counted = {
                    "modelled_get_ns": costs[streams.GET] / counts[streams.GET],
                    # Per write: a flush cascade is charged to whichever
                    # write filled the memtable, put or delete alike.
                    "modelled_put_ns": (
                        costs[streams.PUT] + costs[streams.DELETE]
                    ) / writes,
                    "filter_bits_per_entry": metrics.filter_bits_per_entry,
                    "write_amp": metrics.write_amplification,
                }
                probes = streams.absent_probe_keys(
                    "write-mixed", seed, sizes.fpr_probes
                )
                fpr, bad = _absent_probes(store, probes)
                counted["fpr"] = fpr
                out.tally(len(probes), bad, "absent-key probes")
                _exactness(store, out)
                out.details["shape"] = {"start": start_shape, "end": end_shape,
                                        "hot_set_keys": hot_set}
            else:
                out.tally(1, int(_fingerprint(store) != first),
                          "rounds of one seed repeat their counted I/Os")
            measured_ns += wall
            rounds += 1
    finally:
        if tracer is not None:
            tracer.restore()

    out.details.update(rounds=rounds, measured_s=measured_ns / 1e9,
                       scale_factors=scale.factors, op_counts=counts)
    if window is not None:
        out.metrics = window.metrics()
        out.details["layers"] = layers_as_dict(tracer)
        _check_coverage(out, "the traced loop's wall time")
        return out

    summary = {kind: samples[kind].summary(
        (0.5, 0.99) if kind in (streams.GET, streams.PUT) else (0.5,)
    ) for kind in samples}
    out.details.update(latency=summary, setup_s=setup_s, counted=counted)
    out.metrics = {
        "get_p50_us": summary[streams.GET]["p50"],
        "get_p99_us": summary[streams.GET]["p99"],
        "put_p50_us": summary[streams.PUT]["p50"],
        "put_p99_us": summary[streams.PUT]["p99"],
        "put_mean_us": summary[streams.PUT]["mean"],
        "scan_p50_us": summary[streams.SCAN]["p50"],
        "ops_per_s": median(round_rates),
        "setup_s": median(setup_s),
        "peak_rss_mb": rss_mb,
        "modelled_get_ns": counted["modelled_get_ns"],
        "modelled_put_ns": counted["modelled_put_ns"],
        "fpr": counted["fpr"],
        "filter_bits_per_entry": counted["filter_bits_per_entry"],
        "write_amp": counted["write_amp"],
    }
    return out
