"""Per-layer metrics: counter snapshots of a store (plain or sharded)
and the fold of traced layer times and counts into the per-layer
metrics that BENCHMARK.json names."""

from __future__ import annotations

#: Memory-I/O categories charged by the filter probe.
FILTER_CATEGORIES = ("filter", "filter_dt", "filter_rt", "filter_aht",
                     "filter_ovf")


def store_counters(store) -> dict[str, int]:
    """Cumulative counters of a store, summed over shards."""
    out: dict[str, int] = {
        "storage_reads": 0, "storage_writes": 0,
        "cache_hits": 0, "cache_misses": 0, "false_positives": 0,
        "wal_bytes": 0, "rebuilds": 0, "maintenance_misses": 0,
    }
    for shard in getattr(store, "shards", [store]):
        out["storage_reads"] += shard.counters.storage.reads
        out["storage_writes"] += shard.counters.storage.writes
        cache = shard.tree.cache
        if cache is not None:
            out["cache_hits"] += cache.hits
            out["cache_misses"] += cache.misses
        out["false_positives"] += shard.false_positives
        if shard.wal is not None:
            out["wal_bytes"] += shard.wal.appended_bytes
        out["rebuilds"] += getattr(shard.policy, "rebuilds", 0)
        out["maintenance_misses"] += getattr(
            getattr(shard.policy, "filter", None), "maintenance_misses", 0
        )
    return out


def diff(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def _per(value: float, count: int) -> float:
    return value / count if count else 0.0


def store_layer_metrics(layers: dict, counts: dict, counters: dict,
                        ops: int, gets: int, puts: int,
                        factor: float) -> dict[str, float]:
    """The store-side per-layer metrics.

    ``layers`` maps layer name to ``{"calls", "total_ns", "self_ns"}``;
    ``counts`` holds the tracer's counts; ``counters`` is a
    :func:`store_counters` delta over the traced window. ``puts``
    counts every write (puts and deletes). Times are scaled to the
    reference speed by ``factor`` and reported in µs.
    """

    def us(name: str, key: str = "total_ns") -> float:
        return layers.get(name, {}).get(key, 0) * factor / 1_000

    def calls(name: str) -> int:
        return layers.get(name, {}).get("calls", 0)

    candidates = counts.get("candidates", 0)
    lookups = counters["cache_hits"] + counters["cache_misses"]
    return {
        "kvstore.self_us_per_op": _per(us("kvstore", "self_ns"), ops),
        "memtable.us_per_op": _per(us("memtable"), ops),
        "filter_probe.us_per_get": _per(us("filter_probe"), gets),
        "filter_probe.mem_ios_per_get": _per(counts.get("probe_mem_ios", 0),
                                             gets),
        "filter_probe.candidates_per_get": _per(candidates, gets),
        "filter_probe.useful_ratio": _per(
            candidates - counters["false_positives"], candidates
        ),
        "filter_maint.us_per_put": _per(us("filter_maint"), puts),
        "filter_maint.events_per_put": _per(counts.get("maint_events", 0), puts),
        "filter_maint.rebuilds": float(counters["rebuilds"]),
        "filter_maint.misses": float(counters["maintenance_misses"]),
        "fence.us_per_get": _per(us("fence"), gets),
        "run_probe.per_get": _per(calls("run_probe"), gets),
        "block_cache.hit_ratio": _per(counters["cache_hits"], lookups),
        "block_cache.us_per_get": _per(us("block_cache"), gets),
        "storage.reads_per_get": _per(counts.get("point_block_reads", 0), gets),
        "storage.blocks_written_per_put": _per(counters["storage_writes"], puts),
        "storage.us_per_op": _per(us("storage"), ops),
        "tree.flush_self_us_per_put": _per(us("tree", "self_ns"), puts),
        "tree.entries_merged_per_put": _per(counts.get("entries_merged", 0),
                                            puts),
        "wal.us_per_put": _per(us("wal"), puts),
        "wal.bytes_per_put": _per(counters["wal_bytes"], puts),
    }


def layers_as_dict(tracer) -> dict:
    return {
        name: {"calls": s.calls, "total_ns": s.total_ns, "self_ns": s.self_ns}
        for name, s in tracer.layers.items()
    }


def self_time_ns(layers: dict) -> int:
    """Sum of every layer's self time."""
    return sum(layer["self_ns"] for layer in layers.values())


#: Serve-only per-layer metrics; zero on the in-process workloads.
SERVER_METRICS = (
    "protocol.us_per_req", "group_commit.wait_us",
    "group_commit.writes_per_batch", "server.store_us_per_req",
    "server.fused_get_ratio", "serve.unattributed_us",
)
