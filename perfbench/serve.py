"""serve-ycsb-b: ``repro serve`` in a child process, driven over TCP.

The server runs with 2 durable, hash-routed shards (group commit on)
and lazy leveling at T=4. One client process opens 2 connections and
runs YCSB-B on them as closed loops: 95% reads and 5% updates, Zipf
0.99, over a key space whose hot set fits the server's block caches.
Each connection carries 4 closed-loop streams (a stream sends its next
request when its previous one is answered), so up to 4 requests are in
flight per connection: the server stays busy rather than waiting on
client wake-ups, pipelined GETs reach the fused ``get_batch`` path, and
concurrent writes meet in group commit. Every stream owns a disjoint
key slice, so each read has one correct answer. Over 90% of a round
trip lies outside the store: protocol, admission control, the event
loop and group commit.

A run starts the server several times (the set-up time is the median of
those starts, each including the preload). Server and client are pinned
to CPUs of their own and the reference loop is timed on both. The wall
figures come from the live runs; the counted metrics come from
replaying the same seeded stream in process against an identically
configured store, because the live interleaving varies from run to run.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

from perfbench import streams
from perfbench.common import RefScale, Samples, median, status_mb
from perfbench.inproc import (
    GuardError,
    Outcome,
    _absent_probes,
    _check_coverage,
    _exactness,
    _expected_scan,
    _modelled_ns,
)
from perfbench.layers import store_layer_metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LISTENING = re.compile(r"listening on [^:\s]+:(\d+)")
_DRAINED = re.compile(
    r"drained \((\d+) requests, (\d+) shed, (\d+) errors, "
    r"(\d+) commit batches / (\d+) writes\)"
)
_RAISED = object()


@dataclass(frozen=True)
class ServeSizes:
    shards: int = 2
    connections: int = 2
    #: Closed-loop streams per connection.
    depth: int = 4
    size_ratio: int = 4
    runs_per_level: int = 3
    buffer_entries: int = 256
    #: ``repro serve`` stores 16 entries per block.
    block_entries: int = 16
    #: Per shard.
    cache_blocks: int = 256
    keys: int = 20_000
    preload_batch: int = 256
    theta: float = 0.99
    #: Ops per stream between reference-loop brackets.
    subround_ops: int = 400
    lifetimes: int = 4
    #: Puts per put round, and at least per server lifetime: a p99
    #: needs 1000. A sub-round's put count depends on the seed, so a
    #: lifetime runs sub-rounds until it has them.
    min_puts: int = 1000
    #: Scans per stream, in chunks between reference-loop brackets.
    scans: int = 400
    scan_chunk: int = 50
    scan_span: int = 16
    #: Sub-round blocks replayed in process for the counted metrics.
    replay_blocks: int = 2
    fpr_probes: int = 150_000
    busy_retries: int = 5
    timeout_s: float = 60.0

    @property
    def streams(self) -> int:
        return self.connections * self.depth

    def server_args(self) -> list[str]:
        return [
            "--shards", str(self.shards), "--port", "0",
            "--size-ratio", str(self.size_ratio),
            "--runs-per-level", str(self.runs_per_level),
            "--runs-at-last", "1",
            "--buffer", str(self.buffer_entries),
            "--cache-blocks", str(self.cache_blocks),
        ]


class ServerProcess:
    """One server child: started, drained with SIGINT, never orphaned."""

    def __init__(self, traced: bool, sizes: ServeSizes) -> None:
        if traced:
            argv = [sys.executable, os.path.join(ROOT, "perfbench",
                                                 "serve_child.py")]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        self.lines: list[str] = []
        self.port: int | None = None
        self._ready = threading.Event()
        self.proc = subprocess.Popen(
            argv + sizes.server_args(), cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))
            match = _LISTENING.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._ready.set()
        self._ready.set()

    def wait_ready(self, timeout: float) -> int:
        if not self._ready.wait(timeout) or self.port is None:
            raise RuntimeError("server did not start:\n" +
                               "\n".join(self.lines[-20:]))
        return self.port

    def peak_rss_mb(self) -> float:
        return status_mb("VmHWM", self.proc.pid)

    def cpu_ns(self) -> int:
        """CPU time the server has used so far (user + system), as the
        kernel accounts it."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            # Fields after the parenthesised command name; utime and
            # stime are fields 14 and 15 of the whole line.
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks * 1_000_000_000 // os.sysconf("SC_CLK_TCK")

    def drain(self, timeout: float) -> dict:
        """SIGINT, wait, and parse the drain line."""
        self.proc.send_signal(signal.SIGINT)
        self.proc.wait(timeout)
        self._reader.join(timeout)
        for line in self.lines:
            match = _DRAINED.search(line)
            if match:
                keys = ("requests", "shed", "errors", "batches", "writes")
                return dict(zip(keys, map(int, match.groups())))
        raise RuntimeError("no drain line:\n" + "\n".join(self.lines[-20:]))

    def trace_window(self) -> dict:
        for line in self.lines:
            if line.startswith("PERFBENCH-TRACE "):
                return json.loads(line[len("PERFBENCH-TRACE "):])
        raise RuntimeError("traced server printed no trace window")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join()
        self.proc.stdout.close()


def _slices(sizes: ServeSizes) -> list[list[int]]:
    """Each stream's own keys."""
    n = sizes.streams
    return [[streams.present_key(i) for i in range(s, sizes.keys, n)]
            for s in range(n)]


def _plans(seed: int, sizes: ServeSizes) -> list[list[streams.Op]]:
    """One sub-round's ops for every stream."""
    return [streams.ycsb_b_ops(seed, s, keys, sizes.subround_ops, sizes.theta)
            for s, keys in enumerate(_slices(sizes))]


def _preload_batches(seed: int, sizes: ServeSizes) -> list[tuple[int, list]]:
    """(stream, items) batches in the order they are sent."""
    n = sizes.streams
    per_stream: list[list] = [[] for _ in range(n)]
    for key in streams.load_order("serve-ycsb-b", seed, sizes.keys):
        per_stream[key // 2 % n].append((key, streams.value_for(key, 0)))
    batches = []
    for start in range(0, max(map(len, per_stream)), sizes.preload_batch):
        for s, items in enumerate(per_stream):
            if items[start:start + sizes.preload_batch]:
                batches.append((s, items[start:start + sizes.preload_batch]))
    return batches


def _hot_set(sizes: ServeSizes) -> int:
    return sum(streams.Zipf(len(keys), sizes.theta, None).hot_set(0.5)
               for keys in _slices(sizes))


class _Stream:
    """One closed-loop stream's results for a sub-round."""

    def __init__(self) -> None:
        self.ns: dict[str, list[int]] = {
            streams.GET: [], streams.PUT: [], streams.SCAN: [],
        }
        self.bad = 0
        self.busy = 0


async def _closed_loop(client, ops, model: dict, full_model: dict | None,
                       clock, retries: int, res: _Stream) -> None:
    """Send ``ops`` one at a time, each after the previous reply. Reads
    are checked against the stream's own ``model``; scans, which cross
    key slices and run only while nobody writes, against
    ``full_model``."""
    from repro.server.client import ServerBusy

    GET, PUT = streams.GET, streams.PUT
    for op in ops:
        kind = op.kind
        start = clock()
        got = _RAISED
        for _ in range(retries + 1):
            try:
                if kind is GET:
                    got = await client.get(op.key)
                elif kind is PUT:
                    await client.put(op.key, op.arg)
                    got = None
                else:
                    got = await client.scan(op.key, op.arg)
                break
            except ServerBusy:
                res.busy += 1
            except Exception:  # noqa: BLE001 — counted as a failed op
                break
        res.ns[kind].append(clock() - start)
        if kind is GET:
            want = model.get(op.key)
            ok = got == (None if want is None else want.encode())
        elif kind is PUT:
            ok = got is None
            if ok:
                model[op.key] = op.arg
        else:
            ok = got == [(k, v.encode()) for k, v in
                         _expected_scan(full_model, op.key, op.arg)]
        if not ok:
            res.bad += 1


async def _subround(clients, plans, models, full_model, sizes, clock):
    """Run every stream's closed loop concurrently. Returns (per-stream
    results, wall ns)."""
    results = [_Stream() for _ in plans]
    begin = clock()
    await asyncio.wait_for(asyncio.gather(*(
        _closed_loop(clients[s // sizes.depth], ops, models[s], full_model,
                     clock, sizes.busy_retries, results[s])
        for s, ops in enumerate(plans)
    )), sizes.timeout_s)
    return results, clock() - begin


async def _client_session(port, seed, sizes, budget_ns, plans, scale, clock,
                          out, acc, setup_ns, server) -> tuple[list, dict]:
    """Preload, check the shape, scan, measure. Returns the measured
    sub-rounds as (per-stream results, wall ns, scale factor), and the
    measured window's group-commit counts and server CPU time."""
    from repro.server.client import AsyncClient

    clients = [await AsyncClient.connect("127.0.0.1", port)
               for _ in range(sizes.connections)]
    try:
        models = [dict() for _ in plans]
        batches = _preload_batches(seed, sizes)
        for first in range(0, len(batches), 8):
            begin = clock()
            bad = 0
            for s, items in batches[first:first + 8]:
                applied = await clients[s // sizes.depth].put_batch(items)
                bad += int(applied != len(items))
                models[s].update(items)
            setup_ns += (clock() - begin) * scale.mark()
            out.tally(len(batches[first:first + 8]), bad, "preload batches")
        acc["setup_s"].append(setup_ns / 1e9)

        store = (await clients[0].stats())["store"]
        shape = {"levels": store["num_levels"],
                 "entries": store["num_entries"],
                 "data_blocks": store["blocks_in_storage"],
                 "cache_blocks": sizes.shards * sizes.cache_blocks,
                 "hot_set_keys": _hot_set(sizes)}
        out.details.setdefault("shape", shape)
        if shape["hot_set_keys"] > shape["cache_blocks"]:
            raise GuardError(f"serve hot set {shape['hot_set_keys']} keys "
                             f"exceeds the {shape['cache_blocks']}-block cache")
        if shape["data_blocks"] <= shape["cache_blocks"]:
            raise GuardError(f"serve data ({shape['data_blocks']} blocks) "
                             f"fits the {shape['cache_blocks']}-block cache")

        # The client is harness only: its garbage collection runs
        # between chunks of work, never as a pause inside a round trip.
        gc.disable()
        try:
            # Scans run on the tree as the preload left it, which the
            # seed alone fixes: after the measured sub-rounds its runs
            # would depend on how many sub-rounds the host's speed
            # allowed.
            full_model = {k: v for model in models for k, v in model.items()}
            scans = [streams.scan_ops(f"serve-ycsb-b/{s}", seed, sizes.keys,
                                      sizes.scans, sizes.scan_span)
                     for s in range(len(plans))]
            for first in range(0, sizes.scans, sizes.scan_chunk):
                chunk = [ops[first:first + sizes.scan_chunk] for ops in scans]
                results, _ = await _subround(clients, chunk, models,
                                             full_model, sizes, clock)
                gc.collect()
                factor = scale.mark()
                for res in results:
                    out.tally(len(res.ns[streams.SCAN]), res.bad,
                              "serve scans")
                    acc["scan"].extend(res.ns[streams.SCAN], factor)
                acc["scan"].end_round()

            before = (await clients[0].stats())["server"]
            cpu_before = server.cpu_ns()
            await clients[0].ping()  # opens a traced server's window
            subrounds = []
            measured = puts = 0
            while puts < sizes.min_puts or measured < budget_ns:
                results, wall = await _subround(clients, plans, models, None,
                                                sizes, clock)
                gc.collect()
                subrounds.append((results, wall, scale.mark()))
                measured += wall
                puts += sum(len(res.ns[streams.PUT]) for res in results)
        finally:
            gc.enable()
        await clients[0].ping()  # closes it
        window = {"cpu_ns": server.cpu_ns() - cpu_before}
        after = (await clients[0].stats())["server"]
        for key in ("commit_batches", "commit_items"):
            window[key] = after[key] - before[key]

        acc["rss"].append(server.peak_rss_mb())
        return subrounds, window
    finally:
        for client in clients:
            await client.close()


def _lifetime(seed, sizes, traced, budget_ns, plans, scale, clock, out, acc,
              server_cpu) -> None:
    """Start a server, run a client session on it, drain it."""
    server = ServerProcess(traced, sizes)
    try:
        if server_cpu is not None:
            os.sched_setaffinity(server.proc.pid, {server_cpu})
        begin = clock()
        port = server.wait_ready(sizes.timeout_s)
        setup_ns = (clock() - begin) * scale.mark()
        subrounds, window = asyncio.run(_client_session(
            port, seed, sizes, budget_ns, plans, scale, clock, out, acc,
            setup_ns, server,
        ))
        drained = server.drain(sizes.timeout_s)
    finally:
        server.stop()
    acc["drains"].append(drained)
    acc["commit_windows"].append(window)
    out.tally(1, int(drained["errors"] != 0 or drained["shed"] != 0),
              f"server drained with {drained['errors']} errors, "
              f"{drained['shed']} shed")
    # Over the measured sub-rounds only: the preload's BATCH requests
    # commit hundreds of writes per batch and would hide a regression.
    out.tally(1, int(window["commit_batches"] >= window["commit_items"]),
              f"group commit put {window['commit_items']} measured writes "
              f"in {window['commit_batches']} batches, not fewer")

    ops = sum(map(len, plans))
    rates, rt_us = [], []
    gets = puts = 0
    for results, wall, factor in subrounds:
        rates.append(ops / (wall * factor / 1e9))
        for res in results:
            got, put = res.ns[streams.GET], res.ns[streams.PUT]
            out.tally(len(got) + len(put), res.bad, "serve ops")
            acc["busy"] += res.busy
            gets += len(got)
            puts += len(put)
            if traced:
                rt_us.extend(v * factor / 1_000 for v in got + put)
            else:
                acc["get"].extend(got, factor)
                acc["put"].extend(put, factor)
        # A get round is one sub-round (about 3000 gets), so a host
        # stall moves the tail of a few of the run's rounds, not its
        # median. A put round closes at the first sub-round boundary
        # after ``min_puts`` puts (enough for a p99), across server
        # lifetimes, so a run has four or more of them.
        acc["get"].end_round()
        if acc["put"].open_count() >= sizes.min_puts:
            acc["put"].end_round()
    if traced:
        acc["traced_rates"].append(median(rates))
        acc["windows"].append({
            "window": server.trace_window(),
            "factor": median([factor for _, _, factor in subrounds]),
            "rt_mean_us": sum(rt_us) / len(rt_us),
            "cpu_ns": window["cpu_ns"],
            "gets": gets, "puts": puts,
        })
    else:
        acc["plain_rates"].append(median(rates))
        acc["rates"].extend(rates)


def _replay(seed: int, sizes: ServeSizes, plans, out) -> dict:
    """The counted metrics: the preload and ``replay_blocks`` sub-round
    blocks of every stream, interleaved round-robin, applied in process
    the way the server applies them (writes as one-item group commits,
    reads one by one). ``modelled_put_ns`` is per write over the preload
    and the replayed updates together, so about 98% of it is the cost of
    the preload's BATCH writes: the few hundred replayed updates alone
    flush a memtable in some seeds and in none in others, and would
    swing tenfold from seed to seed. The artifact splits the two."""
    from repro.analysis.measured import collect_metrics
    from repro.engine.config import EngineConfig, build_store

    store = build_store(EngineConfig(
        size_ratio=sizes.size_ratio, runs_per_level=sizes.runs_per_level,
        runs_at_last_level=1, buffer_entries=sizes.buffer_entries,
        block_entries=sizes.block_entries, policy="chucky",
        cache_blocks=sizes.cache_blocks, durable=True, shards=sizes.shards,
    ))

    def modelled() -> float:
        return sum(_modelled_ns(shard) for shard in store.shards)

    model: dict = {}
    for _s, items in _preload_batches(seed, sizes):
        store.put_batch(items)
        model.update(items)
    preload_ns = put_cost = modelled()
    puts = sizes.keys
    get_cost = 0.0
    gets = bad = 0
    for _ in range(sizes.replay_blocks):
        for step in zip(*plans):
            for op in step:
                before = modelled()
                if op.kind is streams.GET:
                    bad += int(store.get(op.key) != model.get(op.key))
                    get_cost += modelled() - before
                    gets += 1
                else:
                    store.put_batch([(op.key, op.arg)])
                    model[op.key] = op.arg
                    put_cost += modelled() - before
                    puts += 1
    out.tally(gets, bad, "replayed gets")
    metrics = collect_metrics(store, fast=True)
    fpr, bad = _absent_probes(
        store, streams.absent_probe_keys("serve-ycsb-b", seed,
                                         sizes.fpr_probes)
    )
    out.tally(sizes.fpr_probes, bad, "absent-key probes")
    _exactness(store, out)
    updates = puts - sizes.keys
    out.details["replay"] = {
        "preload_put_ns": preload_ns / sizes.keys,
        "update_put_ns": (put_cost - preload_ns) / updates,
        "gets": gets, "updates": updates,
    }
    return {
        "modelled_get_ns": get_cost / gets,
        "modelled_put_ns": put_cost / puts,
        "fpr": fpr,
        "filter_bits_per_entry": metrics.filter_bits_per_entry,
        "write_amp": metrics.write_amplification,
    }


def _window_metrics(traced: dict) -> dict[str, float]:
    """Per-layer metrics of a traced server's window."""
    window, factor = traced["window"], traced["factor"]
    gets, puts = traced["gets"], traced["puts"]
    layers = window["layers"]
    server = window["server"]
    # The closing PING is counted in the window; the opening one is not.
    requests = server["requests"] - 1

    def us(name: str, key: str = "total_ns") -> float:
        return layers.get(name, {}).get(key, 0) * factor / 1_000

    out = store_layer_metrics(layers, window["counts"], window["store"],
                              requests, gets, puts, factor)
    protocol = us("protocol") / requests
    store_us = us("engine") / requests
    waits = layers.get("group_commit_wait", {}).get("calls", 0)
    wait_us = us("group_commit_wait") / waits if waits else 0.0
    out.update({
        "protocol.us_per_req": protocol,
        "group_commit.wait_us": wait_us,
        "group_commit.writes_per_batch": (
            server["commit_items"] / server["commit_batches"]
            if server["commit_batches"] else 0.0
        ),
        "server.store_us_per_req": store_us,
        "server.fused_get_ratio": server["batched_gets"] / gets,
        "serve.unattributed_us": traced["rt_mean_us"] - (
            protocol + store_us + wait_us * puts / requests
        ),
        "other.us_per_op": (us("callbacks", "self_ns")
                            + us("event_loop", "self_ns")) / requests,
        # The server is single-threaded: every layer's self time except
        # the selector wait should add up to the CPU time the kernel
        # charged it over the window.
        "trace.coverage": sum(layer["self_ns"] for name, layer
                              in layers.items() if name != "idle")
        / traced["cpu_ns"],
    })
    return out


def serve_ycsb_b(seed: int, seconds: float, trace: bool,
                 sizes: ServeSizes = ServeSizes()) -> Outcome:
    out = Outcome()
    clock = time.perf_counter_ns
    # Server and client get a CPU each, so neither waits on the other's
    # time slice; the reference loop then runs on both CPUs, because a
    # round trip runs at the speed of both.
    saved_cpus = os.sched_getaffinity(0)
    cpus = sorted(saved_cpus)[:2] if len(saved_cpus) >= 2 else []
    if cpus:
        os.sched_setaffinity(0, {cpus[1]})
    plans = _plans(seed, sizes)
    acc = {"setup_s": [], "rss": [], "drains": [], "commit_windows": [],
           "busy": 0,
           "get": Samples(), "put": Samples(), "scan": Samples(),
           "rates": [], "plain_rates": [], "traced_rates": [], "windows": []}
    try:
        scale = RefScale(cpus=cpus)
        for life in range(sizes.lifetimes):
            _lifetime(seed, sizes, trace and life % 2 == 1,
                      seconds * 1e9 / sizes.lifetimes, plans, scale, clock,
                      out, acc, cpus[0] if cpus else None)
    finally:
        os.sched_setaffinity(0, saved_cpus)
    counted = _replay(seed, sizes, plans, out)
    out.details.update(drains=acc["drains"],
                       commit_windows=acc["commit_windows"],
                       busy_retries=acc["busy"],
                       setup_s=acc["setup_s"], rss_mb=acc["rss"],
                       scale_factors=scale.factors, counted=counted)

    if trace:
        traced = acc["windows"][0]
        out.metrics = _window_metrics(traced)
        out.metrics["trace.overhead"] = (median(acc["traced_rates"])
                                         / median(acc["plain_rates"]))
        out.details["layers"] = traced["window"]["layers"]
        _check_coverage(out, "the server's CPU time")
        return out

    gets = acc["get"].summary()
    acc["put"].fold_open_round()
    puts = acc["put"].summary()
    scans = acc["scan"].summary((0.5,))
    out.details.update(get=gets, put=puts, scan=scans)
    out.metrics = {
        "get_p50_us": gets["p50"],
        "get_p99_us": gets["p99"],
        "put_p50_us": puts["p50"],
        "put_p99_us": puts["p99"],
        "put_mean_us": puts["mean"],
        "scan_p50_us": scans["p50"],
        "ops_per_s": median(acc["rates"]),
        "setup_s": median(acc["setup_s"]),
        "peak_rss_mb": median(acc["rss"]),
        **counted,
    }
    return out
