"""The benchmark's own server launcher for the traced serve run.

Runs ``repro serve`` exactly as the command line does (``repro.cli
.main``), after wrapping the server's layers in spans: every event-loop
iteration (``event_loop``), every callback it runs (``callbacks``), the
selector wait (``idle``), frame encode/decode
(``protocol``), group-commit apply and wait, the sharded store and every
store layer below it. A PING request opens the traced window and the
next PING closes it; after the drain the window's per-layer totals are
printed as one ``PERFBENCH-TRACE {json}`` line.

Usage: ``python3 perfbench/serve_child.py <repro serve arguments>``.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _server_counters(server) -> dict[str, int]:
    return {
        "requests": server.requests,
        "batched_gets": server.batched_gets,
        "commit_batches": server.commit.batches,
        "commit_items": server.commit.items,
    }


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    import asyncio
    import selectors

    from repro import cli
    from repro.engine.sharded import ShardedKVStore
    from repro.server import server as server_module
    from repro.server.group_commit import GroupCommitWriter
    from repro.server.protocol import Op
    from repro.server.server import ReproServer

    from perfbench.layers import diff, layers_as_dict, store_counters
    from perfbench.tracing import Tracer, install_store_layers

    tracer = Tracer()
    install_store_layers(tracer)
    tracer.wrap(asyncio.base_events.BaseEventLoop, "_run_once", "event_loop")
    tracer.wrap(asyncio.events.Handle, "_run", "callbacks")
    tracer.wrap(selectors.DefaultSelector, "select", "idle")
    for name in ("decode_request", "encode_response", "frame"):
        tracer.wrap(server_module, name, "protocol")
    tracer.wrap(GroupCommitWriter, "_apply", "group_commit")
    tracer.wrap_async(GroupCommitWriter, "submit", "group_commit_wait")
    for attr in ("get", "get_batch", "put_batch"):
        tracer.wrap(ShardedKVStore, attr, "engine")
    tracer.wrap(ShardedKVStore, "scan", "engine", materialize=True)

    window: dict = {}
    execute = ReproServer.__dict__["_execute"]

    async def traced_execute(self, request):
        if request.op is Op.PING:
            clock = tracer.clock
            if not window:
                tracer.reset()
                window.update(
                    start_ns=clock(), store=store_counters(self.store),
                    server=_server_counters(self),
                )
                tracer.enabled = True
            elif "wall_ns" not in window:
                tracer.enabled = False
                window.update(
                    wall_ns=clock() - window["start_ns"],
                    store=diff(store_counters(self.store), window["store"]),
                    server=diff(_server_counters(self), window["server"]),
                    layers=layers_as_dict(tracer),
                    counts=dict(tracer.counts),
                )
        return await execute(self, request)

    ReproServer._execute = traced_execute
    status = cli.main(["serve", *argv])
    print("PERFBENCH-TRACE " + json.dumps(window, sort_keys=True), flush=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
