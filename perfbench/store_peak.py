"""Peak memory of one in-process workload's store, in a fresh process.

Usage: ``python3 perfbench/store_peak.py <workload> <seed> <sizes json>``
with ``point-read-deep`` or ``write-mixed`` and the workload's sizes.

Builds the workload's store through ``put`` (on write-mixed, then
applies one round of its mixed stream, unchecked) and prints one JSON
object: the resident set before the build (``base_mb``), the peak
resident set the work adds (``added_mb``: VmHWM after less VmRSS
before) and whether the work raised the process's peak (``raised``).

A fresh process makes the figure depend on the store alone. Measured
inside the harness, the build first reuses heap the harness freed
earlier, an amount that shifts with any unrelated change to it.
"""

from __future__ import annotations

import gc
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from repro.engine.config import build_store

    from perfbench import streams
    from perfbench.common import status_mb
    from perfbench.inproc import PointReadSizes, WriteMixedSizes, _config

    workload, seed = argv[0], int(argv[1])
    if workload == "point-read-deep":
        sizes = PointReadSizes(**json.loads(argv[2]))
        config = _config(sizes, durable=False)
        ops = []
    else:
        sizes = WriteMixedSizes(**json.loads(argv[2]))
        config = _config(sizes, durable=True)
        ops, _ = streams.mixed_ops(seed, sizes.loaded, sizes.mix_ops,
                                   sizes.theta, sizes.scan_span)
    order = streams.load_order(workload, seed, sizes.loaded)
    values = {key: streams.value_for(key, 0) for key in order}

    gc.collect()
    base = status_mb("VmRSS")
    hwm_before = status_mb("VmHWM")
    store = build_store(config)
    for key in order:
        store.put(key, values[key])
    for op in ops:
        if op.kind is streams.GET:
            store.get(op.key)
        elif op.kind is streams.PUT:
            store.put(op.key, op.arg)
        elif op.kind is streams.DELETE:
            store.delete(op.key)
        else:
            list(store.scan(op.key, op.arg))
    hwm = status_mb("VmHWM")
    print(json.dumps({"base_mb": base, "added_mb": hwm - base,
                      "raised": hwm > hwm_before}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
