"""Run one benchmark workload and print its result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload point-read-deep --seed 1 \
        --seconds 10 --trace 0

Workloads: ``point-read-deep`` and ``write-mixed`` (in process, through
``build_store``/``KVStore``) and ``serve-ycsb-b`` (``repro serve`` in a
child process, driven over TCP). ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` a separate traced run's
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full artifact (raw and scaled figures,
sample counts, scale factors, tree shape) is written under
``.perfbench_out/`` in the checkout.

The program under test is imported from ``src/`` of the checkout and
nowhere else; without it the run exits nonzero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("point-read-deep", "write-mixed", "serve-ycsb-b")


def _import_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source at {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, "
                         f"not from {src}")


def _declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds normally, so no server child outlives it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    _import_program()
    sys.path.insert(0, ROOT)
    from perfbench.inproc import GuardError, point_read_deep, write_mixed
    from perfbench.serve import serve_ycsb_b

    runner = {
        "point-read-deep": point_read_deep,
        "write-mixed": write_mixed,
        "serve-ycsb-b": serve_ycsb_b,
    }[args.workload]
    trace = bool(args.trace)
    declared = _declared(trace)
    try:
        outcome = runner(args.seed, args.seconds, trace)
    except GuardError as exc:
        print(f"perfbench: workload guard failed: {exc}", file=sys.stderr)
        return 3
    if set(outcome.metrics) != set(declared):
        missing = sorted(set(declared) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(declared))
        print(f"perfbench: metric set differs from BENCHMARK.json "
              f"(missing {missing}, extra {extra})", file=sys.stderr)
        return 4

    fail_rate = outcome.failed / outcome.attempted
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: fail_rate {fail_rate:.6f} "
          f"({outcome.failed}/{outcome.attempted} failed)")
    for line in outcome.failures:
        print(f"  failure: {line}")
    for name, unit in declared.items():
        print(f"  {name:34s} {outcome.metrics[name]:14.4f} {unit}")

    artifact = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "fail_rate": fail_rate, "failures": outcome.failures,
        "metrics": outcome.metrics, "details": outcome.details,
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
