"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They check that inputs come from the seed alone, that the counted
metrics repeat exactly for a seed, and that stating wall time at the
reference speed cancels a uniform slowdown of the host.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import streams  # noqa: E402
from perfbench.common import (  # noqa: E402
    InsufficientSamples,
    RefScale,
    Samples,
    percentile,
)
from perfbench.inproc import (  # noqa: E402
    Outcome,
    PointReadSizes,
    WriteMixedSizes,
    point_read_deep,
    write_mixed,
)
from perfbench.serve import (  # noqa: E402
    ServeSizes,
    _plans,
    _preload_batches,
    _replay,
)

COUNTED = ("modelled_get_ns", "modelled_put_ns", "fpr",
           "filter_bits_per_entry", "write_amp")

SMALL_POINT = PointReadSizes(
    loaded=3_000, min_levels=3, cache_blocks=16, setups=1, round_gets=1_000,
    min_rounds=1, fpr_probes=2_000, scans=40, scan_chunk=20,
)
SMALL_MIXED = WriteMixedSizes(
    loaded=1_500, start_levels=3, end_levels=4, cache_blocks=32,
    data_to_cache=2, mix_ops=14_000, chunk_ops=7_000, min_rounds=1,
    fpr_probes=2_000,
)
SMALL_SERVE = ServeSizes(keys=2_000, subround_ops=100, replay_blocks=1,
                         fpr_probes=2_000)


def _streams(seed: int) -> list:
    return [
        streams.load_order("point-read-deep", seed, 1_000),
        streams.point_read_ops(seed, 1_000, 200),
        streams.mixed_ops(seed, 1_000, 500, 0.99, 16),
        streams.absent_probe_keys("write-mixed", seed, 100),
        streams.scan_ops("point-read-deep", seed, 1_000, 20, 16),
        _plans(seed, SMALL_SERVE),
        _preload_batches(seed, SMALL_SERVE),
    ]


def test_same_seed_gives_identical_request_streams():
    assert _streams(7) == _streams(7)


def test_different_seed_changes_every_stream():
    for first, second in zip(_streams(7), _streams(8)):
        assert first != second


@pytest.mark.parametrize("run,sizes", [
    (point_read_deep, SMALL_POINT),
    (write_mixed, SMALL_MIXED),
])
def test_same_seed_repeats_counted_metrics(run, sizes):
    first = run(3, 0, False, sizes)
    second = run(3, 0, False, sizes)
    assert first.correct and second.correct
    assert {m: first.metrics[m] for m in COUNTED} == {
        m: second.metrics[m] for m in COUNTED
    }


def test_serve_replay_repeats_counted_metrics():
    def replay():
        outcome = Outcome()
        plans = _plans(5, SMALL_SERVE)
        return _replay(5, SMALL_SERVE, plans, outcome), outcome

    (first, out1), (second, out2) = replay(), replay()
    assert out1.correct and out2.correct
    assert first == second


class _SlowHost:
    """A fake clock on a host ``slowdown`` times slower than nominal:
    every unit of work advances time by ``cost * slowdown`` ns."""

    def __init__(self, slowdown: float) -> None:
        self.slowdown = slowdown
        self.now = 0

    def __call__(self) -> int:
        return int(self.now)

    def work(self, cost_ns: float) -> None:
        self.now += cost_ns * self.slowdown

    def reference_loop(self) -> None:
        self.work(2_000_000)


def _scaled_latency(slowdown: float) -> float:
    host = _SlowHost(slowdown)
    scale = RefScale(clock=host, loop=host.reference_loop)
    samples = Samples()
    for _ in range(3):
        raw = []
        for _ in range(100):
            start = host()
            host.work(50_000)
            raw.append(host() - start)
        samples.extend(raw, scale.mark())
    return samples.summary((0.5,))["p50"]


def test_reference_scaling_cancels_uniform_slowdown():
    nominal = _scaled_latency(1.0)
    assert _scaled_latency(1.3) == pytest.approx(nominal, rel=1e-9)
    assert _scaled_latency(0.7) == pytest.approx(nominal, rel=1e-9)


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1_000))
    assert percentile(values, 0.99) == pytest.approx(989.01)
    with pytest.raises(InsufficientSamples):
        percentile(values[:999], 0.99)
    assert percentile(values[:20], 0.5) == pytest.approx(9.5)


def test_fold_open_round_joins_a_short_last_round():
    samples = Samples()
    samples.extend([1_000] * 20, 1.0)
    samples.end_round()
    samples.extend([3_000] * 5, 1.0)
    assert samples.open_count() == 5
    samples.fold_open_round()
    assert samples.open_count() == 0
    assert [len(r) for r in samples.rounds] == [25]
    assert [len(r) for r in samples.raw_rounds] == [25]
