"""Seeded request streams. The system under test receives only what
these functions generate; the same seed always yields the same stream.

Keys are dense even integers (``2 * i``), so an odd key inside the
loaded range is absent but still passes every run's key-range check and
has to be rejected by the filter, and a short range scan returns a
predictable number of keys.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

GET, PUT, DELETE, SCAN = "get", "put", "delete", "scan"


def rng_for(workload: str, seed: int, purpose: str) -> random.Random:
    """An independent generator per (workload, seed, purpose); string
    seeds hash deterministically across processes."""
    return random.Random(f"perfbench/{workload}/{seed}/{purpose}")


def present_key(index: int) -> int:
    return 2 * index


def absent_key(index: int) -> int:
    return 2 * index + 1


def value_for(key: int, version: int) -> str:
    return f"v{key}.{version}"


class Zipf:
    """YCSB-style Zipfian ranks over ``n`` items (rank 0 hottest)."""

    def __init__(self, n: int, theta: float, rng: random.Random) -> None:
        total = 0.0
        cdf = []
        for rank in range(1, n + 1):
            total += 1.0 / rank**theta
            cdf.append(total)
        self._cdf = cdf
        self._total = total
        self._rng = rng

    def next(self) -> int:
        return bisect.bisect_left(self._cdf, self._rng.random() * self._total)

    def hot_set(self, share: float) -> int:
        """Fewest top ranks that receive ``share`` of the requests."""
        return bisect.bisect_left(self._cdf, share * self._total) + 1


def load_order(workload: str, seed: int, n: int) -> list[int]:
    """The order in which keys ``present_key(0..n-1)`` are loaded."""
    order = list(range(n))
    rng_for(workload, seed, "load").shuffle(order)
    return [present_key(i) for i in order]


@dataclass(frozen=True)
class Op:
    kind: str
    key: int
    #: Value for puts; upper key bound for scans.
    arg: object = None


def point_read_ops(seed: int, loaded: int, gets: int) -> list[Op]:
    """Uniform gets: half to loaded keys, half to absent keys that lie
    inside the loaded key range."""
    rng = rng_for("point-read-deep", seed, "gets")
    ops = []
    for _ in range(gets):
        index = rng.randrange(loaded)
        key = present_key(index) if rng.random() < 0.5 else absent_key(index)
        ops.append(Op(GET, key))
    return ops


def absent_probe_keys(workload: str, seed: int, count: int) -> list[int]:
    """Distinct absent keys. The filter is probed before any run's key
    range is checked, so keys past the loaded range measure it too."""
    rng = rng_for(workload, seed, "fpr")
    return [absent_key(i) for i in rng.sample(range(1 << 40), count)]


def scan_ops(workload: str, seed: int, loaded: int, count: int,
             span_keys: int) -> list[Op]:
    """Short range scans of about ``span_keys`` loaded keys each."""
    rng = rng_for(workload, seed, "scans")
    ops = []
    for _ in range(count):
        lo = present_key(rng.randrange(max(1, loaded - span_keys)))
        ops.append(Op(SCAN, lo, lo + 2 * (span_keys - 1)))
    return ops


def mixed_ops(seed: int, loaded: int, count: int, theta: float,
              span_keys: int) -> tuple[list[Op], int]:
    """The write-mixed stream: ~50% puts (half fresh keys past the
    loaded range, half updates), ~40% Zipfian gets, ~5% deletes, ~5%
    short scans. Returns the ops and the Zipf hot-set size (ranks that
    receive half the gets)."""
    rng = rng_for("write-mixed", seed, "mix")
    zipf = Zipf(loaded, theta, rng_for("write-mixed", seed, "zipf"))
    rank_to_index = list(range(loaded))
    rng_for("write-mixed", seed, "ranks").shuffle(rank_to_index)
    fresh = loaded
    ops = []
    for version in range(count):
        r = rng.random()
        if r < 0.25:
            key = present_key(fresh)
            fresh += 1
            ops.append(Op(PUT, key, value_for(key, version)))
        elif r < 0.50:
            key = present_key(rng.randrange(loaded))
            ops.append(Op(PUT, key, value_for(key, version)))
        elif r < 0.90:
            ops.append(Op(GET, present_key(rank_to_index[zipf.next()])))
        elif r < 0.95:
            ops.append(Op(DELETE, present_key(rng.randrange(loaded))))
        else:
            lo = present_key(rng.randrange(loaded))
            ops.append(Op(SCAN, lo, lo + 2 * (span_keys - 1)))
    return ops, zipf.hot_set(0.5)


def ycsb_b_ops(seed: int, connection: int, keys: list[int], count: int,
               theta: float) -> list[Op]:
    """YCSB-B for one connection over its own key slice: 95% Zipfian
    reads, 5% Zipfian updates."""
    rng = rng_for("serve-ycsb-b", seed, f"conn{connection}")
    zipf = Zipf(len(keys), theta, rng_for("serve-ycsb-b", seed,
                                          f"zipf{connection}"))
    ranked = list(keys)
    rng_for("serve-ycsb-b", seed, f"ranks{connection}").shuffle(ranked)
    ops = []
    for version in range(count):
        key = ranked[zipf.next()]
        if rng.random() < 0.95:
            ops.append(Op(GET, key))
        else:
            ops.append(Op(PUT, key, value_for(key, version + 1)))
    return ops
